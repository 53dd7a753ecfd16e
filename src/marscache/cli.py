"""Command-line front end: reproducible decode runs and analysis reports,
both driven by a single JSON run config. Flags only override
config keys; every command echoes its fully resolved config into the output
directory so any artifact is re-derivable from its own directory."""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import (
    attention_cost,
    decode_drift,
    entropy_profile,
    relocate_high_norm,
    visibility_frequency,
    write_csv,
)
from .diffusion import DecodeConfig, DecodeTrace, SequenceLayout, assemble_embeddings, decode
from .engines import EngineParams, make_engine, validate_params
from .model import ModelConfig, forward, init_weights
from .presets import engine_params_from_dict, merge_presets
from .workload import make_high_norm_embeddings, make_workload

SCHEMA_VERSION = "marscache-run-v1"

DEFAULT_CONFIG = {
    "seed": 42,
    "output_dir": "runs/out",
    "model": {
        "num_layers": 8,
        "num_heads": 4,
        "model_dim": 128,
        "head_dim": 32,
        "vocab_size": 256,
        "groups": 4,
    },
    "layout": {
        "num_frames": 8,
        "patches_per_frame": 16,
        "prompt_length": 16,
        "generation_length": 64,
        "block_length": 32,
    },
    "decode": {"num_steps": 32, "tokens_per_step": 2},
    # No default "kind": an explicit kind always overrides presets, so the
    # vanilla fallback lives in engine_params_from_dict instead.
    "engine": {"presets": []},
}


class ConfigError(ValueError):
    """Invalid run config; message names the offending field."""


def _require(mapping: dict, field: str, kind, context: str):
    if field not in mapping:
        raise ConfigError(f"{context}.{field}: missing required key")
    value = mapping[field]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(
            f"{context}.{field}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def resolve_config(user: dict) -> dict:
    """Overlay user keys on the defaults (one level deep)."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    for key, value in user.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    return cfg


def build_model_config(cfg: dict) -> ModelConfig:
    m = cfg["model"]
    layers = _require(m, "num_layers", int, "model")
    groups = m.get("groups")
    if "group_boundaries" in m:
        boundaries = tuple(m["group_boundaries"])
    elif groups:
        if layers % groups != 0:
            raise ConfigError(
                f"model.groups: {groups} does not evenly divide {layers} layers"
            )
        boundaries = tuple(range(0, layers, layers // groups))
    else:
        boundaries = (0,)
    try:
        return ModelConfig(
            num_layers=layers,
            num_heads=_require(m, "num_heads", int, "model"),
            model_dim=_require(m, "model_dim", int, "model"),
            head_dim=_require(m, "head_dim", int, "model"),
            vocab_size=_require(m, "vocab_size", int, "model"),
            group_boundaries=boundaries,
        )
    except ValueError as e:
        raise ConfigError(f"model: {e}") from e


def build_layout(cfg: dict) -> SequenceLayout:
    lay = cfg["layout"]
    try:
        return SequenceLayout(
            num_frames=_require(lay, "num_frames", int, "layout"),
            patches_per_frame=_require(lay, "patches_per_frame", int, "layout"),
            prompt_length=_require(lay, "prompt_length", int, "layout"),
            generation_length=_require(lay, "generation_length", int, "layout"),
            block_length=_require(lay, "block_length", int, "layout"),
            mask_token_id=cfg["model"]["vocab_size"] - 1,
        )
    except ValueError as e:
        raise ConfigError(f"layout: {e}") from e


def build_decode_config(cfg: dict) -> DecodeConfig:
    d = cfg["decode"]
    try:
        return DecodeConfig(
            generation_length=cfg["layout"]["generation_length"],
            num_steps=_require(d, "num_steps", int, "decode"),
            block_length=cfg["layout"]["block_length"],
            tokens_per_step=d.get("tokens_per_step"),
            confidence_threshold=d.get("confidence_threshold"),
        )
    except ValueError as e:
        raise ConfigError(f"decode: {e}") from e


def build_engine_params(engine_cfg: dict) -> EngineParams:
    presets = engine_cfg.get("presets", [])
    overrides = {
        k: v for k, v in engine_cfg.items() if k not in ("presets", "kind")
    }
    if "kind" in engine_cfg:
        overrides["engine_kind"] = engine_cfg["kind"]
    try:
        merged = merge_presets(presets, overrides)
        return engine_params_from_dict(merged)
    except (KeyError, ValueError) as e:
        raise ConfigError(f"engine: {e}") from e


def _echo_config(cfg: dict, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "config.json", "w") as f:
        json.dump({"schema": SCHEMA_VERSION, **cfg}, f, indent=2, sort_keys=True)
        f.write("\n")


def _validate(cfg: dict):
    """Raise ConfigError before any artifact is written; returns the model
    config, layout, decode config and engine params."""
    for section, extra in (("model", ["group_boundaries"]), ("layout", []),
                           ("decode", ["confidence_threshold"])):
        given = cfg[section]
        if not isinstance(given, dict):
            raise ConfigError(f"{section}: expected an object, got {type(given).__name__}")
        valid = [*DEFAULT_CONFIG[section], *extra]
        if unknown := sorted(set(given) - set(valid)):
            raise ConfigError(f"{section}: unknown keys {unknown}; valid: {', '.join(valid)}")
    model_cfg = build_model_config(cfg)
    layout = build_layout(cfg)
    decode_cfg = build_decode_config(cfg)
    params = build_engine_params(cfg["engine"])
    try:
        validate_params(params, model_cfg, layout)
    except ValueError as e:
        raise ConfigError(f"engine: {e}") from e
    return model_cfg, layout, decode_cfg, params


def cmd_decode(cfg: dict) -> int:
    model_cfg, layout, decode_cfg, params = _validate(cfg)
    outdir = Path(cfg["output_dir"])
    _echo_config(cfg, outdir)
    weights = init_weights(model_cfg, cfg["seed"])
    wk = make_workload(layout, model_cfg, cfg["seed"])
    engine = make_engine(params, weights, layout, wk.visual_embeddings, wk.prompt_tokens)
    started = time.perf_counter()
    tokens, trace = decode(engine, layout, decode_cfg)
    elapsed = time.perf_counter() - started
    with open(outdir / "tokens.txt", "w") as f:
        f.write(" ".join(str(int(t)) for t in tokens) + "\n")
    trace.to_jsonl(str(outdir / "trace.jsonl"))
    tps = len(tokens) / elapsed
    print(
        f"decode ok: engine={trace.engine} tokens={len(tokens)} "
        f"tokens/sec={tps:.1f} score_entries={trace.total_entries()}"
    )
    return 0


ANALYZE_MODES = ("drift", "sparsity", "visibility", "relocation", "cost")


def cmd_analyze(cfg: dict, mode: str) -> int:
    if mode not in ANALYZE_MODES:
        raise ConfigError(
            f"analyze.mode: unknown mode {mode!r}; valid: {', '.join(ANALYZE_MODES)}"
        )
    if mode != "visibility":
        _validate(cfg)
    outdir = Path(cfg["output_dir"])
    _echo_config(cfg, outdir)
    opts = cfg.get("analyze", {})

    if mode == "visibility":
        length = int(opts.get("length", 1024))
        counts = visibility_frequency(length)
        write_csv(
            str(outdir / "visibility.csv"),
            ["position", "visibility"],
            ([j + 1, int(c)] for j, c in enumerate(counts)),
        )
        print(f"analyze visibility: {length} rows")
        return 0

    model_cfg = build_model_config(cfg)
    layout = build_layout(cfg)
    weights = init_weights(model_cfg, cfg["seed"])
    wk = make_workload(layout, model_cfg, cfg["seed"])

    if mode == "drift":
        records = decode_drift(
            weights, layout, wk.visual_embeddings, wk.prompt_tokens,
            build_decode_config(cfg),
        )
        rows = []
        for r in records:
            rows.append([r.step_pair[0], r.step_pair[1], "visual",
                         f"{r.visual_mean:.9f}", f"{r.visual_median:.9f}",
                         *[f"{x:.9f}" for x in r.per_boundary_visual]])
            rows.append([r.step_pair[0], r.step_pair[1], "text_context",
                         f"{r.text_mean:.9f}", f"{r.text_median:.9f}",
                         *[f"{x:.9f}" for x in r.per_boundary_text]])
        nb = len(records[0].per_boundary_visual) if records else 0
        write_csv(
            str(outdir / "drift.csv"),
            ["step_from", "step_to", "modality", "mean", "median",
             *[f"boundary_{g}" for g in range(nb)]],
            rows,
        )
        frac = float(np.mean([r.visual_mean <= r.text_mean for r in records]))
        print(f"analyze drift: {len(records)} step pairs; "
              f"visual<=text in {frac:.1%} of pairs")
        return 0

    if mode == "sparsity":
        response = np.full(layout.generation_length, layout.mask_token_id)
        emb = assemble_embeddings(
            weights, layout, wk.visual_embeddings, wk.prompt_tokens, response
        )
        profile = entropy_profile(weights, emb, layout.position_ids)
        write_csv(
            str(outdir / "sparsity.csv"),
            ["layer", "mean_entropy_nats"],
            ([l, f"{e:.9f}"] for l, e in enumerate(profile)),
        )
        print(f"analyze sparsity: {len(profile)} layers")
        return 0

    if mode == "relocation":
        k = int(opts.get("high_norm_k", 16))
        ratios = opts.get("ratios", [0.0, 0.25, 0.5, 0.75, 1.0])
        emb_vis, _ = make_high_norm_embeddings(
            layout.visual_length, model_cfg.model_dim, k, cfg["seed"]
        )
        response = np.full(layout.generation_length, layout.mask_token_id)
        tail = np.concatenate([
            weights.embedding[wk.prompt_tokens], weights.embedding[response]
        ])
        pos = np.asarray(layout.position_ids)
        causal_weights = init_weights(
            replace(model_cfg, mask_mode="causal"), cfg["seed"]
        )

        def run(ws, vis_emb, vis_pos):
            full = np.concatenate([vis_emb, tail])
            full_pos = np.concatenate([vis_pos, pos[layout.visual_length:]])
            logits, _ = forward(ws, full, full_pos)
            return logits

        base_bidi = run(weights, emb_vis, pos[: layout.visual_length])
        causal_by_r = {}
        rows = []
        for r in ratios:
            rel = relocate_high_norm(emb_vis, pos[: layout.visual_length], k, float(r))
            restore = np.concatenate([
                rel.inverse,
                np.arange(layout.visual_length, layout.total_length),
            ])
            bidi = run(weights, rel.embeddings, rel.position_ids)[restore]
            causal_by_r[r] = run(causal_weights, rel.embeddings, rel.position_ids)[restore]
            delta_b = float(np.max(np.abs(bidi - base_bidi)))
            delta_c = float(np.max(np.abs(causal_by_r[r] - causal_by_r[ratios[0]])))
            rows.append([r, f"{delta_b:.3e}", f"{delta_c:.3e}"])
        write_csv(
            str(outdir / "relocation.csv"),
            ["ratio", "bidirectional_max_delta", "causal_max_delta_vs_first"],
            rows,
        )
        print(f"analyze relocation: {len(rows)} ratios")
        return 0

    # mode == "cost"
    decode_cfg = build_decode_config(cfg)
    params = build_engine_params(cfg["engine"])
    trace_path = opts.get("trace")
    if trace_path:
        try:
            trace = DecodeTrace.from_jsonl(trace_path)
            if trace.engine != params.kind:
                raise ValueError(f"trace engine {trace.engine!r} "
                                 f"is not the configured {params.kind!r}")
            report = attention_cost(params, model_cfg, layout, decode_cfg, trace=trace)
        except ValueError as e:
            raise ConfigError(f"analyze.trace: {e}") from e
    else:
        engine = make_engine(
            params, weights, layout, wk.visual_embeddings, wk.prompt_tokens
        )
        _, trace = decode(engine, layout, decode_cfg)
        report = attention_cost(params, model_cfg, layout, decode_cfg, trace=trace)
    rows = [
        [rec.step, rec.block, rec.attention_entries + rec.proxy_entries,
         analytic, (rec.attention_entries + rec.proxy_entries) - analytic]
        for rec, analytic in zip(trace.steps, report.per_step_entries)
    ]
    write_csv(
        str(outdir / "cost.csv"),
        ["step", "block", "entries_recorded", "entries_analytic", "delta"],
        rows,
    )
    print(f"analyze cost: {len(rows)} steps, total={report.total_entries}")
    return 0


def _apply_overrides(cfg: dict, sets: list[str]) -> None:
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="marscache",
        description="Masked-diffusion decoding engine runs and analyses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("decode", "analyze"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=False, help="path to run config JSON")
        p.add_argument("--set", action="append", default=[], dest="sets",
                       help="override a config key, e.g. --set seed=7")
        if name == "analyze":
            p.add_argument("--mode", required=True)
    args = parser.parse_args(argv)

    try:
        user_cfg = {}
        if args.config:
            with open(args.config) as f:
                user_cfg = json.load(f)
        cfg = resolve_config(user_cfg)
        _apply_overrides(cfg, args.sets)
        if args.command == "decode":
            return cmd_decode(cfg)
        return cmd_analyze(cfg, args.mode)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
