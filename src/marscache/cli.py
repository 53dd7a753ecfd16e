"""Command-line front end: reproducible decode runs and analysis reports,
both driven by a single JSON run config. Flags only override
config keys; every command echoes its fully resolved config into the output
directory so any artifact is re-derivable from its own directory."""

from __future__ import annotations

import argparse
import copy
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

SCHEMA_VERSION = "marscache-run-v2"

# Default of an engine key the config leaves out: the presets, then
# EngineParams, supply it, so the resolved config omits the key.
FROM_PRESETS = object()

# Every key a run config may set, as (type, default); a dict is a section.
# A type is int, float (an int is accepted), str, a literal string, None
# (JSON null), [type] (a list of that type) or a tuple of alternatives.
CONFIG_KEYS = {
    "schema": (SCHEMA_VERSION, SCHEMA_VERSION),
    "seed": (int, 42),
    "output_dir": (str, "runs/out"),
    "model": {
        "num_layers": (int, 8),
        "num_heads": (int, 4),
        "model_dim": (int, 128),
        "head_dim": (int, 32),
        "vocab_size": (int, 256),
        "group_boundaries": ([int], [0, 2, 4, 6]),
    },
    "layout": {
        "num_frames": (int, 8),
        "patches_per_frame": (int, 16),
        "prompt_length": (int, 16),
        "generation_length": (int, 64),
        "block_length": (int, 32),
    },
    # Exactly one commit rule: "tokens_per_step": null selects threshold mode.
    "decode": {
        "num_steps": (int, 32),
        "tokens_per_step": ((int, None), 2),
        "confidence_threshold": ((float, None), None),
    },
    # "presets" plus presets.PRESET_KEYS.
    "engine": {
        "presets": ([str], []),
        "engine_kind": (str, FROM_PRESETS),
        "tau_text": ([int], FROM_PRESETS),
        "tau_visual": ([int], FROM_PRESETS),
        "anchor_budgets": ([(int, "full")], FROM_PRESETS),
        "sample_size": (int, FROM_PRESETS),
    },
    "analyze": {
        "length": (int, 1024),
        "high_norm_k": (int, 16),
        "ratios": ([float], [0.0, 0.25, 0.5, 0.75, 1.0]),
        "trace": ((str, None), None),
    },
}


class ConfigError(ValueError):
    """Invalid run config; message names the offending field."""


def _fits(kind, value) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(_fits(kind[0], v) for v in value)
    if isinstance(kind, tuple):
        return any(_fits(k, value) for k in kind)
    if kind is None or isinstance(kind, str):
        return value == kind
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _describe(kind) -> str:
    if isinstance(kind, list):
        return f"list of {_describe(kind[0])}"
    if isinstance(kind, tuple):
        return " or ".join(map(_describe, kind))
    if kind is None:
        return "null"
    return repr(kind) if isinstance(kind, str) else kind.__name__


def _expected(where: str, what: str, value) -> ConfigError:
    return ConfigError(f"{where}: expected {what}, got {type(value).__name__} {value!r}")


def resolve_config(user, table: dict = CONFIG_KEYS, where: str = "") -> dict:
    """Overlay the user's keys on the key table, section by section; an
    unknown key or a value of the wrong type raises ConfigError naming it."""
    section = where or "run config"
    if not isinstance(user, dict):
        raise _expected(section, "an object", user)
    if unknown := sorted(set(user) - set(table)):
        raise ConfigError(f"{section}: unknown keys {unknown}; valid: {', '.join(table)}")
    cfg = {}
    for key, entry in table.items():
        name = f"{where}.{key}" if where else key
        if isinstance(entry, dict):
            cfg[key] = resolve_config(user.get(key, {}), entry, name)
            continue
        kind, default = entry
        value = user.get(key, default)
        if value is FROM_PRESETS:
            continue
        if not _fits(kind, value):
            raise _expected(name, _describe(kind), value)
        cfg[key] = copy.deepcopy(value)
    return cfg


def _checked(where: str, build, *args, **kwargs):
    """Call build, reporting its ValueError or TypeError as a config error."""
    try:
        return build(*args, **kwargs)
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"{where}: {e}") from e


def build_configs(
    cfg: dict,
) -> tuple[ModelConfig, SequenceLayout, DecodeConfig, EngineParams]:
    """Build each config of a resolved run config once; raises ConfigError
    before any artifact is written."""
    model_cfg = _checked("model", ModelConfig, **cfg["model"])
    layout = _checked("layout", SequenceLayout, **cfg["layout"],
                      mask_token_id=model_cfg.vocab_size - 1)
    decode_cfg = _checked("decode", DecodeConfig, **cfg["decode"],
                          generation_length=layout.generation_length,
                          block_length=layout.block_length)
    overrides = dict(cfg["engine"])
    merged = _checked("engine", merge_presets, overrides.pop("presets"), overrides)
    params = _checked("engine", engine_params_from_dict, merged)
    _checked("engine", validate_params, params, model_cfg, layout)
    return model_cfg, layout, decode_cfg, params


def _echo_config(cfg: dict, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "config.json", "w") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_decode(cfg: dict) -> int:
    model_cfg, layout, decode_cfg, params = build_configs(cfg)
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


def _report(cfg: dict, mode: str, header: list[str], rows, summary: str) -> int:
    """Write a computed report: its config echo first, then its CSV."""
    outdir = Path(cfg["output_dir"])
    _echo_config(cfg, outdir)
    write_csv(str(outdir / f"{mode}.csv"), header, rows)
    print(f"analyze {mode}: {summary}")
    return 0


def cmd_analyze(cfg: dict, mode: str) -> int:
    if mode not in ANALYZE_MODES:
        raise ConfigError(
            f"analyze.mode: unknown mode {mode!r}; valid: {', '.join(ANALYZE_MODES)}"
        )
    model_cfg, layout, decode_cfg, params = build_configs(cfg)
    opts = cfg["analyze"]

    if mode == "visibility":
        counts = _checked("analyze.length", visibility_frequency, opts["length"])
        return _report(cfg, mode, ["position", "visibility"],
                       ([j + 1, int(c)] for j, c in enumerate(counts)),
                       f"{len(counts)} rows")

    weights = init_weights(model_cfg, cfg["seed"])
    wk = make_workload(layout, model_cfg, cfg["seed"])

    if mode == "drift":
        records = decode_drift(
            weights, layout, wk.visual_embeddings, wk.prompt_tokens, decode_cfg
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
        frac = float(np.mean([r.visual_mean <= r.text_mean for r in records]))
        return _report(cfg, mode,
                       ["step_from", "step_to", "modality", "mean", "median",
                        *[f"boundary_{g}" for g in range(nb)]],
                       rows,
                       f"{len(records)} step pairs; visual<=text in {frac:.1%} of pairs")

    if mode == "sparsity":
        response = np.full(layout.generation_length, layout.mask_token_id)
        emb = assemble_embeddings(
            weights, layout, wk.visual_embeddings, wk.prompt_tokens, response
        )
        profile = entropy_profile(weights, emb, layout.position_ids)
        return _report(cfg, mode, ["layer", "mean_entropy_nats"],
                       ([l, f"{e:.9f}"] for l, e in enumerate(profile)),
                       f"{len(profile)} layers")

    if mode == "relocation":
        k, ratios = opts["high_norm_k"], opts["ratios"]
        emb_vis, _ = _checked("analyze", make_high_norm_embeddings,
                              layout.visual_length, model_cfg.model_dim, k, cfg["seed"])
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
            rel = _checked("analyze", relocate_high_norm,
                           emb_vis, pos[: layout.visual_length], k, float(r))
            restore = np.concatenate([
                rel.inverse,
                np.arange(layout.visual_length, layout.total_length),
            ])
            bidi = run(weights, rel.embeddings, rel.position_ids)[restore]
            causal_by_r[r] = run(causal_weights, rel.embeddings, rel.position_ids)[restore]
            delta_b = float(np.max(np.abs(bidi - base_bidi)))
            delta_c = float(np.max(np.abs(causal_by_r[r] - causal_by_r[ratios[0]])))
            rows.append([r, f"{delta_b:.3e}", f"{delta_c:.3e}"])
        return _report(cfg, mode,
                       ["ratio", "bidirectional_max_delta", "causal_max_delta_vs_first"],
                       rows, f"{len(rows)} ratios")

    # mode == "cost"
    if opts["trace"] is not None:
        try:
            trace = DecodeTrace.from_jsonl(opts["trace"])
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
    return _report(cfg, mode,
                   ["step", "block", "entries_recorded", "entries_analytic", "delta"],
                   rows, f"{len(rows)} steps, total={report.total_entries}")


def _apply_overrides(user: dict, sets: list[str]) -> None:
    """Write each --set key=value into the user's config (before it is
    resolved); a value that is not JSON is taken as a string."""
    for item in sets:
        key, eq, raw = item.partition("=")
        if not eq:
            raise ConfigError(f"--set {item!r}: expected key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node, parts = user, key.split(".")
        for depth, part in enumerate(parts):
            if not isinstance(node, dict):
                parent = ".".join(parts[:depth]) or "the run config"
                raise ConfigError(f"--set {item}: {parent} is not an object")
            if depth < len(parts) - 1:
                node = node.setdefault(part, {})
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
        user = {}
        if args.config:
            with open(args.config) as f:
                try:
                    user = json.load(f)
                except json.JSONDecodeError as e:
                    raise ConfigError(f"{args.config}: {e}") from e
        _apply_overrides(user, args.sets)
        cfg = resolve_config(user)
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
