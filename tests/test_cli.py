import csv
import json
from pathlib import Path

import numpy as np
import pytest

from marscache.cli import CONFIG_KEYS, build_configs, main, resolve_config
from marscache.diffusion import DecodeTrace
from marscache.engines import EngineParams
from marscache.presets import (
    PRESET_KEYS,
    available_presets,
    engine_params_from_dict,
    load_preset,
    merge_presets,
)

# Small-but-real run config reused across CLI tests.
FAST_CFG = {
    "seed": 42,
    "model": {
        "num_layers": 4, "num_heads": 2, "model_dim": 32, "head_dim": 16,
        "vocab_size": 64, "group_boundaries": [0, 1, 2, 3],
    },
    "layout": {
        "num_frames": 4, "patches_per_frame": 4, "prompt_length": 8,
        "generation_length": 32, "block_length": 16,
    },
    "decode": {"num_steps": 16, "tokens_per_step": 2},
}


README = Path(__file__).resolve().parents[1] / "README.md"
MARS = {"presets": ["table10-pyramid", "table8-uniform"]}


def readme_run_config() -> dict:
    """The JSON example under README's "Run config" heading."""
    text = README.read_text()
    section = text[text.index("### Run config"):]
    block = section[section.index("```json\n") + len("```json\n"):]
    return json.loads(block[: block.index("```")])


def write_cfg(tmp_path, **extra) -> str:
    cfg = json.loads(json.dumps(FAST_CFG))
    cfg.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestPresets:
    def test_required_presets_ship(self):
        names = available_presets()
        assert "table10-pyramid" in names
        assert "table8-best" in names

    def test_every_preset_loads(self):
        for name in available_presets():
            load_preset(name)  # raises on a key outside PRESET_KEYS

    def test_table10_pyramid_values(self):
        p = load_preset("table10-pyramid")
        assert p["tau_text"] == [64, 32, 16, 8]
        assert p["tau_visual"] == [128, 64, 32, 16]

    def test_merge_and_build(self):
        params = engine_params_from_dict(
            merge_presets(["table10-pyramid", "table8-best"])
        )
        assert params.kind == "mars"
        assert params.schedule.tau_text == (64, 32, 16, 8)
        assert params.anchor_budgets == ("full", 8, 4, 2)

    def test_unknown_preset_errors(self):
        with pytest.raises(KeyError, match="unknown preset"):
            load_preset("table99-imaginary")

    def test_override_wins(self):
        merged = merge_presets(["table10-pyramid"], {"sample_size": 16})
        assert merged["sample_size"] == 16

    def test_keys_that_do_not_apply_to_the_kind_rejected(self):
        with pytest.raises(ValueError, match=r"\['anchor_budgets', 'sample_size', "
                           r"'tau_text'\] do not apply to engine kind 'dual_cache'"):
            engine_params_from_dict({"engine_kind": "dual_cache", "tau_text": [1, 1],
                                     "anchor_budgets": [9], "sample_size": -3})
        with pytest.raises(ValueError, match="'vanilla'"):
            engine_params_from_dict({"sample_size": 8})

    def test_unknown_key_rejected_as_unknown(self):
        with pytest.raises(ValueError,
                           match=r"unknown engine config keys: \['chunk_enabled'\]"):
            engine_params_from_dict({"engine_kind": "mars", "chunk_enabled": True})

    def test_mars_defaults_come_from_engine_params(self):
        params = engine_params_from_dict(
            merge_presets(["table10-pyramid"], {"anchor_budgets": [1, 1, 1, 1]})
        )
        assert params == EngineParams(
            kind="mars", schedule=params.schedule, anchor_budgets=(1, 1, 1, 1)
        )


class TestDecodeCommand:
    def test_artifacts_and_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"),
                        engine={"engine_kind": "dual_cache"})
        assert main(["decode", "--config", cfg]) == 0
        out = tmp_path / "out"
        assert (out / "tokens.txt").exists()
        assert (out / "trace.jsonl").exists()
        assert (out / "config.json").exists()
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["seed"] == 42
        assert echoed["model"]["num_layers"] == 4  # defaults expanded

    def test_byte_identical_reruns(self, tmp_path):
        cfg1 = write_cfg(tmp_path, output_dir=str(tmp_path / "a"),
                         engine={"engine_kind": "vanilla"})
        main(["decode", "--config", cfg1])
        cfg2 = write_cfg(tmp_path, output_dir=str(tmp_path / "b"),
                         engine={"engine_kind": "vanilla"})
        main(["decode", "--config", cfg2])
        assert (tmp_path / "a/tokens.txt").read_bytes() == (
            tmp_path / "b/tokens.txt"
        ).read_bytes()

    def test_mars_preset_refresh_counts_in_trace(self, tmp_path):
        # 128 steps against the pyramid schedule: refresh events per group are
        # the multiples of tau in 2..128.
        cfg = {
            "seed": 42,
            "output_dir": str(tmp_path / "out"),
            "layout": {"generation_length": 128},
            "decode": {"num_steps": 128, "tokens_per_step": 1},
            "engine": {"presets": ["table10-pyramid", "table8-best"]},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["decode", "--config", str(path)]) == 0
        trace = DecodeTrace.from_jsonl(str(tmp_path / "out/trace.jsonl"))
        assert trace.refresh_counts("text_context") == [2, 4, 8, 16]
        assert trace.refresh_counts("visual") == [1, 2, 4, 8]

    def test_invalid_config_nonzero_exit(self, tmp_path, capsys):
        # 1 step cannot cover 2 blocks.
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, output_dir=str(out), decode={"num_steps": 1})
        assert main(["decode", "--config", cfg]) == 2
        assert "decode" in capsys.readouterr().err
        assert not out.exists()  # invalid configs write no artifacts

    def test_conflicting_commit_rules_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(
            tmp_path,
            output_dir=str(out),
            decode={"num_steps": 16, "tokens_per_step": 2,
                    "confidence_threshold": 0.9},
        )
        assert main(["decode", "--config", cfg]) == 2
        assert "decode" in capsys.readouterr().err
        assert not out.exists()

    def test_engine_key_that_does_not_apply_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, output_dir=str(out), engine={
            "engine_kind": "dual_cache", "presets": ["table10-pyramid"], "sample_size": 0,
        })
        assert main(["decode", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: engine: ")
        assert "do not apply to engine kind 'dual_cache'" in err
        assert not out.exists()

    def test_unknown_engine_key_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, output_dir=str(out), engine={
            "engine_kind": "mars", "presets": ["table10-pyramid", "table8-uniform"],
        })
        assert main(["decode", "--config", cfg,
                     "--set", "engine.chunk_enabled=false"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: engine: ")
        assert "engine: unknown keys ['chunk_enabled']; valid: presets, " in err
        assert not out.exists()

    @pytest.mark.parametrize("sets, message", [
        (["engine.engine_kind=mars", "engine.tau_text=[4,2,1,1]",
          "engine.anchor_budgets=[4,4]"],
         "2 anchor budgets given, model has 4 groups"),
        (["engine.engine_kind=mars", "engine.tau_text=[4,2,1,1]",
          "engine.anchor_budgets=[4,4,4,4]", "engine.sample_size=57"],
         "sample size 57 outside [1, 56]"),
    ])
    def test_engine_that_does_not_fit_model_rejected(self, tmp_path, capsys,
                                                     sets, message):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, output_dir=str(out))
        argv = ["decode", "--config", cfg]
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: engine: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, message", [
        # The CLI builds bidirectional models only; mask_mode is no key.
        ("model.mask_mode=causal", "model: unknown keys ['mask_mode']"),
        ("model.num_layer=2", "model: unknown keys ['num_layer']"),
        ("layout.frames=2", "layout: unknown keys ['frames']"),
        ("decode.steps=8", "decode: unknown keys ['steps']; valid: "),
        ("layout=5", "layout: expected an object, got int"),
        ("seeds=7", "run config: unknown keys ['seeds']; valid: schema, seed, "),
        ("analyze.lenght=8", "analyze: unknown keys ['lenght']"),
        ('seed="x"', "seed: expected int, got str 'x'"),
        ("seed=true", "seed: expected int, got bool True"),
        ("seed.x=1", "--set seed.x=1: seed is not an object"),
        ("model.group_boundaries=5",
         "model.group_boundaries: expected list of int, got int 5"),
        ('model.group_boundaries=[0,"a"]',
         "model.group_boundaries: expected list of int, got list [0, 'a']"),
        ('decode.tokens_per_step="x"',
         "decode.tokens_per_step: expected int or null, got str 'x'"),
        ("engine=5", "engine: expected an object, got int 5"),
        ("engine.presets=5", "engine.presets: expected list of str, got int 5"),
        ("engine.anchor_budgets=5",
         "engine.anchor_budgets: expected list of int or 'full', got int 5"),
        ('analyze.length="x"', "analyze.length: expected int, got str 'x'"),
        # Removed aliases of group_boundaries and engine_kind.
        ("model.groups=4", "model: unknown keys ['groups']"),
        ("engine.kind=mars", "engine: unknown keys ['kind']"),
        # A config.json echoed by an older version.
        ("schema=marscache-run-v1",
         "schema: expected 'marscache-run-v2', got str 'marscache-run-v1'"),
    ])
    @pytest.mark.parametrize("command", [["decode"], ["analyze", "--mode", "sparsity"],
                                         ["analyze", "--mode", "visibility"]])
    def test_unknown_section_key_rejected(self, tmp_path, capsys, key, message, command):
        # Unknown keys and values of the wrong type, at any depth.
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, output_dir=str(out))
        assert main([*command, "--config", cfg, "--set", key]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("sets, message", [
        (["model.head_dim=3", "model.model_dim=12"], "head_dim 3 must be even and >= 2"),
        (["model.head_dim=0", "model.model_dim=0"], "head_dim 0 must be even and >= 2"),
        (["model.num_heads=0", "model.model_dim=0"], "num_heads 0 must be >= 1"),
        (["model.vocab_size=1"], "vocab_size 1 must be >= 2"),
    ])
    @pytest.mark.parametrize("command", [["decode"], ["analyze", "--mode", "sparsity"]])
    def test_model_that_cannot_run_rejected(self, tmp_path, capsys, sets, message,
                                            command):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, output_dir=str(out))
        argv = [*command, "--config", cfg]
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: model: {message}\n"
        assert not out.exists()

    def test_set_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "o1"),
                        engine={"engine_kind": "vanilla"})
        assert main(["decode", "--config", cfg, "--set",
                     f"output_dir={tmp_path / 'o2'}"]) == 0
        assert (tmp_path / "o2/tokens.txt").exists()


class TestAnalyzeCommand:
    def test_unknown_mode_lists_valid(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"))
        assert main(["analyze", "--config", cfg, "--mode", "vibes"]) == 2
        err = capsys.readouterr().err
        assert "drift" in err and "cost" in err

    def test_visibility_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"),
                        analyze={"length": 1024})
        assert main(["analyze", "--config", cfg, "--mode", "visibility"]) == 0
        with open(tmp_path / "out/visibility.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 1024
        assert rows[0]["visibility"] == "1024"
        assert rows[-1]["visibility"] == "1"

    def test_relocation_csv_bidirectional_flat(self, tmp_path):
        cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"),
                        analyze={"high_norm_k": 4})
        assert main(["analyze", "--config", cfg, "--mode", "relocation"]) == 0
        with open(tmp_path / "out/relocation.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 5
        for row in rows:
            assert float(row["bidirectional_max_delta"]) <= 1e-9

    def test_cost_csv_deltas_all_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"),
                        engine={"engine_kind": "dual_cache"})
        assert main(["analyze", "--config", cfg, "--mode", "cost"]) == 0
        with open(tmp_path / "out/cost.csv") as f:
            rows = list(csv.DictReader(f))
        assert rows and all(row["delta"] == "0" for row in rows)

    def test_cost_accepts_recorded_trace_file(self, tmp_path):
        decode_cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "run"),
                               engine={"engine_kind": "dual_cache"})
        assert main(["decode", "--config", decode_cfg]) == 0
        cost_cfg = write_cfg(
            tmp_path, output_dir=str(tmp_path / "out"),
            engine={"engine_kind": "dual_cache"},
            analyze={"trace": str(tmp_path / "run/trace.jsonl")},
        )
        assert main(["analyze", "--config", cost_cfg, "--mode", "cost"]) == 0
        with open(tmp_path / "out/cost.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 16
        assert all(row["delta"] == "0" for row in rows)

    def test_cost_rejects_trace_with_unknown_step_key(self, tmp_path, capsys):
        decode_cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "run"),
                               engine={"engine_kind": "dual_cache"})
        assert main(["decode", "--config", decode_cfg]) == 0
        path = tmp_path / "run/trace.jsonl"
        path.write_text(path.read_text().replace('"step": 1,', '"step": 1, "bogus": 0,'))
        cost_cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"),
                             engine={"engine_kind": "dual_cache"},
                             analyze={"trace": str(path)})
        assert main(["analyze", "--config", cost_cfg, "--mode", "cost"]) == 2
        assert "config error: analyze.trace: " in capsys.readouterr().err

    def test_cost_rejects_trace_without_required_step_key(self, tmp_path, capsys):
        decode_cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "run"),
                               engine={"engine_kind": "dual_cache"})
        assert main(["decode", "--config", decode_cfg]) == 0
        path = tmp_path / "run/trace.jsonl"
        path.write_text(path.read_text().replace('"step": 1, ', ""))
        cost_cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"),
                             engine={"engine_kind": "dual_cache"},
                             analyze={"trace": str(path)})
        assert main(["analyze", "--config", cost_cfg, "--mode", "cost"]) == 2
        err = capsys.readouterr().err
        assert "config error: analyze.trace: " in err and "'step'" in err

    @pytest.mark.parametrize("first_line", ['{"schema": "marscache-trace-v1"}', "[]"])
    def test_cost_rejects_malformed_trace_header(self, tmp_path, capsys, first_line):
        path = tmp_path / "trace.jsonl"
        path.write_text(first_line + "\n")
        cost_cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"),
                             analyze={"trace": str(path)})
        assert main(["analyze", "--config", cost_cfg, "--mode", "cost"]) == 2
        assert capsys.readouterr().err == ("config error: analyze.trace: trace header "
                                           "is not an object holding engine and config\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("step_line, message", [
        ('{"step": 1, "block": 0, "committed": 5}',
         "trace step key 'committed': expected list[tuple[int, int]], got 5"),
        ('{"step": 1, "block": 0, "committed": [], "attention_entries": "x"}',
         "trace step key 'attention_entries': expected int, got 'x'"),
    ])
    def test_cost_rejects_trace_step_value_of_the_wrong_type(self, tmp_path, capsys,
                                                             step_line, message):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"schema": "marscache-trace-v1", "engine": "vanilla", '
                        '"config": {}}\n' + step_line + "\n")
        cost_cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"),
                             analyze={"trace": str(path)})
        assert main(["analyze", "--config", cost_cfg, "--mode", "cost"]) == 2
        assert capsys.readouterr().err == f"config error: analyze.trace: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_cost_rejects_trace_of_another_engine(self, tmp_path, capsys):
        decode_cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "run"),
                               engine={"engine_kind": "dual_cache"})
        assert main(["decode", "--config", decode_cfg]) == 0
        cost_cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"),
                             engine={"engine_kind": "vanilla"},
                             analyze={"trace": str(tmp_path / "run/trace.jsonl")})
        assert main(["analyze", "--config", cost_cfg, "--mode", "cost"]) == 2
        err = capsys.readouterr().err
        assert "config error: analyze.trace: " in err
        assert "'dual_cache'" in err and "'vanilla'" in err
        assert not (tmp_path / "out/cost.csv").exists()

    def test_cost_rejects_trace_of_another_layout(self, tmp_path, capsys):
        decode_cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "run"),
                               engine={"engine_kind": "dual_cache"})
        assert main(["decode", "--config", decode_cfg]) == 0
        cost_cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"),
                             engine={"engine_kind": "dual_cache"},
                             analyze={"trace": str(tmp_path / "run/trace.jsonl")})
        argv = ["analyze", "--config", cost_cfg, "--mode", "cost",
                "--set", "layout.num_frames=6"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: analyze.trace: trace/plan mismatch")
        assert not (tmp_path / "out/cost.csv").exists()

    def test_cost_rejects_trace_with_steps_reversed(self, tmp_path, capsys):
        decode_cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "run"))
        assert main(["decode", "--config", decode_cfg]) == 0
        path = tmp_path / "run/trace.jsonl"
        header, *steps = path.read_text().splitlines()
        path.write_text("\n".join([header, *steps[::-1]]) + "\n")
        cost_cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"),
                             analyze={"trace": str(path)})
        assert main(["analyze", "--config", cost_cfg, "--mode", "cost"]) == 2
        assert capsys.readouterr().err == (
            "config error: analyze.trace: trace steps must be 1..n (n >= 1) "
            "with blocks that never decrease\n")
        assert not (tmp_path / "out/cost.csv").exists()

    def test_cost_rejects_trace_that_stops_before_its_decode_finished(self, tmp_path,
                                                                      capsys):
        decode_cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "run"))
        assert main(["decode", "--config", decode_cfg]) == 0
        path = tmp_path / "run/trace.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:6]) + "\n")  # the header and steps 1-5
        cost_cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"),
                             analyze={"trace": str(path)})
        assert main(["analyze", "--config", cost_cfg, "--mode", "cost"]) == 2
        assert capsys.readouterr().err == (
            "config error: analyze.trace: trace ends at step 5 with 22 positions "
            "still masked\n")
        assert not (tmp_path / "out/cost.csv").exists()

    def test_drift_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"))
        assert main(["analyze", "--config", cfg, "--mode", "drift"]) == 0
        with open(tmp_path / "out/drift.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2 * 15  # 15 pairs x 2 modalities
        assert {r["modality"] for r in rows} == {"visual", "text_context"}

    def test_sparsity_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"))
        assert main(["analyze", "--config", cfg, "--mode", "sparsity"]) == 0
        with open(tmp_path / "out/sparsity.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4
        for row in rows:
            assert float(row["mean_entropy_nats"]) >= 0.0


class TestRunConfig:
    @pytest.mark.parametrize("mode, setting, message", [
        ("visibility", "analyze.length=0", "analyze.length: length must be >= 1"),
        ("relocation", "analyze.ratios=[0.5,2.0]",
         "analyze: position ratio r=2.0 outside [0, 1]"),
        ("relocation", "analyze.high_norm_k=999", "analyze: k=999 exceeds number of rows 16"),
        ("relocation", "analyze.high_norm_k=-3", "analyze: k=-3 is negative"),
    ])
    def test_analyze_value_out_of_range_rejected(self, tmp_path, capsys, mode, setting,
                                                 message):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, output_dir=str(out))
        assert main(["analyze", "--config", cfg, "--mode", mode, "--set", setting]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_negative_prompt_length_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, output_dir=str(out))
        assert main(["decode", "--config", cfg, "--set", "layout.prompt_length=-3"]) == 2
        assert capsys.readouterr().err == "config error: layout: prompt_length -3 is negative\n"
        assert not out.exists()
        # An empty prompt decodes.
        assert main(["decode", "--config", cfg, "--set", "layout.prompt_length=0"]) == 0
        assert (out / "tokens.txt").exists()

    def test_config_that_is_not_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": 42,}')
        assert main(["decode", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}: ")

    # A path that cannot be read or made is an error, not a traceback, and
    # nothing is written.
    def test_config_that_is_a_directory_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["decode", "--config", str(tmp_path),
                     "--set", f"output_dir={out}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err
        assert not out.exists()

    def test_trace_that_is_a_directory_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, output_dir=str(out))
        assert main(["analyze", "--config", cfg, "--mode", "cost",
                     "--set", f"analyze.trace={tmp_path}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err
        assert not out.exists()

    def test_output_dir_that_is_a_file_rejected(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        cfg = write_cfg(tmp_path, output_dir=str(taken))
        assert main(["decode", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "File exists" in err
        assert taken.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "taken"]

    def test_echoed_config_round_trips(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        cfg = write_cfg(tmp_path, output_dir=str(first), engine=MARS)
        assert main(["decode", "--config", cfg]) == 0
        echoed = first / "config.json"
        assert main(["decode", "--config", str(echoed),
                     "--set", f"output_dir={second}"]) == 0
        assert (first / "tokens.txt").read_bytes() == (second / "tokens.txt").read_bytes()
        again = json.loads((second / "config.json").read_text())
        assert again == {**json.loads(echoed.read_text()), "output_dir": str(second)}

    def test_threshold_mode_decodes_and_costs_its_own_trace(self, tmp_path):
        run = tmp_path / "run"
        cfg = write_cfg(tmp_path, output_dir=str(run), engine=MARS, decode={
            "num_steps": 16, "tokens_per_step": None, "confidence_threshold": 0.5,
        })
        assert main(["decode", "--config", cfg]) == 0
        trace = DecodeTrace.from_jsonl(str(run / "trace.jsonl"))
        assert trace.config["tokens_per_step"] is None
        assert trace.config["confidence_threshold"] == 0.5
        assert main(["analyze", "--config", cfg, "--mode", "cost",
                     "--set", f"output_dir={tmp_path / 'cost'}",
                     "--set", f"analyze.trace={run / 'trace.jsonl'}"]) == 0
        with open(tmp_path / "cost/cost.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(trace.steps)
        assert all(row["delta"] == "0" for row in rows)

    def test_readme_example_lists_every_key_with_its_default(self):
        example = readme_run_config()
        resolved = resolve_config(example)
        assert resolved == example  # every key the docs show is accepted, none left out
        assert resolve_config({"engine": example["engine"]}) == example  # at its default
        build_configs(resolved)

    def test_engine_keys_are_the_preset_keys(self):
        assert set(CONFIG_KEYS["engine"]) == {"presets", *PRESET_KEYS}
