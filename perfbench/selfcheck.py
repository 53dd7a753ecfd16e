"""Self-check of the benchmark runner: one tiny layout, untraced and traced.

Run with ``python3 perfbench/selfcheck.py`` or
``python3 -m pytest -q perfbench/selfcheck.py`` from the repository root.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
# 4 frames x 8 patches, prompt 4, 2 blocks of 16, 16 steps (L=68): refreshes
# at t = 8 and 16 (a chunked visual one at 16), one dual_cache rebuild, and
# each decode takes milliseconds.
TINY = run.Spec(4, 8, 4, 32, 16, 16)


def _run_tiny(trace: bool) -> dict:
    run.WORKLOADS["tiny"] = TINY
    try:
        return run.run("tiny", seed=7, seconds=1, trace=trace)
    finally:
        del run.WORKLOADS["tiny"]


def _assert_metrics(report: dict, declared: list[dict]) -> None:
    result = report["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["checks"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_untraced_reports_every_end_to_end_metric():
    report = _run_tiny(trace=False)
    _assert_metrics(report, BENCHMARK["end_to_end"])
    assert report["samples"]["mars.steady_steps"] >= 10 * run.TAIL_SAMPLES
    assert set(report["also_reported"]) == {
        "mars.agreement_vs_vanilla", "dual_cache.agreement_vs_vanilla"}
    env = report["environment"]
    assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["workload"] == {"name": "tiny", "L": 68, "V": 32, "steps": 16, "blocks": 2}


def test_traced_reports_every_per_layer_metric():
    report = _run_tiny(trace=True)
    _assert_metrics(report, BENCHMARK["per_layer"])
    metrics = report["result"]["metrics"]
    for e in run.ENGINES:
        assert metrics[f"{e}.engines.step.self_s"]["value"] >= 0
    # Every vanilla score entry is useful; chunked mars refreshes waste some.
    assert metrics["vanilla.engines.attention_useful_share"]["value"] == 1.0
    assert 0 < metrics["mars.engines.attention_useful_share"]["value"] < 1


def test_tracing_restores_module_bindings():
    p = run.load_program()
    engines, model = p.engines, p.model
    before = (engines.gelu, model.gelu, engines.make_engine)
    tracer = run.Tracer()
    with tracer.installed():
        assert engines.gelu is model.gelu is not before[0]
    assert (engines.gelu, model.gelu, engines.make_engine) == before


def test_predictions_name_declared_metrics():
    table = json.loads((BENCH_DIR / "predictions.json").read_text())["predictions"]
    e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    layer = [m["name"] for m in BENCHMARK["per_layer"]]
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    for row in table:
        for name in row["layer"]:
            assert any(n.endswith("." + name) for n in layer), name
        for name in row["moves"]:
            pattern = re.compile(re.escape(name).replace(r"\*", "[a-z_]+") + "$")
            assert any(pattern.match(n) for n in e2e), name
        assert row["most"] in workloads
        assert row["least"] is None or row["least"] in workloads


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main(["-q", __file__]))
