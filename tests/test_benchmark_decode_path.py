"""The benchmark decodes through more of the package than the functions it
traces: DecodeConfig's keywords, merge_presets, decode(observer=),
attention_cost(trace=) and the trace's fields. This runs its set-up, decodes
and output checks on the self-check's tiny layout, so that a change to any of
them fails here rather than when `perfbench/run.py` reports a failed run."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _load_run():
    # run.py pins the BLAS thread variables and puts its own directory on
    # sys.path when imported; neither may leak into the rest of the suite.
    saved_env = {name: os.environ.get(name) for name in BLAS_VARS}
    saved_path = list(sys.path)
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
        sys.path[:] = saved_path
        for name, value in saved_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    return module


ENV_BEFORE = [os.environ.get(name) for name in BLAS_VARS]
run = _load_run()
# 4 frames x 8 patches, prompt 4, 2 blocks of 16, 16 steps (L=68).
TINY = run.Spec(4, 8, 4, 32, 16, 16)


def test_loading_the_benchmark_leaves_the_environment_alone():
    assert str(RUN.parent) not in sys.path
    assert [os.environ.get(name) for name in BLAS_VARS] == ENV_BEFORE
    assert "perfbench_run" not in sys.modules


@pytest.fixture
def program(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # load_program may extend it
    return run.load_program()


def test_untraced_decodes_pass_the_benchmark_checks(program):
    su = run.set_up(program, TINY, seed=7)
    for engine in run.ENGINES:
        d = run.run_decode(program, su, engine)
        assert run.check_decode(program, su, "tiny", d, reference=None) == [], engine
        again = run.run_decode(program, su, engine)
        assert run.check_decode(program, su, "tiny", again, reference=d.tokens) == [], engine
        assert len(d.step_s) == len(d.trace.steps)
        assert run.tokens_per_s(d) > 0
        # Every vanilla step rewrites every cache; the cached engines have steady steps.
        assert bool(run.steady_steps(d)) == (engine != "vanilla")
        assert run.refresh_sum(d) >= 0


def test_traced_decodes_pass_the_benchmark_checks(program):
    tracer = run.Tracer()
    with tracer.installed():
        su = run.set_up(program, TINY, seed=7)
    for engine in run.ENGINES:
        tracer.decode_id = engine
        with tracer.installed():
            d = run.run_decode(program, su, engine, tracer)
        assert run.check_decode(program, su, "tiny", d, reference=None) == [], engine
        metrics = run.layer_metrics(su, engine, tracer.spans, d)
        assert all(isinstance(value, (int, float)) and value >= 0
                   for value, _ in metrics.values()), engine
