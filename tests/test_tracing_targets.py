"""The benchmark's traced run wraps functions by (module, attribute) name and
reads a work count from their arguments, so renaming one of them, or changing
the arguments a counted one is called with, must fail here rather than when
`perfbench/run.py --trace 1` installs its spans."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from marscache import ModelConfig, forward, init_weights, seeded_stream

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)


@pytest.mark.parametrize("span, home, attr", [
    (span, home, attr) for span, home, attr, _ in tracing.TRACED_FUNCTIONS
])
def test_traced_function_resolves(span, home, attr):
    assert callable(getattr(importlib.import_module(home), attr)), span


def test_work_counters_read_the_calls_the_package_makes():
    s = seeded_stream(0, "tracing")
    q, k, v = s.normal(size=(2, 3, 4)), s.normal(size=(2, 5, 4)), s.normal(size=(2, 5, 6))
    x = s.normal(size=(3, 7))
    y = x.copy()
    # span -> (args, kwargs, expected work) per call form in src/
    calls = {
        "model.multi_head_attention": [
            ((q, k, v), {}, 2 * 3 * 5),
            ((q, k, v, np.zeros((3, 5))), {}, 2 * 3 * 5),
        ],
        "model.gelu": [((x,), {}, 3 * 7), ((y,), {"out": y}, 3 * 7)],
    }
    tracer = tracing.Tracer()
    for span, home, attr, work in tracing.TRACED_FUNCTIONS:
        if work is None:
            continue
        traced = tracer.wrap(span, getattr(importlib.import_module(home), attr), work)
        for args, kwargs, count in calls.pop(span):
            traced(*args, **kwargs)
            assert tracer.spans[-1][5] == count, span
    assert not calls, f"no counter traces {sorted(calls)}"


@pytest.mark.parametrize("mask_mode", ["bidirectional", "causal"])
def test_traced_forward_counts_every_score_and_gelu_element(mask_mode):
    cfg = ModelConfig(num_layers=2, num_heads=2, model_dim=16, head_dim=8,
                      vocab_size=32, group_boundaries=(0,), mask_mode=mask_mode)
    w = init_weights(cfg, 3)
    t = 11
    emb = seeded_stream(3, "emb").normal(size=(t, cfg.model_dim))
    tracer = tracing.Tracer()
    with tracer.installed():
        forward(w, emb, np.arange(t))
    work = tracing.summarize(tracer.spans, "setup")
    assert work["model.multi_head_attention"]["work"] == cfg.num_layers * cfg.num_heads * t * t
    assert work["model.gelu"]["work"] == cfg.num_layers * t * 4 * cfg.model_dim
