"""Engine sessions: reuse across decodes and configuration checks at build
time."""

from dataclasses import replace

import numpy as np
import pytest

from marscache import (
    DecodeConfig,
    EngineParams,
    ModelConfig,
    RefreshSchedule,
    attention_cost,
    decode,
    default_layout,
    init_weights,
    make_engine,
    make_workload,
)

SMALL = ModelConfig(
    num_layers=4, num_heads=2, model_dim=32, head_dim=16, vocab_size=64,
    group_boundaries=(0, 1, 2, 3),
)
KINDS = ("vanilla", "dual_cache", "mars")


def params_for(kind):
    if kind != "mars":
        return EngineParams(kind=kind)
    return EngineParams(
        kind="mars",
        schedule=RefreshSchedule(tau_text=(8, 4, 2, 1), tau_visual=(16, 8, 4, 2)),
        anchor_budgets=("full", 8, 4, 2), sample_size=8,
    )


def session(params, layout, seed=42):
    w = init_weights(SMALL, seed)
    wk = make_workload(layout, SMALL, seed)
    return make_engine(params, w, layout, wk.visual_embeddings, wk.prompt_tokens)


def records(trace):
    return [replace(s, elapsed_ns=0) for s in trace.steps]


# The toy layout (two blocks of 32) and a single-block one (generation 32,
# block 32), where a session's last block is also the next decode's first.
@pytest.mark.parametrize("generation", [64, 32])
@pytest.mark.parametrize("kind", KINDS)
def test_reused_session_decodes_like_a_fresh_one(kind, generation):
    lay = default_layout(generation_length=generation, vocab_size=SMALL.vocab_size)
    dc = DecodeConfig(generation, generation // 2, 32, tokens_per_step=2)
    params = params_for(kind)
    reused = session(params, lay)
    decode(reused, lay, dc)
    tokens, trace = decode(reused, lay, dc)
    fresh_tokens, fresh_trace = decode(session(params, lay), lay, dc)
    assert np.array_equal(tokens, fresh_tokens)
    assert records(trace) == records(fresh_trace)
    attention_cost(params, SMALL, lay, dc, trace=trace)  # raises on mismatch
    if kind == "mars":
        assert len(reused.visual_masks) == SMALL.num_groups
        assert len(reused.visual_mask_counts) == SMALL.num_groups


@pytest.mark.parametrize("bad, message", [
    (dict(anchor_budgets=(4, 2, 1)), "3 anchor budgets given, model has 4 groups"),
    (dict(schedule=RefreshSchedule.uniform_modality((4, 2))),
     "schedule covers 2 groups, model has 4"),
    (dict(sample_size=0), r"sample size 0 outside \[1, 176\]"),
])
def test_config_rejected_alike_by_engine_and_cost_model(bad, message):
    lay = default_layout(generation_length=32, vocab_size=SMALL.vocab_size)
    dc = DecodeConfig(32, 16, 32, tokens_per_step=2)
    params = replace(params_for("mars"), **bad)
    with pytest.raises(ValueError, match=message) as built:
        session(params, lay)
    with pytest.raises(ValueError, match=message) as costed:
        attention_cost(params, SMALL, lay, dc)
    assert str(built.value) == str(costed.value)
