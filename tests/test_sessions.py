"""Engine sessions: reuse across decodes, the rows a cached step rewrites,
and configuration checks at build time."""

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
from marscache.engines import step_plan
from marscache.presets import engine_params_from_dict, merge_presets

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


def poison(eng):
    for array in (*eng.cache_k, *eng.cache_v, *eng.boundary[1:]):
        array.fill(np.nan)


# The caches and boundary[1:] are allocated uninitialised, so step 1 must write
# every entry of them before any is read: a NaN left in any of them and read
# reaches the logits. The mars schedule refreshes text and visual entries at
# different steps.
@pytest.mark.parametrize("commit", [dict(tokens_per_step=2), dict(confidence_threshold=0.05)],
                         ids=["count", "threshold"])
@pytest.mark.parametrize("name", [*KINDS, "degenerate-full"])
def test_step_1_writes_every_cache_before_any_read(name, commit):
    lay = default_layout(vocab_size=SMALL.vocab_size)
    dc = DecodeConfig(64, 32, 32, **commit)
    params = (engine_params_from_dict(merge_presets([name])) if name == "degenerate-full"
              else params_for(name))
    tokens, trace = decode(session(params, lay), lay, dc, collect_logits=True)
    eng = session(params, lay)
    for _ in range(2):  # a fresh session, then the same session reused
        poison(eng)
        poisoned_tokens, poisoned = decode(eng, lay, dc, collect_logits=True)
        assert np.array_equal(poisoned_tokens, tokens)
        assert records(poisoned) == records(trace)
        assert len(poisoned.logits_per_step) == len(trace.logits_per_step)
        for got, want in zip(poisoned.logits_per_step, trace.logits_per_step):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["dual_cache", "mars"])
def test_cached_step_leaves_rows_outside_its_live_set_unchanged(kind):
    # In group g a step's live rows are the active block plus each modality
    # whose entry group is at most g; every other row of boundary[g + 1] and
    # of g's key/value caches keeps its bits.
    lay = default_layout(vocab_size=SMALL.vocab_size)
    dc = DecodeConfig(64, 32, 32, tokens_per_step=2)
    params = params_for(kind)
    eng = session(params, lay)
    visual = np.arange(lay.total_length) < lay.visual_length
    partial_plans = []

    class Checked:
        name = eng.name
        block = None

        def step(self, t, state):
            plan = step_plan(params, t, state.active_block != self.block)
            self.block = state.active_block
            boundary, keys, values = ([a.copy() for a in arrays]
                                      for arrays in (eng.boundary, eng.cache_k, eng.cache_v))
            out = eng.step(t, state)
            live = np.zeros(lay.total_length, dtype=bool)
            span = lay.block_span(state.active_block)
            live[span.start:span.stop] = True
            for g in range(SMALL.num_groups):
                if plan.entry_visual is not None and plan.entry_visual <= g:
                    live |= visual
                if plan.entry_text is not None and plan.entry_text <= g:
                    live |= ~visual
                kept = ~live
                assert np.array_equal(eng.boundary[g + 1][kept], boundary[g + 1][kept])
                for l in SMALL.group_layers(g):
                    assert np.array_equal(eng.cache_k[l][:, kept], keys[l][:, kept])
                    assert np.array_equal(eng.cache_v[l][:, kept], values[l][:, kept])
            if (plan.entry_visual, plan.entry_text) != (0, 0):
                partial_plans.append(plan)
            return out

    decode(Checked(), lay, dc)
    assert len(partial_plans) > 10
    if kind == "mars":
        assert any(p.entry_visual != p.entry_text for p in partial_plans)


@pytest.mark.parametrize("bad, message", [
    (dict(anchor_budgets=(4, 2, 1)), "3 anchor budgets given, model has 4 groups"),
    (dict(schedule=RefreshSchedule.uniform_modality((4, 2))),
     "schedule covers 2 groups, model has 4"),
    (dict(sample_size=0), r"sample size 0 outside \[1, 176\]"),
    (dict(sample_size=3.9), "sample_size must be an int, got 3.9"),
    (dict(sample_size=True), "sample_size must be an int, got True"),
    (dict(anchor_budgets=(2.7, 2, 1, 0)), r"anchor_budgets\[0\] must be an int, got 2.7"),
    (dict(anchor_budgets=(4, 2, False, 0)),
     r"anchor_budgets\[2\] must be an int, got False"),
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


def test_preset_sample_size_rejected_not_truncated():
    lay = default_layout(generation_length=32, vocab_size=SMALL.vocab_size)
    params = engine_params_from_dict(merge_presets(["degenerate-full"], {"sample_size": 3.9}))
    assert params.sample_size == 3.9
    with pytest.raises(ValueError, match="sample_size must be an int, got 3.9"):
        session(params, lay)


@pytest.mark.parametrize("kind", KINDS)
def test_causal_model_rejected_by_engine_and_cost_model(kind):
    causal = replace(SMALL, mask_mode="causal")
    lay = default_layout(generation_length=32, vocab_size=SMALL.vocab_size)
    dc = DecodeConfig(32, 16, 32, tokens_per_step=2)
    wk = make_workload(lay, causal, 42)
    message = "block caching needs a bidirectional model, not mask_mode 'causal'"
    with pytest.raises(ValueError, match=message):
        make_engine(params_for(kind), init_weights(causal, 42), lay,
                    wk.visual_embeddings, wk.prompt_tokens)
    with pytest.raises(ValueError, match=message):
        attention_cost(params_for(kind), causal, lay, dc)


@pytest.mark.parametrize("stray", [
    dict(schedule=RefreshSchedule.uniform_modality((4, 2, 1, 1))),
    dict(anchor_budgets=(99,)),
    dict(sample_size=-5),
    dict(schedule=RefreshSchedule.uniform_modality((4, 2, 1, 1)),
         anchor_budgets=(99,), sample_size=-5),
])
@pytest.mark.parametrize("kind", ["vanilla", "dual_cache"])
def test_mars_fields_on_another_kind_rejected_alike(kind, stray):
    lay = default_layout(generation_length=32, vocab_size=SMALL.vocab_size)
    dc = DecodeConfig(32, 16, 32, tokens_per_step=2)
    params = EngineParams(kind=kind, **stray)
    message = f"engine kind '{kind}' takes no schedule, anchor budgets or sample size"
    with pytest.raises(ValueError, match=message) as built:
        session(params, lay)
    with pytest.raises(ValueError, match=message) as costed:
        attention_cost(params, SMALL, lay, dc)
    assert str(built.value) == str(costed.value)


def _with_nan(visual):
    visual = visual.copy()
    visual[3, 5] = np.nan
    return visual


# The session assembles its embeddings when it is built, so bad inputs fail
# there rather than at the first step.
@pytest.mark.parametrize("visual, prompt, message", [
    (lambda v: v[1:], lambda p: p, r"visual embeddings shape \(127, 32\) != \(128, 32\)"),
    (lambda v: v[:, :-1], lambda p: p, r"visual embeddings shape \(128, 31\) != \(128, 32\)"),
    (_with_nan, lambda p: p, "matrix contains non-finite entries"),
    (lambda v: v, lambda p: p[:-1], "prompt length != layout prompt_length"),
])
@pytest.mark.parametrize("kind", KINDS)
def test_inputs_rejected_when_session_is_built(kind, visual, prompt, message):
    lay = default_layout(generation_length=32, vocab_size=SMALL.vocab_size)
    wk = make_workload(lay, SMALL, 42)
    with pytest.raises(ValueError, match=message):
        make_engine(params_for(kind), init_weights(SMALL, 42), lay,
                    visual(wk.visual_embeddings), prompt(wk.prompt_tokens))
