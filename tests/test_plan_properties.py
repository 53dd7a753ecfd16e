"""Property tests over random small layouts, divisible refresh schedules and
anchor budgets, for every engine kind: recorded entries equal the brute-force
plan enumeration (count mode) and the cost model on the decode's own trace
(threshold mode), a degenerate mars run equals vanilla, every decode
terminates with no masks left, and every plan's live row sets keep the
invariants the sweep relies on."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
from marscache.engines import StepPlan, live_rows, step_plan
from reference import brute_force_step_entries

VOCAB = 32


@st.composite
def cases(draw):
    frames = draw(st.integers(1, 3))
    patches = draw(st.integers(2, 4))
    block = draw(st.sampled_from((2, 4, 8)))
    layout = default_layout(
        num_frames=frames, patches_per_frame=patches,
        prompt_length=draw(st.integers(1, 4)),
        generation_length=block * draw(st.integers(1, 3)),
        block_length=block, vocab_size=VOCAB,
    )
    inner = draw(st.sets(st.integers(1, 3), max_size=3))
    model = ModelConfig(
        num_layers=4, num_heads=2, model_dim=16, head_dim=8, vocab_size=VOCAB,
        group_boundaries=(0, *sorted(inner)),
    )
    groups = model.num_groups
    # Deep-to-shallow interval chain: each shallower interval is a multiple
    # of the next deeper one; visual intervals are text's times a constant.
    tau_text = [draw(st.integers(1, 3))]
    for _ in range(groups - 1):
        tau_text.insert(0, tau_text[0] * draw(st.sampled_from((1, 2))))
    visual_factor = draw(st.sampled_from((1, 2)))
    schedule = RefreshSchedule(
        tau_text=tuple(tau_text),
        tau_visual=tuple(visual_factor * t for t in tau_text),
    )
    budgets = sorted(
        draw(st.lists(st.integers(0, patches), min_size=groups, max_size=groups)),
        reverse=True,
    )
    if draw(st.booleans()):
        budgets = ["full" if k == patches else k for k in budgets]
    mars = dict(
        schedule=schedule, anchor_budgets=tuple(budgets),
        sample_size=draw(st.integers(1, min(8, layout.total_length))),
    )
    return layout, model, mars, draw(st.integers(0, 10_000))


def run(kind, layout, model, seed, collect_logits=False, **params):
    weights = init_weights(model, seed)
    wk = make_workload(layout, model, seed)
    engine = make_engine(EngineParams(kind=kind, **params), weights, layout,
                         wk.visual_embeddings, wk.prompt_tokens)
    # One token per step and as many steps as tokens: every block uses its
    # whole step budget, as the brute-force enumeration assumes.
    gen = layout.generation_length
    dc = DecodeConfig(gen, gen, layout.block_length, tokens_per_step=1)
    tokens, trace = decode(engine, layout, dc, collect_logits=collect_logits)
    assert not np.any(tokens == layout.mask_token_id)
    assert trace.steps[-1].masked_remaining == 0
    return dc, tokens, trace


@settings(max_examples=60, deadline=None)
@given(cases())
def test_plans_match_brute_force_and_degenerate_mars_matches_vanilla(case):
    layout, model, mars, seed = case
    for kind, params in (("vanilla", {}), ("dual_cache", {}), ("mars", mars)):
        dc, tokens, trace = run(kind, layout, model, seed, collect_logits=True,
                                **params)
        recorded = [s.attention_entries + s.proxy_entries for s in trace.steps]
        expect = brute_force_step_entries(
            kind, layout, model, dc, schedule=params.get("schedule"),
            budgets=params.get("anchor_budgets"),
            sample_size=params.get("sample_size", 32),
        )
        assert recorded == expect, kind
        if kind == "vanilla":
            tokens_v, trace_v = tokens, trace

    groups = model.num_groups
    _, tokens_m, trace_m = run(
        "mars", layout, model, seed, collect_logits=True,
        schedule=RefreshSchedule.uniform_modality((1,) * groups),
        anchor_budgets=("full",) * groups,
        sample_size=mars["sample_size"],
    )
    assert np.array_equal(tokens_v, tokens_m)
    for a, b in zip(trace_v.logits_per_step, trace_m.logits_per_step):
        assert np.max(np.abs(a - b)) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(cases(), st.sampled_from((0.02, 0.036, 0.0365, 0.037, 0.5)), st.data())
def test_threshold_mode_plans_match_cost_model_and_degenerate_mars_matches_vanilla(
        case, threshold, data):
    layout, model, mars, seed = case
    gen, block = layout.generation_length, layout.block_length
    # The random model's top-1 confidences sit near 0.036-0.038, so those
    # thresholds commit a varying number of tokens per step; 0.02 commits a
    # whole block at once and 0.5 only the forced minimum.
    steps = data.draw(st.integers(-(-gen // block), gen), label="num_steps")
    dc = DecodeConfig(gen, steps, block, confidence_threshold=threshold)
    weights = init_weights(model, seed)
    wk = make_workload(layout, model, seed)

    def threshold_decode(params):
        engine = make_engine(params, weights, layout, wk.visual_embeddings,
                             wk.prompt_tokens)
        tokens, trace = decode(engine, layout, dc, collect_logits=True)
        assert not np.any(tokens == layout.mask_token_id)
        assert trace.steps[-1].masked_remaining == 0
        recorded = [s.attention_entries + s.proxy_entries for s in trace.steps]
        report = attention_cost(params, model, layout, dc, trace=trace)
        predicted = [s.attention_entries + s.proxy_entries for s in report.steps]
        assert predicted == recorded, params.kind
        return tokens, trace

    for kind, params in (("vanilla", {}), ("dual_cache", {}), ("mars", mars)):
        tokens, trace = threshold_decode(EngineParams(kind=kind, **params))
        if kind == "vanilla":
            tokens_v, trace_v = tokens, trace

    groups = model.num_groups
    tokens_m, trace_m = threshold_decode(EngineParams(
        kind="mars", schedule=RefreshSchedule.uniform_modality((1,) * groups),
        anchor_budgets=("full",) * groups, sample_size=mars["sample_size"],
    ))
    assert np.array_equal(tokens_v, tokens_m)
    assert len(trace_v.steps) == len(trace_m.steps)
    for a, b in zip(trace_v.logits_per_step, trace_m.logits_per_step):
        assert np.max(np.abs(a - b)) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(cases())
def test_live_rows_ascend_hold_the_block_and_grow_with_depth(case):
    layout, model, mars, _ = case
    v, total, groups = layout.visual_length, layout.total_length, model.num_groups
    horizon = 2 * mars["schedule"].tau_visual[0] + 1
    plans = {StepPlan(0, 0)} | {
        step_plan(EngineParams(kind=kind, **(mars if kind == "mars" else {})), t, start)
        for kind in ("vanilla", "dual_cache", "mars")
        for t in range(1, horizon + 1)
        for start in (True, False)
    }
    for plan in plans:
        for block in range(layout.num_blocks):
            span = layout.block_span(block)
            sets = [live_rows(plan, layout, block, g) for g in range(groups)]
            for g, live in enumerate(sets):
                assert np.all(np.diff(live) > 0), (plan, g)
                assert np.isin(np.arange(span.start, span.stop), live).all(), (plan, g)
                if g + 1 < groups:
                    assert np.isin(live, sets[g + 1]).all(), (plan, g)
                if live[0] < v:
                    # The sweep hands chunk_key_sets the visual segment first.
                    assert np.array_equal(live[:v], np.arange(v)), (plan, g)
                if (plan.entry_visual, plan.entry_text) == (0, 0):
                    assert np.array_equal(live, np.arange(total)), (plan, g)
