"""Property tests over random small layouts, divisible refresh schedules and
anchor budgets, for every engine kind: recorded entries equal the brute-force
plan enumeration, a degenerate mars run equals vanilla, and every decode
terminates with no masks left."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from marscache import (
    DecodeConfig,
    EngineParams,
    ModelConfig,
    RefreshSchedule,
    decode,
    default_layout,
    init_weights,
    make_engine,
    make_workload,
)
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
        chunk_enabled=draw(st.booleans()),
        sample_size=draw(st.integers(1, min(8, layout.total_length))),
        allow_text_keys=draw(st.booleans()),
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
            chunk_enabled=params.get("chunk_enabled", True),
            sample_size=params.get("sample_size", 32),
            allow_text_keys=params.get("allow_text_keys", False),
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
