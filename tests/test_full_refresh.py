"""Full refreshes run the cached sweep like every other plan. These tests
check them against the model's plain forward pass, which runs the same
transformer layer without the caches: every vanilla step, every dual_cache
block start and mars's step 1, and the anchor plan mars fixes at step 1
against proxies scored from forward's activations. Since that layer code is
shared, each engine's first step is also checked against the loop-based
oracle in reference.py, and so is a chunked step, whose visual rows see only
what each group's anchor plan lets them. The engines reject causal models,
so every case here is bidirectional."""

import numpy as np
import pytest

from marscache import (
    DecodeConfig,
    EngineParams,
    ModelConfig,
    RefreshSchedule,
    decode,
    default_layout,
    forward,
    init_weights,
    make_engine,
    make_workload,
    proxy_scores,
    select_anchors,
)
from marscache.diffusion import DiffusionState, assemble_embeddings
from marscache.engines import StepPlan, step_plan
from marscache.mars import equidistant_indices
from marscache.model import apply_rotary, rms_norm, rotary_phases, split_heads

SEED = 42


def toy_case():
    model = ModelConfig(
        num_layers=4, num_heads=2, model_dim=32, head_dim=16, vocab_size=64,
        group_boundaries=(0, 1, 2, 3),
    )
    layout = default_layout(vocab_size=model.vocab_size)
    return model, layout, DecodeConfig(64, 16, 32, tokens_per_step=4)


def uneven_case():
    model = ModelConfig(
        num_layers=4, num_heads=2, model_dim=32, head_dim=16, vocab_size=64,
        group_boundaries=(0, 1, 3),
    )
    layout = default_layout(4, 8, 8, 32, 16, vocab_size=model.vocab_size)
    return model, layout, DecodeConfig(32, 8, 16, tokens_per_step=4)


CASES = {"toy": toy_case, "uneven-groups": uneven_case}


def setup(case):
    model, layout, dc = CASES[case]()
    weights = init_weights(model, SEED)
    work = make_workload(layout, model, SEED)
    return weights, layout, dc, work


def forward_of(weights, layout, work, state):
    emb = assemble_embeddings(
        weights, layout, work.visual_embeddings, work.prompt_tokens, state.token_ids
    )
    return forward(weights, emb, layout.position_ids)


# Which steps of each engine are full refreshes, given (t, block_start).
FULL_REFRESH_STEPS = {
    "vanilla": lambda t, block_start: True,
    "dual_cache": lambda t, block_start: block_start,
    "mars": lambda t, block_start: t == 1,
}


def full_refresh_params(kind, groups):
    if kind != "mars":
        return EngineParams(kind=kind)
    return EngineParams(
        kind="mars", schedule=RefreshSchedule.uniform_modality((2,) * groups),
        anchor_budgets=(2,) * groups, sample_size=8,
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_vanilla_steps_equal_forward(case):
    # Every vanilla step, every dual_cache block start and mars's step 1 are
    # full refreshes, so each leaves the caches and boundary states equal to
    # forward's activations.
    weights, layout, dc, work = setup(case)
    cfg = weights.config
    for kind, is_full in FULL_REFRESH_STEPS.items():
        session = make_engine(
            full_refresh_params(kind, cfg.num_groups), weights, layout,
            work.visual_embeddings, work.prompt_tokens,
        )
        checked = []

        class Checked:
            name = session.name
            block = None

            def step(self, t, state):
                block_start = state.active_block != self.block
                self.block = state.active_block
                logits, record = session.step(t, state)
                if not is_full(t, block_start):
                    return logits, record
                ref_logits, acts = forward_of(weights, layout, work, state)
                span = layout.block_span(state.active_block)
                assert np.array_equal(logits, ref_logits[span.start : span.stop])
                for l in range(cfg.num_layers):
                    assert np.array_equal(session.cache_k[l], acts.keys[l])
                    assert np.array_equal(session.cache_v[l], acts.values[l])
                for g in range(1, cfg.num_groups):
                    assert np.array_equal(
                        session.boundary[g], acts.hidden[cfg.group_boundaries[g]]
                    )
                assert np.array_equal(session.boundary[-1], acts.hidden[-1])
                checked.append(t)
                return logits, record

        _, trace = decode(Checked(), layout, dc)
        expected = {
            "vanilla": [s.step for s in trace.steps],
            "dual_cache": [next(s.step for s in trace.steps if s.block == b)
                           for b in sorted({s.block for s in trace.steps})],
            "mars": [1],
        }[kind]
        assert checked == expected and len(trace.steps) > 2


def anchors_from_forward(weights, layout, work, state, params):
    """The anchor plan as step 1 built it from forward's activations: proxy
    scores of each group's first layer, averaged over heads."""
    cfg = weights.config
    _, acts = forward_of(weights, layout, work, state)
    cos, sin = rotary_phases(layout.position_ids, cfg.head_dim)
    sample_idx = equidistant_indices(layout.total_length, params.sample_size)
    vis_idx = np.arange(layout.visual_length)
    proxies = []
    for g in range(cfg.num_groups):
        l0 = cfg.group_boundaries[g]
        lw = weights.layers[l0]
        xn = rms_norm(acts.hidden[l0], lw.attn_norm)
        q = apply_rotary(split_heads(xn @ lw.wq, cfg.num_heads), cos, sin)
        k = acts.keys[l0]
        per_head = [
            proxy_scores(q[h][sample_idx], k[h], sample_idx, vis_idx)
            for h in range(cfg.num_heads)
        ]
        proxies.append(np.mean(per_head, axis=0))
    return select_anchors(
        proxies, layout, params.anchor_budgets, sample_indices=sample_idx
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_mars_step_one_anchors_equal_forward_proxies(case):
    weights, layout, dc, work = setup(case)
    groups = weights.config.num_groups
    # No group sees every patch, so each group's proxies pick its anchors.
    params = EngineParams(
        kind="mars",
        schedule=RefreshSchedule.uniform_modality(
            tuple(2 ** (groups - 1 - g) for g in range(groups))
        ),
        anchor_budgets=(4,) + (2,) * (groups - 1),
        sample_size=8,
    )
    session = make_engine(
        params, weights, layout, work.visual_embeddings, work.prompt_tokens
    )
    expected = []

    class Checked:
        name = session.name

        def step(self, t, state):
            if t == 1:
                expected.append(
                    anchors_from_forward(weights, layout, work, state, params)
                )
            return session.step(t, state)

    _, trace = decode(Checked(), layout, dc)
    digest = expected[0].digest
    assert session.plan == expected[0]
    assert [s.anchor_digest for s in trace.steps] == [digest] * len(trace.steps)


@pytest.mark.parametrize("kind", ["vanilla", "dual_cache", "mars"])
def test_step_one_logits_equal_loop_reference(kind):
    from reference import ref_forward

    model = ModelConfig(
        num_layers=2, num_heads=2, model_dim=16, head_dim=8, vocab_size=32,
        group_boundaries=(0, 1),
    )
    layout = default_layout(2, 4, 4, 8, 8, vocab_size=model.vocab_size)
    weights = init_weights(model, SEED)
    work = make_workload(layout, model, SEED)
    params = EngineParams(kind=kind) if kind != "mars" else EngineParams(
        kind=kind, schedule=RefreshSchedule.uniform_modality((2, 1)),
        anchor_budgets=(2, 1), sample_size=8,
    )
    session = make_engine(
        params, weights, layout, work.visual_embeddings, work.prompt_tokens
    )
    state = DiffusionState(
        token_ids=np.full(layout.generation_length, layout.mask_token_id),
        mask_flags=np.ones(layout.generation_length, dtype=bool),
        active_block=0,
    )
    logits, _ = session.step(1, state)
    emb = assemble_embeddings(
        weights, layout, work.visual_embeddings, work.prompt_tokens, state.token_ids
    )
    span = layout.block_span(0)
    ref = ref_forward(weights, emb, layout.position_ids)[span.start : span.stop]
    assert np.max(np.abs(logits - ref)) <= 1e-10


def test_chunked_step_logits_equal_loop_reference():
    # Both groups refresh every step, so step 2 recomputes every row from
    # group 0 with visual rows under each group's own anchor mask; the
    # budgets differ by group, and so do the anchor sets. Group 1 has two
    # layers, so its mask reaches the active rows through the last layer's
    # keys and values.
    from reference import brute_force_visual_visibility, ref_forward

    model = ModelConfig(
        num_layers=3, num_heads=2, model_dim=16, head_dim=8, vocab_size=32,
        group_boundaries=(0, 1),
    )
    layout = default_layout(4, 4, 4, 8, 8, vocab_size=model.vocab_size)
    weights = init_weights(model, SEED)
    work = make_workload(layout, model, SEED)
    params = EngineParams(
        kind="mars", schedule=RefreshSchedule.uniform_modality((1, 1)),
        anchor_budgets=(2, 1), sample_size=8,
    )
    assert step_plan(params, 2, False) == StepPlan(0, 0, chunked=True)
    session = make_engine(
        params, weights, layout, work.visual_embeddings, work.prompt_tokens
    )
    state = DiffusionState(
        token_ids=np.full(layout.generation_length, layout.mask_token_id),
        mask_flags=np.ones(layout.generation_length, dtype=bool),
        active_block=0,
    )
    session.step(1, state)
    state.token_ids[:2] = (3, 5)
    state.mask_flags[:2] = False
    logits, _ = session.step(2, state)

    masks = []
    for g in range(model.num_groups):
        mask = np.zeros((layout.total_length, layout.total_length))
        vis = brute_force_visual_visibility(layout, session.plan.unions[g])
        mask[: layout.visual_length][~vis] = -np.inf
        masks += [mask] * len(model.group_layers(g))
    emb = assemble_embeddings(
        weights, layout, work.visual_embeddings, work.prompt_tokens, state.token_ids
    )
    span = layout.block_span(0)
    ref = ref_forward(weights, emb, layout.position_ids, masks)[span.start : span.stop]
    assert session.plan.unions[0] != session.plan.unions[1]
    assert np.max(np.abs(logits - ref)) <= 1e-10
