import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marscache import (
    DecodeConfig,
    EngineParams,
    ModelConfig,
    RefreshSchedule,
    anchor_augmented_attention,
    attention,
    chunk_attention,
    decode,
    default_layout,
    forward,
    init_weights,
    make_engine,
    make_workload,
    neighborhood,
    proxy_scores,
    seeded_stream,
    select_anchors,
)
from marscache import engines, model
from marscache.mars import (
    anchor_visibility_count,
    equidistant_indices,
    resolve_budgets,
    visual_key_visibility,
)
from reference import brute_force_visual_visibility, relocate_anchors

SMALL = ModelConfig(
    num_layers=4, num_heads=2, model_dim=32, head_dim=16, vocab_size=64,
    group_boundaries=(0, 1, 2, 3),
)


def small_layout(**kw):
    args = dict(num_frames=4, patches_per_frame=4, prompt_length=8,
                generation_length=32, block_length=16, vocab_size=64)
    args.update(kw)
    return default_layout(**args)


class TestSchedule:
    def test_pyramid_accepted(self):
        RefreshSchedule.uniform_modality((64, 32, 16, 8))

    def test_modality_aware_accepted(self):
        RefreshSchedule(tau_text=(64, 32, 16, 8), tau_visual=(128, 64, 32, 16))

    def test_divisibility_violation_named(self):
        with pytest.raises(ValueError, match="group 1"):
            RefreshSchedule.uniform_modality((48, 32, 16, 8))

    def test_modality_ordering_enforced(self):
        with pytest.raises(ValueError, match="modality ordering"):
            RefreshSchedule(tau_text=(32, 16), tau_visual=(16, 16))

    def test_equal_intervals_are_valid_multiples(self):
        RefreshSchedule.uniform_modality((32, 32, 32, 32))

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, "2", None])
    @pytest.mark.parametrize("field", ["tau_text", "tau_visual"])
    def test_non_int_interval_rejected(self, field, bad):
        taus = dict(tau_text=(4, 1), tau_visual=(4, 2))
        taus[field] = (taus[field][0], bad)
        with pytest.raises(ValueError, match=rf"{field}\[1\] must be an int, got {bad!r}"):
            RefreshSchedule(**taus)

    def test_numpy_int_interval_accepted_as_int(self):
        s = RefreshSchedule.uniform_modality((np.int64(4), np.int32(2)))
        assert s.tau_text == (4, 2) and all(type(t) is int for t in s.tau_visual)

    def test_step_plan_owns_the_refresh_clock(self):
        pyramid = EngineParams(
            kind="mars", schedule=RefreshSchedule.uniform_modality((64, 32, 16, 8)),
            anchor_budgets=(2, 2, 1, 1),
        )
        # 64 is a multiple of every interval, 63 of none, 24 of the deepest only.
        assert engines.step_plan(pyramid, 64, False) == engines.StepPlan(0, 0, chunked=True)
        assert engines.step_plan(pyramid, 63, False) == engines.StepPlan(None, None)
        assert engines.step_plan(pyramid, 24, False) == engines.StepPlan(3, 3, chunked=True)
        ones = EngineParams(kind="mars", schedule=RefreshSchedule.uniform_modality((1,) * 4),
                            anchor_budgets=(2, 2, 1, 1))
        for t in range(2, 20):
            assert engines.step_plan(ones, t, t % 4 == 1) == engines.StepPlan(0, 0, chunked=True)

    @pytest.mark.parametrize("kind", ["vanilla", "dual_cache", "mars"])
    @pytest.mark.parametrize("t", [0, -1])
    def test_step_counter_is_one_based_for_every_kind(self, kind, t):
        params = EngineParams(kind=kind) if kind != "mars" else EngineParams(
            kind="mars", schedule=RefreshSchedule.uniform_modality((1,)), anchor_budgets=(1,))
        with pytest.raises(ValueError, match="1-based"):
            engines.step_plan(params, t, True)


class TestNeighborhood:
    def test_interior_frame(self):
        lay = default_layout()  # 8 frames x 16
        nb = neighborhood(lay, 4)
        assert nb.size == 48
        assert nb[0] == 2 * 16 and nb[-1] == 5 * 16 - 1

    def test_left_boundary(self):
        lay = default_layout()
        nb = neighborhood(lay, 1)
        assert nb.size == 32
        assert nb[0] == 0

    def test_right_boundary(self):
        lay = default_layout()
        assert neighborhood(lay, 8).size == 32

    def test_single_frame(self):
        lay = default_layout(num_frames=1)
        assert neighborhood(lay, 1).size == 16


class TestChunkAttention:
    def test_single_frame_equals_full_visual_attention(self):
        lay = default_layout(num_frames=1, patches_per_frame=16)
        s = seeded_stream(1, "qkv")
        q = s.normal(size=(lay.visual_length, 8))
        k = s.normal(size=(lay.total_length, 8))
        v = s.normal(size=(lay.total_length, 8))
        chunked = chunk_attention(q, k, v, lay)
        full = attention(q, k[: lay.visual_length], v[: lay.visual_length])
        assert np.max(np.abs(chunked - full)) <= 1e-12

    def test_entry_count_closed_form(self):
        lay = default_layout()  # N=8, P=16
        assert anchor_visibility_count(lay, 0) == 2 * 16 * 32 + 6 * 16 * 48 == 5632

    @pytest.mark.parametrize("bad", [-1, 17, 2.5, True])
    def test_entry_count_budget_checked(self, bad):
        # Out-of-range budgets are rejected, not clipped to a slice of each frame.
        with pytest.raises(ValueError, match="anchor[ _]budget"):
            anchor_visibility_count(default_layout(), bad)

    def test_entry_count_full_budget_is_frame_size(self):
        lay = default_layout()
        assert anchor_visibility_count(lay, "full") == anchor_visibility_count(lay, 16)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_entry_count_matches_mask_enumeration(self, data):
        # The closed form must hold for every anchor set with exactly k
        # anchors per frame, whichever patches step 1 picks.
        patches = data.draw(st.integers(1, 5), label="patches")
        lay = default_layout(
            num_frames=data.draw(st.integers(1, 5), label="frames"),
            patches_per_frame=patches,
            prompt_length=data.draw(st.integers(1, 3), label="prompt"),
            generation_length=2, block_length=2,
        )
        k = data.draw(st.integers(0, patches), label="budget")
        anchors = [
            lay.frame_span(n).start + i
            for n in range(1, lay.num_frames + 1)
            for i in data.draw(st.permutations(range(patches)), label=f"frame {n}")[:k]
        ]
        vis = brute_force_visual_visibility(lay, anchors)
        assert np.array_equal(visual_key_visibility(lay, anchors), vis)
        assert int(vis.sum()) == anchor_visibility_count(lay, k)

    def test_locality_is_observable(self):
        # Dominant key in frame 1 is invisible to a frame-4 query under
        # chunking, so outputs must differ from full attention there.
        lay = default_layout(num_frames=4, patches_per_frame=4,
                             prompt_length=1, generation_length=2,
                             block_length=2)
        s = seeded_stream(2, "qkv")
        q = s.normal(size=(lay.visual_length, 8))
        k = s.normal(size=(lay.total_length, 8)) * 0.01
        v = s.normal(size=(lay.total_length, 8))
        k[0] = q[12] * 10.0  # frame-1 key aligned with a frame-4 query
        chunked = chunk_attention(q, k, v, lay)
        full = attention(
            q, k[: lay.visual_length], v[: lay.visual_length]
        )
        assert np.max(np.abs(chunked[12] - full[12])) > 1e-3


class TestProxyScores:
    def test_shape(self):
        lay = default_layout()
        s = seeded_stream(3, "qk")
        q = s.normal(size=(lay.total_length, 8))
        k = s.normal(size=(lay.total_length, 8))
        samples = equidistant_indices(lay.total_length, 32)
        probs = proxy_scores(q[samples], k, samples, np.arange(lay.visual_length))
        assert probs.shape == (32, 128)

    def test_rows_sum_to_one_before_debias_then_at_most_one(self):
        lay = default_layout()
        s = seeded_stream(4, "qk")
        q = s.normal(size=(lay.total_length, 8))
        k = s.normal(size=(lay.total_length, 8))
        samples = equidistant_indices(lay.total_length, 16)
        probs = proxy_scores(q[samples], k, samples, np.arange(lay.visual_length))
        sums = probs.sum(axis=1)
        assert np.all(sums <= 1.0 + 1e-12)
        # Rows sampled inside the visual segment lose exactly their own entry.
        for i, sample in enumerate(samples):
            if sample < lay.visual_length:
                assert probs[i, sample] == 0.0
                assert sums[i] < 1.0
            else:
                assert sums[i] == pytest.approx(1.0, abs=1e-12)

    def test_no_visual_samples_means_no_debias(self):
        lay = default_layout()
        s = seeded_stream(5, "qk")
        q = s.normal(size=(lay.total_length, 8))
        k = s.normal(size=(lay.total_length, 8))
        samples = np.array([150, 180, 200])  # all in prompt/response
        probs = proxy_scores(q[samples], k, samples, np.arange(lay.visual_length))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_stacked_heads_score_like_single_heads(self):
        # The engine scores all heads in one call; each head's slice must be
        # bit-identical to the single-head call, debiased zeros included.
        lay = small_layout()
        s = seeded_stream(12, "qk")
        samples = equidistant_indices(lay.total_length, 8)
        q = s.normal(size=(3, samples.size, 8))
        k = s.normal(size=(3, lay.total_length, 8))
        vis = np.arange(lay.visual_length)
        stacked = proxy_scores(q, k, samples, vis)
        single = np.stack([proxy_scores(q[h], k[h], samples, vis) for h in range(3)])
        assert stacked.shape == (3, samples.size, lay.visual_length)
        assert np.array_equal(stacked, single)
        own = np.flatnonzero(samples < lay.visual_length)
        assert own.size and np.all(stacked[:, own, samples[own]] == 0.0)

    def test_queries_are_the_sampled_rows(self):
        with pytest.raises(ValueError, match="3 queries for 2 samples"):
            proxy_scores(np.zeros((3, 2)), np.zeros((4, 2)), [0, 2], [0, 1])

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            proxy_scores(np.zeros((4, 2)), np.zeros((4, 2)), [], [0, 1])


@st.composite
def anchor_cases(draw):
    """(frames, patches, budget, proxy): integer proxies from a small range,
    so that column sums tie often."""
    frames = draw(st.integers(1, 4), label="frames")
    patches = draw(st.integers(1, 6), label="patches")
    budget = draw(st.integers(0, patches), label="budget")
    rows = draw(st.integers(1, 3), label="samples")
    cells = st.lists(st.integers(0, 2), min_size=frames * patches,
                     max_size=frames * patches)
    proxy = draw(st.lists(cells, min_size=rows, max_size=rows), label="proxy")
    return frames, patches, budget, np.array(proxy, dtype=np.float64)


class TestSelectAnchors:
    def test_crafted_top1_per_frame(self):
        lay = default_layout(num_frames=2, patches_per_frame=3,
                             prompt_length=1, generation_length=2, block_length=2)
        proxy = np.array([
            [0.25, 0.05, 0.10, 0.025, 0.30, 0.025],
            [0.25, 0.05, 0.10, 0.025, 0.30, 0.025],
        ])
        plan = select_anchors([proxy], lay, budgets=[1])
        # Column sums [0.5, 0.1, 0.2 | 0.05, 0.6, 0.05] -> argmax 0 and 4.
        assert plan.per_frame[0] == ((0,), (4,))
        assert plan.unions[0] == (0, 4)

    @settings(max_examples=80, deadline=None)
    @given(case=anchor_cases())
    @example(case=(4, 4, 2, seeded_stream(6, "proxy").uniform(size=(8, 16))))
    def test_brute_force_agreement(self, case):
        frames, patches, k, proxy = case
        lay = default_layout(num_frames=frames, patches_per_frame=patches,
                             prompt_length=1, generation_length=2, block_length=2)
        plan = select_anchors([proxy], lay, budgets=[k])
        sums = proxy.sum(axis=0)
        expect = tuple(
            tuple(sorted(sorted(lay.frame_span(n), key=lambda i: (-sums[i], i))[:k]))
            for n in range(1, frames + 1)
        )
        assert plan.per_frame[0] == expect
        assert plan.unions[0] == tuple(sorted(i for frame in expect for i in frame))

    def test_saturation(self):
        lay = small_layout()
        proxy = seeded_stream(7, "proxy").uniform(size=(4, lay.visual_length))
        plan = select_anchors([proxy], lay, budgets=[lay.patches_per_frame])
        assert plan.unions[0] == tuple(range(lay.visual_length))

    def test_uniform_ties_break_to_lowest_index(self):
        lay = small_layout()
        proxy = np.full((4, lay.visual_length), 1.0 / lay.visual_length)
        plan = select_anchors([proxy], lay, budgets=[2])
        for fr in range(lay.num_frames):
            start = lay.frame_span(fr + 1).start
            assert plan.per_frame[0][fr] == (start, start + 1)

    def test_budget_exceeding_frame_rejected(self):
        lay = small_layout()
        proxy = np.ones((2, lay.visual_length))
        with pytest.raises(ValueError):
            select_anchors([proxy], lay, budgets=[lay.patches_per_frame + 1])

    @pytest.mark.parametrize("budgets, index, bad", [
        ((2.7, True, "1", 0), 0, 2.7),
        ((3, True, 1, 0), 1, True),
        ((3, 2, "1", 0), 2, "1"),
        (("full", 2.0), 1, 2.0),
    ])
    def test_non_int_budget_rejected(self, budgets, index, bad):
        with pytest.raises(ValueError,
                           match=rf"anchor_budgets\[{index}\] must be an int, got {bad!r}"):
            resolve_budgets(budgets, 16)

    def test_full_and_numpy_int_budgets_resolved(self):
        assert resolve_budgets(("full", np.int64(3), 0), 16) == (16, 3, 0)

    def test_budgets_must_be_non_increasing(self):
        lay = small_layout()
        proxy = np.ones((2, lay.visual_length))
        with pytest.raises(ValueError, match="non-increasing"):
            select_anchors([proxy, proxy], lay, budgets=[1, 2])


class TestAnchorAugmentedAttention:
    @staticmethod
    def _qkv(lay, seed=8, width=8):
        s = seeded_stream(seed, "qkv")
        return (s.normal(size=(lay.total_length, width)) for _ in range(3))

    def test_saturation_equals_full_attention(self):
        lay = default_layout()
        q, k, v = self._qkv(lay)
        out = anchor_augmented_attention(q, k, v, lay, range(lay.visual_length))
        full = attention(q, k, v)
        assert np.max(np.abs(out - full)) <= 1e-12

    def test_empty_anchors_reduce_to_chunk_attention(self):
        lay = default_layout()
        q, k, v = self._qkv(lay, seed=9)
        out = anchor_augmented_attention(q, k, v, lay, ())
        chunked = chunk_attention(q[: lay.visual_length], k, v, lay)
        assert np.max(np.abs(out[: lay.visual_length] - chunked)) <= 1e-12

    def test_distant_anchor_restores_global_argmax(self):
        # A dominant key in frame 1: invisible to a frame-5 query under pure
        # chunking, recovered once it is an anchor.
        lay = default_layout()
        s = seeded_stream(10, "qkv")
        q = s.normal(size=(lay.total_length, 8))
        k = s.normal(size=(lay.total_length, 8)) * 0.01
        v = s.normal(size=(lay.total_length, 8))
        query_row = lay.frame_span(5).start
        k[3] = q[query_row] * 20.0  # softmax mass concentrates on key 3
        full = attention(q, k, v)
        without = anchor_augmented_attention(q, k, v, lay, ())
        with_anchor = anchor_augmented_attention(q, k, v, lay, (3,))
        assert np.max(np.abs(without[query_row] - full[query_row])) > 1e-3
        assert np.max(np.abs(with_anchor[query_row] - full[query_row])) < 1e-6
        assert np.max(np.abs(with_anchor[query_row] - v[3])) < 1e-6

    def test_text_rows_always_full(self):
        lay = default_layout(num_frames=2, patches_per_frame=4,
                             prompt_length=4, generation_length=4, block_length=4)
        q, k, v = self._qkv(lay, seed=11)
        out = anchor_augmented_attention(q, k, v, lay, ())
        full = attention(q, k, v)
        text = slice(lay.visual_length, lay.total_length)
        assert np.max(np.abs(out[text] - full[text])) <= 1e-12

    def test_visibility_matches_brute_force(self):
        lay = small_layout()
        anchors = (1, 5, 9, 14)
        vis = visual_key_visibility(lay, anchors)
        ref = brute_force_visual_visibility(lay, anchors)
        assert np.array_equal(vis, ref)


class TestRelocateAnchors:
    def test_empty_is_identity(self):
        lay = small_layout()
        perm, inv = relocate_anchors(lay, ())
        assert np.array_equal(perm, np.arange(lay.total_length))
        assert np.array_equal(inv, np.arange(lay.total_length))

    def test_inverse_composes_to_identity(self):
        lay = small_layout()
        perm, inv = relocate_anchors(lay, (2, 7, 11))
        assert np.array_equal(perm[inv], np.arange(lay.total_length))
        assert np.array_equal(inv[perm], np.arange(lay.total_length))

    def test_anchors_moved_to_front(self):
        lay = small_layout()
        perm, _ = relocate_anchors(lay, (2, 7, 11))
        assert perm[:3].tolist() == [2, 7, 11]
        assert perm[lay.visual_length:].tolist() == list(
            range(lay.visual_length, lay.total_length)
        )

    def test_model_outputs_unchanged_after_restore(self):
        cfg = SMALL
        lay = small_layout()
        w = init_weights(cfg, 21)
        wk = make_workload(lay, cfg, 21)
        response = np.full(lay.generation_length, lay.mask_token_id)
        emb = np.concatenate([
            wk.visual_embeddings,
            w.embedding[wk.prompt_tokens],
            w.embedding[response],
        ])
        pos = np.asarray(lay.position_ids)
        base, _ = forward(w, emb, pos)
        perm, inv = relocate_anchors(lay, (3, 6, 13))
        moved, _ = forward(w, emb[perm], pos[perm])
        assert np.max(np.abs(moved[inv] - base)) <= 1e-9


def build_session(kind, lay, cfg, seed=42, **params):
    w = init_weights(cfg, seed)
    wk = make_workload(lay, cfg, seed)
    eng = make_engine(EngineParams(kind=kind, **params), w, lay,
                      wk.visual_embeddings, wk.prompt_tokens)
    return eng, w, wk


class TestEngines:
    def test_degenerate_schedule_equivalence_small(self):
        lay = small_layout()
        dc = DecodeConfig(32, 16, 16, tokens_per_step=2)
        van, _, _ = build_session("vanilla", lay, SMALL)
        tokens_v, trace_v = decode(van, lay, dc, collect_logits=True)
        mars, _, _ = build_session(
            "mars", lay, SMALL,
            schedule=RefreshSchedule.uniform_modality((1, 1, 1, 1)),
            anchor_budgets=("full",) * 4,
        )
        tokens_m, trace_m = decode(mars, lay, dc, collect_logits=True)
        assert np.array_equal(tokens_v, tokens_m)
        for a, b in zip(trace_v.logits_per_step, trace_m.logits_per_step):
            assert np.max(np.abs(a - b)) <= 1e-9

    def test_dual_cache_single_step_blocks_equal_vanilla(self):
        # One step per block means the cache is rebuilt every step.
        lay = small_layout()
        dc = DecodeConfig(32, 2, 16, tokens_per_step=16)
        van, _, _ = build_session("vanilla", lay, SMALL)
        tokens_v, _ = decode(van, lay, dc)
        dual, _, _ = build_session("dual_cache", lay, SMALL)
        tokens_d, _ = decode(dual, lay, dc)
        assert np.array_equal(tokens_v, tokens_d)

    def test_dual_cache_recomputes_active_rows_only(self):
        lay = small_layout()
        dc = DecodeConfig(32, 16, 16, tokens_per_step=2)
        dual, _, _ = build_session("dual_cache", lay, SMALL)
        _, trace = decode(dual, lay, dc)
        nl = SMALL.num_layers
        total = lay.total_length
        for rec in trace.steps:
            if rec.step in (1, 9):  # first step of each 8-step block
                assert rec.rows_recomputed == nl * total
                assert rec.attention_entries == nl * total * total
            else:
                assert rec.rows_recomputed == nl * 16
                assert rec.attention_entries == nl * 16 * total

    def test_refresh_counts_follow_multiples(self):
        lay = small_layout()
        dc = DecodeConfig(32, 32, 16, tokens_per_step=1)
        mars, _, _ = build_session(
            "mars", lay, SMALL,
            schedule=RefreshSchedule(tau_text=(8, 4, 2, 1),
                                     tau_visual=(16, 8, 4, 2)),
            anchor_budgets=(2, 2, 1, 1),
        )
        _, trace = decode(mars, lay, dc)
        # Multiples of tau in steps 2..32, counted independently.
        expect_text = [len([t for t in range(2, 33) if t % tau == 0])
                       for tau in (8, 4, 2, 1)]
        expect_vis = [len([t for t in range(2, 33) if t % tau == 0])
                      for tau in (16, 8, 4, 2)]
        assert trace.refresh_counts("text_context") == expect_text
        assert trace.refresh_counts("visual") == expect_vis

    def test_suffix_refresh_property(self):
        lay = small_layout()
        dc = DecodeConfig(32, 32, 16, tokens_per_step=1)
        mars, _, _ = build_session(
            "mars", lay, SMALL,
            schedule=RefreshSchedule(tau_text=(8, 4, 2, 1),
                                     tau_visual=(16, 8, 4, 2)),
            anchor_budgets=(2, 2, 1, 1),
        )
        _, trace = decode(mars, lay, dc)
        for rec in trace.steps[1:]:
            for groups in (rec.refreshed_visual, rec.refreshed_text):
                if groups:
                    assert groups == list(range(groups[0], SMALL.num_groups))

    def test_anchor_plan_stable_across_steps(self):
        lay = small_layout()
        dc = DecodeConfig(32, 16, 16, tokens_per_step=2)
        mars, _, _ = build_session(
            "mars", lay, SMALL,
            schedule=RefreshSchedule.uniform_modality((4, 4, 2, 2)),
            anchor_budgets=(2, 2, 1, 1),
        )
        _, trace = decode(mars, lay, dc)
        digests = {rec.anchor_digest for rec in trace.steps}
        assert len(digests) == 1 and None not in digests

    def test_anchor_budget_hierarchy_realized(self):
        lay = small_layout()
        dc = DecodeConfig(32, 16, 16, tokens_per_step=2)
        mars, _, _ = build_session(
            "mars", lay, SMALL,
            schedule=RefreshSchedule.uniform_modality((4, 4, 2, 2)),
            anchor_budgets=(3, 2, 2, 1),
        )
        decode(mars, lay, dc)
        sizes = [len(u) for u in mars.plan.unions]
        assert sizes == sorted(sizes, reverse=True)
        for g, k in enumerate((3, 2, 2, 1)):
            for frame in mars.plan.per_frame[g]:
                assert len(frame) == k

    def test_engine_mask_counts_match_actual_anchor_plan(self):
        lay = small_layout()
        dc = DecodeConfig(32, 16, 16, tokens_per_step=2)
        mars, _, _ = build_session(
            "mars", lay, SMALL,
            schedule=RefreshSchedule.uniform_modality((4, 4, 2, 2)),
            anchor_budgets=(3, 2, 2, 1),
        )
        decode(mars, lay, dc)
        # The sweep builds group g's key sets from unions[g]; plan_cost
        # charges their count over chunk_key_sets at g's budget.
        for g, k in enumerate(mars.plan.budgets):
            vis = visual_key_visibility(lay, mars.plan.unions[g])
            assert np.array_equal(vis, brute_force_visual_visibility(lay, mars.plan.unions[g]))
            assert int(vis.sum()) == anchor_visibility_count(lay, k)

    def test_computed_scores_equal_recorded_entries(self, monkeypatch):
        # Every score the engine computes is one it records: chunked visual
        # rows score only their key sets, not all L keys under a mask.
        lay = small_layout()
        dc = DecodeConfig(32, 16, 16, tokens_per_step=2)
        mars, _, _ = build_session(
            "mars", lay, SMALL,
            schedule=RefreshSchedule(tau_text=(8, 4, 2, 1), tau_visual=(16, 8, 4, 2)),
            anchor_budgets=(3, 2, 1, 0),
        )
        scores = []
        attention_of_model = model.multi_head_attention
        proxies_of_engine = engines.proxy_scores

        def counted_attention(q, k, *args, **kwargs):
            scores.append(q.shape[0] * q.shape[1] * k.shape[1])
            return attention_of_model(q, k, *args, **kwargs)

        def counted_proxies(q, k, sample_indices, visual_indices):
            # One call per group, each head scoring every sample against every patch.
            scores.append(q[..., 0].size * len(visual_indices))
            return proxies_of_engine(q, k, sample_indices, visual_indices)

        monkeypatch.setattr(model, "multi_head_attention", counted_attention)
        monkeypatch.setattr(engines, "proxy_scores", counted_proxies)
        _, trace = decode(mars, lay, dc)
        assert any(rec.refreshed_visual for rec in trace.steps[1:])
        assert sum(scores) == SMALL.num_heads * trace.total_entries()

    def test_mars_requires_schedule(self):
        with pytest.raises(ValueError):
            EngineParams(kind="mars")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EngineParams(kind="turbo")
