import re
from dataclasses import replace

import numpy as np
import pytest

from marscache import (
    DecodeConfig,
    EngineParams,
    ModelConfig,
    RefreshSchedule,
    attention_cost,
    attention_entropy,
    build_causal_mask,
    decode,
    default_layout,
    forward,
    init_weights,
    make_engine,
    make_high_norm_embeddings,
    make_workload,
    relocate_high_norm,
    visibility_frequency,
)
from marscache.analysis import decode_drift, drift, entropy_profile
from marscache.diffusion import assemble_embeddings
from marscache.mars import anchor_visibility_count
from marscache.model import apply_rotary, rms_norm, rotary_phases, split_heads
from reference import brute_force_step_entries, ref_shifted_attention

SMALL = ModelConfig(
    num_layers=4, num_heads=2, model_dim=32, head_dim=16, vocab_size=64,
    group_boundaries=(0, 1, 2, 3),
)


def small_layout():
    return default_layout(num_frames=4, patches_per_frame=4, prompt_length=8,
                          generation_length=32, block_length=16, vocab_size=64)


def step_entries(trace):
    return [s.attention_entries + s.proxy_entries for s in trace.steps]


# The StepRecord fields a step plan sets, which a prediction carries.
PLAN_FIELDS = ("step", "block", "attention_entries", "proxy_entries", "rows_recomputed",
               "refreshed_visual", "refreshed_text")


def plan_fields(trace):
    return [tuple(getattr(s, name) for name in PLAN_FIELDS) for s in trace.steps]


class TestVisibilityFrequency:
    def test_formula(self):
        counts = visibility_frequency(10)
        assert counts[0] == 10
        assert counts[-1] == 1
        assert counts.tolist() == [10 - j for j in range(10)]

    def test_strictly_decreasing_to_one(self):
        counts = visibility_frequency(257)
        assert np.all(np.diff(counts) == -1)
        assert counts[-1] == 1

    def test_matches_causal_mask_column_sums(self):
        for t in (1, 2, 7, 33, 128):
            mask = build_causal_mask(t)
            col_zero_counts = np.sum(mask == 0.0, axis=0)
            assert np.array_equal(visibility_frequency(t), col_zero_counts)


class TestDrift:
    def test_identical_states_zero(self):
        lay = small_layout()
        states = [np.ones((lay.total_length, 8)) for _ in range(2)]
        rec = drift(states, [s.copy() for s in states], lay)
        assert rec.visual_mean == 0.0
        assert rec.text_mean == 0.0

    def test_negated_states_two(self):
        lay = small_layout()
        states = [np.ones((lay.total_length, 8)) + 0.1 * np.arange(8)]
        rec = drift(states, [-s for s in states], lay)
        assert rec.visual_mean == pytest.approx(2.0)
        assert rec.text_mean == pytest.approx(2.0)

    def test_bounds(self):
        lay = small_layout()
        rng = np.random.default_rng(0)
        a = [rng.normal(size=(lay.total_length, 8))]
        b = [rng.normal(size=(lay.total_length, 8))]
        rec = drift(a, b, lay)
        for val in (rec.visual_mean, rec.text_mean):
            assert 0.0 <= val <= 2.0

    def test_decode_drift_modality_ordering(self):
        # The qualitative ordering behind the modality-aware schedule: visual
        # context drifts less than text context step to step. The 0.8 floor
        # was pinned at build time; the measured fraction is 1.0.
        w = init_weights(SMALL, 42)
        lay = small_layout()
        wk = make_workload(lay, SMALL, 42)
        dc = DecodeConfig(32, 16, 16, tokens_per_step=2)
        records = decode_drift(w, lay, wk.visual_embeddings, wk.prompt_tokens, dc)
        assert len(records) == 15
        frac = np.mean([r.visual_mean <= r.text_mean for r in records])
        assert frac >= 0.8


class TestAttentionEntropy:
    def test_uniform_rows(self):
        n = 16
        probs = np.full((4, n), 1.0 / n)
        assert attention_entropy([probs])[0] == pytest.approx(np.log(n))

    def test_one_hot_rows(self):
        probs = np.zeros((4, 8))
        probs[:, 2] = 1.0
        assert attention_entropy([probs])[0] == 0.0

    def test_multi_head_shape(self):
        probs = np.full((2, 3, 6), 1.0 / 6)
        assert attention_entropy([probs, probs]) == pytest.approx(
            [np.log(6), np.log(6)]
        )

    @pytest.mark.parametrize("mask_mode", ["bidirectional", "causal"])
    def test_profile_equals_oracle_probabilities(self, mask_mode):
        # Each layer's probabilities, rebuilt from forward's states through
        # the max-shifted oracle, give the profile's entropies bit for bit.
        cfg = ModelConfig(
            num_layers=4, num_heads=2, model_dim=32, head_dim=16, vocab_size=64,
            group_boundaries=(0, 1, 2, 3), mask_mode=mask_mode,
        )
        lay = small_layout()
        w = init_weights(cfg, 42)
        wk = make_workload(lay, cfg, 42)
        resp = np.full(lay.generation_length, lay.mask_token_id)
        emb = assemble_embeddings(w, lay, wk.visual_embeddings, wk.prompt_tokens, resp)
        _, acts = forward(w, emb, lay.position_ids)
        cos, sin = rotary_phases(lay.position_ids, cfg.head_dim)
        mask = build_causal_mask(lay.total_length) if mask_mode == "causal" else None
        probs = []
        for l, lw in enumerate(w.layers):
            xn = rms_norm(acts.hidden[l], lw.attn_norm)
            q = apply_rotary(split_heads(xn @ lw.wq, cfg.num_heads), cos, sin)
            probs.append(ref_shifted_attention(q, acts.keys[l], acts.values[l], mask,
                                               cfg.head_dim)[1])
        assert entropy_profile(w, emb, lay.position_ids) == attention_entropy(probs)


class TestAttentionCost:
    def test_vanilla_single_layer_closed_form(self):
        # T steps at sequence length L on one layer: exactly T * L^2 entries.
        cfg = ModelConfig(num_layers=1, num_heads=2, model_dim=32, head_dim=16,
                          vocab_size=64, group_boundaries=(0,))
        lay = small_layout()
        dc = DecodeConfig(32, 16, 16, tokens_per_step=2)
        report = attention_cost(EngineParams(kind="vanilla"), cfg, lay, dc)
        assert report.total_entries() == 16 * lay.total_length**2

    def test_chunk_portion_closed_form(self):
        lay = default_layout()
        assert anchor_visibility_count(lay, 0) == 5632

    def test_anchor_count_saturation(self):
        lay = default_layout()
        assert (
            anchor_visibility_count(lay, lay.patches_per_frame)
            == lay.visual_length * lay.total_length
        )

    @pytest.mark.parametrize("kind", ["vanilla", "dual_cache", "mars"])
    def test_analytic_matches_brute_force(self, kind):
        lay = small_layout()
        dc = DecodeConfig(32, 16, 16, tokens_per_step=2)
        schedule = RefreshSchedule(tau_text=(8, 4, 2, 1), tau_visual=(8, 8, 4, 2))
        budgets = ("full", 2, 1, 0)
        params = (
            EngineParams(kind=kind) if kind != "mars"
            else EngineParams(kind="mars", schedule=schedule,
                              anchor_budgets=budgets, sample_size=8)
        )
        report = attention_cost(params, SMALL, lay, dc)
        expect = brute_force_step_entries(
            kind, lay, SMALL, dc, schedule=schedule, budgets=budgets,
            sample_size=8,
        )
        assert step_entries(report) == expect

    @pytest.mark.parametrize("kind", ["vanilla", "dual_cache", "mars"])
    def test_trace_matches_analytic(self, kind):
        lay = small_layout()
        dc = DecodeConfig(32, 16, 16, tokens_per_step=2)
        params = (
            EngineParams(kind=kind) if kind != "mars"
            else EngineParams(
                kind="mars",
                schedule=RefreshSchedule(tau_text=(8, 4, 2, 1),
                                         tau_visual=(8, 8, 4, 2)),
                anchor_budgets=("full", 2, 1, 0), sample_size=8,
            )
        )
        w = init_weights(SMALL, 42)
        wk = make_workload(lay, SMALL, 42)
        eng = make_engine(params, w, lay, wk.visual_embeddings, wk.prompt_tokens)
        _, trace = decode(eng, lay, dc)
        report = attention_cost(params, SMALL, lay, dc, trace=trace)
        assert plan_fields(report) == plan_fields(trace)
        predicted = attention_cost(params, SMALL, lay, dc)
        assert plan_fields(predicted) == plan_fields(trace)
        # A prediction is a trace the cost model accepts.
        attention_cost(params, SMALL, lay, dc, trace=predicted)

    @pytest.mark.parametrize("kind", ["vanilla", "dual_cache", "mars"])
    def test_no_trace_counts_only_the_steps_decode_runs(self, kind):
        # 4 tokens per step finish each 16-position block in 4 of its 8 steps.
        lay = small_layout()
        dc = DecodeConfig(32, 16, 16, tokens_per_step=4)
        params = (
            EngineParams(kind=kind) if kind != "mars"
            else EngineParams(
                kind="mars",
                schedule=RefreshSchedule(tau_text=(8, 4, 2, 1),
                                         tau_visual=(8, 8, 4, 2)),
                anchor_budgets=("full", 2, 1, 0), sample_size=8,
            )
        )
        w = init_weights(SMALL, 42)
        wk = make_workload(lay, SMALL, 42)
        eng = make_engine(params, w, lay, wk.visual_embeddings, wk.prompt_tokens)
        _, trace = decode(eng, lay, dc)
        report = attention_cost(params, SMALL, lay, dc)
        assert len(report.steps) == len(trace.steps) == 8
        assert plan_fields(report) == plan_fields(trace)
        assert (report.engine, report.config) == (trace.engine, trace.config)
        assert all(s.committed == [] and s.elapsed_ns == 0 and s.anchor_digest is None
                   and s.masked_remaining == 0 for s in report.steps)
        attention_cost(params, SMALL, lay, dc, trace=report)

    def test_no_trace_toy_totals_at_four_tokens_per_step(self):
        dc = DecodeConfig(64, 32, 32, tokens_per_step=4)
        cfg, lay = ModelConfig(), default_layout()
        vanilla = attention_cost(EngineParams(kind="vanilla"), cfg, lay, dc)
        dual = attention_cost(EngineParams(kind="dual_cache"), cfg, lay, dc)
        assert len(vanilla.steps) == 16
        assert vanilla.total_entries() == 5_537_792
        assert dual.total_entries() == 1_437_696

    def test_threshold_mode_needs_the_trace(self):
        lay = small_layout()
        dc = DecodeConfig(32, 16, 16, confidence_threshold=0.5)
        params = EngineParams(kind="dual_cache")
        with pytest.raises(ValueError, match="trace"):
            attention_cost(params, SMALL, lay, dc)
        w = init_weights(SMALL, 42)
        wk = make_workload(lay, SMALL, 42)
        eng = make_engine(params, w, lay, wk.visual_embeddings, wk.prompt_tokens)
        _, trace = decode(eng, lay, dc)
        report = attention_cost(params, SMALL, lay, dc, trace=trace)
        assert len(report.steps) == len(trace.steps)

    def test_trace_mismatch_detected(self):
        lay = small_layout()
        dc = DecodeConfig(32, 16, 16, tokens_per_step=2)
        params = EngineParams(kind="vanilla")
        w = init_weights(SMALL, 42)
        wk = make_workload(lay, SMALL, 42)
        eng = make_engine(params, w, lay, wk.visual_embeddings, wk.prompt_tokens)
        _, trace = decode(eng, lay, dc)
        trace.steps[3].attention_entries += 1
        with pytest.raises(ValueError, match="trace/plan mismatch"):
            attention_cost(params, SMALL, lay, dc, trace=trace)

    # Step 6 of this mars decode refreshes visual groups [3] and text groups
    # [2, 3] and builds no anchors; each edit keeps every other field.
    @pytest.mark.parametrize("field, edit", [
        ("rows_recomputed", lambda s: replace(s, rows_recomputed=s.rows_recomputed - 1)),
        ("refreshed_visual", lambda s: replace(s, refreshed_visual=[2, 3])),
        ("refreshed_text", lambda s: replace(s, refreshed_text=[1, 2, 3])),
        ("attention_entries", lambda s: replace(s, attention_entries=s.attention_entries - 1,
                                                proxy_entries=s.proxy_entries + 1)),
    ], ids=["rows-minus-one", "visual-suffix", "text-suffix", "entry-to-proxy"])
    def test_trace_plan_field_edit_rejected(self, field, edit):
        lay = small_layout()
        dc = DecodeConfig(32, 16, 16, tokens_per_step=2)
        params = EngineParams(
            kind="mars",
            schedule=RefreshSchedule(tau_text=(8, 4, 2, 1), tau_visual=(8, 8, 4, 2)),
            anchor_budgets=("full", 2, 1, 0), sample_size=8,
        )
        w = init_weights(SMALL, 42)
        wk = make_workload(lay, SMALL, 42)
        eng = make_engine(params, w, lay, wk.visual_embeddings, wk.prompt_tokens)
        _, trace = decode(eng, lay, dc)
        step = trace.steps[5]
        assert (step.step, step.refreshed_visual, step.refreshed_text) == (6, [3], [2, 3])
        assert step.proxy_entries == 0
        trace.steps[5] = edit(step)
        message = (f"trace/plan mismatch at step 6: recorded {field} "
                   f"{getattr(trace.steps[5], field)}, analytic {getattr(step, field)}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            attention_cost(params, SMALL, lay, dc, trace=trace)

    def test_trace_of_another_engine_rejected(self):
        lay = small_layout()
        dc = DecodeConfig(32, 16, 16, tokens_per_step=2)
        w = init_weights(SMALL, 42)
        wk = make_workload(lay, SMALL, 42)
        eng = make_engine(EngineParams(kind="dual_cache"), w, lay, wk.visual_embeddings,
                          wk.prompt_tokens)
        _, trace = decode(eng, lay, dc)
        with pytest.raises(ValueError, match="^trace engine 'dual_cache' is not the "
                                             "configured 'vanilla'$"):
            attention_cost(EngineParams(kind="vanilla"), SMALL, lay, dc, trace=trace)

    # Vanilla steps all cost the same, so only the step and block sequence
    # tells these from the decode's own trace.
    @pytest.mark.parametrize("edit", [
        lambda steps: [replace(s, step=i) for i, s in enumerate(steps)],
        lambda steps: steps[:1] * 3 + steps[1:],
        lambda steps: steps[::-1],
        lambda steps: [],
        lambda steps: steps[:-1] + [replace(steps[-1], block=0)],
    ], ids=["renumbered-from-0", "step-1-thrice", "reversed", "no-steps",
            "last-block-back-to-0"])
    def test_trace_steps_no_decode_writes_rejected(self, edit):
        lay = small_layout()
        dc = DecodeConfig(32, 16, 16, tokens_per_step=2)
        params = EngineParams(kind="vanilla")
        w = init_weights(SMALL, 42)
        wk = make_workload(lay, SMALL, 42)
        eng = make_engine(params, w, lay, wk.visual_embeddings, wk.prompt_tokens)
        _, trace = decode(eng, lay, dc)
        attention_cost(params, SMALL, lay, dc, trace=trace)
        trace.steps = edit(trace.steps)
        with pytest.raises(ValueError, match=r"trace steps must be 1\.\.n"):
            attention_cost(params, SMALL, lay, dc, trace=trace)

    def test_trace_that_stops_before_its_decode_finished_rejected(self):
        lay = small_layout()
        dc = DecodeConfig(32, 16, 16, tokens_per_step=2)
        params = EngineParams(kind="vanilla")
        w = init_weights(SMALL, 42)
        wk = make_workload(lay, SMALL, 42)
        eng = make_engine(params, w, lay, wk.visual_embeddings, wk.prompt_tokens)
        _, trace = decode(eng, lay, dc)
        trace.steps = trace.steps[:5]
        with pytest.raises(ValueError, match="trace ends at step 5 with 22 positions "
                                             "still masked"):
            attention_cost(params, SMALL, lay, dc, trace=trace)

    def test_read_only_over_engine_state(self):
        lay = small_layout()
        dc = DecodeConfig(32, 16, 16, tokens_per_step=2)
        params = EngineParams(kind="vanilla")
        before = attention_cost(params, SMALL, lay, dc)
        after = attention_cost(params, SMALL, lay, dc)
        assert step_entries(before) == step_entries(after)

    def test_recomputed_row_layers_ratio_over_128_steps(self):
        # Text pyramid 64/32/16/8 with visual at 2x, generation 128 in blocks
        # of 32 over 128 steps: recomputed row-layers stay under a quarter of
        # vanilla's (analytic value 45248 / 278528 ~= 0.162).
        cfg = ModelConfig()
        lay = default_layout(generation_length=128)
        dc = DecodeConfig(128, 128, 32, tokens_per_step=1)
        mars = attention_cost(
            EngineParams(
                kind="mars",
                schedule=RefreshSchedule(tau_text=(64, 32, 16, 8),
                                         tau_visual=(128, 64, 32, 16)),
                anchor_budgets=("full", 8, 4, 2),
            ),
            cfg, lay, dc,
        )
        vanilla = attention_cost(EngineParams(kind="vanilla"), cfg, lay, dc)
        assert mars.total_rows_recomputed() == 45_248
        assert vanilla.total_rows_recomputed() == 128 * 272 * 8
        assert mars.total_rows_recomputed() / vanilla.total_rows_recomputed() <= 0.25


class TestRelocateHighNorm:
    def test_k_zero_identity(self):
        emb = np.arange(12.0).reshape(4, 3)
        rel = relocate_high_norm(emb, np.arange(4), 0, 0.7)
        assert np.array_equal(rel.embeddings, emb)
        assert np.array_equal(rel.permutation, np.arange(4))

    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            relocate_high_norm(np.ones((4, 2)), np.arange(4), 1, 1.5)

    @pytest.mark.parametrize("k, message", [(-1, "k=-1 is negative"),
                                            (5, "k=5 exceeds number of rows 4")])
    def test_k_out_of_range(self, k, message):
        with pytest.raises(ValueError, match=message):
            relocate_high_norm(np.ones((4, 2)), np.arange(4), k, 0.5)

    @pytest.mark.parametrize("k, message", [(-2, "k=-2 is negative"),
                                            (9, "k=9 exceeds number of rows 5")])
    def test_high_norm_k_out_of_range(self, k, message):
        with pytest.raises(ValueError, match=message):
            make_high_norm_embeddings(5, 4, k, 0)

    @pytest.mark.parametrize("k", [0, 5])
    def test_high_norm_k_at_the_ends(self, k):
        emb, idx = make_high_norm_embeddings(5, 4, k, 0)
        assert np.array_equal(idx, np.arange(5)[:k])

    def test_identity_when_already_in_place(self):
        emb = np.ones((6, 2))
        emb[0] *= 9.0
        emb[1] *= 9.0
        rel = relocate_high_norm(emb, np.arange(6), 2, 0.0)
        assert np.array_equal(rel.permutation, np.arange(6))

    def test_inverse_restores_input(self):
        emb, _ = make_high_norm_embeddings(16, 8, 4, seed=3)
        rel = relocate_high_norm(emb, np.arange(16), 4, 0.6)
        assert np.array_equal(rel.embeddings[rel.inverse], emb)
        assert np.array_equal(rel.position_ids[rel.inverse], np.arange(16))

    def test_run_is_contiguous_at_floor_r_n(self):
        emb, idx = make_high_norm_embeddings(16, 8, 4, seed=4)
        rel = relocate_high_norm(emb, np.arange(16), 4, 0.5)
        start = int(np.floor(0.5 * 16))
        assert rel.position_ids[start : start + 4].tolist() == idx.tolist()

    def test_r_one_clamps_to_tail(self):
        emb, idx = make_high_norm_embeddings(16, 8, 4, seed=5)
        rel = relocate_high_norm(emb, np.arange(16), 4, 1.0)
        assert rel.position_ids[-4:].tolist() == idx.tolist()

    def test_relative_order_of_others_preserved(self):
        emb, idx = make_high_norm_embeddings(16, 8, 4, seed=6)
        rel = relocate_high_norm(emb, np.arange(16), 4, 0.25)
        others = [p for p in rel.position_ids if p not in set(idx.tolist())]
        assert others == sorted(others)

    def test_bidirectional_invariance_and_causal_sensitivity(self):
        lay = small_layout()
        emb_vis, _ = make_high_norm_embeddings(lay.visual_length, SMALL.model_dim,
                                               4, seed=7)
        causal_cfg = ModelConfig(
            num_layers=4, num_heads=2, model_dim=32, head_dim=16, vocab_size=64,
            group_boundaries=(0, 1, 2, 3), mask_mode="causal",
        )
        pos = np.asarray(lay.position_ids)
        rest = np.arange(lay.visual_length, lay.total_length)

        def logits_for(cfg_, r):
            w = init_weights(cfg_, 42)
            wk = make_workload(lay, cfg_, 42)
            resp = np.full(lay.generation_length, lay.mask_token_id)
            tail = np.concatenate([w.embedding[wk.prompt_tokens], w.embedding[resp]])
            rel = relocate_high_norm(emb_vis, pos[: lay.visual_length], 4, r)
            full_emb = np.concatenate([rel.embeddings, tail])
            full_pos = np.concatenate([rel.position_ids, pos[rest]])
            out, _ = forward(w, full_emb, full_pos)
            restore = np.concatenate([rel.inverse, rest])
            return out[restore]

        bidi_base = logits_for(SMALL, 0.0)
        for r in (0.5, 1.0):
            assert np.max(np.abs(logits_for(SMALL, r) - bidi_base)) <= 1e-9
        causal_base = logits_for(causal_cfg, 0.0)
        assert np.max(np.abs(logits_for(causal_cfg, 1.0) - causal_base)) > 1e-6
