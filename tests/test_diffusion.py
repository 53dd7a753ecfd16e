import json

import numpy as np
import pytest

from marscache import (
    DecodeConfig,
    EngineParams,
    ModelConfig,
    decode,
    default_layout,
    dlm_loss,
    forward_mask,
    init_weights,
    make_engine,
    make_workload,
    seeded_stream,
    select_unmask,
)
from marscache.diffusion import DecodeTrace, SequenceLayout, StepRecord

TOY = ModelConfig()
SMALL = ModelConfig(
    num_layers=2, num_heads=2, model_dim=32, head_dim=16, vocab_size=64,
    group_boundaries=(0, 1),
)

# Reference scalar for dlm_loss on the default toy config at t=0.5, computed
# once with the loop-based reference forward (tests/reference.py) and frozen.
DLM_LOSS_REFERENCE = 4.988519500377719


class TestLayout:
    def test_spans_ordered_and_disjoint(self):
        lay = default_layout()
        assert lay.visual_length == 128
        assert lay.prompt_span == range(128, 144)
        assert lay.response_span == range(144, 208)
        assert lay.total_length == 208
        assert lay.num_blocks == 2
        assert lay.block_span(1) == range(176, 208)

    def test_uneven_last_block(self):
        lay = default_layout(generation_length=40)
        assert [len(lay.block_span(b)) for b in range(lay.num_blocks)] == [32, 8]

    def test_frame_lookup(self):
        lay = default_layout()
        assert lay.frame_span(1) == range(0, 16)
        with pytest.raises(ValueError):
            lay.frame_span(9)

    def test_negative_prompt_length_rejected(self):
        with pytest.raises(ValueError, match="prompt_length -3 is negative"):
            default_layout(prompt_length=-3)
        lay = default_layout(prompt_length=0)  # an empty prompt is valid
        assert lay.prompt_span == range(128, 128)
        assert lay.total_length == 192


class TestForwardMask:
    def test_t_zero_masks_nothing(self):
        state = forward_mask(np.arange(100), 0.0, seeded_stream(1, "m"), 255)
        assert not state.mask_flags.any()
        assert np.array_equal(state.token_ids, np.arange(100))

    def test_t_one_masks_everything(self):
        state = forward_mask(np.arange(100), 1.0, seeded_stream(1, "m"), 255)
        assert state.mask_flags.all()
        assert np.all(state.token_ids == 255)

    def test_flags_match_tokens(self):
        state = forward_mask(np.arange(500) % 255, 0.3, seeded_stream(2, "m"), 255)
        assert np.array_equal(state.mask_flags, state.token_ids == 255)

    def test_clean_tokens_may_not_contain_mask_id(self):
        with pytest.raises(ValueError):
            forward_mask(np.array([1, 255, 3]), 0.5, seeded_stream(2, "m"), 255)

    def test_out_of_range_t_rejected(self):
        with pytest.raises(ValueError):
            forward_mask(np.arange(4), 1.5, seeded_stream(1, "m"), 255)

    def test_half_rate_within_3_sigma(self):
        # 3-sigma binomial band around n*t for n=10000, t=0.5: sigma = 50.
        n = 10000
        count = int(
            forward_mask(np.zeros(n, np.int64), 0.5, seeded_stream(42, "m"), 255)
            .mask_flags.sum()
        )
        assert 4850 <= count <= 5150


class TestDlmLoss:
    @staticmethod
    def _workload():
        w = init_weights(TOY, 42)
        lay = default_layout()
        wk = make_workload(lay, TOY, 42)
        clean = seeded_stream(42, "clean-response").integers(
            0, lay.mask_token_id, size=lay.generation_length
        )
        return w, lay, wk, clean

    def test_reference_scalar(self):
        w, lay, wk, clean = self._workload()
        loss = dlm_loss(
            w, lay, wk.visual_embeddings, wk.prompt_tokens, clean, 0.5,
            seeded_stream(42, "mask"),
        )
        assert loss == pytest.approx(DLM_LOSS_REFERENCE, abs=1e-12)

    def test_uniform_logits_give_log_vocab_per_masked_token(self):
        w, lay, wk, clean = self._workload()
        w.head = np.zeros_like(w.head)  # all logits 0 -> uniform distribution
        for t in (0.25, 0.5, 1.0):
            rng = seeded_stream(7, "mask")
            state = forward_mask(clean, t, seeded_stream(7, "mask"), lay.mask_token_id)
            masked = int(state.mask_flags.sum())
            loss = dlm_loss(
                w, lay, wk.visual_embeddings, wk.prompt_tokens, clean, t, rng
            )
            expected = masked * np.log(256) / (t * lay.generation_length)
            assert loss == pytest.approx(expected, abs=1e-12)

    def test_t_one_is_mean_nll_over_all_positions(self):
        w, lay, wk, clean = self._workload()
        w.head = np.zeros_like(w.head)
        loss = dlm_loss(
            w, lay, wk.visual_embeddings, wk.prompt_tokens, clean, 1.0,
            seeded_stream(3, "mask"),
        )
        assert loss == pytest.approx(np.log(256), abs=1e-12)

    def test_t_zero_rejected(self):
        w, lay, wk, clean = self._workload()
        with pytest.raises(ValueError):
            dlm_loss(
                w, lay, wk.visual_embeddings, wk.prompt_tokens, clean, 0.0,
                seeded_stream(1, "mask"),
            )


class TestSelectUnmask:
    def test_single_position_always_committed(self):
        probs = np.array([[0.01, 0.02, 0.97]])
        commits = select_unmask(probs, [5], threshold=0.999)
        assert commits == [(5, 2)]

    def test_top_n_by_max_probability(self):
        probs = np.array([
            [0.6, 0.4], [0.9, 0.1], [0.55, 0.45], [0.2, 0.8],
        ])
        commits = select_unmask(probs, [10, 11, 12, 13], count=2)
        assert sorted(commits) == [(11, 0), (13, 1)]

    def test_tie_breaks_to_lower_position(self):
        probs = np.array([[0.7, 0.3], [0.7, 0.3]])
        commits = select_unmask(probs, [7, 3], count=1)
        assert commits == [(3, 0)]

    def test_threshold_mode(self):
        probs = np.array([[0.95, 0.05], [0.5, 0.5], [0.05, 0.95]])
        commits = select_unmask(probs, [0, 1, 2], threshold=0.9)
        assert sorted(commits) == [(0, 0), (2, 1)]


def toy_session(engine_kind="vanilla", seed=42, gen=32, steps=16, block=16,
                tokens_per_step=2, threshold=None, config=SMALL):
    lay = default_layout(num_frames=4, patches_per_frame=4, prompt_length=8,
                         generation_length=gen, block_length=block,
                         vocab_size=config.vocab_size)
    w = init_weights(config, seed)
    wk = make_workload(lay, config, seed)
    dc = DecodeConfig(
        generation_length=gen, num_steps=steps, block_length=block,
        tokens_per_step=tokens_per_step, confidence_threshold=threshold,
    )
    eng = make_engine(EngineParams(kind=engine_kind), w, lay,
                      wk.visual_embeddings, wk.prompt_tokens)
    return eng, lay, dc


class TestDecode:
    def test_one_shot_limit(self):
        eng, lay, dc = toy_session(gen=32, steps=1, block=32, tokens_per_step=32)
        tokens, trace = decode(eng, lay, dc)
        assert len(trace.steps) == 1
        assert len(trace.steps[0].committed) == 32
        assert not np.any(tokens == lay.mask_token_id)

    def test_step_count_128(self):
        # Generation 128, block 32, one token per step: exactly 128 steps.
        eng, lay, dc = toy_session(
            engine_kind="dual_cache", gen=128, steps=128, block=32,
            tokens_per_step=1,
        )
        tokens, trace = decode(eng, lay, dc)
        assert len(trace.steps) == 128
        assert [s.step for s in trace.steps] == list(range(1, 129))

    def test_determinism(self):
        eng1, lay, dc = toy_session()
        t1, _ = decode(eng1, lay, dc)
        eng2, _, _ = toy_session()
        t2, _ = decode(eng2, lay, dc)
        assert np.array_equal(t1, t2)

    def test_monotone_unmasking_and_commit_immutability(self):
        eng, lay, dc = toy_session()
        committed = {}
        remaining = lay.generation_length

        def observer(record, _engine):
            nonlocal remaining
            assert record.masked_remaining < remaining
            remaining = record.masked_remaining
            for pos, tok in record.committed:
                assert pos not in committed
                committed[pos] = tok

        tokens, trace = decode(eng, lay, dc, observer=observer)
        assert remaining == 0
        for pos, tok in committed.items():
            assert tokens[pos] == tok

    def test_blocks_processed_left_to_right(self):
        eng, lay, dc = toy_session()
        _, trace = decode(eng, lay, dc)
        blocks = [s.block for s in trace.steps]
        assert blocks == sorted(blocks)
        # all block-0 positions commit before any block-1 position
        seen_block1 = False
        for s in trace.steps:
            for pos, _ in s.committed:
                if pos >= lay.block_length:
                    seen_block1 = True
                else:
                    assert not seen_block1

    def test_threshold_mode_terminates_within_budget(self):
        eng, lay, dc = toy_session(steps=32, tokens_per_step=None, threshold=0.999)
        tokens, trace = decode(eng, lay, dc)
        assert len(trace.steps) <= 32
        assert not np.any(tokens == lay.mask_token_id)

    def test_trace_roundtrip(self, tmp_path):
        eng, lay, dc = toy_session(gen=32, steps=4, block=32, tokens_per_step=8)
        _, trace = decode(eng, lay, dc)
        path = str(tmp_path / "trace.jsonl")
        trace.to_jsonl(path)
        loaded = DecodeTrace.from_jsonl(path)
        assert loaded.engine == trace.engine
        assert len(loaded.steps) == len(trace.steps)
        assert loaded.total_entries() == trace.total_entries()
        assert [s.committed for s in loaded.steps] == [
            [(int(p), int(t)) for p, t in s.committed] for s in trace.steps
        ]
        assert loaded.config == trace.config
        assert loaded.steps == trace.steps
        assert all(isinstance(c, tuple) for s in loaded.steps for c in s.committed)


# Header and first step line of a mars trace written by the field-by-field
# serializer that preceded the dataclass-driven one.
V1_TRACE = (
    '{"schema": "marscache-trace-v1", "engine": "mars", "config": '
    '{"generation_length": 64, "num_steps": 32, "block_length": 32, '
    '"tokens_per_step": 2, "confidence_threshold": null}}\n'
    '{"step": 1, "block": 0, "committed": [[31, 69], [30, 69]], '
    '"refreshed_visual": [0, 1, 2, 3], "refreshed_text": [0, 1, 2, 3], '
    '"attention_entries": 346112, "proxy_entries": 16384, '
    '"rows_recomputed": 1664, "elapsed_ns": 183094571, '
    '"anchor_digest": "fec4367d54a384c8", "masked_remaining": 62}\n'
)


class TestTraceFormat:
    def test_v1_trace_loads_field_for_field(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(V1_TRACE)
        trace = DecodeTrace.from_jsonl(str(path))
        assert trace.engine == "mars"
        assert trace.config == {
            "generation_length": 64, "num_steps": 32, "block_length": 32,
            "tokens_per_step": 2, "confidence_threshold": None,
        }
        assert trace.steps == [StepRecord(
            step=1, block=0, committed=[(31, 69), (30, 69)],
            refreshed_visual=[0, 1, 2, 3], refreshed_text=[0, 1, 2, 3],
            attention_entries=346112, proxy_entries=16384,
            rows_recomputed=1664, elapsed_ns=183094571,
            anchor_digest="fec4367d54a384c8", masked_remaining=62,
        )]
        # Written back, the trace is the same bytes.
        out = tmp_path / "again.jsonl"
        trace.to_jsonl(str(out))
        assert out.read_text() == V1_TRACE

    def test_missing_defaulted_field_loads_with_default(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(V1_TRACE.replace(', "anchor_digest": "fec4367d54a384c8"', ""))
        (step,) = DecodeTrace.from_jsonl(str(path)).steps
        assert step.anchor_digest is None
        assert step.masked_remaining == 62

    def test_unknown_step_key_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(V1_TRACE.replace('"step": 1,', '"step": 1, "phase_ns": {},'))
        with pytest.raises(ValueError, match="phase_ns"):
            DecodeTrace.from_jsonl(str(path))

    @pytest.mark.parametrize("key", ["step", "block", "committed"])
    def test_missing_required_step_key_rejected(self, tmp_path, key):
        line = json.loads(V1_TRACE.splitlines()[1])
        del line[key]
        path = tmp_path / "trace.jsonl"
        path.write_text(V1_TRACE.splitlines()[0] + "\n" + json.dumps(line) + "\n")
        with pytest.raises(ValueError, match=f"lacks required keys: \\['{key}'\\]"):
            DecodeTrace.from_jsonl(str(path))


class TestDecodeConfigValidation:
    def test_exactly_one_commit_rule(self):
        with pytest.raises(ValueError):
            DecodeConfig(64, 32, 32)
        with pytest.raises(ValueError):
            DecodeConfig(64, 32, 32, tokens_per_step=2, confidence_threshold=0.9)

    def test_budget_must_cover_blocks(self):
        with pytest.raises(ValueError):
            DecodeConfig(64, 1, 32, tokens_per_step=64)
        with pytest.raises(ValueError):
            DecodeConfig(64, 32, 32, tokens_per_step=1)  # 16 steps < 32 tokens
