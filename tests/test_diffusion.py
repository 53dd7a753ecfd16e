import json
from dataclasses import fields

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
from marscache.diffusion import DecodeTrace, SequenceLayout, StepRecord, assemble_embeddings

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

    def test_positions_are_the_row_indices(self):
        lay = SequenceLayout(num_frames=2, patches_per_frame=3, prompt_length=4,
                             generation_length=5, block_length=5, mask_token_id=0)
        assert lay.position_ids == range(lay.total_length) == range(15)
        assert np.array_equal(np.asarray(lay.position_ids), np.arange(15))

    def test_position_ids_is_not_a_setting(self):
        with pytest.raises(TypeError, match="position_ids"):
            SequenceLayout(num_frames=2, patches_per_frame=3, prompt_length=4,
                           generation_length=5, block_length=5, mask_token_id=0,
                           position_ids=tuple(range(15)))
        assert len(fields(SequenceLayout)) == 6


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


class TestTokenIdRange:
    # -1 would index the [MASK] row (the last one) and vocab_size past the end.
    @pytest.mark.parametrize("bad", [-1, 256])
    @pytest.mark.parametrize("segment", ["prompt", "response"])
    def test_assemble_embeddings_rejects_ids_outside_vocab(self, segment, bad):
        w = init_weights(TOY, 42)
        lay = default_layout()
        wk = make_workload(lay, TOY, 42)
        tokens = {"prompt": wk.prompt_tokens.copy(),
                  "response": np.zeros(lay.generation_length, np.int64)}
        tokens[segment][3] = bad
        with pytest.raises(ValueError, match=fr"{segment} token ids outside \[0, 256\)"):
            assemble_embeddings(w, lay, wk.visual_embeddings, tokens["prompt"],
                                tokens["response"])

    @pytest.mark.parametrize("bad", [-1, 256])
    def test_make_engine_rejects_prompt_ids_outside_vocab(self, bad):
        lay = default_layout()
        wk = make_workload(lay, TOY, 42)
        prompt = wk.prompt_tokens.copy()
        prompt[0] = bad
        with pytest.raises(ValueError, match=r"prompt token ids outside \[0, 256\)"):
            make_engine(EngineParams(kind="vanilla"), init_weights(TOY, 42), lay,
                        wk.visual_embeddings, prompt)

    @pytest.mark.parametrize("bad", [-1, 256])
    def test_dlm_loss_rejects_response_ids_outside_vocab(self, bad):
        w, lay, wk, clean = TestDlmLoss._workload()
        clean[5] = bad
        with pytest.raises(ValueError, match=r"response token ids outside \[0, 256\)"):
            dlm_loss(w, lay, wk.visual_embeddings, wk.prompt_tokens, clean, 1.0,
                     seeded_stream(1, "mask"))

    def test_ids_at_both_ends_of_the_vocab_accepted(self):
        w = init_weights(TOY, 42)
        lay = default_layout()
        wk = make_workload(lay, TOY, 42)
        prompt = wk.prompt_tokens.copy()
        prompt[:2] = (0, lay.mask_token_id)
        response = np.full(lay.generation_length, lay.mask_token_id)
        emb = assemble_embeddings(w, lay, wk.visual_embeddings, prompt, response)
        assert np.array_equal(emb[lay.prompt_span.start], w.embedding[0])
        assert np.array_equal(emb[lay.prompt_span.start + 1], w.embedding[255])


class TestSelectUnmask:
    def test_single_position_always_committed(self):
        probs = np.array([[0.01, 0.02, 0.97]])
        commits = select_unmask(probs, [5], threshold=0.999)
        assert commits == [(5, 2)]

    def test_top_n_by_max_probability(self):
        probs = np.array([
            [0.6, 0.4], [0.9, 0.1], [0.55, 0.45], [0.2, 0.8],
        ])
        commits = select_unmask(probs, [10, 11, 12, 13], min_commits=2)
        assert sorted(commits) == [(11, 0), (13, 1)]

    def test_tie_breaks_to_lower_position(self):
        probs = np.array([[0.7, 0.3], [0.7, 0.3]])
        commits = select_unmask(probs, [7, 3], min_commits=1)
        assert commits == [(3, 0)]

    def test_threshold_mode(self):
        probs = np.array([[0.95, 0.05], [0.5, 0.5], [0.05, 0.95]])
        commits = select_unmask(probs, [0, 1, 2], threshold=0.9)
        assert sorted(commits) == [(0, 0), (2, 1)]

    # Without a threshold exactly min_commits rows are committed, most
    # confident first, never fewer than one nor more than there are rows.
    @pytest.mark.parametrize("min_commits, taken", [(3, 3), (1, 1), (0, 1), (-2, 1), (9, 4)])
    def test_without_threshold_commits_min_commits_rows(self, min_commits, taken):
        probs = np.array([[0.6, 0.4], [0.9, 0.1], [0.55, 0.45], [0.2, 0.8]])
        commits = select_unmask(probs, [10, 11, 12, 13], min_commits=min_commits)
        assert commits == [(11, 0), (13, 1), (10, 0), (12, 0)][:taken]

    def test_threshold_set_topped_up_to_min_commits(self):
        probs = np.array([[0.6, 0.4], [0.9, 0.1], [0.55, 0.45], [0.2, 0.8]])
        commits = select_unmask(probs, [10, 11, 12, 13], min_commits=3, threshold=0.85)
        assert commits == [(11, 0), (13, 1), (10, 0)]
        commits = select_unmask(probs, [10, 11, 12, 13], min_commits=1, threshold=0.7)
        assert commits == [(11, 0), (13, 1)]


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

    @pytest.mark.parametrize("header", [
        '{"schema": "marscache-trace-v1"}',
        '{"schema": "marscache-trace-v1", "engine": "mars"}',
        "[]",
        '"marscache-trace-v1"',
    ])
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "trace.jsonl"
        path.write_text(header + "\n" + V1_TRACE.splitlines()[1] + "\n")
        with pytest.raises(ValueError, match="header is not an object holding engine and config"):
            DecodeTrace.from_jsonl(str(path))

    @pytest.mark.parametrize("line", ["[]", "1", "null"])
    def test_step_line_that_is_not_an_object_rejected(self, tmp_path, line):
        path = tmp_path / "trace.jsonl"
        path.write_text(V1_TRACE.splitlines()[0] + "\n" + line + "\n")
        with pytest.raises(ValueError, match="step is not an object"):
            DecodeTrace.from_jsonl(str(path))

    @pytest.mark.parametrize("key, value", [
        ("step", "1"), ("block", True), ("block", 0.0),
        ("committed", 5), ("committed", [31, 69]), ("committed", [[31]]),
        ("committed", [[31, 69, 1]]), ("committed", [[31, 69.0]]), ("committed", [["31", 69]]),
        ("refreshed_visual", [0, "1"]), ("refreshed_text", 3),
        ("attention_entries", "x"), ("proxy_entries", 1.5), ("rows_recomputed", None),
        ("elapsed_ns", [1]), ("masked_remaining", False), ("anchor_digest", 7),
    ])
    def test_step_value_of_the_wrong_type_rejected(self, tmp_path, key, value):
        line = json.loads(V1_TRACE.splitlines()[1])
        line[key] = value
        path = tmp_path / "trace.jsonl"
        path.write_text(V1_TRACE.splitlines()[0] + "\n" + json.dumps(line) + "\n")
        with pytest.raises(ValueError, match=f"trace step key '{key}': expected "):
            DecodeTrace.from_jsonl(str(path))

    def test_committed_that_is_not_a_list_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(V1_TRACE.splitlines()[0] + "\n"
                        + '{"step": 1, "block": 0, "committed": 5}\n')
        with pytest.raises(ValueError, match="trace step key 'committed': expected "
                                             r"list\[tuple\[int, int\]\], got 5"):
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

    @pytest.mark.parametrize("generation, block", [(64, 0), (0, 32), (0, 0), (-4, 32)])
    def test_empty_generation_or_block_rejected(self, generation, block):
        with pytest.raises(ValueError, match="generation_length and block_length must be >= 1"):
            DecodeConfig(generation, 32, block, tokens_per_step=2)
        with pytest.raises(ValueError, match="generation_length and block_length must be >= 1"):
            DecodeConfig(generation, 32, block, confidence_threshold=0.5)


LAYOUT_ARGS = dict(num_frames=4, patches_per_frame=4, prompt_length=8,
                   generation_length=32, block_length=16, mask_token_id=63)
DECODE_ARGS = dict(generation_length=32, num_steps=16, block_length=16, tokens_per_step=2)


SIZE_FIELDS = [
    *[(ModelConfig, {}, name)
      for name in ("num_layers", "num_heads", "model_dim", "head_dim", "vocab_size")],
    *[(SequenceLayout, LAYOUT_ARGS, name) for name in LAYOUT_ARGS],
    *[(DecodeConfig, DECODE_ARGS, name) for name in DECODE_ARGS],
]


class TestConfigSizesAreInts:
    @pytest.mark.parametrize("bad", [2.0, True, "2"])
    @pytest.mark.parametrize("cls, args, field", [
        pytest.param(cls, args, field, id=f"{cls.__name__}.{field}")
        for cls, args, field in SIZE_FIELDS
    ])
    def test_non_int_size_rejected(self, cls, args, field, bad):
        with pytest.raises(ValueError, match=rf"^{field} must be an int, got {bad!r}$"):
            cls(**{**args, field: bad})

    @pytest.mark.parametrize("bad", [2.0, True, "2"])
    def test_non_int_group_boundary_rejected(self, bad):
        with pytest.raises(ValueError, match=rf"group_boundaries\[1\] must be an int, got {bad!r}"):
            ModelConfig(group_boundaries=(0, bad, 4, 6))

    def test_bool_confidence_threshold_rejected(self):
        with pytest.raises(ValueError, match=r"confidence_threshold must lie in \(0, 1\]"):
            DecodeConfig(32, 16, 16, confidence_threshold=True)

    def test_numpy_int_sizes_are_stored_as_ints(self):
        cfg = ModelConfig(num_layers=np.int64(4), num_heads=2, model_dim=32, head_dim=16,
                          vocab_size=64, group_boundaries=(0, np.int64(2)))
        lay = SequenceLayout(**{**LAYOUT_ARGS, "num_frames": np.int64(4)})
        assert type(cfg.num_layers) is int and type(cfg.group_boundaries[1]) is int
        assert type(lay.num_frames) is int and lay.visual_length == 16

    def test_numpy_int_decode_trace_round_trips(self, tmp_path):
        eng, lay, dc = toy_session(steps=np.int64(16), tokens_per_step=np.int64(2))
        assert (type(dc.num_steps), type(dc.tokens_per_step)) == (int, int)
        _, trace = decode(eng, lay, dc)
        path = str(tmp_path / "trace.jsonl")
        trace.to_jsonl(path)
        loaded = DecodeTrace.from_jsonl(path)
        assert loaded.config == trace.config == {**DECODE_ARGS, "confidence_threshold": None}
        assert loaded.steps == trace.steps
