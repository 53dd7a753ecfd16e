"""multi_head_attention, which runs one head at a time in place on a single
score buffer, against the batched all-heads formula in
reference.ref_batched_attention: equal bit for bit, inputs left alone, and
at most one (Tq, Tk) score buffer allocated per call."""

import tracemalloc

import numpy as np
import pytest

from marscache.core import NEG_INF, seeded_stream, softmax_rows, softmax_rows_inplace
from marscache.mars import visibility_to_additive, visual_key_visibility
from marscache.model import multi_head_attention
from marscache.workload import default_layout
from reference import ref_batched_attention


def qkv(seed, h, tq, tk, d_k):
    s = seeded_stream(seed, "attention")
    return (s.normal(size=(h, tq, d_k)), s.normal(size=(h, tk, d_k)),
            s.normal(size=(h, tk, d_k)))


def random_mask(seed, tq, tk):
    """{0, -inf} mask hiding about half the keys, with one visible key per row."""
    s = seeded_stream(seed, "mask")
    mask = np.where(s.uniform(size=(tq, tk)) < 0.5, NEG_INF, 0.0)
    mask[np.arange(tq), s.integers(0, tk, size=tq)] = 0.0
    return mask


def check_against_oracle(q, k, v, mask, d_k):
    before = [a.copy() for a in (q, k, v) + ((mask,) if mask is not None else ())]
    captured = []
    out = multi_head_attention(q, k, v, mask, d_k, capture=captured)
    expect, expect_probs = ref_batched_attention(q, k, v, mask, d_k)
    assert np.array_equal(out, expect)
    assert np.array_equal(multi_head_attention(q, k, v, mask, d_k), expect)
    assert len(captured) == 1 and captured[0].shape == expect_probs.shape
    assert np.array_equal(captured[0], expect_probs)
    for a, b in zip((q, k, v, mask), before):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("h,tq,tk,d_k", [
    (1, 1, 1, 2), (2, 3, 5, 4), (4, 7, 3, 8), (3, 40, 97, 16), (4, 208, 208, 32),
])
@pytest.mark.parametrize("masked", [False, True])
def test_equals_batched_oracle(h, tq, tk, d_k, masked):
    q, k, v = qkv(tq * tk, h, tq, tk, d_k)
    mask = random_mask(tq + tk, tq, tk) if masked else None
    check_against_oracle(q, k, v, mask, d_k)


def test_equals_batched_oracle_on_the_chunked_split():
    # The sweep's chunked plan: non-visual rows attend unmasked, visual rows
    # under the additive anchor mask, both over the whole key buffer.
    lay = default_layout(num_frames=4, patches_per_frame=8, prompt_length=6,
                         generation_length=16, block_length=8, vocab_size=64)
    anchors = [0, 3, 9, 17, 18, 30]
    mask = visibility_to_additive(visual_key_visibility(lay, anchors))
    total, d_k = lay.total_length, 8
    q, k, v = qkv(3, 2, total, total, d_k)
    vis_sel = np.arange(total) < lay.visual_length
    check_against_oracle(q[:, vis_sel, :], k, v, mask, d_k)
    check_against_oracle(q[:, ~vis_sel, :], k, v, None, d_k)


@pytest.mark.parametrize("masked", [False, True])
def test_peak_allocation_is_one_score_buffer(masked):
    h, t, d_k = 4, 592, 32
    q, k, v = qkv(1, h, t, t, d_k)
    mask = np.zeros((t, t)) if masked else None
    tracemalloc.start()
    try:
        multi_head_attention(q, k, v, mask, d_k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One (T, T) float64 buffer plus the (T, H*d_k) output; the batched form
    # held H score arrays and a softmax copy of them.
    assert peak < 1.5 * t * t * 8


def test_softmax_core_normalises_in_place_and_wrapper_copies():
    scores = seeded_stream(2, "scores").normal(size=(3, 4, 6))
    scores[0, 1, :4] = NEG_INF
    before = scores.copy()
    out = softmax_rows(scores)
    assert np.array_equal(scores, before)
    buf = scores.copy()
    assert softmax_rows_inplace(buf) is buf
    assert np.array_equal(buf, out)
