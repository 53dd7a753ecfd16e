"""multi_head_attention, which runs one head at a time in place on a single
score buffer, against the batched all-heads formula in
reference.ref_batched_attention: equal bit for bit, inputs left alone, and
at most one (Tq, Tk) score buffer allocated per call. The chunked sweep's
gathered attention, in which each query row scores only its key set, is
checked against the dense additive-mask form of the same plan."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marscache.core import NEG_INF, seeded_stream, softmax_rows, softmax_rows_inplace
from marscache.mars import chunk_key_sets
from marscache.model import gathered_attention, multi_head_attention
from marscache.workload import default_layout
from reference import (
    brute_force_visual_visibility,
    ref_batched_attention,
    visibility_to_additive,
)


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
    out = multi_head_attention(q, k, v, mask)
    expect, _ = ref_batched_attention(q, k, v, mask, d_k)
    assert np.array_equal(out, expect)
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


def check_gathered_against_dense(lay, anchors, seed, h=2, d_k=8):
    """The sweep's chunked plan over every row of lay, visual rows first:
    gathered key sets against the dense additive mask, which hides from each
    visual row the keys the brute-force visibility rule hides."""
    total = lay.total_length
    key_sets = chunk_key_sets(lay, anchors, total)
    rows = np.sort(np.concatenate([r for r, _ in key_sets]))
    assert np.array_equal(rows, np.arange(total))  # every row in one set
    mask = np.zeros((total, total))
    mask[: lay.visual_length] = visibility_to_additive(
        brute_force_visual_visibility(lay, anchors))
    q, k, v = qkv(seed, h, total, total, d_k)
    expect, _ = ref_batched_attention(q, k, v, mask, d_k)
    out = gathered_attention(q, k, v, key_sets)
    assert np.max(np.abs(out - expect)) <= 1e-12


def test_equals_batched_oracle_on_the_chunked_split():
    # Non-visual and anchor rows attend over all keys, the other visual rows
    # over their frame's neighborhood plus the anchors.
    lay = default_layout(num_frames=4, patches_per_frame=8, prompt_length=6,
                         generation_length=16, block_length=8, vocab_size=64)
    check_gathered_against_dense(lay, [0, 3, 9, 17, 18, 30], seed=3)


@pytest.mark.parametrize("bad", [-1, 32])
def test_key_sets_reject_non_visual_anchors(bad):
    lay = default_layout(num_frames=4, patches_per_frame=8)
    with pytest.raises(ValueError, match="visual indices"):
        chunk_key_sets(lay, [0, bad], lay.total_length)


@settings(max_examples=60, deadline=None)
@given(frames=st.integers(1, 5), patches=st.integers(1, 5),
       prompt=st.integers(1, 3), budget=st.integers(0, 5), seed=st.integers(0, 99))
@example(frames=1, patches=3, prompt=1, budget=1, seed=0)  # one frame
@example(frames=3, patches=2, prompt=2, budget=2, seed=0)  # all-anchor frames
@example(frames=2, patches=4, prompt=1, budget=0, seed=0)  # no anchors
def test_gathered_key_sets_equal_dense_mask(frames, patches, prompt, budget, seed):
    lay = default_layout(num_frames=frames, patches_per_frame=patches,
                         prompt_length=prompt, generation_length=2, block_length=2)
    k = min(budget, patches)
    stream = seeded_stream(seed, "anchors")
    anchors = [
        lay.frame_span(n).start + int(i)
        for n in range(1, frames + 1)
        for i in stream.child(f"frame {n}").uniform(size=patches).argsort()[:k]
    ]
    check_gathered_against_dense(lay, anchors, seed)


@pytest.mark.parametrize("masked", [False, True])
def test_peak_allocation_is_one_score_buffer(masked):
    h, t, d_k = 4, 592, 32
    q, k, v = qkv(1, h, t, t, d_k)
    mask = np.zeros((t, t)) if masked else None
    tracemalloc.start()
    try:
        multi_head_attention(q, k, v, mask)
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
