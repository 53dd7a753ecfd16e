"""multi_head_attention, which runs one head at a time in place on a single
score buffer, against the batched all-heads formula in
reference.ref_batched_attention: equal bit for bit, inputs left alone, and
at most one (Tq, Tk) score buffer allocated per call on either path. The
max-shifted formula, reference.ref_shifted_attention, bounds the change of
definition, and holds alone where the unshifted exp overflows or
underflows. The chunked sweep's gathered attention, in which each query row
scores only its key set, is checked against the dense additive-mask form of
the same plan."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marscache.core import (
    NEG_INF,
    FullyMaskedRowError,
    seeded_stream,
    softmax_rows,
    softmax_rows_inplace,
)
from marscache.mars import chunk_key_sets
from marscache.model import gathered_attention, multi_head_attention
from marscache.workload import default_layout
from reference import (
    brute_force_visual_visibility,
    ref_batched_attention,
    ref_shifted_attention,
    visibility_to_additive,
)

EPS = np.finfo(np.float64).eps
SHAPES = [(1, 1, 1, 2), (2, 3, 5, 4), (4, 7, 3, 8), (3, 40, 97, 16), (4, 208, 208, 32)]


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
    expect = ref_batched_attention(q, k, v, mask, d_k)
    assert np.array_equal(out, expect)
    for a, b in zip((q, k, v, mask), before):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("h,tq,tk,d_k", SHAPES)
@pytest.mark.parametrize("masked", [False, True])
def test_equals_batched_oracle(h, tq, tk, d_k, masked):
    q, k, v = qkv(tq * tk, h, tq, tk, d_k)
    mask = random_mask(tq + tk, tq, tk) if masked else None
    check_against_oracle(q, k, v, mask, d_k)


def definition_bound(q, k, v, mask, d_k):
    """How far multi_head_attention may sit from ref_shifted_attention:

        (2 + log2 Tk) * max(1, a) * eps * max|v|,

    where a, the largest sum of magnitudes that enters one score, is
    max over (head, row, key) of sum_i |q_i k_i| / sqrt(d_k) + |finite mask|.

    Both formulas are the weighted mean sum_j w_j v_j with w_j ∝ exp(s_j);
    they differ only in rounding. Scaling q before the dot product instead
    of the scores after it moves each score by a few eps * a, and a score
    error d moves the weights of a row by at most 2d in sum, hence the output
    by 2d * max|v|. The exp, the max shift and the output division each move
    a weight by about eps relative, and the sums over Tk keys add about
    log2(Tk) * eps. A first-order rounding model, not a worst case: on
    unit-scale inputs up to (4, 592, 592, 32), where a is 1.5 to 9, the
    measured gap is at most 1.3 eps * max|v|, under a tenth of the bound."""
    a = np.matmul(np.abs(q), np.abs(k).transpose(0, 2, 1)) / np.sqrt(d_k)
    if mask is not None:
        a += np.where(np.isinf(mask), 0.0, np.abs(mask))
    return (2 + np.log2(k.shape[1])) * max(1.0, np.max(a)) * EPS * np.max(np.abs(v))


def check_within_bound(q, k, v, mask, d_k):
    out = multi_head_attention(q, k, v, mask)
    expect, _ = ref_shifted_attention(q, k, v, mask, d_k)
    assert np.all(np.isfinite(out))
    assert np.max(np.abs(out - expect)) <= definition_bound(q, k, v, mask, d_k)


@pytest.mark.parametrize("h,tq,tk,d_k", SHAPES + [(4, 592, 592, 32)])
@pytest.mark.parametrize("masked", [False, True])
def test_within_bound_of_shifted_formula(h, tq, tk, d_k, masked):
    q, k, v = qkv(tq * tk, h, tq, tk, d_k)
    mask = random_mask(tq + tk, tq, tk) if masked else None
    check_within_bound(q, k, v, mask, d_k)


@settings(max_examples=40, deadline=None)
@given(h=st.integers(1, 4), tq=st.integers(1, 40), tk=st.integers(1, 300),
       d_k=st.sampled_from([2, 6, 8, 16, 32]), masked=st.booleans(),
       seed=st.integers(0, 999))
def test_within_bound_of_shifted_formula_on_drawn_shapes(h, tq, tk, d_k, masked, seed):
    q, k, v = qkv(seed, h, tq, tk, d_k)
    mask = random_mask(seed, tq, tk) if masked else None
    check_within_bound(q, k, v, mask, d_k)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("masked", [False, True])
def test_overflowing_scores_take_the_shifted_softmax(masked):
    # Every fourth query row scaled x400 scores past log(DBL_MAX) = 709.78,
    # where the unshifted exp is inf and its output NaN.
    h, tq, tk, d_k = 2, 16, 64, 32
    q, k, v = qkv(5, h, tq, tk, d_k)
    q[:, ::4] *= 400.0
    mask = random_mask(5, tq, tk) if masked else None
    assert np.max(np.matmul(q, k.transpose(0, 2, 1))) / np.sqrt(d_k) > 709.78
    check_within_bound(q, k, v, mask, d_k)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_underflowing_row_takes_the_shifted_softmax():
    # Row 3's visible scores all sit below -745, where the unshifted exp is 0
    # and its output 0/0.
    h, tq, tk, d_k = 2, 8, 32, 16
    q, k, v = qkv(6, h, tq, tk, d_k)
    mask = random_mask(6, tq, tk)
    mask[3] -= 1000.0
    scores = np.matmul(q, k.transpose(0, 2, 1)) / np.sqrt(d_k) + mask
    assert np.max(scores[:, 3]) < -745.0
    check_within_bound(q, k, v, mask, d_k)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fully_masked_row_raises():
    h, tq, tk, d_k = 2, 4, 6, 8
    q, k, v = qkv(7, h, tq, tk, d_k)
    mask = np.zeros((tq, tk))
    mask[2] = NEG_INF
    with pytest.raises(FullyMaskedRowError):
        multi_head_attention(q, k, v, mask)
    # A key set with no keys is the gathered form of a fully masked row.
    key_sets = [(slice(0, 2), np.arange(tk)), (slice(2, 4), np.arange(0))]
    with pytest.raises(FullyMaskedRowError):
        gathered_attention(q, k, v, key_sets)


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
    expect = ref_batched_attention(q, k, v, mask, d_k)
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


@pytest.mark.parametrize("masked,tq,q_scale", [
    pytest.param(False, 592, 1.0, id="False"),
    pytest.param(True, 592, 1.0, id="True"),
    pytest.param(False, 32, 1.0, id="steady-step"),  # one active block's rows
    pytest.param(True, 592, 400.0, id="shifted-fallback"),  # exp overflows
])
def test_peak_allocation_is_one_score_buffer(masked, tq, q_scale):
    h, tk, d_k = 4, 592, 32
    q, k, v = qkv(1, h, tq, tk, d_k)
    q *= q_scale
    mask = np.zeros((tq, tk)) if masked else None
    tracemalloc.start()
    try:
        multi_head_attention(q, k, v, mask)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One (Tq, Tk) float64 buffer plus the (Tq, H*d_k) output and the
    # (Tq, d_k) scaled queries; the batched form held H score arrays and a
    # softmax copy of them.
    assert peak < 1.5 * tq * tk * 8


def test_softmax_core_normalises_in_place_and_wrapper_copies():
    scores = seeded_stream(2, "scores").normal(size=(3, 4, 6))
    scores[0, 1, :4] = NEG_INF
    before = scores.copy()
    out = softmax_rows(scores)
    assert np.array_equal(scores, before)
    buf = scores.copy()
    assert softmax_rows_inplace(buf) is buf
    assert np.array_equal(buf, out)
