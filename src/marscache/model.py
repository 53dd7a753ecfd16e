"""A small deterministic transformer with switchable causal/bidirectional
attention. Pre-norm residual blocks, RMS normalization, 4x feed-forward,
rotary positions keyed to explicit position ids (so rows can be physically
reordered while keeping their positional identity). `transformer_layer` is
the one block that both `forward` and the caching engines' sweep run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (NEG_INF, Matrix, RandomStream, require_int, seeded_stream,
                   softmax_rows_inplace)

RMS_EPS = 1e-6
ROTARY_BASE = 10000.0
FF_EXPANSION = 4


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int = 8
    num_heads: int = 4
    model_dim: int = 128
    head_dim: int = 32
    vocab_size: int = 256
    # Start index of each contiguous layer group, ascending, first must be 0.
    group_boundaries: tuple[int, ...] = (0, 2, 4, 6)
    mask_mode: str = "bidirectional"  # "causal" | "bidirectional"

    def __post_init__(self):
        for name in ("num_layers", "num_heads", "model_dim", "head_dim", "vocab_size"):
            object.__setattr__(self, name, require_int(getattr(self, name), name))
        if self.num_heads < 1:
            raise ValueError(f"num_heads {self.num_heads} must be >= 1")
        if self.head_dim < 2 or self.head_dim % 2:
            # apply_rotary rotates the two halves of each head against each other.
            raise ValueError(f"head_dim {self.head_dim} must be even and >= 2")
        if self.vocab_size < 2:
            raise ValueError(f"vocab_size {self.vocab_size} must be >= 2")
        if self.model_dim != self.num_heads * self.head_dim:
            raise ValueError(
                f"model_dim {self.model_dim} != num_heads*head_dim "
                f"{self.num_heads}*{self.head_dim}"
            )
        gb = tuple(require_int(b, f"group_boundaries[{i}]")
                   for i, b in enumerate(self.group_boundaries))
        if not gb or gb[0] != 0 or list(gb) != sorted(set(gb)) or gb[-1] >= self.num_layers:
            raise ValueError(f"group_boundaries {gb} do not partition [0, {self.num_layers})")
        if self.mask_mode not in ("causal", "bidirectional"):
            raise ValueError(f"unknown mask_mode {self.mask_mode!r}")
        object.__setattr__(self, "group_boundaries", gb)

    @property
    def num_groups(self) -> int:
        return len(self.group_boundaries)

    def group_layers(self, g: int) -> range:
        start = self.group_boundaries[g]
        end = (
            self.group_boundaries[g + 1]
            if g + 1 < len(self.group_boundaries)
            else self.num_layers
        )
        return range(start, end)


@dataclass
class LayerWeights:
    attn_norm: np.ndarray  # (D,)
    wq: np.ndarray  # (D, D)
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    ff_norm: np.ndarray  # (D,)
    w1: np.ndarray  # (D, FF*D)
    w2: np.ndarray  # (FF*D, D)


@dataclass
class Weights:
    config: ModelConfig
    embedding: np.ndarray  # (vocab, D)
    layers: list[LayerWeights]
    final_norm: np.ndarray  # (D,)
    head: np.ndarray  # (D, vocab)


def init_weights(config: ModelConfig, seed: int) -> Weights:
    """Gaussian init: std 0.02 everywhere except residual-path output
    projections (attention output, second feed-forward matrix), which get
    0.02/sqrt(num_layers). Norm gains start at 1. Reproducible per seed."""
    root = seeded_stream(seed, "weights")
    d = config.model_dim
    ff = FF_EXPANSION * d
    resid_std = 0.02 / np.sqrt(config.num_layers)

    def draw(stream: RandomStream, shape, std):
        return stream.normal(size=shape, std=std)

    layers = []
    for l in range(config.num_layers):
        s = root.child(f"layer{l}")
        layers.append(
            LayerWeights(
                attn_norm=np.ones(d),
                wq=draw(s.child("wq"), (d, d), 0.02),
                wk=draw(s.child("wk"), (d, d), 0.02),
                wv=draw(s.child("wv"), (d, d), 0.02),
                wo=draw(s.child("wo"), (d, d), resid_std),
                ff_norm=np.ones(d),
                w1=draw(s.child("w1"), (d, ff), 0.02),
                w2=draw(s.child("w2"), (ff, d), resid_std),
            )
        )
    return Weights(
        config=config,
        embedding=draw(root.child("embedding"), (config.vocab_size, d), 0.02),
        layers=layers,
        final_norm=np.ones(d),
        head=draw(root.child("head"), (d, config.vocab_size), 0.02),
    )


def build_causal_mask(length: int) -> Matrix:
    """Additive causal mask: entry (i, j) is 0 for j <= i, -inf otherwise."""
    if length < 1:
        raise ValueError("length must be >= 1")
    mask = np.zeros((length, length))
    mask[np.triu_indices(length, k=1)] = NEG_INF
    return mask


def attention(Q: Matrix, K: Matrix, V: Matrix, mask: Matrix | None = None) -> Matrix:
    """Single-head multi_head_attention with optional additive mask."""
    if Q.shape[1] != K.shape[1]:
        raise ValueError(f"Q width {Q.shape[1]} != K width {K.shape[1]}")
    if K.shape[0] != V.shape[0]:
        raise ValueError(f"K rows {K.shape[0]} != V rows {V.shape[0]}")
    return multi_head_attention(Q[None], K[None], V[None], mask)


def rms_norm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + RMS_EPS) * gain


# gelu works through a scratch of this many elements (64 KiB), so it can
# write over its own input.
GELU_BLOCK = 8192


def gelu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Tanh-approximated GELU of x, written into out: a new array if None,
    else a C-contiguous float64 array of x's shape, which may be x itself."""
    # x * x * x: NumPy hands x**3 to libm pow, many times slower. Halving
    # last gives the bits of 0.5 * x * t (scaling by 0.5 is exact) unless
    # x * t overflows or the result is subnormal.
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty(x.shape)
    elif out.shape != x.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError("gelu: out must be a C-contiguous float64 array of x's shape")
    xs, ys = x.reshape(-1), out.reshape(-1)
    scratch = np.empty(min(xs.size, GELU_BLOCK))
    for i in range(0, xs.size, GELU_BLOCK):
        xb, yb = xs[i : i + GELU_BLOCK], ys[i : i + GELU_BLOCK]
        t = scratch[: xb.size]
        np.multiply(xb, xb, out=t)
        t *= xb
        t *= 0.044715
        t += xb
        t *= np.sqrt(2.0 / np.pi)
        np.tanh(t, out=t)
        t += 1.0
        np.multiply(t, xb, out=yb)
        yb *= 0.5
    return out


def rotary_phases(position_ids: np.ndarray, head_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin) tables of shape (T, head_dim/2) for the given positions."""
    half = head_dim // 2
    inv_freq = ROTARY_BASE ** (-np.arange(half) / half)
    angles = np.asarray(position_ids, dtype=np.float64)[:, None] * inv_freq[None, :]
    return np.cos(angles), np.sin(angles)


def apply_rotary(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate the (.., T, head_dim) array by per-position phases (half-split)."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate((x1 * cos - x2 * sin, x1 * sin + x2 * cos), axis=-1)


def split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    """(T, D) -> (H, T, d_k)"""
    t, d = x.shape
    return x.reshape(t, num_heads, d // num_heads).transpose(1, 0, 2)


def layer_queries(lw: LayerWeights, x: Matrix, cos, sin, num_heads: int) -> np.ndarray:
    """The layer's post-rotary queries of the rows x, (R, D), at rotary
    phases cos, sin: (H, R, d_k)."""
    return apply_rotary(split_heads(rms_norm(x, lw.attn_norm) @ lw.wq, num_heads), cos, sin)


# multi_head_attention divides a head's output by its unshifted exp row sums
# only if every sum lies in this range, and otherwise takes the max-shifted
# softmax. From 2**-900 up, an exp that fell into the subnormals or to 0
# weighs under 2**-122 of its row; up to 2**900, the product with v stays
# finite unless some |v| reaches 2**123.
EXP_SUM_RANGE = (2.0**-900, 2.0**900)


def multi_head_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                         mask: Matrix | None = None) -> np.ndarray:
    """Per-head scaled dot-product attention. q: (H, Tq, d_k); k: (H, Tk,
    d_k); v: (H, Tk, d_v). mask, if given, is an additive (Tq, Tk) mask
    shared across heads. Returns (Tq, H*d_v).

    The heads run one at a time on a single (Tq, Tk) score buffer, so the
    scores of all heads are never held at once. Each head scores the queries
    pre-scaled by 1/sqrt(d_k), exponentiates in place without the row-max
    shift, and divides its (Tq, d_v) output rows by the row sums l. A head
    with any row sum outside EXP_SUM_RANGE (an exp that overflowed or
    underflowed, a NaN, a fully masked row) is scored again and normalised
    by the max-shifted softmax_rows_inplace, which raises
    FullyMaskedRowError for a fully masked row."""
    h, tq, d_k = q.shape
    tk, d_v = k.shape[1], v.shape[2]
    if mask is not None and mask.shape != (tq, tk):
        raise ValueError(f"mask shape {mask.shape} != ({tq}, {tk})")
    lo, hi = EXP_SUM_RANGE
    s = np.empty((tq, tk))
    qs = np.empty((tq, d_k))
    out = np.empty((tq, h * d_v))
    inv_scale = 1.0 / np.sqrt(d_k)

    def score(i):
        np.matmul(qs, k[i].T, out=s)
        if mask is not None:
            np.add(s, mask, out=s)

    with np.errstate(over="ignore", under="ignore"):
        for i in range(h):
            o = out[:, i * d_v : (i + 1) * d_v]
            np.multiply(q[i], inv_scale, out=qs)
            score(i)
            np.exp(s, out=s)
            l = np.sum(s, axis=-1)
            if not tq or lo <= l.min() and l.max() <= hi:  # a NaN fails both
                np.matmul(s, v[i], out=o)
                o /= l[:, None]
            else:
                score(i)
                np.matmul(softmax_rows_inplace(s), v[i], out=o)
    return out


def gathered_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, key_sets) -> np.ndarray:
    """Per-head attention in which each (query rows, key indices) pair of
    key_sets attends over its own keys only, gathered from k and v; the pairs
    must cover every query row once. Shapes as in multi_head_attention."""
    out = np.empty((q.shape[1], q.shape[0] * v.shape[2]))
    for rows, idx in key_sets:
        out[rows] = multi_head_attention(q[:, rows, :], k[:, idx, :], v[:, idx, :])
    return out


@dataclass
class LayerActivations:
    """Per-layer states exposed by forward.

    hidden[l] is the input hidden state of layer l, (T, D); hidden[num_layers]
    is the final pre-norm output. keys[l] (post-rotary) and values[l] are
    layer l's projections, (H, T, d_k); layer_queries of hidden[l] are its
    queries."""

    hidden: list[np.ndarray] = field(default_factory=list)
    keys: list[np.ndarray] = field(default_factory=list)
    values: list[np.ndarray] = field(default_factory=list)


def transformer_layer(lw: LayerWeights, x: Matrix, cos, sin, keys, values, rows,
                      key_sets=None, mask: Matrix | None = None) -> Matrix:
    """One pre-norm block over the rows x, (R, D), at rotary phases cos, sin.
    Writes their keys and values at sequence rows `rows` of the layer's
    (H, T, d_k) buffers and attends over the whole buffers, under the additive
    (R, T) mask if one is given (forward's causal mode). key_sets, if given,
    pairs query rows of x with the key indices each attends over instead, as
    in gathered_attention. Updates x in place and returns it."""
    num_heads = keys.shape[0]
    xn = rms_norm(x, lw.attn_norm)
    q = apply_rotary(split_heads(xn @ lw.wq, num_heads), cos, sin)
    keys[:, rows, :] = apply_rotary(split_heads(xn @ lw.wk, num_heads), cos, sin)
    values[:, rows, :] = split_heads(xn @ lw.wv, num_heads)
    if key_sets is None:
        attn = multi_head_attention(q, keys, values, mask)
    else:
        attn = gathered_attention(q, keys, values, key_sets)
    x += attn @ lw.wo
    # The FFN holds one (R, 4D) array, with the attention temporaries
    # released first: a layer's transient heap then stays under glibc's trim
    # threshold, so the heap is not handed back and re-faulted every layer.
    del xn, q, attn
    hidden = rms_norm(x, lw.ff_norm) @ lw.w1
    x += gelu(hidden, out=hidden) @ lw.w2
    return x


def forward(weights: Weights, embeddings: Matrix,
            position_ids) -> tuple[Matrix, LayerActivations]:
    """Full forward pass: returns (logits over vocab, per-layer activations).

    Positions enter only through rotary phases on Q and K, so rows may be
    permuted as long as position_ids are permuted with them. mask_mode
    "causal" masks each row's later positions; bidirectional runs unmasked.
    """
    cfg = weights.config
    position_ids = np.asarray(position_ids)
    if embeddings.shape[0] != position_ids.shape[0]:
        raise ValueError(
            f"embeddings rows {embeddings.shape[0]} != position_ids length "
            f"{position_ids.shape[0]}"
        )
    if embeddings.shape[1] != cfg.model_dim:
        raise ValueError(f"embedding width {embeddings.shape[1]} != {cfg.model_dim}")
    t = embeddings.shape[0]
    mask = build_causal_mask(t) if cfg.mask_mode == "causal" else None

    cos, sin = rotary_phases(position_ids, cfg.head_dim)
    acts = LayerActivations()
    h = embeddings.astype(np.float64, copy=True)
    for lw in weights.layers:
        acts.hidden.append(h.copy())
        acts.keys.append(np.empty((cfg.num_heads, t, cfg.head_dim)))
        acts.values.append(np.empty_like(acts.keys[-1]))
        transformer_layer(lw, h, cos, sin, acts.keys[-1], acts.values[-1],
                          slice(None), mask=mask)
    acts.hidden.append(h.copy())
    logits = rms_norm(h, weights.final_norm) @ weights.head
    return logits, acts
