"""Refresh scheduling, frame-wise chunk attention, and adaptive anchor-token
search: the attention-plan machinery behind the cached decoding engines.

Layer groups share one refresh interval per modality and one anchor budget.
Shallow groups refresh on intervals that are exact integer multiples of the
deeper groups' intervals, so the set of groups refreshing at any step is a
suffix in depth order and refreshed inputs always propagate downward. Visual
queries being refreshed attend to their temporal neighborhood plus a cached
set of per-frame anchor tokens; anchors stay globally visible and globally
attending."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Matrix, require_int, softmax_rows
from .diffusion import SequenceLayout
from .model import gathered_attention


@dataclass(frozen=True)
class RefreshSchedule:
    """Per-(group, modality) refresh intervals, shallow to deep. Checks each
    interval is an int >= 1, the divisibility chain per modality and the
    per-group modality ordering; raises ValueError naming the first
    offending (group, modality)."""

    tau_text: tuple[int, ...]
    tau_visual: tuple[int, ...]

    def __post_init__(self):
        for name in ("tau_text", "tau_visual"):
            taus = tuple(require_int(x, f"{name}[{g}]")
                         for g, x in enumerate(getattr(self, name)))
            object.__setattr__(self, name, taus)
        if len(self.tau_text) != len(self.tau_visual):
            raise ValueError("tau_text and tau_visual must cover the same groups")
        if not self.tau_text:
            raise ValueError("schedule must cover at least one group")
        for m, tau in (("text_context", self.tau_text), ("visual", self.tau_visual)):
            for g, t in enumerate(tau):
                if t < 1:
                    raise ValueError(f"interval for (group {g + 1}, {m}) must be >= 1")
                if g > 0 and tau[g - 1] % t != 0:
                    raise ValueError(
                        f"divisibility violated at (group {g}, {m}) vs (group {g + 1}, {m}): "
                        f"{tau[g - 1]} is not an integer multiple of {t}"
                    )
        for g, (tv, tt) in enumerate(zip(self.tau_visual, self.tau_text)):
            if tv < tt:
                raise ValueError(
                    f"modality ordering violated at group {g + 1}: "
                    f"tau_visual={tv} < tau_text={tt}"
                )

    @classmethod
    def uniform_modality(cls, tau: tuple[int, ...]) -> "RefreshSchedule":
        """Same intervals for both modalities."""
        return cls(tau_text=tuple(tau), tau_visual=tuple(tau))

    @property
    def num_groups(self) -> int:
        return len(self.tau_text)


def neighborhood(layout: SequenceLayout, n: int) -> np.ndarray:
    """Indices of the temporal neighborhood of frame n: the union of frames
    n-1, n, n+1, truncated at the sequence ends."""
    lo = max(n - 1, 1)
    hi = min(n + 1, layout.num_frames)
    return np.arange(layout.frame_span(lo).start, layout.frame_span(hi).stop)


def anchor_visibility_count(layout: SequenceLayout, budget: int) -> int:
    """Visible-key count of the visual rows' chunk_key_sets (a slice(None) key
    set counts all L keys), with each frame's first `budget` patches as its
    anchors; the count is the same for any anchor set with exactly `budget`
    anchors in every frame. Budget 0 gives plain frame-wise chunk attention;
    the budget is resolved as one group's anchor budget ("full" is P)."""
    (budget,) = resolve_budgets((budget,), layout.patches_per_frame)
    anchors = [i for n in range(1, layout.num_frames + 1)
               for i in layout.frame_span(n)[:budget]]
    return sum(rows.size * (layout.total_length if isinstance(keys, slice) else keys.size)
               for rows, keys in chunk_key_sets(layout, anchors, layout.visual_length))


def chunk_key_sets(layout: SequenceLayout, anchors, num_rows: int) -> list[tuple]:
    """Key sets of chunked attention over num_rows query rows, the visual
    segment first, as (query rows, key indices) pairs: the anchor rows and
    every non-visual row attend over all keys (slice(None)); the non-anchor
    rows of frame n attend over neighborhood(n) plus the anchors. Pairs with
    no query rows are left out, so every row lies in exactly one pair."""
    v = layout.visual_length
    anchor_idx = np.unique(np.asarray(tuple(anchors), dtype=np.int64))
    if anchor_idx.size and (anchor_idx[0] < 0 or anchor_idx[-1] >= v):
        raise ValueError("anchors must be visual indices")
    is_anchor = np.zeros(v, dtype=bool)
    is_anchor[anchor_idx] = True
    full = np.concatenate((anchor_idx, np.arange(v, num_rows)))
    sets = [(full, slice(None))] if full.size else []
    for n in range(1, layout.num_frames + 1):
        span = layout.frame_span(n)
        rows = np.flatnonzero(~is_anchor[span.start : span.stop]) + span.start
        if rows.size:
            sets.append((rows, np.union1d(neighborhood(layout, n), anchor_idx)))
    return sets


def chunk_attention(Q: Matrix, K: Matrix, V: Matrix, layout: SequenceLayout) -> Matrix:
    """Frame-wise chunked attention for the visual segment: each visual query
    in frame n attends only to keys in neighborhood(n), the engine's key sets
    with no anchors. Q rows correspond to visual positions; K and V cover the
    full sequence. Output has one row per visual position."""
    if Q.shape[0] != layout.visual_length:
        raise ValueError(
            f"Q rows {Q.shape[0]} != visual length {layout.visual_length}"
        )
    key_sets = chunk_key_sets(layout, (), layout.visual_length)
    return gathered_attention(Q[None], K[None], V[None], key_sets)


def equidistant_indices(total: int, count: int) -> np.ndarray:
    """First index of each of `count` equal strata over [0, total)."""
    if not 1 <= count <= total:
        raise ValueError(f"cannot place {count} equidistant samples in {total}")
    return (np.arange(count) * total) // count


def proxy_scores(
    Q: Matrix, K: Matrix, sample_indices, visual_indices
) -> Matrix:
    """Low-rank proxy attention: Q (..., S, d_k) holds the queries of the S
    sampled rows, in sample order, K (..., T, d_k) the keys under the same
    leading (head) axes. The rows of the result are softmax(Q K[visual]^T /
    sqrt(d_k)) over the visual keys, with entries where a sampled query
    attends to itself zeroed (debiasing). Shape (..., S, |visual|)."""
    sample_indices = np.asarray(sample_indices, dtype=np.int64)
    visual_indices = np.asarray(visual_indices, dtype=np.int64)
    if sample_indices.size == 0:
        raise ValueError("sample set must be non-empty")
    if Q.shape[-2] != sample_indices.size:
        raise ValueError(f"{Q.shape[-2]} queries for {sample_indices.size} samples")
    scores = Q @ np.swapaxes(K[..., visual_indices, :], -1, -2) / np.sqrt(Q.shape[-1])
    probs = softmax_rows(scores)
    probs[..., sample_indices[:, None] == visual_indices] = 0.0
    return probs


@dataclass(frozen=True)
class AnchorPlan:
    """Cached anchor selection: computed once at step 1, immutable after.

    per_frame[g][j] holds frame j's anchor indices for group g (absolute
    positions, |per_frame[g][j]| == budgets[g]); unions[g] is their sorted
    union. Budgets are non-increasing with depth."""

    sample_indices: tuple[int, ...]
    budgets: tuple[int, ...]
    per_frame: tuple[tuple[tuple[int, ...], ...], ...]
    unions: tuple[tuple[int, ...], ...]

    @cached_property
    def digest(self) -> str:
        blob = json.dumps(
            [list(self.sample_indices), list(self.budgets),
             [[list(f) for f in g] for g in self.per_frame]]
        ).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def resolve_budgets(budgets, patches_per_frame: int) -> tuple[int, ...]:
    """Map the "full" sentinel to the frame size and validate monotonicity."""
    out = []
    for g, k in enumerate(budgets):
        k = patches_per_frame if k == "full" else require_int(k, f"anchor_budgets[{g}]")
        if k < 0 or k > patches_per_frame:
            raise ValueError(
                f"anchor budget {k} outside [0, patches_per_frame={patches_per_frame}]"
            )
        out.append(k)
    for g in range(1, len(out)):
        if out[g - 1] < out[g]:
            raise ValueError(
                f"anchor budgets must be non-increasing with depth, got {out}"
            )
    return tuple(out)


def select_anchors(
    proxy_by_group: list[Matrix],
    layout: SequenceLayout,
    budgets,
    sample_indices=(),
) -> AnchorPlan:
    """Pick the top-k_g columns per frame from each group's debiased proxy
    matrix (column-summed over sampled queries); ties break to the lower
    index. All frames are ranked in one pass over the (F, P) column sums,
    and since frames are disjoint and ascending, unions[g] is the ravelled
    (F, k_g) choice. Returns the full per-group plan."""
    budgets = resolve_budgets(budgets, layout.patches_per_frame)
    if len(proxy_by_group) != len(budgets):
        raise ValueError("one proxy matrix per group is required")
    frames, patches = layout.num_frames, layout.patches_per_frame
    offsets = np.arange(frames)[:, None] * patches
    per_frame, unions = [], []
    for g, (proxy, k) in enumerate(zip(proxy_by_group, budgets)):
        if proxy.shape[1] != layout.visual_length:
            raise ValueError(
                f"group {g}: proxy has {proxy.shape[1]} columns, "
                f"expected {layout.visual_length}"
            )
        scores = np.sum(proxy, axis=0).reshape(frames, patches)
        # A stable sort of -score puts the highest score first, lower index on ties.
        order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        chosen = np.sort(order, axis=1) + offsets
        per_frame.append(tuple(map(tuple, chosen.tolist())))
        unions.append(tuple(chosen.ravel().tolist()))
    return AnchorPlan(
        sample_indices=tuple(int(i) for i in sample_indices),
        budgets=budgets,
        per_frame=tuple(per_frame),
        unions=tuple(unions),
    )


def visual_key_visibility(layout: SequenceLayout, anchors) -> np.ndarray:
    """Boolean key-visibility matrix for visual query rows, shape (V, L), from
    chunk_key_sets: anchor rows see everything; non-anchor rows in frame n see
    neighborhood(n) plus the anchor set."""
    vis = np.zeros((layout.visual_length, layout.total_length), dtype=bool)
    all_keys = np.arange(layout.total_length)
    for rows, keys in chunk_key_sets(layout, anchors, layout.visual_length):
        vis[np.ix_(rows, all_keys[keys])] = True
    return vis


def anchor_augmented_attention(
    Q: Matrix, K: Matrix, V: Matrix, layout: SequenceLayout, anchors
) -> Matrix:
    """Full-sequence attention under the anchor-augmented visibility rule:
    text-context and active-block queries attend everywhere; anchor visual
    queries attend everywhere; non-anchor visual queries in frame n attend to
    neighborhood(n) plus the anchors: the engine's key sets, attended through
    its gathered attention. Q, K, V cover all positions."""
    total = layout.total_length
    if Q.shape[0] != total:
        raise ValueError(f"Q rows {Q.shape[0]} != sequence length {total}")
    key_sets = chunk_key_sets(layout, anchors, total)
    return gathered_attention(Q[None], K[None], V[None], key_sets)
