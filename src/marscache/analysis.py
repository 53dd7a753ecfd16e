"""Instrumentation over the decode engines: visibility frequency under causal
masking, step-to-step hidden-state drift per modality, attention entropy
profiles, the analytic attention-cost model, and the high-norm relocation
experiment. Everything here is read-only over engine state.

Cost unit: one attention score entry = one query-key dot product in one
layer's attention plan. Head count is a constant multiplier and is excluded;
multiply by num_heads (and by 2*head_dim for multiply-accumulates) to convert
to FLOPs."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .core import cosine_similarity, softmax_rows_inplace
from .diffusion import DecodeConfig, DecodeTrace, SequenceLayout, decode
from .engines import EngineParams, make_engine, plan_cost, step_plan, validate_params
from .model import (ModelConfig, Weights, build_causal_mask, forward, layer_queries,
                    rotary_phases)


def visibility_frequency(length: int) -> np.ndarray:
    """Number of positions that can attend to token j under a causal mask:
    position j (1-based) is visible to length - j + 1 queries."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return np.arange(length, 0, -1, dtype=np.int64)


# -----------------------------------------------------------------------------
# Drift
# -----------------------------------------------------------------------------

@dataclass
class DriftRecord:
    """1 - cosine similarity between two snapshots of boundary hidden states,
    aggregated per modality (mean and median over tokens and boundaries) and
    kept per boundary for heatmap-style reports."""

    step_pair: tuple[int, int]
    visual_mean: float
    visual_median: float
    text_mean: float
    text_median: float
    per_boundary_visual: list[float] = field(default_factory=list)
    per_boundary_text: list[float] = field(default_factory=list)


def _token_drift(a: np.ndarray, b: np.ndarray, rows: np.ndarray) -> np.ndarray:
    out = np.empty(rows.size)
    for i, r in enumerate(rows):
        if np.array_equal(a[r], b[r]):
            out[i] = 0.0  # identical vectors drift exactly 0
        else:
            out[i] = min(max(1.0 - cosine_similarity(a[r], b[r]), 0.0), 2.0)
    return out


def drift(
    states_a: list[np.ndarray],
    states_b: list[np.ndarray],
    layout: SequenceLayout,
    step_pair: tuple[int, int] = (0, 0),
    visual_rows=None,
    text_rows=None,
) -> DriftRecord:
    """Per-token drift between two lists of boundary hidden-state matrices,
    split into the visual segment and the text rows (prompt + response unless
    overridden)."""
    if len(states_a) != len(states_b):
        raise ValueError("snapshots cover different numbers of boundaries")
    if visual_rows is None:
        visual_rows = np.arange(layout.visual_length)
    if text_rows is None:
        text_rows = np.arange(layout.visual_length, layout.total_length)
    vis_all, text_all, per_vis, per_text = [], [], [], []
    for a, b in zip(states_a, states_b):
        if a.shape != b.shape:
            raise ValueError("boundary state shapes differ between snapshots")
        dv = _token_drift(a, b, np.asarray(visual_rows))
        dt = _token_drift(a, b, np.asarray(text_rows))
        vis_all.append(dv)
        text_all.append(dt)
        per_vis.append(float(np.mean(dv)))
        per_text.append(float(np.mean(dt)))
    vis = np.concatenate(vis_all)
    text = np.concatenate(text_all)
    return DriftRecord(
        step_pair=step_pair,
        visual_mean=float(np.mean(vis)),
        visual_median=float(np.median(vis)),
        text_mean=float(np.mean(text)),
        text_median=float(np.median(text)),
        per_boundary_visual=per_vis,
        per_boundary_text=per_text,
    )


def decode_drift(
    weights: Weights,
    layout: SequenceLayout,
    visual_embeddings,
    prompt_tokens,
    config: DecodeConfig,
) -> list[DriftRecord]:
    """Vanilla decode instrumented with consecutive-step drift of the cached
    boundary hidden states. Text rows are restricted to positions that are
    context (not in the active block) at both steps of a pair."""
    engine = make_engine(
        EngineParams(kind="vanilla"), weights, layout, visual_embeddings, prompt_tokens
    )
    snapshots: list[tuple[int, int, list[np.ndarray]]] = []

    def observer(record, eng):
        # Every vanilla step is a full refresh, so the boundary caches hold
        # this step's group-boundary inputs and final hidden states.
        states = eng.group_inputs[1:] + [eng.hidden]
        snapshots.append((record.step, record.block, [s.copy() for s in states]))

    decode(engine, layout, config, observer=observer)
    records = []
    for (t0, b0, s0), (t1, b1, s1) in zip(snapshots, snapshots[1:]):
        context = [
            i for i in range(layout.visual_length, layout.total_length)
            if i not in layout.block_span(b0) and i not in layout.block_span(b1)
        ]
        records.append(
            drift(s0, s1, layout, step_pair=(t0, t1), text_rows=np.array(context))
        )
    return records


# -----------------------------------------------------------------------------
# Attention entropy
# -----------------------------------------------------------------------------

def attention_entropy(probs_per_layer: list[np.ndarray]) -> list[float]:
    """Mean Shannon entropy (nats) of attention rows, one value per layer.
    Accepts (T, T) or (H, T, T) probability arrays; exact zeros contribute 0."""
    out = []
    for probs in probs_per_layer:
        p = np.asarray(probs)
        terms = np.zeros_like(p)
        nz = p > 0
        terms[nz] = p[nz] * np.log(p[nz])
        row_entropy = -np.sum(terms, axis=-1)
        out.append(float(np.mean(row_entropy)))
    return out


def entropy_profile(weights: Weights, embeddings, position_ids) -> list[float]:
    """Per-layer mean attention entropy of one forward pass, each layer's
    (H, T, T) probabilities recomputed from forward's hidden[l] and keys[l].
    Reporting only; random init carries no directional claim."""
    cfg = weights.config
    _, acts = forward(weights, embeddings, position_ids)
    cos, sin = rotary_phases(position_ids, cfg.head_dim)
    mask = build_causal_mask(len(embeddings)) if cfg.mask_mode == "causal" else None
    probs = []
    for lw, x, k in zip(weights.layers, acts.hidden, acts.keys):
        s = np.matmul(layer_queries(lw, x, cos, sin, cfg.num_heads), k.transpose(0, 2, 1))
        s /= np.sqrt(cfg.head_dim)
        if mask is not None:
            s += mask
        probs.append(softmax_rows_inplace(s))
    return attention_entropy(probs)


# -----------------------------------------------------------------------------
# Analytic attention-cost model
# -----------------------------------------------------------------------------

@dataclass
class CostReport:
    """Analytic score-entry counts per step, plus recomputed row-layer counts."""

    engine: str
    per_step_entries: list[int]
    per_step_rows: list[int]

    @property
    def total_entries(self) -> int:
        return sum(self.per_step_entries)

    @property
    def total_rows(self) -> int:
        return sum(self.per_step_rows)


def attention_cost(
    engine_params: EngineParams,
    model_config: ModelConfig,
    layout: SequenceLayout,
    decode_config: DecodeConfig,
    trace: DecodeTrace | None = None,
) -> CostReport:
    """Analytic per-step score-entry counts for an engine's attention plan.

    Each step's plan comes from the engines' refresh policy and is costed by
    the same `plan_cost` with the same arguments as in the engine, so its
    chunked visual rows count `mars.anchor_visibility_count`. With a trace, the
    step -> block mapping is taken from the trace and every recorded per-step
    count is checked against the analytic value; any mismatch raises. Without
    a trace, block b runs min(budget_b, ceil(len_b / tokens_per_step)) steps;
    threshold-mode step counts depend on the decode, so they need the trace."""
    validate_params(engine_params, model_config, layout)
    tps = decode_config.tokens_per_step
    if trace is not None:
        step_blocks = [(s.step, s.block) for s in trace.steps]
    elif tps is None:
        raise ValueError(
            "threshold-mode step counts depend on the decode; pass its trace"
        )
    else:
        blocks = [
            b for b, budget in enumerate(decode_config.steps_per_block())
            for _ in range(min(budget, -(-len(layout.block_span(b)) // tps)))
        ]
        step_blocks = list(enumerate(blocks, start=1))

    per_entries, per_rows = [], []
    prev_block = None
    for t, block in step_blocks:
        plan = step_plan(engine_params, t, block != prev_block)
        rec = plan_cost(plan, engine_params, model_config, layout, t, block)
        per_entries.append(rec.attention_entries + rec.proxy_entries)
        per_rows.append(rec.rows_recomputed)
        prev_block = block

    report = CostReport(engine_params.kind, per_entries, per_rows)
    if trace is not None:
        for rec, predicted in zip(trace.steps, per_entries):
            recorded = rec.attention_entries + rec.proxy_entries
            if recorded != predicted:
                raise ValueError(
                    f"trace/plan mismatch at step {rec.step}: recorded "
                    f"{recorded} entries, analytic {predicted}"
                )
    return report


# -----------------------------------------------------------------------------
# High-norm token relocation
# -----------------------------------------------------------------------------

@dataclass
class Relocation:
    embeddings: np.ndarray
    position_ids: np.ndarray
    permutation: np.ndarray
    inverse: np.ndarray


def relocate_high_norm(embeddings, position_ids, k: int, r: float) -> Relocation:
    """Physically relocate the top-k highest-norm rows to a contiguous run
    starting at floor(r * n) (clamped so the run fits), preserving original
    position ids and the relative order of all other rows. k = 0 is the
    identity; k outside [0, n] or r outside [0, 1] is an error."""
    emb = np.asarray(embeddings, dtype=np.float64)
    pos = np.asarray(position_ids)
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"position ratio r={r} outside [0, 1]")
    n = emb.shape[0]
    if k < 0:
        raise ValueError(f"k={k} is negative")
    if k > n:
        raise ValueError(f"k={k} exceeds number of rows {n}")
    if k == 0:
        ident = np.arange(n)
        return Relocation(emb.copy(), pos.copy(), ident, ident.copy())
    norms = np.linalg.norm(emb, axis=1)
    order = np.lexsort((np.arange(n), -norms))
    top = np.sort(order[:k])
    rest = np.array([i for i in range(n) if i not in set(top.tolist())], dtype=np.int64)
    start = min(int(np.floor(r * n)), n - k)
    perm = np.concatenate((rest[:start], top, rest[start:]))
    inv = np.empty_like(perm)
    inv[perm] = np.arange(n)
    return Relocation(emb[perm], pos[perm], perm, inv)


# -----------------------------------------------------------------------------
# CSV emission
# -----------------------------------------------------------------------------

def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow(row)
