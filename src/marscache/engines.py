"""One decode engine session for every engine kind, driven by a per-step plan.

Each step, the refresh policy `step_plan` decides which context rows are
recomputed, from which layer group, and whether refreshed visual rows use the
chunked anchor mask:

- vanilla recomputes everything at every step;
- dual_cache recomputes everything at the first step of each block and only
  the active block otherwise;
- mars recomputes everything at step 1, where it also fixes the anchor plan,
  and afterwards refreshes (group, modality) context whenever t is a multiple
  of its interval.

A full plan runs the model's forward pass and rewrites every per-layer
key/value cache and group-boundary state. Any other plan runs one
shallow-to-deep sweep in which the set of live (recomputed) rows grows
monotonically with depth; everything not live is served from the caches.
`plan_cost` turns a plan into the step's record (score entries, recomputed
rows, refreshed groups); the analytic cost model reads the same plans."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import DiffusionState, SequenceLayout, StepRecord, assemble_embeddings
from .mars import (
    TEXT,
    VISUAL,
    AnchorPlan,
    RefreshSchedule,
    equidistant_indices,
    proxy_scores,
    refresh_due,
    resolve_budgets,
    select_anchors,
    visibility_to_additive,
    visual_key_visibility,
)
from .model import (
    ModelConfig,
    Weights,
    apply_rotary,
    forward,
    gelu,
    multi_head_attention,
    rms_norm,
    rotary_phases,
    split_heads,
)

ENGINE_KINDS = ("vanilla", "dual_cache", "mars")


@dataclass(frozen=True)
class EngineParams:
    """Which engine to run and, for the refreshing engine, how."""

    kind: str = "vanilla"
    schedule: RefreshSchedule | None = None
    anchor_budgets: tuple = ()
    chunk_enabled: bool = True
    sample_size: int = 32
    # Open switch: let non-anchor visual queries also see prompt/response keys.
    allow_text_keys: bool = False

    def __post_init__(self):
        if self.kind not in ENGINE_KINDS:
            raise ValueError(f"unknown engine kind {self.kind!r}")
        if self.kind == "mars":
            if self.schedule is None:
                raise ValueError("mars engine requires a refresh schedule")
            if not self.anchor_budgets:
                raise ValueError("mars engine requires anchor budgets")


def validate_params(
    params: EngineParams, model_config: ModelConfig, layout: SequenceLayout
) -> tuple[int, ...]:
    """Check a configuration against the model and layout before any step
    runs; returns the resolved per-group anchor budgets (empty unless mars)."""
    if params.kind != "mars":
        return ()
    groups = model_config.num_groups
    if params.schedule.num_groups != groups:
        raise ValueError(
            f"schedule covers {params.schedule.num_groups} groups, model has {groups}"
        )
    if len(params.anchor_budgets) != groups:
        raise ValueError(
            f"{len(params.anchor_budgets)} anchor budgets given, model has {groups} groups"
        )
    if not 1 <= params.sample_size <= layout.total_length:
        raise ValueError(
            f"sample size {params.sample_size} outside [1, {layout.total_length}]"
        )
    return resolve_budgets(params.anchor_budgets, layout.patches_per_frame)


@dataclass(frozen=True)
class StepPlan:
    """One step's refresh decision. Active-block rows are always recomputed;
    visual and text-context rows join the sweep at their entry group and stay
    live through every deeper group (None: served from the caches)."""

    entry_visual: int | None
    entry_text: int | None
    full: bool = False  # forward pass over everything; every cache rewritten
    chunked: bool = False  # refreshed visual rows attend under the anchor mask
    build_anchors: bool = False  # fix the anchor plan from this step


def step_plan(params: EngineParams, t: int, block_start: bool) -> StepPlan:
    """The refresh policy: the plan of global step t (1-based), where
    block_start tells whether t is the first step of its block."""
    kind = params.kind
    if t == 1 or kind == "vanilla" or (kind == "dual_cache" and block_start):
        return StepPlan(0, 0, full=True, build_anchors=kind == "mars")
    if kind == "dual_cache":
        return StepPlan(None, None)
    # The due groups form a depth suffix, so the shallowest one is the entry.
    schedule = params.schedule
    entry = {
        m: next((g for g in range(schedule.num_groups)
                 if refresh_due(t, g, m, schedule)), None)
        for m in (VISUAL, TEXT)
    }
    return StepPlan(
        entry[VISUAL], entry[TEXT],
        chunked=params.chunk_enabled and entry[VISUAL] is not None,
    )


def plan_cost(
    plan: StepPlan,
    params: EngineParams,
    model_config: ModelConfig,
    layout: SequenceLayout,
    t: int,
    block: int,
    visual_counts,
) -> StepRecord:
    """The step record implied by a plan: score entries, proxy entries,
    recomputed row-layers and refreshed groups. visual_counts[g] is the
    visible-key count of group g's chunked visual mask."""
    cfg, lay = model_config, layout
    total, vis = lay.total_length, lay.visual_length
    blk = len(lay.block_span(block))
    entries = rows = 0
    for g in range(cfg.num_groups):
        visual_live = plan.entry_visual is not None and g >= plan.entry_visual
        text_live = plan.entry_text is not None and g >= plan.entry_text
        live = blk + (vis if visual_live else 0) + (total - vis - blk if text_live else 0)
        if visual_live and plan.chunked:
            layer_entries = (live - vis) * total + visual_counts[g]
        else:
            layer_entries = live * total
        layers = len(cfg.group_layers(g))
        entries += layers * layer_entries
        rows += layers * live

    def refreshed(entry):
        return [] if entry is None else list(range(entry, cfg.num_groups))

    return StepRecord(
        step=t, block=block, committed=[],
        refreshed_visual=refreshed(plan.entry_visual),
        refreshed_text=refreshed(plan.entry_text),
        attention_entries=entries,
        proxy_entries=cfg.num_groups * params.sample_size * vis if plan.build_anchors else 0,
        rows_recomputed=rows,
    )


class EngineSession:
    """Decode session for any engine kind. Reusable: step 1 of every decode
    is a full refresh that rebuilds every cache and, for mars, the anchor
    plan and its visibility masks."""

    def __init__(
        self,
        weights: Weights,
        layout: SequenceLayout,
        visual_embeddings,
        prompt_tokens,
        params: EngineParams,
    ):
        validate_params(params, weights.config, layout)
        self.weights = weights
        self.layout = layout
        self.visual_embeddings = np.asarray(visual_embeddings, dtype=np.float64)
        self.prompt_tokens = np.asarray(prompt_tokens, dtype=np.int64)
        self.params = params
        self.name = params.kind
        cfg = weights.config
        total = layout.total_length
        self.cos, self.sin = rotary_phases(layout.position_ids, cfg.head_dim)
        shape = (cfg.num_heads, total, cfg.head_dim)
        self.cache_k = [np.zeros(shape) for _ in range(cfg.num_layers)]
        self.cache_v = [np.zeros(shape) for _ in range(cfg.num_layers)]
        # group_inputs[g] holds the hidden states entering group g (g >= 1);
        # hidden holds those leaving the last layer (and is the sweep buffer).
        self.group_inputs = [
            np.zeros((total, cfg.model_dim)) for _ in range(cfg.num_groups)
        ]
        self.hidden = np.zeros((total, cfg.model_dim))
        self.cached_block: int | None = None
        self.plan: AnchorPlan | None = None
        self.visual_masks: list[np.ndarray] = []
        self.visual_mask_counts: list[int] = []

    def _embeddings(self, state: DiffusionState):
        return assemble_embeddings(
            self.weights,
            self.layout,
            self.visual_embeddings,
            self.prompt_tokens,
            state.token_ids,
        )

    def step(self, t: int, state: DiffusionState):
        """Run step t's plan; returns (active-block logits, StepRecord)."""
        plan = step_plan(self.params, t, state.active_block != self.cached_block)
        if not plan.full and self.cached_block is None:
            raise RuntimeError("engine stepped at t > 1 without initialization")
        self.cached_block = state.active_block
        logits = self._full_refresh(state, plan) if plan.full else self._sweep(state, plan)
        record = plan_cost(
            plan, self.params, self.weights.config, self.layout, t,
            state.active_block, self.visual_mask_counts,
        )
        if self.plan is not None:
            record.anchor_digest = self.plan.digest()
        return logits, record

    def _full_refresh(self, state: DiffusionState, plan: StepPlan):
        """Full forward; repopulate every per-layer K/V and boundary cache."""
        cfg = self.weights.config
        logits, acts = forward(
            self.weights, self._embeddings(state), self.layout.position_ids
        )
        for l in range(cfg.num_layers):
            self.cache_k[l][:] = acts.keys[l]
            self.cache_v[l][:] = acts.values[l]
        for g in range(1, cfg.num_groups):
            self.group_inputs[g][:] = acts.hidden[cfg.group_boundaries[g]]
        self.hidden[:] = acts.hidden[-1]
        if plan.build_anchors:
            self._build_anchor_plan(acts)
        span = self.layout.block_span(state.active_block)
        return logits[span.start : span.stop]

    def _build_anchor_plan(self, acts) -> None:
        """Proxy-score each group's first layer from the step-1 activations
        and cache the per-group anchor sets plus their additive visibility
        masks and visible-key counts."""
        cfg = self.weights.config
        lay = self.layout
        sample_idx = equidistant_indices(lay.total_length, self.params.sample_size)
        vis_idx = np.arange(lay.visual_length)
        proxies = []
        for g in range(cfg.num_groups):
            l0 = cfg.group_boundaries[g]
            lw = self.weights.layers[l0]
            xn = rms_norm(acts.hidden[l0], lw.attn_norm)
            q = apply_rotary(
                split_heads(xn @ lw.wq, cfg.num_heads), self.cos, self.sin
            )
            k = acts.keys[l0]
            per_head = [
                proxy_scores(q[head], k[head], sample_idx, vis_idx)
                for head in range(cfg.num_heads)
            ]
            proxies.append(np.mean(per_head, axis=0))
        self.plan = select_anchors(
            proxies, lay, self.params.anchor_budgets, sample_indices=sample_idx
        )
        self.visual_masks, self.visual_mask_counts = [], []
        for g in range(cfg.num_groups):
            vis = visual_key_visibility(
                lay, self.plan.unions[g], self.params.allow_text_keys
            )
            self.visual_masks.append(visibility_to_additive(vis))
            self.visual_mask_counts.append(int(vis.sum()))

    def _sweep(self, state: DiffusionState, plan: StepPlan):
        """One shallow-to-deep pass recomputing the live rows of each group.

        Active-block rows are live from layer 0; visual / text-context rows
        join at their plan's entry group with inputs taken from the cached
        boundary states, and stay live through all deeper groups. Fresh
        keys/values overwrite the caches as they are produced, so rows
        recomputed in the same step see each other coherently. Returns the
        active-block logits."""
        cfg = self.weights.config
        lay = self.layout
        emb = self._embeddings(state)
        span = lay.block_span(state.active_block)
        active = np.arange(span.start, span.stop)
        vis_rows = np.arange(lay.visual_length)
        # Prompt plus every response position outside the active block.
        text_rows = np.concatenate((
            np.arange(lay.visual_length, span.start),
            np.arange(span.stop, lay.total_length),
        ))

        h = self.hidden
        h[active] = emb[active]
        live = active
        for g in range(cfg.num_groups):
            for entry, rows in ((plan.entry_visual, vis_rows), (plan.entry_text, text_rows)):
                if entry == g:
                    h[rows] = emb[rows] if g == 0 else self.group_inputs[g][rows]
                    live = np.union1d(live, rows)

            chunked = plan.chunked and g >= plan.entry_visual
            if chunked:
                vis_sel = live < lay.visual_length
                full_sel = ~vis_sel
            else:
                full_sel = np.ones(live.size, dtype=bool)
            n_full = int(np.sum(full_sel))

            cos, sin = self.cos[live], self.sin[live]
            for l in cfg.group_layers(g):
                lw = self.weights.layers[l]
                x = h[live]
                xn = rms_norm(x, lw.attn_norm)
                q = apply_rotary(split_heads(xn @ lw.wq, cfg.num_heads), cos, sin)
                k = apply_rotary(split_heads(xn @ lw.wk, cfg.num_heads), cos, sin)
                v = split_heads(xn @ lw.wv, cfg.num_heads)
                self.cache_k[l][:, live, :] = k
                self.cache_v[l][:, live, :] = v

                attn = np.empty((live.size, cfg.model_dim))
                if n_full:
                    attn[full_sel] = multi_head_attention(
                        q[:, full_sel, :], self.cache_k[l], self.cache_v[l],
                        None, cfg.head_dim,
                    )
                if chunked:
                    attn[vis_sel] = multi_head_attention(
                        q[:, vis_sel, :], self.cache_k[l], self.cache_v[l],
                        self.visual_masks[g], cfg.head_dim,
                    )
                x = x + attn @ lw.wo
                x = x + gelu(rms_norm(x, lw.ff_norm) @ lw.w1) @ lw.w2
                h[live] = x
            if g + 1 < cfg.num_groups:
                self.group_inputs[g + 1][live] = h[live]

        return rms_norm(h[active], self.weights.final_norm) @ self.weights.head


def make_engine(
    params: EngineParams,
    weights: Weights,
    layout: SequenceLayout,
    visual_embeddings,
    prompt_tokens,
):
    """Build an engine session; raises ValueError on a configuration that
    does not fit the model or layout."""
    return EngineSession(weights, layout, visual_embeddings, prompt_tokens, params)
