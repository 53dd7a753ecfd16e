"""One decode engine session for every engine kind, driven by a per-step plan.

Each step, the refresh policy `step_plan` decides which context rows are
recomputed, from which layer group, and whether refreshed visual rows attend
over their chunked key sets:

- vanilla recomputes everything at every step;
- dual_cache recomputes everything at the first step of each block and only
  the active block otherwise;
- mars recomputes everything at step 1, where it also fixes the anchor plan,
  and afterwards refreshes (group, modality) context whenever t is a multiple
  of its interval.

Every plan runs the same shallow-to-deep sweep over the live (recomputed)
rows that `live_rows`, and nothing else, gives each group; they grow with
depth, and the rest is served from the K/V caches and boundary states. A full
refresh is the plan whose rows are all live from group 0. A chunked plan
derives each group's key sets from the anchor plan when the sweep reaches
that group, so a non-anchor visual row scores only its frame's neighborhood
and the anchors. `plan_cost` turns a plan into the step's record (score
entries, recomputed rows, refreshed groups); the analytic cost model calls
it with the same arguments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import require_int
from .diffusion import DiffusionState, SequenceLayout, StepRecord, assemble_embeddings
from .mars import (
    AnchorPlan,
    RefreshSchedule,
    anchor_visibility_count,
    chunk_key_sets,
    equidistant_indices,
    proxy_scores,
    resolve_budgets,
    select_anchors,
)
from .model import (
    ModelConfig,
    Weights,
    layer_queries,
    rms_norm,
    rotary_phases,
    transformer_layer,
)

ENGINE_KINDS = ("vanilla", "dual_cache", "mars")


@dataclass(frozen=True)
class EngineParams:
    """Which engine to run and, for the refreshing engine, how."""

    kind: str = "vanilla"
    schedule: RefreshSchedule | None = None
    anchor_budgets: tuple = ()
    sample_size: int = 32

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
) -> None:
    """Check a configuration against the model and layout before any step
    runs."""
    if model_config.mask_mode != "bidirectional":
        raise ValueError("block caching needs a bidirectional model, not "
                         f"mask_mode {model_config.mask_mode!r}")
    if params.kind != "mars":
        if params != EngineParams(params.kind):
            raise ValueError(f"engine kind {params.kind!r} takes no schedule, "
                             "anchor budgets or sample size")
        return
    groups = model_config.num_groups
    if params.schedule.num_groups != groups:
        raise ValueError(
            f"schedule covers {params.schedule.num_groups} groups, model has {groups}"
        )
    if len(params.anchor_budgets) != groups:
        raise ValueError(
            f"{len(params.anchor_budgets)} anchor budgets given, model has {groups} groups"
        )
    if not 1 <= require_int(params.sample_size, "sample_size") <= layout.total_length:
        raise ValueError(
            f"sample size {params.sample_size} outside [1, {layout.total_length}]"
        )
    resolve_budgets(params.anchor_budgets, layout.patches_per_frame)


@dataclass(frozen=True)
class StepPlan:
    """One step's refresh decision, which live_rows turns into rows. Active-block
    rows are always live; visual and text-context rows join at their entry
    group and stay live through every deeper group (None: served from the
    caches). The full refresh, which rewrites every cache, is StepPlan(0, 0)."""

    entry_visual: int | None
    entry_text: int | None
    chunked: bool = False  # refreshed visual rows attend over their key sets
    build_anchors: bool = False  # fix the anchor plan from this step


def step_plan(params: EngineParams, t: int, block_start: bool) -> StepPlan:
    """The refresh policy, the one reader of the refresh clock: the plan of
    global step t (1-based), where block_start tells whether t is the first
    step of its block. After step 1 a mars modality enters at the first group
    whose interval divides t (None if none does); due groups form a suffix."""
    if t < 1:
        raise ValueError("step counter is 1-based")
    kind = params.kind
    if t == 1 or kind == "vanilla" or (kind == "dual_cache" and block_start):
        return StepPlan(0, 0, build_anchors=kind == "mars")
    if kind == "dual_cache":
        return StepPlan(None, None)
    visual, text = (next((g for g, tau in enumerate(taus) if t % tau == 0), None)
                    for taus in (params.schedule.tau_visual, params.schedule.tau_text))
    return StepPlan(visual, text, chunked=visual is not None)


def live_rows(plan: StepPlan, layout: SequenceLayout, block: int, g: int) -> np.ndarray:
    """Group g's live rows, ascending: the active block, plus every visual row
    [0, V) once g reaches entry_visual and every row [V, L) once g reaches
    entry_text. The one place that sets which rows a group recomputes."""
    v, span = layout.visual_length, layout.block_span(block)
    live = np.zeros(layout.total_length, dtype=bool)
    live[:v] = plan.entry_visual is not None and g >= plan.entry_visual
    live[v:] = plan.entry_text is not None and g >= plan.entry_text
    live[span.start:span.stop] = True
    return np.flatnonzero(live)


def plan_cost(
    plan: StepPlan,
    params: EngineParams,
    model_config: ModelConfig,
    layout: SequenceLayout,
    t: int,
    block: int,
) -> StepRecord:
    """The step record implied by a plan: score entries, proxy entries,
    recomputed row-layers (group g's from live_rows) and refreshed groups.
    Chunked visual rows of group g count anchor_visibility_count at g's
    budget, which holds for whichever anchors step 1 selects."""
    cfg, lay = model_config, layout
    total, vis = lay.total_length, lay.visual_length
    budgets = resolve_budgets(params.anchor_budgets, lay.patches_per_frame)
    entries = rows = 0
    for g in range(cfg.num_groups):
        live = live_rows(plan, lay, block, g).size
        if plan.chunked and g >= plan.entry_visual:
            layer_entries = (live - vis) * total + anchor_visibility_count(lay, budgets[g])
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
    plan, the session's only chunk state: a chunked sweep builds each
    group's key sets from the plan when it reaches that group. The K/V caches
    and boundary[1:] are allocated uninitialised, because step 1 writes all
    of them before any read."""

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
        self.params = params
        self.name = params.kind
        cfg = weights.config
        total = layout.total_length
        self.cos, self.sin = rotary_phases(layout.position_ids, cfg.head_dim)
        # The caches and boundary[1:] start uninitialised: step_plan gives
        # every engine StepPlan(0, 0) at t = 1, whose sweep writes every row
        # of every layer's K/V and every boundary before anything reads it,
        # and step raises if a fresh session's first plan is not that refresh.
        shape = (cfg.num_heads, total, cfg.head_dim)
        self.cache_k = [np.empty(shape) for _ in range(cfg.num_layers)]
        self.cache_v = [np.empty(shape) for _ in range(cfg.num_layers)]
        # boundary[g] holds the hidden states entering group g (the embeddings
        # for g = 0); boundary[G] holds those leaving the last layer.
        response = np.full(layout.generation_length, layout.mask_token_id)
        emb = assemble_embeddings(weights, layout, visual_embeddings, prompt_tokens, response)
        self.boundary = [emb] + [np.empty_like(emb) for _ in range(cfg.num_groups)]
        self.cached_block: int | None = None
        self.plan: AnchorPlan | None = None

    def step(self, t: int, state: DiffusionState):
        """Run step t's plan; returns (active-block logits, StepRecord)."""
        plan = step_plan(self.params, t, state.active_block != self.cached_block)
        # Only an unchunked plan live from group 0 rewrites every cache.
        rewrites_all = (plan.entry_visual, plan.entry_text, plan.chunked) == (0, 0, False)
        if self.cached_block is None and not rewrites_all:
            raise RuntimeError("engine stepped at t > 1 without initialization")
        self.cached_block = state.active_block
        resp = self.layout.response_span
        self.boundary[0][resp.start:resp.stop] = self.weights.embedding[state.token_ids]
        logits = self._sweep(state.active_block, plan)
        if plan.build_anchors:
            self._build_anchor_plan()
        record = plan_cost(plan, self.params, self.weights.config, self.layout,
                           t, state.active_block)
        if self.plan is not None:
            record.anchor_digest = self.plan.digest
        return logits, record

    def _build_anchor_plan(self) -> None:
        """Proxy-score each group's first layer from the states a full sweep
        just cached and fix the per-group anchor sets as self.plan."""
        cfg = self.weights.config
        lay = self.layout
        sample_idx = equidistant_indices(lay.total_length, self.params.sample_size)
        vis_idx = np.arange(lay.visual_length)
        cos, sin = self.cos[sample_idx], self.sin[sample_idx]
        proxies = []
        for g in range(cfg.num_groups):
            l0 = cfg.group_boundaries[g]
            q = layer_queries(self.weights.layers[l0], self.boundary[g][sample_idx],
                              cos, sin, cfg.num_heads)
            heads = proxy_scores(q, self.cache_k[l0], sample_idx, vis_idx)
            proxies.append(np.mean(heads, axis=0))
        self.plan = select_anchors(
            proxies, lay, self.params.anchor_budgets, sample_indices=sample_idx
        )

    def _sweep(self, block: int, plan: StepPlan):
        """One shallow-to-deep pass recomputing the live rows of each group.

        Active-block rows are live from layer 0; visual / text-context rows
        join at their plan's entry group and stay live through all deeper
        groups. Group g reads its live rows from boundary[g] and writes them
        to boundary[g + 1]. Fresh keys/values overwrite the caches as they
        are produced, so rows recomputed in the same step see each other
        coherently. Returns the active-block logits."""
        cfg = self.weights.config
        lay = self.layout
        for g in range(cfg.num_groups):
            live = live_rows(plan, lay, block, g)
            cos, sin = self.cos[live], self.sin[live]
            key_sets = None
            if plan.chunked and g >= plan.entry_visual:
                # Every visual row is live, and live is sorted, so x's first
                # V rows are the visual segment.
                key_sets = chunk_key_sets(lay, self.plan.unions[g], live.size)
            x = self.boundary[g][live]
            for l in cfg.group_layers(g):
                transformer_layer(self.weights.layers[l], x, cos, sin,
                                  self.cache_k[l], self.cache_v[l], live, key_sets)
            self.boundary[g + 1][live] = x

        active = self.boundary[-1][lay.block_span(block)]
        return rms_norm(active, self.weights.final_norm) @ self.weights.head


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
