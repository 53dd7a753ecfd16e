"""Masked-diffusion forward corruption, loss evaluation, and the reverse
block-wise decoding loop shared by all engines.

The response is denoised left to right in blocks; within a block, each step
runs the engine once and commits the highest-confidence masked positions.
Committed tokens are immutable. The refresh clock t counts global denoising
steps across all blocks (1-based)."""

from __future__ import annotations

import json
import time
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .core import Matrix, RandomStream, as_matrix, require_int, softmax_rows
from .model import Weights, forward


@dataclass(frozen=True)
class SequenceLayout:
    """Partition of the token axis: frame spans, prompt span, response blocks.

    Spans are contiguous and ordered visual -> prompt -> response. All frame
    spans have equal length (fixed patches per frame); response blocks are
    equal length except possibly the last."""

    num_frames: int
    patches_per_frame: int
    prompt_length: int
    generation_length: int
    block_length: int
    mask_token_id: int

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, require_int(getattr(self, f.name), f.name))
        if self.num_frames < 1 or self.patches_per_frame < 1:
            raise ValueError("layout needs at least one non-empty frame")
        if self.generation_length < 1 or self.block_length < 1:
            raise ValueError("generation_length and block_length must be >= 1")
        if self.prompt_length < 0:
            raise ValueError(f"prompt_length {self.prompt_length} is negative")

    @property
    def visual_length(self) -> int:
        return self.num_frames * self.patches_per_frame

    @property
    def total_length(self) -> int:
        return self.visual_length + self.prompt_length + self.generation_length

    @property
    def position_ids(self) -> range:
        """Row i sits at position i."""
        return range(self.total_length)

    @property
    def prompt_span(self) -> range:
        return range(self.visual_length, self.visual_length + self.prompt_length)

    @property
    def response_span(self) -> range:
        start = self.visual_length + self.prompt_length
        return range(start, start + self.generation_length)

    def frame_span(self, n: int) -> range:
        """1-based frame index -> absolute index range."""
        if not 1 <= n <= self.num_frames:
            raise ValueError(f"frame index {n} outside 1..{self.num_frames}")
        start = (n - 1) * self.patches_per_frame
        return range(start, start + self.patches_per_frame)

    @property
    def num_blocks(self) -> int:
        return -(-self.generation_length // self.block_length)

    def block_span(self, b: int) -> range:
        """0-based block index -> absolute index range."""
        if not 0 <= b < self.num_blocks:
            raise ValueError(f"block {b} outside 0..{self.num_blocks - 1}")
        start = self.response_span.start + b * self.block_length
        end = min(start + self.block_length, self.response_span.stop)
        return range(start, end)


@dataclass
class DiffusionState:
    """Current response state during denoising: token ids, mask flags and
    the block being denoised."""

    token_ids: np.ndarray  # response tokens, mask_token_id where masked
    mask_flags: np.ndarray  # bool, True exactly where token is [MASK]
    active_block: int = 0


@dataclass(frozen=True)
class DecodeConfig:
    """How many steps, how large the blocks, and the per-step commit rule.

    Exactly one of tokens_per_step / confidence_threshold must be set. In
    count mode each step commits tokens_per_step masked positions (fewer at
    block tails); in threshold mode every masked position whose confidence
    reaches the threshold is committed, with a forced minimum that keeps the
    decode on schedule to finish within num_steps."""

    generation_length: int
    num_steps: int
    block_length: int
    tokens_per_step: int | None = None
    confidence_threshold: float | None = None

    def __post_init__(self):
        for name in ("generation_length", "num_steps", "block_length", "tokens_per_step"):
            value = getattr(self, name)
            if value is not None or name != "tokens_per_step":
                object.__setattr__(self, name, require_int(value, name))
        if self.generation_length < 1 or self.block_length < 1:
            raise ValueError("generation_length and block_length must be >= 1")
        if (self.tokens_per_step is None) == (self.confidence_threshold is None):
            raise ValueError(
                "set exactly one of tokens_per_step / confidence_threshold"
            )
        per_block = self.steps_per_block()
        if self.num_steps < len(per_block):
            raise ValueError(
                f"num_steps {self.num_steps} < number of blocks {len(per_block)}"
            )
        if self.confidence_threshold is not None and (
            isinstance(self.confidence_threshold, bool)
            or not 0.0 < self.confidence_threshold <= 1.0
        ):
            raise ValueError("confidence_threshold must lie in (0, 1]")
        if self.tokens_per_step is not None:
            if self.tokens_per_step < 1:
                raise ValueError("tokens_per_step must be >= 1")
            for b, steps in enumerate(per_block):
                blk = min(
                    self.block_length,
                    self.generation_length - b * self.block_length,
                )
                if steps * self.tokens_per_step < blk:
                    raise ValueError(
                        f"block {b}: {steps} steps x {self.tokens_per_step} "
                        f"tokens/step cannot cover {blk} positions"
                    )

    def steps_per_block(self) -> list[int]:
        """Distribute num_steps over blocks (earlier blocks absorb remainder)."""
        nb = -(-self.generation_length // self.block_length)
        base, rem = divmod(self.num_steps, nb)
        return [base + (1 if b < rem else 0) for b in range(nb)]


def forward_mask(clean_tokens, t: float, rng: RandomStream, mask_token_id: int) -> DiffusionState:
    """Corrupt a clean sequence: each position independently becomes [MASK]
    with probability t; unmasked positions keep their clean token."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t={t} outside [0, 1]")
    clean = np.asarray(clean_tokens, dtype=np.int64)
    if np.any(clean == mask_token_id):
        raise ValueError("clean tokens must not contain the reserved [MASK] id")
    flags = rng.uniform(size=clean.shape[0]) < t
    tokens = np.where(flags, mask_token_id, clean)
    return DiffusionState(token_ids=tokens, mask_flags=flags)


def _check_token_ids(name: str, ids: np.ndarray, vocab_size: int) -> None:
    """Raise ValueError unless every id indexes a row of the embedding table."""
    if np.any((ids < 0) | (ids >= vocab_size)):
        raise ValueError(f"{name} token ids outside [0, {vocab_size})")


def assemble_embeddings(
    weights: Weights,
    layout: SequenceLayout,
    visual_embeddings: Matrix,
    prompt_tokens,
    response_tokens,
) -> Matrix:
    """Stack visual embeddings with embedded prompt and response tokens."""
    visual_embeddings = as_matrix(visual_embeddings)
    if visual_embeddings.shape != (layout.visual_length, weights.config.model_dim):
        raise ValueError(
            f"visual embeddings shape {visual_embeddings.shape} != "
            f"({layout.visual_length}, {weights.config.model_dim})"
        )
    prompt = np.asarray(prompt_tokens, dtype=np.int64)
    response = np.asarray(response_tokens, dtype=np.int64)
    if prompt.shape[0] != layout.prompt_length:
        raise ValueError("prompt length != layout prompt_length")
    if response.shape[0] != layout.generation_length:
        raise ValueError("response length != layout generation_length")
    _check_token_ids("prompt", prompt, weights.config.vocab_size)
    _check_token_ids("response", response, weights.config.vocab_size)
    return np.concatenate(
        (visual_embeddings, weights.embedding[prompt], weights.embedding[response])
    )


def dlm_loss(
    weights: Weights,
    layout: SequenceLayout,
    visual_embeddings: Matrix,
    prompt_tokens,
    clean_response,
    t: float,
    rng: RandomStream,
) -> float:
    """Masked-denoising loss, evaluation only.

    The response is corrupted at timestep t with the visual and prompt
    conditions left unmasked; the loss is -(1/t) * sum over masked positions
    of log p(clean token), averaged over the response length."""
    if not 0.0 < t <= 1.0:
        raise ValueError("t must lie in (0, 1]: t=0 has no masked positions")
    clean = np.asarray(clean_response, dtype=np.int64)
    # Masked positions reach the embeddings as [MASK], but their clean ids
    # index the log-probabilities below.
    _check_token_ids("response", clean, weights.config.vocab_size)
    state = forward_mask(clean, t, rng, layout.mask_token_id)
    emb = assemble_embeddings(
        weights, layout, visual_embeddings, prompt_tokens, state.token_ids
    )
    logits, _ = forward(weights, emb, layout.position_ids)
    resp = layout.response_span
    masked = np.flatnonzero(state.mask_flags)
    if masked.size == 0:
        return 0.0
    rows = logits[resp.start + masked]
    log_probs = np.log(softmax_rows(rows))
    nll = -log_probs[np.arange(masked.size), clean[masked]]
    return float(np.sum(nll) / (t * layout.generation_length))


def select_unmask(
    probabilities: Matrix,
    positions,
    min_commits: int = 1,
    threshold: float | None = None,
) -> list[tuple[int, int]]:
    """Choose which masked positions to commit this step.

    probabilities has one row per masked position (vocab distribution);
    positions gives each row's position index. Every row whose max
    probability reaches the threshold is committed (none without one),
    topped up to the min_commits most confident rows and never fewer than
    one, so the decode always makes progress. Ties break toward lower
    position index; the committed token is the row argmax."""
    positions = np.asarray(positions, dtype=np.int64)
    if probabilities.shape[0] == 0:
        raise ValueError("no masked positions to select from")
    if probabilities.shape[0] != positions.shape[0]:
        raise ValueError("probabilities rows != positions length")
    conf = np.max(probabilities, axis=1)
    tokens = np.argmax(probabilities, axis=1)
    order = np.lexsort((positions, -conf))
    qualify = 0 if threshold is None else int(np.sum(conf >= threshold))
    take = order[: min(max(qualify, min_commits, 1), order.size)]
    return [(int(positions[i]), int(tokens[i])) for i in take]


@dataclass
class StepRecord:
    step: int
    block: int
    committed: list[tuple[int, int]]
    refreshed_visual: list[int] = field(default_factory=list)
    refreshed_text: list[int] = field(default_factory=list)
    attention_entries: int = 0
    proxy_entries: int = 0
    rows_recomputed: int = 0
    elapsed_ns: int = 0
    anchor_digest: str | None = None
    masked_remaining: int = 0


# The check of a loaded step value, by its StepRecord field's annotation;
# JSON holds each committed (position, token) pair as a list.
_STEP_VALUE_CHECKS = {
    "int": lambda v: type(v) is int,
    "list[int]": lambda v: type(v) is list and all(type(x) is int for x in v),
    "list[tuple[int, int]]": lambda v: type(v) is list and all(
        type(c) is list and len(c) == 2 and all(type(x) is int for x in c) for c in v),
    "str | None": lambda v: v is None or type(v) is str,
}


@dataclass
class DecodeTrace:
    """Per-step record of a decode run, or the analytic prediction of one
    (analysis.attention_cost), serializable to JSON lines. A prediction's
    steps set step, block, the entry and row counts and refreshed_*; only a
    decode fills committed, elapsed_ns, anchor_digest and masked_remaining."""

    engine: str
    config: dict
    steps: list[StepRecord] = field(default_factory=list)
    logits_per_step: list[np.ndarray] | None = None

    SCHEMA = "marscache-trace-v1"

    def total_entries(self) -> int:
        return sum(s.attention_entries + s.proxy_entries for s in self.steps)

    def total_rows_recomputed(self) -> int:
        return sum(s.rows_recomputed for s in self.steps)

    def refresh_counts(self, modality: str) -> list[int]:
        """Per-group refresh event counts over steps t >= 2 (init excluded)."""
        groups: dict[int, int] = {}
        for s in self.steps:
            if s.step < 2:
                continue
            refreshed = (
                s.refreshed_visual if modality == "visual" else s.refreshed_text
            )
            for g in refreshed:
                groups[g] = groups.get(g, 0) + 1
        size = max(groups) + 1 if groups else 0
        return [groups.get(g, 0) for g in range(size)]

    def to_jsonl(self, path: str) -> None:
        """A schema header line, then one line per step holding StepRecord's
        fields in declaration order."""
        with open(path, "w") as f:
            f.write(json.dumps({"schema": self.SCHEMA, "engine": self.engine,
                                "config": self.config}) + "\n")
            for s in self.steps:
                f.write(json.dumps(asdict(s)) + "\n")

    @classmethod
    def from_jsonl(cls, path: str) -> "DecodeTrace":
        """Load a trace written by to_jsonl; raises ValueError for a header
        that is not an object holding engine and config, and for a step line
        that is not an object, has a key StepRecord lacks, lacks a required
        one or holds a value of the wrong type."""
        types = {f.name: f.type for f in fields(StepRecord)}
        required = {f.name for f in fields(StepRecord)
                    if f.default is MISSING and f.default_factory is MISSING}
        with open(path) as f:
            head = json.loads(f.readline())
            if not isinstance(head, dict) or not {"engine", "config"} <= head.keys():
                raise ValueError("trace header is not an object holding engine and config")
            if head.get("schema") != cls.SCHEMA:
                raise ValueError(f"unknown trace schema {head.get('schema')!r}")
            trace = cls(engine=head["engine"], config=head["config"])
            for line in f:
                d = json.loads(line)
                if not isinstance(d, dict):
                    raise ValueError("trace step is not an object")
                unknown = sorted(set(d) - types.keys())
                if unknown:
                    raise ValueError(f"trace step has unknown keys: {unknown}")
                missing = sorted(required - set(d))
                if missing:
                    raise ValueError(f"trace step lacks required keys: {missing}")
                for key, value in d.items():
                    if not _STEP_VALUE_CHECKS[types[key]](value):
                        raise ValueError(f"trace step key {key!r}: expected "
                                         f"{types[key]}, got {value!r}")
                d["committed"] = [tuple(c) for c in d["committed"]]
                trace.steps.append(StepRecord(**d))
        return trace


def decode(
    engine,
    layout: SequenceLayout,
    config: DecodeConfig,
    collect_logits: bool = False,
    observer=None,
) -> tuple[np.ndarray, DecodeTrace]:
    """Run a full block-wise decode with the given engine session.

    The engine is a session object exposing .name and .step(t, state) ->
    (logits over the active block, StepRecord); see the engines module.
    Every decode restarts the refresh clock at t = 1, so a session may be
    reused. The response starts fully masked; blocks are processed left to
    right and each step commits at least one token, so the loop terminates in
    <= num_steps steps. Returns the unmasked response tokens and the per-step
    trace."""
    if config.generation_length != layout.generation_length:
        raise ValueError("decode config and layout disagree on generation length")
    if config.block_length != layout.block_length:
        raise ValueError("decode config and layout disagree on block length")

    state = DiffusionState(
        token_ids=np.full(layout.generation_length, layout.mask_token_id, np.int64),
        mask_flags=np.ones(layout.generation_length, dtype=bool),
        active_block=0,
    )
    trace = DecodeTrace(
        engine=engine.name,
        config=asdict(config),
        logits_per_step=[] if collect_logits else None,
    )

    t = 1
    for block, budget in enumerate(config.steps_per_block()):
        state.active_block = block
        span = layout.block_span(block)
        local = np.arange(span.start - layout.response_span.start,
                          span.stop - layout.response_span.start)
        for step_in_block in range(budget):
            masked_local = local[state.mask_flags[local]]
            if masked_local.size == 0:
                break
            started = time.perf_counter_ns()
            logits, record = engine.step(t, state)
            probs = softmax_rows(logits)
            # The reserved [MASK] id is never committable.
            probs[:, layout.mask_token_id] = 0.0
            masked_rows = masked_local - local[0]
            # Threshold mode commits enough to finish the block within its budget.
            min_commits = (config.tokens_per_step if config.tokens_per_step is not None
                           else int(masked_local.size) - (budget - step_in_block - 1))
            commits = select_unmask(probs[masked_rows], masked_local, min_commits,
                                    config.confidence_threshold)
            for pos, tok in commits:
                state.token_ids[pos] = tok
                state.mask_flags[pos] = False
            record.committed = commits
            record.elapsed_ns = time.perf_counter_ns() - started
            record.masked_remaining = int(np.sum(state.mask_flags))
            trace.steps.append(record)
            if collect_logits:
                trace.logits_per_step.append(logits.copy())
            if observer is not None:
                observer(record, engine)
            t += 1
    if np.any(state.mask_flags):
        raise RuntimeError("decode ended with masked positions remaining")
    return state.token_ids.copy(), trace
