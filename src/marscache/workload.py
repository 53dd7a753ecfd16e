"""Synthetic workload construction: frame-structured visual embeddings and
prompt tokens, deterministic per seed. Visual rows are drawn at unit scale
(encoder-feature-like, much larger than the 0.02-scale token embeddings);
the relocation experiment additionally boosts a chosen subset by a fixed
factor so the top-k set is unambiguous."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import seeded_stream
from .diffusion import SequenceLayout
from .model import ModelConfig

HIGH_NORM_FACTOR = 8.0


@dataclass
class Workload:
    visual_embeddings: np.ndarray
    prompt_tokens: np.ndarray


def default_layout(
    num_frames: int = 8,
    patches_per_frame: int = 16,
    prompt_length: int = 16,
    generation_length: int = 64,
    block_length: int = 32,
    vocab_size: int = 256,
) -> SequenceLayout:
    # The top vocab index is reserved for [MASK].
    return SequenceLayout(
        num_frames=num_frames,
        patches_per_frame=patches_per_frame,
        prompt_length=prompt_length,
        generation_length=generation_length,
        block_length=block_length,
        mask_token_id=vocab_size - 1,
    )


def make_workload(
    layout: SequenceLayout, config: ModelConfig, seed: int
) -> Workload:
    root = seeded_stream(seed, "workload")
    visual = root.child("visual-embeddings").normal(
        size=(layout.visual_length, config.model_dim), std=1.0
    )
    prompt = root.child("prompt-tokens").integers(
        0, layout.mask_token_id, size=layout.prompt_length
    )
    return Workload(visual_embeddings=visual, prompt_tokens=prompt)


def make_high_norm_embeddings(
    num_rows: int, model_dim: int, k: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-scale rows with k randomly chosen rows boosted by a fixed factor;
    returns (embeddings, indices of the boosted rows, sorted). k outside
    [0, num_rows] is an error."""
    if k < 0:
        raise ValueError(f"k={k} is negative")
    if k > num_rows:
        raise ValueError(f"k={k} exceeds number of rows {num_rows}")
    root = seeded_stream(seed, "high-norm")
    emb = root.child("rows").normal(size=(num_rows, model_dim), std=1.0)
    # Sample k rows without replacement via random ranks.
    ranks = root.child("chosen").uniform(size=num_rows)
    idx = np.sort(np.argsort(ranks)[:k]).astype(np.int64)
    emb[idx] *= HIGH_NORM_FACTOR
    return emb, idx
