"""Desk-scale bidirectional masked-diffusion decoding engine over synthetic
frame-structured multimodal token sequences, with asynchronous cache
refreshing, frame-wise chunk attention, and adaptive anchor-token search,
benchmarked against vanilla and dual-cache baselines."""

from .analysis import (
    CostReport,
    DriftRecord,
    attention_cost,
    attention_entropy,
    decode_drift,
    drift,
    relocate_high_norm,
    visibility_frequency,
)
from .core import (
    NEG_INF,
    DegenerateVectorError,
    FullyMaskedRowError,
    Matrix,
    RandomStream,
    cosine_similarity,
    seeded_stream,
    softmax_rows,
)
from .diffusion import (
    DecodeConfig,
    DecodeTrace,
    DiffusionState,
    SequenceLayout,
    decode,
    dlm_loss,
    forward_mask,
    select_unmask,
)
from .engines import EngineParams, make_engine
from .mars import (
    AnchorPlan,
    RefreshSchedule,
    anchor_augmented_attention,
    chunk_attention,
    chunk_entry_count,
    neighborhood,
    proxy_scores,
    refresh_due,
    relocate_anchors,
    select_anchors,
    validate_schedule,
)
from .model import (
    LayerActivations,
    ModelConfig,
    Weights,
    attention,
    build_causal_mask,
    forward,
    init_weights,
    load_weights,
    save_weights,
)
from .workload import Workload, default_layout, make_high_norm_embeddings, make_workload

__version__ = "0.1.0"
