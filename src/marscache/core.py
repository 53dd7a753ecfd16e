"""Deterministic numerics substrate: float64 matrices, seeded splittable
randomness, and row-softmax in which -inf scores come out exactly 0.
Everything else in the package is built on these primitives, so they are
deliberately small and strict."""

from __future__ import annotations

import hashlib

import numpy as np

# Additive-mask sentinel: scores + NEG_INF before softmax zeroes a position.
NEG_INF = -np.inf

Matrix = np.ndarray  # 2-D float64, row-major


class FullyMaskedRowError(ValueError):
    """A softmax row whose entries are all masked (malformed attention plan)."""


class DegenerateVectorError(ValueError):
    """Cosine similarity against a zero-norm vector."""


def _label_key(label: str) -> int:
    # Stable across processes and platforms, unlike the builtin salted hash().
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "little")


class RandomStream:
    """Counter-based splittable random stream.

    Backed by Philox, keyed by (seed, label path). Identical construction
    yields identical draws regardless of what any other stream has done;
    child streams derived from distinct labels are independent.
    """

    def __init__(self, seed: int, path: tuple[int, ...]):
        self.seed = int(seed)
        self._path = path
        self._gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence([self.seed, *path]))
        )
        self.position = 0  # total elements drawn

    def child(self, label: str) -> "RandomStream":
        """Split off an independent stream; does not disturb this one."""
        return RandomStream(self.seed, self._path + (_label_key(label),))

    def uniform(self, size=None) -> np.ndarray:
        out = self._gen.uniform(size=size)
        self.position += int(np.size(out))
        return out

    def normal(self, size=None, std: float = 1.0) -> np.ndarray:
        out = self._gen.normal(0.0, std, size=size)
        self.position += int(np.size(out))
        return out

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        out = self._gen.integers(low, high, size=size)
        self.position += int(np.size(out))
        return out


def seeded_stream(seed: int, label: str) -> RandomStream:
    """Create the stream identified by (seed, label)."""
    return RandomStream(seed, (_label_key(label),))


def as_matrix(data) -> Matrix:
    """Coerce to a 2-D float64 array, validating finiteness."""
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def softmax_rows(scores: Matrix) -> Matrix:
    """Row-wise softmax over the last axis, normalised in a copy, so the
    input is never mutated. -inf entries (masked positions) come out exactly
    0; a row that is all -inf raises FullyMaskedRowError rather than
    returning NaNs."""
    return softmax_rows_inplace(np.array(scores, dtype=np.float64))


def softmax_rows_inplace(s: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis of the float64 array s, written
    into s and returned. Raises FullyMaskedRowError for a row that is all
    -inf or has no entries, leaving s unnormalised."""
    if s.shape[-1] == 0:
        raise FullyMaskedRowError("rows with no entries")
    row_max = np.max(s, axis=-1, keepdims=True)
    dead = ~np.isfinite(row_max)
    if np.any(dead):
        raise FullyMaskedRowError(
            f"fully masked row(s) at indices {np.flatnonzero(dead.ravel()).tolist()}"
        )
    s -= row_max
    np.exp(s, out=s)
    s /= np.sum(s, axis=-1, keepdims=True)
    return s


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Standard cosine similarity of two equal-length nonzero vectors."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    if u.shape != v.shape:
        raise ValueError(f"length mismatch: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise DegenerateVectorError("degenerate vector: zero norm")
    return float(np.dot(u, v) / (nu * nv))
