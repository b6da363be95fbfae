"""Attribute codebooks: random bipolar codewords with cleanup and readout.

A codebook stores one random bipolar codeword per possible value of an
attribute class (color, digit, y-position, x-position). Cleanup projects a
noisy estimate onto the span of the codewords and reapplies the nonlinearity,
which is the clean-up step of one resonator module. Readout picks the single
best-matching codeword index.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .ops import BIPOLAR_DTYPE, _checked, _integer_or_float, resolve_activation

__all__ = [
    "Codebook",
    "argmax_readout",
    "cleanup",
    "derive_seed",
    "generate_codebook",
]


def derive_seed(*parts: int) -> int:
    """Derive an independent child seed from integer parts, deterministically."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass(frozen=True)
class Codebook:
    """K pairwise-distinct bipolar codewords for one attribute class.

    ``label`` must be a str, since trace rows are keyed by it. ``codewords``
    has shape (k, dim) with one codeword per row. It is given as an integer
    or float array, any other dtype being a ``ValueError`` before the cast,
    and stored as a read-only ``BIPOLAR_DTYPE`` copy that the codebook owns,
    so neither the checked invariant nor ``codeword_sum`` can go stale.
    Codebooks compare equal, and hash alike, by label and codewords.

    The constructor checks the invariant on every path, ``generate_codebook``
    included: a 2-D matrix of at least 2 rows and 1 column, every entry +1 or
    -1, no row repeated; else a ``ValueError``.
    """

    label: str
    codewords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "label", _checked("label", self.label, str))
        words = np.asarray(self.codewords)
        if not _integer_or_float(words):
            raise ValueError(f"codewords must be integers or floats, got dtype {words.dtype}")
        words = words.astype(BIPOLAR_DTYPE)  # always a copy: the caller keeps theirs
        if words.ndim != 2:
            raise ValueError(f"codewords must be a 2-D matrix, got shape {words.shape}")
        _checked("k", words.shape[0], int, low=2)
        _checked("dim", words.shape[1], int, low=1)
        if not np.all(np.abs(words) == 1):
            raise ValueError("codewords must be bipolar (+1/-1)")
        if _first_rows(words).size != words.shape[0]:
            raise ValueError("codewords must be pairwise distinct")
        words.setflags(write=False)
        object.__setattr__(self, "codewords", words)

    def __eq__(self, other):
        if not isinstance(other, Codebook):
            return NotImplemented
        return self.label == other.label and np.array_equal(self.codewords, other.codewords)

    def __hash__(self):
        return hash((self.label, self.codewords.tobytes()))

    @property
    def k(self) -> int:
        return self.codewords.shape[0]

    @property
    def dim(self) -> int:
        return self.codewords.shape[1]

    @functools.cached_property
    def codeword_sum(self) -> np.ndarray:
        """The sum of all codewords (read-only), computed once per codebook."""
        total = self.codewords.sum(axis=0)
        total.setflags(write=False)
        return total


def _first_rows(words: np.ndarray) -> np.ndarray:
    """Index of the first occurrence of each distinct row of a 2-D array."""
    # one opaque item per row sorts by memcmp; np.unique(axis=0) compares the
    # rows field by field and costs milliseconds per codebook at dim 1000
    rows = np.ascontiguousarray(words).view(np.dtype((np.void, words.shape[1] * words.itemsize)))
    return np.unique(rows.ravel(), return_index=True)[1]


def generate_codebook(label: str, k: int, dim: int, seed: int) -> Codebook:
    """Generate ``k`` i.i.d. uniform bipolar codewords of length ``dim``.

    Deterministic for a given seed. Colliding rows are redrawn until all
    codewords are pairwise distinct; at realistic dimensions collisions have
    probability 2**-dim and the guard only matters for tiny test sizes.
    """
    k, dim, seed = (_checked(name, value, int, low)
                    for name, value, low in (("k", k, 2), ("dim", dim, 1), ("seed", seed, 0)))
    if dim < 64 and k > 2**dim:
        raise ValueError(f"only 2**{dim} distinct codewords of length {dim} exist, got k={k}")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(k, dim))
    while True:
        first = _first_rows(bits)
        if first.size == k:
            break
        keep = np.zeros(k, dtype=bool)
        keep[first] = True
        bits[~keep] = rng.integers(0, 2, size=(int((~keep).sum()), dim))
    return Codebook(label=label, codewords=2 * bits - 1)


def cleanup(cb: Codebook, v: np.ndarray, activation: str = "sign") -> np.ndarray:
    """Project ``v`` onto the codeword span, then apply the activation.

    Computes codewords.T @ (codewords @ v) as two matrix-vector products,
    never materializing the dim x dim projection matrix. ``np.dot`` reaches
    the same BLAS calls as ``@`` with less overhead per call.

    Only ``v``'s shape is checked: this runs once per module per step, after
    ``run`` or ``step`` applied the vector rule to the scene vector.
    """
    v = np.asarray(v)
    if v.shape != (cb.dim,):
        raise ValueError(f"dimension mismatch: vector {v.shape} vs codebook dim {cb.dim}")
    coefficients = np.dot(cb.codewords, v)
    projected = np.dot(coefficients, cb.codewords)
    return resolve_activation(activation)(projected)


def argmax_readout(cb: Codebook, v: np.ndarray) -> int:
    """Index of the codeword with the largest dot product against ``v``.

    Ties resolve to the lowest index. Only ``v``'s shape is checked, as in ``cleanup``.
    """
    v = np.asarray(v)
    if v.shape != (cb.dim,):
        raise ValueError(f"dimension mismatch: vector {v.shape} vs codebook dim {cb.dim}")
    return int(np.dot(cb.codewords, v).argmax())
