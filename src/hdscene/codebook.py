"""Attribute codebooks: random bipolar codewords with cleanup and readout.

A codebook stores one random bipolar codeword per possible value of an
attribute class (color, digit, y-position, x-position). Cleanup projects a
noisy estimate onto the span of the codewords and reapplies the nonlinearity,
which is the clean-up step of one resonator module. Readout picks the single
best-matching codeword index.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ops import BIPOLAR_DTYPE, _checked, resolve_activation

__all__ = [
    "Codebook",
    "argmax_readout",
    "cleanup",
    "derive_seed",
    "generate_codebook",
    "load_codebook",
    "save_codebook",
]


def derive_seed(*parts: int) -> int:
    """Derive an independent child seed from integer parts, deterministically."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass(frozen=True)
class Codebook:
    """K pairwise-distinct bipolar codewords for one attribute class.

    ``codewords`` has shape (k, dim) with one codeword per row, stored as
    ``BIPOLAR_DTYPE`` whatever dtype it is given in. ``seed`` is the
    generation seed, kept so experiments can pin exact codebooks.
    """

    label: str
    codewords: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "codewords", np.asarray(self.codewords, dtype=BIPOLAR_DTYPE))

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

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "k": self.k,
            "dim": self.dim,
            "seed": self.seed,
            "codewords": self.codewords.astype(int).tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Codebook":
        """Rebuild a codebook from ``to_dict()`` output; bad data is a ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"a codebook must be a JSON object, got {type(data).__name__}")
        missing = [key for key in ("label", "k", "dim", "codewords") if key not in data]
        if missing:
            raise ValueError(f"codebook is missing keys {missing}")
        label = _checked("label", data["label"], str)
        k, dim = (_checked(key, data[key], int) for key in ("k", "dim"))
        seed = None if data.get("seed") is None else _checked("seed", data["seed"], int)
        if k < 2:
            raise ValueError(f"a codebook needs at least 2 codewords, got k={k}")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        try:
            words = np.asarray(data["codewords"])
        except ValueError:
            raise ValueError("codewords must be a rectangular matrix") from None
        if words.ndim != 2 or words.shape != (k, dim):
            raise ValueError("codeword matrix does not match the declared (k, dim)")
        for row in data["codewords"]:
            for entry in row:
                _checked("codewords entry", entry, int)
        if not np.all(np.abs(words) == 1):
            raise ValueError("codewords must be bipolar (+1/-1)")
        if _first_rows(words).size != words.shape[0]:
            raise ValueError("codewords must be pairwise distinct")
        return cls(label=label, codewords=words, seed=seed)


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
    label = _checked("label", label, str)
    k, dim, seed = (_checked(name, value, int)
                    for name, value in (("k", k), ("dim", dim), ("seed", seed)))
    if k < 2:
        raise ValueError(f"a codebook needs at least 2 codewords, got k={k}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
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
    return Codebook(label=label, codewords=2 * bits - 1, seed=seed)


def cleanup(cb: Codebook, v: np.ndarray, activation: str = "sign") -> np.ndarray:
    """Project ``v`` onto the codeword span, then apply the activation.

    Computes codewords.T @ (codewords @ v) as two matrix-vector products,
    never materializing the dim x dim projection matrix. ``np.dot`` reaches
    the same BLAS calls as ``@`` with less overhead per call.
    """
    v = np.asarray(v)
    if v.shape != (cb.dim,):
        raise ValueError(f"dimension mismatch: vector {v.shape} vs codebook dim {cb.dim}")
    coefficients = np.dot(cb.codewords, v)
    projected = np.dot(coefficients, cb.codewords)
    return resolve_activation(activation)(projected)


def argmax_readout(cb: Codebook, v: np.ndarray) -> int:
    """Index of the codeword with the largest dot product against ``v``.

    Ties resolve to the lowest index.
    """
    v = np.asarray(v)
    if v.shape != (cb.dim,):
        raise ValueError(f"dimension mismatch: vector {v.shape} vs codebook dim {cb.dim}")
    return int(np.dot(cb.codewords, v).argmax())


def save_codebook(cb: Codebook, path: str | Path) -> None:
    """Write a codebook to a JSON file."""
    Path(path).write_text(json.dumps(cb.to_dict()))


def load_codebook(path: str | Path) -> Codebook:
    """Read a codebook from a JSON file, validating its invariants."""
    return Codebook.from_dict(_read_json(path))


def _read_json(path: str | Path):
    """Parse a JSON file; malformed JSON, or JSON nested too deep to parse, is a ValueError."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None
