"""Attribute codebooks: random bipolar codewords with cleanup and readout.

A codebook stores one random bipolar codeword per possible value of an
attribute class (color, digit, y-position, x-position). Cleanup projects a
noisy estimate onto the span of the codewords and reapplies the nonlinearity,
which is the clean-up step of one resonator module. Readout picks the single
best-matching codeword index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ops import BIPOLAR_DTYPE, resolve_activation

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

    ``codewords`` has shape (k, dim) with one codeword per row. ``seed`` is
    the generation seed, kept so experiments can pin exact codebooks.
    """

    label: str
    codewords: np.ndarray
    seed: int | None = None

    @property
    def k(self) -> int:
        return self.codewords.shape[0]

    @property
    def dim(self) -> int:
        return self.codewords.shape[1]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "k": self.k,
            "dim": self.dim,
            "seed": self.seed,
            "codewords": self.codewords.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Codebook":
        """Rebuild a codebook from ``to_dict()`` output; bad data is a ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"a codebook must be a JSON object, got {type(data).__name__}")
        missing = [key for key in ("label", "k", "dim", "codewords") if key not in data]
        if missing:
            raise ValueError(f"codebook is missing keys {missing}")
        if not isinstance(data["label"], str):
            raise ValueError(f"codebook label must be a string, got {data['label']!r}")
        for key in ("k", "dim", "seed"):
            value = data.get(key)
            if key == "seed" and value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"codebook {key} must be an integer, got {value!r}")
        if data["k"] < 2:
            raise ValueError(f"a codebook needs at least 2 codewords, got k={data['k']}")
        if data["dim"] < 1:
            raise ValueError(f"dim must be >= 1, got {data['dim']}")
        try:
            words = np.asarray(data["codewords"])
        except ValueError:
            raise ValueError("codewords must be a rectangular matrix") from None
        if words.dtype.kind not in "iu":
            raise ValueError("codewords must be a matrix of integers")
        words = words.astype(BIPOLAR_DTYPE)
        if words.ndim != 2 or words.shape != (data["k"], data["dim"]):
            raise ValueError("codeword matrix does not match the declared (k, dim)")
        if not np.all(np.abs(words) == 1):
            raise ValueError("codewords must be bipolar (+1/-1)")
        if np.unique(words, axis=0).shape[0] != words.shape[0]:
            raise ValueError("codewords must be pairwise distinct")
        return cls(label=data["label"], codewords=words, seed=data.get("seed"))


def generate_codebook(label: str, k: int, dim: int, seed: int) -> Codebook:
    """Generate ``k`` i.i.d. uniform bipolar codewords of length ``dim``.

    Deterministic for a given seed. Colliding rows are redrawn until all
    codewords are pairwise distinct; at realistic dimensions collisions have
    probability 2**-dim and the guard only matters for tiny test sizes.
    """
    if k < 2:
        raise ValueError(f"a codebook needs at least 2 codewords, got k={k}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if dim < 64 and k > 2**dim:
        raise ValueError(f"only 2**{dim} distinct codewords of length {dim} exist, got k={k}")
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 2, size=(k, dim), dtype=BIPOLAR_DTYPE) * 2 - 1
    while True:
        _, first = np.unique(words, axis=0, return_index=True)
        if first.size == k:
            break
        keep = np.zeros(k, dtype=bool)
        keep[first] = True
        redraw = int((~keep).sum())
        words[~keep] = rng.integers(0, 2, size=(redraw, dim), dtype=BIPOLAR_DTYPE) * 2 - 1
    return Codebook(label=label, codewords=words, seed=seed)


def cleanup(cb: Codebook, v: np.ndarray, activation: str = "sign") -> np.ndarray:
    """Project ``v`` onto the codeword span, then apply the activation.

    Computes codewords.T @ (codewords @ v) as two matrix-vector products,
    never materializing the dim x dim projection matrix.
    """
    v = np.asarray(v)
    if v.shape != (cb.dim,):
        raise ValueError(f"dimension mismatch: vector {v.shape} vs codebook dim {cb.dim}")
    coefficients = cb.codewords @ v
    projected = coefficients @ cb.codewords
    return resolve_activation(activation)(projected)


def argmax_readout(cb: Codebook, v: np.ndarray) -> int:
    """Index of the codeword with the largest dot product against ``v``.

    Ties resolve to the lowest index.
    """
    v = np.asarray(v)
    if v.shape != (cb.dim,):
        raise ValueError(f"dimension mismatch: vector {v.shape} vs codebook dim {cb.dim}")
    return int(np.argmax(cb.codewords @ v))


def save_codebook(cb: Codebook, path: str | Path) -> None:
    """Write a codebook to a JSON file."""
    Path(path).write_text(json.dumps(cb.to_dict()))


def load_codebook(path: str | Path) -> Codebook:
    """Read a codebook from a JSON file, validating its invariants."""
    return Codebook.from_dict(json.loads(Path(path).read_text()))
