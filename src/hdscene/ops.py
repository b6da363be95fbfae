"""Bipolar hypervector algebra: binding, bundling, similarity, activations.

Vectors are plain numpy arrays of one dtype, ``BIPOLAR_DTYPE`` (float64).
Bipolar vectors hold +1.0/-1.0; bound and bundled vectors hold exact small
integers, since every product and sum of such values stays an integer far
below 2**53. Codeword products therefore run on BLAS with no cast and give the
same bits as integer arithmetic would. All functions are pure and never
mutate their arguments.

``sign`` is branch-free: it turns the ``v < 0`` mask into +-1.0 with one
multiply and one add. A resonator's projections have random sign patterns,
so a per-element select (``np.where``) mispredicts about half its branches
and costs about twice as much at dim 1000. A microbenchmark that repeats one
input hides this, because the branch predictor learns that input's pattern.
"""

from __future__ import annotations

import math
import reprlib
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "BIPOLAR_DTYPE",
    "bind",
    "bundle",
    "cosine_similarity",
    "normalize",
    "random_bipolar",
    "resolve_activation",
    "sign",
]

BIPOLAR_DTYPE = np.float64


def random_bipolar(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one i.i.d. uniform bipolar vector of length ``dim``."""
    dim = _checked("dim", dim, int, low=1)
    return (2 * rng.integers(0, 2, size=dim) - 1).astype(BIPOLAR_DTYPE)


def bind(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise product of two vectors.

    On bipolar inputs the result is bipolar and the operation is self-inverse:
    bind(bind(a, b), b) == a.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a * b


def bundle(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Componentwise sum of the given vectors, without thresholding."""
    if len(vectors) == 0:
        raise ValueError("bundle() requires at least one vector")
    return np.stack([np.asarray(v) for v in vectors]).sum(axis=0)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two vectors, in [-1, 1].

    Each must be a 1-D integer or float vector. A zero-norm vector is a
    ``ValueError``, and so is a NaN or inf entry or a norm that overflows.
    """
    a = np.asarray(_checked_vector("a", a), dtype=np.float64)
    b = np.asarray(_checked_vector("b", b), dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    # NaN, inf and an overflowing norm all end in a non-finite denominator, checked once
    with np.errstate(over="ignore", invalid="ignore"):
        norm_a = float(np.linalg.norm(a))
        norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine similarity is undefined for a zero-norm vector")
    denominator = norm_a * norm_b
    if not math.isfinite(denominator):
        raise ValueError("cosine similarity needs finite vectors whose norms do not overflow")
    return float(np.dot(a, b) / denominator)


def sign(v: np.ndarray) -> np.ndarray:
    """Sign nonlinearity, output bipolar: -1.0 exactly where ``v < 0``, else +1.0.

    So 0.0, -0.0 and NaN (of either sign) all map to +1.0. The output is a
    float64 array of ``v``'s shape, 0-d for a scalar. It is computed as
    ``1 - 2 * (v < 0)`` with no per-element branch (see the module docstring).
    """
    return _bipolar(np.asarray(v) < 0)


def _bipolar(negative: np.ndarray) -> np.ndarray:
    """-1.0 where ``negative`` is set (True or 1), else +1.0, as a float64 array."""
    # a Python float factor makes the float64 result directly (no astype pass)
    out = negative * -2.0
    out += 1.0
    # arithmetic on a 0-d array returns a numpy scalar
    return out if negative.ndim else np.asarray(out)


def normalize(v: np.ndarray) -> np.ndarray:
    """Scale to unit Euclidean norm. The zero vector is returned unchanged."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return v.copy()
    return v / norm


_ACTIVATIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sign": sign,
    "normalization": normalize,
}


def resolve_activation(name: str) -> Callable[[np.ndarray], np.ndarray]:
    """Look up an activation function by name ("sign" or "normalization")."""
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {reprlib.repr(name)}; expected one of {sorted(_ACTIVATIONS)}"
        ) from None


def _checked_vector(name: str, v) -> np.ndarray:
    """``v`` as an array if it is a 1-D integer or float vector, else a ValueError."""
    v = np.asarray(v)
    if v.ndim != 1 or v.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a 1-D integer or float vector, "
                         f"got dtype {v.dtype} of shape {v.shape}")
    return v


_ACCEPTED = {int: (int, np.integer), float: (int, float, np.integer, np.floating), str: (str,)}


def _checked(name: str, value, kind: type, low: int | None = None):
    """``value`` as a plain ``kind``: a bool is no int, an int is a float, numpy scalars pass.

    With ``low`` given, a value below it is rejected too: the one lower-bound rule.
    """
    if isinstance(value, bool) or not isinstance(value, _ACCEPTED[kind]):
        raise ValueError(f"{name} must be {kind.__name__}, got {reprlib.repr(value)}")
    value = value.item() if isinstance(value, np.generic) else value
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {reprlib.repr(value)}")
    return value


def _checked_fraction(name: str, value) -> float:
    """``value`` as a float in (0, 1], the range of similarities and bin widths; NaN is not."""
    value = _checked(name, value, float)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {reprlib.repr(value)}")
    return value
