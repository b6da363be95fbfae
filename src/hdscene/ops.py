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
    bind(bind(a, b), b) == a. Both pass the vector rule, ``b`` at ``a``'s length.
    """
    a = _checked_vector("a", a)
    return a * _checked_vector("b", b, a.shape[0])


def bundle(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Componentwise sum, without thresholding, of a list or tuple of equal-length vectors."""
    first, *rest = _checked_items("vectors", vectors, lambda name, v: v)
    first = _checked_vector("vectors[0]", first)
    return np.stack([first, *(_checked_vector(f"vectors[{i}]", v, first.shape[0])
                              for i, v in enumerate(rest, 1))]).sum(axis=0)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two vectors, in [-1, 1].

    Both must pass the vector rule, ``b`` at ``a``'s length, and the energy
    rule; a zero-norm vector is a ``ValueError`` too.
    """
    a = np.asarray(_checked_vector("a", a), dtype=np.float64)
    b = np.asarray(_checked_vector("b", b, a.shape[0]), dtype=np.float64)
    norms = math.sqrt(_energy("a", a)) * math.sqrt(_energy("b", b))
    if norms == 0.0:
        raise ValueError("cosine similarity is undefined for a zero-norm vector")
    return float(np.dot(a, b) / norms)


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


def _integer_or_float(v: np.ndarray) -> bool:
    """Whether ``v``'s dtype is integer or float (so not bool, complex, string or object)."""
    return v.dtype.kind in "iuf"


def _checked_vector(name: str, v, dim: int | None = None) -> np.ndarray:
    """The vector rule: ``v`` as a finite 1-D integer or float array, of length ``dim`` if given."""
    v = np.asarray(v)
    if v.ndim != 1 or not _integer_or_float(v):
        raise ValueError(f"{name} must be a 1-D integer or float vector, "
                         f"got dtype {v.dtype} of shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"{name} must have length {dim}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite, got NaN or inf")
    return v


def _energy(name: str, v: np.ndarray) -> float:
    """The energy rule: ``v``'s squared norm in float64, which must not overflow.
    Its ``math.sqrt`` has the bits of ``np.linalg.norm``, ``sqrt(v.dot(v))``."""
    v = np.asarray(v, dtype=np.float64)
    with np.errstate(over="ignore"):
        energy = float(np.dot(v, v))
    if not math.isfinite(energy):
        raise ValueError(f"{name} is too large: its energy overflows")
    return energy


_ACCEPTED = {int: (int, np.integer), float: (int, float, np.integer, np.floating)}


def _checked(name: str, value, kind: type, low: int | None = None, high: int | None = None):
    """``value`` as a plain ``kind``: a bool is no int, an int is a float, numpy scalars pass.

    Any other ``kind``, ``str`` included, is an ``isinstance`` test. The one bound
    rule: with ``low`` given, ``value`` must lie in [low, high], both inclusive,
    or be >= low if ``high`` is None; NaN is in no range.
    """
    if isinstance(value, bool) or not isinstance(value, _ACCEPTED.get(kind, kind)):
        raise ValueError(f"{name} must be {kind.__name__}, got {reprlib.repr(value)}")
    value = value.item() if isinstance(value, np.generic) else value
    if low is not None and not (low <= value and (high is None or value <= high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bound}, got {reprlib.repr(value)}")
    return value


def _checked_items(name: str, value, check: Callable, count: int | None = None) -> tuple:
    """The sequence rule: a non-empty list or tuple, of ``count`` items if given, each checked."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list or tuple, got {reprlib.repr(value)}")
    if count is not None and len(value) != count:
        raise ValueError(f"{name} must have {count} items, got {len(value)}")
    if not value:
        raise ValueError(f"{name} must not be empty")
    return tuple(check(name, item) for item in value)


def _checked_fraction(name: str, value) -> float:
    """``value`` as a float in (0, 1], the range of similarities; NaN is not."""
    value = _checked(name, value, float)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {reprlib.repr(value)}")
    return value
