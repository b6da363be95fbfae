"""Symbolic scenes, the compositional encoder, and the noise channel.

A scene is a set of objects, each described by four attribute indices
(color, digit, y-position, x-position). Encoding binds the four selected
codewords into one bipolar compound vector per object and sums the compounds
into a single scene vector. The noise channel degrades a scene vector to any
target cosine similarity, standing in for an upstream model that emits an
imperfect version of the encoding.
"""

from __future__ import annotations

import functools
import math
import reprlib
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from .codebook import Codebook, derive_seed, generate_codebook
from .ops import _checked, _checked_fraction, _checked_items, _checked_vector, _energy

__all__ = [
    "CodebookSet",
    "ObjectSpec",
    "PAPER_SIZES",
    "SceneDescription",
    "cell_count",
    "encode_object",
    "encode_scene",
    "noisy_scene_vector",
    "random_scene",
]

# (colors, digits, y-positions, x-positions): 7 * 10 * 3 * 3 = 630 combinations
PAPER_SIZES = (7, 10, 3, 3)


def cell_count(sizes: tuple[int, ...]) -> int:
    """Number of location cells (y-positions x x-positions) for codebook ``sizes``."""
    return sizes[2] * sizes[3]


@dataclass(frozen=True)
class ObjectSpec:
    """Ground-truth attribute indices for one object."""

    color: int
    digit: int
    ypos: int
    xpos: int

    def __post_init__(self):
        # numpy ints are stored as plain ones, so to_dict() output is JSON-ready
        for name in ATTRIBUTES:
            object.__setattr__(self, name, _checked(name, getattr(self, name), int))

    @property
    def cell(self) -> tuple[int, int]:
        return (self.ypos, self.xpos)

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(getattr(self, name) for name in ATTRIBUTES)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in ATTRIBUTES}


# the attribute classes in codebook order, one per ObjectSpec field
ATTRIBUTES = tuple(f.name for f in fields(ObjectSpec))


def _checked_sizes(sizes, name: str = "sizes") -> tuple[int, ...]:
    """``sizes`` as a tuple of one int count >= 2 per attribute, else a ValueError."""
    return _checked_items(name, sizes, functools.partial(_checked, kind=int, low=2),
                          len(ATTRIBUTES))


@dataclass(frozen=True)
class SceneDescription:
    """A non-empty list or tuple of ``ObjectSpec``, no two in one location cell."""

    objects: tuple[ObjectSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "objects", _checked_items(
            "objects", self.objects, functools.partial(_checked, kind=ObjectSpec)))
        cells = [obj.cell for obj in self.objects]
        if len(set(cells)) != len(cells):
            raise ValueError("two objects share the same location cell")

    def __len__(self) -> int:
        return len(self.objects)

    def __iter__(self) -> Iterator[ObjectSpec]:
        return iter(self.objects)

    def to_dict(self) -> dict:
        return {"objects": [obj.to_dict() for obj in self.objects]}


@dataclass(frozen=True)
class CodebookSet:
    """The codebooks used jointly by the encoder and the resonator.

    ``books`` is a list or tuple of one ``Codebook`` per attribute, in ``ATTRIBUTES`` order.
    Their labels must be distinct, since trace rows are keyed by label.
    """

    books: tuple[Codebook, ...]

    def __post_init__(self):
        object.__setattr__(self, "books", _checked_items(
            "books", self.books, functools.partial(_checked, kind=Codebook), len(ATTRIBUTES)))
        labels = [cb.label for cb in self.books]
        if len(set(labels)) != len(labels):
            raise ValueError(f"codebook labels must be distinct, got {reprlib.repr(labels)}")
        dims = {cb.dim for cb in self.books}
        if len(dims) != 1:
            raise ValueError(f"all codebooks must share one dimension, got {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.books[0].dim

    @functools.cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(cb.k for cb in self.books)

    @classmethod
    def generate(cls, dim: int = 1000, sizes: tuple[int, int, int, int] = PAPER_SIZES,
                 seed: int = 0) -> "CodebookSet":
        """Generate one codebook per attribute from one master seed.

        Each codebook gets an independent child seed so the set is fully
        reproducible from (dim, sizes, seed). ``sizes`` is checked as for
        ``random_scene``; ``generate_codebook`` checks ``dim``.
        """
        sizes = _checked_sizes(sizes)
        seed = _checked("seed", seed, int, low=0)
        return cls(tuple(
            generate_codebook(label, k, dim, derive_seed(seed, index))
            for index, (label, k) in enumerate(zip(ATTRIBUTES, sizes))
        ))


def encode_object(cbs: CodebookSet, obj: ObjectSpec) -> np.ndarray:
    """Compound vector for one object: the bind of its attribute codewords."""
    return functools.reduce(np.multiply, (
        cb.codewords[_checked(attribute, index, int, low=0, high=cb.k - 1)]
        for attribute, cb, index in zip(ATTRIBUTES, cbs.books, obj.as_tuple())))


def encode_scene(cbs: CodebookSet, scene: SceneDescription) -> np.ndarray:
    """Scene vector: the componentwise sum of all per-object compound vectors.

    No nonlinearity is applied, so an L-object scene has integer components
    in [-L, L], held exactly in ``BIPOLAR_DTYPE`` (float64).
    """
    compounds = [encode_object(cbs, obj) for obj in scene]
    return np.sum(compounds, axis=0)


def random_scene(num_objects: int, rng: np.random.Generator,
                 sizes: tuple[int, int, int, int] = PAPER_SIZES) -> SceneDescription:
    """Draw a uniform random scene over codebook ``sizes`` (colors, digits, y, x).

    Colors and digits are i.i.d. uniform; location cells are sampled without
    replacement so no two objects overlap. ``sizes`` must be four ints >= 2,
    one per attribute, as for ``ExperimentConfig.codebook_sizes``. ``rng`` is a Generator.
    """
    sizes = _checked_sizes(sizes)
    n_colors, n_digits, _, n_xpos = sizes
    n_cells = cell_count(sizes)  # objects never share a cell
    num_objects = _checked("num_objects", num_objects, int, low=1, high=n_cells)
    rng = _checked("rng", rng, np.random.Generator)
    cells = rng.choice(n_cells, size=num_objects, replace=False)
    colors = rng.integers(0, n_colors, size=num_objects)
    digits = rng.integers(0, n_digits, size=num_objects)
    objects = tuple(
        ObjectSpec(color=int(c), digit=int(d), ypos=int(cell) // n_xpos, xpos=int(cell) % n_xpos)
        for c, d, cell in zip(colors, digits, cells)
    )
    return SceneDescription(objects=objects)


def noisy_scene_vector(s: np.ndarray, target_similarity: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Degrade a scene vector to an expected cosine similarity against itself.

    Adds zero-mean i.i.d. Gaussian noise with the per-component std solved
    from  E[cos] = 1 / sqrt(1 + dim * sigma**2 / ||s||**2),  so the realized
    similarity concentrates on ``target_similarity``.

    Dtype contract: a target of 1 returns an exact copy in the input's dtype
    (float64 for an encoded scene); any other target returns float64. Clean
    and noisy scenes thus reach the resonator in the codewords' dtype.
    At every target ``rng`` must be a Generator, and ``s`` must pass the vector
    rule with an energy that neither overflows nor is zero; else a ``ValueError``,
    as is noise that overflows to a vector that is not finite.
    """
    target_similarity = _checked_fraction("target_similarity", target_similarity)
    rng = _checked("rng", rng, np.random.Generator)
    s = _checked_vector("s", s)
    norm = math.sqrt(_energy("s", s))
    if norm == 0.0:
        raise ValueError("cannot add calibrated noise to a zero-norm vector")
    if target_similarity == 1.0:
        return s.copy()
    # a target whose square underflows to 0 asks for unbounded noise
    spread = math.sqrt(1.0 / target_similarity**2 - 1.0) if target_similarity**2 else math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        noisy = s + rng.normal(0.0, norm / math.sqrt(s.shape[0]) * spread, size=s.shape)
    if not np.isfinite(noisy).all():
        raise ValueError("noisy scene vector is not finite: the noise overflows")
    return noisy
