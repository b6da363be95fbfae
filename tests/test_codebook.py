import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdscene.codebook import (
    Codebook,
    _first_rows,
    argmax_readout,
    cleanup,
    derive_seed,
    generate_codebook,
)
from hdscene.ops import BIPOLAR_DTYPE, bundle, random_bipolar
from hdscene.scene import CodebookSet

N = 1000


def test_generation_is_deterministic():
    a = generate_codebook("digit", 10, N, seed=42)
    b = generate_codebook("digit", 10, N, seed=42)
    assert np.array_equal(a.codewords, b.codewords)


def test_generation_shape_and_values():
    cb = generate_codebook("color", 7, N, seed=1)
    assert cb.codewords.shape == (7, N)
    assert set(np.unique(cb.codewords)) == {-1, 1}
    assert cb.k == 7 and cb.dim == N


def test_generation_argument_errors():
    with pytest.raises(ValueError):
        generate_codebook("x", 1, N, seed=0)
    with pytest.raises(ValueError):
        generate_codebook("x", 4, 0, seed=0)


def test_codewords_pairwise_distinct_at_tiny_dim():
    # dim 2 has only four bipolar vectors, so collisions must be regenerated
    for seed in range(50):
        cb = generate_codebook("tiny", 3, 2, seed=seed)
        assert np.unique(cb.codewords, axis=0).shape[0] == 3


def test_pairwise_similarity_bound():
    # 45 pairs, each |cos| < 5/sqrt(N) with overwhelming probability
    cb = generate_codebook("digit", 10, N, seed=3)
    gram = (cb.codewords @ cb.codewords.T) / N
    off = gram[~np.eye(10, dtype=bool)]
    assert np.abs(off).max() < 0.16


def test_cleanup_fixes_every_codeword_many_seeds():
    # diagonal term N dominates the K-1 cross terms
    for seed in range(100):
        cb = generate_codebook("digit", 10, N, seed=seed)
        for k in range(cb.k):
            assert np.array_equal(cleanup(cb, cb.codewords[k]), cb.codewords[k])


def test_cleanup_noise_margin():
    # one bundled random bipolar perturbation does not move the fixed point
    for seed in range(200):
        cb = generate_codebook("digit", 10, N, seed=seed)
        rng = np.random.default_rng(10_000 + seed)
        k = int(rng.integers(cb.k))
        noisy = bundle([cb.codewords[k], random_bipolar(N, rng)])
        assert np.array_equal(cleanup(cb, noisy), cb.codewords[k])


def test_cleanup_zero_vector_gives_all_ones():
    cb = generate_codebook("color", 7, N, seed=0)
    assert np.array_equal(cleanup(cb, np.zeros(N, dtype=np.int64)), np.ones(N, dtype=np.int64))


def test_cleanup_output_bipolar_under_sign(rng):
    cb = generate_codebook("color", 7, N, seed=0)
    out = cleanup(cb, rng.normal(size=N))
    assert set(np.unique(out)) <= {-1, 1}


def test_cleanup_normalization_activation(rng):
    cb = generate_codebook("color", 7, N, seed=0)
    out = cleanup(cb, rng.normal(size=N), activation="normalization")
    assert np.linalg.norm(out) == pytest.approx(1.0)


def test_cleanup_dimension_mismatch():
    cb = generate_codebook("color", 7, N, seed=0)
    with pytest.raises(ValueError):
        cleanup(cb, np.ones(N + 1))


def test_argmax_readout_dimension_mismatch():
    cb = generate_codebook("color", 7, N, seed=0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        argmax_readout(cb, np.ones(N + 1))


def test_argmax_readout_identity_all_seeds():
    for seed in range(20):
        cb = generate_codebook("digit", 10, N, seed=seed)
        for k in range(cb.k):
            assert argmax_readout(cb, cb.codewords[k]) == k


def test_argmax_readout_negated_codeword_two_words():
    cb = generate_codebook("pair", 2, N, seed=8)
    assert argmax_readout(cb, -cb.codewords[0]) == 1
    assert argmax_readout(cb, -cb.codewords[1]) == 0


def test_argmax_readout_weighted_bundle():
    # dot products 2N vs N beat the cross-term noise
    for seed in range(50):
        cb = generate_codebook("digit", 10, N, seed=seed)
        v = bundle([cb.codewords[1], cb.codewords[1], cb.codewords[5]])
        assert argmax_readout(cb, v) == 1


def test_argmax_readout_tie_breaks_low_index():
    cb = Codebook(label="t", codewords=np.array([[-1, 1], [1, 1], [1, -1]]))
    # rows 1 and 2 tie on [1, 0]; argmax returns the lower index
    assert argmax_readout(cb, np.array([1, 0])) == 1


@pytest.mark.parametrize("words, message", [
    ([[2.0, 0.5], [1.0, 1.0]], "bipolar"),
    ([[1, 0], [1, 1]], "bipolar"),
    ([[1, np.nan], [-1, 1]], "bipolar"),
    ([1, -1], "2-D"),
    (np.ones((2, 2, 2)), "2-D"),
    pytest.param([[1, -1]], "k must be >= 2, got 1", id="words5-at least 2 codewords"),
    (np.ones((2, 0)), "dim must be >= 1"),
    ([[1, -1], [1, -1]], "pairwise distinct"),
])
def test_constructor_rejects_codewords_that_break_the_invariant(words, message):
    with pytest.raises(ValueError, match=message):
        Codebook(label="x", codewords=words)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("words, dtype", [
    (np.array([[1 + 5j, -1], [-1, 1]]), "complex128"),
    ([["1", "-1"], ["-1", "1"]], "<U2"),
    (np.array([[1, -1], [-1, 1]], dtype=object), "object"),
    ([[True, False], [False, True]], "bool"),
])
def test_constructor_rejects_codewords_that_are_not_integers_or_floats(words, dtype):
    # checked before the cast, which would drop an imaginary part or parse strings
    with pytest.raises(ValueError, match=f"integers or floats, got dtype {dtype}$"):
        Codebook(label="x", codewords=words)


def _reference_cleanup(cb, v, activation):
    # the products and activations as cleanup wrote them before it called np.dot
    projected = (cb.codewords @ v) @ cb.codewords
    if activation == "sign":
        return np.where(projected < 0, -1.0, 1.0)
    norm = float(np.linalg.norm(projected))
    return projected.copy() if norm == 0.0 else projected / norm


def _scene_like(kind, dim, rng):
    """A vector as a resonator meets it: a clean integer scene (signed zeros
    included) or a noisy one, in each dtype and layout a caller may pass."""
    objects = int(rng.integers(1, 5))
    clean = np.sum([random_bipolar(dim, rng) for _ in range(objects)], axis=0)
    clean[(clean == 0) & (rng.random(dim) < 0.5)] = -0.0
    noisy = clean + rng.normal(0.0, float(rng.uniform(0.1, 10.0)), size=dim)
    return {"clean": clean, "noisy": noisy, "float32": noisy.astype(np.float32),
            "int64": clean.astype(np.int64),
            "strided": np.stack([noisy, clean], axis=1)[:, 0]}[kind]


@st.composite
def cleanup_cases(draw):
    dim = draw(st.integers(1, 1000))
    k = draw(st.integers(2, min(10, 2**dim)))
    cb = generate_codebook("x", k, dim, seed=draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["clean", "noisy", "float32", "int64", "strided"]))
    return cb, _scene_like(kind, dim, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=cleanup_cases())
def test_cleanup_and_readout_give_the_matmul_formula_bits_property(case):
    cb, v = case
    for activation in ("sign", "normalization"):
        out, reference = cleanup(cb, v, activation), _reference_cleanup(cb, v, activation)
        assert out.dtype == reference.dtype == BIPOLAR_DTYPE
        assert out.tobytes() == reference.tobytes()
    assert argmax_readout(cb, v) == int(np.argmax(cb.codewords @ v))


def test_derive_seed_is_stable_and_part_sensitive():
    assert derive_seed(7, 0) == derive_seed(7, 0)
    assert derive_seed(7, 0) != derive_seed(7, 1)
    assert derive_seed(7, 0, 1) != derive_seed(7, 1, 0)


def test_generation_rejects_more_codewords_than_distinct_vectors():
    # dim 1 has two bipolar vectors, so a third distinct codeword cannot exist
    with pytest.raises(ValueError, match="distinct codewords"):
        generate_codebook("x", 3, 1, seed=0)
    with pytest.raises(ValueError, match="distinct codewords"):
        generate_codebook("x", 5, 2, seed=0)
    assert generate_codebook("x", 2, 1, seed=0).k == 2
    assert generate_codebook("x", 4, 2, seed=0).k == 4


def test_codewords_are_stored_once_in_the_bipolar_dtype():
    cb = generate_codebook("c", 5, 64, seed=3)
    assert cb.codewords.dtype == BIPOLAR_DTYPE
    given_ints = Codebook(label="t", codewords=np.array([[1, -1], [-1, 1]]))
    assert given_ints.codewords.dtype == BIPOLAR_DTYPE


def test_codeword_sum_is_cached_and_read_only():
    cb = generate_codebook("c", 5, 64, seed=3)
    assert np.array_equal(cb.codeword_sum, cb.codewords.sum(axis=0))
    assert cb.codeword_sum is cb.codeword_sum
    with pytest.raises(ValueError):
        cb.codeword_sum[0] = 0.0


def test_codebook_owns_read_only_codewords():
    # float64 codewords need no cast, so only an explicit copy keeps the caller's array out
    words = np.array([[1.0, -1.0], [-1.0, 1.0]])
    cb = Codebook("x", words)
    words[0, 0] = 5
    assert cb.codewords.tolist() == [[1.0, -1.0], [-1.0, 1.0]]
    with pytest.raises(ValueError, match="read-only"):
        cb.codewords[0, 0] = 5
    assert cb.codeword_sum.tolist() == [0.0, 0.0]


def test_codebooks_and_sets_compare_and_hash_by_label_and_codewords():
    cb = generate_codebook("x", 3, 8, 0)
    twin = generate_codebook("x", 3, 8, 0)
    assert cb == twin and hash(cb) == hash(twin)
    assert cb == Codebook("x", cb.codewords.astype(np.int64))
    assert cb != generate_codebook("x", 3, 8, 1)
    assert cb != generate_codebook("y", 3, 8, 0)
    assert cb != generate_codebook("x", 4, 8, 0)
    assert cb != "x"
    assert len({cb, twin}) == 1
    cbs = CodebookSet.generate(8, seed=1)
    assert cbs == CodebookSet.generate(8, seed=1)
    assert hash(cbs) == hash(CodebookSet.generate(8, seed=1))
    assert cbs != CodebookSet.generate(8, seed=2)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 12), dim=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_first_rows_matches_unique_along_rows(k, dim, seed):
    # few distinct rows at dim <= 6, so most examples hold duplicates
    words = 2 * np.random.default_rng(seed).integers(0, 2, size=(k, dim)) - 1
    _, reference = np.unique(words, axis=0, return_index=True)
    assert sorted(_first_rows(words).tolist()) == sorted(reference.tolist())
