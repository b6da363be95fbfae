import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hdscene import ops
from hdscene.ops import (
    BIPOLAR_DTYPE,
    bind,
    bundle,
    cosine_similarity,
    _normalize,
    _resolve_activation,
    random_bipolar,
    sign,
)

N = 1000


def test_bind_componentwise_product():
    out = bind(np.array([1, -1, 1]), np.array([-1, -1, 1]))
    assert out.tolist() == [-1, 1, 1]


def test_bind_self_gives_all_ones(rng):
    x = random_bipolar(N, rng)
    assert np.array_equal(bind(x, x), np.ones(N, dtype=np.int64))


def test_bind_self_inverse(rng):
    a = random_bipolar(N, rng)
    b = random_bipolar(N, rng)
    assert np.array_equal(bind(bind(a, b), b), a)


def test_bind_commutative_and_associative(rng):
    a, b, c = (random_bipolar(N, rng) for _ in range(3))
    assert np.array_equal(bind(a, b), bind(b, a))
    assert np.array_equal(bind(bind(a, b), c), bind(a, bind(b, c)))


def test_bind_properties_exhaustive_small_dim():
    # every bipolar pair/triple at dim 2
    vectors = [np.array(v) for v in
               ([1, 1], [1, -1], [-1, 1], [-1, -1])]
    for a in vectors:
        for b in vectors:
            assert np.array_equal(bind(a, b), bind(b, a))
            assert np.array_equal(bind(bind(a, b), b), a)
            for c in vectors:
                assert np.array_equal(bind(bind(a, b), c), bind(a, bind(b, c)))


def test_bind_distributes_over_bundle(rng):
    a, b, c = (random_bipolar(N, rng) for _ in range(3))
    left = bind(bundle([a, b]), c)
    right = bundle([bind(a, c), bind(b, c)])
    assert np.array_equal(left, right)


def test_bind_dimension_mismatch():
    with pytest.raises(ValueError):
        bind(np.ones(3), np.ones(4))


def test_cosine_dimension_mismatch():
    with pytest.raises(ValueError) as excinfo:
        cosine_similarity(np.ones(3), np.ones(4))
    assert str(excinfo.value) == "b must have length 3, got 4"


def test_random_bipolar_rejects_an_empty_dim(rng):
    with pytest.raises(ValueError, match="dim must be >= 1"):
        random_bipolar(0, rng)


def test_bundle_singleton(rng):
    x = random_bipolar(N, rng)
    assert np.array_equal(bundle([x]), x)


def test_bundle_cancellation(rng):
    x = random_bipolar(N, rng)
    assert np.array_equal(bundle([x, -x]), np.zeros(N, dtype=np.int64))


def test_bundle_columnwise_sums():
    out = bundle([np.array([1, 1]), np.array([1, -1]), np.array([-1, -1])])
    assert out.tolist() == [1, -1]


def test_bundle_is_not_thresholded(rng):
    vs = [random_bipolar(8, rng) for _ in range(5)]
    assert np.array_equal(bundle(vs), np.sum(vs, axis=0))


def test_bundle_checks_each_vector_once(monkeypatch):
    checked, original = [], ops._checked_vector
    monkeypatch.setattr(ops, "_checked_vector",
                        lambda *args: checked.append(args[0]) or original(*args))
    assert bundle([np.ones(4), np.ones(4)]).tolist() == [2.0] * 4
    assert checked == ["vectors[0]", "vectors[1]"]


def test_bundle_empty_list():
    with pytest.raises(ValueError):
        bundle([])


def test_cosine_self_and_negation(rng):
    x = random_bipolar(N, rng)
    assert cosine_similarity(x, x) == pytest.approx(1.0)
    assert cosine_similarity(x, -x) == pytest.approx(-1.0)


def test_cosine_zero_norm_rejected(rng):
    x = random_bipolar(N, rng)
    with pytest.raises(ValueError):
        cosine_similarity(x, np.zeros(N))


def test_cosine_random_pair_statistics():
    # dot of independent bipolar pairs is a +-1 random walk: mean 0, std 1/sqrt(N)
    rng = np.random.default_rng(2024)
    sims = np.empty(10_000)
    for i in range(sims.size):
        sims[i] = cosine_similarity(random_bipolar(N, rng), random_bipolar(N, rng))
    assert abs(sims.mean()) < 0.001
    assert abs(sims.std() / (1 / np.sqrt(N)) - 1) < 0.10


def test_cosine_concentration_bound():
    # |cos| < 5/sqrt(N) fails with probability ~5.7e-7 per pair
    rng = np.random.default_rng(99)
    bound = 5 / np.sqrt(N)
    inside = sum(
        abs(cosine_similarity(random_bipolar(N, rng), random_bipolar(N, rng))) < bound
        for _ in range(10_000)
    )
    assert inside >= 9990


def test_sign_values_and_tie_break():
    assert sign(np.array([3, -2, 5])).tolist() == [1, -1, 1]
    assert sign(np.array([0, -1])).tolist() == [1, -1]


def test_sign_idempotent_on_bipolar(rng):
    x = random_bipolar(N, rng)
    assert np.array_equal(sign(x), x)
    v = rng.normal(size=N)
    assert np.array_equal(sign(sign(v)), sign(v))


def test_sign_maps_zeros_and_nans_to_plus_one():
    # a copysign shortcut would send -0.0 and -NaN to -1
    v = np.array([-0.0, 0.0, np.nan, -np.nan, -np.inf, np.inf, -1e-300])
    assert np.signbit(v[3])
    out = sign(v)
    assert out.dtype == BIPOLAR_DTYPE
    assert out.tolist() == [1.0, 1.0, 1.0, 1.0, -1.0, 1.0, -1.0]


def _projection_like(first, dtype=np.float64):
    # varied signs with a -0.0 and a -NaN inside, which only a guarded kernel may meet
    p = np.random.default_rng(5).normal(size=N).astype(dtype)
    p[0], p[7], p[9] = first, -0.0, -np.nan
    return p


@pytest.mark.parametrize("p", [
    pytest.param(np.random.default_rng(5).normal(size=N), id="projection"),
    pytest.param(np.where(np.arange(N) % 3 == 0, -0.0, 0.0), id="zeros"),
    pytest.param(np.full(N, -0.0), id="negative-zeros"),
    *(pytest.param(_projection_like(first), id=name) for name, first in [
        ("zero", 0.0), ("negative-zero", -0.0), ("nan", np.nan), ("negative-nan", -np.nan),
        ("inf", np.inf), ("negative-inf", -np.inf)]),
    pytest.param(_projection_like(1.5, np.float32), id="float32"),
    pytest.param(_projection_like(1.5, np.longdouble), id="longdouble"),
])
def test_the_sign_kernel_gives_the_where_formula_bits(p):
    # the kernel copies p's sign bits only behind its guard on p[0]; any projection whose
    # first component is zero, NaN or inf, or whose dtype is not float64, takes the mask
    out = ops._sign(p.copy())
    assert out.dtype == BIPOLAR_DTYPE and out.tobytes() == _where_sign(p).tobytes()


def test_generated_vectors_have_the_bipolar_dtype(rng):
    x = random_bipolar(N, rng)
    assert x.dtype == BIPOLAR_DTYPE == np.float64
    assert set(np.unique(x)) <= {-1.0, 1.0}
    assert sign(np.array([3, -2])).dtype == BIPOLAR_DTYPE


# bipolar vectors drawn through random_bipolar, so they carry BIPOLAR_DTYPE
bipolar_lists = st.integers(1, 64).flatmap(
    lambda dim: st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=6).map(
        lambda seeds: [random_bipolar(dim, np.random.default_rng(seed)) for seed in seeds]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(vectors=bipolar_lists)
def test_bind_is_self_inverse_property(vectors):
    a, b = vectors[0], vectors[1]
    assert np.array_equal(bind(bind(a, b), b), a)
    assert np.array_equal(bind(b, b), np.ones_like(b))
    assert bind(a, b).dtype == BIPOLAR_DTYPE


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(vectors=bipolar_lists, order=st.randoms(use_true_random=False))
def test_bundle_is_order_free_property(vectors, order):
    shuffled = list(vectors)
    order.shuffle(shuffled)
    total = bundle(vectors)
    # integer sums are exact in float64, so any order gives the same bits
    assert total.tobytes() == bundle(shuffled).tobytes()
    assert np.array_equal(total, np.sum(np.stack(vectors).astype(int), axis=0))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1,
                       max_size=64))
def test_sign_is_idempotent_property(values):
    once = sign(np.array(values, dtype=np.float64))
    assert np.array_equal(sign(once), once)
    assert set(once.tolist()) <= {-1.0, 1.0}


def _where_sign(v):
    # the formula sign had before it went branch-free, frozen as the reference
    return np.where(np.asarray(v) < 0, -1.0, 1.0)


def _edge_values(dtype):
    if dtype.kind == "i":
        return [0, -1, 1, np.iinfo(dtype).min, np.iinfo(dtype).max]
    tiny = np.nextafter(dtype.type(0), dtype.type(1))  # the smallest subnormal
    return [dtype.type(x) for x in (0.0, -0.0, np.nan, np.copysign(np.nan, -1), np.inf,
                                    -np.inf, tiny, -tiny)]


@st.composite
def sign_inputs(draw):
    dtype = np.dtype(draw(st.sampled_from([np.float64, np.float32, np.int64])))
    elements = st.one_of(st.sampled_from(_edge_values(dtype)), hnp.from_dtype(dtype))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=16))
    return draw(hnp.arrays(dtype, shape, elements=elements))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(v=sign_inputs())
def test_sign_gives_the_where_formula_bits_property(v):
    out, reference = sign(v), _where_sign(v)
    assert type(out) is type(reference) is np.ndarray
    assert out.dtype == reference.dtype == BIPOLAR_DTYPE
    assert out.shape == reference.shape
    assert out.tobytes() == reference.tobytes()


@pytest.mark.parametrize("value", [-0.0, 0.0, float("nan"), -float("nan"), -3, 2, -1e-320,
                                   [[-0.0, 1.5], [-2.0, float("inf")]]])
def test_sign_of_python_values_matches_the_where_formula(value):
    out, reference = sign(value), _where_sign(value)
    assert type(out) is np.ndarray and out.shape == reference.shape
    assert out.dtype == BIPOLAR_DTYPE and out.tobytes() == reference.tobytes()


def test_normalize_unit_norm(rng):
    v = rng.normal(size=N)
    out = _normalize(v)
    assert np.linalg.norm(out) == pytest.approx(1.0)
    assert np.array_equal(_normalize(np.zeros(4)), np.zeros(4))


def test_resolve_activation():
    assert _resolve_activation("sign") is ops._sign
    assert _resolve_activation("normalization") is _normalize
    with pytest.raises(ValueError, match="unknown activation 'relu'"):
        _resolve_activation("relu")
    for name in (None, True, ["sign"]):  # a list is unhashable, so no dict key
        with pytest.raises(ValueError, match="activation must be str, got"):
            _resolve_activation(name)


@pytest.mark.parametrize("v", [None, "x", ["x"], True, np.array([1 + 2j])])
def test_sign_takes_only_integers_or_floats(v):
    with pytest.raises(ValueError, match="v must be integers or floats, got dtype"):
        sign(v)


@pytest.mark.parametrize("a, message", [
    (np.array([np.nan, 1.0, 2.0]), "{} must be finite, got NaN or inf"),
    (np.array([np.inf, 1.0, 2.0]), "{} must be finite, got NaN or inf"),
    (np.full(3, 1e300), "{} is too large: its energy overflows"),  # finite entries
], ids=["a0", "a1", "a2"])
def test_cosine_rejects_non_finite_vectors_and_overflowing_norms_without_warning(a, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for first, second, name in ((a, np.ones(3), "a"), (np.ones(3), a, "b")):
            with pytest.raises(ValueError) as excinfo:
                cosine_similarity(first, second)
            assert str(excinfo.value) == message.format(name)


@pytest.mark.parametrize("a", [
    np.ones((2, 3)),
    np.array(1.0),
    np.array([True, False, True]),
    np.array(["1", "2", "3"]),
])
def test_cosine_accepts_only_one_dimensional_integer_or_float_vectors(a):
    for first, second in ((a, a), (a, np.ones(a.shape)), (np.ones(a.shape), a)):
        with pytest.raises(ValueError, match="1-D integer or float vector"):
            cosine_similarity(first, second)
