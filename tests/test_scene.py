import itertools
import math
import warnings

import numpy as np
import pytest

from hdscene.codebook import generate_codebook
from hdscene.harness import ExperimentConfig
from hdscene.ops import cosine_similarity
from hdscene.scene import (
    CodebookSet,
    ObjectSpec,
    SceneDescription,
    cell_count,
    encode_object,
    encode_scene,
    noisy_scene_vector,
    random_scene,
)

N = 1000


def test_scene_requires_an_object():
    with pytest.raises(ValueError):
        SceneDescription(objects=())


def test_scene_rejects_shared_cells():
    a = ObjectSpec(0, 1, 2, 2)
    b = ObjectSpec(3, 4, 2, 2)
    with pytest.raises(ValueError):
        SceneDescription(objects=(a, b))


def test_scene_json_schema_round_trip():
    scene = SceneDescription(objects=(ObjectSpec(1, 2, 0, 1), ObjectSpec(3, 9, 2, 2)))
    data = scene.to_dict()
    assert data == {"objects": [
        {"color": 1, "digit": 2, "ypos": 0, "xpos": 1},
        {"color": 3, "digit": 9, "ypos": 2, "xpos": 2},
    ]}


def test_codebook_set_shares_dimension(cbs):
    assert cbs.sizes == (7, 10, 3, 3)
    assert cbs.dim == N
    assert cell_count(cbs.sizes) == 9


def test_codebook_set_rejects_mixed_dimensions():
    a = CodebookSet.generate(64, sizes=(3, 4, 2, 2), seed=1)
    b = CodebookSet.generate(32, sizes=(3, 4, 2, 2), seed=1)
    with pytest.raises(ValueError):
        CodebookSet((a.books[0], a.books[1], a.books[2], b.books[3]))


def test_encode_object_unbinds_back_to_color_codeword(cbs):
    obj = ObjectSpec(4, 9, 2, 1)
    compound = encode_object(cbs, obj)
    unbound = (compound
               * cbs.books[1].codewords[9]
               * cbs.books[2].codewords[2]
               * cbs.books[3].codewords[1])
    assert np.array_equal(unbound, cbs.books[0].codewords[4])


def test_encode_object_deterministic_and_bipolar(cbs):
    obj = ObjectSpec(0, 0, 0, 0)
    a = encode_object(cbs, obj)
    b = encode_object(cbs, obj)
    assert np.array_equal(a, b)
    assert set(np.unique(a)) <= {-1, 1}


def test_encode_object_rejects_bad_indices(cbs):
    with pytest.raises(ValueError):
        encode_object(cbs, ObjectSpec(7, 0, 0, 0))
    with pytest.raises(ValueError):
        encode_object(cbs, ObjectSpec(0, 10, 0, 0))
    with pytest.raises(ValueError):
        encode_object(cbs, ObjectSpec(0, 0, -1, 0))


def test_compounds_near_orthogonal_when_one_attribute_differs(cbs):
    bound = 5 / math.sqrt(N)
    rng = np.random.default_rng(17)
    for _ in range(100):
        color, digit, y, x = (int(rng.integers(k)) for k in (7, 10, 3, 3))
        other_digit = int((digit + 1 + rng.integers(9)) % 10)
        a = encode_object(cbs, ObjectSpec(color, digit, y, x))
        b = encode_object(cbs, ObjectSpec(color, other_digit, y, x))
        assert abs(cosine_similarity(a, b)) < bound


def test_encode_scene_single_object_equals_compound(cbs):
    scene = SceneDescription(objects=(ObjectSpec(1, 2, 0, 1),))
    assert np.array_equal(encode_scene(cbs, scene), encode_object(cbs, scene.objects[0]))


def test_encode_scene_is_exact_sum_of_compounds(cbs, rng):
    scene = random_scene(3, rng)
    s = encode_scene(cbs, scene)
    total = sum(encode_object(cbs, obj) for obj in scene)
    assert np.array_equal(s - total, np.zeros(N, dtype=np.int64))
    assert s.max() <= 3 and s.min() >= -3


def test_encode_scene_order_invariant(cbs, rng):
    scene = random_scene(3, rng)
    flipped = SceneDescription(objects=scene.objects[::-1])
    assert np.array_equal(encode_scene(cbs, scene), encode_scene(cbs, flipped))


def test_three_object_scene_compound_similarity(cbs):
    # dot(s, compound) ~ N while ||s|| ~ sqrt(3 N), so cos concentrates at 1/sqrt(3)
    rng = np.random.default_rng(31)
    sims = []
    for _ in range(1000):
        scene = random_scene(3, rng)
        s = encode_scene(cbs, scene)
        for obj in scene:
            sims.append(cosine_similarity(s, encode_object(cbs, obj)))
    assert abs(np.mean(sims) - 1 / math.sqrt(3)) < 0.05
    assert abs(np.mean(sims) - 1 / math.sqrt(3)) < 0.01


def test_binding_scene_with_random_vector_preserves_value_multiset(cbs, rng):
    from hdscene.ops import bind, random_bipolar
    scene = random_scene(3, rng)
    s = encode_scene(cbs, scene)
    w = random_bipolar(N, rng)
    bound = bind(s, w)
    assert sorted(np.abs(s).tolist()) == sorted(np.abs(bound).tolist())


def test_random_scene_cells_always_distinct():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        scene = random_scene(2, rng)
        cells = [obj.cell for obj in scene]
        assert len(set(cells)) == 2


def test_random_scene_count_bounds(rng):
    with pytest.raises(ValueError):
        random_scene(10, rng)
    with pytest.raises(ValueError):
        random_scene(0, rng)
    scene = random_scene(9, rng)
    assert len(scene) == 9


def test_random_scene_follows_codebook_sizes(rng):
    sizes = (2, 3, 2, 4)
    assert cell_count(sizes) == 8
    with pytest.raises(ValueError):
        random_scene(9, rng, sizes=sizes)
    scene = random_scene(8, rng, sizes=sizes)
    assert sorted(obj.cell for obj in scene) == list(itertools.product(range(2), range(4)))
    assert all(obj.color < 2 and obj.digit < 3 for obj in scene)


@pytest.mark.parametrize("sizes, message", [
    ((7, 10, True, 3), "sizes must be int, got True"),  # used to draw over one y-row
    ((7, 10, 3.0, 3), "sizes must be int, got 3.0"),
    # the sequence rule; each case keeps the id its earlier wording gave it
    pytest.param((7, 10, 3), "sizes must have 4 items, got 3",
                 id="sizes2-sizes must be a list or tuple of 4 counts"),
    pytest.param((7, 10, 3, 3, 3), "sizes must have 4 items, got 5",
                 id="sizes3-sizes must be a list or tuple of 4 counts"),
    pytest.param(7, "sizes must be a list or tuple, got 7",
                 id="7-sizes must be a list or tuple of 4 counts"),
    pytest.param((7, 1, 3, 3), "sizes must be >= 2, got 1",
                 id="sizes5-sizes must be counts >= 2"),
])
def test_random_scene_rejects_bad_sizes(rng, sizes, message):
    # one sizes rule: the scene draw, the codebook set and the config apply it alike
    with pytest.raises(ValueError, match=message):
        random_scene(2, rng, sizes=sizes)
    with pytest.raises(ValueError, match=message):
        CodebookSet.generate(8, sizes)
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(codebook_sizes=sizes)


def test_random_scene_digit_marginal_uniform():
    rng = np.random.default_rng(77)
    counts = np.zeros(10)
    draws = 100_000
    for _ in range(draws):
        counts[random_scene(1, rng).objects[0].digit] += 1
    assert np.all(np.abs(counts / draws - 0.1) < 0.005)


def test_random_scene_covers_all_630_combinations():
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(20_000):
        obj = random_scene(1, rng).objects[0]
        seen.add(obj.as_tuple())
    assert len(seen) == 7 * 10 * 3 * 3


def test_noisy_vector_identity_at_target_one(cbs, rng):
    s = encode_scene(cbs, random_scene(2, rng))
    noisy = noisy_scene_vector(s, 1.0, rng)
    assert np.array_equal(noisy, s)
    assert noisy is not s


def test_noisy_vector_calibration(cbs):
    rng = np.random.default_rng(13)
    scene = random_scene(2, rng)
    s = encode_scene(cbs, scene)
    sims = [cosine_similarity(noisy_scene_vector(s, 0.8, rng), s) for _ in range(1000)]
    assert abs(np.mean(sims) - 0.8) < 0.01


def test_noisy_vector_target_range(cbs, rng):
    s = encode_scene(cbs, random_scene(1, rng))
    for bad in (0.0, -0.2, 1.1):
        with pytest.raises(ValueError):
            noisy_scene_vector(s, bad, rng)
    with pytest.raises(ValueError):
        noisy_scene_vector(np.zeros(N), 0.5, rng)


def test_single_object_combination_space_is_630():
    combos = set(itertools.product(range(7), range(10), range(3), range(3)))
    assert len(combos) == 630


def test_codebook_set_needs_one_codebook_per_attribute():
    books = CodebookSet.generate(64, sizes=(3, 4, 2, 2), seed=1).books
    for wrong in (books[:3], books + books[:1], ()):
        with pytest.raises(ValueError) as excinfo:
            CodebookSet(wrong)
        assert str(excinfo.value) == f"books must have 4 items, got {len(wrong)}"
    assert CodebookSet(list(books)).books == books


def test_noisy_vector_dtype_contract(cbs, rng):
    # target 1 copies the input dtype (float64 for an encoded scene); noise makes float64
    s = encode_scene(cbs, random_scene(2, rng))
    assert s.dtype == np.float64
    assert noisy_scene_vector(s, 1.0, rng).dtype == np.float64
    assert noisy_scene_vector(s.astype(np.float32), 1.0, rng).dtype == np.float32
    for target in (0.3, 0.9, 0.999):
        assert noisy_scene_vector(s, target, rng).dtype == np.float64


NAN_S = np.array([np.nan, 1.0, 2.0])
INF_S = np.array([np.inf, 1.0, 2.0])
NOT_FINITE = "s must be finite, got NaN or inf"
NOISE_OVERFLOWS = "noisy scene vector is not finite: the noise overflows"


@pytest.mark.parametrize("s, target, message", [
    pytest.param(NAN_S, 0.5, NOT_FINITE, id="s0-0.5"),
    pytest.param(INF_S, 0.5, NOT_FINITE, id="s1-0.5"),
    # finite entries whose energy overflows
    pytest.param(np.full(4, 1e300), 0.5, "s is too large: its energy overflows", id="s2-0.5"),
    pytest.param(np.ones(4), 1e-160, NOISE_OVERFLOWS, id="s3-1e-160"),
    # the target's square underflows to 0
    pytest.param(np.ones(4), 1e-300, NOISE_OVERFLOWS, id="s4-1e-300"),
    # target 1.0 adds no noise, yet rejects what every other target does
    pytest.param(np.zeros(4), 1.0, "cannot add calibrated noise to a zero-norm vector",
                 id="s5-1.0"),
    pytest.param(NAN_S, 1.0, NOT_FINITE, id="s6-1.0"),
    pytest.param(INF_S, 1.0, NOT_FINITE, id="s7-1.0"),
])
def test_noisy_vector_is_finite_or_one_error_without_warning(s, target, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as excinfo:
            noisy_scene_vector(s, target, np.random.default_rng(0))
    assert str(excinfo.value) == message


@pytest.mark.parametrize("s", [
    np.ones((4, 3)),
    np.array(2.0),
    np.array([True, False, True]),
    np.array(["1", "2", "3"]),
])
@pytest.mark.parametrize("target", [0.5, 1.0])
def test_noisy_vector_accepts_only_one_dimensional_integer_or_float_vectors(s, target):
    with pytest.raises(ValueError, match="1-D integer or float vector"):
        noisy_scene_vector(s, target, np.random.default_rng(0))


def test_codebook_set_rejects_repeated_labels():
    book = generate_codebook("x", 2, 8, seed=0)
    with pytest.raises(ValueError, match=r"distinct, got \['x', 'x', 'x', 'x'\]"):
        CodebookSet((book,) * 4)
    books = CodebookSet.generate(8, sizes=(2, 2, 2, 2), seed=0).books
    with pytest.raises(ValueError, match="'color', 'digit', 'color', 'xpos'"):
        CodebookSet((books[0], books[1], books[0], books[3]))
