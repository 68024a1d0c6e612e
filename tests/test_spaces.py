"""Weighted space construction, inner products, Gram-Schmidt, projections."""

import math

import numpy as np
import pytest

from twoiso import (
    DEFAULT_RANK_TOL,
    WeightedSpace,
    make_bidisc_space,
    make_coordinate_space,
    make_dirichlet_space,
    vec_from_pairs,
    vec_to_pairs,
    weighted_gram_schmidt,
)
from twoiso import spaces
from twoiso.spaces import pow2_scale
from helpers import (
    orthogonal_complement,
    project,
    projection_by_expansion,
    random_vec,
    random_weighted_space,
)


# ---------------------------------------------------------------------------
# constructors


def test_dirichlet_weights():
    space = make_dirichlet_space(3)
    assert list(space.weights) == [1.0, 2.0, 3.0, 4.0]
    assert list(space.labels) == [(0,), (1,), (2,), (3,)]


def test_dirichlet_degree_zero():
    space = make_dirichlet_space(0)
    assert list(space.weights) == [1.0]


def test_dirichlet_dimension():
    assert make_dirichlet_space(5).dim == 6


def test_bidisc_dimension():
    assert make_bidisc_space(2).dim == 6


def test_bidisc_degree_zero():
    assert list(make_bidisc_space(0).weights) == [1.0]


def test_bidisc_labels_degree_one():
    space = make_bidisc_space(1)
    assert list(space.labels) == [(0, 0), (1, 0), (0, 1)]


def test_bidisc_order_within_degree():
    space = make_bidisc_space(2)
    assert list(space.labels) == [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
    ]


def test_coordinate_space_labels_all_degree_one():
    space = make_coordinate_space(4)
    assert all(sum(lab) == 1 for lab in space.labels)
    assert space.max_degree == 1


def test_label_validation():
    for labels, message in [
        (((0,), (-1,)), "non-negative"),
        (((0, 1), (1, -2)), "non-negative"),
        (((0,), ()), "at least one entry"),
        (((), ()), "at least one entry"),
        (((0,), (0, 1)), "same multi-index length"),
        (((0, 1), (0, 1)), "pairwise distinct"),
    ]:
        with pytest.raises(ValueError, match=message):
            WeightedSpace(labels=labels, weights=(1.0, 1.0))


def test_labels_are_int_tuples():
    space = WeightedSpace(labels=([0, 1], (1.0, 0)), weights=(1.0, 2.0))
    assert space.labels == ((0, 1), (1, 0))
    assert all(type(k) is int for lab in space.labels for k in lab)
    assert space.index_of((1, 0)) == 1


@pytest.mark.parametrize("labels", [
    ((1.5,), (2.7,)),
    ((0, 1), (1, 0.5)),
    ((0,), (float("nan"),)),
    ((0,), (float("inf"),)),
    ((0,), (1e19,)),
    ((0,), (2**63,)),
    ((0,), (2**70,)),
    ((0,), ("1",)),
    ((2**62, 2**62), (0, 1)),
    ((2**62,) * 4, (0, 0, 0, 1)),
])
def test_labels_refuse_an_entry_that_is_not_an_integer(labels):
    # A non-integral entry was truncated: ((1.5,), (2.7,)) gave ((1,), (2,)).
    # A total degree of 2**63 or more wrapped: (2**62, 2**62) read degree
    # -2**63, and four times 2**62 read 0.
    with pytest.raises(ValueError, match="multi-index entries must be integers"):
        WeightedSpace(labels=labels, weights=(1.0, 1.0))


def test_degrees_are_read_off_the_labels():
    space = WeightedSpace(labels=((2, 0), (0.0, 1.0), (np.int32(3), True)),
                          weights=(1.0, 1.0, 1.0))
    assert space.labels == ((2, 0), (0, 1), (3, 1))
    assert space.degrees.tolist() == [2, 1, 4] and space.max_degree == 4
    with pytest.raises(ValueError, match="read-only"):
        space.degrees[0] = 0
    bidisc = make_bidisc_space(6)
    assert bidisc.degrees.tolist() == [sum(lab) for lab in bidisc.labels]
    top = WeightedSpace(labels=((2**62, 2**62 - 1), (0, 1)), weights=(1.0, 1.0))
    assert top.degrees.tolist() == [2**63 - 1, 1] and top.max_degree == 2**63 - 1


def test_space_validation():
    with pytest.raises(ValueError):
        WeightedSpace(labels=((0,),), weights=(0.0,))
    with pytest.raises(ValueError):
        WeightedSpace(labels=((0,), (1,)), weights=(1.0,))
    with pytest.raises(ValueError):
        WeightedSpace(labels=(), weights=())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "2.5", True, [2.0]],
                         ids=["nan", "inf", "-inf", "str", "bool", "ragged"])
def test_space_refuses_a_non_finite_weight_on_direct_construction(bad):
    # `w <= 0` is False for NaN, and such a space's norm read NaN with a
    # RuntimeWarning; only from_dict checked that weights are finite. A
    # string or a bool weight was read as the float it spells. A nested
    # weight makes the weights ragged, which numpy refuses to read.
    for weights in ((bad, 1.0), (1.0, bad), [1.0, bad]):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            WeightedSpace(labels=((0,), (1,)), weights=weights)


# ---------------------------------------------------------------------------
# inner product


def test_inner_monomials_dirichlet():
    space = make_dirichlet_space(3)
    z = space.monomial((1,))
    one = space.monomial((0,))
    assert space.inner(z, z) == pytest.approx(2.0)
    assert space.inner(one, one) == pytest.approx(1.0)
    assert space.inner(z, one) == 0


def test_inner_dimension_mismatch():
    space = make_dirichlet_space(3)
    with pytest.raises(ValueError, match="shape"):
        space.inner(np.ones(2), np.ones(4))


def test_inner_conjugate_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(50):
        space = random_weighted_space(rng)
        x, y = random_vec(space, rng), random_vec(space, rng)
        assert abs(space.inner(x, y) - np.conj(space.inner(y, x))) <= 1e-12 * (
            1 + abs(space.inner(x, y))
        )


def test_inner_positivity():
    rng = np.random.default_rng(12)
    for _ in range(50):
        space = random_weighted_space(rng)
        x = random_vec(space, rng)
        val = space.inner(x, x)
        assert abs(val.imag) <= 1e-12 * (1 + abs(val))
        assert val.real > 0


@pytest.mark.parametrize("size", [1e160, 1e-170, 1e300, 5e-324])
def test_norm_is_exact_where_its_squares_leave_floating_point(size):
    space = make_coordinate_space(2)
    assert space.norm(size * space.basis_vector(0)) == size
    assert space.norm(-1j * size * space.basis_vector(1)) == size
    dirichlet = make_dirichlet_space(3)
    z = size * dirichlet.monomial((1,))
    assert dirichlet.norm(z) == pytest.approx(np.sqrt(2.0) * size, rel=1e-15)


def test_norm_is_bit_identical_to_the_unscaled_sum_in_range():
    # The scaling is by a power of two, which is exact, so wherever the
    # squares stay in floating point the plain sum gives the same bits.
    rng = np.random.default_rng(14)
    for _ in range(200):
        space = random_weighted_space(rng)
        x = random_vec(space, rng) * 10.0 ** rng.integers(-100, 101)
        plain = float(np.sqrt(np.real(np.vdot(x, space.weight_array * x))))
        assert space.norm(x) == plain


def _scaled_norm(space, x) -> float:
    """The norm summed after the exact power-of-two scaling, always: the
    referee of the plain sum that ``norm`` takes in range."""
    x = space.check_vec(x)
    scale = pow2_scale(x)
    y = x * scale
    val = np.vdot(y, space.weight_array * y).real
    return math.sqrt(max(val, 0.0)) / scale


def _scalings(monkeypatch) -> list:
    calls = []

    def counted(x):
        calls.append(x)
        return pow2_scale(x)

    monkeypatch.setattr(spaces, "pow2_scale", counted)
    return calls


def test_norm_takes_the_plain_sum_in_range_with_the_scaled_bits(monkeypatch):
    rng = np.random.default_rng(15)
    inside = outside = 0
    for _ in range(2000):
        space = random_weighted_space(rng)
        x = random_vec(space, rng) * 10.0 ** rng.integers(-160, 161)
        expected = _scaled_norm(space, x)
        calls = _scalings(monkeypatch)
        assert space.norm(x) == expected
        in_range = 2.0**-900 <= expected * expected <= 2.0**900
        inside += in_range
        outside += not in_range
        assert len(calls) == (0 if in_range else 1)
    assert inside > 1000 and outside > 100


def test_norm_at_the_ends_of_the_plain_range(monkeypatch):
    unit = make_coordinate_space(2)
    up = 1.0 + 2.0**-52
    cases = [
        # the sum exactly at each bound, and one rounding step beyond it
        (unit, [2.0**450, 0.0], True),
        (unit, [2.0**450 * up, 0.0], False),
        (unit, [2.0**-450, 0.0], True),
        (unit, [2.0**-450 / up, 0.0], False),
        (unit, [0.0, 1j * 2.0**450], True),
        # entries near 1e+-300: each square leaves floating point
        (unit, [1e300, 1.0], False),
        (unit, [1e-300, 1e-300j], False),
        (unit, [1e-300, 1.0], True),
        (unit, [1e150, -1e150j], False),
        (unit, [0.0, 0.0], False),
    ]
    # weights whose products with x are subnormal, beside a normal term
    tiny = make_coordinate_space(3, weights=(1.0, 1e-300, 1e-290))
    for lead in (1.0, 2.0**-440, 1e-140):
        cases.append((tiny, [lead, 1e-20, 3e-25 - 1e-30j], 2.0**-900 <= lead * lead))
    for space, x, plain in cases:
        x = np.asarray(x, dtype=complex)
        expected = _scaled_norm(space, x)
        calls = _scalings(monkeypatch)
        assert space.norm(x) == expected, x
        assert len(calls) == (0 if plain else 1), x


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1j * np.inf, complex(np.nan, 1.0)])
def test_norm_of_inf_or_nan_takes_the_scaled_path(bad, monkeypatch):
    space = make_coordinate_space(3, weights=(1.0, 2.0, 0.5))
    x = np.array([1.0, bad, 0.5j])
    with np.errstate(invalid="ignore"):
        expected = _scaled_norm(space, x)
        calls = _scalings(monkeypatch)
        got = space.norm(x)
    assert len(calls) == 1
    assert got == expected or (math.isnan(got) and math.isnan(expected))


def test_inner_second_argument_conjugate_linear():
    space = make_coordinate_space(3)
    rng = np.random.default_rng(13)
    x, y = random_vec(space, rng), random_vec(space, rng)
    c = 0.7 - 1.3j
    assert space.inner(x, c * y) == pytest.approx(np.conj(c) * space.inner(x, y))


# ---------------------------------------------------------------------------
# Gram-Schmidt bases and projections onto them


def orthonormal_basis(space, vectors):
    return weighted_gram_schmidt(space, vectors, DEFAULT_RANK_TOL)


def test_project_idempotent():
    rng = np.random.default_rng(21)
    for _ in range(30):
        space = random_weighted_space(rng)
        onb = orthonormal_basis(space, [random_vec(space, rng) for _ in range(3)])
        x = random_vec(space, rng)
        once = project(space, onb, x)
        twice = project(space, onb, once)
        assert space.norm(once - twice) <= 1e-12 * max(1.0, space.norm(x))


def test_pythagoras():
    rng = np.random.default_rng(22)
    for _ in range(30):
        space = random_weighted_space(rng)
        onb = orthonormal_basis(space, [random_vec(space, rng) for _ in range(2)])
        x = random_vec(space, rng)
        p = project(space, onb, x)
        lhs = space.norm(x) ** 2
        rhs = space.norm(p) ** 2 + space.norm(x - p) ** 2
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs)


def test_project_inside_and_orthogonal():
    space = make_coordinate_space(3)
    onb = orthonormal_basis(space, [space.basis_vector(0), space.basis_vector(1)])
    inside = space.basis_vector(0) + 2j * space.basis_vector(1)
    assert space.norm(project(space, onb, inside) - inside) <= 1e-12
    assert space.norm(project(space, onb, space.basis_vector(2))) <= 1e-12


def test_project_negative_monomial_onto_complement_is_zero():
    # -z1 lies in span{z1}, so its projection onto the complement vanishes;
    # cross-checked against an explicit orthonormal expansion.
    space = make_bidisc_space(2)
    z1 = space.monomial((1, 0))
    comp = orthogonal_complement(space, orthonormal_basis(space, [z1]), tol=DEFAULT_RANK_TOL)
    x = -z1
    assert space.norm(project(space, comp, x)) <= 1e-12
    assert space.norm(projection_by_expansion(space, comp, x)) <= 1e-12


def test_projection_matches_expansion_oracle():
    rng = np.random.default_rng(23)
    for _ in range(20):
        space = random_weighted_space(rng)
        onb = orthonormal_basis(space, [random_vec(space, rng) for _ in range(2)])
        x = random_vec(space, rng)
        gap = project(space, onb, x) - projection_by_expansion(space, onb, x)
        assert space.norm(gap) <= 1e-10


def test_orthonormal_basis_invariants():
    rng = np.random.default_rng(24)
    for _ in range(20):
        space = random_weighted_space(rng)
        basis = list(orthonormal_basis(space, [random_vec(space, rng) for _ in range(4)]).T)
        for i, e in enumerate(basis):
            assert abs(space.norm(e) - 1.0) <= 1e-12
            for f in basis[i + 1:]:
                assert abs(space.inner(e, f)) <= 1e-12


def test_gram_schmidt_rank_detection():
    space = make_coordinate_space(3)
    v = space.basis_vector(0) + space.basis_vector(1)
    basis = weighted_gram_schmidt(space, [v, 2.0 * v, space.basis_vector(2)], DEFAULT_RANK_TOL)
    assert basis.shape == (3, 2)
    assert weighted_gram_schmidt(space, [space.zeros()], DEFAULT_RANK_TOL).shape == (3, 0)


def test_complement_of_e2_in_c2():
    space = make_coordinate_space(2)
    onb = orthonormal_basis(space, [space.basis_vector(1)])
    comp = orthogonal_complement(space, onb, tol=DEFAULT_RANK_TOL)
    assert comp.shape == (2, 1)
    assert abs(abs(comp[0, 0]) - 1.0) <= 1e-12
    assert abs(comp[1, 0]) <= 1e-12


def test_complement_dimension_bidisc():
    space = make_bidisc_space(2)
    onb = orthonormal_basis(space, [space.monomial((0, 0)), space.monomial((1, 0))])
    assert orthogonal_complement(space, onb, tol=DEFAULT_RANK_TOL).shape == (6, 4)


def test_complement_of_whole_space_is_trivial():
    space = make_dirichlet_space(3)
    onb = orthonormal_basis(space, list(np.eye(space.dim)))
    assert orthogonal_complement(space, onb, tol=DEFAULT_RANK_TOL).shape == (4, 0)


def test_complement_dimensions_add_up():
    rng = np.random.default_rng(25)
    for _ in range(20):
        space = random_weighted_space(rng)
        k = int(rng.integers(0, space.dim + 1))
        onb = orthonormal_basis(space, [random_vec(space, rng) for _ in range(k)])
        comp = orthogonal_complement(space, onb, tol=DEFAULT_RANK_TOL)
        assert onb.shape[1] + comp.shape[1] == space.dim


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize(
    "space",
    [
        make_dirichlet_space(4),
        make_bidisc_space(3),
        make_coordinate_space(3, weights=(1.0, 2.5, 0.5)),
    ],
)
def test_space_json_round_trip(space):
    doc = space.to_dict()
    back = WeightedSpace.from_dict(doc)
    assert back == space
    assert doc["kind"] == space.kind
    if space.kind in ("dirichlet", "bidisc"):
        assert doc["max_degree"] == space.max_degree
    else:
        assert doc["max_degree"] is None


def _pairs_by_entry(x) -> list[list[str]]:
    """The [re, im] pairs built one complex entry at a time, as reprs so
    that -0.0 and 0.0 differ: the referee of the float-view encoding."""
    arr = np.asarray(x, dtype=complex).ravel()
    return [[repr(float(z.real)), repr(float(z.imag))] for z in arr]


def test_vec_pairs_round_trip():
    tiny = 5e-324  # the smallest subnormal
    x = np.array([1.0 + 2.0j, -0.5, 3.0j, complex(-0.0, -0.0), complex(0.0, -0.0),
                  complex(tiny, -tiny), complex(-2.5e-310, 1e308)])
    pairs = vec_to_pairs(x)
    assert all(type(part) is float for pair in pairs for part in pair)
    assert [[repr(a), repr(b)] for a, b in pairs] == _pairs_by_entry(x)
    assert pairs[3] == [-0.0, -0.0] and math.copysign(1.0, pairs[3][1]) < 0
    assert math.copysign(1.0, pairs[4][1]) < 0 and pairs[5] == [tiny, -tiny]
    assert vec_from_pairs(pairs).tobytes() == x.tobytes()
    # strided, reversed and transposed views and a read-only float64 matrix
    block = (np.arange(12.0) - 6.0).reshape(3, 4) * (1 - 0.5j)
    real = np.array([[1.5, -0.0], [2.0, -1e-310]])
    real.setflags(write=False)
    for y in (block[:, 1], block[::2, ::-3], x[::-2], real, block.T):
        got = vec_to_pairs(y)
        assert [[repr(a), repr(b)] for a, b in got] == _pairs_by_entry(y)
        assert vec_from_pairs(got).tobytes() == np.asarray(y, dtype=complex).ravel().tobytes()
    assert vec_to_pairs(real)[1] == [-0.0, 0.0] and math.copysign(1.0, vec_to_pairs(real)[1][0]) < 0


@pytest.mark.parametrize(
    "pairs",
    [1.0, [[1.0]], [[1.0, 0.0, 0.0]], [[1.0, 0.0], [2.0]], [["1", "0"]],
     [[float("nan"), 0.0]], [[0.0, float("inf")]], [[None, 0.0]],
     [[True, 1]], [[1.0, 0.0], [0.5, False]], [[True, False]], [[1.0, 2.0], [3.0]]],
)
def test_vec_from_pairs_rejects_malformed(pairs):
    with pytest.raises(ValueError, match=r"^expected a list of \[re, im\] pairs of finite numbers$"):
        vec_from_pairs(pairs)


@pytest.mark.parametrize("doc", [[], "dirichlet", None, 3])
def test_space_from_dict_of_a_non_object_is_value_error(doc):
    with pytest.raises(ValueError, match="space document must be a JSON object"):
        WeightedSpace.from_dict(doc)


@pytest.mark.parametrize(
    "weights",
    [[1.0, float("nan"), 3.0], [1.0, float("inf"), 3.0], "123", [True, 2.0, 3.0]],
)
def test_space_from_dict_rejects_non_finite_weights(weights):
    doc = make_dirichlet_space(2).to_dict()
    doc["weights"] = weights
    with pytest.raises(ValueError, match="weights"):
        WeightedSpace.from_dict(doc)


@pytest.mark.parametrize("make, size, message", [
    (make_dirichlet_space, -1, "max_degree must be non-negative"),
    (make_bidisc_space, -1, "max_total_degree must be non-negative"),
    (make_coordinate_space, 0, "dim must be at least 1"),
    (make_coordinate_space, -3, "dim must be at least 1"),
])
def test_space_builders_refuse_a_negative_or_zero_size(make, size, message):
    with pytest.raises(ValueError, match=message):
        make(size)


def test_index_of_an_unknown_label_is_value_error():
    with pytest.raises(ValueError, match=r"no basis label with multi-index \(3, 0\)"):
        make_bidisc_space(2).index_of((3, 0))
    with pytest.raises(ValueError, match=r"no basis label with multi-index \(7,\)"):
        make_dirichlet_space(3).index_of(7)
    # The key is looked up as given: 1.5 was truncated to z, (1.9, 0.2) to z1.
    dirichlet, bidisc = make_dirichlet_space(4), make_bidisc_space(3)
    for space, key in ((dirichlet, 1.5), (bidisc, (1.9, 0.2)), (dirichlet, [[1]])):
        with pytest.raises(ValueError, match="no basis label with multi-index"):
            space.index_of(key)
    assert dirichlet.index_of(2.0) == dirichlet.index_of(np.int64(2)) == 2
    assert bidisc.index_of((2.0, np.int64(0))) == bidisc.index_of((2, 0))
    assert np.array_equal(bidisc.monomial(np.array([2, 0])), bidisc.basis_vector(3))
