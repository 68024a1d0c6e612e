"""Operator algebra: adjoints, rank-one maps, defects, polarization, safety."""

import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from twoiso import (
    Op,
    TruncationError,
    WeightedSpace,
    apply,
    defect_apply_in_window,
    defect_quadratic,
    make_bidisc_space,
    make_coordinate_space,
    make_dirichlet_space,
    perturb,
    polarized_defect_form,
)
from twoiso.function_spaces import (
    PolyCoeffs,
    bidisc_shift,
    constant_perturbed_dirichlet,
    dirichlet_perturbation_problem,
    dirichlet_shift,
    perturbed_dirichlet,
)
from twoiso import operators
from twoiso.operators import DefectReport, _matmul
from twoiso.sampling import random_unitary
import cases
from helpers import (
    add,
    adjoint,
    brute_force_adjoint,
    compose,
    defect_image_by_entries,
    defect_operator,
    dense_defect_form,
    field_gram_form,
    identity,
    polarized_defect_entry,
    polarized_form_by_entries,
    random_matrix,
    random_op,
    random_vec,
    random_weighted_space,
    rank_one,
    window_basis,
)


# ---------------------------------------------------------------------------
# apply / compose / identity


def test_apply_shift_action():
    op = dirichlet_shift(4)
    z = op.space.monomial((1,))
    z2 = op.space.monomial((2,))
    assert np.allclose(apply(op, z), z2)


def test_apply_identity_and_zero():
    space = make_coordinate_space(3)
    rng = np.random.default_rng(0)
    x = random_vec(space, rng)
    assert np.allclose(apply(identity(space), x), x)
    zero = Op(space, np.zeros((space.dim, space.dim)), degree_growth=0)
    assert np.allclose(apply(zero, x), 0)


def test_apply_of_a_real_operator_runs_real_products_without_a_copy():
    # A real matrix acts on the float view of x: numpy's own product would
    # make a complex copy of the whole matrix on every call.
    T = dirichlet_shift(400)
    x = random_vec(T.space, np.random.default_rng(76))
    expected = T.matrix.astype(complex) @ x
    tracemalloc.start()
    try:
        got = apply(T, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, expected)
    assert peak < 8 * T.space.dim ** 2 / 10


def test_apply_dimension_mismatch():
    space = make_coordinate_space(3)
    with pytest.raises(ValueError, match="shape"):
        apply(identity(space), np.ones(4))


def test_compose_requires_same_space():
    a = identity(make_coordinate_space(2))
    b = identity(make_coordinate_space(3))
    with pytest.raises(ValueError, match="different spaces"):
        compose(a, b)


def test_add_requires_same_space():
    a = Op(make_coordinate_space(2), np.eye(2), degree_growth=0)
    b = Op(make_coordinate_space(3), np.eye(3), degree_growth=0)
    with pytest.raises(ValueError, match="different spaces"):
        add(a, b)


def test_compose_degree_growth_adds():
    shift = dirichlet_shift(6)
    assert compose(shift, shift).degree_growth == 2
    assert add(shift, compose(shift, shift)).degree_growth == 2


# ---------------------------------------------------------------------------
# adjoint


def test_adjoint_of_dirichlet_shift_on_z():
    op = dirichlet_shift(4)
    z = op.space.monomial((1,))
    one = op.space.monomial((0,))
    assert np.allclose(apply(adjoint(op), z), 2.0 * one)


def test_adjoint_of_bidisc_shift_on_z2():
    from twoiso.function_spaces import bidisc_shift

    op = bidisc_shift(3, axis=1)
    z2 = op.space.monomial((0, 1))
    assert np.allclose(apply(adjoint(op), z2), 0)


def test_adjoint_real_symmetric_unit_weights():
    space = make_coordinate_space(3)
    sym = np.array([[1.0, 2.0, 0.0], [2.0, -1.0, 3.0], [0.0, 3.0, 0.5]])
    op = Op.from_exact_matrix(space, sym)
    assert np.allclose(adjoint(op).matrix, sym)


def test_adjoint_contract_random():
    rng = np.random.default_rng(31)
    for _ in range(100):
        space = random_weighted_space(rng)
        A = random_op(space, rng)
        x, y = random_vec(space, rng), random_vec(space, rng)
        lhs = space.inner(apply(A, x), y)
        rhs = space.inner(x, apply(adjoint(A), y))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_adjoint_matches_brute_force_oracle():
    rng = np.random.default_rng(32)
    for _ in range(20):
        space = random_weighted_space(rng)
        A = random_op(space, rng)
        assert np.allclose(adjoint(A).matrix, brute_force_adjoint(A), atol=1e-10)


def test_adjoint_involution():
    rng = np.random.default_rng(33)
    for _ in range(30):
        space = random_weighted_space(rng)
        A = random_op(space, rng)
        assert np.max(np.abs(adjoint(adjoint(A)).matrix - A.matrix)) <= 1e-12


def test_adjoint_has_no_growth_certificate():
    assert adjoint(dirichlet_shift(4)).degree_growth is None


# ---------------------------------------------------------------------------
# rank-one operators


def test_rank_one_definition_on_c2():
    space = make_coordinate_space(2)
    e1, e2 = space.basis_vector(0), space.basis_vector(1)
    K = rank_one(space, e1, e2)
    assert np.allclose(apply(K, e2), e1)
    assert np.linalg.matrix_rank(K.matrix) == 1


def test_rank_one_bidisc_example_action():
    space = make_bidisc_space(3)
    u = -space.monomial((2, 0)) + space.monomial((0, 1))
    v = space.monomial((1, 0))
    K = rank_one(space, u, v)
    assert np.allclose(apply(K, v), u)


def test_rank_one_annihilates_orthogonal_vectors():
    space = make_dirichlet_space(4)
    K = rank_one(space, space.monomial((2,)), space.monomial((0,)))
    assert np.allclose(apply(K, space.monomial((1,))), 0)


def test_rank_one_rejects_zero_vectors():
    space = make_coordinate_space(2)
    with pytest.raises(ValueError, match="not rank one"):
        rank_one(space, space.zeros(), space.basis_vector(0))
    with pytest.raises(ValueError, match="not rank one"):
        rank_one(space, space.basis_vector(0), space.zeros())


def test_rank_one_accepts_vectors_whose_norm_underflows():
    # ||1e-170 e0||^2 underflows to zero, but the vector is not zero.
    space = make_coordinate_space(2)
    e0, e1 = space.basis_vector(0), space.basis_vector(1)
    for u, v in ((1e-170 * e0, e1), (e0, 1e-170 * e1)):
        K = rank_one(space, u, v)
        assert K.matrix[0, 1] == 1e-170
        assert np.count_nonzero(K.matrix) == 1
    with pytest.raises(ValueError, match="not rank one"):
        rank_one(space, space.zeros(), 1e-170 * e1)
    with pytest.raises(ValueError, match="not rank one"):
        rank_one(space, 1e-170 * e0, space.zeros())


def test_rank_one_scaling_identity():
    # u (x) (a v) agrees with (conj(a) u) (x) v entrywise.
    rng = np.random.default_rng(34)
    for _ in range(100):
        space = random_weighted_space(rng)
        u, v = random_vec(space, rng), random_vec(space, rng)
        a = complex(rng.standard_normal(), rng.standard_normal())
        if abs(a) < 1e-3:
            a += 1.0
        lhs = rank_one(space, u, a * v).matrix
        rhs = rank_one(space, np.conj(a) * u, v).matrix
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_rank_one_composition_identities():
    # (u(x)v)(x(x)y) = <x,v> u(x)y ; V(u(x)v) = (Vu)(x)v ; (u(x)v)V = u(x)(V*v)
    rng = np.random.default_rng(35)
    for _ in range(100):
        space = random_weighted_space(rng)
        u, v = random_vec(space, rng), random_vec(space, rng)
        x, y = random_vec(space, rng), random_vec(space, rng)
        V = random_op(space, rng)
        scale_ref = max(1.0, float(np.max(np.abs(V.matrix))))

        lhs1 = compose(rank_one(space, u, v), rank_one(space, x, y)).matrix
        rhs1 = space.inner(x, v) * rank_one(space, u, y).matrix
        assert np.max(np.abs(lhs1 - rhs1)) <= 1e-12 * max(1.0, np.max(np.abs(rhs1)))

        lhs2 = compose(V, rank_one(space, u, v)).matrix
        rhs2 = rank_one(space, apply(V, u), v).matrix
        assert np.max(np.abs(lhs2 - rhs2)) <= 1e-12 * scale_ref * 10

        lhs3 = compose(rank_one(space, u, v), V).matrix
        rhs3 = rank_one(space, u, apply(adjoint(V), v)).matrix
        assert np.max(np.abs(lhs3 - rhs3)) <= 1e-12 * scale_ref * 10


# ---------------------------------------------------------------------------
# defect operator and quadratic defect
#
# On an exact space the defect operator D is read through its form
# G = W^{1/2} D W^{-1/2} on the whole space, the library's forward-only route.


def test_defect_operator_of_unitary_is_zero():
    space = make_coordinate_space(2)
    U = Op.from_exact_matrix(space, [[0, 1], [1, 0]])
    assert polarized_defect_form(U).max_residual <= 1e-14


def test_defect_operator_of_perturbed_swap_is_zero():
    space = make_coordinate_space(2)
    V = Op.from_exact_matrix(space, [[0, 1], [1, 0]])
    K = rank_one(space, -2.0 * space.basis_vector(0), space.basis_vector(1))
    assert polarized_defect_form(add(V, K)).max_residual <= 1e-14


def test_defect_operator_scalar_case():
    space = make_coordinate_space(1)
    T = Op.from_exact_matrix(space, [[2.0]])
    assert polarized_defect_form(T).defect_matrix[0, 0] == pytest.approx(9.0)


def test_defect_operator_self_adjoint():
    rng = np.random.default_rng(36)
    for _ in range(50):
        space = random_weighted_space(rng)
        report = polarized_defect_form(random_op(space, rng))
        G = report.defect_matrix
        assert G.shape == (space.dim, space.dim)
        assert np.max(np.abs(G - G.conj().T)) <= 1e-10 * max(1.0, report.max_residual)


def test_defect_form_on_exact_space_is_similar_to_the_adjoint_route():
    rng = np.random.default_rng(46)
    for _ in range(30):
        space = random_weighted_space(rng)
        T = random_op(space, rng)
        root = np.sqrt(space.weight_array)
        expected = root[:, None] * defect_operator(T).matrix / root[None, :]
        G = polarized_defect_form(T).defect_matrix
        assert np.max(np.abs(G - expected)) <= 1e-10 * max(1.0, np.max(np.abs(expected)))


def test_op_refuses_assignment():
    # The cached defect form is the form of the operator as built; the repr
    # shows the fields that fix it, not the matrix.
    op = dirichlet_shift(6)
    assert repr(op) == "Op(dim=7, kind='dirichlet', degree_growth=1)"
    for name, value in (("matrix", 1.5 * op.matrix), ("degree_growth", 2),
                        ("space", make_dirichlet_space(6))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(op, name, value)
    with pytest.raises(ValueError, match="read-only"):
        op.matrix[1, 0] = 2.0


def test_defect_form_is_cached_and_read_only():
    op = bidisc_shift(8, axis=1)
    report = op.defect_form
    assert op.defect_form is report
    assert np.array_equal(report.defect_matrix, polarized_defect_form(op).defect_matrix)
    with pytest.raises(ValueError, match="read-only"):
        report.defect_matrix[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.max_residual = 0.0


def test_shift_form_keeps_its_diagonal():
    # A real weighted shift's report keeps the diagonal alone, read-only; its
    # matrix is built on each call, for the tests, and G c is read off the
    # diagonal. A dense report keeps its matrix as its block.
    op = dirichlet_shift(12)
    report = op.defect_form
    assert report.block.shape == (0, 0) and report.support.size == 0
    assert report.diagonal.shape == op.window.idx.shape
    with pytest.raises(ValueError, match="read-only"):
        report.diagonal[0] = 1.0
    G = report.defect_matrix
    assert G is not report.defect_matrix
    assert np.array_equal(G, np.diag(report.diagonal))
    with pytest.raises(ValueError, match="read-only"):
        G[0, 0] = 1.0
    rng = np.random.default_rng(84)
    c = rng.standard_normal(G.shape[0]) + 1j * rng.standard_normal(G.shape[0])
    assert np.array_equal(report.image(c), report.diagonal * c)
    dense = polarized_defect_form(_unitary_c5())
    assert dense.diagonal is None and dense.defect_matrix is dense.block
    c = c[:5]
    assert np.allclose(dense.image(c), dense.block @ c, rtol=1e-15, atol=1e-15)


def test_defect_quadratic_constant_perturbation():
    # brute-force expansion: 1 - 2(|a|^2 + 2) + (|a|^4 + 2|a|^2 + 3) = |a|^4
    for alpha in (1.0, 0.5 + 0.5j, -2.0, 3j):
        op = constant_perturbed_dirichlet(8, alpha)
        one = op.space.basis_vector(0)
        expected = 1 - 2 * (abs(alpha) ** 2 + 2) + (abs(alpha) ** 4 + 2 * abs(alpha) ** 2 + 3)
        assert defect_quadratic(op, one) == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(abs(alpha) ** 4, abs=1e-12)


def test_defect_quadratic_vanishes_for_isometry_on_safe_vectors():
    from twoiso.function_spaces import bidisc_shift

    op = bidisc_shift(4, axis=2)
    rng = np.random.default_rng(37)
    E = window_basis(op.space, op.window.idx)
    for _ in range(10):
        coeffs = rng.standard_normal(E.shape[1]) + 1j * rng.standard_normal(E.shape[1])
        x = E @ coeffs
        assert abs(defect_quadratic(op, x)) <= 1e-10 * max(1.0, op.space.norm(x) ** 2)


def test_defect_quadratic_polynomial_perturbation_closed_form():
    rng = np.random.default_rng(38)
    N = 10
    for _ in range(30):
        deg = int(rng.integers(1, 6))
        a = rng.uniform(-1, 1, deg) + 1j * rng.uniform(-1, 1, deg)
        p = PolyCoeffs(tuple(a))
        op = perturbed_dirichlet(N, p)
        one = op.space.basis_vector(0)
        closed = -2 * a[0].real - sum((i + 1) * abs(c) ** 2 for i, c in enumerate(a))
        assert defect_quadratic(op, one) == pytest.approx(closed, abs=1e-10)


def test_defect_quadratic_matches_defect_operator_form():
    rng = np.random.default_rng(39)
    for _ in range(30):
        space = random_weighted_space(rng)
        T = random_op(space, rng)
        x = random_vec(space, rng)
        form = space.inner(apply(defect_operator(T), x), x)
        assert abs(defect_quadratic(T, x) - form.real) <= 1e-10 * max(1.0, abs(form))
        assert abs(form.imag) <= 1e-10 * max(1.0, abs(form))


def _window_entries(T: Op, x, idx) -> np.ndarray:
    """E^H W D x on the labels idx, one polarized entry <D x, e_i> / sqrt(w_i)
    per label: the referee of the idx mode of ``defect_quadratic``."""
    e = window_basis(T.space, idx).T
    return np.array([polarized_defect_entry(T, x, col) for col in e], dtype=complex)


def test_defect_quadratic_block_matches_column_calls():
    # The values on a set of k labels against k one-label calls, which read
    # the same row, and against the polarized entry of each label.
    rng = np.random.default_rng(44)
    for k in (0, 1, 2, 5):
        for _ in range(10):
            space = random_weighted_space(rng)
            T = random_op(space, rng)
            x = random_vec(space, rng)
            idx = rng.permutation(space.dim)[:k]
            values = defect_quadratic(T, x, idx)
            assert isinstance(values, np.ndarray) and values.shape == (idx.size,)
            assert values.dtype == np.complex128
            for j in range(idx.size):
                assert defect_quadratic(T, x, idx[j:j + 1])[0] == values[j]
            expected = _window_entries(T, x, idx)
            assert np.all(np.abs(values - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


def test_defect_quadratic_vector_is_a_one_column_block():
    # q(x) = <D x, x> = Re(c_x^H E^H W D x) for x in the window, with window
    # coordinates c_x = sqrt(w_i) x_i and the image on the whole window.
    rng = np.random.default_rng(47)
    for _ in range(30):
        space = random_weighted_space(rng)
        T = random_op(space, rng)
        idx = T.window.idx
        x = random_vec(space, rng)
        c_x = np.sqrt(space.weight_array[idx]) * x[idx]
        value = np.vdot(c_x, defect_quadratic(T, x, idx)).real
        assert abs(defect_quadratic(T, x) - value) <= 1e-12 * max(1.0, abs(value))


@pytest.mark.parametrize("case", [
    "dirichlet-shift-12", "bidisc-shift-8-z1", "bidisc-shift-8-z2", "dirichlet-12-iz",
    "bidisc-8-off-example", "unitary-c5", "weighted-c2", "weighted-c4", "weighted-c6"])
def test_defect_quadratic_form_matches_polarized_entries(case):
    # x and a set of three labels on the safe window of each operator: real
    # shifts, complex matrices and random weighted C^n, all drawn in this
    # order from one seeded stream.
    rng = np.random.default_rng(75)
    pairs = {}
    for name, make in (
            ("dirichlet-shift-12", lambda: cases.problem("dirichlet-12").base),
            ("bidisc-shift-8-z1", lambda: cases.problem("bidisc-8").base),
            ("bidisc-shift-8-z2", lambda: bidisc_shift(8, axis=2)),
            ("dirichlet-12-iz", lambda: cases.problem("dirichlet-12-iz").perturbed()),
            ("bidisc-8-off-example", lambda: cases.problem("bidisc-8-off-example").perturbed()),
            ("unitary-c5", lambda: Op.from_exact_matrix(make_coordinate_space(5),
                                                        random_unitary(5, rng))),
            *((f"weighted-c{n}", lambda n=n: random_op(make_coordinate_space(
                n, weights=tuple(rng.uniform(0.5, 3.0, size=n))), rng)) for n in (2, 4, 6))):
        T = make()
        keep = T.space.degrees <= T.window.cutoff
        window = np.flatnonzero(keep)
        x = np.where(keep, random_vec(T.space, rng), 0.0)
        pairs[name] = T, x, rng.choice(window, size=min(3, window.size), replace=False)
    T, x, idx = pairs[case]
    for vec in (x, x.real):
        values = defect_quadratic(T, vec, idx)
        expected = _window_entries(T, vec, idx)
        assert np.all(np.abs(values - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


def test_defect_quadratic_shapes():
    space = make_coordinate_space(3, weights=(1.0, 2.0, 0.5))
    T = random_op(space, np.random.default_rng(45))
    x = space.basis_vector(1)
    value = defect_quadratic(T, x)
    assert type(value) is float
    assert defect_quadratic(T, x, np.arange(2)).shape == (2,)
    assert defect_quadratic(T, x, np.array([], dtype=int)).shape == (0,)
    for bad in (np.zeros((3, 2, 2)), np.zeros((2, 3)), np.zeros(2)):
        with pytest.raises(ValueError, match="shape"):
            defect_quadratic(T, bad)
    for bad in (np.zeros((3, 1), dtype=int), np.array([0.0, 1.0]), np.array([True, False]),
                np.array([0, 3]), np.array([-1]), np.array(1)):
        with pytest.raises(ValueError, match=r"idx must be a 1-D array of integer labels"):
            defect_quadratic(T, x, bad)


def test_defect_quadratic_overflow_is_value_error():
    # 1e200 I runs in real arithmetic and 1e200 e^{i pi/4} I in complex; both
    # refuse the same way, with no warning on the way.
    space = make_coordinate_space(2)
    for phase in (1.0, np.exp(0.25j * np.pi)):
        T = Op.from_exact_matrix(space, 1e200 * phase * np.eye(2))
        assert T.matrix.dtype == (np.complex128 if phase != 1.0 else np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for labels in ((), (np.arange(2),)):
                with pytest.raises(ValueError, match="overflows"):
                    defect_quadratic(T, space.basis_vector(0), *labels)
            with pytest.raises(ValueError, match="overflows"):
                polarized_defect_form(T)


# ---------------------------------------------------------------------------
# polarization


def test_polarized_form_matches_defect_operator_restriction():
    rng = np.random.default_rng(40)
    for _ in range(20):
        space = random_weighted_space(rng)
        T = random_op(space, rng)
        report = polarized_defect_form(T)
        E = window_basis(space, T.window.idx)
        W = np.diag(space.weight_array)
        direct = E.conj().T @ W @ (defect_operator(T).matrix @ E)
        scale_ref = max(1.0, np.max(np.abs(direct)))
        assert np.max(np.abs(report.defect_matrix - direct)) <= 1e-10 * scale_ref


def test_polarized_form_hermitian():
    rng = np.random.default_rng(41)
    for _ in range(20):
        space = random_weighted_space(rng)
        T = random_op(space, rng)
        report = polarized_defect_form(T)
        M = report.defect_matrix
        assert np.max(np.abs(M - M.conj().T)) <= 1e-10 * max(1.0, report.max_residual)


def _assert_form_matches_polarization(T) -> np.ndarray:
    G = polarized_defect_form(T).defect_matrix
    P = polarized_form_by_entries(T, T.window.idx)
    assert np.max(np.abs(G - P)) <= 1e-12 * max(1.0, np.max(np.abs(P)))
    return P


def test_gram_form_matches_polarization_random_weighted_c6():
    rng = np.random.default_rng(43)
    for _ in range(10):
        weights = tuple(rng.uniform(0.2, 5.0, size=6))
        space = make_coordinate_space(6, weights=weights)
        _assert_form_matches_polarization(random_op(space, rng))


def test_gram_form_matches_polarization_non_admissible_dirichlet():
    op = perturbed_dirichlet(24, PolyCoeffs((1j,)))
    P = _assert_form_matches_polarization(op)
    assert np.max(np.abs(P)) >= 0.5


def test_gram_form_matches_polarization_bidisc_window():
    op = cases.problem("bidisc-8").perturbed()
    assert op.window.idx.size == 28
    _assert_form_matches_polarization(op)


def test_polarized_form_dirichlet_shift_two_isometry():
    op = dirichlet_shift(8)
    report = polarized_defect_form(op)
    assert report.defect_matrix.shape[0] == 7
    assert report.max_residual <= 1e-12


def test_polarized_form_perturbed_swap_zero_matrix():
    space = make_coordinate_space(2)
    V = Op.from_exact_matrix(space, [[0, 1], [1, 0]])
    K = rank_one(space, -2.0 * space.basis_vector(0), space.basis_vector(1))
    report = polarized_defect_form(add(V, K))
    assert np.max(np.abs(report.defect_matrix)) <= 1e-14


def _column_lowering_case():
    # M_z + z⊗z^3 sends z^3 to z^4 + 4z, lowering its degree by 2, so D 1
    # reaches z^3 although that label lies above top(1) + 2 growth = 2.
    shift = dirichlet_shift(12)
    space = shift.space
    T = add(shift, rank_one(space, space.monomial((1,)), space.monomial((3,))))
    assert T.degree_growth == 1
    return T, space.basis_vector(0), 3


def _tiny_mass_above_band_case():
    # 2 M_z has a diagonal defect that vanishes nowhere; 1e-14 of x on z^10
    # lifts top(x) from 0 to 10, so D x reaches z^10 at about 1e-13.
    shift = dirichlet_shift(24)
    T = Op(shift.space, 2.0 * shift.matrix, degree_growth=1)
    return T, shift.space.basis_vector(0) + 1e-14 * shift.space.monomial((10,)), 10


@pytest.mark.parametrize(
    "make", [_column_lowering_case, _tiny_mass_above_band_case],
    ids=["column-lowers-degree", "tiny-mass-above-band"],
)
def test_defect_apply_in_window_reaches_past_the_plain_band(make):
    # Polarization loses round-off of the scale of x, which is about 1e-3 of
    # the tiny entry at z^10; the dense window form, E^H W D x = G c_x, reads
    # that entry to round-off of its own size.
    T, x, label = make()
    referee = defect_image_by_entries(T, x)
    assert abs(referee[label]) > 0.0
    image = defect_apply_in_window(T, x)
    assert np.max(np.abs(image - referee)) <= 1e-12 * np.max(np.abs(referee))
    idx = T.window.idx
    root_w = np.sqrt(T.space.weight_array[idx])
    dense = dense_defect_form(T) @ (root_w * x[idx]) / root_w
    at = int(np.flatnonzero(idx == label)[0])
    assert abs(image[label] - dense[at]) <= 1e-12 * abs(dense[at])


@pytest.mark.parametrize(
    "make",
    [
        lambda: dirichlet_shift(12),
        lambda: perturbed_dirichlet(12, PolyCoeffs((0.0, 0.5))),
        lambda: Op.from_exact_matrix(make_coordinate_space(3), np.eye(3)),
    ],
    ids=["dirichlet-shift", "dirichlet-quadratic", "c3-identity"],
)
def test_defect_apply_in_window_of_zero_is_zero(make):
    op = make()
    image = defect_apply_in_window(op, op.space.zeros())
    assert image.shape == (op.space.dim,)
    assert not np.any(image)


def test_defect_apply_in_window_rejects_unsafe_vector():
    op = dirichlet_shift(4)
    with pytest.raises(TruncationError):
        defect_apply_in_window(op, op.space.monomial((4,)))


# ---------------------------------------------------------------------------
# real operators in real arithmetic
#
# An operator whose entries are all real multiplies in float64; the dense
# complex products of ``dense_defect_form`` and the complex matrix itself
# are the referees.


def _form_matches_dense_referee(T: Op) -> np.ndarray:
    G = polarized_defect_form(T).defect_matrix
    H = dense_defect_form(T)
    assert G.shape == H.shape
    assert np.max(np.abs(G - H)) <= 1e-13 * max(1.0, np.max(np.abs(H)))
    return G


def test_real_operators_form_in_real_arithmetic_matches_complex_referee():
    # Every case declared real that has a verdict: its base and T + u⊗v.
    for name in cases.names(field="real", branch="I") + cases.names(field="real", branch="II"):
        problem = cases.problem(name)
        for T in (problem.base, problem.perturbed()):
            assert T.matrix.dtype == np.float64, name
            assert _form_matches_dense_referee(T).dtype == np.float64, name


def test_complex_operators_form_matches_complex_referee():
    # A complex u keeps T + u⊗v in complex arithmetic; the Dirichlet and
    # bidisc bases are real.
    for name in cases.names(field="complex"):
        problem = cases.problem(name)
        Tt = problem.perturbed()
        assert Tt.matrix.dtype == np.complex128, name
        for T in (problem.base, Tt):
            _form_matches_dense_referee(T)


@pytest.mark.parametrize("name", ["dirichlet-12", "bidisc-18", "dirichlet-40-z3"],
                         ids=lambda name: f"{name}-perturbed")
def test_real_defect_quadratic_blocks_match_column_calls(name):
    # A real matrix reads the row of a complex x through stacked re and im
    # rows; against one-label calls, the same values in complex arithmetic on
    # the complex matrix, and the polarized entries.
    T = cases.problem(name).perturbed()
    assert T.matrix.dtype == np.float64
    rng = np.random.default_rng(72)
    window = T.window.idx
    w = T.space.weight_array[:, None]
    A = T.matrix.astype(complex)
    x = np.zeros(T.space.dim, dtype=complex)
    x[window] = rng.standard_normal(window.size) + 1j * rng.standard_normal(window.size)
    tx = A @ x[:, None]
    ttx = A @ tx

    def form(idx):
        E = window_basis(T.space, idx)
        TE = A @ E
        return ((w * x[:, None]).T @ E.conj() - 2.0 * (w * tx).T @ TE.conj()
                + (w * ttx).T @ (A @ TE).conj())[0]

    for k in (0, 1, 10):
        idx = rng.choice(window, size=k, replace=False)
        values = defect_quadratic(T, x, idx)
        assert isinstance(values, np.ndarray) and values.shape == (k,)
        direct = form(idx)
        expected = _window_entries(T, x, idx)
        for j in range(k):
            assert defect_quadratic(T, x, idx[j:j + 1])[0] == values[j]
            assert abs(values[j] - direct[j]) <= 1e-12 * max(1.0, abs(direct[j]))
            assert abs(values[j] - expected[j]) <= 1e-12 * max(1.0, abs(expected[j]))


def test_real_defect_quadratic_of_a_real_vector_makes_no_complex_product(monkeypatch):
    # A real matrix and an x with no nonzero imaginary part run in float64;
    # q stays a float and the image complex128, with the complex path's values.
    T = cases.problem("dirichlet-12").perturbed()
    x = T.space.basis_vector(1) - 0.5 * T.space.basis_vector(3)
    idx = T.window.idx
    expected = _window_entries(T, x, idx)
    products = []

    def recorded(a, b):
        products.append((a.dtype, b.dtype))
        return _matmul(a, b)

    monkeypatch.setattr(operators, "_matmul", recorded)
    q, values = defect_quadratic(T, x), defect_quadratic(T, x, idx)
    assert type(q) is float and values.dtype == np.complex128
    assert len(products) == 6 and all(dtype == np.float64 for pair in products for dtype in pair)
    assert np.all(np.abs(values - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


def test_matmul_of_a_complex_matrix_and_a_real_block_of_other_width():
    # A real factor that is not square used to be reshaped to its own shape,
    # and a complex matrix times a real vector to (dim, dim).
    rng = np.random.default_rng(76)
    C = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    R = rng.standard_normal((3, 3))
    for a, b in ((C, np.eye(3)[:, :2]), (C[:2], R), (R[:2], C), (R[:, :2].T, C[:, 0]),
                 (C[:1], R[:, :2]), (C, R[:, 0]), (R[:, 0], C), (C[:, 0], R)):
        product = _matmul(a, b)
        assert product.shape == (a @ b).shape
        assert np.allclose(product, a @ b, rtol=1e-15, atol=1e-15)


def test_matrix_is_real_read_only_on_shifts_and_complex_otherwise():
    for op in (dirichlet_shift(12), bidisc_shift(8, axis=1), bidisc_shift(8, axis=2)):
        real = op.matrix
        assert real.dtype == np.float64 and real.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            real[1, 0] = 2.0
    rng = np.random.default_rng(73)
    for dim in (2, 4, 6):
        U = Op.from_exact_matrix(make_coordinate_space(dim), random_unitary(dim, rng))
        assert U.matrix.dtype == np.complex128 and U.matrix.flags.c_contiguous
    complex_p = dirichlet_perturbation_problem(12, PolyCoeffs((0.5j,))).perturbed()
    assert complex_p.matrix.dtype == np.complex128


def test_op_copies_a_callers_array_and_leaves_it_writable():
    space = make_coordinate_space(3)
    for given in (np.eye(3), np.eye(3, dtype=complex), 0.5j * np.eye(3)):
        before = given.copy()
        for T in (Op(space, given, degree_growth=0), Op.from_exact_matrix(space, given)):
            assert not np.shares_memory(T.matrix, given)
            assert given.flags.writeable and not T.matrix.flags.writeable
            given[0, 1] = 7.0
            assert np.array_equal(T.matrix, before)
            given[0, 1] = 0.0
    T = dirichlet_shift(6)
    one = T.space.basis_vector(0)
    assert not np.shares_memory(perturb(T, -2.0 * T.space.basis_vector(1), one).matrix,
                                T.matrix)


def test_matrix_is_stored_in_the_field_of_its_entries():
    space = make_coordinate_space(2)
    swap = [[0.0, 1.0], [1.0, 0.0]]
    for given in (swap, np.array(swap, dtype=complex), np.array(swap, dtype=np.complex64),
                  np.array(swap, dtype=int)):
        assert Op(space, given).matrix.dtype == np.float64
        assert Op.from_exact_matrix(space, given).matrix.dtype == np.float64
    assert Op(space, np.array(swap) + 1e-300j).matrix.dtype == np.complex128
    assert Op(space, np.array([[0, 1j], [1, 0]], dtype=object)).matrix.dtype == np.complex128
    assert Op(space, np.array(swap, dtype=object)).matrix.dtype == np.float64
    # perturb upcasts a real base only for a complex rank-one block
    T = dirichlet_shift(6)
    one, z = T.space.basis_vector(0), T.space.basis_vector(1)
    assert perturb(T, -2.0 * z, one).matrix.dtype == np.float64
    assert perturb(T, 0.5j * z, one).matrix.dtype == np.complex128
    assert perturb(T, -2.0 * z, 1j * one).matrix.dtype == np.complex128
    # A complex base whose perturbation cancels every imaginary part sums to
    # a real matrix; one imaginary part left outside the block keeps it complex.
    base = Op(space, [[0.0, 1.0 + 1.0j], [1.0, 0.0]])
    e0, e1 = space.basis_vector(0), space.basis_vector(1)
    cancelled = perturb(base, -1j * e0, e1)
    assert cancelled.matrix.dtype == np.float64
    assert np.array_equal(cancelled.matrix, swap)
    base = Op(space, [[0.0, 1.0 + 1.0j], [1.0j, 0.0]])
    assert perturb(base, -1j * e0, e1).matrix.dtype == np.complex128


@pytest.mark.parametrize("bad", ["1", True, np.inf, np.nan, None],
                         ids=["str", "bool", "inf", "nan", "None"])
def test_op_refuses_a_matrix_entry_that_is_not_a_finite_number(bad):
    # Each of them built an Op. None was stored as nan+nanj, and the first
    # defect form then reported an overflow.
    space = make_coordinate_space(2)
    for given in ([[bad, 0.0], [0.0, 1.0]], np.array([[bad, 0.0], [0.0, 1.0]], dtype=object),
                  np.full((2, 2), bad)):
        for build in (Op, Op.from_exact_matrix):
            with pytest.raises(ValueError, match="matrix entries must be finite numbers"):
                build(space, given)


def test_to_dict_is_byte_identical_for_a_real_matrix_given_as_complex():
    rng = np.random.default_rng(75)
    space = make_dirichlet_space(5)
    real = rng.standard_normal((6, 6)) * (rng.random((6, 6)) < 0.5)
    docs = [json.dumps(Op(space, given, degree_growth=1).to_dict())
            for given in (real, real.astype(complex))]
    assert docs[0] == docs[1]
    assert Op.from_dict(json.loads(docs[0])).matrix.dtype == np.float64
    assert json.dumps(Op.from_dict(json.loads(docs[0])).to_dict()) == docs[0]


def test_tiny_imaginary_part_keeps_complex_arithmetic():
    # 1e-300 is a real imaginary part, not round-off: the operator stays
    # complex, and the form still matches the referee.
    shift = bidisc_shift(6, axis=1)
    mat = shift.matrix.astype(complex)
    mat[1, 0] += 1e-300j
    T = Op(shift.space, mat, degree_growth=1)
    assert T.matrix.dtype == np.complex128
    assert _form_matches_dense_referee(T).dtype == np.complex128


# ---------------------------------------------------------------------------
# weighted shifts read off the diagonal
#
# A real operator that sends each label to a multiple of one label, no two
# to the same, has a diagonal defect form, read off without Gram products.
# ``field_gram_form`` runs the dense products, and the diagonal must match
# it bit for bit; operators of any other shape keep the dense path.


def _dense_builds(monkeypatch) -> list:
    """Record the dense path's one ``np.matmul`` call per form (the
    referees multiply with ``@``)."""
    calls = []
    matmul = np.matmul

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return calls


def _decoded(op: Op) -> Op:
    return Op.from_dict(json.loads(json.dumps(op.to_dict())))


def _weighted_shift_c7() -> Op:
    # Random weights and coefficients, with a zero column: a defect form that
    # vanishes nowhere, unlike a Dirichlet or bidisc shift.
    rng = np.random.default_rng(81)
    space = make_coordinate_space(7, weights=tuple(rng.uniform(0.3, 4.0, size=7)))
    mat = np.zeros((7, 7))
    mat[[2, 5, 0, 6, 3, 1], [0, 1, 3, 4, 5, 6]] = rng.uniform(0.5, 2.0, size=6)
    return Op.from_exact_matrix(space, mat)


def _base(name: str) -> Op:
    return cases.problem(name).base


def _perturbed(name: str) -> Op:
    return cases.problem(name).perturbed()


@pytest.mark.parametrize("make", [
    *(pytest.param(lambda N=N: _base(f"dirichlet-{N}"), id=f"dirichlet-{N}-shift")
      for N in (12, 24, 48, 96)),
    # M_z + (-2z)⊗1 sends 1 to -z: a shift again.
    *(pytest.param(lambda N=N: _perturbed(f"dirichlet-{N}"), id=f"dirichlet-{N}-ladder-perturbed")
      for N in (12, 96)),
    *(pytest.param(make, id=f"bidisc-{N}-z{axis}") for N in (6, 10, 14, 18)
      for axis, make in ((1, lambda N=N: _base(f"bidisc-{N}")),
                         (2, lambda N=N: bidisc_shift(N, axis=2)))),
    *(pytest.param(lambda N=N: _perturbed(f"bidisc-{N}"), id=f"bidisc-{N}-example-perturbed")
      for N in (8, 18)),
    pytest.param(lambda: _decoded(_base("dirichlet-48")), id="dirichlet-48-decoded"),
    pytest.param(lambda: _decoded(_base("bidisc-10")), id="bidisc-10-decoded"),
    pytest.param(_weighted_shift_c7, id="weighted-c7-shift"),
])
def test_shift_form_is_its_diagonal_bit_for_bit(make, monkeypatch):
    T = make()
    dense = _dense_builds(monkeypatch)
    G = polarized_defect_form(T).defect_matrix
    assert not dense, "the form took the dense path"
    H = field_gram_form(T)
    assert G.dtype == H.dtype == np.float64
    assert np.array_equal(G, H)
    assert np.array_equal(G, np.diag(np.diag(G)))
    D = dense_defect_form(T)
    assert np.max(np.abs(G - D)) <= 1e-13 * max(1.0, np.max(np.abs(D)))


def test_weighted_shift_diagonal_is_nonzero_and_matches_polarization():
    T = _weighted_shift_c7()
    assert T.degree_growth == 0
    G = polarized_defect_form(T).defect_matrix
    P = polarized_form_by_entries(T, T.window.idx)
    assert np.min(np.abs(np.diag(G))) >= 0.1
    assert np.max(np.abs(G - P)) <= 1e-12 * max(1.0, np.max(np.abs(P)))


def test_random_weighted_shifts_match_the_dense_products_bit_for_bit(monkeypatch):
    # Weights and coefficients over many orders of magnitude, with some
    # zero columns and a random pi.
    rng = np.random.default_rng(83)
    dense = _dense_builds(monkeypatch)
    for _ in range(30):
        dim = int(rng.integers(1, 31))
        space = make_coordinate_space(dim, weights=tuple(np.exp(rng.uniform(-30, 30, dim))))
        mat = np.zeros((dim, dim))
        mat[rng.permutation(dim), np.arange(dim)] = (
            np.exp(rng.uniform(-40, 40, dim)) * rng.choice([-1.0, 1.0], dim)
            * (rng.random(dim) < 0.85))
        T = Op(space, mat, degree_growth=0)
        assert np.array_equal(polarized_defect_form(T).defect_matrix, field_gram_form(T))
    assert not dense


def _two_entry_column() -> Op:
    # A survivor of the alpha search for n = 0: M_z + alpha 1⊗1 with
    # |alpha + 1| = 1 sends 1 to alpha + z.
    return constant_perturbed_dirichlet(12, -2.0)


def _shared_row() -> Op:
    # e0 and e1 both go to e2, so (TE)^H W (TE) has an off-diagonal entry.
    space = make_coordinate_space(4, weights=(1.0, 2.0, 0.5, 3.0))
    mat = np.zeros((4, 4))
    mat[2, 0], mat[2, 1], mat[3, 2] = 1.0, -2.0, 0.5
    return Op.from_exact_matrix(space, mat)


def _unitary_c5() -> Op:
    return Op.from_exact_matrix(make_coordinate_space(5),
                                random_unitary(5, np.random.default_rng(82)))


# M_z + p⊗1 with p = (e^{i pi/3} - 1) z sends 1 to e^{i pi/3} z: a complex
# shift, whose form stays complex.
@pytest.mark.parametrize("make", [_two_entry_column, _shared_row, _unitary_c5,
                                  lambda: _perturbed("dirichlet-24-complex-p")],
                         ids=["two-entry-column", "shared-row", "unitary-c5", "complex-p"])
def test_other_operators_keep_the_dense_form(make, monkeypatch):
    T = make()
    dense = _dense_builds(monkeypatch)
    G = polarized_defect_form(T).defect_matrix
    assert len(dense) == 1
    H = field_gram_form(T)
    assert G.dtype == H.dtype == T.matrix.dtype
    assert np.array_equal(G, H)


def test_shared_row_form_has_off_diagonal_entries():
    # (-2 <T e0, T e1> + <T^2 e0, T^2 e1>) / sqrt(w0 w1)
    # = (-2 (1)(-2)(0.5) + (0.5)(-1)(3)) / sqrt(2)
    G = polarized_defect_form(_shared_row()).defect_matrix
    assert G[0, 1] == G[1, 0] == pytest.approx(0.5 / np.sqrt(2.0), rel=1e-15)


def test_zero_column_in_the_window_reads_its_weight(monkeypatch):
    # With growth 0 the window holds the top monomial of the Dirichlet shift,
    # whose column is zero: its defect is <e, e> = 1, and z^(N-1), sent to
    # it, reads 1 - 2 w_N / w_(N-1), with w_k = k + 1.
    shift = dirichlet_shift(12)
    T = Op(shift.space, shift.matrix, degree_growth=0)
    dense = _dense_builds(monkeypatch)
    G = polarized_defect_form(T).defect_matrix
    assert not dense
    assert np.array_equal(G, field_gram_form(T))
    assert G[12, 12] == pytest.approx(1.0, rel=1e-15)
    assert G[11, 11] == pytest.approx(1.0 - 2.0 * 13.0 / 12.0, rel=1e-15)


def test_c2_swap_form_is_exactly_zero(monkeypatch):
    space = make_coordinate_space(2)
    V = Op.from_exact_matrix(space, [[0, 1], [1, 0]])
    perturbed = perturb(V, -2.0 * space.basis_vector(0), space.basis_vector(1))
    dense = _dense_builds(monkeypatch)
    for T in (V, perturbed):
        G = polarized_defect_form(T).defect_matrix
        assert not dense
        assert np.array_equal(G, field_gram_form(T))
        assert np.array_equal(G, np.zeros((2, 2)))


def test_overflowing_diagonal_is_value_error(monkeypatch):
    dense = _dense_builds(monkeypatch)
    T = Op.from_exact_matrix(make_coordinate_space(2), 1e200 * np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            polarized_defect_form(T)
    assert not dense


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_defect_report_refuses_a_non_finite_real_entry(bad, where):
    # A real matrix's largest entry is read off its max and min, with no abs
    # temporary; a NaN, +inf or -inf anywhere must still be refused.
    mat = np.linspace(-3.0, 2.0, 35).reshape(5, 7)
    mat.flat[{"first": 0, "middle": 17, "last": -1}[where]] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="the defect form overflows"):
            DefectReport.of(mat, dirichlet_shift(4).window)


def test_defect_report_reads_the_largest_entry_of_a_real_matrix():
    for mat in (np.array([[-3.0, 2.0], [1.0, 0.5]]), np.array([[0.5, 2.0], [-1.0, 3.0]]),
                np.array([[-0.0]]), np.zeros((3, 3))):
        report = DefectReport.of(mat.copy(), dirichlet_shift(4).window)
        assert report.max_residual == float(np.abs(mat).max())
        assert report.defect_matrix.dtype == np.float64


# ---------------------------------------------------------------------------
# truncation bookkeeping


def test_safe_subspace_growth_zero_is_whole_space():
    space = make_coordinate_space(5)
    rng = np.random.default_rng(42)
    T = random_op(space, rng)
    assert T.degree_growth == 0
    assert np.array_equal(T.window.idx, np.arange(5))


@pytest.mark.parametrize(
    "make",
    [
        lambda: dirichlet_shift(12),
        lambda: bidisc_shift(8, axis=1),
        lambda: _perturbed("bidisc-8"),
        lambda: random_op(make_coordinate_space(4), np.random.default_rng(44)),
    ],
    ids=["dirichlet-12", "bidisc-shift-8", "bidisc-example-8", "c4-seeded"],
)
def test_safe_window_certificate(make):
    # The window is safe by construction: every monomial it lists is
    # truncation-safe and every other one is not.
    op = make()
    window = op.window
    idx = window.idx
    assert window is op.window
    assert idx.dtype.kind == "i" and np.all(np.diff(idx) > 0)
    assert not (idx.flags.writeable or window.sqrt_w.flags.writeable)
    assert np.array_equal(window.sqrt_w, np.sqrt(op.space.weight_array[idx]))
    inside = set(idx.tolist())
    for i in range(op.space.dim):
        assert op.window.contains(op.space.basis_vector(i)) == (i in inside)


def test_safe_subspace_too_small():
    # An empty window is a value: it holds the zero vector and no label.
    # A defect form on it is refused.
    space = make_dirichlet_space(1)
    mat = np.zeros((2, 2))
    mat[1, 0] = 1.0
    T = Op(space, mat, degree_growth=1)
    assert T.window.cutoff == -1 and T.window.idx.size == 0
    assert T.window.contains(space.zeros())
    assert not T.window.contains(space.basis_vector(0))
    with pytest.raises(TruncationError, match="truncation too small: no labels of degree <= -1"):
        T.defect_form


def test_safe_subspace_requires_growth_certificate():
    op = adjoint(dirichlet_shift(4))
    with pytest.raises(TruncationError, match="unknown"):
        op.window


def test_safe_vectors_match_larger_truncation():
    # For x in the safe window, T^2 x computed at N=10 equals the same
    # computation embedded at N=14; an unsafe x genuinely differs.
    p = PolyCoeffs((0.3, 0.0, -0.2j))
    t10 = perturbed_dirichlet(10, p)
    t14 = perturbed_dirichlet(14, p)

    def twice(op, x):
        return apply(op, apply(op, x))

    x10 = t10.space.basis_vector(0) + t10.space.monomial((4,))
    assert t10.window.contains(x10)
    x14 = np.zeros(t14.space.dim, dtype=complex)
    x14[: t10.space.dim] = x10
    y10 = twice(t10, x10)
    y14 = twice(t14, x14)
    assert np.allclose(y14[: t10.space.dim], y10, atol=1e-13)
    assert np.max(np.abs(y14[t10.space.dim:])) <= 1e-13

    bad10 = t10.space.monomial((9,))
    assert not t10.window.contains(bad10)
    bad14 = np.zeros(t14.space.dim, dtype=complex)
    bad14[: t10.space.dim] = bad10
    z10_embedded = np.zeros(t14.space.dim, dtype=complex)
    z10_embedded[: t10.space.dim] = twice(t10, bad10)
    z14 = twice(t14, bad14)
    assert np.max(np.abs(z14 - z10_embedded)) > 0.5


def test_truncation_safe_flags_top_degree():
    op = dirichlet_shift(6)
    assert op.window.contains(op.space.monomial((4,)))
    assert not op.window.contains(op.space.monomial((5,)))
    assert not op.window.contains(op.space.monomial((6,)))


def test_negative_degree_growth_is_refused():
    with pytest.raises(ValueError, match="degree_growth must be non-negative or None"):
        Op(make_coordinate_space(2), np.eye(2), degree_growth=-1)


@pytest.mark.parametrize("growth", [0.5, 1.7, "2", True])
def test_non_integer_degree_growth_is_refused(growth):
    # The growth was read through int(): 0.5 certified growth 0, and so a
    # wider truncation-exact window than the operator has.
    with pytest.raises(ValueError, match="degree_growth must be an integer or 'unbounded'"):
        Op(make_coordinate_space(2), np.eye(2), degree_growth=growth)


def test_unbounded_growth_is_never_truncation_safe():
    T = Op(make_dirichlet_space(4), dirichlet_shift(4).matrix)
    assert T.degree_growth is None
    with pytest.raises(TruncationError, match="unbounded"):
        T.window
    with pytest.raises(TruncationError, match="unbounded"):
        defect_apply_in_window(T, T.space.basis_vector(0))


def test_scanned_degree_growth():
    shift = dirichlet_shift(6)
    space = shift.space
    assert Op.from_exact_matrix(space, shift.matrix).degree_growth == 1
    p = PolyCoeffs((0.0, 0.0, 1.0))
    K = rank_one(space, p.to_vector(space), space.basis_vector(0))
    assert K.degree_growth == 3
    assert Op.from_exact_matrix(space, np.zeros((space.dim, space.dim))).degree_growth == 0
    assert Op.from_exact_matrix(space, adjoint(shift).matrix).degree_growth == 0
    # the scan runs before construction; the constructor refuses the shape
    with pytest.raises(ValueError, match="matrix has shape"):
        Op.from_exact_matrix(space, np.eye(space.dim + 1))


def test_scanned_degree_growth_matches_column_scan():
    # the largest nonzero degree of each column minus the column's degree,
    # one column at a time, against the vectorized scan
    rng = np.random.default_rng(47)
    space = make_bidisc_space(4)
    degs = space.degrees
    for _ in range(50):
        mat = random_matrix(space.dim, rng) * (rng.random((space.dim, space.dim)) < 0.05)
        want = 0
        for j in range(space.dim):
            rows = np.flatnonzero(mat[:, j])
            if rows.size:
                want = max(want, int(degs[rows].max() - degs[j]))
        assert Op.from_exact_matrix(space, mat).degree_growth == want


# ---------------------------------------------------------------------------
# serialization


def test_operator_json_round_trip():
    op = perturbed_dirichlet(6, PolyCoeffs((-2.0,)))
    doc = op.to_dict()
    back = Op.from_dict(doc)
    assert back.space == op.space
    assert np.allclose(back.matrix, op.matrix)
    assert back.degree_growth == op.degree_growth


@pytest.mark.parametrize("doc", [[], "operator", None, 3])
def test_operator_from_dict_of_a_non_object_is_value_error(doc):
    with pytest.raises(ValueError, match="operator document must be a JSON object"):
        Op.from_dict(doc)


def test_operator_json_unbounded_growth():
    op = adjoint(dirichlet_shift(4))
    doc = op.to_dict()
    assert doc["degree_growth"] == "unbounded"
    assert Op.from_dict(doc).degree_growth is None


def test_operator_json_bad_matrix_length():
    doc = dirichlet_shift(4).to_dict()
    doc["matrix"] = doc["matrix"][:-1]
    with pytest.raises(ValueError, match="entries"):
        Op.from_dict(doc)


@pytest.mark.parametrize("growth", ["fast", 1.5, [1]])
def test_operator_json_bad_degree_growth(growth):
    doc = dirichlet_shift(4).to_dict()
    doc["degree_growth"] = growth
    with pytest.raises(ValueError, match="degree_growth"):
        Op.from_dict(doc)


# The inputs of a shift on a two-label space, one field at a time replaced:
# labels, weights, kind, the row-major matrix entries and the degree growth.
_FIELDS = {"labels": [[0], [1]], "weights": [1.0, 2.0], "kind": "custom",
           "matrix": [0.0, 0.0, 1.0, 0.0], "degree_growth": 1}
_NAN, _INF = float("nan"), float("inf")
_ONE_RULE = [
    ("labels", [[2**31], [0]], True),
    ("labels", [[2**62, 2**62 - 1], [0, 1]], True),
    ("labels", [[2**62, 2**62], [0, 1]], False),
    ("labels", [[2**62] * 4, [0, 0, 0, 1]], False),
    ("labels", [[0], [-1]], False),
    ("labels", [[0], [0]], False),
    ("labels", [[0], [0, 1]], False),
    ("labels", [[0], []], False),
    ("labels", [], False),
    ("weights", [2, 0.5], True),
    ("weights", ["2.5", 1.0], False),
    ("weights", [True, 1.0], False),
    ("weights", [1.0, _NAN], False),
    ("weights", [_INF, 1.0], False),
    ("weights", [1.0, -_INF], False),
    ("weights", [0.0, 1.0], False),
    ("weights", [1.0], False),
    ("weights", [1.0, _NAN, 3.0], False),
    ("weights", [True, 2.0, 3.0], False),
    ("weights", "123", False),
    ("kind", "dirichlet", True),
    ("kind", 7, False),
    ("kind", None, False),
    ("matrix", [0.0, 1.5, 2, 0.0], True),
    ("matrix", ["1", 0.0, 1.0, 0.0], False),
    ("matrix", [True, 0.0, 1.0, 0.0], False),
    ("matrix", [_INF, 0.0, 1.0, 0.0], False),
    ("matrix", [_NAN, 0.0, 1.0, 0.0], False),
    ("matrix", [None, 0.0, 1.0, 0.0], False),
    ("matrix", [0.0, 0.0, 1.0], False),
    ("degree_growth", 0, True),
    ("degree_growth", None, True),
    ("degree_growth", -1, False),
    ("degree_growth", 0.5, False),
    ("degree_growth", 1.7, False),
    ("degree_growth", "2", False),
    ("degree_growth", True, False),
    ("degree_growth", "fast", False),
    ("degree_growth", 1.5, False),
    ("degree_growth", [1], False),
]


def _construct(f: dict) -> Op:
    m = f["matrix"]
    space = WeightedSpace(f["labels"], f["weights"], f["kind"])
    return Op(space, [m[:2], m[2:]], degree_growth=f["degree_growth"])


def _decode(f: dict) -> Op:
    space = {"kind": f["kind"], "max_degree": None, "labels": f["labels"], "weights": f["weights"]}
    doc = {"space": space, "matrix": [[x, 0.0] for x in f["matrix"]],
           "degree_growth": f["degree_growth"]}
    return Op.from_dict(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("field, value, accepted", _ONE_RULE)
def test_construction_and_from_dict_accept_and_refuse_the_same_inputs(field, value, accepted):
    fields = {**_FIELDS, field: value}
    for build in (_construct, _decode):
        if accepted:
            assert build(fields).matrix.shape == (2, 2)
        else:
            with pytest.raises(ValueError):
                build(fields)


def test_json_alone_spells_a_label_entry_as_an_integer():
    # The one rule that only a document meets: an integral float is a label
    # entry for the constructor, but not in JSON.
    fields = {**_FIELDS, "labels": [[0.0], [1.0]]}
    assert _construct(fields).space.labels == ((0,), (1,))
    with pytest.raises(ValueError, match="labels must be a list of integer multi-indices"):
        _decode(fields)
