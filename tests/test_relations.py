"""Metamorphic relations between the solvers' answers: each relation holds
two solves to each other, so no reference value and no second solver is
needed (Chen et al., "Metamorphic testing: a review of challenges and
opportunities", ACM Computing Surveys 51(1), 2018).

P acts on each coefficient, linearly and with rational factors, so these
hold exactly:
- block-diagonal embedding: diagonal matrices are a copy of Q x ... x Q, so
  diag(a, c[, e]) solves to the diagonal of the scalar solutions. For
  closed_solve this holds the matrix routes of its builder (the split at
  nonzero weight, chi_zero at weight 0) to the scalar lambda-log route;
- triangular embedding: taking the diagonal of an upper-triangular matrix is
  a ring map onto Q x ... x Q that commutes with P, so an upper-triangular
  equation, which does not commute, solves to an answer whose diagonal is
  the scalar solutions of the diagonal entries;
- conjugation: for a constant invertible S, x -> S x S^-1 is a ring
  automorphism that commutes with P, so it maps solutions to solutions;
- transposition: transposing every coefficient reverses products and
  commutes with P, so the right-handed Picard answer is the transpose of the
  left-handed one in the transposes.
"""

import pytest

from rbseries.rings import matrix_ring, rational
from rbseries.series import TruncatedSeries
from rbseries.solvers import (
    FORMS,
    HOMOGENEOUS,
    INHOM_LEFT,
    INHOM_RIGHT,
    EquationSpec,
    chi_lambda,
    chi_zero,
    closed_solve,
    picard_solve,
)

from conftest import SCALAR
from test_lifted_solvers import NONZERO_WEIGHT, OPS, inputs

DIMS = (2, 3)
CAPS = (4, 6)
SOLVERS = {"closed_solve": closed_solve, "picard_solve": picard_solve}

# A unimodular S and its inverse per dimension, neither of them triangular.
CONJUGATORS = {
    2: ([[1, 2], [1, 3]], [[3, -2], [-1, 1]]),
    3: ([[1, 1, 0], [1, 2, 1], [0, 1, 2]], [[3, -2, 1], [-2, 2, -1], [1, -1, 1]]),
}


def equation(form, op, a1, a0):
    return EquationSpec(form, op, a1, None if form == HOMOGENEOUS else a0)


def diag(*xs):
    """The series over len(xs) x len(xs) matrices whose coefficient n is the
    diagonal matrix of the scalar coefficients n of xs."""
    d, cap = len(xs), xs[0].cap
    columns = [x.coeffs for x in xs]
    return TruncatedSeries(matrix_ring(d), cap, [
        [[columns[i][n].value if i == j else 0 for j in range(d)] for i in range(d)]
        for n in range(cap + 1)])


def entry(x, i, j):
    """Entry (i, j) of every coefficient of a matrix series, as a scalar series."""
    return TruncatedSeries(SCALAR, x.cap, [c.value[i][j] for c in x.coeffs])


def upper(x):
    """x with the entries below the diagonal of every coefficient zeroed."""
    return TruncatedSeries(x.ring, x.cap, [
        [[v if i <= j else 0 for j, v in enumerate(row)] for i, row in enumerate(c.value)]
        for c in x.coeffs])


def conjugation(d, cap):
    """x -> S x S^-1 on series over d x d matrices at `cap`."""
    s, s_inv = (TruncatedSeries(matrix_ring(d), cap, [m]) for m in CONJUGATORS[d])
    assert s * s_inv == TruncatedSeries.one(matrix_ring(d), cap)
    return lambda x: s * x * s_inv


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("op_name", OPS)
@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("d", DIMS)
def test_block_diagonal_equation_solves_to_the_scalar_solutions(d, cap, op_name, form,
                                                                 solver):
    op, solve = OPS[op_name], SOLVERS[solver]
    pairs = inputs("scalar", op_name, cap, d)
    scalar = [solve(equation(form, op, a1, a0)) for a0, a1 in pairs]
    a0, a1 = (diag(*xs) for xs in zip(*pairs))
    assert solve(equation(form, op, a1, a0)) == diag(*scalar)


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("op_name", OPS)
@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("d", DIMS)
def test_triangular_equation_solves_to_the_scalar_solutions_on_its_diagonal(d, cap, op_name,
                                                                             form, solver):
    op, solve = OPS[op_name], SOLVERS[solver]
    a0, a1 = (upper(x) for x in inputs(f"{d}x{d}", op_name, cap)[0])
    b = solve(equation(form, op, a1, a0))
    for i in range(d):
        scalar = solve(equation(form, op, entry(a1, i, i), entry(a0, i, i)))
        assert entry(b, i, i) == scalar


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("op_name", OPS)
@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("d", DIMS)
def test_conjugate_equation_solves_to_the_conjugate_solution(d, cap, op_name, form, solver):
    op, solve, conj = OPS[op_name], SOLVERS[solver], conjugation(d, cap)
    a0, a1 = inputs(f"{d}x{d}", op_name, cap)[0]
    b = solve(equation(form, op, a1, a0))
    assert solve(equation(form, op, conj(a1), conj(a0))) == conj(b)


@pytest.mark.parametrize("op_name", OPS)
@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("d", DIMS)
def test_conjugate_input_gives_the_conjugate_chi(d, cap, op_name):
    """chi_lambda at nonzero weight and chi_zero at weight 0."""
    op, conj = OPS[op_name], conjugation(d, cap)
    chi = chi_lambda if op_name in NONZERO_WEIGHT else chi_zero
    a = inputs(f"{d}x{d}", op_name, cap)[0][0]
    assert chi(op, conj(a)) == conj(chi(op, a))


@pytest.mark.parametrize("name", ["exp", "lambda_log", "geom_inv"])
@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("d", DIMS)
def test_conjugate_input_gives_the_conjugate_analytic_map(d, cap, name):
    """The series maps the builder runs on: exp, and at weight -1/2 the
    lambda-log and the geometric inverse."""
    conj = conjugation(d, cap)
    f = (lambda x: x.exp()) if name == "exp" else (lambda x: getattr(x, name)(rational("-1/2")))
    a = inputs(f"{d}x{d}", "qint-1/2", cap)[0][0]
    assert f(conj(a)) == conj(f(a))


@pytest.mark.parametrize("op_name", OPS)
@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("d", DIMS)
def test_right_picard_answer_is_the_transposed_left_answer_in_the_transposes(d, cap,
                                                                              op_name):
    op = OPS[op_name]
    a0, a1 = inputs(f"{d}x{d}", op_name, cap)[0]
    left = picard_solve(EquationSpec(INHOM_LEFT, op, a1.transpose(), a0.transpose()))
    assert picard_solve(EquationSpec(INHOM_RIGHT, op, a1, a0)) == left.transpose()
