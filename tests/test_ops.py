import pytest

from hamcheck import (
    CDiffOp,
    DimensionMismatch,
    VectorFunction,
    euler,
    linearize,
)
from hamcheck.parser import parse_op, parse_poly, parse_vector
from hamcheck.render import op_text


def test_apply_second_hamiltonian_to_density(fr_u):
    a2 = parse_op(fr_u, "Dx^3 + 4*u*Dx + 2*u_x")
    out = a2.apply(parse_vector(fr_u, "[u]"))
    assert out[0] == parse_poly(fr_u, "u_xxx + 6*u*u_x")


def test_apply_identity_and_dx(fr_u):
    v = parse_vector(fr_u, "[3*u^2 + u_xx]")
    assert CDiffOp.identity(fr_u.n).apply(v) == v
    assert parse_op(fr_u, "Dx").apply(v)[0] == parse_poly(fr_u, "u_xxx + 6*u*u_x")


def test_compose_leibniz(fr_u):
    dx = parse_op(fr_u, "Dx")
    mu = parse_op(fr_u, "u")
    assert dx.compose(mu) == parse_op(fr_u, "u*Dx + u_x")
    assert dx.compose(dx) == parse_op(fr_u, "Dx^2")


def test_row_column_compose_to_scalar_identity(fr_u):
    row = parse_op(fr_u, "[[1, 0, 0]]")
    col = parse_op(fr_u, "[[1], [Dx], [Dx^2]]")
    assert row.compose(col) == CDiffOp.identity(fr_u.n)


def test_compose_matches_sequential_application(fr_u):
    a = parse_op(fr_u, "Dx^2 + u*Dx - 3")
    b = parse_op(fr_u, "u_x*Dx + u^2")
    v = parse_vector(fr_u, "[u*u_xx - 2]")
    assert a.compose(b).apply(v) == a.apply(b.apply(v))


def test_adjoint_constant_coefficients(fr_u):
    dx = parse_op(fr_u, "Dx")
    assert dx.adjoint() == parse_op(fr_u, "-Dx")
    assert parse_op(fr_u, "Dx^2").adjoint() == parse_op(fr_u, "Dx^2")


def test_adjoint_second_hamiltonian_is_skew(fr_u):
    a2 = parse_op(fr_u, "Dx^3 + 4*u*Dx + 2*u_x")
    assert a2.adjoint() == -1 * a2


def test_adjoint_zero_order_matrix_transposes(fr_u):
    col = parse_op(fr_u, "[[0], [0], [-1]]")
    assert col.adjoint() == parse_op(fr_u, "[[0, 0, -1]]")


def test_adjoint_involution(fr_u, kdv):
    for op in (parse_op(fr_u, "Dx"), kdv.linearization()):
        assert op.adjoint().adjoint() == op


def test_adjoint_involution_on_three_by_three(kdv3):
    op = kdv3.linearization()
    assert op.adjoint().adjoint() == op


def test_divergence_pairing(fr_u):
    # <Delta v, w> - <v, Delta* w> has vanishing variational derivative.
    delta = parse_op(fr_u, "u*Dx^2 + u_x^2*Dx - 2")
    v = parse_poly(fr_u, "u*u_x")
    w = parse_poly(fr_u, "u_xx - 3*u")
    lhs = delta.apply(VectorFunction([v]))[0] * w
    rhs = v * delta.adjoint().apply(VectorFunction([w]))[0]
    assert euler(fr_u, lhs - rhs)[0].is_zero()


def test_linearize_kdv(fr_u):
    f = parse_vector(fr_u, "[u_t - u_xxx - 6*u*u_x]")
    lin = linearize(f, (0,))
    assert lin == parse_op(fr_u, "Dt - Dx^3 - 6*u*Dx - 6*u_x")


def test_linearize_identity_and_matrix(fr_u, fr_uvw):
    assert linearize(parse_vector(fr_u, "[u]"), (0,)) == CDiffOp.identity(fr_u.n)
    f = parse_vector(fr_uvw, "[u_x - v, v_x - w, w_x - u_t + 6*u*v]")
    lin = linearize(f, (0, 1, 2))
    expected = parse_op(
        fr_uvw, "[[Dx, -1, 0], [0, Dx, -1], [-Dt + 6*v, 6*u, Dx]]"
    )
    assert lin == expected


def test_linearize_defining_property(fr_u):
    f = parse_vector(fr_u, "[u*u_xx - 1/2*u_x^2 + x*u]")
    phi = parse_vector(fr_u, "[u_x*u - 4]")
    # f_u*phi + f_{u_x}*D_x(phi) + f_{u_xx}*D_x^2(phi)
    p = phi[0]
    expected = (
        parse_poly(fr_u, "u_xx + x") * p
        - parse_poly(fr_u, "u_x") * p.total(0)
        + parse_poly(fr_u, "u") * p.total(0).total(0)
    )
    assert linearize(f, (0,)).apply(phi)[0] == expected


def test_dimension_errors(fr_u):
    with pytest.raises(DimensionMismatch):
        parse_op(fr_u, "[[1, 0]]").apply(parse_vector(fr_u, "[u]"))
    with pytest.raises(DimensionMismatch):
        parse_op(fr_u, "[[1, 0]]").compose(parse_op(fr_u, "[[1, 0]]"))
    with pytest.raises(DimensionMismatch):
        parse_op(fr_u, "[[1, 0]]") + parse_op(fr_u, "[[1], [0]]")


def test_block_assembly(fr_u):
    dx = parse_op(fr_u, "Dx")
    z = CDiffOp.zero(fr_u.n)
    grid = CDiffOp.block([[dx, -1 * dx], [z, dx]])
    assert (grid.rows, grid.cols) == (2, 2)
    assert grid == parse_op(fr_u, "[[Dx, -Dx], [0, Dx]]")


def test_rendering(fr_u):
    a2 = parse_op(fr_u, "2*u_x + 4*u*Dx + Dx^3")
    assert op_text(fr_u, a2) == "2*u_x + 4*u*Dx + Dx^3"
    mixed = parse_op(fr_u, "Dx^2*Dt")
    assert op_text(fr_u, mixed) == "Dx^2*Dt"
    assert op_text(fr_u, CDiffOp.zero(fr_u.n)) == "0"
