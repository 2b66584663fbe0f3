import pytest
from hypothesis import settings

from hamcheck import (
    Frame,
    Ranking,
    certify_bivector,
    deform,
    make_system,
    solve_orthonomic,
)
from hamcheck.parser import parse_op, parse_poly, parse_vector

settings.register_profile("suite", max_examples=120, deadline=None, derandomize=True)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def fr_u():
    return Frame(("x", "t"), ("u",))


@pytest.fixture(scope="session")
def kdv(fr_u):
    f = parse_poly(fr_u, "u_t - u_xxx - 6*u*u_x")
    rhs = parse_poly(fr_u, "u_xxx + 6*u*u_x")
    return make_system(
        fr_u, [f], [((0, (0, 1)), rhs)], Ranking.of(fr_u, "t", "x")
    )


@pytest.fixture(scope="session")
def kdv_scaled(fr_u):
    """KdV written as 2*F = 0: its one rule has scale 2."""
    f = parse_poly(fr_u, "2*u_t - 2*u_xxx - 12*u*u_x")
    return solve_orthonomic(fr_u, [f], Ranking.of(fr_u, "t", "x"))


@pytest.fixture(scope="session")
def kdv_ops(fr_u):
    return parse_op(fr_u, "Dx"), parse_op(fr_u, "Dx^3 + 4*u*Dx + 2*u_x")


@pytest.fixture(scope="session")
def kdv_bivectors(kdv, kdv_ops):
    a1, a2 = kdv_ops
    return certify_bivector(kdv, a1), certify_bivector(kdv, a2)


@pytest.fixture(scope="session")
def kdv6(kdv, kdv_bivectors):
    """The deformation of the KdV pair, as ``demos/kdv6.ham`` declares it."""
    b1, b2 = kdv_bivectors
    return deform(kdv, b1, b2)


@pytest.fixture(scope="session")
def fr_uvw():
    return Frame(("x", "t"), ("u", "v", "w"))


@pytest.fixture(scope="session")
def kdv3(fr_uvw):
    fr = fr_uvw
    eqs = parse_vector(fr, "[u_x - v, v_x - w, w_x - u_t + 6*u*v]")
    solved = [
        ((0, (1, 0)), parse_poly(fr, "v")),
        ((1, (1, 0)), parse_poly(fr, "w")),
        ((2, (1, 0)), parse_poly(fr, "u_t - 6*u*v")),
    ]
    return make_system(fr, eqs, solved, Ranking.of(fr, "x", "t"))


@pytest.fixture(scope="session")
def kdv3_ops(fr_uvw):
    b1 = parse_op(fr_uvw, "[[0, -1, 0], [1, 0, -6*u], [0, 6*u, Dt]]")
    b2 = parse_op(
        fr_uvw,
        "[[0, -2*u, -Dt - 2*v],"
        " [2*u, Dt, -12*u^2 - 2*w],"
        " [-Dt + 2*v, 12*u^2 + 2*w, 8*u*Dt + 4*u_t]]",
    )
    return b1, b2


@pytest.fixture(scope="session")
def ch(fr_u):
    f = parse_poly(fr_u, "u_t - u_txx - u*u_xxx - 2*u_x*u_xx + 3*u*u_x")
    return solve_orthonomic(fr_u, [f], Ranking.of(fr_u, "t", "x"))


@pytest.fixture(scope="session")
def fr_um():
    return Frame(("x", "t"), ("u", "m"))


@pytest.fixture(scope="session")
def ch2(fr_um):
    eqs = parse_vector(fr_um, "[m_t + u*m_x + 2*u_x*m, m - u + u_xx]")
    return solve_orthonomic(fr_um, eqs, Ranking.of(fr_um, "t", "x"))


@pytest.fixture(scope="session")
def ch2_ops(fr_um):
    a1p = parse_op(fr_um, "[[Dx, 0], [Dx - Dx^3, 0]]")
    a2p = parse_op(fr_um, "[[0, -1], [2*m*Dx + m_x, 0]]")
    return a1p, a2p
