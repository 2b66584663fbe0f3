import pytest

from hamcheck import (
    CDiffOp,
    DimensionMismatch,
    EquivalenceData,
    certify_bivector,
    bivector_residual,
    equivalence_residuals,
    equivalent_as_bivectors,
    transport,
)
from hamcheck.parser import parse_op


@pytest.fixture(scope="module")
def kdv_data(kdv, kdv3, fr_u, fr_uvw):
    n = fr_u.n
    return EquivalenceData(
        kdv,
        kdv3,
        alpha=parse_op(fr_uvw, "[[1], [Dx], [Dx^2]]"),
        alpha_p=parse_op(fr_uvw, "[[0], [0], [-1]]"),
        beta=parse_op(fr_uvw, "[[1, 0, 0]]"),
        beta_p=parse_op(fr_uvw, "[[-Dx^2 - 6*u, -Dx, -1]]"),
        s1=CDiffOp.zero(n, 1, 1),
        s2=parse_op(fr_uvw, "[[0, 0, 0], [1, 0, 0], [Dx, 1, 0]]"),
    )


def test_paper_data_verifies(kdv_data):
    assert all(op.is_zero() for op in equivalence_residuals(kdv_data).values())


def test_identity_data_verifies(kdv, fr_u):
    n = fr_u.n
    one = CDiffOp.identity(n)
    data = EquivalenceData(kdv, kdv, one, one, one, one,
                           CDiffOp.zero(n, 1, 1), CDiffOp.zero(n, 1, 1))
    assert all(op.is_zero() for op in equivalence_residuals(data).values())


def test_tampered_alpha_fails_with_residuals(kdv, kdv3, fr_uvw, kdv_data):
    bad = EquivalenceData(
        kdv, kdv3,
        alpha=parse_op(fr_uvw, "[[1], [Dx], [Dx]]"),
        alpha_p=kdv_data.alpha_p,
        beta=kdv_data.beta,
        beta_p=kdv_data.beta_p,
        s1=kdv_data.s1,
        s2=kdv_data.s2,
    )
    residuals = equivalence_residuals(bad)
    assert not residuals["l2*alpha = alpha'*l1"].is_zero()
    # the composite beta*alpha still collapses to the identity
    assert residuals["beta*alpha = id + s1*l1"].is_zero()


def test_shape_validation(kdv, kdv3, fr_uvw, kdv_data):
    with pytest.raises(DimensionMismatch):
        EquivalenceData(
            kdv, kdv3,
            alpha=parse_op(fr_uvw, "[[1], [Dx]]"),  # wrong height
            alpha_p=kdv_data.alpha_p,
            beta=kdv_data.beta,
            beta_p=kdv_data.beta_p,
            s1=kdv_data.s1,
            s2=kdv_data.s2,
        )


def test_transport_dx_forward(kdv_data, kdv3, fr_uvw):
    moved = transport(kdv_data, parse_op(kdv_data.e1.frame, "Dx"), "1->2")
    expected = parse_op(
        fr_uvw, "[[0, 0, -Dx], [0, 0, -Dx^2], [0, 0, -Dx^3]]"
    )
    assert moved == expected
    assert bivector_residual(kdv3, moved).is_zero()


def test_transport_published_matrix_back(kdv_data, kdv3_ops, fr_u):
    moved = transport(kdv_data, kdv3_ops[0], "2->1")
    assert moved == parse_op(fr_u, "-Dx")


def test_transport_zero(kdv_data, fr_u):
    zero = CDiffOp.zero(fr_u.n, 1, 1)
    assert transport(kdv_data, zero, "1->2").is_zero()


def test_transport_direction_validation(kdv_data, fr_u):
    with pytest.raises(ValueError):
        transport(kdv_data, parse_op(fr_u, "Dx"), "sideways")


def test_equivalent_as_bivectors_reflexive(kdv, kdv_bivectors):
    b1, _ = kdv_bivectors
    verdict = equivalent_as_bivectors(kdv, b1, b1)
    assert verdict.zero


def test_opposite_signs_not_equivalent(kdv, fr_u):
    dx = parse_op(fr_u, "Dx")
    verdict = equivalent_as_bivectors(
        kdv, certify_bivector(kdv, dx), certify_bivector(kdv, -1 * dx)
    )
    assert not verdict.zero
    assert verdict.residual is not None


def test_transport_comparison_and_round_trip(kdv_data, kdv, kdv3, kdv3_ops, fr_u):
    moved = transport(kdv_data, parse_op(fr_u, "Dx"), "1->2")
    moved_b = certify_bivector(kdv3, moved)
    published = certify_bivector(kdv3, kdv3_ops[0])
    # representative mismatch: the comparison records a residual, while the
    # negated published matrix is equivalent on the nose
    finding = equivalent_as_bivectors(kdv3, moved_b, published)
    assert not finding.zero and finding.residual is not None
    negated = certify_bivector(kdv3, -1 * kdv3_ops[0])
    assert equivalent_as_bivectors(kdv3, moved_b, negated).zero
    # round trip returns the original bivector up to a trivial one (exactly)
    back = transport(kdv_data, moved_b, "2->1")
    verdict = equivalent_as_bivectors(
        kdv, certify_bivector(kdv, back), certify_bivector(kdv, parse_op(fr_u, "Dx"))
    )
    assert verdict.zero


def test_transport_second_operator_both_ways(kdv_data, kdv, kdv3, kdv3_ops, fr_u):
    a2 = parse_op(fr_u, "Dx^3 + 4*u*Dx + 2*u_x")
    moved = transport(kdv_data, certify_bivector(kdv, a2), "1->2")
    assert bivector_residual(kdv3, moved).is_zero()
    # backward: coefficients are rewritten through the first embedding
    back = transport(kdv_data, certify_bivector(kdv3, kdv3_ops[1]), "2->1")
    assert back == parse_op(fr_u, "Dt - 2*u*Dx + 2*u_x")
    assert bivector_residual(kdv, back).is_zero()
    # it differs from the scalar second operator by a trivial bivector
    verdict = equivalent_as_bivectors(
        kdv, certify_bivector(kdv, back), certify_bivector(kdv, a2)
    )
    assert verdict.zero
    # round trip of the second operator closes up to a trivial bivector
    rt = transport(kdv_data, certify_bivector(kdv3, moved), "2->1")
    assert bivector_residual(kdv, rt).is_zero()
    assert equivalent_as_bivectors(
        kdv, certify_bivector(kdv, rt), certify_bivector(kdv, a2)
    ).zero


def test_transported_pair_remains_compatible(kdv_data, kdv, kdv3, fr_u):
    from hamcheck import is_zero_trivector, schouten

    t1 = transport(kdv_data, certify_bivector(kdv, parse_op(fr_u, "Dx")), "1->2")
    t2 = transport(
        kdv_data,
        certify_bivector(kdv, parse_op(fr_u, "Dx^3 + 4*u*Dx + 2*u_x")),
        "1->2",
    )
    bt1 = certify_bivector(kdv3, t1)
    bt2 = certify_bivector(kdv3, t2)
    for pair in ((bt1, bt1), (bt1, bt2), (bt2, bt2)):
        assert is_zero_trivector(kdv3, schouten(kdv3, *pair)).zero
