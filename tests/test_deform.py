import pytest

from hamcheck import (
    DiffPoly,
    HamcheckError,
    MagriPrecondition,
    NeedSuccessor,
    Ranking,
    NotAGenFn,
    certify_bivector,
    deform,
    is_zero_trivector,
    lift_hierarchy,
    magri_defects,
    make_system,
    schouten,
)
from hamcheck.parser import parse_op, parse_poly, parse_vector
from reference import bivector_residual


def test_deform_reproduces_kdv6_modulo_sign_flip(kdv6, fr_u):
    system = kdv6.system
    frame = system.frame
    assert frame.dependents == ("u", "w")
    w = kdv6.w_ids[0]
    flip = -DiffPoly.jet(frame.n, w, (0, 0))
    g = system.originals[0].subst_deps({w: flip})
    h = system.originals[1].subst_deps({w: flip})
    u_t = DiffPoly.jet(frame.n, 0, (0, 1))
    u_x = DiffPoly.jet(frame.n, 0, (1, 0))
    u_xxx = DiffPoly.jet(frame.n, 0, (3, 0))
    u = DiffPoly.jet(frame.n, 0, (0, 0))
    w0 = DiffPoly.jet(frame.n, w, (0, 0))
    w_x = DiffPoly.jet(frame.n, w, (1, 0))
    w_xxx = DiffPoly.jet(frame.n, w, (3, 0))
    assert g == u_t - u_xxx - 6 * u * u_x + w_x
    assert h == w_xxx + 4 * u * w_x + 2 * u_x * w0


def test_deformed_blocks_certify(kdv6):
    assert bivector_residual(kdv6.system, kdv6.a1_til.op).is_zero()
    assert bivector_residual(kdv6.system, kdv6.a2_til.op).is_zero()


def test_deformed_block_shapes(kdv6):
    for op in (kdv6.a1_til.op, kdv6.a2_til.op):
        assert (op.rows, op.cols) == (2, 2)


def test_deformed_pair_bracket_verdict(kdv6):
    verdict = is_zero_trivector(
        kdv6.system, schouten(kdv6.system, kdv6.a1_til, kdv6.a2_til)
    )
    assert verdict.zero  # semi-decision, zero verdicts trusted
    assert not verdict.exact


def test_linear_toy_deformation(fr_u):
    f = parse_poly(fr_u, "u_t - u_xxx")
    system = make_system(
        fr_u, [f], [((0, (0, 1)), parse_poly(fr_u, "u_xxx"))],
        Ranking.of(fr_u, "t", "x"),
    )
    dx = certify_bivector(system, parse_op(fr_u, "Dx"))
    toy = deform(system, dx, dx)
    frame = toy.system.frame
    w = toy.w_ids[0]
    w_x = DiffPoly.jet(frame.n, w, (1, 0))
    u_t = DiffPoly.jet(frame.n, 0, (0, 1))
    u_xxx = DiffPoly.jet(frame.n, 0, (3, 0))
    assert toy.system.originals[0] == u_t - u_xxx - w_x
    assert toy.system.originals[1] == -w_x


def test_deform_requires_certified_inputs(kdv, kdv_ops):
    with pytest.raises(HamcheckError):
        deform(kdv, kdv_ops[0], kdv_ops[1])


def test_lift_hierarchy(kdv6, fr_u):
    lifted = lift_hierarchy(
        kdv6,
        [parse_vector(fr_u, "[3*u^2 + u_xx]"),
         parse_vector(fr_u, "[u]"),
         parse_vector(fr_u, "[1/2]")],
    )
    assert lifted.all_certified
    assert all(r.is_zero() for r in lifted.genfn_residuals)
    assert all(d.is_zero() for d in lifted.magri_defects)
    defects = magri_defects(kdv6.system, kdv6.a1_til, kdv6.a2_til, lifted.entries)
    assert len(defects) == 1 and defects[0].is_zero()
    # lifted entries are (psi_i, -psi_{i+1})
    first = lifted.entries[0]
    assert first[0] == parse_poly(fr_u, "3*u^2 + u_xx")
    assert first[1] == -parse_poly(fr_u, "u")


def test_lift_empty_chain_is_empty(kdv6):
    lifted = lift_hierarchy(kdv6, [])
    assert lifted.entries == ()
    assert lifted.all_certified


def test_lift_lone_entry_needs_successor(kdv6, fr_u):
    with pytest.raises(NeedSuccessor):
        lift_hierarchy(kdv6, [parse_vector(fr_u, "[u]")])


def test_check_conserved(kdv6, fr_u):
    psi1 = parse_vector(fr_u, "[3*u^2 + u_xx]")
    psi2 = parse_vector(fr_u, "[u]")
    psi3 = parse_vector(fr_u, "[1/2]")
    assert lift_hierarchy(kdv6, [psi1, psi2, psi3]).conserved == (True, True)
    zero = parse_vector(fr_u, "[0]")
    assert lift_hierarchy(kdv6, [zero, zero]).conserved == (True,)
    with pytest.raises(MagriPrecondition):
        lift_hierarchy(kdv6, [psi2, psi2])
    with pytest.raises(NotAGenFn):
        lift_hierarchy(kdv6, [parse_vector(fr_u, "[u_x]"), psi3])
