import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcheck import (
    Bivector,
    CDiffOp,
    DiffPoly,
    Frame,
    HamcheckError,
    NotABivector,
    Ranking,
    TrivectorRep,
    VectorFunction,
    bivector_residual,
    certify_bivector,
    is_hamiltonian,
    is_zero_trivector,
    magri_defects,
    make_system,
    poisson,
    schouten,
    solve_orthonomic,
)
from hamcheck import brackets
from hamcheck.brackets import _signed_symmetrization, _theta, constraint_system
from hamcheck.ops import linearize
from hamcheck.parser import parse_op, parse_poly, parse_program, parse_vector
from hamcheck.poly import as_vector, formal_vector
from hamcheck.runner import run_program
from hamcheck.systems import EquationSystem, seal, solve_for
from test_properties import operators, polys, three_block_joint

DEMOS = Path(__file__).resolve().parent.parent / "demos"
BENCH_INPUTS = DEMOS.parent / "bench" / "inputs"


def test_certify_kdv_pair(kdv, kdv_ops):
    a1, a2 = kdv_ops
    assert bivector_residual(kdv, a1).is_zero()
    assert bivector_residual(kdv, a2).is_zero()
    b1 = certify_bivector(kdv, a1)
    assert b1.b_op.is_zero()  # the first operator commutes exactly
    b2 = certify_bivector(kdv, a2)
    assert not b2.b_op.is_zero()


def test_certify_rejects_identity_with_residual(kdv, fr_u):
    with pytest.raises(NotABivector) as err:
        certify_bivector(kdv, CDiffOp.identity(fr_u.n))
    expected = parse_op(fr_u, "2*Dt - 2*Dx^3 - 12*u*Dx - 6*u_x")
    assert err.value.residual == expected


def _theta_reference(system, op):
    """theta = l_E o A - A* o l*_E by operator composition: a reference
    implementation of ``_theta``, which applies theta to formal arguments."""
    lin = system.linearization()
    return lin.compose(op) - op.adjoint().compose(system.adjoint_linearization())


def _check_theta(system, op):
    """theta(q) linearized along q is the composed theta, and the bivector
    residual is its reduction; returns that residual."""
    reference = _theta_reference(system, op)
    theta_q, frame, args = _theta(system, op)
    assert args == tuple(range(system.frame.m, frame.m))
    assert linearize(theta_q, args) == reference
    residual = bivector_residual(system, op)
    assert residual == system.restrict_op(reference)
    return residual


def test_theta_by_application_matches_composition(
    kdv, fr_u, ch2, ch2_ops, kdv3, kdv3_ops, kdv6
):
    bivectors = [(kdv, parse_op(fr_u, "Dx")), (kdv, parse_op(fr_u, "Dx^3 + 4*u*Dx + 2*u_x"))]
    bivectors += [(ch2, op) for op in ch2_ops] + [(kdv3, op) for op in kdv3_ops]
    bivectors += [(kdv6.system, b.op) for b in (kdv6.a1_til, kdv6.a2_til)]
    for system, op in bivectors:
        assert _check_theta(system, op).is_zero()
    for op in (parse_op(fr_u, "u*Dx"), parse_op(fr_u, "Dx^2"), CDiffOp.identity(fr_u.n)):
        residual = _check_theta(kdv, op)
        assert any(sigma[1] for (_, _, sigma) in residual.entries)  # a Dt term


@settings(max_examples=20)
@given(st.data())
def test_theta_matches_composition_on_random_operators(kdv, fr_u, data):
    _check_theta(kdv, data.draw(operators(fr_u, max_order=3)))


def test_certification_reduces_theta_on_the_twin_alone(kdv, kdv_ops, fr_u, monkeypatch):
    # theta(q) is reduced once, on the tagged twin, whether the operator
    # certifies or not: the system itself reduces no row of it
    thetas, reduced = [], []
    theta, reduce = brackets._theta, EquationSystem.reduce

    def theta_spy(system, op):
        built = theta(system, op)
        thetas.append(built[0])
        return built

    def reduce_spy(self, p):
        reduced.append((self, p))
        return reduce(self, p)

    monkeypatch.setattr(brackets, "_theta", theta_spy)
    monkeypatch.setattr(EquationSystem, "reduce", reduce_spy)
    certify_bivector(kdv, kdv_ops[1])
    with pytest.raises(NotABivector):
        certify_bivector(kdv, CDiffOp.identity(fr_u.n))
    assert len(thetas) == 2
    for theta_q in thetas:
        for row in theta_q:
            assert [r for r, p in reduced if p == row] == [kdv._twin]


def test_certified_bivectors_are_skew_on_evolution(kdv, kdv3, kdv_ops, kdv3_ops):
    for system, ops in ((kdv, kdv_ops), (kdv3, kdv3_ops)):
        for op in ops:
            certify_bivector(system, op)
            assert system.restrict_op(op.adjoint() + op).is_zero()


def _lin_a_psi(system, op, arg_ids):
    """Linearization of the operator along one formal argument block:
    l_{A,psi} = l_{A(psi)} - A o l_psi, varying physical dependents only.

    psi is formal, so l_psi along the physical dependents is zero and
    l_{A,psi} is l_{A(psi)} alone."""
    psi = formal_vector(system.frame.n, arg_ids)
    return linearize(op.apply(psi), system.frame.physical)


def test_remainder_matches_argument_linearization_on_evolution(kdv, kdv_bivectors):
    # For an evolution system the extracted remainder operator coincides
    # with the linearization of the operator along its argument.
    b1, b2 = kdv_bivectors
    n = kdv.frame.n
    relabeled = b2.b_op
    shortcut = _lin_a_psi(kdv, b2.op, b2.b_args)
    assert kdv.restrict_op(relabeled - shortcut).is_zero()


def test_remainder_is_skew_after_symmetrization(kdv, kdv_bivectors):
    # B*(psi1, psi2) changes sign when the two arguments are swapped.
    _, b2 = kdv_bivectors
    frame, ids = kdv.frame.extend(kdv.frame.fresh_names("p", 2))
    psi1 = formal_vector(kdv.frame.n, ids[:1])
    value = b2.b_star(psi1, ids[1:])
    swap = {ids[0]: ids[1], ids[1]: ids[0]}
    swapped = value.map(lambda p: p.relabel_deps(swap))
    assert (value + swapped).map(kdv.reduce).is_zero()


def test_schouten_dx_dx_vanishes_identically(kdv, kdv_bivectors):
    b1, _ = kdv_bivectors
    tri = schouten(kdv, b1, b1)
    assert tri.entries.is_zero()


def test_schouten_kdv_pair_zero(kdv, kdv_bivectors):
    b1, b2 = kdv_bivectors
    for pair in ((b1, b2), (b2, b2)):
        verdict = is_zero_trivector(kdv, schouten(kdv, *pair))
        assert verdict.zero and verdict.exact


def test_schouten_symmetric_in_slots(kdv, kdv_bivectors):
    b1, b2 = kdv_bivectors
    t12 = schouten(kdv, b1, b2)
    t21 = schouten(kdv, b2, b1)
    assert t12.entries == t21.entries


@pytest.mark.parametrize("lam", [Fraction(3, 7), Fraction(-2)])
def test_schouten_of_a_pencil_expands_bilinearly(kdv, kdv_bivectors, kdv6, lam):
    # [[b, b]] = [[A1, A1]] + 2λ[[A1, A2]] + λ²[[A2, A2]] for b = A1 + λ*A2
    # (Magri 1978; Olver §7.3).  The remainder of b is the factorization of
    # its theta, so this checks that factoring is linear.  On KdV every
    # reduced bracket is 0, so the deformed blocks, whose brackets are not,
    # are checked too.
    for system, b1, b2 in ((kdv, *kdv_bivectors), (kdv6.system, kdv6.a1_til, kdv6.a2_til)):
        b = certify_bivector(system, b1.op + lam * b2.op)
        assert b.b_op == b1.b_op + lam * b2.b_op

        def s(x, y):
            return schouten(system, x, y).entries

        assert s(b1, b2) == s(b2, b1)
        assert s(b, b) == s(b1, b1) + (2 * lam) * s(b1, b2) + (lam * lam) * s(b2, b2)
    assert not s(b2, b2).is_zero()
    assert is_hamiltonian(kdv, kdv_bivectors[0].op + lam * kdv_bivectors[1].op)


def test_schouten_of_one_bivector_matches_six_term_path(
    kdv, kdv3, kdv_bivectors, kdv3_ops, fr_u
):
    # schouten(b, b) evaluates three terms and doubles them; an equal copy
    # that is another object takes the six-term path.  The KdV brackets
    # vanish, so a skew operator that is a bivector of u_t = u_x but not
    # Poisson gives a bracket that does not.
    transport = make_system(
        fr_u,
        [parse_poly(fr_u, "u_t - u_x")],
        [((0, (0, 1)), parse_poly(fr_u, "u_x"))],
        Ranking.of(fr_u, "t", "x"),
    )
    cases = [(kdv, b) for b in kdv_bivectors]
    cases += [(kdv3, certify_bivector(kdv3, op)) for op in kdv3_ops]
    cases.append((transport, certify_bivector(transport, parse_op(fr_u, "u*Dx^3 + Dx^3*u"))))
    for system, b in cases:
        same = schouten(system, b, b).entries
        assert same == schouten(
            system, b, Bivector(b.home, b.op, b.b_op, b.b_args)
        ).entries
    assert not same.is_zero()


def _schouten_reference(system, b1, b2, a1_ids, a2_ids):
    """The six-term Schouten sum before reduction, each term building its
    own images A_i(psi_j): a reference for ``schouten``, which builds each
    image once."""
    n = system.frame.n
    psi1 = formal_vector(n, a1_ids)
    psi2 = formal_vector(n, a2_ids)
    a1, a2 = b1.op, b2.op
    terms = [
        _lin_a_psi(system, a1, a1_ids).apply(a2.apply(psi2)),
        -_lin_a_psi(system, a1, a2_ids).apply(a2.apply(psi1)),
        -a1.apply(b2.b_star(psi1, a2_ids)),
    ]
    if b1 is not b2:
        terms += [
            _lin_a_psi(system, a2, a1_ids).apply(a1.apply(psi2)),
            -_lin_a_psi(system, a2, a2_ids).apply(a1.apply(psi1)),
            -a2.apply(b1.b_star(psi1, a2_ids)),
        ]
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return 2 * total if b1 is b2 else total


def test_schouten_matches_six_term_reference_before_reduction(
    monkeypatch, kdv, kdv_bivectors, ch2, ch2_ops, kdv3, kdv3_ops, kdv6
):
    # the argument of schouten's last reduce_vector call is its unreduced sum
    sums = []
    reduce_vector = EquationSystem.reduce_vector

    def spy(self, v):
        sums.append(v)
        return reduce_vector(self, v)

    monkeypatch.setattr(EquationSystem, "reduce_vector", spy)
    b1, b2 = kdv_bivectors
    pairs = [
        (kdv, b1, b2),
        (kdv, b2, b2),
        (ch2, *(certify_bivector(ch2, op) for op in ch2_ops)),
        (kdv3, *(certify_bivector(kdv3, op) for op in kdv3_ops)),
        (kdv6.system, kdv6.a1_til, kdv6.a2_til),
    ]
    for system, c1, c2 in pairs:
        tri = schouten(system, c1, c2)
        unreduced = sums[-1]
        expected = _schouten_reference(system, c1, c2, tri.arg1, tri.arg2)
        assert unreduced == expected
        assert tri.entries == system.reduce_vector(expected)


def test_schouten_builds_each_image_once(monkeypatch, kdv, kdv_bivectors):
    # four images, four linearizations applied and two remainder terms of
    # two applications each; with one bivector, two images and half the rest
    b1, b2 = kdv_bivectors
    calls = []
    apply = CDiffOp.apply

    def counting(self, v):
        calls.append(self)
        return apply(self, v)

    monkeypatch.setattr(CDiffOp, "apply", counting)
    schouten(kdv, b1, b2)
    assert len(calls) == 12
    calls.clear()
    schouten(kdv, b2, b2)
    assert len(calls) == 6


def _symmetrization_reference(density, blocks):
    """The signed sum of the relabelled copies, added one at a time."""
    out = DiffPoly.zero(density.n)
    for perm in itertools.permutations(range(len(blocks))):
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
        mapping = {
            a: b for i, j in enumerate(perm) for a, b in zip(blocks[i], blocks[j])
        }
        piece = density.relabel_deps(mapping)
        out = out + (-piece if odd else piece)
    return out


@st.composite
def trilinear_densities(draw):
    """A frame extended by three argument blocks of one size, and a density
    linear in each block with coefficients in the physical jets."""
    fr = Frame(("x", "t"), ("u", "v")[: draw(st.integers(1, 2))])
    size = draw(st.integers(1, 2))
    frame, ids = fr.extend(fr.fresh_names("p", 3 * size), formal=True)
    blocks = tuple(ids[k * size:(k + 1) * size] for k in range(3))
    n = frame.n
    idx = st.tuples(st.integers(0, 2), st.integers(0, 1))
    density = DiffPoly.zero(n)
    for _ in range(draw(st.integers(1, 4))):
        term = DiffPoly.const(n, Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2))))
        for block in blocks:
            term = term * DiffPoly.jet(n, draw(st.sampled_from(block)), draw(idx))
        for _ in range(draw(st.integers(0, 2))):
            term = term * DiffPoly.jet(n, draw(st.sampled_from(fr.physical)), draw(idx))
        density = density + term
    return density, blocks


@settings(max_examples=30)
@given(trilinear_densities())
def test_signed_symmetrization_matches_sequential_sum(db):
    density, blocks = db
    skew = _signed_symmetrization(density, blocks)
    assert skew == _symmetrization_reference(density, blocks)
    # swapping any two blocks negates the skew density
    for i, j in itertools.combinations(range(3), 2):
        swap = {**dict(zip(blocks[i], blocks[j])), **dict(zip(blocks[j], blocks[i]))}
        assert skew.relabel_deps(swap) == -skew


def test_schouten_requires_same_home(kdv, kdv3, kdv_bivectors, kdv3_ops):
    b1, _ = kdv_bivectors
    other = certify_bivector(kdv3, kdv3_ops[0])
    with pytest.raises(HamcheckError):
        schouten(kdv, b1, other)


def test_trivector_evaluate_is_bilinear(kdv, kdv_bivectors, fr_u):
    b1, b2 = kdv_bivectors
    tri = schouten(kdv, b2, b2)
    u = parse_poly(fr_u, "u")
    ux = parse_poly(fr_u, "u_x")
    left = tri.evaluate([2 * u], [ux])
    right = tri.evaluate([u], [ux])
    assert left == VectorFunction([2 * right[0]])


def test_symmetric_map_is_zero_trivector(kdv):
    # symmetric in the two arguments: annihilated by skew-symmetrization
    n = kdv.frame.n
    frame, ids = kdv.frame.extend(kdv.frame.fresh_names("p", 2))
    p1 = DiffPoly.jet(n, ids[0], (0, 0))
    p2 = DiffPoly.jet(n, ids[1], (0, 0))
    tri = TrivectorRep(frame, ids[:1], ids[1:], VectorFunction([p1 * p2]))
    assert is_zero_trivector(kdv, tri).zero
    zero = TrivectorRep(frame, ids[:1], ids[1:], VectorFunction([DiffPoly.zero(n)]))
    assert is_zero_trivector(kdv, zero).zero


def test_first_order_skew_pairing_cancels(kdv):
    # psi1 * D_x(psi2) - psi2 * D_x(psi1): the signed symmetrization of the
    # associated density collapses (an odd density with a repeated factor),
    # so this is the zero trivector.
    n = kdv.frame.n
    frame, ids = kdv.frame.extend(kdv.frame.fresh_names("p", 2))
    p1 = DiffPoly.jet(n, ids[0], (0, 0))
    p2 = DiffPoly.jet(n, ids[1], (0, 0))
    tri = TrivectorRep(
        frame, ids[:1], ids[1:],
        VectorFunction([p1 * p2.total(0) - p2 * p1.total(0)]),
    )
    assert is_zero_trivector(kdv, tri).zero


def test_higher_order_skew_pairing_survives(kdv):
    # psi1' * psi2'' - psi2' * psi1'' pairs into the classical nonzero
    # cubic functional: the Euler test must report a residual.
    n = kdv.frame.n
    frame, ids = kdv.frame.extend(kdv.frame.fresh_names("p", 2))
    d1 = DiffPoly.jet(n, ids[0], (1, 0))
    d2 = DiffPoly.jet(n, ids[1], (1, 0))
    dd1 = DiffPoly.jet(n, ids[0], (2, 0))
    dd2 = DiffPoly.jet(n, ids[1], (2, 0))
    tri = TrivectorRep(frame, ids[:1], ids[1:], VectorFunction([d1 * dd2 - d2 * dd1]))
    verdict = is_zero_trivector(kdv, tri)
    assert not verdict.zero
    assert verdict.exact
    assert verdict.residual is not None


def test_is_hamiltonian(kdv, kdv_ops, fr_u):
    a1, a2 = kdv_ops
    assert is_hamiltonian(kdv, a1)
    assert is_hamiltonian(kdv, a2)
    assert not is_hamiltonian(kdv, CDiffOp.identity(fr_u.n))


def test_poisson_brackets_vanish_on_chain(kdv, kdv_bivectors, fr_u):
    b1, b2 = kdv_bivectors
    one = parse_vector(fr_u, "[1]")
    u = parse_vector(fr_u, "[u]")
    psi1 = parse_vector(fr_u, "[3*u^2 + u_xx]")
    assert poisson(kdv, b1, one, one).is_zero()
    assert poisson(kdv, b1, u, one).is_zero()
    assert poisson(kdv, b1, psi1, u).is_zero()
    assert poisson(kdv, b2, psi1, u).is_zero()


def test_poisson_rejects_non_genfn(kdv, kdv_bivectors, fr_u):
    b1, _ = kdv_bivectors
    with pytest.raises(HamcheckError):
        poisson(kdv, b1, parse_vector(fr_u, "[u_x]"), parse_vector(fr_u, "[u]"))


def test_verify_magri(kdv, kdv_bivectors, fr_u):
    b1, b2 = kdv_bivectors
    psi1 = parse_vector(fr_u, "[3*u^2 + u_xx]")
    psi2 = parse_vector(fr_u, "[u]")
    psi3 = parse_vector(fr_u, "[1/2]")
    chain = [psi1, psi2, psi3]
    defects = magri_defects(kdv, b1, b2, chain)
    assert len(defects) == 2 and all(d.is_zero() for d in defects)
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            for biv in (b1, b2):
                assert poisson(kdv, biv, chain[i], chain[j]).is_zero()
    assert magri_defects(kdv, b1, b2, []) == []
    assert not magri_defects(kdv, b1, b2, [psi2, psi2])[0].is_zero()


def test_three_component_matrices_certify(kdv3, kdv3_ops):
    b1m, b2m = kdv3_ops
    assert bivector_residual(kdv3, b1m).is_zero()
    assert bivector_residual(kdv3, b2m).is_zero()


def test_three_component_flows(kdv3, kdv3_ops, fr_uvw):
    from hamcheck import euler

    b1m, b2m = kdv3_ops
    h1 = parse_poly(fr_uvw, "u*w - 1/2*v^2 + 2*u^3")
    h2 = parse_poly(fr_uvw, "-3/2*u^2 - 1/2*w")
    flow = parse_vector(fr_uvw, "[v, w, u_t - 6*u*v]")
    assert kdv3.reduce_vector(b1m.apply(euler(fr_uvw, h1))) == flow
    assert kdv3.reduce_vector(b2m.apply(euler(fr_uvw, h2))) == flow


def test_three_component_schouten_checks(kdv3, kdv3_ops):
    b1 = certify_bivector(kdv3, kdv3_ops[0])
    b2 = certify_bivector(kdv3, kdv3_ops[1])
    for pair in ((b1, b1), (b1, b2), (b2, b2)):
        verdict = is_zero_trivector(kdv3, schouten(kdv3, *pair))
        assert verdict.zero


def test_camassa_holm_scalar(ch, fr_u):
    a1 = parse_op(fr_u, "Dx")
    a2 = parse_op(fr_u, "-Dt - u*Dx + u_x")
    assert bivector_residual(ch, a1).is_zero()
    assert bivector_residual(ch, a2).is_zero()
    b1 = certify_bivector(ch, a1)
    b2 = certify_bivector(ch, a2)
    verdict = is_zero_trivector(ch, schouten(ch, b1, b2))
    assert verdict.zero and not verdict.exact  # constrained semi-decision


def test_camassa_holm_two_component(ch2, ch2_ops, fr_um):
    a1p, a2p = ch2_ops
    assert bivector_residual(ch2, a1p).is_zero()
    assert bivector_residual(ch2, a2p).is_zero()
    # the lower-left entries are the scalar-form operators up to sign
    b1 = parse_op(fr_um, "-(2*m*Dx + m_x)")
    b2 = parse_op(fr_um, "Dx^3 - Dx")
    a1p_21 = CDiffOp(
        fr_um.n, 1, 1,
        {(0, 0, s): a for (r, c, s), a in a1p.entries.items() if (r, c) == (1, 0)},
    )
    a2p_21 = CDiffOp(
        fr_um.n, 1, 1,
        {(0, 0, s): a for (r, c, s), a in a2p.entries.items() if (r, c) == (1, 0)},
    )
    assert a1p_21 == -1 * b2
    assert a2p_21 == -1 * b1


def test_non_skew_representative_brackets(kdv, kdv_bivectors, fr_u):
    # A time-derivative-bearing representative of the second structure's
    # class (differing by a trivial bivector) certifies without being
    # skew, and all its brackets with the pair still vanish.
    from hamcheck.parser import parse_op

    rep = parse_op(fr_u, "Dt - 2*u*Dx + 2*u_x")
    assert bivector_residual(kdv, rep).is_zero()
    assert not kdv.restrict_op(rep.adjoint() + rep).is_zero()  # not skew
    brep = certify_bivector(kdv, rep)
    b1, b2 = kdv_bivectors
    for other in (brep, b1, b2):
        assert is_zero_trivector(kdv, schouten(kdv, brep, other)).zero


def test_poisson_boost_central_extension(kdv, kdv_bivectors, fr_u):
    # The Galilean boost generating function pairs non-trivially with the
    # mass one: the bracket is the constant function, antisymmetrically.
    boost = parse_vector(fr_u, "[x + 6*t*u]")
    assert kdv.genfn_residual(boost).is_zero()
    b1, b2 = kdv_bivectors
    one = parse_vector(fr_u, "[1]")
    u = parse_vector(fr_u, "[u]")
    assert poisson(kdv, b1, boost, u) == parse_vector(fr_u, "[1]")
    assert poisson(kdv, b1, u, boost) == parse_vector(fr_u, "[-1]")
    assert poisson(kdv, b1, boost, one).is_zero()
    # under the second structure the boost steps down the hierarchy
    assert poisson(kdv, b2, boost, u) == parse_vector(fr_u, "[6*u]")
    assert poisson(kdv, b2, boost, one) == parse_vector(fr_u, "[2]")


def test_poisson_on_non_evolution_system(ch, fr_u):
    one = parse_vector(fr_u, "[1]")
    u = parse_vector(fr_u, "[u]")
    assert ch.genfn_residual(one).is_zero() and ch.genfn_residual(u).is_zero()
    c1 = certify_bivector(ch, parse_op(fr_u, "Dx"))
    c2 = certify_bivector(ch, parse_op(fr_u, "-Dt - u*Dx + u_x"))
    assert poisson(ch, c1, u, one).is_zero()
    assert poisson(ch, c2, u, one).is_zero()
    assert poisson(ch, c2, u, u).is_zero()


def test_constraint_system_non_unit_scale_stays_exact(fr_u):
    # L* of 3*u_t - u_xxx - 6*u*u_x on a slot p is -3*p_t + p_xxx + 6*u*p_x;
    # solving it for p_t divides by the scale -3.
    system = solve_orthonomic(
        fr_u, [parse_poly(fr_u, "3*u_t - u_xxx - 6*u*u_x")], Ranking.of(fr_u, "t", "x")
    )
    frame, ids = system.frame.extend(system.frame.fresh_names("p", 1))
    joint = constraint_system(system, frame, [ids])
    rule = joint.rules[1]
    assert rule.lead == (ids[0], (0, 1))
    assert type(rule.scale) is int and rule.scale == -3
    n = frame.n
    p_x, p_xxx = (DiffPoly.jet(n, ids[0], (k, 0)) for k in (1, 3))
    expected = Fraction(1, 3) * p_xxx + 2 * parse_poly(fr_u, "u") * p_x
    for rhs in (rule.rhs, rule.rhs_exact):
        assert rhs == expected
        assert rhs.terms[next(iter(p_xxx.terms))] == Fraction(1, 3)
        assert all(
            type(c) is int or (type(c) is Fraction and c.denominator > 1)
            for c in rhs.terms.values()
        )


def test_constraint_row_without_argument_jets_is_named():
    # v occurs in no equation, so its row of l*_E(p) = 0 is empty
    fr = Frame(("x", "t"), ("u", "v"))
    system = solve_orthonomic(
        fr, [parse_poly(fr, "u_t - u_xxx - 6*u*u_x")], Ranking.of(fr, "t", "x"))
    frame, ids = system.frame.extend(system.frame.fresh_names("p", 1))
    with pytest.raises(brackets.ConstraintNotOrthonomic) as err:
        constraint_system(system, frame, [ids])
    assert str(err.value) == (
        "constraint 1 on the first argument (p1) contains no argument jets")


# -- the joint constraint system ------------------------------------------------


def _block_permutations(blocks):
    """The relabeling of every permutation of the argument blocks."""
    for perm in itertools.permutations(range(len(blocks))):
        yield {a: b for i, j in enumerate(perm) for a, b in zip(blocks[i], blocks[j])}


@settings(max_examples=15)
@given(st.sampled_from(["kdv6", "ch2"]), st.data())
def test_joint_reduction_commutes_with_block_permutations(kdv6, ch2, name, data):
    # permuting the blocks maps the joint system onto itself, so reduction
    # commutes with every relabeling, and reducing then symmetrizing is
    # symmetrizing then reducing
    joint, blocks = three_block_joint({"kdv6": kdv6.system, "ch2": ch2}[name])
    _, f = data.draw(polys(joint.frame, max_terms=3, max_degree=3, max_order=3))
    reduced = joint.reduce(f)
    for sigma in _block_permutations(blocks):
        assert joint.reduce(f.relabel_deps(sigma)) == reduced.relabel_deps(sigma)
    assert (_signed_symmetrization(reduced, blocks)
            == joint.reduce(_signed_symmetrization(f, blocks)))


def _joint_reference(system, frame_ext, blocks):
    """The joint system with each block's constraint rows solved on their
    own: a reference for the system built from the first block alone."""
    n = system.frame.n
    lstar = system.restrict_op(system.adjoint_linearization())
    originals, rules = list(system.originals), list(system.rules)
    for ids in blocks:
        for row in lstar.apply(formal_vector(n, ids)):
            jets = [v for v in row.jetvars() if v[0] in ids]
            rules.append(solve_for(len(rules), row, system.ranking.max_jet(jets)))
            originals.append(row)
    return seal(frame_ext, as_vector(originals), rules, system.ranking)


def test_joint_system_from_one_block_matches_solving_every_block(monkeypatch):
    built = []
    build = brackets.constraint_system

    def recording_build(*args):
        joint = build(*args)
        built.append((args, joint))
        return joint

    monkeypatch.setattr(brackets, "constraint_system", recording_build)
    inputs = sorted(DEMOS.glob("*.ham")) + sorted(BENCH_INPUTS.glob("*.ham"))
    for path in inputs:
        run_program(parse_program(path.read_text()))
    # each bracket on a non-evolution system (three blocks) and each
    # comparison of transported operators (two) builds one; kdv3's two
    # comparisons ask for the same one, which is built again
    assert sorted(len(args[2]) for args, _ in built) == [2, 2, 2, 3, 3, 3, 3, 3]
    for args, joint in built:
        reference = _joint_reference(*args)
        assert joint.originals == reference.originals
        assert ([(r.lead, r.rhs, r.rhs_exact, r.scale) for r in joint.rules]
                == [(r.lead, r.rhs, r.rhs_exact, r.scale) for r in reference.rules])


def test_constrained_verdict_reduces_the_pairing_before_symmetrizing(kdv6, monkeypatch):
    # on the deformed KdV bracket the joint system reduces the unsymmetrized
    # pairing, not its skew density, and symmetrizes the normal form, 0
    system = kdv6.system
    tri = schouten(system, kdv6.a1_til, kdv6.a2_til)
    reduced, symmetrized = [], []
    joint_of = brackets.constraint_system
    symmetrize = brackets._signed_symmetrization

    class Spy:
        def __init__(self, joint):
            self.joint = joint

        def reduce(self, p):
            reduced.append(p)
            return self.joint.reduce(p)

    monkeypatch.setattr(brackets, "constraint_system", lambda *a: Spy(joint_of(*a)))
    monkeypatch.setattr(brackets, "_signed_symmetrization",
                        lambda p, blocks: symmetrized.append((p, blocks))
                        or symmetrize(p, blocks))
    verdict = is_zero_trivector(system, tri)
    assert verdict.zero and not verdict.exact
    pairing_terms = sum(len(p.terms) for p in tri.entries)
    [density] = reduced
    [(normal_form, blocks)] = symmetrized
    assert len(density.terms) == pairing_terms
    assert len(symmetrize(density, blocks).terms) != pairing_terms
    assert normal_form.is_zero()
