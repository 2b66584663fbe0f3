"""Acceptance suite: every published identity the package must reproduce,
checked exactly (zero tolerance) and timed where a bound is stated.

Each criterion prints one PASS line; run with ``pytest -s`` to see them.
"""

import random
import time
from fractions import Fraction

import pytest

from hamcheck import (
    CDiffOp,
    DiffPoly,
    EquivalenceData,
    VectorFunction,
    bivector_residual,
    certify_bivector,
    deform,
    equivalence_residuals,
    equivalent_as_bivectors,
    euler,
    is_zero_trivector,
    lift_hierarchy,
    magri_defects,
    poisson,
    schouten,
    transport,
)
from hamcheck.parser import parse_op, parse_poly, parse_vector
from hamcheck.render import poly_text


def report(num, message):
    print(f"[criterion {num:02d}] PASS  {message}")


@pytest.fixture(scope="module")
def kdv6(kdv, kdv_bivectors):
    return deform(kdv, *kdv_bivectors)


@pytest.fixture(scope="module")
def kdv_equiv(kdv, kdv3, fr_uvw):
    n = fr_uvw.n
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


def test_criterion_01_kdv_bivectors_certify(kdv, kdv_ops):
    for name, op in zip(("A1", "A2"), kdv_ops):
        start = time.perf_counter()
        residual = bivector_residual(kdv, op)
        assert residual.is_zero()
        certify_bivector(kdv, op)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"{name} certification took {elapsed:.2f}s"
    report(1, "KdV operators certify with identically zero residual, < 1 s each")


def test_criterion_02_kdv_flows_agree(kdv, kdv_ops, fr_u):
    a1, a2 = kdv_ops
    flow = parse_poly(fr_u, "u_xxx + 6*u*u_x")
    h1 = euler(fr_u, parse_poly(fr_u, "u^3 - 1/2*u_x^2"))
    h2 = euler(fr_u, parse_poly(fr_u, "1/2*u^2"))
    f1 = kdv.reduce_vector(a1.apply(h1))[0]
    f2 = kdv.reduce_vector(a2.apply(h2))[0]
    assert f1 == flow
    assert f2 == flow
    report(2, "both Hamiltonian forms reproduce the KdV flow exactly")


def test_criterion_03_kdv_schouten_brackets_vanish(kdv, kdv_bivectors):
    b1, b2 = kdv_bivectors
    for name, pair in (("[[A1,A1]]", (b1, b1)), ("[[A2,A2]]", (b2, b2)),
                       ("[[A1,A2]]", (b1, b2))):
        start = time.perf_counter()
        verdict = is_zero_trivector(kdv, schouten(kdv, *pair))
        elapsed = time.perf_counter() - start
        assert verdict.zero, name
        assert verdict.exact, name  # free-jet Euler test, complete
        assert elapsed < 10.0, f"{name} took {elapsed:.2f}s"
    report(3, "all three KdV brackets vanish under the exact free-jet test, < 10 s each")


def test_criterion_04_three_component_kdv(kdv3, kdv3_ops, fr_uvw):
    b1m, b2m = kdv3_ops
    assert bivector_residual(kdv3, b1m).is_zero()
    assert bivector_residual(kdv3, b2m).is_zero()
    flow = parse_vector(fr_uvw, "[v, w, u_t - 6*u*v]")
    h1 = euler(fr_uvw, parse_poly(fr_uvw, "u*w - 1/2*v^2 + 2*u^3"))
    h2 = euler(fr_uvw, parse_poly(fr_uvw, "-3/2*u^2 - 1/2*w"))
    assert kdv3.reduce_vector(b1m.apply(h1)) == flow
    assert kdv3.reduce_vector(b2m.apply(h2)) == flow
    report(4, "first-order KdV matrices certify and reproduce the flow from both densities")


def test_criterion_05_equivalence_relations(kdv_equiv):
    assert all(op.is_zero() for op in equivalence_residuals(kdv_equiv).values())
    report(5, "all four connection relations reduce to zero exactly")


def test_criterion_06_transport(kdv_equiv, kdv, kdv3, kdv3_ops, fr_u, fr_uvw):
    moved = transport(kdv_equiv, parse_op(fr_u, "Dx"), "1->2")
    assert bivector_residual(kdv3, moved).is_zero()
    back = transport(kdv_equiv, kdv3_ops[0], "2->1")
    assert back == parse_op(fr_u, "-Dx")
    moved_b = certify_bivector(kdv3, moved)
    published = certify_bivector(kdv3, kdv3_ops[0])
    finding = equivalent_as_bivectors(kdv3, moved_b, published)
    # Representative mismatch is an anticipated finding: record the verdict.
    if finding.zero:
        verdict = "equivalent on the nose"
    else:
        assert finding.residual is not None  # certificate, not silence
        negated = certify_bivector(kdv3, -1 * kdv3_ops[0])
        assert equivalent_as_bivectors(kdv3, moved_b, negated).zero
        verdict = (
            "representative differs (residual "
            f"{poly_text(finding.frame, finding.residual)}); "
            "negated published matrix is equivalent exactly"
        )
    report(6, f"transport certifies both ways; 2->1 image is -Dx; {verdict}")


def test_criterion_07_camassa_holm_scalar(ch, fr_u):
    a1 = parse_op(fr_u, "Dx")
    a2 = parse_op(fr_u, "-Dt - u*Dx + u_x")
    assert bivector_residual(ch, a1).is_zero()
    assert bivector_residual(ch, a2).is_zero()
    report(7, "Camassa-Holm scalar-form operators certify exactly")


def test_criterion_08_camassa_holm_two_component(ch2, ch2_ops, fr_um):
    a1p, a2p = ch2_ops
    assert bivector_residual(ch2, a1p).is_zero()
    assert bivector_residual(ch2, a2p).is_zero()
    b1 = parse_op(fr_um, "-(2*m*Dx + m_x)")  # m-equation first structure
    b2 = parse_op(fr_um, "Dx^3 - Dx")
    lower_left = {}
    for name, op in (("A1'", a1p), ("A2'", a2p)):
        lower_left[name] = CDiffOp(
            fr_um.n, 1, 1,
            {(0, 0, s): a for (r, c, s), a in op.entries.items() if (r, c) == (1, 0)},
        )
    assert lower_left["A1'"] == -1 * b2
    assert lower_left["A2'"] == -1 * b1
    report(8, "two-component Camassa-Holm matrices certify; lower-left entries "
              "are the scalar operators up to sign")


def test_criterion_09_kupershmidt_deformation(kdv6, fr_u):
    start = time.perf_counter()
    system = kdv6.system
    w = kdv6.w_ids[0]
    n = system.frame.n
    flip = -DiffPoly.jet(n, w, (0, 0))
    first = system.originals[0].subst_deps({w: flip})
    second = system.originals[1].subst_deps({w: flip})

    def jet(dep, ix, it):
        return DiffPoly.jet(n, dep, (ix, it))

    assert first == (jet(0, 0, 1) - jet(0, 3, 0) - 6 * jet(0, 0, 0) * jet(0, 1, 0)
                     + jet(w, 1, 0))
    assert second == (jet(w, 3, 0) + 4 * jet(0, 0, 0) * jet(w, 1, 0)
                      + 2 * jet(0, 1, 0) * jet(w, 0, 0))
    assert bivector_residual(system, kdv6.a1_til.op).is_zero()
    assert bivector_residual(system, kdv6.a2_til.op).is_zero()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"deformed certification took {elapsed:.2f}s"
    report(9, "deformation reproduces the published sixth-order system modulo "
              "w -> -w; both block operators certify, < 30 s")


def test_criterion_10_hierarchy_lifting(kdv6, fr_u):
    lifted = lift_hierarchy(
        kdv6,
        [parse_vector(fr_u, "[3*u^2 + u_xx]"),
         parse_vector(fr_u, "[u]"),
         parse_vector(fr_u, "[1/2]")],
    )
    assert lifted.all_certified
    assert all(
        d.is_zero()
        for d in magri_defects(kdv6.system, kdv6.a1_til, kdv6.a2_til, lifted.entries)
    )
    assert lifted.conserved == (True, True)
    report(10, "lifted pairs are generating functions, satisfy the deformed "
               "Magri relation, and the pairing-chain conservation check holds")


def _random_poly(rng, frame, max_terms=3, max_degree=3, max_order=4):
    n, m = frame.n, frame.m
    indices = []
    for a in range(max_order + 1):
        for b in range(max_order + 1 - a):
            if n == 2:
                indices.append((a, b))
    if n == 1:
        indices = [(a,) for a in range(max_order + 1)]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        factors = {}
        for _ in range(rng.randint(0, max_degree)):
            v = (rng.randrange(m), indices[rng.randrange(len(indices))])
            factors[v] = factors.get(v, 0) + 1
        mono = (tuple(sorted(factors.items())), (0,) * n)
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(
            rng.randint(-4, 4), rng.randint(1, 3)
        )
    return DiffPoly(n, terms)


def _random_op(rng, frame, max_order=2):
    n = frame.n
    entries = {}
    for _ in range(rng.randint(1, 3)):
        if n == 2:
            sigma = (rng.randint(0, max_order), rng.randint(0, max_order - 1))
        else:
            sigma = (rng.randint(0, max_order),)
        coeff = _random_poly(rng, frame, max_terms=2, max_degree=2, max_order=2)
        key = (0, 0, sigma)
        entries[key] = entries.get(key, DiffPoly.zero(n)) + coeff
    return CDiffOp(n, 1, 1, {k: v for k, v in entries.items() if v})


def test_criterion_11_randomized_invariants(kdv, kdv_bivectors, fr_u):
    rng = random.Random(20260808)
    frame = fr_u
    deps = tuple(range(frame.m))
    cases = 100
    for _ in range(cases):
        p = _random_poly(rng, frame)
        assert p.total(0).total(1) == p.total(1).total(0)
        assert euler(frame, p.total(0), deps=deps).is_zero()
        assert euler(frame, p.total(1), deps=deps).is_zero()
    for _ in range(cases):
        a = _random_op(rng, frame)
        b = _random_op(rng, frame)
        assert a.adjoint().adjoint() == a
        assert a.compose(b).adjoint() == b.adjoint().compose(a.adjoint())
        v = _random_poly(rng, frame, max_terms=2, max_degree=2, max_order=2)
        w = _random_poly(rng, frame, max_terms=2, max_degree=2, max_order=2)
        pairing = (a.apply(VectorFunction([v]))[0] * w
                   - v * a.adjoint().apply(VectorFunction([w]))[0])
        assert euler(frame, pairing, deps=deps).is_zero()
    for _ in range(cases):
        p = _random_poly(rng, frame, max_order=3)
        q = _random_poly(rng, frame, max_terms=2, max_degree=2, max_order=3)
        rp = kdv.reduce(p)
        assert kdv.reduce(rp) == rp
        assert kdv.reduce(p * q) == kdv.reduce(rp * kdv.reduce(q))
    b1, b2 = kdv_bivectors
    chain = [parse_vector(fr_u, "[3*u^2 + u_xx]"), parse_vector(fr_u, "[u]"),
             parse_vector(fr_u, "[1/2]")]
    for i in range(3):
        for j in range(3):
            for biv in (b1, b2):
                out = poisson(kdv, biv, chain[i], chain[j])
                assert kdv.genfn_residual(out).is_zero() and out.is_zero()
    report(11, f"randomized invariant suites hold ({cases} cases per family)")


def test_criterion_12_semi_decision_transparency(kdv3, kdv3_ops, ch, ch2, ch2_ops,
                                                 kdv6, fr_u, fr_um):
    checks = []

    b1m = certify_bivector(kdv3, kdv3_ops[0])
    b2m = certify_bivector(kdv3, kdv3_ops[1])
    checks.append(("first-order KdV [[B1,B2]]",
                   is_zero_trivector(kdv3, schouten(kdv3, b1m, b2m))))

    c1 = certify_bivector(ch, parse_op(fr_u, "Dx"))
    c2 = certify_bivector(ch, parse_op(fr_u, "-Dt - u*Dx + u_x"))
    checks.append(("Camassa-Holm scalar [[A1,A2]]",
                   is_zero_trivector(ch, schouten(ch, c1, c2))))

    d1 = certify_bivector(ch2, ch2_ops[0])
    d2 = certify_bivector(ch2, ch2_ops[1])
    checks.append(("Camassa-Holm two-component [[A1',A2']]",
                   is_zero_trivector(ch2, schouten(ch2, d1, d2))))

    checks.append(("deformed KdV [[A1~,A2~]]",
                   is_zero_trivector(kdv6.system,
                                     schouten(kdv6.system, kdv6.a1_til,
                                              kdv6.a2_til))))

    outcomes = []
    for name, verdict in checks:
        # a verdict must be either zero or carry a rendered certificate
        if verdict.zero:
            outcomes.append(f"{name}: zero")
        else:
            assert verdict.residual is not None, f"{name}: silent inconclusive"
            rendered = poly_text(verdict.frame, verdict.residual)
            assert rendered and rendered != "0"
            outcomes.append(f"{name}: residual {rendered}")
    report(12, "; ".join(outcomes))
