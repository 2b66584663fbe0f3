from fractions import Fraction

import pytest

from hamcheck import (
    CDiffOp,
    DiffPoly,
    ExponentOverflow,
    Frame,
    Ranking,
    VectorFunction,
    euler,
    linearize,
    make_system,
)
from hamcheck.parser import parse_poly
from hamcheck.poly import W, run_scope, var_table
from hamcheck.render import poly_text


def P(fr, text):
    return parse_poly(fr, text)


@pytest.mark.parametrize("independents, dependents, message", [
    (("x", "t"), ("u", "2v"), "bad variable name"),
    (("x", "t"), ("u", "v-w"), "bad variable name"),
    (("x", "t"), ("", "v"), "bad variable name"),
    (("x", "t"), ("u", "u"), "must be unique"),
    (("x", "t"), ("u", "x"), "must be unique"),
    ((), ("u",), "at least one"),
])
def test_frame_rejects_bad_declarations(independents, dependents, message):
    with pytest.raises(ValueError, match=message):
        Frame(independents, dependents)


@pytest.mark.parametrize("idx", [(1, -1), (-1, 0), (0,), (0, 0, 0), ()])
def test_jet_rejects_a_negative_entry_or_a_wrong_length(idx):
    with pytest.raises(ValueError, match="bad multi-index"):
        DiffPoly.jet(2, 0, idx)
    assert DiffPoly.jet(2, 0, (2, 0)).jetvars() == {(0, (2, 0))}


def test_arithmetic_is_exact_and_sparse(fr_u):
    u = P(fr_u, "u")
    p = Fraction(1, 3) * u + Fraction(2, 3) * u
    assert p == u
    assert (u - u).is_zero()
    assert not (u - u).terms  # no zero coefficients stored


def test_commutativity_and_associativity(fr_u):
    a = P(fr_u, "u + 2*u_x")
    b = P(fr_u, "u_xx - 3")
    c = P(fr_u, "u*u_x")
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a


def test_total_derivative_basics(fr_u):
    u = P(fr_u, "u")
    assert u.total(0) == P(fr_u, "u_x")
    assert P(fr_u, "u*u_x").total(0) == P(fr_u, "u_x^2 + u*u_xx")
    assert P(fr_u, "3*u^2 + u_xx").total(0) == P(fr_u, "6*u*u_x + u_xxx")


def test_total_derivative_explicit_coordinate(fr_u):
    xu = P(fr_u, "x*u")
    assert xu.total(0) == P(fr_u, "u + x*u_x")
    assert xu.total(1) == P(fr_u, "x*u_t")


def test_totals_commute(fr_u):
    p = P(fr_u, "x*u*u_xt + u_xx^2 - 7/2*t*u_t")
    assert p.total(0).total(1) == p.total(1).total(0)


def test_euler_simple_density(fr_u):
    assert euler(fr_u, P(fr_u, "1/2*u^2"))[0] == P(fr_u, "u")
    assert euler(fr_u, P(fr_u, "u_x"))[0].is_zero()
    assert euler(fr_u, P(fr_u, "u^3 - 1/2*u_x^2"))[0] == P(fr_u, "3*u^2 + u_xx")


def test_euler_reproduces_kdv_flow(fr_u):
    # D_x of the variational derivative of the cubic density gives the flow.
    e = euler(fr_u, P(fr_u, "u^3 - 1/2*u_x^2"))[0]
    assert e.total(0) == P(fr_u, "u_xxx + 6*u*u_x")


def test_euler_kills_divergences(fr_u):
    h = P(fr_u, "u*u_xx + t*u_x^3")
    assert euler(fr_u, h.total(0))[0].is_zero()
    assert euler(fr_u, h.total(1))[0].is_zero()


def test_euler_varies_every_dependent_of_the_frame(fr_u):
    fr, (q,) = fr_u.extend(("q1",))
    u, q1 = DiffPoly.jet(fr.n, 0, (0, 0)), DiffPoly.jet(fr.n, q, (0, 0))
    assert euler(fr, u * q1) == VectorFunction([q1, u])
    with pytest.raises(ValueError, match="outside the frame"):
        euler(fr, u * DiffPoly.jet(fr.n, fr.m, (1, 0)))


def _evolutionary(frame, phi, f):
    """The evolutionary field of phi applied to f, as the linearization of
    f along the dependents of the frame applied to phi."""
    return linearize(f, range(frame.m)).apply(phi)[0]


def test_evolutionary_apply(fr_u):
    u = P(fr_u, "u")
    phi = VectorFunction([P(fr_u, "u_x")])
    assert _evolutionary(fr_u, phi, u) == P(fr_u, "u_x")
    assert _evolutionary(fr_u, phi, P(fr_u, "u_x")) == P(fr_u, "u_xx")
    assert _evolutionary(fr_u, phi, P(fr_u, "u*u_xx")) == P(
        fr_u, "u_x*u_xx + u*u_xxx"
    )


def test_evolutionary_apply_length_check(fr_uvw):
    phi = VectorFunction([DiffPoly.jet(2, 0, (0, 0))])
    with pytest.raises(ValueError):
        _evolutionary(fr_uvw, phi, DiffPoly.jet(2, 0, (0, 0)))


def test_substitute_expands_powers(fr_u):
    p = P(fr_u, "u_x^2 + u*u_x")
    out = p.substitute({(0, (1, 0)): P(fr_u, "u + 1")})
    assert out == P(fr_u, "u^2 + 2*u + 1 + u*u + u") - P(fr_u, "u^2") + P(fr_u, "u^2")
    assert out == P(fr_u, "(u+1)^2 + u*(u+1)")
    # every jet is replaced at once, never inside another jet's image
    u, u_x = (0, (0, 0)), (0, (1, 0))
    out = P(fr_u, "u*u_x^2").substitute({u: P(fr_u, "u_x"), u_x: P(fr_u, "u")})
    assert out == P(fr_u, "u_x*u^2")


def test_subst_dep_prolongs(fr_u):
    fr, (w,) = fr_u.extend(("w1",))
    p = DiffPoly.jet(fr.n, w, (2, 0)) + DiffPoly.jet(fr.n, w, (0, 0))
    val = P(fr_u, "u*u_x")
    out = p.subst_deps({w: val})
    assert out == val.total(0).total(0) + val


# -- ids of raised jets ------------------------------------------------------------
# A jet gets an id, and so a field in every later monomial, only when a
# result keeps it; a jet that D_i raises to and that an image replaces
# gets none.


def test_restricted_total_gives_no_id_to_a_replaced_jet(kdv):
    # D_t raises u_{x^40}, which no other test uses, and u to reducible jets
    n = kdv.frame.n
    p = DiffPoly.jet(n, 0, (40, 0)) * (DiffPoly.jet(n, 0, (0, 0)) + 1)
    ups = [(0, (40, 1)), (0, (0, 1))]
    # the images, and the ids of the jets they keep, exist before the step
    assert all(kdv._image(v) is not None for v in ups)
    table = var_table()
    before = len(table.vars)
    out = p.total(1, kdv._image)
    assert len(table.vars) == before
    assert (0, (40, 1)) not in table.ids
    assert out.jetvars() <= set(table.vars)


def test_deep_reduction_gives_ids_only_to_jets_its_normal_forms_use():
    # In a fresh run, whose variable table starts empty, so that no other
    # test has given these ids.  Each new id is a jet of the normal form or
    # of a normal form the system stored on the way, in its table by jet or
    # in its table of restricted derivatives: u_{x^23}, for one, occurs
    # only in D̄_x^20 of the right-hand side, the image of u_{x^20 t}.  No
    # reducible jet gets one.
    with run_scope():
        table = var_table()
        assert table.vars == []
        fr = Frame(("x", "t"), ("u",))
        f = parse_poly(fr, "u_t - u_xxx - 6*u*u_x")
        rhs = parse_poly(fr, "u_xxx + 6*u*u_x")
        kdv = make_system(fr, [f], [((0, (0, 1)), rhs)], Ranking.of(fr, "t", "x"))
        u_t8 = DiffPoly.jet(2, 0, (0, 8))
        before = len(table.vars)
        nf = kdv.reduce(u_t8)
        forms = [q for q in kdv._normal.values() if q is not None]
        forms += [q for t in kdv._restricted._by_value.values() for q in t.values()]
        stored = set().union(*(q.jetvars() for q in forms))
        given = table.vars[before:]
    # D_t^8 u has weight 26, so its normal form uses u_{x^24} at the top
    assert (0, (24, 0)) in nf.jetvars()
    assert given and all(v in stored for v in given)
    assert (0, (23, 0)) in given and (0, (23, 0)) not in nf.jetvars()
    assert [v for v in given if kdv.rule_for(v) is not None] == []


def test_raise_map_holds_jets_and_offsets_only(kdv):
    kdv.reduce(DiffPoly.jet(2, 0, (1, 3)) * DiffPoly.jet(2, 0, (2, 0)))
    table = var_table()
    assert table.raised
    for (k, i), (up, t) in table.raised.items():
        dep, idx = table.vars[k]
        assert up == (dep, idx[:i] + (idx[i] + 1,) + idx[i + 1:])
        assert t is None or t == W * table.ids[up]
        assert not any(isinstance(x, DiffPoly) for x in (k, i, up, t))


def test_a_value_reads_the_same_under_every_table(fr_u):
    # A run's table starts empty and holds only what the run met.  A value
    # keeps the table it was built in and is re-encoded where it meets the
    # active one, so a value built outside any run reads the same inside
    # one, and a value built in a run reads the same after it.
    text = "3*u_xx*u^2 - x*u_t + 1/2"
    p = parse_poly(fr_u, text)
    with run_scope():
        q = parse_poly(fr_u, text)
        assert set(var_table().vars) == {0, (0, (0, 0)), (0, (2, 0)), (0, (0, 1))}
        assert q == p and repr(q) == repr(p)
        inside = (p + q, q - p, p * q, p.total(0), p.partial((0, (0, 0))),
                  p.substitute({(0, (0, 0)): q}), p.relabel_deps({0: 1}))
    assert inside == (2 * p, 0, p * p, q.total(0), q.partial((0, (0, 0))),
                      q.substitute({(0, (0, 0)): p}), q.relabel_deps({0: 1}))


def test_relabel_deps_merges_factors_on_one_jet():
    fr = Frame(("x", "t"), ("u", "v"))
    uv = parse_poly(fr, "u*v + u_x*v_x + u^2*v")
    out = uv.relabel_deps({1: 0})
    assert out == parse_poly(fr, "u^2 + u_x^2 + u^3")
    assert dict(out.items())[((((0, (0, 0)), 2),), (0, 0))] == 1
    # an injective mapping only renames
    assert uv.relabel_deps({0: 1, 1: 0}) == parse_poly(fr, "v*u + v_x*u_x + v^2*u")


def test_relabel_deps_merges_terms_and_keeps_the_rest():
    fr = Frame(("x", "t"), ("u", "v", "w"))
    p = parse_poly(fr, "x*u_x*w + x*v_x*w - t*v^2 + w_t")
    assert p.relabel_deps({1: 0}) == parse_poly(fr, "2*x*u_x*w - t*u^2 + w_t")


def test_exponent_limit_fails_cleanly_where_exponents_grow():
    fr = Frame(("x", "t"), ("u", "v", "w"))
    u, v, w, u_x = (P(fr, s) for s in ("u", "v", "w", "u_x"))
    top = u ** (2**15 - 1)
    assert dict(top.items()) == {((((0, (0, 0)), 2**15 - 1),), (0, 0)): 1}
    with pytest.raises(ExponentOverflow) as err:
        top * u
    assert "32768" in str(err.value)
    with pytest.raises(ExponentOverflow):
        DiffPoly(fr.n, {((((0, (0, 0)), 2**15),), (0, 0)): 1})
    with pytest.raises(ExponentOverflow):
        (u * u_x ** (2**15 - 1)).total(0)
    # D_x(u^32767) = 32767*u^32766*u_x, and the image u^2 of u_x takes u
    # past the limit inside the one pass of the restricted total derivative
    with pytest.raises(ExponentOverflow):
        top.total(0, {(0, (1, 0)): u * u}.get)
    # u^32767*D_x applied to u^2 gives 2*u^32768*u_x: each fused sum of
    # products (apply, compose, and apply after linearize) checks the
    # guard on its result
    with pytest.raises(ExponentOverflow):
        CDiffOp(fr.n, 1, 1, {(0, 0, (1, 0)): top}).apply(VectorFunction([u * u]))
    with pytest.raises(ExponentOverflow):
        CDiffOp.mult(top).compose(CDiffOp.mult(u))
    with pytest.raises(ExponentOverflow):
        _evolutionary(fr, VectorFunction([u * u, v, w]), top * u_x)
    with pytest.raises(ExponentOverflow):
        (top * u_x).substitute({(0, (1, 0)): u})
    with pytest.raises(ExponentOverflow):
        (top * v).relabel_deps({1: 0})
    # three factors merging onto one jet would carry past a 16-bit field
    with pytest.raises(ExponentOverflow):
        (u**30000 * v**30000 * w**30000).relabel_deps({1: 0, 2: 0})


def test_exponent_guard_runs_after_cancelled_terms_are_dropped(fr_u):
    # [a, -a] applied to (v, v) with a = v = u^20000 sums u^40000 - u^40000:
    # the monomial is past the limit, but it cancels, so nothing overflows
    a = P(fr_u, "u") ** 20000
    v = VectorFunction([a, a])
    row = CDiffOp.block([[CDiffOp.mult(a), -CDiffOp.mult(a)]])
    assert row.apply(v).is_zero()


def _clean(p) -> bool:
    """No zero coefficient is stored, and each one is an int or a
    non-integral Fraction."""
    return all(
        (type(c) is int and c) or (type(c) is Fraction and c.denominator > 1)
        for c in p.terms.values()
    )


def test_builders_clean_each_result_once(fr_u):
    # each builder sums 1/2 + 1/2 into a term, which must be stored as the
    # int 1, and 1/2 - 1/2 into another, which must not be stored at all
    half = Fraction(1, 2)
    u, u_x = P(fr_u, "u"), P(fr_u, "u_x")
    u_xx = (0, (2, 0))
    polys = [
        (P(fr_u, "1/2*x*u_x + 1/2*u").total(0), P(fr_u, "u_x + 1/2*x*u_xx")),
        (P(fr_u, "1/2*x*u_x - 1/2*u").total(0), P(fr_u, "1/2*x*u_xx")),
        (P(fr_u, "1/2*u*u_x + 1/2*u_xx").substitute({u_xx: u * u_x}), u * u_x),
        (P(fr_u, "1/2*u*u_x - 1/2*u_xx").substitute({u_xx: u * u_x}), 0),
        ((half * u + half * u_x) * (u + u_x), P(fr_u, "1/2*u^2 + u*u_x + 1/2*u_x^2")),
        ((half * u + half * u_x) * (u - u_x), P(fr_u, "1/2*u^2 - 1/2*u_x^2")),
        (euler(fr_u, P(fr_u, "1/2*u*u_xx"))[0], P(fr_u, "u_xx")),
        (euler(fr_u, P(fr_u, "1/2*u_x^2 + 1/2*u*u_xx"))[0], 0),
    ]
    a, b = CDiffOp.mult(half * u), CDiffOp.mult(u)
    pair = VectorFunction([u, u])
    polys += [
        (CDiffOp.block([[a, a]]).apply(pair)[0], u * u),
        (CDiffOp.block([[a, -a]]).apply(pair)[0], 0),
    ]
    for got, expected in polys:
        assert got == expected and _clean(got)
    column = CDiffOp.block([[b], [b]])
    d = CDiffOp(fr_u.n, 1, 1, {(0, 0, (1, 0)): half * u, (0, 0, (0, 0)): -half * u_x})
    d_plus = CDiffOp(fr_u.n, 1, 1, {(0, 0, (1, 0)): half * u, (0, 0, (0, 0)): half * u_x})
    ops = [
        (CDiffOp.block([[a, a]]).compose(column), CDiffOp.mult(u * u)),
        (CDiffOp.block([[a, -a]]).compose(column), CDiffOp.zero(fr_u.n)),
        # (1/2*u*D_x - 1/2*u_x)* = -1/2*u*D_x - u_x; with + the u_x terms cancel
        (d.adjoint(), CDiffOp(fr_u.n, 1, 1, {(0, 0, (1, 0)): -half * u, (0, 0, (0, 0)): -u_x})),
        (d_plus.adjoint(), CDiffOp(fr_u.n, 1, 1, {(0, 0, (1, 0)): -half * u})),
        (a - CDiffOp.mult(-half * u), b),
        (a - a, CDiffOp.zero(fr_u.n)),
        (d - d_plus, CDiffOp.mult(-u_x)),
    ]
    for got, expected in ops:
        assert got == expected
        assert all(p and _clean(p) for p in got.entries.values())


def test_canonical_rendering_order(fr_u):
    assert poly_text(fr_u, P(fr_u, "u_xx + 3*u^2")) == "3*u^2 + u_xx"
    assert poly_text(fr_u, P(fr_u, "u*u_xx + u_x^2")) == "u_x^2 + u*u_xx"
    assert poly_text(fr_u, P(fr_u, "0")) == "0"
    assert poly_text(fr_u, P(fr_u, "-1/2*u_x^2 + u^3")) == "u^3 - 1/2*u_x^2"


def test_vector_componentwise(fr_u):
    v = VectorFunction([P(fr_u, "u"), P(fr_u, "u_x")])
    w = VectorFunction([P(fr_u, "1"), P(fr_u, "-u_x")])
    assert (v + w)[1].is_zero()
    assert (v - v).is_zero()
    with pytest.raises(ValueError):
        v + VectorFunction([P(fr_u, "u")])
