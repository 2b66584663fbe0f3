import hashlib
import weakref
from fractions import Fraction

import pytest

from hamcheck import (
    DiffPoly,
    Frame,
    MismatchedSolvedForm,
    NonOrthonomic,
    NotAGenFn,
    NotOnEquation,
    PassivityFailure,
    Ranking,
    VectorFunction,
    make_genfn,
    make_system,
    solve_orthonomic,
)
from hamcheck.parser import parse_op, parse_poly, parse_vector
from hamcheck.poly import run_scope, var_table
from hamcheck.render import op_text, poly_text
from hamcheck.systems import solve_for
from reference import NotConserved, current_to_genfn, make_current


def P(fr, s):
    return parse_poly(fr, s)


# -- construction -------------------------------------------------------


def test_make_system_kdv_valid(kdv):
    assert len(kdv.rules) == 1
    assert kdv.rules[0].lead == (0, (0, 1))
    assert kdv.originals[0].partial(kdv.rules[0].lead).const_value() == 1


def test_make_system_three_component_valid(kdv3):
    assert [r.lead for r in kdv3.rules] == [(0, (1, 0)), (1, (1, 0)), (2, (1, 0))]


def test_kdv_wrong_ranking_rejected(fr_u):
    f = P(fr_u, "u_t - u_xxx - 6*u*u_x")
    with pytest.raises(NonOrthonomic):
        make_system(
            fr_u, [f], [((0, (0, 1)), P(fr_u, "u_xxx + 6*u*u_x"))],
            Ranking.of(fr_u, "x", "t"),
        )


def test_mismatched_solved_form(fr_u):
    f = P(fr_u, "u_t - u_xxx - 6*u*u_x")
    with pytest.raises(MismatchedSolvedForm):
        make_system(
            fr_u, [f], [((0, (0, 1)), P(fr_u, "u_xxx"))], Ranking.of(fr_u, "t", "x")
        )


def test_nonlinear_lead_rejected(fr_u):
    f = P(fr_u, "u_t^2 - u_x")
    with pytest.raises(NonOrthonomic):
        solve_orthonomic(fr_u, [f], Ranking.of(fr_u, "t", "x"))


def test_prolonged_lead_rejected(fr_u):
    f1 = P(fr_u, "u_t - u")
    f2 = P(fr_u, "u_tx - u_x")
    with pytest.raises(NonOrthonomic):
        make_system(
            fr_u,
            [f1, f2],
            [((0, (0, 1)), P(fr_u, "u")), ((0, (1, 1)), P(fr_u, "u_x"))],
            Ranking.of(fr_u, "t", "x"),
        )


def test_passivity_failure_detected():
    # u_t = u and u_x = 1 are incompatible: cross derivatives differ.
    fr = Frame(("x", "t"), ("u",))
    f1 = P(fr, "u_t - u")
    f2 = P(fr, "u_x - 1")
    with pytest.raises(PassivityFailure):
        make_system(
            fr,
            [f1, f2],
            [((0, (0, 1)), P(fr, "u")), ((0, (1, 0)), P(fr, "1"))],
            Ranking.of(fr, "t", "x"),
        )


def test_passivity_compatible_pair_accepted():
    fr = Frame(("x", "t"), ("u",))
    f1 = P(fr, "u_t - u")
    f2 = P(fr, "u_x - u")
    sys2 = make_system(
        fr,
        [f1, f2],
        [((0, (0, 1)), P(fr, "u")), ((0, (1, 0)), P(fr, "u"))],
        Ranking.of(fr, "t", "x"),
    )
    assert sys2.reduce(P(fr, "u_xt")) == P(fr, "u")


def test_scaled_solved_form_records_scale(fr_u):
    f = P(fr_u, "-2*u_t + 2*u_xx")
    system = make_system(
        fr_u, [f], [((0, (0, 1)), P(fr_u, "u_xx"))], Ranking.of(fr_u, "t", "x")
    )
    assert system.originals[0].partial(system.rules[0].lead).const_value() == -2


def test_right_hand_sides_normalised_in_one_pass():
    # v_t -> u_xx has the reducible jet u_xx = D_x(u_x): its normal form is
    # v_x, while the equation, solved again, keeps u_xx for factoring
    fr = Frame(("x", "t"), ("u", "v"))
    system = make_system(
        fr,
        [P(fr, "u_x - v"), P(fr, "v_t - u_xx")],
        [((0, (1, 0)), P(fr, "v")), ((1, (0, 1)), P(fr, "u_xx"))],
        Ranking.of(fr, "t", "x"),
    )
    assert system.rules[1].rhs == P(fr, "v_x")
    assert solve_for(1, system.originals[1], system.rules[1].lead).rhs == P(fr, "u_xx")
    for rule in system.rules:
        assert system.reduce(rule.rhs) == rule.rhs


def _exact(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def test_non_unit_scale_stays_exact(fr_u):
    # 3*u_t = u_xxx + 6*u*u_x: solving for u_t and factoring through F both
    # divide by the scale 3, which is an int and must give exact thirds.
    f = P(fr_u, "3*u_t - u_xxx - 6*u*u_x")
    system = solve_orthonomic(fr_u, [f], Ranking.of(fr_u, "t", "x"))
    rule = system.rules[0]
    scale = system.originals[0].partial(rule.lead).const_value()
    assert type(scale) is int and scale == 3
    u_xxx = ((((0, (3, 0)), 1),), (0, 0))
    for rhs in (rule.rhs, solve_for(0, f, rule.lead).rhs):
        assert rhs == P(fr_u, "1/3*u_xxx + 2*u*u_x")
        assert dict(rhs.items())[u_xxx] == Fraction(1, 3)
        assert all(_exact(c) for c in rhs.terms.values())
    # the mass current: D_x(-1/3*u_xx - u^2) + D_t(u) = F/3
    psi = current_to_genfn(system, parse_vector(fr_u, "[-1/3*u_xx - u^2, u]"))
    assert dict(psi[0].items()) == {((), (0, 0)): Fraction(1, 3)}
    delta = system.factor_through_f(P(fr_u, "u_t - 1/3*u_xxx - 2*u*u_x"))
    assert delta.entries == {(0, 0, (0, 0)): P(fr_u, "1/3")}
    assert all(_exact(c) for a in delta.entries.values() for c in a.terms.values())
    # the twin's rule carries the tag T_0 with the coefficient 1/scale
    twin_rhs = system._twin.rules[0].rhs
    assert dict(twin_rhs.items())[((((-1, (0, 0)), 1),), (0, 0))] == Fraction(1, 3)
    assert all(_exact(c) for c in twin_rhs.terms.values())


# -- reduction ----------------------------------------------------------


def test_reduce_examples(kdv, fr_u):
    assert kdv.reduce(P(fr_u, "u_t")) == P(fr_u, "u_xxx + 6*u*u_x")
    assert kdv.reduce(P(fr_u, "u_tx")) == P(fr_u, "u_xxxx + 6*u_x^2 + 6*u*u_xx")


def test_reduce_deep_jet_without_recursion(fr_u):
    # each prolongation step is cached before the next, so the jet order
    # is not bounded by the interpreter's recursion limit
    e = make_system(fr_u, [P(fr_u, "u_x - u")], [((0, (1, 0)), P(fr_u, "u"))],
                    Ranking.of(fr_u, "x", "t"))
    deep = VectorFunction([DiffPoly.jet(fr_u.n, 0, (1200, 0))])
    assert e.reduce_vector(deep) == VectorFunction([P(fr_u, "u")])


def test_reduce_deep_climb_across_two_rules():
    # every step of the climb to u_{x^k} or v_{x^k} takes its images from
    # the other rule's climb, in t, so each climb is past the recursion
    # limit and each needs the other's table entries
    fr = Frame(("x", "t"), ("u", "v"))
    e = make_system(fr, [P(fr, "u_x - v"), P(fr, "v_x - u_t")],
                    [((0, (1, 0)), P(fr, "v")), ((1, (1, 0)), P(fr, "u_t"))],
                    Ranking.of(fr, "x", "t"))
    assert e.reduce(DiffPoly.jet(2, 0, (2400, 0))) == DiffPoly.jet(2, 0, (0, 1200))
    assert e.reduce(DiffPoly.jet(2, 0, (2401, 0))) == DiffPoly.jet(2, 1, (0, 1200))


def test_reduce_three_component(kdv3, fr_uvw):
    assert kdv3.reduce(P(fr_uvw, "u_xx")) == P(fr_uvw, "w")
    assert kdv3.reduce(P(fr_uvw, "u_xxx")) == P(fr_uvw, "u_t - 6*u*v")


# sha256 of the rendered normal forms of two deep jets; a change to the
# prolongation path that keeps every normal form must keep these bytes.
DEEP_NORMAL_FORMS = {
    ("kdv", (0, 10)): (1466, "38600cabb26b580961236db902f2c18ffdba8871e1e3a52bdd72afe100774b10"),
    ("ch", (2, 6)): (215, "17e88250cc97c272468c6b56272f4e39c1646d07adf5a1f8d9224e96d936845b"),
}


def test_deep_normal_forms_match_pinned_digests(kdv, ch, fr_u):
    systems = {"kdv": kdv, "ch": ch}
    for (name, idx), (size, digest) in DEEP_NORMAL_FORMS.items():
        p = systems[name].reduce(DiffPoly.jet(fr_u.n, 0, idx))
        text = poly_text(fr_u, p).encode("utf-8")
        assert (len(p.terms), hashlib.sha256(text).hexdigest()) == (size, digest), name


def test_reduce_idempotent_and_morphism(kdv, fr_u):
    p = P(fr_u, "u_tt*u_x - u_txx + 3*u_t^2")
    q = P(fr_u, "u_t*u - 2*u_tx")
    assert kdv.reduce(kdv.reduce(p)) == kdv.reduce(p)
    assert kdv.reduce(p * q) == kdv.reduce(kdv.reduce(p) * kdv.reduce(q))


def test_reduced_totals_commute(kdv, fr_u):
    p = P(fr_u, "u_t*u_xx - u^2")
    a = kdv.reduce(kdv.reduce(p.total(0)).total(1))
    b = kdv.reduce(kdv.reduce(p.total(1)).total(0))
    assert a == b


def test_a_system_built_outside_runs_serves_no_runs_values(kdv, fr_u):
    # The session system is built outside any run.  Two runs in turn meet
    # jets the other does not: u_t^9, then u_{x^30}t.  Each drops what the
    # system kept from before, so its answers are those taken outside any
    # run, and a run's variable table is released once the system is used
    # under another.  The answers are compared as text, which holds no
    # table.
    jets = DiffPoly.jet(2, 0, (0, 9)), DiffPoly.jet(2, 0, (30, 1))
    g = kdv.originals[0].total(0)

    def answers(p):
        return (poly_text(fr_u, kdv.reduce(p)), op_text(fr_u, kdv.linearization()),
                op_text(fr_u, kdv.factor_through_f(g)))

    kdv._forget()  # so that the first run fills the caches itself
    tables, inside = [], []
    for p in jets:
        with run_scope():
            tables.append(weakref.ref(var_table()))
            inside.append(answers(p))
    assert tables[0]() is None
    outside = [answers(p) for p in jets]
    assert tables[1]() is None
    assert inside == outside
    assert "u_" + "x" * 33 in outside[1][0] and "x" * 28 not in outside[0][0]
    assert outside[0][1:] == ("-6*u_x + Dt + (-6*u)*Dx - Dx^3", "Dx")


def test_restrict_op(kdv, fr_u):
    lin = kdv.linearization()
    assert kdv.restrict_op(lin) == lin  # coefficients already internal
    mult = parse_op(fr_u, "u_t")
    assert kdv.restrict_op(mult) == parse_op(fr_u, "u_xxx + 6*u*u_x")
    assert kdv.restrict_op(parse_op(fr_u, "0")).is_zero()


def test_symmetries(kdv, fr_u):
    assert kdv.symmetry_residual(parse_vector(fr_u, "[u_x]")).is_zero()
    assert kdv.symmetry_residual(parse_vector(fr_u, "[u_xxx + 6*u*u_x]")).is_zero()
    assert not kdv.symmetry_residual(parse_vector(fr_u, "[u]")).is_zero()
    residual = kdv.symmetry_residual(parse_vector(fr_u, "[u]"))
    assert residual[0] == P(fr_u, "-6*u*u_x")


def test_genfns(kdv, fr_u):
    assert kdv.genfn_residual(parse_vector(fr_u, "[1]")).is_zero()
    assert kdv.genfn_residual(parse_vector(fr_u, "[u]")).is_zero()
    assert not kdv.genfn_residual(parse_vector(fr_u, "[u_x]")).is_zero()
    residual = kdv.genfn_residual(parse_vector(fr_u, "[u_x]"))
    assert residual[0] == P(fr_u, "-6*u_x^2")
    with pytest.raises(NotAGenFn):
        make_genfn(kdv, parse_vector(fr_u, "[u_x]"))


# -- factoring ----------------------------------------------------------


def test_factor_total_derivative_of_f(kdv, fr_u):
    f = kdv.originals[0]
    delta = kdv.factor_through_f(f.total(0))
    assert delta == parse_op(fr_u, "Dx")


def test_factor_zero(kdv, fr_u):
    assert kdv.factor_through_f(P(fr_u, "0")).is_zero()


def test_factor_momentum_density(kdv, fr_u):
    g = P(fr_u, "u^2").total(1) * Fraction(1, 2) - P(
        fr_u, "u*u_xx - 1/2*u_x^2 + 2*u^3"
    ).total(0)
    delta = kdv.factor_through_f(g)
    assert delta == parse_op(fr_u, "u")


def test_factor_soundness(kdv, fr_u):
    g = kdv.originals[0] * P(fr_u, "u_xx") + kdv.originals[0].total(0) * 3
    delta = kdv.factor_through_f(g)
    back = delta.apply(VectorFunction([kdv.originals[0]]))[0]
    assert kdv.reduce(g - back).is_zero()
    assert (g - back).is_zero()  # here g is exactly F-linear


def test_factor_requires_on_shell(kdv, fr_u):
    with pytest.raises(NotOnEquation):
        kdv.factor_through_f(P(fr_u, "u"))


# -- conserved currents ---------------------------------------------------


def test_current_mass(kdv, fr_u):
    # components ordered (x, t) like the frame independents
    s = parse_vector(fr_u, "[-u_xx - 3*u^2, u]")
    psi = current_to_genfn(kdv, s)
    assert psi[0] == P(fr_u, "1")


def test_current_momentum(kdv, fr_u):
    s = parse_vector(fr_u, "[-u*u_xx + 1/2*u_x^2 - 2*u^3, 1/2*u^2]")
    psi = current_to_genfn(kdv, s)
    assert psi[0] == P(fr_u, "u")


def test_trivial_current_gives_zero(kdv, fr_u):
    h = P(fr_u, "u*u_x^2")
    s = VectorFunction([h.total(1), -h.total(0)])
    psi = current_to_genfn(kdv, s)
    assert psi.is_zero()


def test_not_conserved(kdv, fr_u):
    with pytest.raises(NotConserved):
        make_current(kdv, parse_vector(fr_u, "[u, u]"))


# -- evolution detection ----------------------------------------------------


def test_is_evolution(kdv, kdv3, ch, ch2):
    assert kdv.is_evolution() == 1  # t-direction
    assert kdv3.is_evolution() == 0  # x-direction
    assert ch.is_evolution() is None
    assert ch2.is_evolution() is None


def test_ranking_keys_are_total_and_prolongation_compatible():
    fr = Frame(("x", "t"), ("u", "v"))
    rk = Ranking.of(fr, "t", "x")
    jets = [(d, (a, b)) for d in range(2) for a in range(3) for b in range(3)]
    keys = [rk.key(j) for j in jets]
    assert len(set(keys)) == len(keys)  # strict total order
    for a in jets:
        for b in jets:
            if rk.key(a) < rk.key(b):
                for i in range(fr.n):
                    up_a = (a[0], tuple(q + (1 if k == i else 0) for k, q in enumerate(a[1])))
                    up_b = (b[0], tuple(q + (1 if k == i else 0) for k, q in enumerate(b[1])))
                    assert rk.key(up_a) < rk.key(up_b)


def test_current_with_explicit_base_variables(kdv, fr_u):
    # the boost conservation law carries explicit x and t in its densities
    s = parse_vector(
        fr_u,
        "[-x*u_xx + u_x - 3*x*u^2 - 6*t*u*u_xx + 3*t*u_x^2 - 12*t*u^3,"
        " x*u + 3*t*u^2]",
    )
    psi = current_to_genfn(kdv, s)
    assert psi == parse_vector(fr_u, "[x + 6*t*u]")
