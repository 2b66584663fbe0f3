"""Equations as orthonomic rewrite systems on jet space.

A system is a list of rules  lead -> rhs  where every lead is a jet
variable strictly greater (under a prolongation-compatible ranking) than
everything in the right-hand sides.  Reduction to normal form realizes
restriction to the infinite prolongation; factoring an on-shell
expression through the equation recovers the operator that produced it.
Factoring is a reduction too, on the system's tagged twin, whose rule k
carries a fresh jet standing for the equation F_k.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .frame import index_le, index_sub
from .ops import CDiffOp, DimensionMismatch, linearize
from .poly import (
    DiffPoly,
    HamcheckError,
    VectorFunction,
    as_vector,
    current_run,
)
from .render import jet_text, poly_text


class NonOrthonomic(HamcheckError):
    pass


class MismatchedSolvedForm(HamcheckError):
    pass


class PassivityFailure(HamcheckError):
    """Two equations, named by ``which``, have an integrability condition at
    the jet ``lcm`` that does not reduce to zero; ``residual`` is its normal
    form."""

    def __init__(self, frame, which, lcm, residual):
        self.lcm = lcm
        self.residual = residual
        super().__init__(
            f"{which}: the integrability condition at "
            f"{jet_text(frame, lcm)} reduces to {poly_text(frame, residual)}, not 0"
        )


class NotOnEquation(HamcheckError):
    """An expression to factor through the equation does not vanish on it;
    ``rows`` are its rows' normal forms, the zero ones too."""

    def __init__(self, rows):
        self.rows = rows
        super().__init__("expression does not vanish on the equation")


class NotConserved(HamcheckError):
    pass


class NotAGenFn(HamcheckError):
    def __init__(self, residual):
        self.residual = residual
        super().__init__("vector is not a generating function on this system")


class Rule:
    """One equation solved by ``solve_for``: ``lead -> rhs``, every jet of
    ``rhs`` ranked below ``lead``.  The equation is kept in the system's
    ``originals``, and ``seal`` brings ``rhs`` to normal form."""

    __slots__ = ("lead", "rhs")

    def __init__(self, lead: tuple, rhs: DiffPoly):
        self.lead = lead
        self.rhs = rhs


class EquationSystem:
    """Immutable orthonomic system; all queries are pure functions.

    ``originals[k]`` is the equation that ``rules[k]`` was solved from, in
    every system that ``make_system``, ``solve_orthonomic``, ``seal`` and
    ``constraint_system`` build; the tagged twin is built from it.  The
    per-instance caches only memoize derived values that are functions of
    the immutable state, and the slots admit no other state.
    """

    __slots__ = ("frame", "originals", "rules", "ranking", "_by_dep",
                 "_normal", "_lin", "_lin_adj", "_twin")

    def __init__(self, frame, originals, rules, ranking):
        self.frame = frame
        self.originals = originals
        self.rules = tuple(rules)
        self.ranking = ranking
        self._by_dep = {}
        for k, rule in enumerate(self.rules):
            self._by_dep.setdefault(rule.lead[0], []).append(k)
        self._normal = {}
        self._lin = None
        self._lin_adj = None
        self._twin = None

    # -- reduction ------------------------------------------------------

    def rule_for(self, jet):
        """Index of the rule whose lead divides this jet variable, if any."""
        dep, idx = jet
        for k in self._by_dep.get(dep, ()):
            if index_le(self.rules[k].lead[1], idx):
                return k
        return None

    def prolonged_rhs(self, k: int, tau) -> DiffPoly:
        """Normal form of D_tau applied to rule k's right-hand side, where k
        is ``rule_for`` of the jet lead_k + tau.

        The jet is lowered in the first direction where it exceeds the lead
        until it meets a jet in the system's table or the lead, whose entry
        is the normal form of the right-hand side.  The path is then climbed
        back one restricted total derivative D̄_i = ``total(i, self._image)``
        at a time, storing each jet: D_i of a normal form whose raised
        reducible jets are replaced by their own normal forms, in one pass,
        is again a normal form.  Every jet on the path gets rule k from
        ``rule_for`` too (a rule before k that divided it would divide the
        jet as well), so each entry is the same whichever jet asked for it
        first.  Iterative, so the jet order is not limited by the recursion
        depth.
        """
        table = self._normal
        dep, lead = self.rules[k].lead
        idx = tuple(map(add, lead, tau))
        path = []
        while idx != lead and (dep, idx) not in table:
            i = 0
            while idx[i] <= lead[i]:
                i += 1
            path.append((idx, i))
            idx = idx[:i] + (idx[i] - 1,) + idx[i + 1:]
        p = table.get((dep, idx))
        if p is None:
            p = table[(dep, idx)] = self.reduce(self.rules[k].rhs)
        for up, i in reversed(path):
            p = table[(dep, up)] = p.total(i, self._image)
        return p

    def _image(self, jet):
        """Normal form of a reducible jet, or None if no rule reduces it.

        Both answers are kept in the system's table, by jet, so a jet asked
        for again costs one lookup.
        """
        table = self._normal
        if jet in table:
            return table[jet]
        k = self.rule_for(jet)
        if k is None:
            table[jet] = None
            return None
        return self.prolonged_rhs(k, index_sub(jet[1], self.rules[k].lead[1]))

    def reduce(self, p: DiffPoly) -> DiffPoly:
        """Normal form: every reducible jet replaced by its image, at once.
        Every image is already a normal form, so one substitution is final."""
        images = {}
        for jet in p.jetvars():
            q = self._image(jet)
            if q is not None:
                images[jet] = q
        return p.substitute(images) if images else p

    def reduce_vector(self, v) -> VectorFunction:
        return as_vector(v).map(self.reduce)

    def restrict_op(self, op: CDiffOp) -> CDiffOp:
        """Reduce every coefficient to internal coordinates."""
        return op.map_coeffs(self.reduce)

    # -- derived operators ------------------------------------------------

    def linearization(self) -> CDiffOp:
        if self._lin is None:
            self._lin = linearize(self.originals, self.frame.physical)
        return self._lin

    def adjoint_linearization(self) -> CDiffOp:
        if self._lin_adj is None:
            self._lin_adj = self.linearization().adjoint()
        return self._lin_adj

    def is_evolution(self):
        """Index of the evolution direction, or None.

        Evolution form here means: one rule per physical dependent, every
        lead a first derivative in the same direction e, and no right-hand
        side containing any e-derivative.
        """
        phys = self.frame.physical
        if len(self.rules) != len(phys):
            return None
        if {r.lead[0] for r in self.rules} != set(phys):
            return None
        first = self.rules[0].lead[1]
        if sum(first) != 1:
            return None
        e = next(i for i, q in enumerate(first) if q)
        for rule in self.rules:
            idx = rule.lead[1]
            if sum(idx) != 1 or not idx[e]:
                return None
            if rule.rhs.involves_direction(e):
                return None
        return e

    # -- membership checks -------------------------------------------------

    def symmetry_residual(self, phi) -> VectorFunction:
        return self.reduce_vector(self.linearization().apply(as_vector(phi)))

    def genfn_residual(self, psi) -> VectorFunction:
        return self.reduce_vector(self.adjoint_linearization().apply(as_vector(psi)))

    # -- factoring through the equation -------------------------------------

    def factor_through_f(self, g) -> CDiffOp:
        """Find the operator Delta with g = Delta(F) modulo higher F-degree.

        Each row is reduced on the system's tagged twin, the system of the
        equations F_k = T_k solved by ``solve_for`` for the same leads, where
        T_k is the jet of the dependent -1 - k, which no rule reduces and no
        frame uses.  Every rewrite there is an identity once the jet
        (-1 - k, tau) stands for D_tau(F_k).  The twin is built on first use
        and keeps its own table, so each tagged image is climbed once per
        system.  With at most one rule per dependent it is confluent and
        Delta is unique; otherwise Delta is still exact, up to identities
        among the equations.  With every F-jet set to zero, a row is the
        row's normal form on the system itself, which is unique because the
        system is passive.  Every row must vanish there; else NotOnEquation
        carries every row at F = 0, so a caller that also needs the normal
        form of g does not reduce it again.  The entry (comp, k, tau) of
        Delta is the partial derivative of the row by the F-jet
        (-1 - k, tau), taken at F = 0, so the terms of F-degree 2 and more
        drop out.  The row is a normal form, so every entry is one too.
        """
        n = self.frame.n
        twin = self._twin
        if twin is None:
            zero = (0,) * n
            tagged = VectorFunction(f - DiffPoly.jet(n, -1 - k, zero)
                                    for k, f in enumerate(self.originals))
            rules = [solve_for(k, f, r.lead)
                     for k, (f, r) in enumerate(zip(tagged, self.rules))]
            twin = self._twin = EquationSystem(self.frame, tagged, rules, self.ranking)
        g = as_vector(g)
        rows, entries = [], {}
        for comp, p in enumerate(g):
            p = twin.reduce(p)
            zeros = {v: DiffPoly.zero(n) for v in p.jetvars() if v[0] < 0}
            rows.append(p.substitute(zeros))
            for v in zeros:
                entries[(comp, -1 - v[0], v[1])] = p.partial(v).substitute(zeros)
        if any(rows):
            raise NotOnEquation(VectorFunction(rows))
        return CDiffOp(n, len(g), len(self.rules), entries)


def solve_for(k, f, lead) -> Rule:
    """Equation ``f`` (number ``k`` in messages) solved for the jet ``lead``.

    This is the one place where an equation is solved for its lead: every
    rule of a system, its tagged twin or a joint constraint system comes
    from here.  The lead must occur linearly with a nonzero constant
    coefficient ``scale = ∂f/∂lead``, which keeps solved forms polynomial
    (no division by jet expressions); then ``f = scale * (lead - rhs)``
    with ``rhs = lead - f/scale``, which never contains the lead.  The
    rule's ``rhs`` is not yet normalised against other rules; ``seal``
    does that.
    """
    scale = f.partial(lead).const_value()
    if not scale:
        raise NonOrthonomic(
            f"equation {k}: lead must occur linearly with constant coefficient"
        )
    return Rule(lead, DiffPoly.jet(f.n, lead[0], lead[1]) - f * Fraction(1, scale))


def _numbered(ks) -> str:
    """Equations named by their numbers: "equation 3", "equations 2 and 3"."""
    return ("equation " if len(ks) == 1 else "equations ") + " and ".join(map(str, ks))


def seal(frame, originals, rules, ranking, name=_numbered) -> EquationSystem:
    """Check solved rules and build the system they form.

    ``rules[k]`` is ``originals[k]`` solved by ``solve_for``.  Every lead
    must be ranking-maximal in its rule and no lead may be a prolongation
    of another lead of the same dependent (NonOrthonomic).
    Right-hand sides are then brought to normal form in one pass:
    ``reduce`` leaves no reducible jet, and which jets are reducible
    depends on the leads alone, so the rebuilt system's rules are already
    normal.  Last, the system is checked for passivity (PassivityFailure):
    by Riquier's criterion, an autoreduced orthonomic system under a
    ranking compatible with differentiation is passive if and only if, for
    every two rules of one dependent, the integrability condition at the
    lcm of their leads reduces to zero (Riquier 1910; Reid, Wittkopf and
    Boulton, Eur. J. Appl. Math. 7, 1996).  So one check per pair is exact.

    Messages name rules by ``name``, which maps a tuple of rule numbers,
    all of one dependent's rules, to text.
    """
    for k, rule in enumerate(rules):
        if ranking.max_jet(rule.rhs.jetvars() | {rule.lead}) != rule.lead:
            raise NonOrthonomic(
                f"{name((k,))}: lead is not ranking-maximal in its solved form"
            )
    for a in range(len(rules)):
        for b in range(len(rules)):
            if a != b and rules[a].lead[0] == rules[b].lead[0]:
                if index_le(rules[a].lead[1], rules[b].lead[1]):
                    raise NonOrthonomic(
                        f"lead of {name((b,))} is a prolongation of {name((a,))}'s"
                    )

    system = EquationSystem(frame, originals, rules, ranking)
    normal = [system.reduce(r.rhs) for r in rules]
    if any(p != r.rhs for p, r in zip(normal, rules)):
        rules = [Rule(r.lead, p) for r, p in zip(rules, normal)]
        system = EquationSystem(frame, originals, rules, ranking)
    _check_passivity(system, name)
    return system


def make_system(frame, originals, solved, ranking) -> EquationSystem:
    """Validate a solved form against the original equations and build a system.

    ``solved`` is a list of (lead jet, rhs) pairs, one per component of
    ``originals``; each F_k must equal scale * (lead_k - rhs_k) for a
    nonzero rational scale.  The rules are then sealed by ``seal``.
    """
    originals = as_vector(originals)
    if len(solved) != len(originals):
        raise MismatchedSolvedForm(
            f"{len(originals)} equations but {len(solved)} solved forms"
        )
    rules = []
    for k, (lead, rhs) in enumerate(solved):
        rule = solve_for(k, originals[k], (lead[0], tuple(lead[1])))
        if rule.rhs != rhs:
            raise MismatchedSolvedForm(
                f"equation {k}: F != scale*(lead - rhs) for the given solved form"
            )
        rules.append(rule)
    return seal(frame, originals, rules, ranking)


def _check_passivity(system: EquationSystem, name):
    """The integrability condition of every two rules of one dependent, at
    the lcm of their leads, reduces to zero (else PassivityFailure, naming
    the rules by ``name``)."""
    rules = system.rules
    run = current_run()
    for a in range(len(rules)):
        for b in range(a + 1, len(rules)):
            if rules[a].lead[0] != rules[b].lead[0]:
                continue
            la, lb = rules[a].lead[1], rules[b].lead[1]
            lcm = tuple(max(p, q) for p, q in zip(la, lb))
            residual = (
                system.reduce(run.total(rules[a].rhs, index_sub(lcm, la)))
                - system.reduce(run.total(rules[b].rhs, index_sub(lcm, lb)))
            )
            if not residual.is_zero():
                raise PassivityFailure(
                    system.frame, name((a, b)), (rules[a].lead[0], lcm), residual)


def solve_orthonomic(frame, originals, ranking) -> EquationSystem:
    """Solve each equation for its ranking-maximal jet and build the system."""
    originals = as_vector(originals)
    rules = []
    for k, f_k in enumerate(originals):
        jets = f_k.jetvars()
        if not jets:
            raise NonOrthonomic(f"equation {k} contains no jet variables")
        rules.append(solve_for(k, f_k, ranking.max_jet(jets)))
    return seal(frame, originals, rules, ranking)


# -- conservation laws ---------------------------------------------------


def make_genfn(system: EquationSystem, psi) -> VectorFunction:
    """psi as a vector if it is a generating function on system, else NotAGenFn."""
    psi = as_vector(psi)
    residual = system.genfn_residual(psi)
    if not residual.is_zero():
        raise NotAGenFn(residual)
    return psi


class ConservedCurrent:
    """One density per independent variable, with vanishing total divergence."""

    __slots__ = ("home", "components")

    def __init__(self, home: EquationSystem, components: VectorFunction):
        self.home = home
        self.components = components

    def divergence(self) -> DiffPoly:
        acc = DiffPoly.zero(self.components.n)
        for i, s in enumerate(self.components):
            acc = acc + s.total(i)
        return acc


def make_current(system: EquationSystem, components) -> ConservedCurrent:
    components = as_vector(components)
    if len(components) != system.frame.n:
        raise DimensionMismatch("need one current component per independent variable")
    current = ConservedCurrent(system, components)
    if not system.reduce(current.divergence()).is_zero():
        raise NotConserved("total divergence does not vanish on the equation")
    return current


def current_to_genfn(system: EquationSystem, current) -> VectorFunction:
    """Generating function of a conserved current: adjoint factor applied to 1."""
    if not isinstance(current, ConservedCurrent):
        current = make_current(system, current)
    delta = system.factor_through_f(current.divergence())
    ones = VectorFunction([DiffPoly.const(system.frame.n, 1)])
    psi = system.reduce_vector(delta.adjoint().apply(ones))
    return make_genfn(system, psi)
