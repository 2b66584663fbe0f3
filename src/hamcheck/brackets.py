"""Variational bivectors and trivectors: certification, Schouten bracket,
Poisson brackets and Magri relations.

A hierarchy is a plain sequence of vectors: ``magri_defects`` is the one
check of the relations A1(psi_i) = A2(psi_{i+1}) between its entries,
and ``poisson`` checks that its own arguments are generating functions.

Multivectors are represented directly as multilinear operators evaluated
on formal argument dependents; skew symmetry enters through explicit
signed symmetrization, so the whole kernel stays commutative.  The
certification identity theta = l_E o A - A* o l*_E is likewise built on
formal arguments q, as theta(q) by application: certifying a bivector
composes no operator.
"""

from __future__ import annotations

import itertools

from .frame import Frame
from .ops import CDiffOp, DimensionMismatch, linearize
from .poly import (
    DiffPoly,
    VectorFunction,
    _guarded,
    as_vector,
    euler,
    formal_vector,
)
from .render import poly_text
from .systems import (
    EquationSystem,
    HamcheckError,
    NonOrthonomic,
    NotOnEquation,
    PassivityFailure,
    Rule,
    seal,
    solve_for,
)


class NotABivector(HamcheckError):
    def __init__(self, residual: CDiffOp):
        self.residual = residual
        super().__init__("operator fails the bivector condition on this system")


class ConstraintNotOrthonomic(HamcheckError):
    pass


class Bivector:
    """Operator certified against a system, with its extracted remainder.

    ``b_op`` carries the bilinear remainder of the certification identity,
    written as an operator in the first slot whose coefficients are linear
    in the formal dependents ``b_args`` (the second slot).  ``b_star``
    takes its adjoint on each call: few bivectors are bracketed twice.
    """

    __slots__ = ("home", "op", "b_op", "b_args")

    def __init__(self, home: EquationSystem, op: CDiffOp, b_op: CDiffOp,
                 b_args: tuple):
        self.home = home
        self.op = op
        self.b_op = b_op
        self.b_args = b_args

    def b_star(self, psi1: VectorFunction, psi2_args) -> VectorFunction:
        """Remainder adjoint in the first slot, evaluated at two argument blocks.

        ``psi2_args`` are dependent indices substituted for the stored
        formal slot; ``psi1`` is the vector the adjoint acts on.
        """
        relabel = {a: b for a, b in zip(self.b_args, psi2_args)}
        adj = self.b_op.adjoint().map_coeffs(lambda p: p.relabel_deps(relabel))
        return self.home.reduce_vector(adj.apply(psi1))


def _theta(system: EquationSystem, op: CDiffOp) -> tuple:
    """The certification identity theta = l_E o A - A* o l*_E, applied to
    fresh formal arguments q: theta(q) = l_E(A(q)) - A*(l*_E(q)), unreduced.

    It is built by application, so no operator is composed.  Returns
    theta(q) with the extended frame and the ids of q.  theta(q) is linear
    in the jets of q and reduction fixes those jets, so linearizing its
    reduced entries along q gives the reduced theta: the bivector residual.
    Factored through the equation, theta(q) yields the bilinear remainder,
    and its rows at F = 0 are those reduced entries.
    """
    lin = system.linearization()
    if op.rows != lin.cols or op.cols != lin.rows:
        raise DimensionMismatch(
            f"operator must be {lin.cols}x{lin.rows} on this system"
        )
    names = system.frame.fresh_names("q", len(system.rules))
    frame, args = system.frame.extend(names, formal=True)
    q = formal_vector(system.frame.n, args)
    theta_q = (lin.apply(op.apply(q))
               - op.adjoint().apply(system.adjoint_linearization().apply(q)))
    return theta_q, frame, args


def bivector_residual(system: EquationSystem, op: CDiffOp) -> CDiffOp:
    """Reduced defect of the bivector condition; zero iff the condition holds.

    theta(q) is reduced on the system itself: a reference for the residual
    that ``certify_bivector`` reads off the tagged twin.
    """
    theta_q, _, args = _theta(system, op)
    return linearize(theta_q.map(system.reduce), args)


def certify_bivector(system: EquationSystem, op: CDiffOp) -> Bivector:
    """Certify the bivector condition and extract the bilinear remainder.

    Both come from one theta(q), built on formal arguments q by application
    and reduced once, on the system's tagged twin: the remainder is its
    factorization through the equation.  When theta(q) does not vanish on
    the equation, the rows of ``NotOnEquation`` are its reduced entries
    (the twin's normal forms at F = 0 are the system's), and NotABivector
    carries them linearized along q: the nonzero reduced residual.
    """
    theta_q, _, args = _theta(system, op)
    try:
        b_op = system.factor_through_f(theta_q)
    except NotOnEquation as exc:
        raise NotABivector(linearize(exc.rows, args)) from None
    return Bivector(system, op, b_op, args)


class TrivectorRep:
    """Bilinear map (psi1, psi2) -> vector, stored on an extended frame."""

    __slots__ = ("frame", "arg1", "arg2", "entries")

    def __init__(self, frame: Frame, arg1: tuple, arg2: tuple,
                 entries: VectorFunction):
        self.frame = frame
        self.arg1 = arg1
        self.arg2 = arg2
        self.entries = entries

    def evaluate(self, psi1, psi2) -> VectorFunction:
        values = dict(zip(self.arg1, as_vector(psi1)))
        values.update(zip(self.arg2, as_vector(psi2)))
        return self.entries.map(lambda p: p.subst_deps(values))


class TrivialityVerdict:
    """Outcome of a skew-density triviality test.

    ``exact`` marks the free-jet test (complete); otherwise a zero verdict
    is trusted but a residual does not by itself refute triviality.
    """

    __slots__ = ("zero", "exact", "frame", "residual", "residual_dep")

    def __init__(self, zero: bool, exact: bool, frame: Frame,
                 residual: DiffPoly = None, residual_dep: int = None):
        self.zero = zero
        self.exact = exact
        self.frame = frame
        self.residual = residual
        self.residual_dep = residual_dep


def schouten(system: EquationSystem, b1: Bivector, b2: Bivector) -> TrivectorRep:
    """Variational Schouten bracket of two certified bivectors.

    Evaluates the six-term formula on two fresh formal argument blocks.
    Each of the four images A_i(psi_j) is built once: it is an argument
    of one term and, linearized along the physical dependents, the
    operator l_{A_i,psi_j} = l_{A_i(psi_j)} - A_i o l_{psi_j} of another
    (psi_j is formal, so l_{psi_j} vanishes there).  When ``b1 is b2`` the
    six terms are three equal pairs, so two images are built, three terms
    are evaluated and their sum doubled.  The remainder terms always come
    from the certified factorization: on evolution systems with skew
    operators this agrees with taking the adjoint of the argument
    linearization directly, but the factorization stays correct for
    non-skew representatives as well.
    """
    if b1.home is not system or b2.home is not system:
        raise HamcheckError("bivectors must be certified on the given system")
    l = len(system.rules)
    n = system.frame.n
    names1 = system.frame.fresh_names("p", 2 * l)
    frame_ext, ids = system.frame.extend(names1, formal=True)
    a1_ids, a2_ids = ids[:l], ids[l:]
    psi1 = formal_vector(n, a1_ids)
    psi2 = formal_vector(n, a2_ids)

    a1, a2 = b1.op, b2.op
    phys = system.frame.physical
    a1_psi1, a1_psi2 = a1.apply(psi1), a1.apply(psi2)
    if b1 is b2:
        a2_psi1, a2_psi2 = a1_psi1, a1_psi2
    else:
        a2_psi1, a2_psi2 = a2.apply(psi1), a2.apply(psi2)
    terms = [
        linearize(a1_psi1, phys).apply(a2_psi2),
        -linearize(a1_psi2, phys).apply(a2_psi1),
        -a1.apply(b2.b_star(psi1, a2_ids)),
    ]
    if b1 is not b2:
        terms += [
            linearize(a2_psi1, phys).apply(a1_psi2),
            -linearize(a2_psi2, phys).apply(a1_psi1),
            -a2.apply(b1.b_star(psi1, a2_ids)),
        ]
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    if b1 is b2:
        total = 2 * total
    total = system.reduce_vector(total)
    return TrivectorRep(frame_ext, a1_ids, a2_ids, total)


def _signed_symmetrization(density: DiffPoly, blocks) -> DiffPoly:
    """Sum of sgn(pi) * density with argument blocks permuted by pi, added
    into one term dict."""
    k = len(blocks)
    res = {}
    get = res.get
    for perm in itertools.permutations(range(k)):
        # the sign is the parity of the number of inversions
        odd = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k)) % 2
        mapping = {}
        for i in range(k):
            for a, b in zip(blocks[i], blocks[perm[i]]):
                mapping[a] = b
        for m, c in density.relabel_deps(mapping).terms.items():
            res[m] = get(m, 0) - c if odd else get(m, 0) + c
    return _guarded(density.n, res)


_ORDINALS = ("first", "second", "third")


def constraint_system(system: EquationSystem, frame_ext: Frame, blocks):
    """Joint rewrite system: the system's rules, then block by block the
    rows of l*_E(p) = 0 on each argument block p, each solved for its
    maximal argument jet.  ConstraintNotOrthonomic if it cannot be built or
    is not passive.  It is built for each verdict and not kept: few
    verdicts share one.

    Only the first block is solved; every other block's rows and rules are
    the first block's, relabeled slot for slot.  That is exact: the
    coefficients of l*_E are physical, and ``Ranking.key`` breaks ties by
    dependent index, so it orders the jets of one block, and those against
    the physical jets, alike in every block (the blocks are fresh slots
    from ``Frame.extend``: each ascends, above every physical dependent).
    So ``max_jet`` picks the corresponding lead in each block, and the
    relabeled rules are those that solving each block would give, in the
    same order.  Hence permuting the blocks maps the joint system onto
    itself, rule for rule, which ``skew_density_verdict`` relies on.

    Messages name the joint equations, and the constraint row that cannot
    be solved, as a reader of the input finds them: the system's own
    equations, or the constraints on an argument.
    """
    n = system.frame.n
    lstar = system.restrict_op(system.adjoint_linearization())
    first = tuple(blocks[0])
    l, rows = len(system.rules), lstar.rows

    def name(ks):
        s = "s" if len(ks) > 1 else ""
        if ks[0] < l:
            return f"the system's equation{s} " + " and ".join(map(str, ks))
        b = (ks[0] - l) // rows
        which = _ORDINALS[b] if b < len(_ORDINALS) else f"{b + 1}th"
        slots = ", ".join(frame_ext.dependents[j] for j in blocks[b])
        nums = " and ".join(str((k - l) % rows) for k in ks)
        return f"constraint{s} {nums} on the {which} argument ({slots})"

    solved = []
    for row in lstar.apply(formal_vector(n, first)):
        k = l + len(solved)
        jets = [v for v in row.jetvars() if v[0] in first]
        if not jets:
            raise ConstraintNotOrthonomic(f"{name((k,))} contains no argument jets")
        try:
            rule = solve_for(k, row, system.ranking.max_jet(jets))
        except NonOrthonomic:
            raise ConstraintNotOrthonomic(
                f"{name((k,))} cannot be solved for its maximal argument jet"
            ) from None
        solved.append((row, rule))
    originals = list(system.originals)
    rules = list(system.rules)
    for ids in blocks:
        relabel = dict(zip(first, ids))
        for row, rule in solved:
            rhs = rule.rhs.relabel_deps(relabel)
            originals.append(row.relabel_deps(relabel))
            rules.append(Rule((relabel[rule.lead[0]], rule.lead[1]), rhs, rhs,
                              rule.scale))
    try:
        return seal(frame_ext, as_vector(originals), rules, system.ranking, name)
    except NonOrthonomic as exc:
        raise ConstraintNotOrthonomic(str(exc)) from exc
    except PassivityFailure as exc:
        raise ConstraintNotOrthonomic(
            "the joint system of the equation and the argument constraints is "
            f"not passive, so the bracket is not decided ({exc})"
        ) from exc


def euler_residuals(frame: Frame, density: DiffPoly) -> VectorFunction:
    """Euler derivatives with respect to every dependent, physical and formal."""
    return euler(frame, density, deps=tuple(range(frame.m)))


def _pick_residual(frame: Frame, residuals: VectorFunction):
    """Deterministic choice of the smallest nonzero component."""
    nonzero = [
        (len(p.terms), poly_text(frame, p), dep, p)
        for dep, p in enumerate(residuals)
        if not p.is_zero()
    ]
    if not nonzero:
        return None
    nonzero.sort(key=lambda t: (t[0], t[1]))
    _, _, dep, p = nonzero[0]
    return dep, p


def skew_density_verdict(
    system: EquationSystem, frame_ext: Frame, density: DiffPoly, blocks
) -> TrivialityVerdict:
    """Decide whether the signed symmetrization of ``density`` over the
    argument blocks, its skew density, is a trivial functional.

    On an evolution system whose skew density avoids the evolution
    direction the free-jet Euler test of the skew density is exact.
    Otherwise ``density`` is reduced modulo the equation together with the
    orthonomized argument constraints, the normal form is symmetrized, and
    a zero verdict of the Euler test is a sound semi-decision.  Reducing
    before symmetrizing gives the same polynomial as reducing the skew
    density: permuting the blocks maps the joint system onto itself, rule
    for rule (see ``constraint_system``), so reduction commutes with
    every block relabeling, and reduce(skew(density)) ==
    skew(reduce(density)).  It is cheaper: the unsymmetrized density has a
    fraction of the skew density's terms, and its normal form is often 0.
    """
    e = system.is_evolution()
    skew = None if e is None else _signed_symmetrization(density, blocks)
    exact = skew is not None and not skew.involves_direction(e)
    if not exact:
        density = constraint_system(system, frame_ext, blocks).reduce(density)
        skew = _signed_symmetrization(density, blocks)
    picked = _pick_residual(frame_ext, euler_residuals(frame_ext, skew))
    if picked is None:
        return TrivialityVerdict(True, exact, frame_ext)
    return TrivialityVerdict(False, exact, frame_ext, picked[1], picked[0])


def skew_pairing_verdict(
    system: EquationSystem, frame_ext: Frame, image: VectorFunction, blocks
) -> TrivialityVerdict:
    """Triviality test of the pairing sum_k q_k * image[k], where q is the
    last argument block, signed-symmetrized over all the blocks.  The
    pairing goes to the test unsymmetrized, so that the constrained path
    reduces it before symmetrizing."""
    n = system.frame.n
    density = DiffPoly.zero(n)
    for k, q in enumerate(blocks[-1]):
        density = density + DiffPoly.jet(n, q, (0,) * n) * image[k]
    return skew_density_verdict(system, frame_ext, density, blocks)


def is_zero_trivector(system: EquationSystem, tri: TrivectorRep) -> TrivialityVerdict:
    """Zero test for a trivector: the triviality test of its pairing with a
    third argument block, skew-symmetrized over the three blocks."""
    l = len(system.rules)
    if len(tri.entries) != l:
        raise DimensionMismatch("trivector arity does not match the system")
    names = tri.frame.fresh_names("r", l)
    frame3, ids3 = tri.frame.extend(names, formal=True)
    return skew_pairing_verdict(
        system, frame3, tri.entries, (tri.arg1, tri.arg2, ids3)
    )


def is_hamiltonian(system: EquationSystem, op: CDiffOp) -> bool:
    """Bivector condition plus vanishing self-bracket."""
    try:
        biv = certify_bivector(system, op)
    except NotABivector:
        return False
    return is_zero_trivector(system, schouten(system, biv, biv)).zero


def poisson(system: EquationSystem, biv: Bivector, psi1, psi2) -> VectorFunction:
    """Poisson bracket of two generating functions under a Hamiltonian operator."""
    for psi in (psi1, psi2):
        residual = system.genfn_residual(psi)
        if not residual.is_zero():
            raise HamcheckError("poisson arguments must be generating functions")
    flow = system.reduce_vector(biv.op.apply(psi1))
    delta = system.factor_through_f(system.linearization().apply(flow))
    out = linearize(psi2, system.frame.physical).apply(flow)
    out = system.reduce_vector(out + delta.adjoint().apply(psi2))
    residual = system.genfn_residual(out)
    if not residual.is_zero():
        raise HamcheckError("poisson bracket failed to close on generating functions")
    return out


def magri_defects(system, b1: Bivector, b2: Bivector, vecs) -> list:
    """Reduced defects A1(psi_i) - A2(psi_{i+1}) for adjacent entries."""
    return [
        system.reduce_vector(b1.op.apply(a) - b2.op.apply(b))
        for a, b in zip(vecs, vecs[1:])
    ]
