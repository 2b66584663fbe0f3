"""Deformation of a bi-Hamiltonian system by adjoint constraints.

Given certified operators A1, A2 on F = 0, the deformed system couples
fresh dependents w through F + A1*(w) = 0, A2*(w) = 0.  The deformed
system carries block bivectors assembled from A1, A2 and the adjoint of
the linearization of F + A1*(w) + A2*(w), and Magri hierarchies lift to
it entrywise.

A hierarchy is a list of plain vectors.  ``lift_hierarchy`` checks each
entry and each base Magri relation once, finds the flow of the base
evolution once, and reports per lifted entry what the lifting theorem
claims: a generating function, a Magri relation of the block operators,
and a conserved pairing.
"""

from __future__ import annotations

from .brackets import (
    Bivector,
    certify_bivector,
    euler_residuals,
    magri_defects,
)
from .ops import CDiffOp, linearize
from .poly import DiffPoly, VectorFunction, as_vector, formal_vector
from .systems import (
    EquationSystem,
    HamcheckError,
    make_genfn,
    solve_orthonomic,
)


class NeedSuccessor(HamcheckError):
    pass


class MagriPrecondition(HamcheckError):
    pass


class DeformedSystem:
    """Deformed system with its assembled block bivectors."""

    __slots__ = ("base", "a1", "a2", "system", "w_ids", "constraint",
                 "a1_til", "a2_til")

    def __init__(self, base: EquationSystem, a1: Bivector, a2: Bivector,
                 system: EquationSystem, w_ids: tuple, constraint: VectorFunction,
                 a1_til: Bivector, a2_til: Bivector):
        self.base = base
        self.a1 = a1
        self.a2 = a2
        self.system = system
        self.w_ids = w_ids
        self.constraint = constraint  # A2*(w), the added equations
        self.a1_til = a1_til
        self.a2_til = a2_til


def deform(base: EquationSystem, a1: Bivector, a2: Bivector) -> DeformedSystem:
    """Build the deformed system and certify its block bivectors.

    The w dependents are physical unknowns of the new system.  The block
    operators are [[A1, -A1], [0, L]] and [[A2, -A2], [-L, 0]] where L is
    the adjoint of the linearization of F + A1*(w) + A2*(w) with respect
    to the original dependents; certification on the deformed system is
    the acceptance test for the construction.
    """
    if not isinstance(a1, Bivector) or not isinstance(a2, Bivector):
        raise HamcheckError("deform needs certified bivectors")
    if a1.home is not base or a2.home is not base:
        raise HamcheckError("bivectors must be certified on the base system")
    l = len(base.rules)
    m = base.frame.m
    if l != m:
        raise HamcheckError("deformation needs a square base system")
    frame0 = base.frame
    if l == 1 and "w" not in frame0.dependents and "w" not in frame0.independents:
        names = ("w",)
    else:
        names = frame0.fresh_names("w", l)
    frame, w_ids = frame0.extend(names, formal=False)
    n = frame.n

    wvec = formal_vector(n, w_ids)
    a1_star_w = a1.op.adjoint().apply(wvec)
    a2_star_w = a2.op.adjoint().apply(wvec)
    g = as_vector(base.originals) + a1_star_w
    h = a2_star_w
    theta = g + h
    originals = VectorFunction(list(g) + list(h))

    system = solve_orthonomic(frame, originals, base.ranking)

    lin_block = linearize(theta, frame0.physical).adjoint()
    zero = CDiffOp.zero(n, l, l)
    a1_til_op = CDiffOp.block([[a1.op, -a1.op], [zero, lin_block]])
    a2_til_op = CDiffOp.block([[a2.op, -a2.op], [-lin_block, zero]])
    a1_til = certify_bivector(system, a1_til_op)
    a2_til = certify_bivector(system, a2_til_op)
    return DeformedSystem(base, a1, a2, system, w_ids, h, a1_til, a2_til)


class LiftedChain:
    """Lifted hierarchy with the outcome of each check.

    ``conserved`` is None when the base is not an evolution system: the
    conservation check needs its flow, the other checks do not.
    """

    __slots__ = ("entries", "genfn_residuals", "magri_defects", "conserved")

    def __init__(self, entries: tuple, genfn_residuals: tuple,
                 magri_defects: tuple, conserved: tuple | None):
        self.entries = entries  # the pairs (psi_i, -psi_{i+1}) on the deformed system
        self.genfn_residuals = genfn_residuals  # one reduced residual vector per entry
        self.magri_defects = magri_defects
        self.conserved = conserved  # one verdict per base pair, or None

    @property
    def all_certified(self) -> bool:
        return (
            all(r.is_zero() for r in self.genfn_residuals)
            and all(d.is_zero() for d in self.magri_defects)
            and self.conserved is not None
            and all(self.conserved)
        )


def lift_hierarchy(deformed: DeformedSystem, vecs) -> LiftedChain:
    """Lift a Magri hierarchy of the base system to the deformed system as
    the pairs (psi_i, -psi_{i+1}).

    The base entries must be generating functions (NotAGenFn) satisfying
    the Magri relation (MagriPrecondition).  What the lifting theorem
    claims is reported per entry rather than raised, because the theorem
    carries unformalized technical assumptions.
    """
    base = deformed.base
    vecs = [make_genfn(base, v) for v in vecs]
    defects = magri_defects(base, deformed.a1, deformed.a2, vecs)
    if any(not d.is_zero() for d in defects):
        raise MagriPrecondition("adjacent entries do not satisfy the Magri relation")
    if not vecs:
        return LiftedChain((), (), (), ())
    if len(vecs) == 1:
        raise NeedSuccessor("lifting consumes psi_{i+1}; a lone entry has none")
    flow = _flow(deformed)
    system = deformed.system
    pairs = list(zip(vecs, vecs[1:]))
    entries = tuple(VectorFunction(list(a) + [-p for p in b]) for a, b in pairs)
    residuals = tuple(system.genfn_residual(v) for v in entries)
    defects = tuple(magri_defects(system, deformed.a1_til, deformed.a2_til, entries))
    conserved = None if flow is None else tuple(
        _conserved(deformed, flow, a, b) for a, b in pairs
    )
    return LiftedChain(entries, residuals, defects, conserved)


def _flow(deformed: DeformedSystem) -> VectorFunction | None:
    """Right-hand sides of the deformed evolution rules u_t = ... of the
    base dependents; None when the base is not an evolution system."""
    base = deformed.base
    e = base.is_evolution()
    if e is None:
        return None
    flow = []
    for dep in base.frame.physical:
        for rule in deformed.system.rules:
            if rule.lead[0] == dep and sum(rule.lead[1]) == 1 and rule.lead[1][e]:
                flow.append(rule.rhs)
                break
        else:
            raise HamcheckError("deformed system lost its evolution rules")
    return VectorFunction(flow)


def _conserved(deformed: DeformedSystem, flow, psi_i, psi_next) -> bool:
    """Conservation of a base Magri pair on the deformed system.

    Mechanizes the pairing chain of the conservation proof: the density
    <psi_i, flow> + <psi_{i+1}, A2*(w)> must have vanishing variational
    derivatives with respect to every dependent of the deformed system;
    the second summand vanishes on the deformed equation, so the flow
    pairing is a total divergence there.
    """
    system = deformed.system
    density = DiffPoly.zero(system.frame.n)
    for p, f in zip(psi_i, flow):
        density = density + p * f
    for p, c in zip(psi_next, deformed.constraint):
        density = density + p * c
    return euler_residuals(system.frame, density).is_zero()
