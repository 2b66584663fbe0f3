"""Reference functions that no task of the checker calls, kept for the tests.

Each one computes, by a separate route, something that the package
computes in its own way; the tests compare the two.

- ``bivector_residual`` reduces theta(q) on the system itself, while
  ``certify_bivector`` reads the residual off the system's tagged twin.
- ``is_hamiltonian`` is the bivector condition plus a vanishing
  self-bracket, the steps that the ``hamiltonian`` task takes itself.
- ``evaluate`` substitutes two argument vectors into a trivector, which
  the kernel only ever pairs with a third formal block.
- ``make_current`` and ``current_to_genfn`` turn a conserved current into
  its generating function by factoring the divergence through the
  equation, while a lift checks conservation by the pairing chain.
"""

from hamcheck import (
    DiffPoly,
    DimensionMismatch,
    EquationSystem,
    HamcheckError,
    NotABivector,
    VectorFunction,
    as_vector,
    certify_bivector,
    is_zero_trivector,
    linearize,
    make_genfn,
    schouten,
)
from hamcheck import brackets


def bivector_residual(system: EquationSystem, op):
    """Reduced defect of the bivector condition; zero iff the condition holds."""
    theta_q, args = brackets._theta(system, op)
    return linearize(theta_q.map(system.reduce), args)


def is_hamiltonian(system: EquationSystem, op) -> bool:
    """Bivector condition plus vanishing self-bracket."""
    try:
        biv = certify_bivector(system, op)
    except NotABivector:
        return False
    return is_zero_trivector(system, schouten(system, biv, biv)).zero


def evaluate(tri, psi1, psi2) -> VectorFunction:
    """The trivector ``tri`` at two argument vectors."""
    values = dict(zip(tri.arg1, as_vector(psi1)))
    values.update(zip(tri.arg2, as_vector(psi2)))
    return tri.entries.map(lambda p: p.subst_deps(values))


class NotConserved(HamcheckError):
    pass


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
