"""hamcheck: exact verification of Hamiltonian structures for PDE systems.

The kernel works with exact rational arithmetic on sparse differential
polynomials over jet coordinates.  Equations are orthonomic rewrite
systems; operators in total derivatives are kept in canonical form, so
operator identities on an equation are decided coefficient by
coefficient after reduction.
"""

from .brackets import (
    Bivector,
    ConstraintNotOrthonomic,
    NotABivector,
    TrivectorRep,
    TrivialityVerdict,
    certify_bivector,
    is_zero_trivector,
    magri_defects,
    poisson,
    schouten,
)
from .deform import (
    DeformedSystem,
    LiftedChain,
    MagriPrecondition,
    NeedSuccessor,
    deform,
    lift_hierarchy,
)
from .equivalence import (
    EquivalenceData,
    equivalence_residuals,
    equivalent_as_bivectors,
    transport,
)
from .frame import Frame, Ranking
from .ops import CDiffOp, DimensionMismatch, linearize
from .poly import (
    DiffPoly,
    ExponentOverflow,
    VectorFunction,
    as_vector,
    euler,
    formal_vector,
)
from .systems import (
    EquationSystem,
    HamcheckError,
    MismatchedSolvedForm,
    NonOrthonomic,
    NotAGenFn,
    NotOnEquation,
    PassivityFailure,
    make_genfn,
    make_system,
    solve_orthonomic,
)

__version__ = "0.1.0"
