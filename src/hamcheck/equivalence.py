"""Operator equivalence between two embeddings of one equation.

Six connecting operators relate the linearizations of the two embeddings;
when the four defining relations hold, bivectors transport between the
embeddings by composing with the connectors and their adjoints.
"""

from __future__ import annotations

from .brackets import Bivector, TrivialityVerdict, skew_pairing_verdict
from .ops import CDiffOp, DimensionMismatch
from .poly import formal_vector
from .systems import EquationSystem, HamcheckError


class EquivalenceData:
    """Connecting operators between two embeddings of one equation.

    ``e1`` is the smaller embedding; its dependents must be an initial
    segment of ``e2``'s so that operators compose across the two frames.
    """

    __slots__ = ("e1", "e2", "alpha", "alpha_p", "beta", "beta_p", "s1", "s2")

    def __init__(self, e1: EquationSystem, e2: EquationSystem, alpha: CDiffOp,
                 alpha_p: CDiffOp, beta: CDiffOp, beta_p: CDiffOp,
                 s1: CDiffOp, s2: CDiffOp):
        f1, f2 = e1.frame, e2.frame
        if f1.independents != f2.independents:
            raise DimensionMismatch("embeddings must share independent variables")
        if f2.dependents[: f1.m] != f1.dependents:
            raise DimensionMismatch(
                "first embedding's dependents must be an initial segment of the second's"
            )
        m1, l1 = f1.m, len(e1.rules)
        m2, l2 = f2.m, len(e2.rules)
        shapes = {
            "alpha": (alpha, m2, m1),
            "alpha'": (alpha_p, l2, l1),
            "beta": (beta, m1, m2),
            "beta'": (beta_p, l1, l2),
            "s1": (s1, m1, l1),
            "s2": (s2, m2, l2),
        }
        for name, (op, rows, cols) in shapes.items():
            if (op.rows, op.cols) != (rows, cols):
                raise DimensionMismatch(
                    f"{name} must be {rows}x{cols}, got {op.rows}x{op.cols}"
                )
        self.e1 = e1
        self.e2 = e2
        self.alpha = alpha
        self.alpha_p = alpha_p
        self.beta = beta
        self.beta_p = beta_p
        self.s1 = s1
        self.s2 = s2


def equivalence_residuals(data: EquivalenceData) -> dict:
    """Reduced defects of the four connection relations, keyed by relation.

    Coefficients are reduced on the second embedding, whose coordinates
    contain the first's.
    """
    l1 = data.e1.restrict_op(data.e1.linearization())
    l2 = data.e2.restrict_op(data.e2.linearization())
    red = data.e2.restrict_op
    n = data.e1.frame.n
    rels = {
        "l1*beta = beta'*l2": l1.compose(data.beta) - data.beta_p.compose(l2),
        "l2*alpha = alpha'*l1": l2.compose(data.alpha) - data.alpha_p.compose(l1),
        "beta*alpha = id + s1*l1": data.beta.compose(data.alpha)
        - CDiffOp.identity(n, data.e1.frame.m)
        - data.s1.compose(l1),
        "alpha*beta = id + s2*l2": data.alpha.compose(data.beta)
        - CDiffOp.identity(n, data.e2.frame.m)
        - data.s2.compose(l2),
    }
    return {name: red(op) for name, op in rels.items()}


def _extra_dependent_values(data: EquivalenceData):
    """Express the second embedding's extra dependents through the first's.

    On the equation the larger embedding's dependent vector is the image
    of the smaller one under alpha (e.g. v = u_x, w = u_xx for the
    first-order form of a scalar equation); those rows let coefficients of
    back-transported operators be rewritten in the target coordinates.
    """
    f1 = data.e1.frame
    n = f1.n
    base = formal_vector(n, range(f1.m))
    image = data.e1.reduce_vector(data.alpha.apply(base))
    values = {}
    for j in range(f1.m, data.e2.frame.m):
        value = image[j]
        if any(d >= f1.m for d in value.deps()):
            raise HamcheckError(
                "alpha does not express the extra dependents through the "
                "first embedding; cannot transport back"
            )
        values[j] = value
    return values


def transport(data: EquivalenceData, a, direction: str) -> CDiffOp:
    """Move a bivector operator between embeddings along the connectors.

    The result is reduced on the target system (for the backward direction
    this includes rewriting the extra dependents through the first
    embedding's coordinates); callers are expected to re-certify it there,
    since transported representatives agree with published ones only up to
    bivector equivalence.
    """
    op = a.op if isinstance(a, Bivector) else a
    if direction == "1->2":
        out = data.alpha.compose(op).compose(data.alpha_p.adjoint())
        return data.e2.restrict_op(out)
    if direction == "2->1":
        out = data.beta.compose(op).compose(data.beta_p.adjoint())
        m1 = data.e1.frame.m
        if any(d >= m1 for (_, _, _s), c in out.entries.items() for d in c.deps()):
            values = _extra_dependent_values(data)
            out = out.map_coeffs(lambda p: p.subst_deps(values))
        return data.e1.restrict_op(out)
    raise ValueError(f"direction must be '1->2' or '2->1', got {direction!r}")


def equivalent_as_bivectors(system: EquationSystem, a1, a2) -> TrivialityVerdict:
    """Compare two bivector operators on one system up to trivial bivectors.

    The difference is paired skew-symmetrically against two formal argument
    blocks and run through the constrained triviality test; a zero verdict
    is trusted, a residual is reported as a finding.
    """
    op1 = a1.op if isinstance(a1, Bivector) else a1
    op2 = a2.op if isinstance(a2, Bivector) else a2
    if (op1.rows, op1.cols) != (op2.rows, op2.cols):
        raise DimensionMismatch("cannot compare operators of different shapes")
    diff = op1 - op2
    l = len(system.rules)
    n = system.frame.n
    names = system.frame.fresh_names("p", 2 * l)
    frame_ext, ids = system.frame.extend(names, formal=True)
    b1_ids, b2_ids = ids[:l], ids[l:]
    image = diff.apply(formal_vector(n, b1_ids))
    return skew_pairing_verdict(system, frame_ext, image, (b1_ids, b2_ids))
