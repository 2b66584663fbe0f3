"""Matrix operators in total derivatives: composition, adjoint, linearization.

An operator is kept in right-normal form, a finite sum  a_sigma * D_sigma
per matrix entry with polynomial coefficients to the left of the
derivative monomials.  Equality of canonical forms is structural.

As in ``poly``, a result is made without the constructor: ``_op``
allocates the object with ``object.__new__`` and sets its four slots,
from entries that are already nonzero polynomials under distinct keys.
``CDiffOp.__init__`` takes only entries that nothing has checked yet,
with a rational or polynomial coefficient each, such as those of
``mult``, ``linearize`` and ``factor_through_f``: it checks every key's
range and drops the zero entries.
"""

from __future__ import annotations

from itertools import product
from math import comb, prod
from operator import add, sub

from .poly import (
    DiffPoly,
    VectorFunction,
    _guarded,
    as_vector,
    current_run,
    exact,
    mul_into,
)


class DimensionMismatch(ValueError):
    pass


_new = object.__new__


def _binom(sigma, rho) -> int:
    return prod(map(comb, sigma, rho))


def _sub_indices(sigma):
    """All multi-indices rho <= sigma, componentwise."""
    return product(*[range(s + 1) for s in sigma])


def _op(n, rows, cols, entries) -> "CDiffOp":
    """The ``CDiffOp`` of ``entries``, nonzero polynomials under distinct
    in-range keys, built without the constructor."""
    op = _new(CDiffOp)
    op.n = n
    op.rows = rows
    op.cols = cols
    op.entries = entries
    return op


class CDiffOp:
    """Matrix of total-derivative polynomials sum_sigma a_sigma D_sigma."""

    __slots__ = ("n", "rows", "cols", "entries")

    def __init__(self, n, rows, cols, entries=None):
        """``entries`` maps ``(row, col, sigma)`` to a polynomial or a
        rational; keys out of range raise and zero entries are dropped.
        The kernel's own results are made by ``_op``."""
        self.n = n
        self.rows = rows
        self.cols = cols
        clean = {}
        if entries:
            for (r, c, sigma), a in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise DimensionMismatch(f"entry ({r},{c}) outside {rows}x{cols}")
                if not isinstance(a, DiffPoly):
                    a = DiffPoly.const(n, a)
                if a:
                    clean[(r, c, tuple(sigma))] = a
        self.entries = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, n, rows=1, cols=1):
        return _op(n, rows, cols, {})

    @classmethod
    def identity(cls, n, size=1):
        one = DiffPoly.const(n, 1)
        zero = (0,) * n
        return _op(n, size, size, {(k, k, zero): one for k in range(size)})

    @classmethod
    def d(cls, n, i, power=1):
        """Scalar operator D_i^power."""
        sigma = tuple(power if k == i else 0 for k in range(n))
        return _op(n, 1, 1, {(0, 0, sigma): DiffPoly.const(n, 1)})

    @classmethod
    def mult(cls, p: DiffPoly):
        """Scalar multiplication operator by a polynomial."""
        return cls(p.n, 1, 1, {(0, 0, (0,) * p.n): p})

    @classmethod
    def block(cls, grid):
        """Assemble from a 2-D list of operator blocks (row-major)."""
        nrows = len(grid)
        ncols = len(grid[0])
        if any(len(row) != ncols for row in grid):
            raise DimensionMismatch("ragged block grid")
        n = grid[0][0].n
        row_sizes = [grid[r][0].rows for r in range(nrows)]
        col_sizes = [grid[0][c].cols for c in range(ncols)]
        for r in range(nrows):
            for c in range(ncols):
                b = grid[r][c]
                if b.rows != row_sizes[r] or b.cols != col_sizes[c]:
                    raise DimensionMismatch("inconsistent block shapes")
        entries = {}
        roff = [sum(row_sizes[:r]) for r in range(nrows)]
        coff = [sum(col_sizes[:c]) for c in range(ncols)]
        for r in range(nrows):
            for c in range(ncols):
                for (i, j, sigma), a in grid[r][c].entries.items():
                    entries[(roff[r] + i, coff[c] + j, sigma)] = a
        return _op(n, sum(row_sizes), sum(col_sizes), entries)

    # -- linear structure ---------------------------------------------

    def _check_same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other):
        return self._merge(other, add)

    def __sub__(self, other):
        return self._merge(other, sub)

    def _merge(self, other, op):
        """``op(self, other)`` for ``op`` in (add, sub), entry by entry.

        Each entry of other is merged by ``op`` into a copy of the terms of
        the same entry of self; an entry that cancels is dropped.
        """
        self._check_same_shape(other)
        n = self.n
        res = dict(self.entries)
        for key, b in other.entries.items():
            a = res.get(key)
            if a is None:
                res[key] = b if op is add else -b
                continue
            terms = dict(a.terms)
            get = terms.get
            for m, c in b.terms.items():
                terms[m] = op(get(m, 0), c)
            p = _guarded(n, terms)
            if p:
                res[key] = p
            else:
                del res[key]
        return _op(n, self.rows, self.cols, res)

    def __neg__(self):
        return _op(self.n, self.rows, self.cols, {k: -a for k, a in self.entries.items()})

    def __rmul__(self, c):
        c = exact(c)
        if not c:
            return CDiffOp.zero(self.n, self.rows, self.cols)
        return _op(self.n, self.rows, self.cols, {k: a * c for k, a in self.entries.items()})

    def __eq__(self, other):
        return (
            isinstance(other, CDiffOp)
            and (self.n, self.rows, self.cols) == (other.n, other.rows, other.cols)
            and self.entries == other.entries
        )

    def is_zero(self) -> bool:
        return not self.entries

    def __repr__(self):
        return f"CDiffOp({self.rows}x{self.cols}, {len(self.entries)} terms)"

    # -- queries -------------------------------------------------------

    def order(self) -> int:
        return max((sum(s) for (_, _, s) in self.entries), default=0)

    def as_poly(self):
        """The coefficient of a 1x1 operator of order 0, else None."""
        if (self.rows, self.cols) != (1, 1) or self.order() != 0:
            return None
        return self.entries.get((0, 0, (0,) * self.n), DiffPoly.zero(self.n))

    def map_coeffs(self, fn) -> "CDiffOp":
        # keys stay distinct, so there is nothing to merge: drop zero images
        res = {key: b for key, a in self.entries.items() if (b := fn(a))}
        return _op(self.n, self.rows, self.cols, res)

    # -- action, composition, adjoint ----------------------------------

    def apply(self, v) -> VectorFunction:
        v = as_vector(v)
        if len(v) != self.cols:
            raise DimensionMismatch(f"operator has {self.cols} columns, vector {len(v)}")
        total = current_run().total
        n = self.n
        out = [{} for _ in range(self.rows)]
        for (r, c, sigma), a in self.entries.items():
            mul_into(out[r], a, total(v[c], sigma))
        return VectorFunction([_guarded(n, terms) for terms in out])

    def compose(self, other: "CDiffOp") -> "CDiffOp":
        """Canonical form of self o other via the multinomial Leibniz rule."""
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        total = current_run().total
        res = {}
        for (r, k, sigma), a in self.entries.items():
            leibniz = [
                (rho, tuple(map(sub, sigma, rho)), _binom(sigma, rho))
                for rho in _sub_indices(sigma)
            ]
            for (k2, c, tau), b in other.entries.items():
                if k2 != k:
                    continue
                for rho, delta, coeff in leibniz:
                    terms = res.setdefault((r, c, tuple(map(add, rho, tau))), {})
                    mul_into(terms, a, total(b, delta), coeff)
        # an entry whose products cancel is dropped
        n = self.n
        res = {key: p for key, terms in res.items() if (p := _guarded(n, terms))}
        return _op(n, self.rows, other.cols, res)

    def adjoint(self) -> "CDiffOp":
        """Formal adjoint: entry (i,j) becomes sum (-1)^|s| D_s o a_(j,i,s)."""
        total = current_run().total
        res = {}
        for (r, c, sigma), a in self.entries.items():
            sign = -1 if sum(sigma) % 2 else 1
            for rho in _sub_indices(sigma):
                coeff = sign * _binom(sigma, rho)
                da = total(a, tuple(map(sub, sigma, rho)))
                terms = res.setdefault((c, r, rho), {})
                get = terms.get
                for m, q in da.terms.items():
                    terms[m] = get(m, 0) + q * coeff
        # an entry whose terms cancel is dropped
        n = self.n
        res = {key: p for key, terms in res.items() if (p := _guarded(n, terms))}
        return _op(n, self.cols, self.rows, res)


def linearize(f, deps) -> CDiffOp:
    """Linearization of a vector function with respect to the given dependents.

    Entry (i, j) is sum_sigma (df^i / du^j_sigma) D_sigma, so that applying
    the result to phi equals the evolutionary action of phi on f.
    """
    f = as_vector(f)
    deps = tuple(deps)
    col = {d: j for j, d in enumerate(deps)}
    entries = {}
    for i, p in enumerate(f):
        for v in p.jetvars():
            dep, idx = v
            if dep not in col:
                continue
            a = p.partial(v)
            if a:
                entries[(i, col[dep], idx)] = a
    return CDiffOp(f.n, len(f), len(deps), entries)
