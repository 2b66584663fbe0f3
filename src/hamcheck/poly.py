"""Exact sparse differential polynomials in jet variables.

A monomial is one Python ``int``.  Every variable, a jet ``(dep, idx)``
or an explicit independent ``x_i`` (keyed by the ``int`` ``i``), has a
small id in a variable table, and the monomial keeps the exponent of
the variable with id ``k`` in the ``W``-bit field at bit ``W*k``.  The
empty monomial is ``0`` and the product of two monomials is their sum.
The top bit of each field is a guard bit: every stored exponent stays
below ``LIMIT = 2**(W - 1)``, so a sum of two stored monomials cannot
carry into the next field, and a result with a guard bit set raises
``ExponentOverflow`` instead of being stored.  Only this module knows
the encoding.

Tests and the sympy oracle read terms in the decoded view; no other
module of the package does.  ``decode`` gives a monomial of the active
table as a pair ``(jets, xexp)`` of a sorted tuple of ``((dep, idx),
exponent)`` jet factors and a tuple of exponents of the explicit
independent variables, ``DiffPoly.items`` yields terms in that form and
the constructor takes keys in it.  The canonical order of terms is
graded, then by jet factors, then by x exponents, highest first;
``DiffPoly.canonical_terms`` walks the terms in it, giving each term's
factors in order (x factors by index, then jets ascending).  It ranks
the jets that occur once per call and sorts by one ``int`` key per term,
with one field per ranked jet and per x_i under the degree, each as
narrow as the widest exponent allows; never by the packed monomials,
whose order depends on the order in which ids were given.

Three invariants hold for every value the kernel builds: no zero
coefficient is stored; no stored exponent reaches ``LIMIT``; and a
coefficient is an ``int`` when it is integral and otherwise a
``Fraction`` with denominator greater than 1, never a ``float``, so
integer work never reaches ``fractions``.  An id never changes meaning
in its table, so two values of one table are equal when their terms are.

Every builder of coefficients sets these up once per result, in
``_guarded``.  Its loops merge with no checks: ``get = res.get`` is bound
once, and each term is added by ``res[m] = get(m, 0) + c``.  A sum that
cancels so leaves a zero, and a ``Fraction`` sum may be integral.
``_guarded`` then drops the zeros in place, turns integral ``Fraction``s
into ``int``s, checks the exponent guard on the monomials that are left
and builds the ``DiffPoly``; a monomial past the limit whose terms cancel
does not raise.  ``mul_into`` is the one product loop: a sum of products,
such as an operator applied to a vector, fills one dict per result.

A result is made without the constructor: ``_poly`` allocates the object
with ``object.__new__`` and sets its three slots, so a small result pays
no keyword parsing and no ``__init__`` frame.  ``_guarded`` ends there,
and so do the builders whose terms need no cleaning (``zero``, ``const``,
``coord``, ``jet``, negation).  ``DiffPoly.__init__`` takes only input
from outside the kernel: decoded keys, which it encodes, merges the same
way and cleans in ``_guarded``.

Each outermost ``run_scope`` has a variable table of its own, and
builders called outside any run share one default table.  A table holds
the ids, their variables, the guard bit of every field given out, and
the raise map from which ``DiffPoly.total`` takes each jet's D_i-raised
jet and that jet's bit offset.  A run's table starts empty, so the ids
a run gives, and so the width of its monomials, depend on that run
alone, and no cost or report depends on what the process ran before.
It is released with the run and the last value built in it.  A raised
jet gets its id only when a result keeps it.

Every ``DiffPoly`` keeps the table it was built in and is read through
it: ``items``, ``canonical_terms`` and the structure queries never
convert.  An operation builds its result in the active table, the
run's or outside any run the default one, and reaches the table once
per call.  An operand of another table is re-encoded into it first, one
lookup per distinct variable, so a value built outside any run, such as
a library user's system, reads the same inside one, and a value built
in a run reads the same after it.  Negation and scaling keep their
operand's table, an operation that returns an operand unchanged returns
it in its own, and two values of different tables compare by their
decoded terms.  Only this module names a table.

Total derivatives D_sigma of a polynomial are taken by one routine,
``Run.total``.  The active ``Run`` takes plain D_sigma once per run
and lives as long as its outermost ``run_scope``: one
``runner.run_program``, or for the command line one file from parsing
to the last task.  ``run_scope`` makes it and the run's variable table
the active ones in ``contextvars`` variables and resets those on the
way out, so both are unreachable when the run ends.  The derivative
table holds each base polynomial's derivatives keyed by ``sigma``
alone, found by the base's ``id`` or, for a copy, by its value in the
run's variables, so ``apply``, ``compose``, ``adjoint``, ``subst_deps``
and the passivity check share what any of them took.  A builder called
outside a run gets a throwaway ``Run`` of its own, kept only while the
call lasts.  Restricted derivatives D̄_sigma, which depend on an
equation, are taken in a ``Run`` that each system owns, with the
system's image lookup; beside it the system keeps one table keyed by the
jet: each reducible jet's normal form, or None for an irreducible one.
A system drops these when its ``Run`` is ``stale``, made under another
variable table than the active one, checked once per ``reduce``, so a
system that outlives a run never serves the run's values in another.
Factoring reduces on a twin of the system, so it uses the twin's tables
and not the run's.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import reduce
from operator import itemgetter, mul, or_

from .frame import Frame

ONE = 1

W = 16  # a power of two: ``& -W`` rounds a bit index down to its field
LIMIT = 1 << (W - 1)
_FIELD = (1 << W) - 1

_new = object.__new__


class _VarTable:
    """The variables of one run, or of everything built outside runs.

    ``vars[k]`` is the variable with id k, ``ids`` maps it back, and
    ``guard`` holds the guard bit of every field given out.  Beside them,
    ``raised`` maps (k, i), for the jet with id k, to the jet D_i raises it
    to and that jet's bit offset, None until the jet has an id.  All four
    are only appended to (an offset only ever replaces a None), so an id
    and a raise step keep their meaning as long as the table lives.  They
    hold jets and ints, never a polynomial.
    """

    __slots__ = ("vars", "ids", "guard", "raised", "__weakref__")

    def __init__(self):
        self.vars = []
        self.ids = {}
        self.guard = 0
        self.raised = {}

    def id(self, v) -> int:
        """The id of the variable ``v``, given now if it has none."""
        k = self.ids.get(v)
        if k is None:
            k = self.ids[v] = len(self.vars)
            self.vars.append(v)
            self.guard |= 1 << (W * k + W - 1)
        return k


_TABLE = ContextVar("hamcheck_vars", default=_VarTable())
# The active variable table: the run's, or outside any run the default one.
var_table = _TABLE.get


class HamcheckError(Exception):
    """Base class for kernel errors."""


class ExponentOverflow(HamcheckError):
    def __init__(self):
        super().__init__(
            f"exponent limit exceeded: every exponent must stay below {LIMIT} (2^{W - 1})"
        )


def _fields(m: int):
    """(id, exponent) of every factor of the monomial ``m``, highest id
    first: each step takes the top field, at bit ``s``, whose exponent is
    all of ``m >> s``, so only occupied fields are visited."""
    while m:
        s = (m.bit_length() - 1) & -W
        e = m >> s
        m -= e << s
        yield s // W, e


def _guarded(n: int, res: dict, vt=None) -> "DiffPoly":
    """The polynomial of the term dict ``res``, which it cleans in place.

    Every coefficient builder ends here, once per result.  ``res`` maps
    sums of monomials packed in ``vt``, by default the active table, to
    sums of coefficients.  In this order, zero coefficients are dropped,
    integral ``Fraction``s become ``int``s, and the exponent guard is
    checked on the monomials that are left (ExponentOverflow if an
    exponent reached ``LIMIT``), so a monomial past the limit whose terms
    cancel does not raise.
    """
    if vt is None:
        vt = var_table()
    values = res.values()
    # one pass over ints finds the first zero or Fraction, if any
    for c in values:
        if not c or type(c) is not int:
            if 0 in values:
                for m in [m for m, c in res.items() if not c]:
                    del res[m]
            for m, c in res.items():
                if type(c) is Fraction and c.denominator == 1:
                    res[m] = c.numerator
            break
    if reduce(or_, res, 0) & vt.guard:
        raise ExponentOverflow()
    return _poly(n, res, vt)


def _poly(n: int, terms: dict, vt: _VarTable) -> "DiffPoly":
    """The ``DiffPoly`` of ``terms``, monomials packed in the table ``vt``
    whose coefficients already hold the three invariants, built without
    the constructor."""
    p = _new(DiffPoly)
    p.n = n
    p.terms = terms
    p.vt = vt
    return p


def _recode(p: "DiffPoly", vt: _VarTable) -> dict:
    """The terms of ``p``, a value of another table, packed in ``vt``.

    Each variable that occurs is looked up once, and each factor moves to
    its variable's field in ``vt``.  Distinct variables keep distinct
    fields, so terms do not merge and no exponent changes.
    """
    src = p.vt.vars
    terms = p.terms
    to = {W * k: W * vt.id(src[k]) for k, _ in _fields(reduce(or_, terms, 0))}
    res = {}
    for m, c in terms.items():
        out = 0
        while m:
            s = (m.bit_length() - 1) & -W
            e = m >> s
            m -= e << s
            out += e << to[s]
        res[out] = c
    return res


def value_key(p: "DiffPoly", vt=None):
    """A hashable key that two polynomials share exactly when they are
    equal: ``(n, frozenset of terms)``, the terms packed in ``vt``, by
    default the active table, into which a polynomial of another table is
    re-encoded.  Only keys made under one table compare."""
    if vt is None:
        vt = var_table()
    return p.n, frozenset((p.terms if p.vt is vt else _recode(p, vt)).items())


def encode(mono) -> int:
    """The form of the decoded monomial ``(jets, xexp)`` packed in the
    active table."""
    return _encode(var_table(), mono)


def _encode(vt: _VarTable, mono) -> int:
    """The form of the decoded monomial ``mono`` packed in ``vt``.  Factors
    on one variable merge; the guard is checked after each one, so no
    field ever carries into the next."""
    jets, xe = mono
    m = 0
    for v, e in list(jets) + [(i, e) for i, e in enumerate(xe) if e]:
        if e >= LIMIT:
            raise ExponentOverflow()
        m += e << (W * vt.id(v))
        if m & vt.guard:
            raise ExponentOverflow()
    return m


def decode(n: int, m: int):
    """The decoded form ``(jets, xexp)`` of ``m``, packed in the active table."""
    return _decode(var_table().vars, n, m)


def _decode(variables: list, n: int, m: int):
    """The decoded form of ``m``, packed in the table of ``variables``."""
    jets = []
    xe = [0] * n
    for k, e in _fields(m):
        v = variables[k]
        if type(v) is int:
            xe[v] = e
        else:
            jets.append((v, e))
    jets.sort()
    return tuple(jets), tuple(xe)


def exact(c):
    """The canonical coefficient of the rational ``c``: an ``int`` when it is
    integral, else a ``Fraction`` (whose denominator is then greater than 1)."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def mul_into(res: dict, a: "DiffPoly", b: "DiffPoly", c=1) -> dict:
    """Add ``c*a*b`` into the term dict ``res`` and return it.

    The one product loop of the kernel: ``DiffPoly.__mul__`` and every
    builder that sums products call it, so a sum of products fills one
    dict with no polynomial built per product.  ``c`` is a nonzero
    rational.  ``res`` is packed in the active table, as ``_guarded``
    takes it, and ``a`` and ``b`` are re-encoded into it if they are of
    another.  The caller builds its result with ``_guarded``.
    """
    vt = var_table()
    get = res.get
    bt = (b.terms if b.vt is vt else _recode(b, vt)).items()
    for m1, c1 in (a.terms if a.vt is vt else _recode(a, vt)).items():
        if c != 1:
            c1 *= c
        for m2, c2 in bt:
            m = m1 + m2
            res[m] = get(m, 0) + c1 * c2
    return res


def add_into(res: dict, p: "DiffPoly", c=1) -> dict:
    """Add ``c*p`` into the term dict ``res``, packed in the active table,
    and return it; ``c`` is a nonzero rational.  The caller builds its
    result with ``_guarded``."""
    vt = var_table()
    get = res.get
    for m, q in (p.terms if p.vt is vt else _recode(p, vt)).items():
        res[m] = get(m, 0) + q * c
    return res


class DiffPoly:
    """Differential polynomial with exact rational coefficients.

    Instances are immutable by convention; all operations return new
    values, so polynomials can be shared freely.  ``terms`` maps monomials
    packed in the variable table ``vt`` to coefficients.
    """

    __slots__ = ("n", "terms", "vt")

    def __init__(self, n: int, terms=None):
        """``terms`` maps decoded monomials to rationals.

        This is the entry for input from outside the kernel; the kernel's
        own results are made by ``_poly``.  Decoded terms with a zero
        coefficient are skipped before they are encoded, so a zero term
        past ``LIMIT`` does not raise; the rest are packed in the active
        table, merged by their packed keys and cleaned by ``_guarded``."""
        self.n = n
        vt = self.vt = var_table()
        res = {}
        if terms:
            get = res.get
            for m, c in terms.items():
                c = exact(c)
                if c:
                    m = _encode(vt, m)
                    res[m] = get(m, 0) + c
            res = _guarded(n, res, vt).terms
        self.terms = res

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "DiffPoly":
        return _poly(n, {}, var_table())

    @classmethod
    def const(cls, n: int, c) -> "DiffPoly":
        c = exact(c)
        return _poly(n, {0: c} if c else {}, var_table())

    @classmethod
    def coord(cls, n: int, i: int) -> "DiffPoly":
        """The explicit independent variable x_i."""
        vt = var_table()
        return _poly(n, {1 << (W * vt.id(i)): ONE}, vt)

    @classmethod
    def jet(cls, n: int, dep: int, idx) -> "DiffPoly":
        idx = tuple(idx)
        if len(idx) != n or min(idx, default=0) < 0:
            raise ValueError(f"bad multi-index {idx!r}")
        vt = var_table()
        return _poly(n, {1 << (W * vt.id((dep, idx))): ONE}, vt)

    def items(self):
        """The terms as (decoded monomial, coefficient) pairs."""
        n, variables = self.n, self.vt.vars
        return ((_decode(variables, n, m), c) for m, c in self.terms.items())

    def canonical_terms(self, factor):
        """The terms in canonical order, highest first, as ``(factors, c)``.

        ``factors`` lists ``factor(v, e)`` for each factor ``v^e`` of the
        term: the explicit variables by index (``v`` is the ``int`` i), then
        the jets in ascending order.  ``factor`` is called once per distinct
        factor.

        Each term's sort key is one ``int``, so one comparison orders two
        terms as their decoded ``(jets, xexp)`` would.  One walk of the OR
        of the monomials finds the jets that occur, ranked in ascending
        order, and the field width ``b``: one bit more than the widest
        exponent, so the gap value ``2**b - 1`` exceeds every exponent.
        From the top, the key holds the degree, with no width limit, then
        one ``b``-bit field per jet in rank order, then one per x_i from
        x_0 on.  A jet's field holds its exponent in the term; a jet the
        term lacks holds the gap below the term's highest-ranked jet, so a
        smaller jet sorts first, and 0 above it, so a term whose jet
        factors begin another's sorts below it.  The key is summed in the
        walk that finds the term's factors, from one memo entry per factor:
        each adds its exponent to the degree and to its field, a jet's less
        the gap, and the term's highest-ranked jet, last once the factors
        are sorted, adds the gap to every jet field down to its own.
        Distinct terms never tie.
        """
        n, variables, terms = self.n, self.vt.vars, self.terms
        jets = []
        b = 1
        for k, e in _fields(reduce(or_, terms, 0)):
            b = max(b, e.bit_length() + 1)
            if type(variables[k]) is not int:
                jets.append(variables[k])
        jets.sort()
        top = b * (n + len(jets))
        gap, unit = (1 << b) - 1, 1 << top  # unit: one degree
        at = {v: (n + r, top - b * r) for r, v in enumerate(jets, 1)}
        # field -> (order, key part, fill, factor(v, e)): x_i sorts first, by
        # i, then the jets by rank, so a term's last factor is its
        # highest-ranked jet if it has one; an x factor fills nothing
        memo = {}
        rows = []
        for m, c in terms.items():
            fs = []
            key = 0
            while m:
                s = (m.bit_length() - 1) & -W
                f = m >> s << s
                m -= f
                t = memo.get(f)
                if t is None:
                    e, v = f >> s, variables[s // W]
                    if type(v) is int:
                        t = (v, e * unit + (e << (b * (n - 1 - v))), 0, factor(v, e))
                    else:
                        r, p = at[v]
                        t = (r, e * unit + ((e - gap) << p), unit - (1 << p), factor(v, e))
                    memo[f] = t
                key += t[1]
                fs.append(t)
            if fs:
                fs.sort()
                key += fs[-1][2]
            rows.append((key, fs, c))
        rows.sort(key=itemgetter(0), reverse=True)
        for _, fs, c in rows:
            yield [t[3] for t in fs], c

    # -- ring structure ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        vt = var_table()
        res = dict(self.terms if self.vt is vt else _recode(self, vt))
        get = res.get
        for m, c in (other.terms if other.vt is vt else _recode(other, vt)).items():
            res[m] = get(m, 0) + c
        return _guarded(self.n, res, vt)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.n, {m: -c for m, c in self.terms.items()}, self.vt)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        vt = var_table()
        res = dict(self.terms if self.vt is vt else _recode(self, vt))
        get = res.get
        for m, c in (other.terms if other.vt is vt else _recode(other, vt)).items():
            res[m] = get(m, 0) - c
        return _guarded(self.n, res, vt)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = exact(other)
            if not c:
                return DiffPoly.zero(self.n)
            return _poly(self.n, {m: exact(q * c) for m, q in self.terms.items()}, self.vt)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return _guarded(self.n, mul_into({}, self, other))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not supported")
        out = DiffPoly.const(self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def _coerce(self, other):
        if isinstance(other, DiffPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return DiffPoly.const(self.n, other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # the empty monomial is 0 in every table
            c = exact(other)
            return self.terms == ({0: c} if c else {})
        if not isinstance(other, DiffPoly):
            return NotImplemented
        if self.vt is other.vt:
            return self.n == other.n and self.terms == other.terms
        return self.n == other.n and dict(self.items()) == dict(other.items())

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "DiffPoly(0)"
        terms = self.canonical_terms(lambda v, e: (v, e))
        return "DiffPoly(" + " + ".join(f"{c}*{fs!r}" for fs, c in terms) + ")"

    # -- structure queries -------------------------------------------

    def _vars(self):
        """Every variable that occurs in some term, highest id first."""
        out = []
        variables = self.vt.vars
        m = reduce(or_, self.terms, 0)
        while m:
            s = (m.bit_length() - 1) & -W
            out.append(variables[s // W])
            m &= (1 << s) - 1
        return out

    def jetvars(self) -> set:
        return {v for v in self._vars() if type(v) is not int}

    def deps(self) -> set:
        return {v[0] for v in self.jetvars()}

    def const_value(self):
        """Return the coefficient if the polynomial is constant, else None."""
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            (m, c), = self.terms.items()
            if m == 0:
                return c
        return None

    def involves_direction(self, i: int) -> bool:
        return any(
            v == i if type(v) is int else v[1][i] for v in self._vars()
        )

    # -- calculus ----------------------------------------------------

    def partial(self, jet) -> "DiffPoly":
        """Partial derivative with respect to one jet variable."""
        vt = var_table()
        terms = self.terms if self.vt is vt else _recode(self, vt)
        res = {}
        k = vt.ids.get(jet)
        if k is not None:
            shift = W * k
            # distinct monomials stay distinct, so there is nothing to add
            for m, c in terms.items():
                e = (m >> shift) & _FIELD
                if e:
                    res[m - (1 << shift)] = c * e
        return _guarded(self.n, res, vt)

    def total(self, i: int, image=None) -> "DiffPoly":
        """Total derivative D_i: d/dx_i plus the chain rule over all jets.

        The factor at bit s with exponent e of the term ``c*m`` contributes
        ``c*e`` times ``m`` with ``steps[s]`` applied: x_i loses one power, a
        jet trades one power for its D_i-raised jet, and any other x_j
        contributes nothing.  ``image(jet)``, when given, returns the
        polynomial that stands for a raised jet, or None to keep the jet; a
        jet with an image trades its power for that polynomial in the same
        pass.  On a normal form, with normal forms as images, this gives the
        normal form of D_i: the total derivative restricted to the equation.

        The raised jet comes from the active table's raise map.  It gets an
        id, and so a field in every later monomial, only when the result
        keeps it.
        """
        vt = var_table()
        variables, raised = vt.vars, vt.raised
        steps = {}
        res = {}
        get = res.get
        for m, c in (self.terms if self.vt is vt else _recode(self, vt)).items():
            rest = m
            while rest:
                s = (rest.bit_length() - 1) & -W
                e = rest >> s
                rest -= e << s
                step = steps.get(s)
                if step is None:
                    k, one = s // W, 1 << s
                    v = variables[k]
                    if type(v) is int:
                        step = -one if v == i else 0
                    else:
                        r = raised.get((k, i))
                        if r is None:
                            dep, idx = v
                            up = (dep, idx[:i] + (idx[i] + 1,) + idx[i + 1:])
                            r = raised[(k, i)] = (up, None)
                        up, t = r
                        q = image(up) if image else None
                        if q is None:
                            if t is None:
                                t = W * vt.id(up)
                                raised[(k, i)] = (up, t)
                            step = (1 << t) - one
                        else:
                            step = (one, tuple(
                                (q.terms if q.vt is vt else _recode(q, vt)).items()))
                    steps[s] = step
                if type(step) is int:
                    if step:
                        key = m + step
                        res[key] = get(key, 0) + c * e
                else:
                    low, ce = m - step[0], c * e
                    for m2, c2 in step[1]:
                        key = low + m2
                        res[key] = get(key, 0) + ce * c2
        return _guarded(self.n, res, vt)

    # -- substitutions -----------------------------------------------

    def substitute(self, images: dict) -> "DiffPoly":
        """Replace every jet variable in ``images`` by its polynomial, at once.

        This is the ring homomorphism that fixes every other variable: each
        term splits into its replaced factors ``hit = m & mask`` and the kept
        monomial ``m - hit``, which is multiplied by the product of the
        images of the factors in ``hit``.  Powers and products are memoized
        per call; an image of another table is re-encoded once, as its
        first power.
        """
        vt = var_table()
        terms = self.terms if self.vt is vt else _recode(self, vt)
        by_id = {}
        mask = 0
        for v, q in images.items():
            k = vt.ids.get(v)
            if k is not None:
                by_id[k] = q
                mask |= _FIELD << (W * k)
        powers = {}
        products = {}

        def power(k, e):
            j = e
            while j and (k, j) not in powers:
                j -= 1
            p = powers.get((k, j))
            for j in range(j + 1, e + 1):
                if j > 1:
                    p = powers[(k, j)] = p * powers[(k, 1)]
                else:
                    q = by_id[k]
                    p = powers[(k, 1)] = q if q.vt is vt else _poly(q.n, _recode(q, vt), vt)
            return p

        def product(hit):
            prod = products.get(hit)
            if prod is None:
                prod = products[hit] = reduce(mul, [power(k, e) for k, e in _fields(hit)])
            return prod

        if len(terms) == 1:
            # 1*m with every factor of m replaced, such as one reducible
            # jet: the product of the images is the result, not a copy
            (m, c), = terms.items()
            if c == 1 and m and (m & mask) == m:
                return product(m)
        res = {}
        get = res.get
        for m, c in terms.items():
            hit = m & mask
            if not hit:
                res[m] = get(m, 0) + c
                continue
            kept = m - hit
            for m2, c2 in product(hit).terms.items():
                key = kept + m2
                res[key] = get(key, 0) + c * c2
        return _guarded(self.n, res, vt)

    def subst_deps(self, values: dict) -> "DiffPoly":
        """Replace each dependent in ``values`` by its polynomial, at once;
        a jet of a replaced dependent becomes D_sigma of its value."""
        run = current_run()
        return self.substitute({
            v: run.total(values[v[0]], v[1])
            for v in self.jetvars() if v[0] in values
        })

    def relabel_deps(self, mapping: dict) -> "DiffPoly":
        """Rename dependent indices (used to permute formal argument slots).

        Each term keeps its factors on jets that are not renamed and moves
        each renamed factor to the field of its renamed jet, found in a
        table from field to field built once per call.  Two factors that
        land on the same jet merge into one power; the guard is checked
        after each addition, as in ``encode``.
        """
        vt = var_table()
        terms = self.terms if self.vt is vt else _recode(self, vt)
        variables = vt.vars
        to = {}
        mask = 0
        for k, _ in _fields(reduce(or_, terms, 0)):
            v = variables[k]
            if type(v) is not int and mapping.get(v[0], v[0]) != v[0]:
                to[W * k] = W * vt.id((mapping[v[0]], v[1]))
                mask |= _FIELD << (W * k)
        if not mask:
            return self
        guard = vt.guard
        res = {}
        get = res.get
        for m, c in terms.items():
            hit = m & mask
            out = m - hit
            while hit:
                s = (hit.bit_length() - 1) & -W
                e = hit >> s
                hit -= e << s
                out += e << to[s]
                if out & guard:
                    raise ExponentOverflow()
            res[out] = get(out, 0) + c
        return _guarded(self.n, res, vt)


class VectorFunction:
    """Fixed-length vector of differential polynomials."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = self.entries = tuple(entries)
        if not entries:
            raise ValueError("empty vector function")
        n = entries[0].n
        for p in entries:
            if p.n != n:
                raise ValueError("mixed base dimensions in vector function")

    @property
    def n(self):
        return self.entries[0].n

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, k):
        return self.entries[k]

    def __add__(self, other):
        if len(other) != len(self):
            raise ValueError("vector length mismatch")
        return VectorFunction(a + b for a, b in zip(self, other))

    def __sub__(self, other):
        if len(other) != len(self):
            raise ValueError("vector length mismatch")
        return VectorFunction(a - b for a, b in zip(self, other))

    def __neg__(self):
        return VectorFunction(-a for a in self)

    def __rmul__(self, c):
        return VectorFunction(a * c for a in self)

    def __eq__(self, other):
        return isinstance(other, VectorFunction) and self.entries == other.entries

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.entries)

    def map(self, fn) -> "VectorFunction":
        return VectorFunction(fn(p) for p in self.entries)

    def __repr__(self):
        return "VectorFunction(" + ", ".join(map(repr, self.entries)) + ")"


def as_vector(v) -> VectorFunction:
    if isinstance(v, VectorFunction):
        return v
    if isinstance(v, DiffPoly):
        return VectorFunction([v])
    return VectorFunction(v)


def formal_vector(n: int, dep_ids) -> VectorFunction:
    """Vector whose entries are the bare jets of the given dependents."""
    zero = (0,) * n
    return VectorFunction([DiffPoly.jet(n, d, zero) for d in dep_ids])


# -- operations of the jet algebra ------------------------------------


class Run:
    """A table of total derivatives, made under the variable table that is
    active then.  The active run's holds plain D_sigma and lives exactly as
    long as one run, as that run's variable table does; each
    ``EquationSystem`` owns another, for its restricted D̄_sigma, kept
    apart because the passivity check takes plain D_sigma of the same
    right-hand sides.

    The table holds, for each base polynomial, its derivatives keyed by
    ``sigma``.  A base is found first by ``id``; its entry keeps the base
    alive, so the id is not reused while the table lasts.  A base not seen
    as an object is found by value, ``(n, frozenset(terms))`` with the
    terms packed in the Run's own variable table, a key built once per
    distinct base object, so value-equal copies share one table whatever
    table each was built in.
    """

    __slots__ = ("_by_id", "_by_value", "_vt", "__weakref__")

    def __init__(self):
        self._by_id = {}
        self._by_value = {}
        self._vt = var_table()

    def stale(self) -> bool:
        """Whether the active variable table is another than the one this
        Run was made under: its derivatives then belong to another run, or
        to the builders outside runs, and an owner that meets them again
        makes a new Run."""
        return self._vt is not var_table()

    def table(self, base: DiffPoly) -> dict:
        """The derivatives of ``base`` taken in this run, keyed by ``sigma``."""
        entry = self._by_id.get(id(base))
        if entry is None:
            table = self._by_value.setdefault(value_key(base, self._vt), {})
            entry = self._by_id[id(base)] = (base, table)
        return entry[1]

    def total(self, base: DiffPoly, sigma, image=None) -> DiffPoly:
        """D_sigma(base), taken at most once per table; D_0 is ``base``
        itself and is not stored.

        A taken ``sigma`` costs one lookup of the base by ``id`` and one in
        its table; ``table`` runs only when the id is new.  Otherwise
        ``sigma`` is lowered in its first nonzero direction until it meets
        a taken index or zero, and the path is climbed back with
        ``total(i, image)``, storing every index on the way: with a
        system's image lookup, each step is the restricted D̄_i.  A table
        serves one ``image``, passed on each call and never stored, so a
        system's table holds no bound method and a dropped system is freed
        at once.  Iterative, so the jet order is not limited by the
        recursion depth.
        """
        if not any(sigma):
            return base
        entry = self._by_id.get(id(base))
        table = self.table(base) if entry is None else entry[1]
        p = table.get(sigma)
        if p is None:
            path = []
            while p is None:
                i = 0
                while not sigma[i]:
                    i += 1
                path.append((sigma, i))
                sigma = sigma[:i] + (sigma[i] - 1,) + sigma[i + 1:]
                p = table.get(sigma) if any(sigma) else base
            for up, i in reversed(path):
                p = table[up] = p.total(i, image)
        return p


_RUN = ContextVar("hamcheck_run", default=None)


def current_run() -> Run:
    """The active run; outside one, a fresh throwaway ``Run``, so that a
    library call keeps its derivatives only while it lasts, and builds in
    the default variable table."""
    run = _RUN.get()
    return Run() if run is None else run


@contextmanager
def run_scope():
    """Make a fresh ``Run`` and an empty variable table active for the
    block, unless a run already is, and give the active ``Run``.

    Every value built in the block is packed in the run's variable table,
    so the ids it gives depend on the run alone.  Both are reset on the way
    out, even on error: the derivative table is unreachable once the block
    ends, and the variable table once no value built in the block is left.
    """
    if _RUN.get() is not None:
        yield _RUN.get()
        return
    tables = _TABLE.set(_VarTable())
    token = _RUN.set(Run())
    try:
        yield _RUN.get()
    finally:
        _RUN.reset(token)
        _TABLE.reset(tables)


def euler(frame: Frame, density: DiffPoly) -> VectorFunction:
    """Variational derivative: component j is sum of (-D)^sigma d/du^j_sigma,
    for every dependent j of the frame, formal argument slots included.

    The sum is taken in nested (Horner) form, one direction at a time:
    with Q_k the part whose index has k in direction i, it is
    Q_0 - D_i(Q_1 - D_i(Q_2 - ...)), so each direction costs one plain
    ``total(i)`` per order.  The partials are used once, so they do not
    enter the run's derivative table.
    """
    n = frame.n
    jets = density.jetvars()
    if any(v[0] >= frame.m for v in jets):
        raise ValueError("density involves dependents outside the frame")
    out = []
    for j in range(frame.m):
        parts = {v[1]: density.partial(v) for v in jets if v[0] == j}
        for i in range(n):
            # the parts by their index outside direction i, then by order in i
            rows = {}
            for idx, p in parts.items():
                rows.setdefault(idx[:i] + (0,) + idx[i + 1:], {})[idx[i]] = p
            parts = {}
            for idx, row in rows.items():
                top = max(row)
                acc = row[top]
                for k in range(top - 1, -1, -1):
                    q = row.get(k)
                    acc = -acc.total(i) if q is None else q - acc.total(i)
                parts[idx] = acc
        out.append(parts.get((0,) * n, DiffPoly.zero(n)))
    return VectorFunction(out)
