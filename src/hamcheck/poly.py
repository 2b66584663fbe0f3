"""Exact sparse differential polynomials in jet variables.

A monomial is one Python ``int``.  Every variable, a jet ``(dep, idx)``
or an explicit independent ``x_i`` (keyed by the ``int`` ``i``), has a
small id in one kernel-wide table, and the monomial keeps the exponent
of the variable with id ``k`` in the ``W``-bit field at bit ``W*k``.  The
empty monomial is ``0`` and the product of two monomials is their sum.
The top bit of each field is a guard bit: every stored exponent stays
below ``LIMIT = 2**(W - 1)``, so a sum of two stored monomials cannot
carry into the next field, and a result with a guard bit set raises
``ExponentOverflow`` instead of being stored.  Only this module knows
the encoding.

Tests and the sympy oracle read terms in the decoded view; no other
module of the package does.  ``decode`` gives a monomial as a pair
``(jets, xexp)`` of a sorted tuple of ``((dep, idx), exponent)`` jet
factors and a tuple of exponents of the explicit independent variables,
``DiffPoly.items`` yields terms in that form and the constructor takes
keys in it.  The canonical order of terms is graded, then by jet
factors, then by x exponents, highest first;
``DiffPoly.canonical_terms`` walks the terms in it, giving each term's
factors in order (x factors by index, then jets ascending).  It ranks
the jets that occur once per call and sorts by one ``bytes`` key per term
built from those ranks, never by the ints, whose order depends on the
order in which ids were given.

Three invariants hold for every value the kernel builds: no zero
coefficient is stored; no stored exponent reaches ``LIMIT``; and a
coefficient is an ``int`` when it is integral and otherwise a
``Fraction`` with denominator greater than 1, never a ``float``, so
integer work never reaches ``fractions``.  Ids never change meaning, so
equality is structural.

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
with ``object.__new__`` and sets its two slots, so a small result pays
no keyword parsing and no ``__init__`` frame.  ``_guarded`` ends there,
and so do the builders whose terms need no cleaning (``zero``, ``const``,
``coord``, ``jet``, negation).  ``DiffPoly.__init__`` takes only input
from outside the kernel: decoded keys, which it encodes, merges the same
way and cleans in ``_guarded``.

``DiffPoly.total`` takes each jet's D_i-raised jet from ``_RAISE``, a
map beside the variable table that outlives runs as the table does: it
holds jets and ints, never a polynomial, and ids never change meaning,
so no report depends on what the process ran before.  A raised jet gets
its id only when a result keeps it.

Total derivatives D_sigma of a polynomial are taken by one routine,
``Run.total``.  The active ``Run`` takes plain D_sigma once per run
and lives as long as its outermost ``run_scope``: one
``runner.run_program``, or for the command line one file from parsing
to the last task.  ``run_scope`` makes it the active one in a
``contextvars`` variable and resets that on the way out, so the run's
table is unreachable when the run ends.  The table holds each base
polynomial's derivatives keyed by ``sigma`` alone, found by the base's
``id`` or, for a copy, by its value, so ``apply``, ``compose``,
``adjoint``, ``subst_deps`` and the passivity check share what any of
them took.  A builder called outside a run gets a throwaway ``Run`` of
its own, kept only while the call lasts.  Restricted derivatives
D̄_sigma, which depend on an equation, are taken in a ``Run`` that
each system owns, with the system's ``_image``; beside it the system
keeps one table keyed by the jet: each reducible jet's normal form, or
None for an irreducible one.  Factoring reduces on a twin of the
system, so it uses the twin's tables and not the run's.
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

# The kernel-wide variable table: _VARS[k] is the variable with id k,
# _IDS maps it back, and _GUARD holds the guard bit of every field given
# out.  Beside it, _RAISE maps (k, i), for the jet with id k, to the jet
# D_i raises it to and that jet's bit offset, None until the jet has an
# id.  Both are only appended to (an offset only ever replaces a None),
# and an id never changes meaning, so a monomial and a raise step mean
# the same everywhere in the process.  They are the only module state
# that outlives a run (see ``Run``); they hold jets and ints, never a
# polynomial, so no run's results outlive it through them.
_VARS = []
_IDS = {}
_GUARD = 0
_RAISE = {}

_new = object.__new__


class HamcheckError(Exception):
    """Base class for kernel errors."""


class ExponentOverflow(HamcheckError):
    def __init__(self):
        super().__init__(
            f"exponent limit exceeded: every exponent must stay below {LIMIT} (2^{W - 1})"
        )


def _id(v) -> int:
    """The id of the variable ``v``, given now if it has none."""
    global _GUARD
    k = _IDS.get(v)
    if k is None:
        k = _IDS[v] = len(_VARS)
        _VARS.append(v)
        _GUARD |= 1 << (W * k + W - 1)
    return k


def _fields(m: int):
    """(id, exponent) of every factor of the monomial ``m``, highest id
    first: each step takes the top field, at bit ``s``, whose exponent is
    all of ``m >> s``, so only occupied fields are visited."""
    while m:
        s = (m.bit_length() - 1) & -W
        e = m >> s
        m -= e << s
        yield s // W, e


def _guarded(n: int, res: dict) -> "DiffPoly":
    """The polynomial of the term dict ``res``, which it cleans in place.

    Every coefficient builder ends here, once per result.  ``res`` maps
    sums of stored monomials to sums of coefficients.  In this order, zero
    coefficients are dropped, integral ``Fraction``s become ``int``s, and
    the exponent guard is checked on the monomials that are left
    (ExponentOverflow if an exponent reached ``LIMIT``), so a monomial past
    the limit whose terms cancel does not raise.
    """
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
    if reduce(or_, res, 0) & _GUARD:
        raise ExponentOverflow()
    return _poly(n, res)


def _poly(n: int, terms: dict) -> "DiffPoly":
    """The ``DiffPoly`` of ``terms``, packed monomials whose coefficients
    already hold the three invariants, built without the constructor."""
    p = _new(DiffPoly)
    p.n = n
    p.terms = terms
    return p


def encode(mono) -> int:
    """The packed form of the decoded monomial ``(jets, xexp)``.  Factors on
    one variable merge; the guard is checked after each one, so no field
    ever carries into the next."""
    jets, xe = mono
    m = 0
    for v, e in list(jets) + [(i, e) for i, e in enumerate(xe) if e]:
        if e >= LIMIT:
            raise ExponentOverflow()
        m += e << (W * _id(v))
        if m & _GUARD:
            raise ExponentOverflow()
    return m


def decode(n: int, m: int):
    """The decoded form ``(jets, xexp)`` of the packed monomial ``m``."""
    jets = []
    xe = [0] * n
    for k, e in _fields(m):
        v = _VARS[k]
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
    rational.  The caller builds its result with ``_guarded``.
    """
    get = res.get
    bt = b.terms.items()
    for m1, c1 in a.terms.items():
        if c != 1:
            c1 *= c
        for m2, c2 in bt:
            m = m1 + m2
            res[m] = get(m, 0) + c1 * c2
    return res


class DiffPoly:
    """Differential polynomial with exact rational coefficients.

    Instances are immutable by convention; all operations return new
    values, so polynomials can be shared freely.  ``terms`` maps packed
    monomials to coefficients.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        """``terms`` maps decoded monomials to rationals.

        This is the entry for input from outside the kernel; the kernel's
        own results are made by ``_poly``.  Decoded terms with a zero
        coefficient are skipped before they are encoded, so a zero term
        past ``LIMIT`` does not raise; the rest are merged by their packed
        keys and cleaned by ``_guarded``."""
        self.n = n
        res = {}
        if terms:
            get = res.get
            for m, c in terms.items():
                c = exact(c)
                if c:
                    m = encode(m)
                    res[m] = get(m, 0) + c
            res = _guarded(n, res).terms
        self.terms = res

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "DiffPoly":
        return _poly(n, {})

    @classmethod
    def const(cls, n: int, c) -> "DiffPoly":
        c = exact(c)
        return _poly(n, {0: c} if c else {})

    @classmethod
    def coord(cls, n: int, i: int) -> "DiffPoly":
        """The explicit independent variable x_i."""
        return _poly(n, {1 << (W * _id(i)): ONE})

    @classmethod
    def jet(cls, n: int, dep: int, idx) -> "DiffPoly":
        idx = tuple(idx)
        if len(idx) != n or min(idx, default=0) < 0:
            raise ValueError(f"bad multi-index {idx!r}")
        return _poly(n, {1 << (W * _id((dep, idx))): ONE})

    def items(self):
        """The terms as (decoded monomial, coefficient) pairs."""
        n = self.n
        return ((decode(n, m), c) for m, c in self.terms.items())

    def canonical_terms(self, factor):
        """The terms in canonical order, highest first, as ``(factors, c)``.

        ``factors`` lists ``factor(v, e)`` for each factor ``v^e`` of the
        term: the explicit variables by index (``v`` is the ``int`` i), then
        the jets in ascending order.  ``factor`` is called once per distinct
        factor.  The jets that occur are ranked once, and each term's sort
        key is one ``bytes`` object, so one comparison orders two terms as
        their decoded ``(jets, xexp)`` would: the degree in 8 bytes (a sum
        of far fewer than 2**48 exponents below ``LIMIT``), a code of ``cw``
        bytes for each jet's (rank + 1, exponent) in rank order, ``cw`` zero
        bytes, so that a term whose jet factors begin another's sorts below
        it, and the x exponents in ``W`` bits each.
        """
        n = self.n
        jets = sorted(v for v in self._vars() if type(v) is not int)
        rank = {v: r for r, v in enumerate(jets, 1)}
        cw, xw = (len(jets).bit_length() + W + 7) // 8, (W * n + 7) // 8
        end, no_x = bytes(cw), bytes(cw + xw)
        # field -> (code, factor(v, e)) for a jet; for x_i, (b"", i, e at its
        # place in the x exponents, factor(v, e)), which sorts first, by i
        memo = {}
        rows = []
        for m, c in self.terms.items():
            fs = []
            deg = 0
            while m:
                s = (m.bit_length() - 1) & -W
                e = m >> s
                f = e << s
                m -= f
                deg += e
                t = memo.get(f)
                if t is None:
                    v = _VARS[s // W]
                    t = memo[f] = (
                        (b"", v, e << (W * (n - 1 - v)), factor(v, e)) if type(v) is int
                        else (((rank[v] << W) + e).to_bytes(cw, "big"), factor(v, e))
                    )
                fs.append(t)
            fs.sort()
            key = [deg.to_bytes(8, "big"), *[t[0] for t in fs], no_x]
            if fs and not fs[0][0]:
                key[-1] = end + sum(t[2] for t in fs if not t[0]).to_bytes(xw, "big")
            rows.append((b"".join(key), fs, c))
        rows.sort(key=itemgetter(0), reverse=True)
        for _, fs, c in rows:
            yield [t[-1] for t in fs], c

    # -- ring structure ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        res = dict(self.terms)
        get = res.get
        for m, c in other.terms.items():
            res[m] = get(m, 0) + c
        return _guarded(self.n, res)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        res = dict(self.terms)
        get = res.get
        for m, c in other.terms.items():
            res[m] = get(m, 0) - c
        return _guarded(self.n, res)

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
            return _poly(self.n, {m: exact(q * c) for m, q in self.terms.items()})
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
            other = DiffPoly.const(self.n, other)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

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
        m = reduce(or_, self.terms, 0)
        while m:
            s = (m.bit_length() - 1) & -W
            out.append(_VARS[s // W])
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
        res = {}
        k = _IDS.get(jet)
        if k is not None:
            shift = W * k
            # distinct monomials stay distinct, so there is nothing to add
            for m, c in self.terms.items():
                e = (m >> shift) & _FIELD
                if e:
                    res[m - (1 << shift)] = c * e
        return _guarded(self.n, res)

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

        The raised jet comes from ``_RAISE``.  It gets an id, and so a field
        in every later monomial, only when the result keeps it.
        """
        steps = {}
        res = {}
        get = res.get
        for m, c in self.terms.items():
            rest = m
            while rest:
                s = (rest.bit_length() - 1) & -W
                e = rest >> s
                rest -= e << s
                step = steps.get(s)
                if step is None:
                    k, one = s // W, 1 << s
                    v = _VARS[k]
                    if type(v) is int:
                        step = -one if v == i else 0
                    else:
                        r = _RAISE.get((k, i))
                        if r is None:
                            dep, idx = v
                            up = (dep, idx[:i] + (idx[i] + 1,) + idx[i + 1:])
                            r = _RAISE[(k, i)] = (up, None)
                        up, t = r
                        q = image(up) if image else None
                        if q is None:
                            if t is None:
                                t = W * _id(up)
                                _RAISE[(k, i)] = (up, t)
                            step = (1 << t) - one
                        else:
                            step = (one, tuple(q.terms.items()))
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
        return _guarded(self.n, res)

    # -- substitutions -----------------------------------------------

    def substitute(self, images: dict) -> "DiffPoly":
        """Replace every jet variable in ``images`` by its polynomial, at once.

        This is the ring homomorphism that fixes every other variable: each
        term splits into its replaced factors ``hit = m & mask`` and the kept
        monomial ``m - hit``, which is multiplied by the product of the
        images of the factors in ``hit``.  Powers and products are memoized
        per call.
        """
        by_id = {}
        mask = 0
        for v, q in images.items():
            k = _IDS.get(v)
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
                p = powers[(k, j)] = by_id[k] if j == 1 else p * by_id[k]
            return p

        def product(hit):
            prod = products.get(hit)
            if prod is None:
                prod = products[hit] = reduce(mul, [power(k, e) for k, e in _fields(hit)])
            return prod

        if len(self.terms) == 1:
            # 1*m with every factor of m replaced, such as one reducible
            # jet: the product of the images is the result, not a copy
            (m, c), = self.terms.items()
            if c == 1 and m and (m & mask) == m:
                return product(m)
        res = {}
        get = res.get
        for m, c in self.terms.items():
            hit = m & mask
            if not hit:
                res[m] = get(m, 0) + c
                continue
            kept = m - hit
            for m2, c2 in product(hit).terms.items():
                key = kept + m2
                res[key] = get(key, 0) + c * c2
        return _guarded(self.n, res)

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
        to = {}
        mask = 0
        for k, _ in _fields(reduce(or_, self.terms, 0)):
            v = _VARS[k]
            if type(v) is not int and mapping.get(v[0], v[0]) != v[0]:
                to[W * k] = W * _id((mapping[v[0]], v[1]))
                mask |= _FIELD << (W * k)
        if not mask:
            return self
        res = {}
        get = res.get
        for m, c in self.terms.items():
            hit = m & mask
            out = m - hit
            while hit:
                s = (hit.bit_length() - 1) & -W
                e = hit >> s
                hit -= e << s
                out += e << to[s]
                if out & _GUARD:
                    raise ExponentOverflow()
            res[out] = get(out, 0) + c
        return _guarded(self.n, res)


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
    """A table of total derivatives.  The active run's holds plain D_sigma
    and lives exactly as long as one run; each ``EquationSystem`` owns
    another, for its restricted D̄_sigma, kept apart because the passivity
    check takes plain D_sigma of the same right-hand sides.

    The table holds, for each base polynomial, its derivatives keyed by
    ``sigma``.  A base is found first by ``id``; its entry keeps the base
    alive, so the id is not reused while the table lasts.  A base not seen
    as an object is found by value, ``(n, frozenset(terms))``, a key built
    once per distinct base object, so value-equal copies share one table.
    """

    __slots__ = ("_by_id", "_by_value", "__weakref__")

    def __init__(self):
        self._by_id = {}
        self._by_value = {}

    def table(self, base: DiffPoly) -> dict:
        """The derivatives of ``base`` taken in this run, keyed by ``sigma``."""
        entry = self._by_id.get(id(base))
        if entry is None:
            table = self._by_value.setdefault((base.n, frozenset(base.terms.items())), {})
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
        system's ``_image``, each step is the restricted D̄_i.  A table
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
    library call keeps its derivatives only while it lasts."""
    run = _RUN.get()
    return Run() if run is None else run


@contextmanager
def run_scope():
    """Make a fresh ``Run`` active for the block, unless one already is,
    and give the active one.

    A ``Run`` it made is reset on the way out, even on error, so its table
    is unreachable once the block ends.
    """
    if _RUN.get() is not None:
        yield _RUN.get()
        return
    token = _RUN.set(Run())
    try:
        yield _RUN.get()
    finally:
        _RUN.reset(token)


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
