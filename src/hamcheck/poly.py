"""Exact sparse differential polynomials in jet variables.

A monomial is a pair ``(jets, xexp)``: a sorted tuple of
``((dep, idx), exponent)`` jet factors and a tuple of exponents of the
explicit independent variables.  Coefficients are exact rationals;
there is no floating point anywhere in the kernel.

Three invariants hold for every value the kernel builds: no zero
coefficient is ever stored (every sparse sum goes through
``accumulate``); jet factors stay sorted (every product of monomials
goes through ``jets_mul``); and a coefficient is an ``int`` when it is
integral and otherwise a ``Fraction`` with denominator greater than 1,
never a ``float`` (``exact`` and ``accumulate`` store only that form),
so integer work never reaches ``fractions``.  Equality is therefore
structural.
"""

from __future__ import annotations

from fractions import Fraction

from .frame import Frame

Mono = tuple

ONE = 1


def exact(c):
    """The canonical coefficient of the rational ``c``: an ``int`` when it is
    integral, else a ``Fraction`` (whose denominator is then greater than 1)."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def mono_one(n: int) -> Mono:
    return ((), (0,) * n)


def accumulate(res: dict, key, value) -> None:
    """Add the nonzero ``value`` into ``res[key]``; drop the key if the sum is 0.

    The one merge rule of every sparse builder, for rational coefficients
    and for polynomial operator entries alike.  A coefficient is stored in
    the canonical form of ``exact``: an integral ``Fraction`` becomes its
    numerator.
    """
    old = res.get(key)
    if old is not None:
        value = old + value
        if not value:
            del res[key]
            return
    if type(value) is Fraction and value.denominator == 1:
        value = value.numerator
    res[key] = value


def jets_mul(a: tuple, b: tuple) -> tuple:
    """Product of two sorted jet-factor tuples: a linear merge that adds
    the exponents of shared jets."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va < vb:
            out.append(a[i])
            i += 1
        elif vb < va:
            out.append(b[j])
            j += 1
        else:
            out.append((va, ea + eb))
            i += 1
            j += 1
    return tuple(out) + a[i:] + b[j:]


def mono_mul(a: Mono, b: Mono) -> Mono:
    return (jets_mul(a[0], b[0]), tuple(p + q for p, q in zip(a[1], b[1])))


def mono_degree(m: Mono) -> int:
    jets, xe = m
    return sum(e for _, e in jets) + sum(xe)


def mono_sort_key(m: Mono):
    """Canonical term order: graded, then by jet factors, then x exponents."""
    return (mono_degree(m), m[0], m[1])


class DiffPoly:
    """Differential polynomial with exact rational coefficients.

    Instances are immutable by convention; all operations return new
    values, so polynomials can be shared freely.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None, _clean: bool = False):
        self.n = n
        if not terms:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            clean = {}
            for m, c in terms.items():
                c = exact(c)
                if c:
                    clean[m] = c
            self.terms = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "DiffPoly":
        return cls(n, None, _clean=True)

    @classmethod
    def const(cls, n: int, c) -> "DiffPoly":
        c = exact(c)
        if not c:
            return cls.zero(n)
        return cls(n, {mono_one(n): c}, _clean=True)

    @classmethod
    def coord(cls, n: int, i: int) -> "DiffPoly":
        """The explicit independent variable x_i."""
        xe = tuple(1 if k == i else 0 for k in range(n))
        return cls(n, {((), xe): ONE}, _clean=True)

    @classmethod
    def jet(cls, n: int, dep: int, idx) -> "DiffPoly":
        idx = tuple(idx)
        if len(idx) != n or any(k < 0 for k in idx):
            raise ValueError(f"bad multi-index {idx!r}")
        mono = ((((dep, idx), 1),), (0,) * n)
        return cls(n, {mono: ONE}, _clean=True)

    # -- ring structure ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        res = dict(self.terms)
        for m, c in other.terms.items():
            accumulate(res, m, c)
        return DiffPoly(self.n, res, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return DiffPoly(self.n, {m: -c for m, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = exact(other)
            if not c:
                return DiffPoly.zero(self.n)
            return DiffPoly(
                self.n, {m: exact(q * c) for m, q in self.terms.items()}, _clean=True
            )
        if not isinstance(other, DiffPoly):
            return NotImplemented
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                accumulate(res, mono_mul(m1, m2), c1 * c2)
        return DiffPoly(self.n, res, _clean=True)

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
        parts = []
        for m in sorted(self.terms, key=mono_sort_key, reverse=True):
            parts.append(f"{self.terms[m]}*{m!r}")
        return "DiffPoly(" + " + ".join(parts) + ")"

    # -- structure queries -------------------------------------------

    def jetvars(self) -> set:
        out = set()
        for jets, _ in self.terms:
            for v, _e in jets:
                out.add(v)
        return out

    def deps(self) -> set:
        return {v[0] for v in self.jetvars()}

    def const_value(self):
        """Return the coefficient if the polynomial is constant, else None."""
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            (m, c), = self.terms.items()
            if m == mono_one(self.n):
                return c
        return None

    def involves_direction(self, i: int) -> bool:
        for jets, xe in self.terms:
            if xe[i]:
                return True
            for (_, idx), _e in jets:
                if idx[i]:
                    return True
        return False

    # -- calculus ----------------------------------------------------

    def partial(self, jet) -> "DiffPoly":
        """Partial derivative with respect to one jet variable."""
        res = {}
        for (jets, xe), c in self.terms.items():
            for t, (v, e) in enumerate(jets):
                if v == jet:
                    rest = jets[:t] + ((v, e - 1),) + jets[t + 1:] if e > 1 else jets[:t] + jets[t + 1:]
                    accumulate(res, (rest, xe), c * e)
                    break
        return DiffPoly(self.n, res, _clean=True)

    def total(self, i: int) -> "DiffPoly":
        """Total derivative D_i: d/dx_i plus the chain rule over all jets."""
        res = {}
        for (jets, xe), c in self.terms.items():
            if xe[i]:
                nxe = tuple(q - 1 if k == i else q for k, q in enumerate(xe))
                accumulate(res, (jets, nxe), c * xe[i])
            for t, ((dep, idx), e) in enumerate(jets):
                up = (dep, tuple(q + 1 if k == i else q for k, q in enumerate(idx)))
                if e > 1:
                    rest = jets[:t] + (((dep, idx), e - 1),) + jets[t + 1:]
                else:
                    rest = jets[:t] + jets[t + 1:]
                accumulate(res, (jets_mul(rest, ((up, 1),)), xe), c * e)
        return DiffPoly(self.n, res, _clean=True)

    def total_multi(self, idx) -> "DiffPoly":
        """Iterated total derivative D_sigma."""
        p = self
        for i, k in enumerate(idx):
            for _ in range(k):
                p = p.total(i)
        return p

    # -- substitutions -----------------------------------------------

    def substitute(self, images: dict) -> "DiffPoly":
        """Replace every jet variable in ``images`` by its polynomial, at once.

        This is the ring homomorphism that fixes every other variable: each
        term's kept monomial is multiplied by the product of the images of
        its replaced factors.  Powers and products are memoized per call.
        """
        powers = {}
        products = {}

        def power(v, e):
            k = e
            while k and (v, k) not in powers:
                k -= 1
            p = powers.get((v, k))
            for k in range(k + 1, e + 1):
                p = powers[(v, k)] = images[v] if k == 1 else p * images[v]
            return p

        res = {}
        for (jets, xe), c in self.terms.items():
            hits = tuple((v, e) for v, e in jets if v in images)
            if not hits:
                accumulate(res, (jets, xe), c)
                continue
            prod = products.get(hits)
            if prod is None:
                prod = power(*hits[0])
                for v, e in hits[1:]:
                    prod = prod * power(v, e)
                products[hits] = prod
            rest = (tuple((v, e) for v, e in jets if v not in images), xe)
            for m2, c2 in prod.terms.items():
                accumulate(res, mono_mul(rest, m2), c * c2)
        return DiffPoly(self.n, res, _clean=True)

    def subst_deps(self, values: dict) -> "DiffPoly":
        """Replace each dependent in ``values`` by its polynomial, at once;
        a jet of a replaced dependent becomes D_sigma of its value."""
        cache = {}
        return self.substitute({
            v: total_memo(cache, v[0], v[1], values[v[0]])
            for v in self.jetvars() if v[0] in values
        })

    def relabel_deps(self, mapping: dict) -> "DiffPoly":
        """Rename dependent indices (used to permute formal argument slots).

        The renamed factors are multiplied back together with ``jets_mul``,
        so two that land on the same jet merge into one power.
        """
        res = {}
        for (jets, xe), c in self.terms.items():
            nj = ()
            for (dep, idx), e in jets:
                nj = jets_mul(nj, (((mapping.get(dep, dep), idx), e),))
            accumulate(res, (nj, xe), c)
        return DiffPoly(self.n, res, _clean=True)


class VectorFunction:
    """Fixed-length vector of differential polynomials."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(entries)
        if not self.entries:
            raise ValueError("empty vector function")
        n = self.entries[0].n
        if any(p.n != n for p in self.entries):
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


def as_vector(v, n=None) -> VectorFunction:
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


def total_memo(cache: dict, key, sigma, base: DiffPoly, step=None) -> DiffPoly:
    """D_sigma(base), memoized in ``cache`` under ``(key, sigma)``.

    ``sigma`` is lowered in its first nonzero direction until it meets a
    cached index or zero; the path is then climbed back with ``total``,
    followed by ``step`` when given, caching every index on the way.
    Iterative, so the jet order is not limited by the recursion depth.
    """
    path = []
    while any(sigma) and (key, sigma) not in cache:
        i = next(k for k, q in enumerate(sigma) if q)
        path.append((sigma, i))
        sigma = sigma[:i] + (sigma[i] - 1,) + sigma[i + 1:]
    p = cache[(key, sigma)] if any(sigma) else base
    for up, i in reversed(path):
        # no name keeps D_i(p) alive while step runs, so step can free it early
        p = p.total(i) if step is None else step(p.total(i))
        cache[(key, up)] = p
    return p


def euler(frame: Frame, density: DiffPoly, deps=None) -> VectorFunction:
    """Variational derivative: component j is sum of (-D)^sigma d/du^j_sigma.

    By default only physical dependents are differentiated; pass ``deps``
    to include formal argument slots.
    """
    if deps is None:
        deps = frame.physical
        bad = density.deps() - set(deps)
        if bad:
            names = ", ".join(frame.dependents[d] for d in sorted(bad))
            raise ValueError(
                f"density involves non-physical dependents ({names}); "
                "pass deps explicitly to vary them"
            )
    out = []
    for j in deps:
        acc = DiffPoly.zero(frame.n)
        for v in density.jetvars():
            if v[0] != j:
                continue
            idx = v[1]
            term = density.partial(v).total_multi(idx)
            if sum(idx) % 2:
                term = -term
            acc = acc + term
        out.append(acc)
    return VectorFunction(out)


def evolutionary_apply(frame: Frame, phi: VectorFunction, f):
    """Apply the evolutionary field of phi: sum of D_sigma(phi^j) d/du^j_sigma.

    ``phi`` must have one component per physical dependent; ``f`` may be a
    polynomial or a vector (handled componentwise).
    """
    phys = frame.physical
    if len(phi) != len(phys):
        raise ValueError(
            f"evolutionary field needs {len(phys)} components, got {len(phi)}"
        )
    if isinstance(f, VectorFunction):
        return VectorFunction([evolutionary_apply(frame, phi, p) for p in f])
    slot = {d: k for k, d in enumerate(phys)}
    cache = {}
    acc = DiffPoly.zero(frame.n)
    for v in f.jetvars():
        dep, idx = v
        if dep in slot:
            acc = acc + f.partial(v) * total_memo(cache, dep, idx, phi[slot[dep]])
    return acc
