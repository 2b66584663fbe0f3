"""Coordinate frames on jet space: independents, dependents, jet variables, rankings.

A jet variable is a pair ``(dep, idx)`` where ``dep`` is the index of a
dependent variable and ``idx`` is a multi-index of derivative counts, one
per independent variable.  Frames give names and flags to those indices;
the polynomial kernel itself works on bare indices so that frames can be
extended (with formal argument slots) without touching existing data.
"""

from __future__ import annotations

from operator import le, sub

MultiIndex = tuple
JetVar = tuple


def index_sub(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(map(sub, a, b))


def index_le(a: MultiIndex, b: MultiIndex) -> bool:
    """Componentwise partial order: a divides b."""
    return all(map(le, a, b))


def _valid_name(name: str) -> bool:
    return bool(name) and (name[0].isalpha() or name[0] == "_") and all(
        c.isalnum() or c == "_" for c in name
    )


class Frame:
    """Declared independent and dependent variables, in canonical order.

    ``formal`` holds indices of dependents that are formal argument slots
    (operator arguments such as the psi's in bracket computations) rather
    than physical unknowns of an equation.
    """

    __slots__ = ("independents", "dependents", "formal")

    def __init__(self, independents: tuple, dependents: tuple,
                 formal: frozenset = frozenset()):
        if not independents or not dependents:
            raise ValueError("frame needs at least one independent and one dependent")
        names = list(independents) + list(dependents)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        for name in names:
            if not _valid_name(name):
                raise ValueError(f"bad variable name {name!r}")
        if not all(0 <= j < len(dependents) for j in formal):
            raise ValueError("formal flag out of range")
        self.independents = independents
        self.dependents = dependents
        self.formal = formal

    @property
    def n(self) -> int:
        return len(self.independents)

    @property
    def m(self) -> int:
        return len(self.dependents)

    @property
    def physical(self) -> tuple:
        return tuple(j for j in range(self.m) if j not in self.formal)

    def indep_index(self, name: str) -> int:
        try:
            return self.independents.index(name)
        except ValueError:
            raise ValueError(f"unknown independent variable {name!r}") from None

    def fresh_names(self, stem: str, count: int) -> tuple:
        """Generate ``count`` dependent names based on ``stem`` avoiding clashes."""
        taken = set(self.independents) | set(self.dependents)
        out = []
        k = 0
        while len(out) < count:
            k += 1
            cand = f"{stem}{k}"
            if cand not in taken:
                taken.add(cand)
                out.append(cand)
        return tuple(out)

    def extend(self, names, formal: bool = True):
        """Append dependents; returns (new frame, indices of the new slots)."""
        names = tuple(names)
        new_ids = tuple(range(self.m, self.m + len(names)))
        flags = set(self.formal)
        if formal:
            flags.update(new_ids)
        frame = Frame(self.independents, self.dependents + names, frozenset(flags))
        return frame, new_ids


class Ranking:
    """Prolongation-compatible total order on jet variables.

    ``indep_order`` lists independent-variable indices from most to least
    dominant.  Two jet variables compare by the precedence-permuted
    multi-index, lexicographically, and ties (same multi-index, different
    dependent) go to the lower dependent index.  This is a well-order and
    satisfies v < w  =>  D_i v < D_i w.
    """

    __slots__ = ("indep_order",)

    def __init__(self, indep_order: tuple):
        if sorted(indep_order) != list(range(len(indep_order))):
            raise ValueError("indep_order must be a permutation of independent indices")
        self.indep_order = indep_order

    def key(self, jet: JetVar):
        dep, idx = jet
        return (tuple(map(idx.__getitem__, self.indep_order)), -dep)

    def max_jet(self, jets):
        return max(jets, key=self.key)

    @staticmethod
    def of(frame: Frame, *indep_names) -> "Ranking":
        """Build a ranking from independent names, most dominant first."""
        order = tuple(frame.indep_index(nm) for nm in indep_names)
        if sorted(order) != list(range(frame.n)):
            raise ValueError("ranking must mention every independent exactly once")
        return Ranking(order)
