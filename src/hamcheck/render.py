"""Canonical text rendering of polynomials, vectors and operators.

The term order is fixed (graded, then lexicographic over jet factors,
then explicit-variable exponents) so that identical values always render
to identical bytes; golden files and report determinism rely on this.
"""

from __future__ import annotations

from .frame import Frame
from .ops import CDiffOp
from .poly import DiffPoly, VectorFunction


def jet_text(frame: Frame, jet) -> str:
    dep, idx = jet
    name = frame.dependents[dep]
    if not any(idx):
        return name
    letters = "".join(frame.independents[i] * k for i, k in enumerate(idx))
    return f"{name}_{letters}"


def _int_text(k: int) -> str:
    """Decimal digits of ``k >= 0`` of any size.

    ``str`` refuses an int past the interpreter's digit limit (4,300 digits
    by default).  The limit holds for the whole process, so it is left as it
    is: such an int is split by a power of ten into halves, each converted
    on its own.
    """
    try:
        return str(k)
    except ValueError:
        half = k.bit_length() * 3 // 20  # under half the digits: log10(2) > 0.3
        high, low = divmod(k, 10 ** half)
        return _int_text(high) + _int_text(low).zfill(half)


def _rational_text(c) -> str:
    """``str`` of a non-negative int or Fraction, whatever its size."""
    text = _int_text(c.numerator)
    return text if c.denominator == 1 else f"{text}/{_int_text(c.denominator)}"


def poly_text(frame: Frame, p: DiffPoly) -> str:
    if p.is_zero():
        return "0"
    names = {}

    def factor(v, e):
        base = names.get(v)
        if base is None:
            base = names[v] = (
                frame.independents[v] if type(v) is int else jet_text(frame, v)
            )
        return base if e == 1 else f"{base}^{e}"

    parts = []
    for factors, c in p.canonical_terms(factor):
        mag = abs(c)
        try:
            if factors:
                body = "*".join(factors)
                if mag != 1:
                    body = f"{mag}*{body}"
            else:
                body = str(mag)
        except ValueError:  # a coefficient past the interpreter's digit limit
            body = "*".join([_rational_text(mag), *factors])
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def vector_text(frame: Frame, v: VectorFunction) -> str:
    return "[" + ", ".join(poly_text(frame, p) for p in v) + "]"


def _dmono_text(frame: Frame, sigma) -> str:
    out = []
    for i, k in enumerate(sigma):
        if k:
            base = f"D{frame.independents[i]}"
            out.append(base if k == 1 else f"{base}^{k}")
    return "*".join(out)


def entry_text(frame: Frame, terms: list) -> str:
    """One operator entry, given as its (sigma, coefficient) pairs."""
    if not terms:
        return "0"
    terms.sort(key=lambda t: (sum(t[0]), t[0]))
    parts = []
    for sigma, a in terms:
        dmono = _dmono_text(frame, sigma)
        unit = a.const_value()
        if dmono and unit == 1:
            body = dmono
        elif dmono and unit == -1:
            body = f"-{dmono}"
        else:
            atext = poly_text(frame, a)
            if not dmono:
                body = atext
            elif " " in atext or atext.startswith("-"):
                body = f"({atext})*{dmono}"
            else:
                body = f"{atext}*{dmono}"
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(f"- {body[1:]}")
        else:
            parts.append(f"+ {body}")
    return " ".join(parts)


def op_text(frame: Frame, op: CDiffOp) -> str:
    cells = {}
    for (r, c, sigma), a in op.entries.items():
        cells.setdefault((r, c), []).append((sigma, a))
    if op.rows == 1 and op.cols == 1:
        return entry_text(frame, cells.get((0, 0), []))
    rows = []
    for r in range(op.rows):
        row = (entry_text(frame, cells.get((r, c), [])) for c in range(op.cols))
        rows.append("[" + ", ".join(row) + "]")
    return "[" + ", ".join(rows) + "]"
