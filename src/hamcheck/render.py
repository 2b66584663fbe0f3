"""Canonical text rendering of polynomials, vectors and operators.

The term order is fixed (graded, then lexicographic over jet factors,
then explicit-variable exponents) so that identical values always render
to identical bytes; golden files and report determinism rely on this.
"""

from __future__ import annotations

from .frame import Frame
from .ops import CDiffOp
from .poly import DiffPoly, VectorFunction, mono_sort_key


def jet_text(frame: Frame, jet) -> str:
    dep, idx = jet
    name = frame.dependents[dep]
    if not any(idx):
        return name
    letters = "".join(frame.independents[i] * k for i, k in enumerate(idx))
    return f"{name}_{letters}"


def _factor_texts(frame: Frame, mono) -> list:
    jets, xe = mono
    out = []
    for i, e in enumerate(xe):
        if e:
            base = frame.independents[i]
            out.append(base if e == 1 else f"{base}^{e}")
    for v, e in jets:
        base = jet_text(frame, v)
        out.append(base if e == 1 else f"{base}^{e}")
    return out


def poly_text(frame: Frame, p: DiffPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for mono, c in sorted(p.items(), key=lambda mc: mono_sort_key(mc[0]), reverse=True):
        factors = _factor_texts(frame, mono)
        mag = abs(c)
        if factors:
            body = "*".join(factors)
            if mag != 1:
                body = f"{mag}*{body}"
        else:
            body = str(mag)
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


def entry_text(frame: Frame, op: CDiffOp, r: int, c: int) -> str:
    terms = op.entry_terms(r, c)
    if not terms:
        return "0"
    terms.sort(key=lambda t: (sum(t[0]), t[0]))
    parts = []
    for sigma, a in terms:
        dmono = _dmono_text(frame, sigma)
        atext = poly_text(frame, a)
        if not dmono:
            body = atext
        elif a == DiffPoly.const(op.n, 1):
            body = dmono
        elif a == DiffPoly.const(op.n, -1):
            body = f"-{dmono}"
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
    if op.rows == 1 and op.cols == 1:
        return entry_text(frame, op, 0, 0)
    rows = []
    for r in range(op.rows):
        rows.append(
            "[" + ", ".join(entry_text(frame, op, r, c) for c in range(op.cols)) + "]"
        )
    return "[" + ", ".join(rows) + "]"
