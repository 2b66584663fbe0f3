"""Output checks computed apart from hamcheck.

Nothing here imports hamcheck.  Normal forms are read back from the
report text, verdicts are compared with ``workloads.py``, the KdV
hierarchies are re-derived with sympy, and whole reports are compared
with the digests recorded in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from fractions import Fraction

INDEPENDENTS = "xt"
TERM_SEPARATOR = re.compile(r" ([+-]) ")
TASK_LINE = re.compile(r"^\s*task\s+(.*?)\s*;", re.M)
COMMENT = re.compile(r"#[^\n]*")


def digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def declared_tasks(source: str) -> list:
    """Task texts of a ``.ham`` file, whitespace collapsed, in file order."""
    return [" ".join(t.split()) for t in TASK_LINE.findall(COMMENT.sub("", source))]


# -- normal forms -------------------------------------------------------


def vector_components(text: str) -> list:
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not a rendered vector: {text[:40]!r}")
    return text[1:-1].split(", ")


def terms(poly: str):
    """Yield (coefficient, {factor name: exponent}) for each rendered term."""
    if poly == "0":
        return
    parts = TERM_SEPARATOR.split(poly)
    for sign, body in zip(["+"] + parts[1::2], parts[0::2]):
        negative = sign == "-"
        if body.startswith("-"):
            negative = not negative
            body = body[1:]
        coeff = Fraction(1)
        powers = {}
        for factor in body.split("*"):
            name, _, exp = factor.partition("^")
            if name[:1].isdigit():
                coeff *= Fraction(name)
            else:
                powers[name] = powers.get(name, 0) + int(exp or 1)
        yield (-coeff if negative else coeff), powers


def jet(name: str):
    """``u_xxt`` -> ("u", {"x": 2, "t": 1})."""
    dep, _, letters = name.partition("_")
    if not dep.isalpha() or dep in INDEPENDENTS or any(c not in INDEPENDENTS for c in letters):
        raise ValueError(f"not a jet variable: {name!r}")
    return dep, {i: letters.count(i) for i in INDEPENDENTS}


def reducible(name: str, leads) -> bool:
    dep, counts = jet(name)
    return any(
        dep == lead_dep and all(counts[i] >= k for i, k in mins.items())
        for lead_dep, mins in leads
    )


def kdv_weight(powers: dict) -> int:
    """Scaling weight: u has weight 2, D_x weight 1 and D_t weight 3."""
    total = 0
    for name, e in powers.items():
        _, counts = jet(name)
        total += e * (2 + counts["x"] + 3 * counts["t"])
    return total


def rational_point(seed: int):
    """A rational (x0, t0) away from the pole x^3 = 12 t of the exact solution."""
    rng = random.Random(seed)
    while True:
        x0 = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        t0 = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        if x0 ** 3 != 12 * t0:
            return x0, t0


def _shift(coeffs, a):
    """Coefficients of p(a + h) in h, from the coefficients of p(z)."""
    n = len(coeffs)
    return [
        sum(coeffs[i] * math.comb(i, j) * a ** (i - j) for i in range(j, n))
        for j in range(n)
    ]


def _taylor(num, den, order):
    """Taylor coefficients of num/den at h = 0, up to h^order."""
    q = []
    for j in range(order + 1):
        s = Fraction(num[j] if j < len(num) else 0)
        for i in range(1, min(j, len(den) - 1) + 1):
            s -= den[i] * q[j - i]
        q.append(s / den[0])
    return q


def kdv_solution_derivatives(x0, t0, order):
    """Derivatives of u = -6x(x^3 + 24t)/(x^3 - 12t)^2 at (x0, t0).

    Returns ([d^j u/dx^j], [d^j u/dt^j]) for j = 0..order, exactly.
    u solves u_t = u_xxx + 6*u*u_x (``kdv_solution_residual`` re-checks
    that with sympy).
    """
    num_x = [0, -144 * t0, 0, 0, -6]
    den_x = [144 * t0 ** 2, 0, 0, -24 * t0, 0, 0, 1]
    num_t = [-6 * x0 ** 4, -144 * x0]
    den_t = [x0 ** 6, -24 * x0 ** 3, 144]
    in_x = _taylor(_shift(num_x, x0), _shift(den_x, x0), order)
    in_t = _taylor(_shift(num_t, t0), _shift(den_t, t0), order)
    return (
        [math.factorial(j) * c for j, c in enumerate(in_x)],
        [math.factorial(j) * c for j, c in enumerate(in_t)],
    )


def kdv_solution_residual():
    """u_t - u_xxx - 6*u*u_x on the exact solution, simplified by sympy."""
    import sympy

    x, t = sympy.symbols("x t")
    u = -6 * x * (x ** 3 + 24 * t) / (x ** 3 - 12 * t) ** 2
    return sympy.cancel(
        sympy.diff(u, t) - sympy.diff(u, x, 3) - 6 * u * sympy.diff(u, x)
    )


def check_normal_form(text: str, spec, point) -> list:
    """Problems with one reduce task's normal form (empty when it is right)."""
    if spec.text is not None:
        return [] if text == spec.text else [f"normal form {text[:60]!r} != {spec.text!r}"]
    problems = []
    comps = vector_components(text)
    parsed = [list(terms(c)) for c in comps]
    bad = sorted({
        name for comp in parsed for _, powers in comp for name in powers
        if reducible(name, spec.leads)
    })
    if bad:
        problems.append(f"reducible jets in the normal form: {', '.join(bad[:5])}")
    k = spec.kdv_t_order
    if k is None:
        return problems
    (comp,) = parsed
    weights = {kdv_weight(powers) for _, powers in comp}
    if weights != {2 + 3 * k}:
        problems.append(f"monomial weights {sorted(weights)[:5]} != {{{2 + 3 * k}}}")
    if bad:
        return problems
    top = max(jet(name)[1]["x"] for _, powers in comp for name in powers)
    dx, dt = kdv_solution_derivatives(*point, max(top, k))
    value = Fraction(0)
    for coeff, powers in comp:
        for name, e in powers.items():
            coeff *= dx[jet(name)[1]["x"]] ** e
        value += coeff
    if value != dt[k]:
        problems.append(f"normal form at {point} on the exact solution != D_t^{k} u")
    return problems


# -- verdicts -----------------------------------------------------------


def task_problems(expect, entry: dict, point) -> list:
    """Problems with one task's entry in a report."""
    problems = []
    if entry["status"] != expect.status:
        problems.append(f"status {entry['status']} != {expect.status}")
    for key, want in expect.detail.items():
        if entry["detail"].get(key) != want:
            problems.append(f"{key} = {entry['detail'].get(key)!r} != {want!r}")
    if expect.normal_form is not None and "normal_form" in entry["detail"]:
        problems += check_normal_form(entry["detail"]["normal_form"], expect.normal_form, point)
    return problems


# -- KdV hierarchies, re-derived with sympy -----------------------------

A1_TEXT = "Dx"
A2_TEXT = "Dx^3 + 4*u*Dx + 2*u_x"


def hierarchy_problems(source: str) -> list:
    """Check u_t = Dx(gradient) and A1 psi_i = A2 psi_(i+1) along each chain.

    Reads the flow, the operators and the chain vectors from the source
    text and re-derives both identities with sympy.
    """
    import sympy

    source = COMMENT.sub("", source)
    x = sympy.Symbol("x")
    u = sympy.Function("u")(x)

    def expr(text):
        text = re.sub(r"\bu_(x+)\b", lambda m: f"Derivative(U, x, {len(m.group(1))})", text)
        text = re.sub(r"\bu\b", "U", text).replace("^", "**")
        return sympy.sympify(
            text, locals={"U": u, "x": x, "Derivative": sympy.Derivative}
        ).doit()

    def a2(f):
        return sympy.diff(f, x, 3) + 4 * u * sympy.diff(f, x) + 2 * sympy.diff(u, x) * f

    ops = dict(re.findall(r"operator\s+(\w+)\s*=\s*(.*?)\s*;", source))
    if ops.get("A1") != A1_TEXT or ops.get("A2") != A2_TEXT:
        return [f"operators A1, A2 are not {A1_TEXT!r}, {A2_TEXT!r}"]
    vectors = dict(re.findall(r"vector\s+(\w+)\s*=\s*\[(.*?)\]\s*;", source))
    flows = re.findall(r"solve\s+u_t\s*=\s*(.*?)\s*;", source)
    chains = [
        [name.strip() for name in args.split(",")]
        for args in re.findall(r"task\s+magri\(\w+,\s*A1,\s*A2,\s*(.*?)\)\s*;", source)
        + re.findall(r"task\s+lift\(\w+,\s*(.*?)\)\s*;", source)
    ]
    if len(flows) != 1 or not chains:
        return ["expected one flow u_t = ... and at least one chain"]
    problems = []
    flow = expr(flows[0])
    for chain in chains:
        psi = [expr(vectors[name]) for name in chain]
        if sympy.expand(flow - sympy.diff(psi[0], x)) != 0:
            problems.append(f"flow != Dx({chain[0]})")
        for (na, a), (nb, b) in zip(zip(chain, psi), zip(chain[1:], psi[1:])):
            if sympy.expand(sympy.diff(a, x) - a2(b)) != 0:
                problems.append(f"A1 {na} != A2 {nb}")
    return problems
