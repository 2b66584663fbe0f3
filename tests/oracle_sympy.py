"""Independent oracle for total derivatives and operators in them.

Translates kernel polynomials into sympy expressions over opaque symbols
and computes the total derivative with sympy's own differentiation (the
function-substitution trick), so the comparison does not share code with
the kernel's chain-rule implementation.  Jet substitution goes through
sympy's ``xreplace``; a naive rewriter built on both gives normal forms
on an orthonomic system.  Operators are applied to formal
arguments with those derivatives: composition against successive
application, and the adjoint against sympy's product rule.  The Euler
operator and the linearization are built from sympy's partial
derivatives and the same total derivative, and from them, with operator
application, the bivector certification identity theta(q).  A scalar
declaration expression is read by sympy's own parser, with each jet or
coordinate name bound to its symbol.
"""

import re

import sympy
from sympy.parsing.sympy_parser import convert_xor, standard_transformations

from hamcheck import DiffPoly


def _jet_symbol(dep, idx):
    return sympy.Symbol("j_" + str(dep) + "_" + "_".join(map(str, idx)))


def _x_symbol(i):
    return sympy.Symbol(f"x{i}")


def to_sympy(p: DiffPoly):
    total = sympy.Integer(0)
    for (jets, xe), c in p.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for i, e in enumerate(xe):
            if e:
                term *= _x_symbol(i) ** e
        for (dep, idx), e in jets:
            term *= _jet_symbol(dep, idx) ** e
        total += term
    return sympy.expand(total)


def sympy_substitute(p: DiffPoly, images: dict):
    """Replace jets by polynomials with sympy's simultaneous ``xreplace``."""
    table = {_jet_symbol(dep, idx): to_sympy(q) for (dep, idx), q in images.items()}
    return sympy.expand(to_sympy(p).xreplace(table))


def sympy_parse(frame, text: str):
    """The scalar expression ``text`` of the declaration language, read by
    sympy's parser: ``^`` is a power, ``p/q`` a rational, a dependent name
    with an optional ``_suffix`` of independent letters a jet, and an
    independent name its coordinate."""
    names = {}
    for name in set(re.findall(r"[^\W\d]\w*", text)):
        if name in frame.independents:
            names[name] = _x_symbol(frame.independents.index(name))
            continue
        stem, _, suffix = name.partition("_")
        idx = [0] * frame.n
        for ch in suffix:
            idx[frame.independents.index(ch)] += 1
        names[name] = _jet_symbol(frame.dependents.index(stem), tuple(idx))
    return sympy.expand(sympy.parse_expr(
        text, local_dict=names,
        transformations=standard_transformations + (convert_xor,),
    ))


def from_kernel_equal(p: DiffPoly, expr) -> bool:
    return sympy.expand(to_sympy(p) - expr) == 0


def _jet_of(symbol):
    """(dep, idx) of a jet symbol, or None for any other symbol."""
    parts = symbol.name.split("_")
    if parts[0] != "j":
        return None
    return int(parts[1]), tuple(int(q) for q in parts[2:])


def sympy_total(expr, i: int):
    """Total derivative D_i of a sympy expression in jet and x symbols.

    Each jet symbol is temporarily made a function of x_i; sympy's diff
    produces Derivative nodes which are then renamed to the prolonged jet
    symbols.
    """
    x = _x_symbol(i)
    jets = sorted(
        (j for j in map(_jet_of, expr.free_symbols) if j is not None)
    )
    funcs = {_jet_symbol(dep, idx): sympy.Function(f"F_{dep}_" + "_".join(map(str, idx)))(x)
             for dep, idx in jets}
    expr = sympy.diff(expr.xreplace(funcs), x)
    back = {}
    for dep, idx in jets:
        f = funcs[_jet_symbol(dep, idx)]
        up = tuple(q + 1 if k == i else q for k, q in enumerate(idx))
        back[sympy.Derivative(f, x)] = _jet_symbol(dep, up)
        back[f] = _jet_symbol(dep, idx)
    return sympy.expand(expr.xreplace(back))


def sympy_total_derivative(p: DiffPoly, i: int):
    """Total derivative of a kernel polynomial, computed on the sympy side."""
    return sympy_total(to_sympy(p), i)


def sympy_total_multi(expr, sigma):
    for i, k in enumerate(sigma):
        for _ in range(k):
            expr = sympy_total(expr, i)
    return expr


def sympy_reduce(expr, rules):
    """Normal form of a sympy expression on an orthonomic system, by naive
    rewriting.  ``rules`` lists ``(dep, lead index, solved form)`` with the
    solved form as a sympy expression.  Every jet that is a prolongation
    lead + tau of a lead (the first such rule) is replaced by D_tau of its
    solved form, taken with ``sympy_total_multi``, and this repeats until
    no such jet is left.  On a passive system the result is the unique
    normal form."""
    while True:
        table = {}
        for sym in expr.free_symbols:
            jet = _jet_of(sym)
            if jet is None:
                continue
            for dep, lead, rhs in rules:
                if dep == jet[0] and all(a <= b for a, b in zip(lead, jet[1])):
                    tau = tuple(b - a for a, b in zip(lead, jet[1]))
                    table[sym] = sympy_total_multi(rhs, tau)
                    break
        if not table:
            return expr
        expr = sympy.expand(expr.xreplace(table))


def sympy_euler(expr, deps):
    """Variational derivative of a sympy density: component j is the sum of
    (-D)^sigma of d expr / d u^j_sigma over the jets of dependent j."""
    out = []
    for j in deps:
        acc = sympy.Integer(0)
        for sym in expr.free_symbols:
            jet = _jet_of(sym)
            if jet is not None and jet[0] == j:
                term = sympy_total_multi(sympy.diff(expr, sym), jet[1])
                acc += -term if sum(jet[1]) % 2 else term
        out.append(sympy.expand(acc))
    return out


def sympy_linearize(expr, phis: dict):
    """Linearization of a sympy expression in the direction ``phis``
    (dependent -> sympy expression): d/de of expr with every jet u^j_sigma
    replaced by u^j_sigma + e*D_sigma(phi_j), at e = 0."""
    eps = sympy.Symbol("eps")
    table = {}
    for sym in expr.free_symbols:
        jet = _jet_of(sym)
        if jet is not None and jet[0] in phis:
            table[sym] = sym + eps * sympy_total_multi(phis[jet[0]], jet[1])
    return sympy.expand(sympy.diff(expr.xreplace(table), eps).subs(eps, 0))


def formal_args(n: int, first_dep: int, count: int):
    """Bare jet symbols of ``count`` fresh dependents, as operator arguments."""
    return [_jet_symbol(first_dep + k, (0,) * n) for k in range(count)]


def sympy_apply(op, args):
    """An operator in total derivatives applied to sympy expressions:
    component r is the sum of a * D_sigma(args[c]) over entries (r, c, sigma)."""
    out = [sympy.Integer(0)] * op.rows
    for (r, c, sigma), a in op.entries.items():
        out[r] += to_sympy(a) * sympy_total_multi(args[c], sigma)
    return [sympy.expand(e) for e in out]


def sympy_apply_adjoint(op, args):
    """The formal adjoint of an operator applied to sympy expressions:
    component c is the sum of (-D)^sigma (a * args[r]) over entries
    (r, c, sigma), differentiated as a product by sympy."""
    out = [sympy.Integer(0)] * op.cols
    for (r, c, sigma), a in op.entries.items():
        term = sympy_total_multi(to_sympy(a) * args[r], sigma)
        out[c] += -term if sum(sigma) % 2 else term
    return [sympy.expand(e) for e in out]


def sympy_theta(originals, deps, op, q):
    """theta(q) = l_E(A(q)) - A*(l*_E(q)) for the equations ``originals``
    (kernel polynomials) in the dependents ``deps`` and the operator A on
    the formal arguments ``q``: l_E along A(q) by ``sympy_linearize``, and
    l*_E(q) as the Euler derivative of the pairing sum_k q_k * F_k along
    ``deps``, which it equals because q does not depend on them."""
    fs = [to_sympy(f) for f in originals]
    lin = [sympy_linearize(f, dict(zip(deps, sympy_apply(op, q)))) for f in fs]
    lstar_q = sympy_euler(sympy.expand(sum(a * f for a, f in zip(q, fs))), deps)
    return [sympy.expand(a - b)
            for a, b in zip(lin, sympy_apply_adjoint(op, lstar_q))]


def sympy_equal(exprs1, exprs2) -> bool:
    return len(exprs1) == len(exprs2) and all(
        sympy.expand(a - b) == 0 for a, b in zip(exprs1, exprs2)
    )
