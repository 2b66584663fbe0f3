"""Recursive-descent parser for the hamcheck declaration language.

The grammar covers frame declarations, equations in solved form,
operators (scalar expressions or row-major bracket matrices), vectors of
densities, equivalence data blocks, and a task list.  Every declared name
lives in one table.  Expressions are evaluated during parsing against the
declared frame, and equation blocks are checked against it; task
arguments that name equations, equivalences or the outputs of deform
tasks stay symbolic until run time.
"""

from __future__ import annotations

from fractions import Fraction

from .frame import Frame, Ranking
from .ops import CDiffOp, DimensionMismatch
from .poly import DiffPoly, ExponentOverflow, VectorFunction

TASK_KINDS = (
    "reduce", "symmetry", "genfn", "bivector", "schouten", "hamiltonian",
    "poisson", "magri", "equivalence", "transport", "deform", "lift",
)

# Brackets nested deeper than this are a ParseError; each level costs a
# few interpreter frames, so the limit stays well inside the recursion limit.
MAX_NESTING = 100

_PUNCT = {
    ";": "SEMI", ",": "COMMA", "(": "LPAREN", ")": "RPAREN",
    "{": "LBRACE", "}": "RBRACE", "[": "LBRACK", "]": "RBRACK",
    "=": "EQ", "+": "PLUS", "*": "STAR", "^": "CARET",
    ">": "GT", "/": "SLASH", "'": "PRIME",
}


class ParseError(Exception):
    def __init__(self, msg, line, col, expected=()):
        self.msg = msg
        self.line = line
        self.col = col
        self.expected = tuple(sorted(expected))
        text = f"{line}:{col}: {msg}"
        if self.expected:
            text += " (expected: " + ", ".join(self.expected) + ")"
        super().__init__(text)


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __eq__(self, other):
        if not isinstance(other, Token):
            return NotImplemented
        return (self.kind, self.text, self.line, self.col) == (
            other.kind, other.text, other.line, other.col
        )


def tokenize(source: str):
    tokens = []
    line, col = 1, 1
    i = 0
    size = len(source)
    while i < size:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < size and source[i] != "\n":
                i += 1
            continue
        if ch == "-":
            if i + 1 < size and source[i + 1] == ">":
                tokens.append(Token("ARROW", "->", line, col))
                i += 2
                col += 2
                continue
            tokens.append(Token("MINUS", "-", line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < size and source[j].isdigit():
                j += 1
            tokens.append(Token("INT", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < size and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", source[i:j], line, col))
            col += j - i
            i = j
            continue
        kind = _PUNCT.get(ch)
        if kind is None:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        tokens.append(Token(kind, ch, line, col))
        i += 1
        col += 1
    tokens.append(Token("EOF", "", line, col))
    return tokens


# -- parse results ------------------------------------------------------


class NameRef:
    """A name whose value is built at run time: an equation, an
    equivalence or a deform output."""

    __slots__ = ("name", "line", "col")

    def __init__(self, name: str, line: int, col: int):
        self.name = name
        self.line = line
        self.col = col


class Direction:
    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


class TaskDecl:
    __slots__ = ("kind", "args", "alias", "line", "col")

    def __init__(self, kind: str, args: tuple, alias: str, line: int, col: int):
        self.kind = kind
        self.args = args
        self.alias = alias
        self.line = line
        self.col = col


class EquationDecl:
    """An equation block, checked against its frame but not yet solved.

    ``frame`` is the declared frame, or its initial segment of dependents
    when the block restricts them; ``solved`` holds the (lead jet, rhs)
    pairs as written; ``passivity`` is None when the block sets no depth.
    """

    __slots__ = ("frame", "solved", "ranking", "passivity")

    def __init__(self, frame: Frame, solved: tuple, ranking: Ranking, passivity: int):
        self.frame = frame
        self.solved = solved
        self.ranking = ranking
        self.passivity = passivity


# the connecting operators of an equivalence block, in the order
# EquivalenceData takes them
EQUIVALENCE_FIELDS = ("alpha", "alpha'", "beta", "beta'", "s1", "s2")


class EquivalenceDecl:
    __slots__ = ("system1", "system2", "ops")

    def __init__(self, system1: str, system2: str, ops: tuple):
        self.system1 = system1
        self.system2 = system2
        self.ops = ops


class Program:
    """A parsed file: its frame, its names in declaration order and its tasks.

    A name's value is an ``EquationDecl``, an operator (``CDiffOp``), a
    vector (``VectorFunction``), an ``EquivalenceDecl``, or the deform
    ``TaskDecl`` that produces it at run time.
    """

    __slots__ = ("frame", "names", "tasks")

    def __init__(self, frame: Frame, names: dict, tasks: list):
        self.frame = frame
        self.names = names
        self.tasks = tasks


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self.independents = None
        self.dependents = None
        self.frame = None
        self.names = {}
        self.tasks = []
        self.nesting = 0  # open '(' and '[' around the current operand

    # -- token helpers --------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what=None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text if tok.text else "end of input"
            raise ParseError(
                f"unexpected {shown!r}", tok.line, tok.col,
                expected=(what or kind,),
            )
        return self.next()

    def expect_ident(self, what="identifier") -> Token:
        return self.expect("IDENT", what)

    def fail(self, tok: Token, msg, expected=()):
        raise ParseError(msg, tok.line, tok.col, expected=expected)

    # -- names ------------------------------------------------------------

    def declare(self, tok: Token, value, name=None):
        name = name or tok.text
        if name in self.names:
            self.fail(tok, f"name {name!r} is already declared")
        self.names[name] = value

    def require_frame(self, tok: Token) -> Frame:
        if self.frame is None:
            self.fail(tok, "independents and dependents must be declared first")
        return self.frame

    # -- program ------------------------------------------------------------

    def parse_program(self) -> Program:
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind != "IDENT":
                self.fail(tok, f"unexpected {tok.text!r}", expected=("statement",))
            word = tok.text
            if word == "independents":
                self.parse_independents()
            elif word == "dependents":
                self.parse_dependents()
            elif word == "equation":
                self.parse_equation()
            elif word == "operator":
                self.parse_operator()
            elif word == "vector":
                self.parse_vector()
            elif word == "equivalence":
                self.parse_equivalence()
            elif word == "task":
                self.parse_task()
            else:
                self.fail(
                    tok, f"unknown statement {word!r}",
                    expected=("independents", "dependents", "equation", "operator",
                              "vector", "equivalence", "task"),
                )
        return Program(self.frame, self.names, self.tasks)

    def _name_list(self):
        names = [self.expect_ident().text]
        while self.peek().kind == "COMMA":
            self.next()
            names.append(self.expect_ident().text)
        self.expect("SEMI", "';'")
        return names

    def parse_independents(self):
        tok = self.next()
        if self.independents is not None:
            self.fail(tok, "independents already declared")
        self.independents = tuple(self._name_list())
        for nm in self.independents:
            if len(nm) != 1:
                raise ParseError(
                    f"independent {nm!r} must be a single letter "
                    "(jet suffixes are letter sequences)", tok.line, tok.col)
        self._maybe_build_frame(tok)

    def parse_dependents(self):
        tok = self.next()
        if self.dependents is not None:
            self.fail(tok, "dependents already declared")
        self.dependents = tuple(self._name_list())
        self._maybe_build_frame(tok)

    def _maybe_build_frame(self, tok: Token):
        if self.independents is None or self.dependents is None:
            return
        for nm in self.dependents:
            if len(nm) == 2 and nm[0] == "D" and nm[1] in self.independents:
                self.fail(tok, f"dependent {nm!r} collides with the derivative token")
        try:
            self.frame = Frame(self.independents, self.dependents)
        except ValueError as exc:
            self.fail(tok, str(exc))

    # -- jet variables -------------------------------------------------------

    def resolve_jet(self, frame: Frame, tok: Token):
        """Split ident at the last underscore into dependent and suffix."""
        text = tok.text
        if text in frame.dependents:
            return (frame.dependents.index(text), (0,) * frame.n)
        if "_" in text:
            stem, suffix = text.rsplit("_", 1)
            if stem in frame.dependents and suffix:
                counts = [0] * frame.n
                for ch in suffix:
                    if ch not in frame.independents:
                        self.fail(tok, f"{ch!r} is not an independent variable")
                    counts[frame.independents.index(ch)] += 1
                return (frame.dependents.index(stem), tuple(counts))
        return None

    # -- expressions ----------------------------------------------------------

    def parse_opexpr(self, frame: Frame) -> CDiffOp:
        left = self.parse_term(frame)
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.next()
            right = self.parse_term(frame)
            try:
                left = left + right if op.kind == "PLUS" else left - right
            except DimensionMismatch as exc:
                self.fail(op, f"dimension mismatch: {exc}")
        return left

    def parse_term(self, frame: Frame) -> CDiffOp:
        left = self.parse_unary(frame)
        while self.peek().kind == "STAR":
            star = self.next()
            right = self.parse_unary(frame)
            try:
                left = left.compose(right)
            except DimensionMismatch as exc:
                self.fail(star, f"dimension mismatch: {exc}")
            except ExponentOverflow as exc:
                self.fail(star, str(exc))
        return left

    def parse_unary(self, frame: Frame) -> CDiffOp:
        negate = False
        while self.peek().kind == "MINUS":
            self.next()
            negate = not negate
        out = self.parse_power(frame)
        return -1 * out if negate else out

    def parse_power(self, frame: Frame) -> CDiffOp:
        base = self.parse_atom(frame)
        if self.peek().kind == "CARET":
            caret = self.next()
            exp = self.expect("INT", "integer exponent")
            k = int(exp.text)
            if base.rows != base.cols:
                self.fail(caret, "power of a non-square operator")
            out = CDiffOp.identity(base.n, base.rows)
            try:
                for _ in range(k):
                    out = out.compose(base)
            except ExponentOverflow as exc:
                self.fail(caret, str(exc))
            return out
        return base

    def _rational(self, tok: Token) -> Fraction:
        num = int(tok.text)
        if self.peek().kind == "SLASH":
            self.next()
            tok = self.expect("INT", "denominator")
            den = int(tok.text)
            if not den:
                self.fail(tok, "zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def parse_atom(self, frame: Frame) -> CDiffOp:
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            return CDiffOp.mult(DiffPoly.const(frame.n, self._rational(tok)))
        if tok.kind in ("LPAREN", "LBRACK"):
            if self.nesting >= MAX_NESTING:
                self.fail(tok, f"brackets nested deeper than {MAX_NESTING} levels")
            self.nesting += 1
            if tok.kind == "LBRACK":
                inner = self.parse_matrix(frame)
            else:
                self.next()
                inner = self.parse_opexpr(frame)
                self.expect("RPAREN", "')'")
            self.nesting -= 1
            return inner
        if tok.kind == "IDENT":
            self.next()
            text = tok.text
            if len(text) == 2 and text[0] == "D" and text[1] in frame.independents:
                return CDiffOp.d(frame.n, frame.independents.index(text[1]))
            jet = self.resolve_jet(frame, tok)
            if jet is not None:
                return CDiffOp.mult(DiffPoly.jet(frame.n, jet[0], jet[1]))
            if text in frame.independents:
                return CDiffOp.mult(DiffPoly.coord(frame.n, frame.indep_index(text)))
            value = self.names.get(text)
            if isinstance(value, CDiffOp):
                return value
            if value is not None:
                self.fail(tok, f"{text!r} cannot appear inside an operator expression")
            self.fail(tok, f"unknown identifier {text!r}")
        self.fail(tok, f"unexpected {tok.text!r}", expected=("operand",))

    def parse_matrix(self, frame: Frame) -> CDiffOp:
        open_tok = self.expect("LBRACK", "'['")
        rows = []
        if self.peek().kind != "LBRACK":
            self.fail(self.peek(), "matrix rows must be bracketed", expected=("'['",))
        while True:
            self.expect("LBRACK", "'['")
            row = [self.parse_opexpr(frame)]
            while self.peek().kind == "COMMA":
                self.next()
                row.append(self.parse_opexpr(frame))
            self.expect("RBRACK", "']'")
            rows.append(row)
            if self.peek().kind == "COMMA":
                self.next()
                continue
            break
        self.expect("RBRACK", "']'")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            self.fail(open_tok, "dimension mismatch: ragged matrix rows")
        for row in rows:
            for c in row:
                if (c.rows, c.cols) != (1, 1):
                    self.fail(open_tok, "matrix entries must be scalar operators")
        return CDiffOp.block(rows)

    def poly_of(self, op: CDiffOp, tok: Token) -> DiffPoly:
        p = op.as_poly()
        if p is None:
            self.fail(tok, "expected a polynomial (no derivative operators)")
        return p

    def parse_poly(self, frame: Frame) -> DiffPoly:
        tok = self.peek()
        return self.poly_of(self.parse_opexpr(frame), tok)

    def parse_vector_literal(self, frame: Frame) -> VectorFunction:
        self.expect("LBRACK", "'['")
        tok = self.peek()
        entries = [self.poly_of(self.parse_opexpr(frame), tok)]
        while self.peek().kind == "COMMA":
            self.next()
            tok = self.peek()
            entries.append(self.poly_of(self.parse_opexpr(frame), tok))
        self.expect("RBRACK", "']'")
        return VectorFunction(entries)

    # -- declarations ----------------------------------------------------------

    def parse_equation(self):
        kw = self.next()
        frame = self.require_frame(kw)
        name = self.expect_ident("equation name")
        self.expect("LBRACE", "'{'")
        deps_tok = ranking_tok = None
        solves = []
        passivity = None
        while self.peek().kind != "RBRACE":
            word = self.expect_ident("equation clause")
            if word.text == "dependents":
                deps_tok, deps = word, tuple(self._name_list())
            elif word.text == "solve":
                lhs_tok = self.expect_ident("jet variable")
                jet = self.resolve_jet(frame, lhs_tok)
                if jet is None:
                    self.fail(lhs_tok, f"unknown jet variable {lhs_tok.text!r}")
                self.expect("EQ", "'='")
                rhs_tok = self.peek()
                rhs = self.poly_of(self.parse_opexpr(frame), rhs_tok)
                self.expect("SEMI", "';'")
                solves.append((lhs_tok, jet, rhs))
            elif word.text == "ranking":
                ranking_tok = word
                ranking = [self.expect_ident("independent name").text]
                while self.peek().kind == "GT":
                    self.next()
                    ranking.append(self.expect_ident("independent name").text)
                self.expect("SEMI", "';'")
            elif word.text == "passivity":
                depth = self.expect("INT", "depth")
                passivity = int(depth.text)
                self.expect("SEMI", "';'")
            else:
                self.fail(word, f"unknown equation clause {word.text!r}",
                          expected=("dependents", "solve", "ranking", "passivity"))
        self.expect("RBRACE", "'}'")
        if not solves:
            self.fail(kw, f"equation {name.text!r} has no solve clauses")
        if ranking_tok is None:
            self.fail(kw, f"equation {name.text!r} needs a ranking clause")
        if deps_tok is not None:
            if frame.dependents[: len(deps)] != deps:
                self.fail(deps_tok, "restricted dependents must be an initial "
                          "segment of the declared dependents")
            frame = Frame(frame.independents, deps)
        for lhs_tok, jet, rhs in solves:
            if any(d >= frame.m for d in {jet[0]} | rhs.deps()):
                self.fail(lhs_tok, f"equation {name.text!r} mentions dependents "
                          "outside its restricted frame")
        try:
            ranking = Ranking.of(frame, *ranking)
        except ValueError as exc:
            self.fail(ranking_tok, str(exc))
        solved = tuple((jet, rhs) for _tok, jet, rhs in solves)
        self.declare(name, EquationDecl(frame, solved, ranking, passivity))

    def parse_operator(self):
        kw = self.next()
        frame = self.require_frame(kw)
        name = self.expect_ident("operator name")
        self.expect("EQ", "'='")
        value = self.parse_opexpr(frame)
        self.expect("SEMI", "';'")
        self.declare(name, value)

    def parse_vector(self):
        kw = self.next()
        frame = self.require_frame(kw)
        name = self.expect_ident("vector name")
        self.expect("EQ", "'='")
        value = self.parse_vector_literal(frame)
        self.expect("SEMI", "';'")
        self.declare(name, value)

    def parse_equivalence(self):
        kw = self.next()
        self.require_frame(kw)
        name = self.expect_ident("equivalence name")
        self.expect("LBRACE", "'{'")
        sys_kw = self.expect_ident("'systems'")
        if sys_kw.text != "systems":
            self.fail(sys_kw, "equivalence block must start with 'systems'",
                      expected=("systems",))
        s1 = self.expect_ident("system name")
        self.expect("COMMA", "','")
        s2 = self.expect_ident("system name")
        self.expect("SEMI", "';'")
        for s in (s1, s2):
            if not isinstance(self.names.get(s.text), EquationDecl):
                self.fail(s, f"unknown system {s.text!r}")
        ops = {}
        while self.peek().kind != "RBRACE":
            field_tok = self.expect_ident("equivalence field")
            fname = field_tok.text
            if self.peek().kind == "PRIME":
                self.next()
                fname += "'"
            if fname not in EQUIVALENCE_FIELDS:
                self.fail(field_tok, f"unknown equivalence field {fname!r}",
                          expected=EQUIVALENCE_FIELDS)
            if fname in ops:
                self.fail(field_tok, f"duplicate field {fname!r}")
            self.expect("EQ", "'='")
            ops[fname] = self.parse_opexpr(self.frame)
            self.expect("SEMI", "';'")
        self.expect("RBRACE", "'}'")
        missing = set(EQUIVALENCE_FIELDS) - set(ops)
        if missing:
            self.fail(kw, f"equivalence {name.text!r} is missing " + ", ".join(sorted(missing)))
        self.declare(name, EquivalenceDecl(
            s1.text, s2.text, tuple(ops[f] for f in EQUIVALENCE_FIELDS)
        ))

    # -- tasks -------------------------------------------------------------------

    def parse_task(self):
        kw = self.next()
        frame = self.require_frame(kw)
        kind = self.expect_ident("task kind")
        if kind.text not in TASK_KINDS:
            self.fail(kind, f"unknown task kind {kind.text!r}", expected=TASK_KINDS)
        self.expect("LPAREN", "'('")
        args = []
        if self.peek().kind != "RPAREN":
            args.append(self.parse_task_arg(frame))
            while self.peek().kind == "COMMA":
                self.next()
                args.append(self.parse_task_arg(frame))
        self.expect("RPAREN", "')'")
        task = TaskDecl(kind.text, tuple(args), None, kind.line, kind.col)
        if self.peek().kind == "IDENT" and self.peek().text == "as":
            self.next()
            alias = self.expect_ident("alias")
            if kind.text != "deform":
                self.fail(alias, "'as' aliases are only valid on deform tasks")
            task.alias = alias.text
            for name in (alias.text, f"{alias.text}_A1", f"{alias.text}_A2"):
                self.declare(alias, task, name)
        self.expect("SEMI", "';'")
        self.tasks.append(task)

    def parse_task_arg(self, frame: Frame):
        tok = self.peek()
        if tok.kind == "INT" and self.tokens[self.pos + 1].kind == "ARROW":
            a = self.next()
            self.next()
            b = self.expect("INT", "direction target")
            text = f"{a.text}->{b.text}"
            if text not in ("1->2", "2->1"):
                self.fail(a, f"unknown direction {text!r}", expected=("1->2", "2->1"))
            return Direction(text)
        if tok.kind == "IDENT":
            value = self.names.get(tok.text)
            if isinstance(value, VectorFunction):
                self.next()
                return value
            if isinstance(value, (EquationDecl, EquivalenceDecl, TaskDecl)):
                self.next()
                return NameRef(tok.text, tok.line, tok.col)
        if tok.kind == "LBRACK" and self.tokens[self.pos + 1].kind != "LBRACK":
            return self.parse_vector_literal(frame)
        return self.parse_opexpr(frame)


def parse_program(source: str) -> Program:
    return Parser(source).parse_program()


def _parse_fragment(frame: Frame, text: str, parse):
    """Parse all of ``text`` against ``frame`` with the method ``parse``."""
    parser = Parser(text)
    parser.frame = frame
    value = parse(parser, frame)
    parser.expect("EOF", "end of expression")
    return value


def parse_poly(frame: Frame, text: str) -> DiffPoly:
    """Parse a single polynomial expression against a frame (test helper)."""
    return _parse_fragment(frame, text, Parser.parse_poly)


def parse_op(frame: Frame, text: str) -> CDiffOp:
    """Parse an operator expression against a frame (test helper)."""
    return _parse_fragment(frame, text, Parser.parse_opexpr)


def parse_vector(frame: Frame, text: str) -> VectorFunction:
    """Parse a vector literal ``[p, q, ...]`` against a frame (test helper)."""
    return _parse_fragment(frame, text, Parser.parse_vector_literal)
