"""Recursive-descent parser for the hamcheck declaration language.

The grammar covers frame declarations, equations in solved form,
operators (scalar expressions or row-major bracket matrices), vectors of
densities, equivalence data blocks, and a task list.  ``tokenize`` scans
the source with one compiled regex, ``_SCAN``; the parser reads its
token list.  Every declared name lives in one table.  Expressions are
evaluated during parsing against the declared frame, as polynomials until
an operator enters them, and each declaration is built where it is
parsed: an equation into its ``EquationSystem``, an equivalence into its
``EquivalenceData``.  A declaration the kernel rejects holds that error
instead, so only the tasks that name it fail.  Task arguments that name
equations, equivalences or the outputs of deform tasks are looked up at
run time.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .equivalence import EquivalenceData
from .frame import Frame, Ranking
from .ops import CDiffOp, DimensionMismatch
from .poly import DiffPoly, ExponentOverflow, HamcheckError, VectorFunction
from .systems import EquationSystem, make_system

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
    "=": "EQ", "+": "PLUS", "-": "MINUS", "*": "STAR", "^": "CARET",
    ">": "GT", "/": "SLASH", "'": "PRIME", "->": "ARROW",
}

# One alternative per lexical class, tried in order.  An identifier starts
# with a word character that is not a decimal digit, so '²' or '½' is an
# identifier character and an integer is decimal digits only; a character
# no other alternative takes is an error.
_SCAN = re.compile(r"""
    (?P<NL>\n) | (?P<SKIP>[ \t\r]+ | \#[^\n]*)
  | (?P<PUNCT>-> | [;,(){}\[\]=+\-*^>/'])
  | (?P<INT>\d+) | (?P<IDENT>[^\W\d]\w*) | (?P<OTHER>.)
""", re.VERBOSE)


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


def tokenize(source: str):
    tokens = []
    line, line_start = 1, 0
    for m in _SCAN.finditer(source):
        kind, text = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "NL":
            line, line_start = line + 1, m.end()
        elif kind == "PUNCT":
            tokens.append(Token(_PUNCT[text], text, line, col))
        elif kind == "OTHER":
            raise ParseError(f"unexpected character {text!r}", line, col)
        elif kind != "SKIP":
            tokens.append(Token(kind, text, line, col))
    # input that ends in a comment ends at the comment's '#'
    end = source.find("#", line_start)
    end = len(source) if end < 0 else end
    tokens.append(Token("EOF", "", line, end - line_start + 1))
    return tokens


# -- parse results ------------------------------------------------------


class NameRef:
    """A task argument that names an equation, an equivalence or a deform
    output, looked up when the task runs."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Direction:
    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


class TaskDecl:
    __slots__ = ("kind", "args", "alias")

    def __init__(self, kind: str, args: tuple, alias: str):
        self.kind = kind
        self.args = args
        self.alias = alias


# the connecting operators of an equivalence block, in the order
# EquivalenceData takes them
EQUIVALENCE_FIELDS = ("alpha", "alpha'", "beta", "beta'", "s1", "s2")


class Program:
    """A parsed file: its frame, its names in declaration order and its tasks.

    A name's value is an ``EquationSystem``, an operator (``CDiffOp``), a
    vector (``VectorFunction``), an ``EquivalenceData``, the error with
    which the kernel rejected an equation or equivalence, or the deform
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
        self.equations = set()  # the names declared by equation blocks
        self.tasks = []
        self.nesting = 0  # open '(' and '[' around the current operand
        self.atoms = {}  # identifier -> its jet, coordinate or D_i, once resolved

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

    def _sep(self, item, sep="COMMA") -> list:
        """``item (sep item)*``: the values of the rule ``item``."""
        items = [item()]
        while self.peek().kind == sep:
            self.next()
            items.append(item())
        return items

    def _bracketed(self, item) -> list:
        """``[ item (, item)* ]``"""
        self.expect("LBRACK", "'['")
        items = self._sep(item)
        self.expect("RBRACK", "']'")
        return items

    def _int(self, tok: Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # past the interpreter's limit on digits
            self.fail(tok, "integer literal longer than "
                      f"{sys.get_int_max_str_digits()} digits")

    def _at(self, tok: Token, build):
        """``build()``, with the kernel's shape and exponent errors
        reported at the operator token ``tok``."""
        try:
            return build()
        except DimensionMismatch as exc:
            self.fail(tok, f"dimension mismatch: {exc}")
        except ExponentOverflow as exc:
            self.fail(tok, str(exc))

    @staticmethod
    def _or_error(build):
        """``build()``, or the error with which the kernel rejects it, kept
        without its traceback so that it holds no frames of the build."""
        try:
            return build()
        except (HamcheckError, ValueError) as exc:
            return exc.with_traceback(None)

    # -- names ------------------------------------------------------------

    def declare(self, tok: Token, value, name=None):
        name = name or tok.text
        if name in self.names:
            self.fail(tok, f"name {name!r} is already declared")
        self.names[name] = value

    # -- program ------------------------------------------------------------

    def parse_program(self) -> Program:
        statements = {
            "independents": self.parse_independents,
            "dependents": self.parse_dependents,
            "equation": self.parse_equation,
            "operator": lambda: self.parse_value(self.parse_operator),
            "vector": lambda: self.parse_value(self.parse_vector_literal),
            "equivalence": self.parse_equivalence,
            "task": self.parse_task,
        }
        while (tok := self.peek()).kind != "EOF":
            if tok.kind != "IDENT":
                self.fail(tok, f"unexpected {tok.text!r}", expected=("statement",))
            rule = statements.get(tok.text)
            if rule is None:
                self.fail(tok, f"unknown statement {tok.text!r}", expected=statements)
            if self.frame is None and tok.text not in ("independents", "dependents"):
                self.fail(tok, "independents and dependents must be declared first")
            rule()
        return Program(self.frame, self.names, self.tasks)

    def _name_list(self) -> tuple:
        names = tuple(tok.text for tok in self._sep(self.expect_ident))
        self.expect("SEMI", "';'")
        return names

    def parse_independents(self):
        tok = self.next()
        if self.independents is not None:
            self.fail(tok, "independents already declared")
        self.independents = self._name_list()
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
        self.dependents = self._name_list()
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

    def resolve_jet(self, tok: Token):
        """Split ident at the last underscore into dependent and suffix."""
        frame = self.frame
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

    # An expression's value is a DiffPoly while it is a polynomial and a
    # CDiffOp once an operator enters it: D_i, a named operator or a matrix.
    # Two polynomials combine by DiffPoly arithmetic; any other pair is
    # lifted by ``_op`` and combined as operators.

    @staticmethod
    def _op(value) -> CDiffOp:
        """``value`` as an operator: a polynomial p becomes multiplication by p."""
        return CDiffOp.mult(value) if type(value) is DiffPoly else value

    def parse_expr(self):
        left = self.parse_term()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.next()
            right = self.parse_term()
            if type(left) is not type(right):
                left, right = self._op(left), self._op(right)
            add = op.kind == "PLUS"
            left = self._at(op, lambda: left + right if add else left - right)
        return left

    def parse_operator(self) -> CDiffOp:
        return self._op(self.parse_expr())

    def parse_term(self):
        left = self.parse_unary()
        while self.peek().kind == "STAR":
            star = self.next()
            right = self.parse_unary()
            if type(left) is type(right) is DiffPoly:
                left = self._at(star, lambda: left * right)
            else:
                left = self._at(star, lambda: self._op(left).compose(self._op(right)))
        return left

    def parse_unary(self):
        negate = False
        while self.peek().kind == "MINUS":
            self.next()
            negate = not negate
        out = self.parse_power()
        return -out if negate else out

    def parse_power(self):
        base = self.parse_atom()
        if self.peek().kind != "CARET":
            return base
        caret = self.next()
        k = self._int(self.expect("INT", "integer exponent"))
        if type(base) is DiffPoly:
            return self._at(caret, lambda: base ** k)
        if base.rows != base.cols:
            self.fail(caret, "power of a non-square operator")
        if not k:
            return CDiffOp.identity(base.n, base.rows)
        out = base
        for _ in range(k - 1):
            out = self._at(caret, lambda: out.compose(base))
        return out

    def _rational(self, tok: Token) -> Fraction:
        num = self._int(tok)
        if self.peek().kind == "SLASH":
            self.next()
            tok = self.expect("INT", "denominator")
            den = self._int(tok)
            if not den:
                self.fail(tok, "zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def parse_atom(self):
        frame = self.frame
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            return DiffPoly.const(frame.n, self._rational(tok))
        if tok.kind in ("LPAREN", "LBRACK"):
            if self.nesting >= MAX_NESTING:
                self.fail(tok, f"brackets nested deeper than {MAX_NESTING} levels")
            self.nesting += 1
            if tok.kind == "LBRACK":
                inner = self.parse_matrix()
            else:
                self.next()
                inner = self.parse_expr()
                self.expect("RPAREN", "')'")
            self.nesting -= 1
            return inner
        if tok.kind == "IDENT":
            self.next()
            text = tok.text
            value = self.atoms.get(text)
            if value is not None:
                return value
            if len(text) == 2 and text[0] == "D" and text[1] in frame.independents:
                value = CDiffOp.d(frame.n, frame.independents.index(text[1]))
            elif (jet := self.resolve_jet(tok)) is not None:
                value = DiffPoly.jet(frame.n, jet[0], jet[1])
            elif text in frame.independents:
                value = DiffPoly.coord(frame.n, frame.indep_index(text))
            if value is not None:
                self.atoms[text] = value
                return value
            value = self.names.get(text)
            if isinstance(value, CDiffOp):
                return value
            if value is not None:
                self.fail(tok, f"{text!r} cannot appear inside an operator expression")
            self.fail(tok, f"unknown identifier {text!r}")
        self.fail(tok, f"unexpected {tok.text!r}", expected=("operand",))

    def parse_matrix(self) -> CDiffOp:
        open_tok = self.expect("LBRACK", "'['")
        if self.peek().kind != "LBRACK":
            self.fail(self.peek(), "matrix rows must be bracketed", expected=("'['",))
        rows = self._sep(lambda: self._bracketed(self.parse_operator))
        self.expect("RBRACK", "']'")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            self.fail(open_tok, "dimension mismatch: ragged matrix rows")
        for row in rows:
            for c in row:
                if (c.rows, c.cols) != (1, 1):
                    self.fail(open_tok, "matrix entries must be scalar operators")
        return CDiffOp.block(rows)

    def parse_poly(self) -> DiffPoly:
        tok = self.peek()
        p = self.parse_expr()
        if type(p) is not DiffPoly:
            p = p.as_poly()
        if p is None:
            self.fail(tok, "expected a polynomial (no derivative operators)")
        return p

    def parse_vector_literal(self) -> VectorFunction:
        return VectorFunction(self._bracketed(self.parse_poly))

    # -- declarations ----------------------------------------------------------

    def parse_equation(self):
        kw = self.next()
        frame = self.frame
        name = self.expect_ident("equation name")
        self.expect("LBRACE", "'{'")
        deps_tok = ranking_tok = None
        solves = []
        while self.peek().kind != "RBRACE":
            word = self.expect_ident("equation clause")
            if word.text == "dependents":
                deps_tok, deps = word, self._name_list()
            elif word.text == "solve":
                lhs_tok = self.expect_ident("jet variable")
                jet = self.resolve_jet(lhs_tok)
                if jet is None:
                    self.fail(lhs_tok, f"unknown jet variable {lhs_tok.text!r}")
                self.expect("EQ", "'='")
                rhs = self.parse_poly()
                self.expect("SEMI", "';'")
                solves.append((lhs_tok, jet, rhs))
            elif word.text == "ranking":
                ranking_tok = word
                ranking = [tok.text for tok in self._sep(
                    lambda: self.expect_ident("independent name"), "GT")]
                self.expect("SEMI", "';'")
            else:
                self.fail(word, f"unknown equation clause {word.text!r}",
                          expected=("dependents", "solve", "ranking"))
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
        self.declare(name, self._or_error(lambda: make_system(
            frame, [DiffPoly.jet(frame.n, *jet) - rhs for jet, rhs in solved],
            solved, ranking,
        )))
        self.equations.add(name.text)

    def parse_value(self, parse):
        """``operator name = ...;`` or ``vector name = ...;``, the value
        read by the rule ``parse``."""
        kw = self.next()
        name = self.expect_ident(f"{kw.text} name")
        self.expect("EQ", "'='")
        value = parse()
        self.expect("SEMI", "';'")
        self.declare(name, value)

    def parse_equivalence(self):
        kw = self.next()
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
            if s.text not in self.equations:
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
            ops[fname] = self.parse_operator()
            self.expect("SEMI", "';'")
        self.expect("RBRACE", "'}'")
        missing = set(EQUIVALENCE_FIELDS) - set(ops)
        if missing:
            self.fail(kw, f"equivalence {name.text!r} is missing " + ", ".join(sorted(missing)))
        systems = [self.names[s1.text], self.names[s2.text]]
        rejected = [e for e in systems if isinstance(e, Exception)]
        self.declare(name, rejected[0] if rejected else self._or_error(
            lambda: EquivalenceData(*systems, *(ops[f] for f in EQUIVALENCE_FIELDS))
        ))

    # -- tasks -------------------------------------------------------------------

    def parse_task(self):
        self.next()
        kind = self.expect_ident("task kind")
        if kind.text not in TASK_KINDS:
            self.fail(kind, f"unknown task kind {kind.text!r}", expected=TASK_KINDS)
        self.expect("LPAREN", "'('")
        args = self._sep(self.parse_task_arg) if self.peek().kind != "RPAREN" else []
        self.expect("RPAREN", "')'")
        task = TaskDecl(kind.text, tuple(args), None)
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

    def parse_task_arg(self):
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
            if isinstance(value, (EquationSystem, EquivalenceData, TaskDecl, Exception)):
                self.next()
                return NameRef(tok.text)
        if tok.kind == "LBRACK" and self.tokens[self.pos + 1].kind != "LBRACK":
            return self.parse_vector_literal()
        return self.parse_operator()


def parse_program(source: str) -> Program:
    return Parser(source).parse_program()


def _parse_fragment(frame: Frame, text: str, parse):
    """Parse all of ``text`` against ``frame`` with the method ``parse``."""
    parser = Parser(text)
    parser.frame = frame
    value = parse(parser)
    parser.expect("EOF", "end of expression")
    return value


def parse_poly(frame: Frame, text: str) -> DiffPoly:
    """Parse a single polynomial expression against a frame (test helper)."""
    return _parse_fragment(frame, text, Parser.parse_poly)


def parse_op(frame: Frame, text: str) -> CDiffOp:
    """Parse an operator expression against a frame (test helper)."""
    return _parse_fragment(frame, text, Parser.parse_operator)


def parse_vector(frame: Frame, text: str) -> VectorFunction:
    """Parse a vector literal ``[p, q, ...]`` against a frame (test helper)."""
    return _parse_fragment(frame, text, Parser.parse_vector_literal)
