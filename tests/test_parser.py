import re
import string
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamcheck import CDiffOp, DiffPoly, VectorFunction
from hamcheck.equivalence import EquivalenceData
from hamcheck.parser import (
    MAX_NESTING,
    TASK_KINDS,
    ParseError,
    Program,
    parse_op,
    parse_poly,
    parse_program,
    tokenize,
)
from hamcheck.render import op_text, poly_text
from hamcheck.runner import run_program
from hamcheck.systems import EquationSystem, NonOrthonomic


def test_simple_operator(fr_u):
    assert parse_op(fr_u, "Dx") == CDiffOp.d(fr_u.n, 0)
    assert parse_op(fr_u, "Dt") == CDiffOp.d(fr_u.n, 1)
    assert parse_op(fr_u, "-" * 3000 + "Dx") == CDiffOp.d(fr_u.n, 0)
    assert parse_op(fr_u, "-" * 3001 + "Dx") == -1 * CDiffOp.d(fr_u.n, 0)
    inner = "(" * (MAX_NESTING - 1) + "Dx" + ")" * (MAX_NESTING - 1)
    assert parse_op(fr_u, "[[" + inner + "]]") == CDiffOp.d(fr_u.n, 0)


def test_operator_arithmetic(fr_u):
    a2 = parse_op(fr_u, "Dx^3 + 4*u*Dx + 2*u_x")
    direct = (
        CDiffOp.d(fr_u.n, 0, 3)
        + CDiffOp.mult(4 * DiffPoly.jet(fr_u.n, 0, (0, 0))).compose(CDiffOp.d(fr_u.n, 0))
        + CDiffOp.mult(2 * DiffPoly.jet(fr_u.n, 0, (1, 0)))
    )
    assert a2 == direct


def test_composition_order_matters(fr_u):
    assert parse_op(fr_u, "Dx*u") == parse_op(fr_u, "u*Dx + u_x")


def test_jet_suffix_order_insensitive(fr_u):
    assert parse_poly(fr_u, "u_xxt") == parse_poly(fr_u, "u_txx")
    assert parse_poly(fr_u, "u_xtx") == parse_poly(fr_u, "u_xxt")


def test_rationals_and_precedence(fr_u):
    p = parse_poly(fr_u, "u^3 - 1/2*u_x^2")
    assert p == (
        DiffPoly.jet(fr_u.n, 0, (0, 0)) ** 3
        - Fraction(1, 2) * DiffPoly.jet(fr_u.n, 0, (1, 0)) ** 2
    )
    assert parse_poly(fr_u, "-u + 2") == -DiffPoly.jet(fr_u.n, 0, (0, 0)) + 2


def test_explicit_independents(fr_u):
    p = parse_poly(fr_u, "x^2*u + t")
    assert p.total(1) == parse_poly(fr_u, "x^2*u_t + 1")


def test_matrix_literal(fr_uvw):
    m = parse_op(fr_uvw, "[[Dx, -1, 0], [0, Dx, -1], [-Dt + 6*v, 6*u, Dx]]")
    assert (m.rows, m.cols) == (3, 3)


def test_parse_render_round_trip(fr_u, fr_uvw):
    samples_p = ["0", "u", "3*u^2 + u_xx", "u^3 - 1/2*u_x^2", "x^2*u_xt - 7"]
    for s in samples_p:
        p = parse_poly(fr_u, s)
        assert parse_poly(fr_u, poly_text(fr_u, p)) == p
    samples_o = [
        "Dx", "2*u_x + 4*u*Dx + Dx^3", "-Dt - u*Dx + u_x",
        "[[0, -2*u, -Dt - 2*v], [2*u, Dt, -12*u^2 - 2*w], [-Dt + 2*v, 12*u^2 + 2*w, 8*u*Dt + 4*u_t]]",
    ]
    for s in samples_o:
        op = parse_op(fr_uvw, s)
        assert parse_op(fr_uvw, op_text(fr_uvw, op)) == op


def test_syntax_error_position_and_expectations():
    with pytest.raises(ParseError) as err:
        parse_program("independents x, t;\ndependents u;\noperator Bad = Dx +;\n")
    assert err.value.line == 3
    assert err.value.col == 20
    assert "operand" in err.value.expected
    with pytest.raises(ParseError) as err:
        parse_program("independents x, t;\ndependents u;\nvector v = [1/0];\n")
    assert (err.value.line, err.value.col) == (3, 15)
    assert "zero denominator" in err.value.msg
    # Deep nesting stops at the first bracket past the limit, not in the
    # interpreter's recursion limit.
    deep = "(" * 2000 + "Dx" + ")" * 2000
    with pytest.raises(ParseError) as err:
        parse_program(f"independents x, t;\ndependents u;\noperator A = {deep};\n")
    assert (err.value.line, err.value.col) == (3, 14 + MAX_NESTING)
    assert "nested" in err.value.msg
    # A long run of signs is folded, so the missing operand is reported.
    with pytest.raises(ParseError) as err:
        parse_program("independents x, t;\ndependents u;\noperator A = " + "-" * 3000 + ";\n")
    assert (err.value.line, err.value.col) == (3, 3014)
    assert "operand" in err.value.expected
    # An exponent past the kernel's limit is reported at the operator that
    # builds it.
    for vec, col in (("u^40000", 14), ("u^20000*u^20000", 20)):
        with pytest.raises(ParseError) as err:
            parse_program(f"independents x, t;\ndependents u;\nvector v = [{vec}];\n")
        assert (err.value.line, err.value.col) == (3, col)
        assert "32768" in err.value.msg
    # A frame the declarations cannot build is reported at the statement
    # that completes it.
    for decls in ("dependents u, x;", "dependents u, u;", "dependents Dx;"):
        with pytest.raises(ParseError) as err:
            parse_program("independents x, t;\n" + decls + "\n")
        assert (err.value.line, err.value.col) == (2, 1)
    with pytest.raises(ParseError) as err:
        parse_program("dependents u, t;\n  independents x, t;\n")
    assert (err.value.line, err.value.col) == (2, 3)
    assert "unique" in err.value.msg
    # A transport direction other than 1->2 or 2->1 is reported at its
    # first token.
    for direction in ("1->1", "3->5"):
        with pytest.raises(ParseError) as err:
            parse_program(
                f"independents x, t;\ndependents u;\ntask transport(Dx, Dx, {direction});\n"
            )
        assert (err.value.line, err.value.col) == (3, 24)
        assert err.value.expected == ("1->2", "2->1")
    # An integer literal past the interpreter's limit on digits is reported
    # at the literal, as a coefficient, a denominator or an exponent.
    long = "7" * 5000
    for line3, col in ((f"vector v = [{long}*u];", 13), (f"vector v = [1/{long}];", 15),
                       (f"vector v = [u^{long}];", 15)):
        with pytest.raises(ParseError) as err:
            parse_program(f"independents x, t;\ndependents u;\n{line3}\n")
        assert (err.value.line, err.value.col) == (3, col)
        assert "longer than 4300 digits" in err.value.msg


# -- scanner -------------------------------------------------------------------

_PUNCT_REFERENCE = {
    ";": "SEMI", ",": "COMMA", "(": "LPAREN", ")": "RPAREN",
    "{": "LBRACE", "}": "RBRACE", "[": "LBRACK", "]": "RBRACK",
    "=": "EQ", "+": "PLUS", "*": "STAR", "^": "CARET",
    ">": "GT", "/": "SLASH", "'": "PRIME",
}


def _tokenize_reference(source):
    """The scanner as a character loop: (kind, text, line, col) tuples."""
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
                tokens.append(("ARROW", "->", line, col))
                i += 2
                col += 2
                continue
            tokens.append(("MINUS", "-", line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < size and source[j].isdigit():
                j += 1
            tokens.append(("INT", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < size and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("IDENT", source[i:j], line, col))
            col += j - i
            i = j
            continue
        kind = _PUNCT_REFERENCE.get(ch)
        if kind is None:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        tokens.append((kind, ch, line, col))
        i += 1
        col += 1
    tokens.append(("EOF", "", line, col))
    return tokens


# the grammar's punctuation, ASCII letters and digits, a letter and a
# decimal digit outside ASCII, and '@', which no token takes
_SCAN_ALPHABET = (
    ";,(){}[]=+-*^>/'" + string.ascii_letters + string.digits + "_# \t\r\n" + "\u00e9\u0663@"
)


@settings(max_examples=500)
@example("operator A = Dx; # ends in a comment")
@example("u_x\n  #")
@example("a->b -> - > 12ab3 ab12_3 \u00e9\u0663 \u0663\u00e9")
@given(st.text(st.sampled_from(_SCAN_ALPHABET), max_size=40))
def test_scanner_matches_reference(source):
    try:
        expected = _tokenize_reference(source)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            tokenize(source)
        assert (err.value.msg, err.value.line, err.value.col) == (exc.msg, exc.line, exc.col)
        return
    assert [(t.kind, t.text, t.line, t.col) for t in tokenize(source)] == expected


def test_scanner_edge_cases(fr_u):
    # input that ends in a comment ends at its '#'
    with pytest.raises(ParseError) as err:
        parse_program("independents x, t;\ndependents u;\noperator A = Dx + # done")
    assert (err.value.line, err.value.col) == (3, 19)
    assert "operand" in err.value.expected
    # a superscript digit or a vulgar fraction is an identifier character,
    # never an integer literal
    for line3, col, msg in (("operator A = Dx^\u00b2;", 17, "unexpected '\u00b2'"),
                            ("vector v = [\u00b2*u];", 13, "unknown identifier '\u00b2'"),
                            ("vector v = [\u00bd];", 13, "unknown identifier '\u00bd'")):
        with pytest.raises(ParseError) as err:
            parse_program(f"independents x, t;\ndependents u;\n{line3}\n")
        assert (err.value.line, err.value.col, err.value.msg) == (3, col, msg)
    # a decimal digit outside ASCII is an integer digit
    assert parse_poly(fr_u, "\u0663*u") == parse_poly(fr_u, "3*u")
    assert parse_op(fr_u, "Dx^\u0663") == parse_op(fr_u, "Dx^3")


def test_unknown_identifier_is_positioned():
    with pytest.raises(ParseError) as err:
        parse_program(
            "independents x, t;\ndependents u;\noperator A = Dz;\n"
        )
    assert err.value.line == 3


def test_ragged_matrix_rejected(fr_u):
    with pytest.raises(ParseError) as err:
        parse_op(fr_u, "[[1, 0], [1]]")
    assert "ragged" in err.value.msg


def test_program_declarations():
    program = parse_program(
        """
        independents x, t;
        dependents u;
        equation kdv { solve u_t = u_xxx + 6*u*u_x; ranking t > x; }
        operator A1 = Dx;
        vector psi = [3*u^2 + u_xx];
        task bivector(kdv, A1);
        task schouten(kdv, A1, A1);
        """
    )
    assert list(program.names) == ["kdv", "A1", "psi"]
    assert isinstance(program.names["kdv"], EquationSystem)
    assert isinstance(program.names["A1"], CDiffOp)
    assert isinstance(program.names["psi"], VectorFunction)
    assert [t.kind for t in program.tasks] == ["bivector", "schouten"]


def test_declarations_are_built_where_they_are_parsed():
    program = parse_program(
        "independents x, t;\ndependents u;\n"
        "equation kdv { solve u_t = u_xxx + 6*u*u_x; ranking t > x; }\n"
        "equation bad { solve u_t = u_xxx; ranking x > t; }\n"
        "equivalence same { systems kdv, kdv; alpha = 1; alpha' = 1; beta = 1;\n"
        "  beta' = 1; s1 = 0; s2 = 0; }\n"
        "equivalence over_bad { systems kdv, bad; alpha = 1; alpha' = 1; beta = 1;\n"
        "  beta' = 1; s1 = 0; s2 = 0; }\n"
    )
    kdv, bad = program.names["kdv"], program.names["bad"]
    assert isinstance(kdv, EquationSystem)
    same = program.names["same"]
    assert isinstance(same, EquivalenceData) and same.e1 is same.e2 is kdv
    # a rejected equation's name holds the kernel's error, without its
    # traceback, and so does an equivalence over it
    assert isinstance(bad, NonOrthonomic) and bad.__traceback__ is None
    assert str(bad) == "equation 0: lead is not ranking-maximal in its solved form"
    assert program.names["over_bad"] is bad
    # passivity is decided exactly, so there is no depth clause
    with pytest.raises(ParseError) as err:
        parse_program(
            "independents x, t;\ndependents u;\n"
            "equation heat { solve u_t = u_xx; ranking t > x; passivity 3; }\n"
        )
    assert (err.value.line, err.value.col) == (3, 50)
    assert err.value.msg == "unknown equation clause 'passivity'"
    assert err.value.expected == ("dependents", "ranking", "solve")


def test_duplicate_names_rejected():
    with pytest.raises(ParseError) as err:
        parse_program(
            "independents x, t;\ndependents u;\n"
            "operator A = Dx;\noperator A = Dt;\n"
        )
    assert "already declared" in err.value.msg


def test_unknown_task_kind():
    with pytest.raises(ParseError) as err:
        parse_program(
            "independents x, t;\ndependents u;\n"
            "equation kdv { solve u_t = u_xxx; ranking t > x; }\n"
            "task frobnicate(kdv);\n"
        )
    assert "unknown task kind" in err.value.msg


def test_equation_requires_ranking():
    with pytest.raises(ParseError) as err:
        parse_program(
            "independents x, t;\ndependents u;\n"
            "equation kdv { solve u_t = u_xxx; }\n"
        )
    assert "ranking" in err.value.msg


@pytest.mark.parametrize("clause, message, col", [
    ("dependents v; solve v_t = v_xx; ranking t > x;",
     "restricted dependents must be an initial segment", 14),
    ("dependents u; solve u_t = v_xx; ranking t > x;",
     "mentions dependents outside its restricted frame", 34),
    ("solve u_t = u_xx; ranking t > t;",
     "ranking must mention every independent exactly once", 32),
], ids=["not-initial", "outside-frame", "ranking"])
def test_equation_block_checked_against_its_frame(clause, message, col):
    with pytest.raises(ParseError) as err:
        parse_program(
            "independents x, t;\ndependents u, v;\n"
            f"equation e {{ {clause} }}\n"
        )
    assert (err.value.line, err.value.col) == (3, col)
    assert message in err.value.msg


def test_deform_alias_names_must_be_new():
    with pytest.raises(ParseError) as err:
        parse_program(
            "independents x, t;\ndependents u;\n"
            "equation kdv { solve u_t = u_xxx; ranking t > x; }\n"
            "operator A = Dx;\noperator d_A1 = Dx;\n"
            "task deform(kdv, A, A) as d;\n"
        )
    assert (err.value.line, err.value.col) == (6, 27)
    assert err.value.msg == "name 'd_A1' is already declared"


def test_deform_alias_registers_names():
    program = parse_program(
        """
        independents x, t;
        dependents u;
        equation kdv { solve u_t = u_xxx + 6*u*u_x; ranking t > x; }
        operator A1 = Dx;
        operator A2 = Dx^3 + 4*u*Dx + 2*u_x;
        task deform(kdv, A1, A2) as sys6;
        task bivector(sys6, sys6_A1);
        """
    )
    assert program.tasks[0].alias == "sys6"


def test_multi_letter_independent_rejected():
    with pytest.raises(ParseError):
        parse_program("independents xi, t;\ndependents u;\n")


def test_direction_token():
    program = parse_program(
        """
        independents x, t;
        dependents u, v, w;
        equation one { dependents u; solve u_t = u_xxx; ranking t > x; }
        equation two { solve u_x = v; solve v_x = w; solve w_x = u_t; ranking x > t; }
        equivalence pair {
            systems one, two;
            alpha = [[1], [Dx], [Dx^2]];
            alpha' = [[0], [0], [-1]];
            beta = [[1, 0, 0]];
            beta' = [[-Dx^2, -Dx, -1]];
            s1 = 0;
            s2 = [[0, 0, 0], [1, 0, 0], [Dx, 1, 0]];
        }
        task transport(pair, Dx, 1->2);
        """
    )
    direction = program.tasks[0].args[2]
    assert direction.text == "1->2"


# -- fuzzing ------------------------------------------------------------------

_VALID = """
independents x , t ; dependents u ;
equation kdv { solve u_t = u_xxx + 6 * u * u_x ; ranking t > x ; }
operator A = Dx ^ 3 + 4 * u * Dx + 2 * u_x ;
operator M = [ [ Dx , - 1 ] , [ 0 , Dt ] ] ;
vector psi = [ 3 * u ^ 2 + u_xx ] ;
equivalence e { systems kdv , kdv ; alpha = 1 ; alpha ' = 0 ; beta = 1 ;
  beta ' = 0 ; s1 = 0 ; s2 = 0 ; }
task deform ( kdv , A , A ) as d ; task transport ( e , Dx , 1 -> 2 ) ;
task bivector ( kdv , A ) ; task poisson ( kdv , A , psi , [ u ] ) ;
""".split()

# Integer literals stay at 3 or less: an operator power ``A^k`` is
# evaluated by k compositions, with no bound yet on k or on the result.
# The one longer literal has more digits than int() converts, so it is a
# ParseError wherever it lands.
_TOKENS = sorted(set(_VALID) | set(TASK_KINDS) | {
    "independents", "dependents", "u_q", "u_tx", "v", "w", "Dz", "xi", "d_A1", "/", "@", "\n",
    "\u00b2", "\u00bd", "\u00e9", "\u0663", "7" * 5000,
}) + [str(k) for k in range(4)] + [f"{a} / {b}" for a in range(4) for b in range(4)]


@st.composite
def token_soups(draw):
    """A valid program with a few random slices replaced by runs of its
    grammar's tokens and rational literals."""
    tokens = list(_VALID)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(tokens)))
        j = draw(st.integers(i, min(len(tokens), i + 3)))
        tokens[i:j] = draw(st.lists(st.sampled_from(_TOKENS), max_size=4))
    return " ".join(tokens)


def test_fuzz_base_program_parses():
    program = parse_program(" ".join(_VALID))
    operators = [name for name, v in program.names.items() if isinstance(v, CDiffOp)]
    assert operators == ["A", "M"] and len(program.tasks) == 4
    # so that the fuzzed programs start from tasks that reach a verdict
    assert [r.status for r in run_program(program)] == ["ok"] * 4


@settings(max_examples=400)
@example(" ".join(_VALID).replace("^ 2", "^ \u00b2"))
@example(" ".join(_VALID).replace("^ 3", "^ " + "7" * 5000))
@given(token_soups())
def test_parser_fuzz_returns_program_or_parse_error(source):
    try:
        program = parse_program(source)
    except ParseError:
        return
    assert isinstance(program, Program)


@settings(max_examples=50)
@example(" ".join(_VALID))
@given(token_soups())
def test_fuzz_programs_that_parse_run_every_task(source):
    # a declaration the kernel rejects fails the tasks that name it, and
    # the run never raises or reaches an internal error
    try:
        program = parse_program(source)
    except ParseError:
        return
    first = run_program(program)
    assert len(first) == len(program.tasks)
    assert not any("internal error" in str(r.detail) for r in first)
    second = run_program(program)
    assert [(r.status, r.detail) for r in first] == [(r.status, r.detail) for r in second]


def test_polynomial_declarations_compose_no_operator(monkeypatch):
    # an expression stays a polynomial until an operator enters it, so the
    # solve right-hand sides and vectors of the seventh-order suite are
    # parsed with no composition; its operator lines compose
    suite = (Path(__file__).resolve().parent.parent
             / "bench" / "inputs" / "kdv7_suite.ham").read_text()
    calls = []
    compose = CDiffOp.compose
    monkeypatch.setattr(CDiffOp, "compose",
                        lambda self, other: calls.append(1) or compose(self, other))
    scalar = re.sub(r"^(operator|task) .*$", "", suite, flags=re.M)
    program = parse_program(scalar)
    assert isinstance(program.names["kdv7"], EquationSystem)
    assert sum(isinstance(v, VectorFunction) for v in program.names.values()) == 5
    assert calls == []
    parse_program(suite)
    assert calls


def test_operator_power_composes_one_time_less_than_its_exponent(monkeypatch):
    calls = []
    compose = CDiffOp.compose
    monkeypatch.setattr(CDiffOp, "compose",
                        lambda self, other: calls.append(1) or compose(self, other))
    program = parse_program(
        "independents x; dependents u;\n"
        "operator B = Dx + u;\n"
        "operator A = (Dx + u)^3;\n"
        "operator A1 = B^1;\n"
        "operator A0 = B^0;\n"
    )
    assert len(calls) == 2
    names = program.names
    b = names["B"]
    assert names["A"] == compose(compose(b, b), b)
    assert names["A1"] is b
    assert names["A0"] == CDiffOp.identity(1)
