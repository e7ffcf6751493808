"""Expression parser and evaluator tests."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qwire import expr
from qwire.expr import EvalDomainError, SyntaxErrorAt, compile_fn, evaluate, is_constant, parse

# 21 expressions with hand-composed closed forms, checked to relative 1e-15.
CORPUS = [
    ("1", lambda x: 1.0),
    ("x", lambda x: x),
    ("x^2/2", lambda x: x * x / 2.0),
    ("-x", lambda x: -x),
    ("2*x + 3", lambda x: 2.0 * x + 3.0),
    ("x*x - x/4", lambda x: x * x - x / 4.0),
    ("sin(x)", math.sin),
    ("cos(2*x)", lambda x: math.cos(2.0 * x)),
    ("tan(x/3)", lambda x: math.tan(x / 3.0)),
    ("exp(-(x^2))", lambda x: math.exp(-(x ** 2))),
    ("sinh(x)", math.sinh),
    ("cosh(x/2)", lambda x: math.cosh(x / 2.0)),
    ("tanh(2*x)", lambda x: math.tanh(2.0 * x)),
    ("abs(x - 1)", lambda x: abs(x - 1.0)),
    ("sqrt(x^2 + 1)", lambda x: math.sqrt(x * x + 1.0)),
    ("log(x + 2)", lambda x: math.log(x + 2.0)),
    ("1 + 0.3*sin(x)", lambda x: 1.0 + 0.3 * math.sin(x)),
    ("x^3 - 2*x^2 + x - 7", lambda x: x ** 3 - 2.0 * x ** 2 + x - 7.0),
    ("2^x", lambda x: 2.0 ** x),
    ("1/(1 + x^2)", lambda x: 1.0 / (1.0 + x * x)),
    ("exp(cos(x))*sin(x^2)", lambda x: math.exp(math.cos(x)) * math.sin(x ** 2)),
]

XS = [-1.7, -0.5, 0.0, 0.3, 1.0, 2.25]


def test_corpus_against_closed_forms():
    for text, ref in CORPUS:
        e = parse(text)
        for x in XS:
            want = ref(x)
            got = evaluate(e, x)
            assert got == pytest.approx(want, rel=1e-15, abs=1e-300), (text, x)


def test_compiled_matches_tree_walker():
    for text, _ in CORPUS:
        e = parse(text)
        fn = compile_fn(e)
        for x in XS:
            assert fn(x) == pytest.approx(evaluate(e, x), rel=1e-15, abs=1e-300), (text, x)


def test_unary_minus_binds_tighter_than_power():
    assert evaluate(parse("-2^2"), 0.0) == 4.0
    assert evaluate(parse("0 - 2^2"), 0.0) == -4.0


def test_power_right_associative():
    assert evaluate(parse("2^3^2"), 0.0) == 512.0


@pytest.mark.parametrize("bad", ["", "  ", "(1 + 2", "1 + 2)", "1 2", "x +", "foo(1)", "*3", "1..2"])
def test_parser_rejects_malformed_input(bad):
    with pytest.raises(SyntaxErrorAt):
        parse(bad)


def test_syntax_error_carries_offset():
    with pytest.raises(SyntaxErrorAt) as exc:
        parse("1 + (2 * 3")
    assert exc.value.offset == 10


@pytest.mark.parametrize("text,x", [
    ("1/x", 0.0),
    ("log(x)", -1.0),
    ("log(x)", 0.0),
    ("sqrt(x)", -4.0),
    ("(-2)^0.5", 0.0),
    ("x^x", -0.5),
    ("exp(x)", 1e9),     # overflow -> non-finite
    ("exp(-exp(x))", 1000.0),   # an intermediate value overflows
    ("1/(1/x)", 0.0),           # an intermediate division by zero
])
def test_domain_errors(text, x):
    # as a scalar, and as an array with a good element beside the bad one
    e = parse(text)
    for arg in (x, np.array([1.0, x])):
        with pytest.raises(EvalDomainError):
            evaluate(e, arg)
        with pytest.raises(EvalDomainError):
            compile_fn(e)(arg)


def test_underflow_is_not_an_error():
    for text in ("exp(-1000)", "exp(x)"):
        e = parse(text)
        assert evaluate(e, -1000.0) == 0.0
        assert np.array_equal(evaluate(e, np.array([-1000.0, -1000.0])), [0.0, 0.0])


def test_array_evaluation_matches_scalar_bitwise():
    xs = np.concatenate([XS, np.linspace(-1.7, 2.25, 37)])
    for text, _ in CORPUS:
        e = parse(text)
        got = evaluate(e, xs)
        assert got.shape == xs.shape
        assert np.array_equal(got, [evaluate(e, x) for x in xs.tolist()]), text


def test_constant_keeps_the_input_shape():
    e = parse("3*4 - sin(1)")
    value = evaluate(e, 0.0)
    assert isinstance(value, float)
    got = evaluate(e, np.zeros((2, 3)))
    assert got.shape == (2, 3) and np.all(got == value)


def test_is_constant():
    assert is_constant(parse("3*4 - sin(1)"))
    assert not is_constant(parse("1 + 0*x"))
    assert not is_constant(parse("exp(-(x^2))"))


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_number_literals_round_trip(c):
    assert evaluate(parse(repr(c)), 0.0) == c


@given(st.floats(min_value=-100, max_value=100),
       st.floats(min_value=-100, max_value=100),
       st.floats(min_value=-10, max_value=10))
def test_linear_expressions(a, b, x):
    text = f"({a!r})*x + ({b!r})"
    assert evaluate(parse(text), x) == pytest.approx(a * x + b, rel=1e-15, abs=1e-12)


def test_unparse_round_trip():
    for text, _ in CORPUS:
        e = parse(text)
        e2 = parse(str(e))
        for x in XS:
            assert evaluate(e2, x) == evaluate(e, x), text


def test_scientific_notation_and_e_suffix():
    assert evaluate(parse("1e3"), 0.0) == 1000.0
    assert evaluate(parse("2.5e-2"), 0.0) == 0.025
    # 'e' not followed by digits is not an exponent
    with pytest.raises(SyntaxErrorAt):
        parse("2e")
