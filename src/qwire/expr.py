"""Parsing and evaluation of real-valued coefficient functions of one variable.

Metric weights and potentials are supplied as arithmetic expression strings in
the variable ``x``.  The grammar is a small calculator language:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' factor)?          # '^' is right-associative
    base   := number | 'x' | ident '(' expr ')' | '(' expr ')' | '-' base

Unary minus binds tighter than '^' when it appears in base position, so
``-2^2`` parses as ``(-2)^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr",
    "ExprError",
    "SyntaxErrorAt",
    "EvalDomainError",
    "parse",
    "evaluate",
    "is_constant",
    "compile_fn",
    "evaluate_on",
]


class ExprError(Exception):
    """Base class for expression errors."""


class SyntaxErrorAt(ExprError):
    """Malformed expression text; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalDomainError(ExprError):
    """Evaluation left the real domain (division by zero, log of a negative, ...)."""


_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "cosh": math.cosh,
    "sinh": math.sinh,
    "tanh": math.tanh,
    "abs": abs,
}


@dataclass(frozen=True)
class Expr:
    """Immutable expression tree node.

    ``kind`` is one of 'num', 'var', 'neg', '+', '-', '*', '/', '^' or a
    function name; ``args`` holds child nodes, ``value`` the literal for
    'num' nodes.
    """

    kind: str
    args: tuple = ()
    value: float = 0.0

    def __call__(self, x: float) -> float:
        return evaluate(self, x)

    def __str__(self) -> str:
        return _unparse(self)


def _unparse(e: Expr) -> str:
    if e.kind == "num":
        return repr(e.value)
    if e.kind == "var":
        return "x"
    if e.kind == "neg":
        return f"(-{_unparse(e.args[0])})"
    if e.kind in ("+", "-", "*", "/", "^"):
        return f"({_unparse(e.args[0])}{e.kind}{_unparse(e.args[1])})"
    return f"{e.kind}({_unparse(e.args[0])})"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise SyntaxErrorAt(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected '{ch}'")
        self.pos += 1

    def parse(self) -> Expr:
        if not self.text.strip():
            self.error("empty expression")
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek() and self.peek() in "+-":
            op = self.text[self.pos]
            self.pos += 1
            e = Expr(op, (e, self.term()))
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek() and self.peek() in "*/":
            op = self.text[self.pos]
            self.pos += 1
            e = Expr(op, (e, self.factor()))
        return e

    def factor(self) -> Expr:
        e = self.base()
        if self.peek() == "^":
            self.pos += 1
            e = Expr("^", (e, self.factor()))
        return e

    def base(self) -> Expr:
        c = self.peek()
        if c == "-":
            self.pos += 1
            return Expr("neg", (self.base(),))
        if c == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        if c.isdigit() or c == ".":
            return self.number()
        if c.isalpha():
            return self.identifier()
        self.error("expected a number, 'x', a function call or '('")

    def number(self) -> Expr:
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isdigit() or text[self.pos] == "."):
            self.pos += 1
        if self.pos < len(text) and text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(text) and text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(text) and text[self.pos].isdigit():
                while self.pos < len(text) and text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # 'e' was not an exponent
        try:
            value = float(text[start:self.pos])
        except ValueError:
            self.pos = start
            self.error("malformed number")
        return Expr("num", value=value)

    def identifier(self) -> Expr:
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isalnum() or text[self.pos] == "_"):
            self.pos += 1
        name = text[start:self.pos]
        if name == "x":
            return Expr("var")
        if name in _FUNCTIONS or name in ("log", "sqrt"):
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return Expr(name, (arg,))
        self.pos = start
        self.error(f"unknown identifier '{name}'")


def parse(text: str) -> Expr:
    """Parse an ASCII expression string into an :class:`Expr` tree."""
    if not isinstance(text, str) or not text:
        raise SyntaxErrorAt("empty expression", 0)
    return _Parser(text).parse()


def is_constant(e: Expr) -> bool:
    """True when the expression contains no occurrence of the variable x."""
    if e.kind == "var":
        return False
    return all(is_constant(a) for a in e.args)


def compile_fn(e: Expr):
    """Compile the expression into a fast plain-Python callable of x.

    The callable evaluates identically to :func:`evaluate` on the expression's
    real domain; outside it (or on a non-finite result) it raises
    :class:`EvalDomainError` like the tree walker, though possibly with a less
    specific message.  Intended for inner loops (ODE right-hand sides).
    """
    src = _pysource(e)
    fn = eval(f"lambda x: ({src})", {"math": math})  # noqa: S307 - closed AST, no user code

    def call(x: float) -> float:
        try:
            v = fn(x)
        except (ValueError, OverflowError, ZeroDivisionError) as err:
            raise EvalDomainError(str(err)) from err
        if not math.isfinite(v):
            raise EvalDomainError(f"non-finite result {v!r}")
        return v

    return call


def evaluate_on(e: Expr, xs: np.ndarray) -> np.ndarray:
    """Values of ``e`` at every point of ``xs``, as :func:`evaluate` gives them.

    A constant expression is evaluated once; otherwise it is compiled once
    and the callable runs per point.
    """
    xs = np.asarray(xs, dtype=float)
    if is_constant(e):
        return np.full(xs.shape, evaluate(e, 0.0))
    fn = compile_fn(e)
    return np.array([fn(x) for x in xs.ravel().tolist()]).reshape(xs.shape)


def _pysource(e: Expr) -> str:
    kind = e.kind
    if kind == "num":
        return repr(e.value)
    if kind == "var":
        return "x"
    if kind == "neg":
        return f"(-{_pysource(e.args[0])})"
    if kind in ("+", "-", "*", "/"):
        return f"({_pysource(e.args[0])}{kind}{_pysource(e.args[1])})"
    if kind == "^":
        # evaluate() forbids a negative base with a non-integer exponent;
        # math.pow raises ValueError there, matching via the call wrapper
        return f"math.pow({_pysource(e.args[0])}, {_pysource(e.args[1])})"
    if kind == "abs":
        return f"abs({_pysource(e.args[0])})"
    if kind in _FUNCTIONS or kind in ("log", "sqrt"):
        return f"math.{kind}({_pysource(e.args[0])})"
    raise ExprError(f"unknown node kind {kind!r}")


def evaluate(e: Expr, x: float) -> float:
    """Evaluate ``e`` at ``x`` in IEEE double precision.

    Raises :class:`EvalDomainError` on division by zero, log/sqrt of a
    negative argument, a negative base raised to a non-integer power, or
    any non-finite result.
    """
    v = _eval(e, x)
    if not math.isfinite(v):
        raise EvalDomainError(f"non-finite result {v!r}")
    return v


def _eval(e: Expr, x: float) -> float:
    kind = e.kind
    if kind == "num":
        return e.value
    if kind == "var":
        return x
    if kind == "neg":
        return -_eval(e.args[0], x)
    if kind == "+":
        return _eval(e.args[0], x) + _eval(e.args[1], x)
    if kind == "-":
        return _eval(e.args[0], x) - _eval(e.args[1], x)
    if kind == "*":
        return _eval(e.args[0], x) * _eval(e.args[1], x)
    if kind == "/":
        den = _eval(e.args[1], x)
        if den == 0.0:
            raise EvalDomainError("division by zero")
        return _eval(e.args[0], x) / den
    if kind == "^":
        b = _eval(e.args[0], x)
        p = _eval(e.args[1], x)
        if b < 0.0 and p != math.floor(p):
            raise EvalDomainError("negative base with non-integer exponent")
        try:
            return math.pow(b, p)
        except (ValueError, OverflowError) as err:
            raise EvalDomainError(str(err)) from err
    if kind == "log":
        v = _eval(e.args[0], x)
        if v <= 0.0:
            raise EvalDomainError("log of a non-positive argument")
        return math.log(v)
    if kind == "sqrt":
        v = _eval(e.args[0], x)
        if v < 0.0:
            raise EvalDomainError("sqrt of a negative argument")
        return math.sqrt(v)
    fn = _FUNCTIONS.get(kind)
    if fn is None:
        raise ExprError(f"unknown node kind {kind!r}")
    try:
        return fn(_eval(e.args[0], x))
    except (ValueError, OverflowError) as err:
        raise EvalDomainError(str(err)) from err
