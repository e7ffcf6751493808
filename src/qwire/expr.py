"""Parsing and evaluation of real-valued coefficient functions of one variable.

Metric weights and potentials are supplied as arithmetic expression strings in
the variable ``x``.  The grammar is a small calculator language:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' factor)?          # '^' is right-associative
    base   := number | 'x' | ident '(' expr ')' | '(' expr ')' | '-' base

Unary minus binds tighter than '^' when it appears in base position, so
``-2^2`` parses as ``(-2)^2``.

Each tree is compiled once into a composition of numpy ufuncs, with its
constant subtrees folded, so one call evaluates a float or a whole array.
Floating-point exceptions other than underflow raise inside the call and
become :class:`EvalDomainError`, for whichever element meets them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


_FUNCTIONS = ("sin", "cos", "tan", "exp", "cosh", "sinh", "tanh", "abs", "log", "sqrt")

# the ufunc that evaluates each operator and function node
_UFUNCS = {
    "neg": np.negative, "+": np.add, "-": np.subtract, "*": np.multiply,
    "/": np.divide, "^": np.power,
    **{name: getattr(np, name) for name in _FUNCTIONS},
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
    _fn: object = field(default=None, init=False, repr=False, compare=False)

    def __call__(self, x):
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
        if name in _FUNCTIONS:
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


def evaluate(e: Expr, x):
    """Evaluate ``e`` at ``x`` in IEEE double precision.

    ``x`` is a float (the result is a float) or an array (the result is an
    array of its shape).  Raises :class:`EvalDomainError` when any element
    meets division by zero, log of a non-positive argument, sqrt of a
    negative argument, a negative base raised to a non-integer power, or an
    overflowing or otherwise non-finite value.
    """
    return _compiled(e)(x)


def compile_fn(e: Expr):
    """The callable that :func:`evaluate` runs for ``e``, built once per node."""
    return _compiled(e)


def _compiled(e: Expr):
    fn = e._fn
    if fn is None:
        fn = _compile(e)
        object.__setattr__(e, "_fn", fn)
    return fn


def _compile(e: Expr):
    """Compose the numpy ufuncs of the tree into one function of x.

    Constant subtrees are folded to their value here, so a constant that
    leaves the domain raises already.
    """
    try:
        with np.errstate(all="raise", under="ignore"):
            value, f = _fold(e)
    except FloatingPointError as err:
        raise EvalDomainError(str(err)) from err

    if f is None:
        def constant(x):
            # isinstance first: np.ndim costs ten times the rest of a scalar call
            if isinstance(x, (float, int)) or np.ndim(x) == 0:
                return value
            return np.full(np.shape(x), value)
        return constant

    def call(x):
        x = np.array(x, dtype=float)
        try:
            with np.errstate(all="raise", under="ignore"):
                v = f(x)
        except FloatingPointError as err:
            raise EvalDomainError(str(err)) from err
        if not np.isfinite(v).all():
            raise EvalDomainError("non-finite value")
        return float(v) if v.ndim == 0 else v
    return call


def _fold(e: Expr):
    """``(value, None)`` for a constant subtree, ``(None, f)`` for one in x."""
    kind = e.kind
    if kind == "num":
        if not math.isfinite(e.value):
            raise EvalDomainError(f"non-finite literal {e.value!r}")
        return e.value, None
    if kind == "var":
        return None, _identity
    op = _UFUNCS.get(kind)
    if op is None:
        raise ExprError(f"unknown node kind {kind!r}")
    parts = [_fold(a) for a in e.args]
    if all(f is None for _, f in parts):
        return float(op(*(v for v, _ in parts))), None
    fs = [f or (lambda x, v=v: v) for v, f in parts]
    if len(fs) == 1:
        f = fs[0]
        return None, lambda x: op(f(x))
    f, g = fs
    return None, lambda x: op(f(x), g(x))


def _identity(x):
    return x
