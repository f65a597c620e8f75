"""Parsing and evaluation of closed-form scalar-field expressions.

Every user-specified field of a metric model (conformal factor, Killing
length, connection data, boundary values, prescribed curvature) is written
in a small arithmetic language over the chart variables ``x``, ``y`` and
the radial shorthand ``r = sqrt(x^2 + y^2)``.

The parser is a precedence climber.  ``^`` is right-associative and binds
tighter than unary minus, which in turn binds tighter than ``*`` and ``/``.
Any NaN/Inf produced during evaluation is reported as
:class:`ExprDomainError` instead of propagating silently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np


class ExprError(ValueError):
    """Base class for expression failures."""


class ExprSyntaxError(ExprError):
    """Malformed source text; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExprDomainError(ExprError):
    """Evaluation left the real domain (log of nonpositive, 0-division, ...)."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "x", "y" or "r"


@dataclass(frozen=True)
class Const:
    name: str  # "pi" or "e"


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


Expr = Union[Num, Var, Const, Neg, BinOp, Call]

_VARS = ("x", "y", "r")
_CONSTS = {"pi": np.pi, "e": np.e}
_UNARY_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "atan": np.arctan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "abs": np.abs,
}
_BINARY_FUNCS = {"min": np.minimum, "max": np.maximum}

# ---------------------------------------------------------------------------
# Tokenizer

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = "+-*/^(),"


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "ident", "op", "end"
    text: str
    offset: int


def _tokenize(source: str) -> list:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        m = _NUMBER_RE.match(source, i)
        if m:
            tokens.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(source, i)
        if m:
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        if c in _OPS:
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser (precedence climbing)

_LBP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_BP = 30  # between * / and ^


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str):
        tok = self.advance()
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(f"expected {text!r}", tok.offset)

    def expression(self, min_bp: int = 0) -> Expr:
        left = self.nud()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.text not in _LBP:
                break
            bp = _LBP[tok.text]
            if bp <= min_bp:
                break
            self.advance()
            # right-associative ^ re-enters at bp-1
            right = self.expression(bp - 1 if tok.text == "^" else bp)
            left = BinOp(tok.text, left, right)
        return left

    def nud(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "ident":
            name = tok.text
            if self.peek().kind == "op" and self.peek().text == "(":
                return self.call(name, tok.offset)
            if name in _VARS:
                return Var(name)
            if name in _CONSTS:
                return Const(name)
            raise ExprSyntaxError(f"unknown identifier {name!r}", tok.offset)
        if tok.kind == "op" and tok.text == "(":
            inner = self.expression(0)
            self.expect_op(")")
            return inner
        if tok.kind == "op" and tok.text == "-":
            return Neg(self.expression(_UNARY_BP))
        if tok.kind == "end":
            raise ExprSyntaxError("unexpected end of input", tok.offset)
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.offset)

    def call(self, name: str, offset: int) -> Expr:
        if name in _UNARY_FUNCS:
            arity = 1
        elif name in _BINARY_FUNCS:
            arity = 2
        else:
            raise ExprSyntaxError(f"unknown identifier {name!r}", offset)
        self.expect_op("(")
        args = [self.expression(0)]
        while len(args) < arity:
            self.expect_op(",")
            args.append(self.expression(0))
        self.expect_op(")")
        return Call(name, tuple(args))


def parse_expr(source: str) -> Expr:
    """Parse ``source`` into an AST, honoring standard precedence."""
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(source))
    expr = parser.expression(0)
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExprSyntaxError(f"unexpected token {trailing.text!r}", trailing.offset)
    return expr


# ---------------------------------------------------------------------------
# Printing

def _bp_of(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _LBP[e.op]
    if isinstance(e, Neg):
        return _UNARY_BP
    return 100


def to_source(e: Expr) -> str:
    """Render an AST back to source text; parse(to_source(e)) == e."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, (Var, Const)):
        return e.name
    if isinstance(e, Neg):
        inner = to_source(e.operand)
        if _bp_of(e.operand) < _UNARY_BP:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, BinOp):
        bp = _LBP[e.op]
        left = to_source(e.left)
        right = to_source(e.right)
        # left operand needs parens when looser, or equal for the right-assoc ^
        if _bp_of(e.left) < bp or (e.op == "^" and _bp_of(e.left) == bp):
            left = f"({left})"
        # right operand needs parens when looser-or-equal (left-assoc) except ^
        if _bp_of(e.right) < bp or (e.op != "^" and _bp_of(e.right) == bp):
            right = f"({right})"
        return f"{left}{e.op}{right}"
    if isinstance(e, Call):
        return f"{e.func}({','.join(to_source(a) for a in e.args)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation

def _ensure_finite(value, what: str):
    if not np.all(np.isfinite(value)):
        raise ExprDomainError(f"{what} produced a non-finite value")
    return value


def _eval(e: Expr, env: dict):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Const):
        return _CONSTS[e.name]
    if isinstance(e, Var):
        if e.name == "r" and "r" not in env:
            env["r"] = np.hypot(env["x"], env["y"])
        return env[e.name]
    if isinstance(e, Neg):
        return -_eval(e.operand, env)
    if isinstance(e, BinOp):
        a = _eval(e.left, env)
        b = _eval(e.right, env)
        with np.errstate(all="ignore"):
            if e.op == "+":
                out = a + b
            elif e.op == "-":
                out = a - b
            elif e.op == "*":
                out = a * b
            elif e.op == "/":
                out = np.divide(a, b)
            else:
                out = np.power(a, b, dtype=np.float64)
        return _ensure_finite(out, f"operator {e.op!r}")
    if isinstance(e, Call):
        args = [_eval(a, env) for a in e.args]
        fn = _UNARY_FUNCS.get(e.func) or _BINARY_FUNCS[e.func]
        with np.errstate(all="ignore"):
            out = fn(*args)
        return _ensure_finite(out, f"function {e.func!r}")
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(e: Expr, x, y):
    """Evaluate at scalar or array ``x``, ``y``; raises ExprDomainError on NaN/Inf."""
    out = _eval(e, {"x": np.asarray(x, dtype=np.float64), "y": np.asarray(y, dtype=np.float64)})
    return np.asarray(out, dtype=np.float64) + np.zeros_like(np.asarray(x, dtype=np.float64))


def eval_field(e: Expr, p) -> float:
    """Pointwise IEEE-double evaluation at a chart point ``p = (x, y)``."""
    return float(evaluate(e, float(p[0]), float(p[1])))


def grad_field(e: Expr, p, h: float = None):
    """Fourth-order central-difference gradient at ``p``.

    Default step is 1e-6 * (1 + |p|); the O(h^4) truncation makes the formula
    exact (up to roundoff) on polynomials of degree <= 4.
    """
    from .fields import _fd_partials
    fx, fy = _fd_partials(lambda x, y: evaluate(e, x, y), float(p[0]), float(p[1]), h)
    return float(fx), float(fy)
