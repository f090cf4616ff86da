"""Closed-form coefficient expressions: AST, parser, printer, vectorised evaluation.

Grammar (left-associative binaries, precedence ``^`` > unary ``-`` > ``* /`` > ``+ -``)::

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' atom)*
    atom   := number | func '(' expr (',' expr)* ')' | var | '(' expr ')'

Variables are ``x1 .. xd``.  Functions: abs, exp, log, sqrt, sin, cos
(unary) and min, max (binary).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

UNARY_FUNCS = {
    "abs": np.abs,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
}
BINARY_FUNCS = {"min": np.minimum, "max": np.maximum}


class ExprSyntaxError(ValueError):
    """Raised on malformed input; ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprSyntaxError):
    pass


class EvalDomainError(ArithmeticError):
    """Evaluation left the expression's domain (log/sqrt of a negative, x/0).

    ``bad_mask`` marks the offending evaluation points when the input was an array.
    """

    def __init__(self, message: str, bad_mask=None):
        super().__init__(message)
        self.bad_mask = bad_mask


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based: x1 .. xd

    @property
    def name(self) -> str:
        return f"x{self.index}"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


Expr = Const | Var | Neg | BinOp | Call

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|\Z)"  # the end of the input, after trailing whitespace
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # skip leading whitespace handled by the regex; anything left is junk
            stripped = text[pos:].lstrip()
            off = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", off)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        elif m.group("op") is not None:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, dim):
        self.tokens = tokens
        self.i = 0
        self.dim = dim

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.take()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", off)

    def parse_expr(self):
        node = self.parse_term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.peek()[:2] == ("op", "-"):
            self.take()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        while self.peek()[:2] == ("op", "^"):
            self.take()
            node = BinOp("^", node, self.parse_atom())
        return node

    def parse_atom(self):
        kind, val, off = self.take()
        if kind == "num":
            return Const(float(val))
        if kind == "ident":
            if val in UNARY_FUNCS or val in BINARY_FUNCS:
                self.expect_op("(")
                args = [self.parse_expr()]
                while self.peek()[:2] == ("op", ","):
                    self.take()
                    args.append(self.parse_expr())
                self.expect_op(")")
                want = 1 if val in UNARY_FUNCS else 2
                if len(args) != want:
                    raise ExprSyntaxError(
                        f"{val} takes {want} argument(s), got {len(args)}", off
                    )
                return Call(val, tuple(args))
            m = re.fullmatch(r"x([1-9]\d*)", val)
            if m is None:
                raise UnknownIdentifierError(f"unknown identifier {val!r}", off)
            idx = int(m.group(1))
            if self.dim is not None and idx > self.dim:
                raise UnknownIdentifierError(
                    f"variable {val} exceeds dimension {self.dim}", off
                )
            return Var(idx)
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {val!r}" if val else "unexpected end of input", off)


def parse_expr(text: str, dim: int | None = None) -> Expr:
    """Parse ``text`` into an expression tree; raises ExprSyntaxError with byte offset."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(text), dim)
    node = parser.parse_expr()
    kind, val, off = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {val!r}", off)
    return node


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return 3
    return 5


def print_expr(e: Expr) -> str:
    """Render with minimal parentheses; parse_expr(print_expr(e)) == e."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = print_expr(e.arg)
        if _prec(e.arg) < 3:
            inner = f"({inner})"
        return "-" + inner
    if isinstance(e, Call):
        return f"{e.func}({', '.join(print_expr(a) for a in e.args)})"
    if isinstance(e, BinOp):
        p = _PREC[e.op]
        left = print_expr(e.left)
        if _prec(e.left) < p:
            left = f"({left})"
        right = print_expr(e.right)
        if _prec(e.right) <= p:  # left-associative: right child needs parens on ties
            right = f"({right})"
        return f"{left} {e.op} {right}"
    raise TypeError(f"not an expression: {e!r}")


def evaluate(e: Expr, coords) -> np.ndarray:
    """Evaluate at points.

    ``coords`` maps variable index (1-based) to a scalar or ndarray; all arrays
    must share a shape.  Raises EvalDomainError on division by zero or log/sqrt
    of a negative argument, with the offending mask attached.
    """
    if isinstance(e, Const):
        return np.asarray(e.value, dtype=float)
    if isinstance(e, Var):
        try:
            return np.asarray(coords[e.index], dtype=float)
        except KeyError:
            raise EvalDomainError(f"no value for variable {e.name}") from None
    if isinstance(e, Neg):
        return -evaluate(e.arg, coords)
    if isinstance(e, BinOp):
        a = evaluate(e.left, coords)
        b = evaluate(e.right, coords)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            bad = b == 0
            if np.any(bad):
                raise EvalDomainError("division by zero", np.broadcast_to(bad, np.broadcast_shapes(np.shape(a), np.shape(b))))
            return a / b
        if e.op == "^":
            with np.errstate(invalid="ignore", divide="ignore"):
                out = np.asarray(a, dtype=float) ** b
            bad = ~np.isfinite(out)
            if np.any(bad):
                raise EvalDomainError("power left the real domain", bad)
            return out
        raise TypeError(f"bad operator {e.op!r}")
    if isinstance(e, Call):
        args = [evaluate(a, coords) for a in e.args]
        if e.func == "log":
            bad = args[0] <= 0
            if np.any(bad):
                raise EvalDomainError("log of a non-positive argument", bad)
        elif e.func == "sqrt":
            bad = args[0] < 0
            if np.any(bad):
                raise EvalDomainError("sqrt of a negative argument", bad)
        fn = UNARY_FUNCS.get(e.func) or BINARY_FUNCS[e.func]
        return fn(*args)
    raise TypeError(f"not an expression: {e!r}")


def const(v: float) -> Expr:
    return Const(float(v))
