"""A small expression language for chart-dependent input fields.

Norm functions, one-form components and endomorphism entries all enter the
engine as strings like ``"sqrt(y1^2 + exp(2*x1)*y2^2)"``.  This module
tokenizes and parses them (a Pratt parser with the usual precedence
``^`` > unary ``-`` > ``*``/``/`` > ``+``/``-``) and evaluates the AST on
:class:`~finslerconn.ad.ChartJets` or a tower built on them.

Variables are ``x1..xn`` and ``y1..yn`` for the chart dimension ``n``;
functions are ``sqrt``, ``exp``, ``log``, ``sin``, ``cos``, ``abs``.
Exponents of ``^`` must be constant (integer, decimal, or a parenthesized
ratio like ``(3/2)``) so that differentiation stays within the analytic
toolbox.  All syntax errors carry the byte offset of the offending token.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from typing import Sequence

from .ad import ChartJets, Series

__all__ = [
    "ExprError",
    "Node",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "parse_expression",
    "evaluate",
    "ExprScalarField",
    "ExprCovectorField",
    "ExprMatrixField",
    "FUNCTIONS",
]

FUNCTIONS = ("sqrt", "exp", "log", "sin", "cos", "abs")


class ExprError(ValueError):
    """Parse or validation failure, with the byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Node:
    offset: int = field(compare=False)


@dataclass(frozen=True)
class Num(Node):
    value: float = 0.0


@dataclass(frozen=True)
class Var(Node):
    kind: str = "x"  # "x" or "y"
    index: int = 1  # 1-based


@dataclass(frozen=True)
class Neg(Node):
    arg: "Node" = None  # type: ignore[assignment]


@dataclass(frozen=True)
class BinOp(Node):
    op: str = "+"
    left: "Node" = None  # type: ignore[assignment]
    right: "Node" = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Call(Node):
    func: str = "sqrt"
    arg: "Node" = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# tokens


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "ident" | "op" | "end"
    text: str
    offset: int


def _tokenize(src: str) -> list[_Token]:
    out: list[_Token] = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ExprError(f"unexpected character {src[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(_Token("end", "", len(src)))
    return out


_VAR_RE = re.compile(r"^([xy])([1-9][0-9]*)$")

_BINARY_BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_BP = 30
# deepest AST accepted; parsing, printing and evaluation recurse once per
# level, so this keeps them clear of the interpreter's recursion limit
_MAX_DEPTH = 200


class _Parser:
    def __init__(self, src: str, n: int):
        self.src = src
        self.n = n
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0  # AST depth of the node being parsed

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ExprError(f"expected {text!r}", tok.offset)
        return self.advance()

    # Pratt core -----------------------------------------------------------

    def parse(self) -> Node:
        node = self.expression(0)
        tok = self.peek()
        if tok.kind != "end":
            raise ExprError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return node

    def nest(self) -> None:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ExprError(f"expression nested deeper than {_MAX_DEPTH} levels", self.peek().offset)

    def expression(self, rbp: int) -> Node:
        outer = self.depth
        self.nest()
        node = self.prefix()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.text not in _BINARY_BP:
                break
            lbp = _BINARY_BP[tok.text]
            if lbp <= rbp:
                break
            self.advance()
            self.nest()  # each operator of a chain wraps the node once more
            if tok.text == "^":
                node = self.finish_power(node, tok)
            else:
                right = self.expression(lbp)
                node = BinOp(tok.offset, tok.text, node, right)
        self.depth = outer
        return node

    def prefix(self) -> Node:
        tok = self.advance()
        if tok.kind == "number":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExprError(f"number {tok.text!r} is not finite", tok.offset)
            return Num(tok.offset, value)
        if tok.kind == "ident":
            return self.identifier(tok)
        if tok.kind == "op" and tok.text == "-":
            return Neg(tok.offset, self.expression(_UNARY_BP))
        if tok.kind == "op" and tok.text == "+":
            return self.expression(_UNARY_BP)
        if tok.kind == "op" and tok.text == "(":
            node = self.expression(0)
            self.expect_op(")")
            return node
        raise ExprError(f"unexpected token {tok.text!r}" if tok.text else "unexpected end of input", tok.offset)

    def identifier(self, tok: _Token) -> Node:
        if tok.text in FUNCTIONS:
            self.expect_op("(")
            arg = self.expression(0)
            self.expect_op(")")
            return Call(tok.offset, tok.text, arg)
        m = _VAR_RE.match(tok.text)
        if m is None:
            raise ExprError(f"unknown identifier {tok.text!r}", tok.offset)
        index = int(m.group(2))
        if index > self.n:
            raise ExprError(
                f"variable {tok.text!r} exceeds chart dimension {self.n}", tok.offset
            )
        return Var(tok.offset, m.group(1), index)

    # constant exponents ----------------------------------------------------

    def finish_power(self, base: Node, caret: _Token) -> Node:
        exp_node = self.expression(_BINARY_BP["^"])
        value = _fold_constant(exp_node)
        if value is None:
            raise ExprError("exponent of '^' must be a constant", exp_node.offset)
        return BinOp(caret.offset, "^", base, Num(exp_node.offset, value))


_CONSTANT_FUNCTIONS = {
    "sqrt": math.sqrt, "exp": math.exp, "log": math.log,
    "sin": math.sin, "cos": math.cos, "abs": abs,
}
_CONSTANT_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "^": operator.pow,
}


def _fold_constant(node: Node) -> float | None:
    """Evaluate a variable-free subtree to a float, or return None.

    Every variable-free subtree below ``node`` is evaluated too, and one
    with no finite real value (``1/0``, ``2^2000``, ``1e308*10``,
    ``log(0)``) raises :class:`ExprError` at its offset.
    """
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Neg):
        v = _fold_constant(node.arg)
        return None if v is None else -v
    if isinstance(node, Call):
        name, op, args = node.func, _CONSTANT_FUNCTIONS[node.func], [_fold_constant(node.arg)]
    elif isinstance(node, BinOp):
        name, op = node.op, _CONSTANT_OPS[node.op]
        args = [_fold_constant(node.left), _fold_constant(node.right)]
    else:
        return None
    if None in args:
        return None
    try:
        value = op(*args)
    except (ArithmeticError, ValueError):  # division by zero, overflow, math domain
        value = math.nan
    if not (isinstance(value, float) and math.isfinite(value)):  # a**b may be complex
        raise ExprError(f"constant {name!r} has no finite value", node.offset)
    return value


def parse_expression(text: str, n: int) -> Node:
    """Parse ``text`` over the chart variables x1..xn, y1..yn.

    A variable-free subexpression with no finite value raises
    :class:`ExprError` at its offset; the tree is returned as parsed.
    """
    if n < 1:
        raise ValueError("chart dimension must be at least 1")
    node = _Parser(text, n).parse()
    _fold_constant(node)
    return node


# ---------------------------------------------------------------------------
# evaluation


def evaluate(node: Node, jets: ChartJets) -> Series:
    """Evaluate an AST to a scalar series on the given chart jets."""
    if isinstance(node, Num):
        return jets.const(node.value)
    if isinstance(node, Var):
        comps = jets.xs if node.kind == "x" else jets.ys
        return comps[node.index - 1]
    if isinstance(node, Neg):
        return -evaluate(node.arg, jets)
    if isinstance(node, Call):
        arg = evaluate(node.arg, jets)
        return getattr(arg, node.func)()
    if isinstance(node, BinOp):
        if node.op == "^":
            assert isinstance(node.right, Num)
            return evaluate(node.left, jets) ** node.right.value
        if node.op == "*" and isinstance(node.right, Num):
            # a literal factor scales, with the bits of the constant-factor
            # product of a ``jets.const`` series
            return evaluate(node.left, jets) * node.right.value
        if node.op == "*" and isinstance(node.left, Num):
            return evaluate(node.right, jets) * node.left.value
        left = evaluate(node.left, jets)
        right = evaluate(node.right, jets)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return left / right
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# field adapters


class ExprScalarField:
    """A scalar chart field defined by one expression string."""

    def __init__(self, n: int, text: str):
        self.n = n
        self.text = text
        self._ast = parse_expression(text, n)

    def eval(self, jets: ChartJets) -> Series:
        return evaluate(self._ast, jets)

    def describe(self) -> str:
        return self.text

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ExprScalarField({self.n}, {self.text!r})"


class ExprCovectorField:
    """A covector field with one expression per component."""

    def __init__(self, n: int, components: Sequence[str]):
        if len(components) != n:
            raise ValueError(f"need {n} components, got {len(components)}")
        self.n = n
        self.components = tuple(components)
        self._asts = [parse_expression(t, n) for t in components]

    def eval(self, jets: ChartJets) -> Series:
        return Series.stack([evaluate(a, jets) for a in self._asts])

    def describe(self) -> str:
        return "[" + ", ".join(self.components) + "]"


class ExprMatrixField:
    """An endomorphism field with one expression per entry (row-major)."""

    def __init__(self, n: int, rows: Sequence[Sequence[str]]):
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"need an {n}x{n} grid of expressions")
        self.n = n
        self.rows = tuple(tuple(r) for r in rows)
        self._asts = [[parse_expression(t, n) for t in row] for row in rows]

    def eval(self, jets: ChartJets) -> Series:
        return Series.stack(
            [Series.stack([evaluate(a, jets) for a in row]) for row in self._asts]
        )

    def describe(self) -> str:
        return "; ".join("[" + ", ".join(r) + "]" for r in self.rows)

