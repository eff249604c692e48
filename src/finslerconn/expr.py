"""A small expression language for chart-dependent input fields.

Norm functions, one-form components and endomorphism entries all enter the
engine as strings like ``"sqrt(y1^2 + exp(2*x1)*y2^2)"``.  This module
tokenizes and parses them (a Pratt parser with the usual precedence
``^`` > unary ``-`` > ``*``/``/`` > ``+``/``-``) and evaluates the AST on
:class:`~finslerconn.ad.ChartJets` or a tower built on them.

Evaluation runs a :class:`Tape`: a list of trees (the entries of a field,
or every expression entry of a parameter pack) is compiled once into
straight-line steps, one per node in post-order.  Trees of one shape share
their steps and run as one batch, one series operation per step:

* the shape is the node kinds, function names and exponents; ``+`` and
  ``-`` are one kind, told apart by a vector of signs (``a - b`` has the
  bits of ``a + (-1.0 * b)``);
* a number (negated or not: ``-0.5`` is a literal), a variable and a
  literal factor are a value vector, a row index and a factor vector.

Each tree gets the bits its own node-by-node walk gives it, in whatever
ring the jets are in: in a lower ring, the cut of the higher ring's
values.  On an error the trees run again one by one, so the error is the
first failing tree's.

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
from functools import cached_property
from typing import Sequence

import numpy as np

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
    "Tape",
    "evaluate",
    "ExprField",
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
# evaluation: one straight-line tape per list of trees

# the kinds of tape step
_NUM, _VAR, _NEG, _CALL, _POW, _SCALE, _ADD, _MUL, _DIV = range(9)


class _Linearizer:
    """Appends the steps of trees in post-order.

    A step is ``(kind, attribute, left register, right register)``, and
    the steps of a tree are its shape.  The attribute is a function name,
    an exponent, or where the step's datum sits, the data being what trees
    of one shape differ in: a number's value and sign (``-2`` is a number),
    a literal factor and the sign of a ``+`` or ``-`` go to ``values``, a
    variable's row in the stacked ``(xs, ys)`` to ``rows``.
    """

    def __init__(self, n: int):
        self.n = n
        self.steps: list[tuple] = []
        self.values: list[float] = []
        self.rows: list[int] = []

    def value(self, datum: float) -> int:
        self.values.append(datum)
        return len(self.values) - 1

    def add(self, node: Node) -> int:
        """Append the steps of ``node`` and return its register."""
        if isinstance(node, Num) or isinstance(node, Neg) and isinstance(node.arg, Num):
            # a literal and its negation are one shape: the value, then a sign
            negated = isinstance(node, Neg)
            step = (_NUM, self.value(node.arg.value if negated else node.value), -1, -1)
            self.value(-1.0 if negated else 1.0)
        elif isinstance(node, Var):
            self.rows.append(node.index - 1 + (self.n if node.kind == "y" else 0))
            step = (_VAR, len(self.rows) - 1, -1, -1)
        elif isinstance(node, Neg):
            step = (_NEG, None, self.add(node.arg), -1)
        elif isinstance(node, Call):
            step = (_CALL, node.func, self.add(node.arg), -1)
        elif not isinstance(node, BinOp):
            raise TypeError(f"not an expression node: {node!r}")
        elif node.op == "^":
            assert isinstance(node.right, Num)
            step = (_POW, node.right.value, self.add(node.left), -1)
        elif node.op == "*" and isinstance(node.right, Num):
            step = (_SCALE, self.value(node.right.value), self.add(node.left), -1)
        elif node.op == "*" and isinstance(node.left, Num):
            step = (_SCALE, self.value(node.left.value), self.add(node.right), -1)
        elif node.op in "+-":
            sign = self.value(1.0 if node.op == "+" else -1.0)
            step = (_ADD, sign, self.add(node.left), self.add(node.right))
        else:
            step = (_MUL if node.op == "*" else _DIV, None, self.add(node.left), self.add(node.right))
        self.steps.append(step)
        return len(self.steps) - 1


def _run_steps(steps: Sequence[tuple], values: np.ndarray, rows: np.ndarray, rg, stacked: np.ndarray) -> Series:
    """Run one shape's steps on a batch of trees: ``values[k]`` is value
    slot ``k`` over the batch as a column, ``rows[k]`` row slot ``k``."""
    regs: list[Series] = []
    for kind, attr, a, b in steps:
        if kind == _VAR:
            out = Series(rg, stacked.take(rows[attr], axis=0))
        elif kind == _SCALE:
            # the bits of ``s * c``, which is ``s.coef * c + 0.0``
            out = Series(rg, regs[a].coef * values[attr] + 0.0)
        elif kind == _ADD:
            # ``a - b`` is ``a + (-1.0 * b)``, bit for bit
            out = Series(rg, regs[a].coef + regs[b].coef * values[attr])
        elif kind == _NUM:
            # ``-c`` has the bits of ``-(Series.const(rg, c))``, -0.0 included
            out = Series(rg, Series.const(rg, values[attr][..., 0]).coef * values[attr + 1])
        elif kind == _MUL:
            out = regs[a] * regs[b]
        elif kind == _DIV:
            out = regs[a] / regs[b]
        elif kind == _POW:
            out = regs[a] ** attr
        elif kind == _CALL:
            out = getattr(regs[a], attr)()
        else:
            out = -regs[a]
        regs.append(out)
    return regs[-1]


class Tape:
    """A list of expression trees compiled into straight-line steps.

    Trees of one shape share their steps and run as one batch: each step
    is one series operation over the batch (dynamic batching, Looks et
    al., "Deep Learning with Dynamic Computation Graphs", ICLR 2017).
    ``+`` and ``-`` are one shape, told apart by a sign; literals and
    variables are value and row vectors.  Each tree gets the bits the
    operations of its own walk give it.
    """

    def __init__(self, trees: Sequence[Node], n: int):
        self.n = n
        self.size = len(trees)
        shapes: dict[tuple, tuple[list, list, list]] = {}
        for pos, tree in enumerate(trees):
            lin = _Linearizer(n)
            lin.add(tree)
            positions, values, rows = shapes.setdefault(tuple(lin.steps), ([], [], []))
            positions.append(pos)
            values.append(lin.values)
            rows.append(lin.rows)
        # per shape: its steps, its trees' positions, and their data as
        # arrays of shape (value slot, tree, 1) and (row slot, tree)
        self.groups = [
            (
                steps,
                np.array(positions),
                np.array(list(zip(*values)), dtype=float).reshape(-1, len(positions), 1),
                np.array(list(zip(*rows)), dtype=np.int64).reshape(-1, len(positions)),
            )
            for steps, (positions, values, rows) in shapes.items()
        ]

    def run(self, jets) -> Series:
        """Every tree's value on ``jets`` (anything with chart ``xs`` and
        ``ys`` of one ring, of at least the tape's dimension), stacked in
        tree order on a new leading axis.  Jets of a batch of points (``xs``
        of shape ``(n, points)``) give each tree one value per point, on the
        axis after the tree axis.

        On an error the trees run again one by one in order, so the error
        raised is that of the first tree that fails.  The steps run with
        numpy's overflow, division and invalid-value warnings off: a value
        that is not finite is the caller's to refuse (as ``DomainError``),
        not a warning's.
        """
        xs, ys = jets.xs, jets.ys
        if xs.shape[0] < self.n:
            raise ValueError(
                f"expressions over {self.n} chart dimensions evaluated on jets of shape {xs.shape}"
            )
        rg = xs.ring
        stacked = np.concatenate((xs.coef[: self.n], ys.coef[: self.n]))
        groups = self.groups
        if stacked.ndim > 2:  # value columns broadcast over the points
            points = (1,) * (stacked.ndim - 2)
            groups = [(s, pos, v.reshape(v.shape[:2] + points + (1,)), r) for s, pos, v, r in groups]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            try:
                out = [_run_steps(steps, v, r, rg, stacked) for steps, _, v, r in groups]
            except (ValueError, ZeroDivisionError):
                place = {p: (group, i) for group in groups for i, p in enumerate(group[1].tolist())}
                for (steps, _, values, rows), i in map(place.get, range(self.size)):
                    _run_steps(steps, values[:, i : i + 1], rows[:, i : i + 1], rg, stacked)
                raise
        shape = (self.size,) + stacked.shape[1:]
        if len(out) == 1 and out[0].coef.shape == shape:
            return out[0]
        coef = np.empty(shape)
        for (_, positions, _, _), value in zip(groups, out):
            coef[positions] = value.coef
        return Series(rg, coef)


def evaluate(node: Node, jets: ChartJets) -> Series:
    """Evaluate an AST to a scalar series on the given chart jets."""
    return Tape([node], jets.xs.shape[0]).run(jets)[0]


# ---------------------------------------------------------------------------
# field adapters


class ExprField:
    """A chart field with one expression per entry.

    ``trees`` holds the entries in row-major order and ``shape`` their
    batch shape; ``eval`` runs them as one :class:`Tape`, compiled on the
    first evaluation (a pack runs its fields through its own tape, so
    their separate tapes are compiled only when asked for).
    """

    n: int
    shape: tuple[int, ...]
    trees: tuple[Node, ...]

    @cached_property
    def tape(self) -> Tape:
        return Tape(self.trees, self.n)

    def eval(self, jets) -> Series:
        value = self.tape.run(jets)
        return Series(value.ring, value.coef.reshape(self.shape + value.coef.shape[1:]))


class ExprScalarField(ExprField):
    """A scalar chart field defined by one expression string."""

    def __init__(self, n: int, text: str):
        self.n = n
        self.text = text
        self.trees = (parse_expression(text, n),)
        self.shape = ()

    def describe(self) -> str:
        return self.text

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ExprScalarField({self.n}, {self.text!r})"


class ExprCovectorField(ExprField):
    """A covector field with one expression per component."""

    def __init__(self, n: int, components: Sequence[str]):
        if len(components) != n:
            raise ValueError(f"need {n} components, got {len(components)}")
        self.n = n
        self.components = tuple(components)
        self.trees = tuple(parse_expression(t, n) for t in components)
        self.shape = (n,)

    def describe(self) -> str:
        return "[" + ", ".join(self.components) + "]"


class ExprMatrixField(ExprField):
    """An endomorphism field with one expression per entry (row-major)."""

    def __init__(self, n: int, rows: Sequence[Sequence[str]]):
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"need an {n}x{n} grid of expressions")
        self.n = n
        self.rows = tuple(tuple(r) for r in rows)
        self.trees = tuple(parse_expression(t, n) for row in rows for t in row)
        self.shape = (n, n)

    def describe(self) -> str:
        return "; ".join("[" + ", ".join(r) + "]" for r in self.rows)
