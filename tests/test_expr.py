"""Tests for the expression language: tokens, precedence, errors, AST shapes,
and agreement of evaluated derivatives with finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerconn import cli
from finslerconn.ad import ChartJets, Constant, Series, lower, ring
from finslerconn.deformation import parameter_field
from finslerconn.expr import (
    FUNCTIONS,
    BinOp,
    Call,
    ExprCovectorField,
    ExprError,
    ExprMatrixField,
    ExprScalarField,
    Neg,
    Num,
    Tape,
    Var,
    evaluate,
    parse_expression,
)
from finslerconn.finsler import ChartPoint, DomainError, FinslerStructure
from finslerconn.verify import random_param_sets


def _value(text, x, y, n=2, order=0):
    jets = ChartJets.at(x, y, order)
    return float(evaluate(parse_expression(text, n), jets).val)


# ---------------------------------------------------------------------------
# parsing and precedence


def test_precedence_product_over_sum():
    assert _value("1 + 2*3", [0, 0], [1, 1]) == 7.0
    assert _value("(1 + 2)*3", [0, 0], [1, 1]) == 9.0


def test_precedence_power_over_unary_minus():
    assert _value("-2^2", [0, 0], [1, 1]) == -4.0
    assert _value("(-2)^2", [0, 0], [1, 1]) == 4.0


def test_left_associativity():
    assert _value("8/4/2", [0, 0], [1, 1]) == 1.0
    assert _value("8 - 4 - 2", [0, 0], [1, 1]) == 2.0


def test_chained_power_is_left_associative():
    assert _value("2^3^2", [0, 0], [1, 1]) == 64.0  # (2^3)^2


def test_variables_read_chart_slots():
    assert _value("x1 + 10*x2 + 100*y1 + 1000*y2", [1, 2], [3, 4]) == 4321.0


def test_functions_evaluate():
    assert _value("sqrt(y1)", [0, 0], [4, 1]) == 2.0
    assert _value("exp(x1)", [0.5, 0], [1, 1]) == pytest.approx(math.exp(0.5))
    assert _value("log(exp(1))", [0, 0], [1, 1]) == pytest.approx(1.0)
    assert _value("sin(x1)^2 + cos(x1)^2", [0.7, 0], [1, 1]) == pytest.approx(1.0)
    assert _value("abs(x1)", [-0.3, 0], [1, 1]) == pytest.approx(0.3)


def test_rational_and_negative_exponents():
    assert _value("y1^(3/2)", [0, 0], [4, 1]) == 8.0
    assert _value("y1^-2", [0, 0], [4, 1]) == pytest.approx(1 / 16)
    assert _value("y1^1.5", [0, 0], [4, 1]) == 8.0


def test_scientific_notation_numbers():
    assert _value("1e2 + 2.5e-1", [0, 0], [1, 1]) == pytest.approx(100.25)


def test_unary_plus_and_nested_negation():
    assert _value("+5", [0, 0], [1, 1]) == 5.0
    assert _value("--5", [0, 0], [1, 1]) == 5.0
    assert _value("2*-3", [0, 0], [1, 1]) == -6.0


# ---------------------------------------------------------------------------
# errors carry offsets


def test_unknown_identifier_offset():
    with pytest.raises(ExprError) as err:
        parse_expression("y1 + foo*2", 2)
    assert err.value.offset == 5


def test_variable_index_out_of_range():
    with pytest.raises(ExprError) as err:
        parse_expression("x3 + 1", 2)
    assert err.value.offset == 0
    assert "chart dimension" in str(err.value)
    parse_expression("x3 + 1", 3)  # fine at n = 3


def test_x0_is_not_a_variable():
    with pytest.raises(ExprError):
        parse_expression("x0", 2)


def test_unbalanced_parens():
    with pytest.raises(ExprError) as err:
        parse_expression("(y1 + 2", 2)
    assert err.value.offset == 7


def test_trailing_garbage():
    with pytest.raises(ExprError) as err:
        parse_expression("y1 2", 2)
    assert err.value.offset == 3


def test_unexpected_character():
    with pytest.raises(ExprError) as err:
        parse_expression("y1 @ 2", 2)
    assert err.value.offset == 3


def test_non_finite_number_literal_rejected():
    with pytest.raises(ExprError, match="not finite") as err:
        parse_expression("y1 + 2e999*x1", 2)
    assert err.value.offset == 5
    parse_expression("1e308*x1", 2)  # the largest decades still parse


def test_nonconstant_exponent_rejected():
    with pytest.raises(ExprError) as err:
        parse_expression("y1^x1", 2)
    assert "constant" in str(err.value)


def test_constant_exponent_without_a_value_rejected():
    with pytest.raises(ExprError) as err:
        parse_expression("y1^(1/0)", 2)
    assert err.value.offset == 5  # the '/'


@pytest.mark.parametrize(
    "text, offset",
    [
        ("1/0 + x1", 1),  # division by zero
        ("2^2000*y1", 1),  # overflow raised by the power
        ("y1 + 1e308*10", 10),  # overflow to inf
        ("x1*log(0)", 3),  # outside a function's domain
        ("(-8)^(1/3)*y1", 4),  # a complex power
        ("x1 / (1/(1e308*10))", 14),  # an inner subexpression without a value
    ],
)
def test_constant_subexpression_without_a_finite_value_rejected(text, offset):
    with pytest.raises(ExprError, match="has no finite value") as err:
        parse_expression(text, 2)
    assert err.value.offset == offset


def test_constant_subexpressions_with_finite_values_parse_unchanged():
    ast = parse_expression("y1/0.5 + sqrt(2)*exp(3)*x1 - (-2)^2", 2)
    quotient = BinOp(0, "/", Var(0, "y", 1), Num(0, 0.5))
    factor = BinOp(0, "*", Call(0, "sqrt", Num(0, 2.0)), Call(0, "exp", Num(0, 3.0)))
    square = BinOp(0, "^", Neg(0, Num(0, 2.0)), Num(0, 2.0))
    assert ast == BinOp(0, "-", BinOp(0, "+", quotient, BinOp(0, "*", factor, Var(0, "x", 1))), square)
    parse_expression("y1/0", 2)  # not variable-free: fails at evaluation, as a DomainError


def test_deep_nesting_rejected():
    with pytest.raises(ExprError, match="nested") as err:
        parse_expression("(" * 5000 + "x1" + ")" * 5000, 2)
    assert err.value.offset == 200


def test_function_requires_parens():
    with pytest.raises(ExprError):
        parse_expression("sqrt y1", 2)


def test_empty_input():
    with pytest.raises(ExprError):
        parse_expression("", 2)


# ---------------------------------------------------------------------------
# AST shapes


def test_ast_shapes():
    ast = parse_expression("sqrt(y1) + -x1*2", 2)
    assert isinstance(ast, BinOp) and ast.op == "+"
    assert isinstance(ast.left, Call) and isinstance(ast.left.arg, Var)
    assert isinstance(ast.right, BinOp) and isinstance(ast.right.left, Neg)
    assert isinstance(ast.right.right, Num)


def _evaluate_literals_as_series(node, jets):
    """``evaluate`` with every literal a ``jets.const`` series, so that a
    literal factor runs the series product."""
    if isinstance(node, Num):
        return jets.const(node.value)
    if isinstance(node, Var):
        return (jets.xs if node.kind == "x" else jets.ys)[node.index - 1]
    if isinstance(node, Neg):
        return -_evaluate_literals_as_series(node.arg, jets)
    if isinstance(node, Call):
        return getattr(_evaluate_literals_as_series(node.arg, jets), node.func)()
    if node.op == "^":
        return _evaluate_literals_as_series(node.left, jets) ** node.right.value
    left = _evaluate_literals_as_series(node.left, jets)
    right = _evaluate_literals_as_series(node.right, jets)
    return {"+": left.__add__, "-": left.__sub__, "*": left.__mul__, "/": left.__truediv__}[node.op](right)


@pytest.mark.parametrize(
    "text",
    [
        "2*x1",
        "x1*2",
        "0*x1",
        "x2*0",
        "-0.5*y2*x1 + 3*exp(x1)*2",
        "2*3*y1 - x2*(0*y2 + 1.5)",
        "sqrt(y1^2 + y2^2)*0.25 + 1e-3*x1*x2*y1/4",
    ],
)
@pytest.mark.parametrize("order", [0, 2, (4, 1)])
def test_literal_factors_scale_with_the_bits_of_the_series_product(text, order):
    # x1 < 0, so a literal 0 meets negative coefficients
    jets = ChartJets.at([-0.3, 0.2], [0.7, -1.1], order)
    node = parse_expression(text, 2)
    got, want = evaluate(node, jets), _evaluate_literals_as_series(node, jets)
    assert got.ring is want.ring
    assert np.array_equal(got.coef.view(np.int64), want.coef.view(np.int64))


# ---------------------------------------------------------------------------
# the tape against the recursive walk it replaced, bit for bit


def _recursive_evaluate(node, jets):
    """The recursive walk ``evaluate`` was before trees ran as a tape: one
    series operation per node, a literal factor scaling the other side."""
    if isinstance(node, Num):
        return jets.const(node.value)
    if isinstance(node, Var):
        return (jets.xs if node.kind == "x" else jets.ys)[node.index - 1]
    if isinstance(node, Neg):
        return -_recursive_evaluate(node.arg, jets)
    if isinstance(node, Call):
        return getattr(_recursive_evaluate(node.arg, jets), node.func)()
    if node.op == "^":
        return _recursive_evaluate(node.left, jets) ** node.right.value
    if node.op == "*" and isinstance(node.right, Num):
        return _recursive_evaluate(node.left, jets) * node.right.value
    if node.op == "*" and isinstance(node.left, Num):
        return _recursive_evaluate(node.right, jets) * node.left.value
    left = _recursive_evaluate(node.left, jets)
    right = _recursive_evaluate(node.right, jets)
    return {"+": left.__add__, "-": left.__sub__, "*": left.__mul__, "/": left.__truediv__}[node.op](right)


_LITERALS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]) | st.floats(0.01, 3.0)
# an int, a negative and a fractional exponent among them
_EXPONENTS = [2.0, 3.0, 0.0, -1.0, -2.0, 0.5, 1.5, -0.5]


@st.composite
def _template(draw, n, depth):
    """A tree over every node kind: leaves, ``-``, the six calls, ``^``,
    literal factors on either side, ``+``/``-``, ``*`` and ``/``."""
    kinds = ["num", "var"] + (["neg", "call", "pow", "scale", "add", "mul", "div"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    sub = lambda: draw(_template(n, depth - 1))  # noqa: E731
    if kind == "num":
        return Num(0, draw(_LITERALS))
    if kind == "var":
        return Var(0, draw(st.sampled_from("xy")), draw(st.integers(1, n)))
    if kind == "neg":
        return Neg(0, sub())
    if kind == "call":
        return Call(0, draw(st.sampled_from(FUNCTIONS)), sub())
    if kind == "pow":
        return BinOp(0, "^", sub(), Num(0, draw(st.sampled_from(_EXPONENTS))))
    if kind == "scale":
        return BinOp(0, "*", sub(), Num(0, draw(_LITERALS)))
    return BinOp(0, {"add": "+", "mul": "*", "div": "/"}[kind], sub(), sub())


def _relabel(draw, node, n):
    """A tree of the same shape as ``node`` with its leaves, literal factors
    and ``+``/``-`` drawn again; a literal factor may change sides."""
    if isinstance(node, Num):
        return Num(0, draw(_LITERALS))
    if isinstance(node, Var):
        return Var(0, draw(st.sampled_from("xy")), draw(st.integers(1, n)))
    if isinstance(node, (Neg, Call)):
        return type(node)(0, *([node.func] if isinstance(node, Call) else []), _relabel(draw, node.arg, n))
    if node.op == "^":
        return BinOp(0, "^", _relabel(draw, node.left, n), node.right)
    if node.op == "*" and (isinstance(node.left, Num) or isinstance(node.right, Num)):
        other = node.left if isinstance(node.right, Num) else node.right
        factor, other = Num(0, draw(_LITERALS)), _relabel(draw, other, n)
        return BinOp(0, "*", *((factor, other) if draw(st.booleans()) else (other, factor)))
    op = draw(st.sampled_from("+-")) if node.op in "+-" else node.op
    return BinOp(0, op, _relabel(draw, node.left, n), _relabel(draw, node.right, n))


@st.composite
def tape_cases(draw):
    """Trees of a few shapes, several of each, in drawn order; jets at a
    drawn point and order; and a ring of no higher orders."""
    n = draw(st.integers(1, 3))
    templates = draw(st.lists(_template(n, draw(st.integers(0, 3))), min_size=1, max_size=3))
    trees = [_relabel(draw, t, n) for t in templates for _ in range(draw(st.integers(1, 3)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = draw(st.integers(0, 4))
    xorder = draw(st.integers(0, order))
    jets = ChartJets.at(rng.uniform(-1.0, 1.0, n), rng.uniform(-1.5, 1.5, n), (order, xorder))
    low_order = draw(st.integers(0, order))
    low = ring(2 * n, low_order, draw(st.integers(0, min(low_order, xorder))))
    return n, len(templates), draw(st.permutations(trees)), jets, low


def _same_bits_where_finite(got, want):
    """The int64 views agree (signs of zero count) where ``want`` is finite;
    where it is not, ``got`` is not finite either, so a residual fails."""
    if np.isfinite(want).all():
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    else:
        assert not np.isfinite(got).all()


@settings(max_examples=300, deadline=None)
@given(tape_cases())
def test_the_tape_gives_each_tree_the_bits_of_its_recursive_walk(case):
    n, shapes, trees, jets, _ = case
    tape = Tape(trees, n)
    assert len(tape.groups) <= shapes  # trees relabelled from one template run as one batch
    with np.errstate(all="ignore"):
        want, first_error = [], None
        for tree in trees:
            try:
                want.append(_recursive_evaluate(tree, jets))
            except (ValueError, ZeroDivisionError) as err:
                first_error = err
                break
        if first_error is not None:
            # the error of the first tree that fails, as the walk in order raised it
            with pytest.raises(type(first_error)) as raised:
                tape.run(jets)
            assert str(raised.value) == str(first_error)
            return
        got = tape.run(jets)
    assert got.ring is jets.ring and got.shape == (len(trees),)
    for i, w in enumerate(want):
        _same_bits_where_finite(got.coef[i], w.coef)


@settings(max_examples=300, deadline=None)
@given(tape_cases())
def test_the_tape_in_a_lower_ring_gives_the_bits_of_the_cut(case):
    n, _, trees, jets, low = case
    tape = Tape(trees, n)
    xs, ys, _ = lower(jets.xs, jets.ys, Series.const(low, 0.0))
    with np.errstate(all="ignore"):
        try:
            full = tape.run(jets)
        except (ValueError, ZeroDivisionError):
            return  # every check of a step reads constant terms; orders only relax them
        got = tape.run(ChartJets(low, jets.x0, jets.y0, xs, ys))
    assert got.ring is low
    cut = lower(full, Series.const(low, 0.0))[0]
    for i in range(len(trees)):
        _same_bits_where_finite(got.coef[i], cut.coef[i])


def test_trees_of_one_shape_share_their_steps():
    texts = ["0.5 + 0.2*x1 - y2*x1", "0.1 - 0.3*y1 + x2*x1", "2*x2 + 1 - y1*y2"]
    tape = Tape([parse_expression(t, 2) for t in texts + ["sqrt(y1)"]], 2)
    assert [group[1].tolist() for group in tape.groups] == [[0, 1], [2], [3]]
    jets = ChartJets.at([0.3, -0.2], [0.9, 1.2], (3, 1))
    values = tape.run(jets)
    for i, text in enumerate(texts + ["sqrt(y1)"]):
        want = _recursive_evaluate(parse_expression(text, 2), jets).coef
        assert np.array_equal(values.coef[i].view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("order", [0, 2, (3, 1)])
def test_a_negated_literal_is_a_literal_with_the_bits_of_its_negation(order):
    # ``-c`` parses to Neg(Num(c)); the tape runs it as the literal times a
    # sign, with the bits of ``-(Series.const(rg, c))``: -0.0 past the
    # constant term, and -0.0 throughout for ``-0``
    texts = ["-0.5", "-0.5 + 0.1*x1", "-0.5*y2", "0.5", "-0", "0.1*x1 - -0.25"]
    jets = ChartJets.at([-0.3, 0.2], [0.7, -1.1], order)
    trees = [parse_expression(t, 2) for t in texts]
    values = Tape(trees, 2).run(jets).coef
    for got, tree in zip(values, trees):
        want = _recursive_evaluate(tree, jets).coef
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.signbit(values[0]).all() and np.signbit(values[4]).all()
    assert not np.signbit(values[3]).any()
    assert len(Tape([trees[0], trees[3], trees[4]], 2).groups) == 1


def test_every_random_pack_of_the_built_in_config_runs_as_one_tape_group():
    config = cli.parse_config(cli.default_config_text(), origin="<built-in>")
    groups = [
        len(pack.tape.groups)
        for F in cli._structures(config)
        for pack in random_param_sets(F, config.plan)
    ]
    assert len(groups) == 15 and set(groups) == {1}


def test_an_error_is_the_first_failing_trees():
    # one shape: run as a batch, the sqrt step of the second tree fails
    # before the division of the first, which fails first in tree order
    tape = Tape([parse_expression("sqrt(y1)/x1", 2), parse_expression("sqrt(x2)/y2", 2)], 2)
    assert len(tape.groups) == 1
    with pytest.raises(ZeroDivisionError, match="zero constant term"):
        tape.run(ChartJets.at([0.0, -1.0], [1.0, 1.0], 2))


# ---------------------------------------------------------------------------
# randomized polynomial fields vs finite differences


def _random_poly_text(rng, n, degree=4, terms=6):
    names = [f"x{i+1}" for i in range(n)] + [f"y{i+1}" for i in range(n)]
    parts = []
    for _ in range(terms):
        c = rng.uniform(-1.0, 1.0)
        factors = [f"{c:.6f}"]
        for _ in range(rng.integers(0, degree + 1)):
            factors.append(str(rng.choice(names)))
        parts.append("*".join(factors))
    return " + ".join(parts)


def test_random_polynomials_match_finite_differences():
    rng = np.random.default_rng(1234)
    h = 1e-5
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(1, 4))
        text = _random_poly_text(rng, n)
        field = ExprScalarField(n, text)
        x0 = rng.uniform(-0.6, 0.6, size=n)
        y0 = rng.uniform(0.4, 1.5, size=n)
        s = field.eval(ChartJets.at(x0, y0, 1))
        slot = int(rng.integers(0, 2 * n))
        ep = np.zeros(2 * n)
        ep[slot] = h
        fp = field.eval(ChartJets.at(x0 + ep[:n], y0 + ep[n:], 0)).val
        fm = field.eval(ChartJets.at(x0 - ep[:n], y0 - ep[n:], 0)).val
        fd = float(fp - fm) / (2 * h)
        alpha = [0] * (2 * n)
        alpha[slot] = 1
        ad = float(s.extract(alpha))
        worst = max(worst, abs(ad - fd) / (1.0 + abs(fd)))
    assert worst < 1e-5


# ---------------------------------------------------------------------------
# field adapters


def test_covector_field_shape_and_values():
    f = ExprCovectorField(2, ["y1/2", "x1*y2"])
    s = f.eval(ChartJets.at([3.0, 0.0], [4.0, 5.0], 1))
    assert s.shape == (2,)
    assert s.val == pytest.approx([2.0, 15.0])
    with pytest.raises(ValueError):
        ExprCovectorField(2, ["y1"])


def test_matrix_field_shape_and_values():
    f = ExprMatrixField(2, [["1", "x1"], ["0", "y2"]])
    s = f.eval(ChartJets.at([3.0, 0.0], [4.0, 5.0], 1))
    assert s.shape == (2, 2)
    assert np.allclose(s.val, [[1.0, 3.0], [0.0, 5.0]])
    with pytest.raises(ValueError):
        ExprMatrixField(2, [["1", "x1"]])


def test_field_spec_builders():
    # a parameter slot and its source texts make an expression field
    assert parameter_field("f1", "y1 + y2", 2).describe() == "y1 + y2"
    cov = parameter_field("A", ("y1", "0"), 2)
    assert isinstance(cov, ExprCovectorField)
    mat = parameter_field("phi", (("1", "0"), ("0", "1")), 2)
    assert isinstance(mat, ExprMatrixField)
    # numbers make constant fields, and a field is kept as given
    assert parameter_field("f2", 0.5, 2).values == 0.5
    assert isinstance(parameter_field("u", (0.1, 0.2), 2), Constant)
    assert isinstance(parameter_field("phi", ((1, 0), (0, 1)), 2), Constant)
    assert parameter_field("B", cov, 2) is cov
    with pytest.raises(ValueError):
        parameter_field("phi", (("1", "0"),), 2)
    with pytest.raises(ValueError):
        parameter_field("tensor", ("1",), 2)


@pytest.mark.parametrize(
    "slot,value,named",
    [
        ("u", ("x1", 0.2), "u[1] is 0.2"),
        ("A", ("0.1", 0.2), "A[1] is 0.2"),  # a numeric text is still a text
        ("B", (0.3, "y2"), "B[1] is 'y2'"),
        ("phi", (("1", "0"), ("x1", 1)), "phi[1][1] is 1"),
        ("phi", ((1.0, 0.0), (0.0, "y1")), "phi[1][1] is 'y1'"),
    ],
)
def test_mixed_texts_and_numbers_name_slot_and_component(slot, value, named):
    with pytest.raises(ValueError, match=r"parameter \w+ mixes expression texts and numbers") as err:
        parameter_field(slot, value, 2)
    assert named in str(err.value)


def test_parse_errors_surface_through_adapters():
    with pytest.raises(ExprError):
        ExprScalarField(2, "y1 + y7")


# ---------------------------------------------------------------------------
# hostile input: every text parses or raises ExprError, every parsed norm
# evaluates to a finite L or raises DomainError / ExprError


_SOUP = st.lists(
    st.sampled_from(list("xy12()+-*/^.e0123456789") + list(FUNCTIONS)), max_size=30
).map("".join)


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(FUNCTIONS), inner).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(inner, st.sampled_from(["2", "3", "0.5", "(3/2)", "-1", "100"])).map(
            lambda t: f"{t[0]}^{t[1]}"
        ),
        inner.map(lambda s: f"-{s}"),
    )


# grammatical texts, so that most of them parse and reach the evaluator
_NORMS = st.recursive(
    st.sampled_from(["x1", "x2", "y1", "y2", "0", "1", "2", "0.5", "1e3", "1e-200"]),
    _compound,
    max_leaves=8,
)


@settings(max_examples=800, deadline=None)
@given(_SOUP)
def test_any_text_parses_or_raises_expr_error(text):
    try:
        parse_expression(text, 2)
    except ExprError as err:
        assert 0 <= err.offset <= len(text)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(_NORMS, _SOUP),
    st.lists(st.floats(-3, 3), min_size=2, max_size=2),
    st.lists(st.floats(-3, 3), min_size=2, max_size=2),
)
def test_any_parsed_norm_gives_finite_L_or_a_documented_error(text, x, y):
    try:
        F = FinslerStructure(2, ExprScalarField(2, text))
        L = F.tower(ChartPoint(x, y), 2).L
    except (DomainError, ExprError):
        return
    assert math.isfinite(float(L.val)) and L.val > 0
