"""Property tests of the spec expression language (``igk.specfile.compile_expression``).

(a) Expressions drawn from the grammar evaluate, to the bit, as the same numpy operations
in the same order, constant subtrees folded in float64; one with a numeral past float64 or
a constant that is not finite is refused.  (b) Any string gives a value or a
``SpecFileError`` with a column, and no warning.  (c) Each nesting construct passes at
``MAX_EXPRESSION_DEPTH`` levels and is refused one level deeper, at the level's first
token.  (d) The deepest expression compiles from 200 frames below the recursion limit.
The examples come from the derandomized profile of ``conftest.py``.
"""

import math
import operator
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from igk.errors import SpecFileError
from igk.specfile import MAX_EXPRESSION_DEPTH, compile_expression

VARIABLES = ("x", "theta1")
ENV = {"x": np.array([-2.5, -1.0, -0.0, 0.0, 1e-300, 0.5, 1.0, 3.0, 700.0]),
       "theta1": np.array([0.25, -3.0, 1.0, 2.0, -0.5, 1e5, 0.0, -1e-3, 4.0])}

# a drawn node: (text, precedence, value), the value a float for a constant subtree, else
# f(env); precedence 1 sum, 2 product, 3 unary minus, 4 power, 5 atom
SUM, PRODUCT, UNARY, POWER, ATOM = range(1, 6)


def _fold(fn, *args):
    """``fn`` of the operands as ``compile_expression`` folds or composes it; None for a
    constant that is not finite, which the compiler refuses."""
    if not any(map(callable, args)):
        with np.errstate(all="ignore"):
            value = float(fn(*map(np.float64, args)))
        return value if math.isfinite(value) else None
    fs = [a if callable(a) else (lambda env, v=a: v) for a in args]
    return lambda env: fn(*(f(env) for f in fs))


def _wrap(node, least):
    """The node's text, parenthesized unless it binds at least as tightly as ``least``."""
    text, precedence, _ = node
    return text if precedence >= least else f"({text})"


def _leaf(text):
    """A number or pi; None for a numeral past float64, which the compiler refuses."""
    value = math.pi if text == "pi" else float(text)
    return text, ATOM, value if math.isfinite(value) else None


LEAVES = st.one_of(
    st.sampled_from(["0", "2", "10", "0.5", ".25", "3.", "1e3", "2.5e-3", "007", "pi", "1e309",
                     "1e400"]).map(_leaf),
    st.sampled_from(VARIABLES).map(lambda v: (v, ATOM, lambda env, v=v: env[v])))
BINARY = {"+": (operator.add, SUM, SUM, PRODUCT), "-": (operator.sub, SUM, SUM, PRODUCT),
          "*": (operator.mul, PRODUCT, PRODUCT, UNARY),
          "/": (operator.truediv, PRODUCT, PRODUCT, UNARY),
          "^": (operator.pow, POWER, ATOM, UNARY)}  # fn, own, least left, least right


def _extend(children):
    def binary(op, a, b, space):
        fn, own, left, right = BINARY[op]
        return (f"{_wrap(a, left)}{space}{op}{space}{_wrap(b, right)}", own,
                None if None in (a[2], b[2]) else _fold(fn, a[2], b[2]))

    def unary(a):
        return f"-{_wrap(a, UNARY)}", UNARY, None if a[2] is None else _fold(operator.neg, a[2])

    def call(name, a):
        fn = np.exp if name == "exp" else np.log
        return f"{name}({a[0]})", ATOM, None if a[2] is None else _fold(fn, a[2])

    return st.one_of(
        st.builds(binary, st.sampled_from(sorted(BINARY)), children, children,
                  st.sampled_from(["", " "])),
        st.builds(unary, children),
        st.builds(call, st.sampled_from(["exp", "ln"]), children),
        children.map(lambda a: (f"({a[0]})", ATOM, a[2])))


EXPRESSIONS = st.recursive(LEAVES, _extend, max_leaves=12)


def _bits(value):
    """The float64 bits of a value on the grid, every NaN as one NaN."""
    a = np.broadcast_to(np.asarray(value, dtype=float), ENV["x"].shape)
    return np.where(np.isnan(a), np.nan, a).view(np.int64)


@given(EXPRESSIONS)
def test_grammar_values_are_the_numpy_operations_to_the_bit(node):
    text, _, want = node
    if want is None:  # a numeral or a folded constant is not finite
        with pytest.raises(SpecFileError, match="not finite"):
            compile_expression(text, VARIABLES)
        return
    f = compile_expression(text, VARIABLES)
    with np.errstate(all="ignore"):
        got, want = f(ENV), want(ENV) if callable(want) else want
    np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=text)


PIECES = ["0", "1", "2.5", "01", "1e400", "1e-400", ".5", "1.", "x", "theta1", "pi", "exp",
          "ln", "y", "None", "if", "not", "lambda", "_", "e", "+", "-", "*", "/", "^", "(",
          ")", "exp(", "**", "#", "0x1f", "1_0", "1j", "\xa0", "$", ",", "[", ".", "=", "@",
          "%", "'", "\\", "\t", "\n", " "]
JUNK = st.one_of(st.lists(st.sampled_from(PIECES), max_size=30).map("".join),
                 st.text(alphabet="0123456789.eExyp()+-*/^ \t#_,", max_size=40),
                 st.text(alphabet="x(é\xa0\u2003\u200b\u221e\u03bb\U0001f600\x00", max_size=20))


@given(JUNK)
def test_any_text_gives_a_value_or_a_located_refusal(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a SyntaxWarning or RuntimeWarning fails
        try:
            f = compile_expression(text, VARIABLES, where="F[0]")
        except SpecFileError as exc:
            assert exc.where == "F[0]" and exc.column is not None
            return
    with np.errstate(all="ignore"):
        value = np.asarray(f(ENV), dtype=float)
    assert value.shape in ((), ENV["x"].shape)


# each construct opens one level; a nest of them ends in the leaf "x"
CONSTRUCTS = {"(": ("(", ")"), "-": ("-", ""), "^": ("2^", ""), "exp": ("exp(", ")"),
              "ln": ("ln(", ")")}
NESTS = st.randoms(use_true_random=False).map(  # cheaper to draw than a list of 100
    lambda rnd: [rnd.choice(sorted(CONSTRUCTS)) for _ in range(MAX_EXPRESSION_DEPTH)])


def _nest(kinds):
    opens, closes = zip(*(CONSTRUCTS[k] for k in kinds))
    return "".join(opens), "x" + "".join(reversed(closes))


@given(NESTS, st.sampled_from(sorted(CONSTRUCTS)))
def test_each_construct_nests_to_the_limit_and_no_deeper(kinds, extra):
    head, tail = _nest(kinds)
    with np.errstate(all="ignore"):
        assert np.shape(compile_expression(head + tail, VARIABLES)(ENV)) == ENV["x"].shape
    head, tail = _nest([extra, *kinds])
    with pytest.raises(SpecFileError, match="nested deeper") as exc:
        compile_expression(head + tail, VARIABLES)
    assert exc.value.column == len(head) + 1  # the leaf, the first token at level 101


def _from_depth(depth, call):
    """``call()`` from ``depth`` frames deep."""
    frame, here = sys._getframe(), 0
    while frame is not None:
        frame, here = frame.f_back, here + 1
    return call() if here >= depth else _from_depth(depth, call)


@pytest.mark.parametrize("kind", sorted(CONSTRUCTS))
def test_the_deepest_nest_compiles_from_a_deep_stack(kind):
    # 200 frames to spare for a nest at the limit: at most two frames a level
    head, tail = _nest([kind] * MAX_EXPRESSION_DEPTH)
    depth = sys.getrecursionlimit() - 200  # 800 of the default 1000
    f = _from_depth(depth, lambda: compile_expression(head + tail, VARIABLES))
    assert callable(f)
