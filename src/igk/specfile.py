"""JSON family descriptions with a small arithmetic expression language.

A family file looks like::

    {
      "name": "my-family",
      "kind": "finite" | "real_line",
      "n": 2,
      "points": [1, 2, 3],          # finite only; labels optional
      "C": "0",
      "F": ["x", "x^2"],
      "psi": "ln(1 + exp(theta1))",
      "domain": {"lo": [-10], "hi": [10]},   # optional, open box
      "quad_order": 64                       # real_line only, optional
    }

Expressions use +, -, *, /, ^ (right associative), parentheses, the
functions ``exp`` and ``ln``, the constant ``pi``, the point variable ``x``
(in C and F) and ``theta1..thetaN`` (in psi).  An expression may be at most
``MAX_EXPRESSION_LENGTH`` (1000) characters long and nest at most
``MAX_EXPRESSION_DEPTH`` (100) levels deep, where each parenthesis, function
argument, unary minus and exponent opens a level; both limits keep parsing
and evaluation far from Python's recursion limit.  Each subexpression free
of ``x`` and theta is folded once, at parse time, in float64.  Parse and
validation errors, and a folded constant that is not finite (``1/0``,
``10^400``), raise ``SpecFileError`` annotated with the key and column.
"""

from __future__ import annotations

import json
import math
import operator
import re

import numpy as np

from .errors import DomainError, SpecFileError
from .families import Box, ExponentialFamilySpec, FiniteSpace, RealLine
from .numerics import Record

__all__ = [
    "load_family",
    "family_from_dict",
    "compile_expression",
    "MAX_EXPRESSION_LENGTH",
    "MAX_EXPRESSION_DEPTH",
]

MAX_EXPRESSION_LENGTH = 1000
MAX_EXPRESSION_DEPTH = 100

_TOKEN = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[()+\-*/^])"
)

_FUNCTIONS = {"exp": np.exp, "ln": np.log}
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "^": operator.pow}
_CONSTANTS = {"pi": math.pi}


class _Token(Record):
    __slots__ = _fields = ("kind", "text", "column")  # column is 1-based


def _tokenize(source, where):
    tokens = []
    i = 0
    while i < len(source):
        if source[i].isspace():
            i += 1
            continue
        m = _TOKEN.match(source, i)
        if m is None:
            raise SpecFileError(
                f"unexpected character {source[i]!r}", where=where, column=i + 1
            )
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(), i + 1))
        i = m.end()
    return tokens


class _Parser:
    """Recursive descent over the token list; produces an evaluator closure."""

    def __init__(self, tokens, where, variables):
        self.tokens = tokens
        self.where = where
        self.variables = variables
        self.pos = 0
        self.depth = -1  # the top-level expression is level 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is not None:
            self.pos += 1
        return tok

    def _fail(self, message, token=None):
        col = token.column if token is not None else (
            self.tokens[-1].column + len(self.tokens[-1].text) if self.tokens else 1
        )
        raise SpecFileError(message, where=self.where, column=col)

    def _apply(self, fn, token, *args):
        """``fn`` of operand nodes; folded in float64 if none reads a variable."""
        if not any(map(callable, args)):
            with np.errstate(all="ignore"):
                value = float(fn(*map(np.float64, args)))
            if not math.isfinite(value):
                self._fail(f"constant subexpression is not finite ({value})", token)
            return value
        ops = [f if callable(f) else (lambda env, v=f: v) for f in args]
        if len(ops) == 1:
            return lambda env, a=ops[0]: fn(a(env))
        return lambda env, a=ops[0], b=ops[1]: fn(a(env), b(env))

    def _expect(self, text):
        tok = self._next()
        if tok is None or tok.text != text:
            self._fail(f"expected {text!r}", tok)

    def parse(self):
        node = self._sum()
        tok = self._peek()
        if tok is not None:
            self._fail(f"unexpected token {tok.text!r}", tok)
        return node

    def _sum(self):
        return self._left_assoc(self._product, "+-")

    def _product(self):
        return self._left_assoc(self._unary, "*/")

    def _left_assoc(self, operand, ops):
        node = operand()
        while (tok := self._peek()) is not None and tok.text in ops:
            self._next()
            node = self._apply(_OPERATORS[tok.text], tok, node, operand())
        return node

    def _unary(self):
        # Every nesting construct recurses through here, so this one counter
        # bounds the parser's (and the evaluator's) recursion depth.
        tok = self._peek()
        self.depth += 1
        if self.depth > MAX_EXPRESSION_DEPTH:
            self._fail(f"expression nested deeper than {MAX_EXPRESSION_DEPTH} levels",
                       tok)
        if tok is not None and tok.text == "-":
            self._next()
            node = self._apply(operator.neg, tok, self._unary())
        else:
            node = self._power()
        self.depth -= 1
        return node

    def _power(self):
        base = self._atom()
        tok = self._peek()
        if tok is not None and tok.text == "^":
            self._next()  # right associative, unary minus allowed in the exponent
            return self._apply(operator.pow, tok, base, self._unary())
        return base

    def _atom(self):
        tok = self._next()
        if tok is None:
            self._fail("unexpected end of expression")
        if tok.kind == "num":
            return float(tok.text)
        if tok.kind == "name":
            after = self._peek()
            if tok.text in _FUNCTIONS:
                if after is None or after.text != "(":
                    self._fail(f"{tok.text} needs parenthesized argument", tok)
                self._next()
                arg = self._sum()
                self._expect(")")
                return self._apply(_FUNCTIONS[tok.text], tok, arg)
            if tok.text in _CONSTANTS:
                return _CONSTANTS[tok.text]
            if tok.text in self.variables:
                name = tok.text
                return lambda env: env[name]
            self._fail(f"unknown identifier {tok.text!r}", tok)
        if tok.text == "(":
            node = self._sum()
            self._expect(")")
            return node
        self._fail(f"unexpected token {tok.text!r}", tok)


def compile_expression(source, variables, where="<expr>"):
    """Compile an expression string to ``f(env)`` over the named variables."""
    source = str(source)
    if len(source) > MAX_EXPRESSION_LENGTH:
        raise SpecFileError(
            f"expression longer than {MAX_EXPRESSION_LENGTH} characters",
            where=where,
            column=MAX_EXPRESSION_LENGTH + 1,
        )
    tokens = _tokenize(source, where)
    if not tokens:
        raise SpecFileError("empty expression", where=where, column=1)
    node = _Parser(tokens, where, frozenset(variables)).parse()
    return node if callable(node) else (lambda env: node)


def _point_function(source, where):
    ev = compile_expression(source, {"x"}, where)

    def f(x):
        value = np.asarray(ev({"x": x}), dtype=float)
        shape = np.shape(x)
        return value if value.shape == shape else np.broadcast_to(value, shape)

    return f


def _theta_function(source, n, where):
    names = [f"theta{i + 1}" for i in range(n)]
    ev = compile_expression(source, set(names), where)

    def psi(rows):
        # one evaluation on the columns of a theta stack (k, n), broadcast to
        # (k,); arrays turn 1/0 and overflow into inf/NaN for the caller's gates
        value = np.asarray(ev({name: rows[:, i] for i, name in enumerate(names)}), float)
        return value if value.shape == rows.shape[:1] else np.broadcast_to(value, len(rows))

    return psi


def _require(d, key, types, where):
    if key not in d:
        raise SpecFileError(f"missing required key {key!r}", where=where)
    value = d[key]
    if not isinstance(value, types):
        raise SpecFileError(f"key {key!r} has the wrong type", where=where)
    return value


def family_from_dict(data, source="<spec>"):
    """Build an ``ExponentialFamilySpec`` from a decoded spec dictionary."""
    if not isinstance(data, dict):
        raise SpecFileError("spec must be a JSON object", where=source)
    kind = _require(data, "kind", str, source)
    if kind not in ("finite", "real_line"):
        raise SpecFileError(
            f"kind must be 'finite' or 'real_line', got {kind!r}", where=source
        )
    n = _require(data, "n", int, source)
    if isinstance(n, bool) or n < 1:
        raise SpecFileError("n must be a positive integer", where=source)
    name = data.get("name", "user-family")
    if not isinstance(name, str):
        raise SpecFileError("name must be a string", where=source)

    f_sources = _require(data, "F", list, source)
    if len(f_sources) != n:
        raise SpecFileError(f"F must list exactly n={n} expressions", where=source)
    carrier = _point_function(_require(data, "C", str, source), f"{source}:C")
    stats = tuple(
        _point_function(expr, f"{source}:F[{i}]") for i, expr in enumerate(f_sources)
    )
    psi = _theta_function(_require(data, "psi", str, source), n, f"{source}:psi")

    if "domain" in data:
        dom = data["domain"]
        if not isinstance(dom, dict) or "lo" not in dom or "hi" not in dom:
            raise SpecFileError("domain needs 'lo' and 'hi' arrays", where=source)
        try:
            domain = Box(tuple(dom["lo"]), tuple(dom["hi"]))
        except (TypeError, DomainError) as exc:
            raise SpecFileError(f"bad domain: {exc}", where=source) from exc
        if domain.dim != n:
            raise SpecFileError("domain dimension must equal n", where=source)
    else:
        domain = Box.unbounded(n)

    if kind == "finite":
        points = _require(data, "points", list, source)
        labels = tuple(data.get("labels", ()))
        try:
            space = FiniteSpace(tuple(points), labels)
        except (TypeError, ValueError) as exc:
            raise SpecFileError(f"bad points: {exc}", where=source) from exc
    else:
        order = data.get("quad_order", 64)
        if not isinstance(order, int) or isinstance(order, bool) or order < 1:
            raise SpecFileError("quad_order must be a positive integer", where=source)
        space = RealLine(order)

    return ExponentialFamilySpec(name, space, carrier, stats, psi, domain)


def load_family(path):
    """Load a family spec from a JSON file; errors carry file and position."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(
            f"invalid JSON at line {exc.lineno}: {exc.msg}",
            where=str(path),
            column=exc.colno,
        ) from exc
    return family_from_dict(data, source=str(path))
