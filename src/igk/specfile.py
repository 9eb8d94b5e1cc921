"""JSON family descriptions with a small arithmetic expression language.

A family file looks like::

    {
      "name": "my-family",
      "kind": "finite" | "real_line",
      "n": 2,
      "points": [1, 2, 3],          # finite only
      "labels": ["a", "b", "c"],    # finite only, optional: strings
      "C": "0",
      "F": ["x", "x^2"],
      "psi": "ln(1 + exp(theta1))",
      "domain": {"lo": [-10], "hi": [10]},   # optional, open box
      "quad_order": 64                       # real_line only, optional: 1..185
    }

Expressions use +, -, *, /, ^ (right associative), unary minus, parentheses, the functions
``exp`` and ``ln``, the constant ``pi``, the point variable ``x`` (in C and F) and
``theta1..thetaN`` (in psi).  The grammar is Python's with ``^`` for ``**``, the lexer igk's,
one scan of ``_TOKEN`` that refuses a stray character and a numeral past float64 (``1e400``):
``ast.parse`` reads the tokens with each number and name written ``_``, so Python reads no
numeral and evaluates nothing, and igk composes closures from four node kinds (BinOp, unary
minus, an ``exp`` or ``ln`` call, a name) without recursion.  Each level costs at most one
Python frame.  An expression is a string of at most ``MAX_EXPRESSION_LENGTH`` (1000) characters
and nests at most ``MAX_EXPRESSION_DEPTH`` (100) levels deep, where each parenthesis, function
argument, unary minus and exponent opens a level.  Subtrees free of ``x`` and theta fold once,
at parse time, in float64.  Parse and validation errors, and a folded constant that is not
finite (``1/0``, ``10^400``), raise ``SpecFileError`` with the key and column.
"""

import ast
import json
import math
import operator
import re
from itertools import accumulate

import numpy as np

from .errors import DomainError, SpecFileError
from .families import Box, ExponentialFamilySpec, FiniteSpace, RealLine
from .numerics import Record

__all__ = ["load_family", "family_from_dict", "compile_expression", "MAX_EXPRESSION_LENGTH",
           "MAX_EXPRESSION_DEPTH"]

MAX_EXPRESSION_LENGTH = 1000
MAX_EXPRESSION_DEPTH = 100

_TOKEN = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[()+\-*/^])"
    r"|\s+"  # whitespace, the one alternative without a name
    r"|(?P<stray>.)"
)

_FUNCTIONS = {"exp": np.exp, "ln": np.log}
_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.Pow: operator.pow}
_CONSTANTS = {"pi": math.pi}
_DEEP = f"expression nested deeper than {MAX_EXPRESSION_DEPTH} levels"


class _Token(Record):
    __slots__ = _fields = ("kind", "text", "column")  # column is 1-based


def _tokenize(source, where):
    for m in _TOKEN.finditer(source):  # every character matches one alternative
        kind, text, column = m.lastgroup, m.group(), m.start() + 1
        if kind == "stray" or kind == "num" and not math.isfinite(float(text)):
            raise SpecFileError(f"number is not finite ({text})" if kind == "num" else
                                f"unexpected character {text!r}", where=where, column=column)
        if kind:
            yield _Token(kind, text, column)


def _apply(fn, token, where, *args):
    """``fn`` of operand nodes; folded in float64 if none reads a variable."""
    if not any(map(callable, args)):
        with np.errstate(all="ignore"):
            value = float(fn(*map(np.float64, args)))
        if not math.isfinite(value):
            raise SpecFileError(f"constant subexpression is not finite ({value})",
                                where=where, column=token.column)
        return value
    ops = [f if callable(f) else (lambda env, v=f: v) for f in args]
    if len(ops) == 1:
        return lambda env, a=ops[0]: fn(a(env))
    return lambda env, a=ops[0], b=ops[1]: fn(a(env), b(env))


def _fail(problem, tokens, i, where):
    """``SpecFileError`` at token i, or past the last token for any other i."""
    column = tokens[i].column if 0 <= i < len(tokens) else tokens[-1].column + len(tokens[-1].text)
    raise SpecFileError(problem, where=where, column=column)


def _tree(tokens, where, variables):
    """Python's tree of the tokens, and the "("s open at each token.  The text Python reads
    writes ``^`` as ``**`` and each number and name as ``_``, token i at offset 3 i."""
    texts, known = [t.text for t in tokens] + [""], {*_FUNCTIONS, *_CONSTANTS, *variables}
    for i, tok in enumerate(tokens):  # igk's names, each function with its "("
        if tok.kind == "name" and tok.text not in known:
            _fail(f"unknown identifier {tok.text!r}", tokens, i, where)
        if tok.text in _FUNCTIONS and texts[i + 1] != "(":
            _fail(f"{tok.text} needs parenthesized argument", tokens, i, where)
    opened = list(accumulate(((t == "(") - (t == ")") for t in texts), initial=0))
    try:
        return ast.parse(" ".join(("**" if t.text == "^" else t.text if t.kind == "op" else "_")
                                  .ljust(2) for t in tokens), mode="eval"), opened
    except SyntaxError as exc:
        if max(opened) > MAX_EXPRESSION_DEPTH:  # Python's own limit is 200 "("s
            _fail(_DEEP, tokens, opened.index(MAX_EXPRESSION_DEPTH + 1), where)
        if exc.msg.startswith("'(' was never closed"):
            _fail("expected ')'", tokens, -1, where)
        i = min(((exc.offset or 0) - 1) // 3, len(tokens))  # -1 or len(tokens) at the end
        _fail(f"unexpected token {texts[i]!r}" if texts[i] else "unexpected end of expression",
              tokens, i, where)


def _evaluator(tree, opened, tokens, where):
    """The closure (or folded float) of the tree, walked by a stack, operands folded in order.
    Its nodes may be BinOp, UnaryOp (-), a Call of exp or ln and Name only, and a node's level
    (the "("s open at its token, and its unary-minus and exponent ancestors) within the limit."""
    done, todo = [], [(tree.body, 0)]  # (node, its unary-minus and exponent ancestors)
    while todo:
        node, outer = todo.pop()
        if isinstance(node, tuple):  # (fn, token, arity): fn of the last finished operands
            fn, tok, k = node
            done[-k:] = [_apply(fn, tok, where, *done[-k:])]
            continue
        i = node.col_offset // 3
        if opened[i] + outer > MAX_EXPRESSION_DEPTH:
            _fail(_DEEP, tokens, i, where)
        tok = tokens[i]
        function = isinstance(getattr(node, "func", None), ast.Name) and tok.text in _FUNCTIONS
        if isinstance(node, ast.Name):  # a number, pi or a variable
            value = float(tok.text) if tok.kind == "num" else _CONSTANTS.get(tok.text)
            done.append((lambda env, v=tok.text: env[v]) if value is None else value)
        elif isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            j = node.right.col_offset // 3 - 1
            while tokens[j].text == "(":  # the operator is the token before these
                j -= 1
            todo += (((_OPERATORS[type(node.op)], tokens[j], 2), 0),
                     (node.right, outer + isinstance(node.op, ast.Pow)), (node.left, outer))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            todo += ((operator.neg, tok, 1), 0), (node.operand, outer + 1)
        elif isinstance(node, ast.Call) and function and len(node.args) == 1:
            todo += ((_FUNCTIONS[tok.text], tok, 1), 0), (node.args[0], outer)
        else:  # refused at its first token, a call at its "(", and exp() and () at ")"
            if isinstance(node, ast.Call):
                i = [t.text for t in tokens].index("(", (node.func.end_col_offset + 2) // 3)
            i += function or isinstance(node, ast.Tuple)
            _fail(f"unexpected token {tokens[i].text!r}", tokens, i, where)
    return done[0]


def compile_expression(source, variables, where="<expr>"):
    """Compile an expression string to ``f(env)`` over the named variables."""
    if not isinstance(source, str):
        raise SpecFileError("expression must be a string", where=where)
    if len(source) > MAX_EXPRESSION_LENGTH:
        raise SpecFileError(f"expression longer than {MAX_EXPRESSION_LENGTH} characters",
                            where=where, column=MAX_EXPRESSION_LENGTH + 1)
    tokens = list(_tokenize(source, where))
    if not tokens:
        raise SpecFileError("empty expression", where=where, column=1)
    node = _evaluator(*_tree(tokens, where, variables), tokens, where)
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
        raise SpecFileError(f"kind must be 'finite' or 'real_line', got {kind!r}", where=source)
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
    stats = tuple(_point_function(e, f"{source}:F[{i}]") for i, e in enumerate(f_sources))
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
        try:
            space = FiniteSpace(tuple(points), data.get("labels", ()))
        except DomainError as exc:
            raise SpecFileError(f"bad points or labels: {exc}", where=source) from exc
    else:
        order = data.get("quad_order", 64)
        if not isinstance(order, int) or isinstance(order, bool):
            raise SpecFileError("quad_order must be a positive integer", where=source)
        try:
            space = RealLine(order)
        except DomainError as exc:
            raise SpecFileError(f"quad_order must be a positive integer: {exc}", where=source)

    return ExponentialFamilySpec(name, space, carrier, stats, psi, domain)


def load_family(path):
    """Load a family spec from a JSON file; errors carry file and position."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"invalid JSON at line {exc.lineno}: {exc.msg}", where=str(path),
                            column=exc.colno) from exc
    return family_from_dict(data, source=str(path))
