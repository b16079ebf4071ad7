"""Arithmetic expressions in one variable.

    expr := NUMBER | 'pi' | VAR | FUNC '(' expr ')' | '(' expr ')'
          | ('+' | '-') expr | expr ('+' | '-' | '*' | '/' | '^') expr

FUNC is sin, cos or exp; `^` is Python's `**`, binding tighter than unary
minus and associating right.  Python's `ast` parses the text and one walk
admits only these nodes, building closures from them: no user text
reaches eval, exec or compile.  Errors give 1-based positions in the text.
"""
from __future__ import annotations

import ast
import operator
import re
from typing import Callable

import numpy as np

from .errors import ExprError

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
        ast.Div: operator.truediv, ast.Pow: operator.pow, ast.UAdd: operator.pos,
        ast.USub: operator.neg}
_MAX_DEPTH = 100  # nesting levels; each is one Python frame when the closure runs


def parse_expr(text: str, var: str) -> Callable:
    """Compile an expression in `var` to a callable; arrays vectorize, scalars stay floats."""
    lead = len(text) - len(text.lstrip(" \t"))
    src = text[lead:].replace("^", "**")
    # origin[k] is the index in text of character k of src, up to k = len(src)
    origin = [i for i, ch in enumerate(text[lead:] + " ", lead) for _ in range(1 + (ch == "^"))]

    def fail(message: str, pos: int):
        raise ExprError(f"{message} at position {pos + 1} in {text!r}")

    def build(node, depth=0) -> tuple[Callable, bool]:
        """The closure of an admitted node, and whether it reads the variable."""
        if depth > _MAX_DEPTH:
            fail(f"expression nested deeper than {_MAX_DEPTH} levels", origin[node.col_offset])
        kind, depth = type(node), depth + 1
        if kind is ast.Constant and type(node.value) in (int, float):
            v = float(str(node.value))  # through str, an int past the float range is inf
            return (lambda x: v), False
        if kind is ast.Name and node.id == "pi":
            return (lambda x: np.pi), False
        if kind is ast.Name and node.id == var:
            return (lambda x: np.asarray(x, float) if np.ndim(x) else float(x)), True
        if kind is ast.BinOp and type(node.op) in _OPS:
            (f, fv), (g, gv) = build(node.left, depth), build(node.right, depth)
            op = _OPS[type(node.op)]
            return (lambda x: op(f(x), g(x))), fv or gv
        if kind is ast.UnaryOp and type(node.op) in _OPS:
            (f, fv), op = build(node.operand, depth), _OPS[type(node.op)]
            return (lambda x: op(f(x))), fv
        if (kind is ast.Call and getattr(node.func, "id", None) in _FUNCS
                and len(node.args) == 1 and not node.keywords):
            (f, fv), fn = build(node.args[0], depth), _FUNCS[node.func.id]
            return (lambda x: fn(f(x))), fv
        start = origin[node.col_offset]
        fail(f"unknown name {node.id!r} (variable is {var!r})" if kind is ast.Name
             else f"unsupported {text[start:origin[node.end_col_offset]]!r}", start)

    if bad := re.search(r"\*\*|[^\t -~]", text):
        fail(f"unexpected {bad.group()!r}", bad.start())
    try:
        f, reads_var = build(ast.parse(src, mode="eval").body)
    except SyntaxError as exc:
        fail(exc.msg, origin[min((exc.offset or len(src) + 1) - 1, len(src))])
    except (RecursionError, MemoryError):
        # the parser recurses once per nesting level
        fail("expression nested too deeply", 0)
    return f if reads_var else (lambda x: np.full(np.shape(x), f(x)) if np.ndim(x) else f(x))
