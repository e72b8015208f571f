"""Minimal arithmetic expression grammar for system specification files.

Coefficients of user systems are written as strings and parsed here; nothing
is ever passed to the host language's eval.  Grammar (whitespace ignored):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?            right-associative
    atom    := NUMBER | VAR | FUNC '(' expr ')' | '(' expr ')' | '|' expr '|'
    FUNC    := exp | log | sin | cos | sqrt | abs
    VAR     := x1 ... xd   (aliases: x, y, z for the first three components)

NUMBER is a decimal literal with optional fraction and exponent.  '|expr|' is
absolute value; nest with parentheses if needed.  Each expression is compiled
once into a closure tree of numpy ufuncs that broadcasts over batched states;
constants stay float64 scalars.

A system specification is a JSON object:

    {"name": "...", "dim": 2, "noise_dim": 2,
     "diffusion": [["y", "0"], ["0", "x^2/2"]],     # dim rows, noise_dim cols
     "drift": ["0", "0"],
     "calculus": "ito",
     "model": {"kind": "flat"}}

diffusion[k][i] is component k of the column field X^i.  Jacobians are central
finite differences (relative step 1e-5).  Models: {"kind": "flat"} (default),
{"kind": "punctured_flat", "puncture": [..]}.
"""

from __future__ import annotations

import json
import re
from typing import Callable, List, Sequence

import numpy as np

from .errors import ContractError
from .geometry import FlatModel, PuncturedFlatModel
from .systems import ITO, STRATONOVICH, VectorFieldSystem, fd_directional

_TOKEN_RE = re.compile(r"\s*(?:(\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
                       r"|([A-Za-z_][A-Za-z_0-9]*)|(\*|/|\+|-|\^|\(|\)|\|))")

_FUNCS = {
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "abs": np.abs,
}


class ExpressionError(ContractError):
    """Raised on malformed coefficient expressions."""


def _tokenize(src: str):
    pos, out = 0, []
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            if src[pos:].strip() == "":
                break
            raise ExpressionError(f"cannot tokenize {src[pos:]!r} in {src!r}")
        num, ident, op = m.groups()
        if num is not None:
            out.append(("num", float(num)))
        elif ident is not None:
            out.append(("ident", ident))
        else:
            out.append(("op", op))
        pos = m.end()
    out.append(("end", None))
    return out


class _Parser:
    def __init__(self, tokens, dim):
        self.toks = tokens
        self.i = 0
        self.dim = dim

    def peek(self):
        return self.toks[self.i]

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r}, got {val!r}")

    def parse(self):
        node = self.expr()
        kind, val = self.peek()
        if kind != "end":
            raise ExpressionError(f"trailing input near {val!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            node = ("bin", op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            node = ("bin", op, node, self.factor())
        return node

    def factor(self):
        if self.peek() == ("op", "-"):
            self.take()
            return ("neg", self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            node = ("bin", "^", node, self.factor())
        return node

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return ("num", val)
        if kind == "ident":
            if self.peek() == ("op", "("):
                if val not in _FUNCS:
                    raise ExpressionError(f"unknown function {val!r}")
                self.take()
                node = self.expr()
                self.expect_op(")")
                return ("call", val, node)
            return ("var", self._var_index(val))
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "op" and val == "|":
            node = self.expr()
            self.expect_op("|")
            return ("call", "abs", node)
        raise ExpressionError(f"unexpected token {val!r}")

    def _var_index(self, name):
        aliases = {"x": 0, "y": 1, "z": 2}
        if name in aliases and aliases[name] < self.dim:
            return aliases[name]
        m = re.fullmatch(r"x(\d+)", name)
        if m:
            idx = int(m.group(1)) - 1
            if 0 <= idx < self.dim:
                return idx
        raise ExpressionError(f"unknown variable {name!r} for dim {self.dim}")


_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}


def _has_var(node) -> bool:
    return node[0] == "var" or any(_has_var(n) for n in node[1:] if isinstance(n, tuple))


def _compile(node, broadcast: bool) -> Callable[[np.ndarray], np.ndarray]:
    """Closure tree of numpy ufuncs for an AST node.  A constant next to a
    variable is a float64 scalar; in a constant subtree (``broadcast``) it is
    broadcast to the batch, as ufunc inner loops can depend on the layout
    (``np.power`` squares a stride-0 exponent of 2 but calls pow on an array
    of 2s, which can differ in the last bit)."""
    kind = node[0]
    if kind == "num":
        c = np.float64(node[1])
        if broadcast:
            return lambda x: np.broadcast_to(c, x.shape[:-1])
        return lambda x: c
    if kind == "var":
        i = node[1]
        return lambda x: x[..., i]
    const = not _has_var(node)
    if kind == "neg":
        f = _compile(node[1], const)
        return lambda x: np.negative(f(x))
    if kind == "call":
        fn, f = _FUNCS[node[1]], _compile(node[2], const)
        return lambda x: fn(f(x))
    _, op, left, right = node
    fn, f, g = _OPS[op], _compile(left, const), _compile(right, const)
    return lambda x: fn(f(x), g(x))


def compile_expression(src: str, dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """Parse and compile src once; return a numpy-evaluating callable of the
    state, one value per point."""
    node = _Parser(_tokenize(src), dim).parse()
    f = _compile(node, broadcast=not _has_var(node))
    return lambda x: f(np.asarray(x, dtype=float))


def _compile_vector(exprs: Sequence[str], dim: int) -> Callable[[np.ndarray], np.ndarray]:
    fns = [compile_expression(e, dim) for e in exprs]

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.stack([np.asarray(f(x), dtype=float) for f in fns], axis=-1)

    return fn


def load_system(spec) -> VectorFieldSystem:
    """Build a VectorFieldSystem from a spec dict, JSON string or file path;
    ``ContractError`` on a malformed spec."""
    if isinstance(spec, str):
        inline = spec.strip().startswith("{")
        where = "inline system spec" if inline else f"system spec {spec}"
        try:
            if inline:
                spec = json.loads(spec)
            else:
                with open(spec, "r", encoding="utf-8") as fh:
                    spec = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ContractError(f"cannot read {where}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ContractError(f"{where}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(spec, dict) or not {"dim", "noise_dim", "diffusion"} <= spec.keys():
        raise ContractError("a system spec is an object with dim, noise_dim and diffusion")
    try:
        dim, noise_dim = int(spec["dim"]), int(spec["noise_dim"])
    except (TypeError, ValueError):
        raise ContractError("system spec dim and noise_dim must be whole numbers, got "
                            f"{spec['dim']!r} and {spec['noise_dim']!r}") from None
    rows: List[List[str]] = spec["diffusion"]
    if len(rows) != dim or any(len(r) != noise_dim for r in rows):
        raise ContractError("diffusion must be a dim x noise_dim matrix of expressions")
    drift = spec.get("drift", ["0"] * dim)
    if len(drift) != dim:
        raise ContractError(f"system spec drift must be a list of {dim} expressions, got {drift!r}")
    entry_fns = [[compile_expression(e, dim) for e in row] for row in rows]
    drift_fn = _compile_vector(drift, dim)

    def diffusion_matrix(x):
        x = np.asarray(x, dtype=float)
        batch = x.shape[:-1]
        out = np.empty(batch + (dim, noise_dim))
        for k in range(dim):
            for i in range(noise_dim):
                out[..., k, i] = entry_fns[k][i](x)
        return out

    def diffusion(x, e):
        M = diffusion_matrix(x)
        e = np.asarray(e, dtype=float)
        return np.einsum("...ki,...i->...k", M, np.broadcast_to(e, M.shape[:-2] + (noise_dim,)))

    def diffusion_jacobian(x, e, v):
        return fd_directional(lambda y: diffusion(y, e), x, v)

    def drift_jacobian(x, v):
        return fd_directional(drift_fn, x, v)

    mspec = spec.get("model", {"kind": "flat"})
    kind = mspec.get("kind", "flat") if isinstance(mspec, dict) else None
    if kind == "flat":
        model = FlatModel(dim)
    elif kind == "punctured_flat" and "puncture" in mspec:
        model = PuncturedFlatModel(dim, mspec["puncture"])
    else:
        raise ContractError(f"unsupported model {mspec!r} in system spec: the kinds are flat "
                            "and punctured_flat, with a puncture")

    calculus = spec.get("calculus", STRATONOVICH).lower()
    if calculus not in (ITO, STRATONOVICH):
        raise ContractError(f"calculus must be 'ito' or 'stratonovich', got {calculus!r}")

    return VectorFieldSystem(
        name=spec.get("name", "user_system"),
        dim=dim, noise_dim=noise_dim,
        diffusion=diffusion, drift=drift_fn,
        diffusion_jacobian=diffusion_jacobian, drift_jacobian=drift_jacobian,
        calculus=calculus, model=model,
    )
