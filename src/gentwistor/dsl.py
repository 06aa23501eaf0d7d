"""Expression language and config format for user-supplied metrics.

Expression grammar (operator precedence from loosest to tightest):

    expr    :=  term  (('+' | '-') term)*
    term    :=  factor (('*' | '/') factor)*
    factor  :=  '-' factor  |  power
    power   :=  atom ['^' factor]               (right associative)
    atom    :=  NUMBER | 'pi' | 'x1'..'x4'
             |  ('sin'|'cos'|'exp'|'sqrt'|'log') '(' expr ')'
             |  '(' expr ')'

Unary minus binds looser than '^', so -2^2 evaluates to -4, while
2^-3 parses (the exponent position accepts a signed factor).

Evaluation is plain IEEE double arithmetic, but division by zero, log of
a non-positive value, sqrt of a negative value, exp overflow, a
non-finite power and a non-finite result raise EvalError carrying the
source span of the offending subexpression instead of propagating NaN.

Expressions are compiled once into numpy closures over arrays of points,
with equal subexpressions computed once, so a loaded metric's g is
batched like every MetricSpec.g: points of shape (..., 4) give metrics of
shape (..., 4, 4), one numpy pass per node for the whole batch.  Every
node keeps its own domain check.  A batch raises the error that
evaluating its points one by one would raise first: the span and value
of the first failing node at the lowest failing point, whose position
EvalError.index gives.

Config files are plain text, one [metric] table per file:

    [metric]
    name = my-sphere
    domain = [-1, 1]
    g11 = 4/(1+x1^2+x2^2+x3^2+x4^2)^2
    g12 = 0
    ...
    g44 = 4/(1+x1^2+x2^2+x3^2+x4^2)^2

All ten upper-triangular components g11..g44 are required; the symmetric
completion is evaluated at 16 interior points of the box in one batch and
probed there for positive definiteness before a MetricSpec is returned.
'#' starts a comment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigError, EvalError, ParseError
from .metrics import MetricSpec

FUNCTIONS = ("sin", "cos", "exp", "sqrt", "log")
VARIABLES = ("x1", "x2", "x3", "x4")

_UPPER_KEYS = ("g11", "g12", "g13", "g14", "g22", "g23", "g24", "g33", "g34", "g44")


# ---------------------------------------------------------------- tokens

@dataclass(frozen=True)
class Token:
    kind: str  # NUMBER, NAME, OP, END
    text: str
    offset: int


def _tokenize(src: str) -> Iterator[Token]:
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c in " \t":
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                seen_dot = seen_dot or src[j] == "."
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            yield Token("NUMBER", src[i:j], i)
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            yield Token("NAME", src[i:j], i)
            i = j
            continue
        if c in "+-*/^()":
            yield Token("OP", c, i)
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r} at offset {i}", i, ("expression",))
    yield Token("END", "", n)


# ------------------------------------------------------------------ AST

@dataclass(frozen=True)
class Expr:
    span: tuple[int, int] = field(compare=False, repr=False)


@dataclass(frozen=True)
class Num(Expr):
    value: float = 0.0


@dataclass(frozen=True)
class Var(Expr):
    index: int = 0  # 0-based coordinate index


@dataclass(frozen=True)
class Const(Expr):
    name: str = "pi"


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr = None


@dataclass(frozen=True)
class BinOp(Expr):
    op: str = "+"
    left: Expr = None
    right: Expr = None


@dataclass(frozen=True)
class Call(Expr):
    func: str = "sin"
    arg: Expr = None


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = list(_tokenize(src))
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, expected: tuple[str, ...]) -> ParseError:
        t = self.peek()
        what = "end of input" if t.kind == "END" else repr(t.text)
        exp = ", ".join(expected)
        return ParseError(f"unexpected {what} at offset {t.offset}; expected {exp}", t.offset, expected)

    def parse(self) -> Expr:
        e = self.expr()
        t = self.peek()
        if t.kind != "END":
            raise self.fail(("operator", "end of input"))
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            r = self.term()
            e = BinOp(span=(e.span[0], r.span[1]), op=op, left=e, right=r)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            r = self.factor()
            e = BinOp(span=(e.span[0], r.span[1]), op=op, left=e, right=r)
        return e

    def factor(self) -> Expr:
        t = self.peek()
        if t.kind == "OP" and t.text == "-":
            self.advance()
            arg = self.factor()
            return Neg(span=(t.offset, arg.span[1]), arg=arg)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        t = self.peek()
        if t.kind == "OP" and t.text == "^":
            self.advance()
            exp = self.factor()  # right associative, signed exponents allowed
            return BinOp(span=(base.span[0], exp.span[1]), op="^", left=base, right=exp)
        return base

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "NUMBER":
            self.advance()
            return Num(span=(t.offset, t.offset + len(t.text)), value=float(t.text))
        if t.kind == "NAME":
            self.advance()
            end = t.offset + len(t.text)
            if t.text in VARIABLES:
                return Var(span=(t.offset, end), index=int(t.text[1]) - 1)
            if t.text == "pi":
                return Const(span=(t.offset, end), name="pi")
            if t.text in FUNCTIONS:
                o = self.peek()
                if not (o.kind == "OP" and o.text == "("):
                    raise self.fail(("'('",))
                self.advance()
                arg = self.expr()
                c = self.peek()
                if not (c.kind == "OP" and c.text == ")"):
                    raise self.fail(("')'",))
                close = self.advance()
                return Call(span=(t.offset, close.offset + 1), func=t.text, arg=arg)
            known = ", ".join(VARIABLES + ("pi",) + FUNCTIONS)
            raise ParseError(
                f"unknown identifier {t.text!r} at offset {t.offset}; known names: {known}",
                t.offset,
                ("x1..x4", "pi", "function"),
            )
        if t.kind == "OP" and t.text == "(":
            self.advance()
            e = self.expr()
            c = self.peek()
            if not (c.kind == "OP" and c.text == ")"):
                raise self.fail(("')'",))
            self.advance()
            return e
        raise self.fail(("number", "name", "'('", "'-'"))


def parse(src: str) -> Expr:
    """Parse an expression; ParseError carries byte offset and expected set."""
    return _Parser(src).parse()


# ------------------------------------------------------------ evaluation
#
# Expressions are compiled once into a straight-line program of numpy
# steps over the transposed points xt (4, n).  Each step yields an (n,)
# array, or a scalar for a constant subtree.  A step whose domain check
# fails at some points records (mask, span, message template, operands) in
# `fails` and the run carries on; it then reports the error that
# evaluating the points one by one would raise first: the lowest failing
# point, at its first failing node.

_Step = Callable[[list, np.ndarray, list], np.ndarray]


def _flag(fails: list, bad, span, template: str, *operands) -> None:
    if np.count_nonzero(bad):
        fails.append((bad, span, template, operands))


def _at(v, i: int) -> float:
    return float(v) if np.ndim(v) == 0 else float(v[i])


# per checked function: the mask of failing points from (argument, value)
_DOMAIN = {
    "exp": (lambda v, out: ~np.isfinite(out), "exp overflow for argument {0!r}"),
    "sqrt": (lambda v, out: v < 0.0, "sqrt of negative value {0!r}"),
    "log": (lambda v, out: v <= 0.0, "log of non-positive value {0!r}"),
}


def _call(func: str, a: int, span) -> _Step:
    f = getattr(np, func)
    if func not in _DOMAIN:
        return lambda vals, xt, fails: f(vals[a])
    failing, template = _DOMAIN[func]

    def checked(vals, xt, fails):
        v = vals[a]
        out = f(v)
        _flag(fails, failing(v, out), span, template, v)
        return out

    return checked


def _binop(op: str, a: int, b: int, span) -> _Step:
    if op == "+":
        return lambda vals, xt, fails: vals[a] + vals[b]
    if op == "-":
        return lambda vals, xt, fails: vals[a] - vals[b]
    if op == "*":
        return lambda vals, xt, fails: vals[a] * vals[b]
    if op == "/":

        def divide(vals, xt, fails):
            _flag(fails, vals[b] == 0.0, span, "division by zero")
            return vals[a] / vals[b]

        return divide

    def power(vals, xt, fails):
        out = np.power(vals[a], vals[b])
        _flag(fails, ~np.isfinite(out), span, "power {0!r} ^ {1!r} is not finite", vals[a], vals[b])
        return out

    return power


class _Program:
    """The compiled form of a list of expressions.

    Steps are in evaluation order.  A subtree equal to an earlier one
    (spans aside) reuses its step: its values are the same, so it fails
    wherever that first occurrence fails, and that is where a
    point-by-point evaluation stops first."""

    def __init__(self, exprs: list[Expr]):
        self.steps: list[_Step] = []
        self._slots: dict[tuple, int] = {}
        self.outputs = [(self._slot(e), e.span) for e in exprs]

    def _slot(self, e: Expr) -> int:
        if isinstance(e, (Num, Const)):
            v = np.float64(e.value if isinstance(e, Num) else np.pi)
            key, step = ("num", float(v).hex()), lambda vals, xt, fails: v
        elif isinstance(e, Var):
            i = e.index
            key, step = ("var", i), lambda vals, xt, fails: xt[i]
        elif isinstance(e, Neg):
            a = self._slot(e.arg)
            key, step = ("neg", a), lambda vals, xt, fails: -vals[a]
        elif isinstance(e, Call) and e.func in FUNCTIONS:
            a = self._slot(e.arg)
            key, step = (e.func, a), _call(e.func, a, e.span)
        elif isinstance(e, BinOp) and e.op in "+-*/^":
            a, b = self._slot(e.left), self._slot(e.right)
            key, step = (e.op, a, b), _binop(e.op, a, b, e.span)
        else:
            raise EvalError(f"malformed expression node {e!r}", getattr(e, "span", None))
        if key not in self._slots:
            self._slots[key] = len(self.steps)
            self.steps.append(step)
        return self._slots[key]

    def run(self, points: np.ndarray) -> tuple[np.ndarray, EvalError | None]:
        """Values (len(exprs), n) at points (n, 4), and the EvalError of the
        first failing point (None if every point passed)."""
        xt = np.ascontiguousarray(points.T)
        out = np.empty((len(self.outputs), len(points)))
        vals: list = []
        fails: list = []
        with np.errstate(all="ignore"):
            for k, (slot, span) in enumerate(self.outputs):
                # the output's new steps, then its final check: the order
                # in which a point-by-point evaluation meets them
                for step in self.steps[len(vals) : slot + 1]:
                    vals.append(step(vals, xt, fails))
                _flag(fails, ~np.isfinite(vals[slot]), span, "expression evaluated to a non-finite value")
                out[k] = vals[slot]
        if not fails:
            return out, None
        i = min(0 if np.ndim(bad) == 0 else int(np.argmax(bad)) for bad, *_ in fails)
        _, span, template, operands = next(f for f in fails if np.ndim(f[0]) == 0 or f[0][i])
        return out, EvalError(template.format(*(_at(v, i) for v in operands)), span, index=i)


def evaluate(expr: Expr, p: np.ndarray) -> float:
    """Evaluate at a coordinate point, raising EvalError on bad domains."""
    values, err = _Program([expr]).run(np.asarray(p, dtype=float)[None, :])
    if err is not None:
        raise err
    return float(values[0, 0])


def to_source(expr: Expr) -> str:
    """Fully parenthesized source for the expression; parses back to an
    equal tree (spans excluded from equality) for any parser-producible
    tree.  Negative literals never come out of the parser (unary minus
    becomes Neg), but are still printed unambiguously."""
    if isinstance(expr, Num):
        return repr(expr.value) if expr.value >= 0 else f"(-{abs(expr.value)!r})"
    if isinstance(expr, Var):
        return f"x{expr.index + 1}"
    if isinstance(expr, Const):
        return expr.name
    if isinstance(expr, Neg):
        return f"(-{to_source(expr.arg)})"
    if isinstance(expr, Call):
        return f"{expr.func}({to_source(expr.arg)})"
    if isinstance(expr, BinOp):
        return f"({to_source(expr.left)}{expr.op}{to_source(expr.right)})"
    raise EvalError(f"malformed expression node {expr!r}", None)


# ---------------------------------------------------------------- config

@dataclass(frozen=True)
class MetricConfig:
    """Parsed metric definition: name, box, ten upper-triangular entries."""

    name: str
    lo: float
    hi: float
    exprs: dict[str, Expr] = field(repr=False)


def _line_col(text: str, line_no: int, col: int) -> str:
    return f"{line_no}:{col}"


def parse_config(text: str) -> MetricConfig:
    """Parse the key-value table; diagnostics carry line:col positions."""
    name = None
    lo = hi = None
    exprs: dict[str, Expr] = {}
    in_table = False
    seen_table = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if stripped != "[metric]":
                raise ConfigError(f"{line_no}:1: unknown section {stripped!r}, expected [metric]")
            if seen_table:
                raise ConfigError(f"{line_no}:1: duplicate [metric] section")
            seen_table = in_table = True
            continue
        if not in_table:
            raise ConfigError(f"{line_no}:1: key outside a [metric] section")
        if "=" not in line:
            raise ConfigError(f"{line_no}:1: expected 'key = value', got {stripped!r}")
        key_part, value_part = line.split("=", 1)
        key = key_part.strip()
        value = value_part.strip()
        value_col = 1 + len(key_part) + 1 + (len(value_part) - len(value_part.lstrip()))
        if key == "name":
            name = value
        elif key == "domain":
            if not (value.startswith("[") and value.endswith("]")):
                raise ConfigError(f"{line_no}:{value_col}: domain must look like [lo, hi]")
            try:
                parts = [float(v) for v in value[1:-1].split(",")]
            except ValueError:
                raise ConfigError(f"{line_no}:{value_col}: domain bounds must be numbers") from None
            if len(parts) != 2 or not parts[0] < parts[1]:
                raise ConfigError(f"{line_no}:{value_col}: domain needs two increasing bounds")
            if not np.isfinite([*parts, parts[1] - parts[0]]).all():
                raise ConfigError(f"{line_no}:{value_col}: domain bounds and width must be finite")
            lo, hi = parts
        elif key in _UPPER_KEYS:
            try:
                exprs[key] = parse(value)
            except ParseError as e:
                col = value_col + e.offset
                raise ConfigError(f"{line_no}:{col}: {e}") from e
        else:
            raise ConfigError(
                f"{line_no}:1: unknown key {key!r}; expected name, domain, or g11..g44"
            )
    if not seen_table:
        raise ConfigError("no [metric] section found")
    if name is None:
        raise ConfigError("missing 'name' key")
    if lo is None:
        raise ConfigError("missing 'domain' key")
    missing = [k for k in _UPPER_KEYS if k not in exprs]
    if missing:
        raise ConfigError(f"missing metric components: {', '.join(missing)}")
    return MetricConfig(name=name, lo=lo, hi=hi, exprs=exprs)


def _metric_table(cfg: MetricConfig) -> Callable[[np.ndarray], tuple[np.ndarray, EvalError | None]]:
    """Points (..., 4) -> (metrics (..., 4, 4), EvalError of the first
    failing point or None), from the ten expressions compiled once."""
    program = _Program(list(cfg.exprs.values()))
    rows = [int(key[1]) - 1 for key in cfg.exprs]
    cols = [int(key[2]) - 1 for key in cfg.exprs]

    def table(p: np.ndarray) -> tuple[np.ndarray, EvalError | None]:
        p = np.asarray(p, dtype=float)
        values, err = program.run(p.reshape(-1, 4))
        out = np.empty((values.shape[1], 4, 4))
        out[:, rows, cols] = out[:, cols, rows] = values.T
        return out.reshape(p.shape[:-1] + (4, 4)), err

    return table


def probe_points(lo: float, hi: float) -> np.ndarray:
    """16 interior probe points: the 2^4 grid at 1/4 and 3/4 per axis."""
    q = [lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)]
    return np.array(list(itertools.product(q, q, q, q)))


def load_metric(text: str) -> MetricSpec:
    """Parse a config and return a MetricSpec, verifying positive
    definiteness of the symmetric completion at 16 probe points.  A
    ConfigError names the first probe point that fails to evaluate or is
    not positive definite."""
    cfg = parse_config(text)
    table = _metric_table(cfg)

    def g(p: np.ndarray) -> np.ndarray:
        mats, err = table(p)
        if err is not None:
            raise err
        return mats

    probes = probe_points(cfg.lo, cfg.hi)
    mats, err = table(probes)
    passed = len(probes) if err is None else err.index
    for p, mat in zip(probes[:passed], mats):
        try:
            np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            raise ConfigError(
                f"metric is not positive definite at probe point {p.tolist()}"
            ) from None
    if err is not None:
        raise ConfigError(f"metric evaluation failed at probe point {probes[passed].tolist()}: {err}") from err
    return MetricSpec(
        name=cfg.name,
        lo=cfg.lo,
        hi=cfg.hi,
        g=g,
        provenance="user-supplied metric definition",
    )


def load_metric_file(path: str) -> MetricSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return load_metric(fh.read())
