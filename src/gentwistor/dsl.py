"""Expression language and config format for user-supplied metrics.

Expression grammar (operator precedence from loosest to tightest):

    expr    :=  term  (('+' | '-') term)*
    term    :=  factor (('*' | '/') factor)*
    factor  :=  '-' factor  |  power
    power   :=  atom ['^' factor]               (right associative)
    atom    :=  NUMBER | 'pi' | 'x1'..'x4'
             |  ('sin'|'cos'|'exp'|'sqrt'|'log') '(' expr ')'
             |  '(' expr ')'

One regular expression reads the tokens: a NUMBER has ASCII digits only,
and a name starts with a letter or '_'.  Unary minus binds looser than
'^', so -2^2 evaluates to -4, while 2^-3 parses (the exponent position
accepts a signed factor).  Signs, powers, parentheses and calls nest at
most 100 deep, and deeper nesting is a ParseError at its offset; sums and
products chain to any length.

Evaluation is plain IEEE double arithmetic, but division by zero, log of
a non-positive value, sqrt of a negative value, exp overflow, a
non-finite power and a non-finite result raise EvalError carrying the
source span of the offending subexpression instead of propagating NaN.
Each operator is one row of the table _OPS: its numpy function and, if
it is checked, the mask of its failing points and the message.

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
import operator
import re
from dataclasses import dataclass, field, fields
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


# NUMBER takes [0-9], not \d: \d also matches the digits of other scripts,
# which float() reads.  \w matches those too, and superscripts, so
# _tokenize checks that a NAME starts with a letter or '_'.  BAD is any
# other character, a newline included.
_TOKEN = re.compile(
    r"(?s)[ \t]*(?:(?P<NUMBER>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<NAME>\w+)|(?P<OP>[-+*/^()])|(?P<END>\Z)|(?P<BAD>.))"
)


def _tokenize(src: str) -> Iterator[Token]:
    # every character starts a match, so the matches tile the source
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        text, offset = m.group(kind), m.start(kind)
        if kind == "BAD" or kind == "NAME" and not (text[0].isalpha() or text[0] == "_"):
            raise ParseError(f"unexpected character {text[0]!r} at offset {offset}", offset, ("expression",))
        yield Token(kind, text, offset)
        if kind == "END":
            return


# ------------------------------------------------------------------ AST

@dataclass(frozen=True)
class Expr:
    span: tuple[int, int] = field(compare=False, repr=False)

    def _tokens(self) -> Iterator:
        """The dataclass repr's pieces, a field value v as (v,), from a stack: ==, hash and repr take any depth."""
        todo: list = [self]
        while todo:
            if isinstance(e := todo.pop(), Expr):
                shown = [(f.name, getattr(e, f.name)) for f in fields(e)[1:]]  # every field but the span
                pieces = [(f"{', ' if k else ''}{n}=", v if isinstance(v, Expr) else (v,)) for k, (n, v) in enumerate(shown)]
                todo += reversed([f"{type(e).__qualname__}(", *itertools.chain(*pieces), ")"])
            else:
                yield e

    def __eq__(self, other):
        return tuple(self._tokens()) == tuple(other._tokens()) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(self._tokens()))

    def __repr__(self):
        return "".join(t if isinstance(t, str) else repr(t[0]) for t in self._tokens())


@dataclass(frozen=True, eq=False, repr=False)
class Num(Expr):
    value: float = 0.0


@dataclass(frozen=True, eq=False, repr=False)
class Var(Expr):
    index: int = 0  # 0-based coordinate index


@dataclass(frozen=True, eq=False, repr=False)
class Const(Expr):
    name: str = "pi"


@dataclass(frozen=True, eq=False, repr=False)
class Neg(Expr):
    arg: Expr = None


@dataclass(frozen=True, eq=False, repr=False)
class BinOp(Expr):
    op: str = "+"
    left: Expr = None
    right: Expr = None


@dataclass(frozen=True, eq=False, repr=False)
class Call(Expr):
    func: str = "sin"
    arg: Expr = None


# signs, powers, parentheses and calls nest at most this deep; a level
# costs the parser at most five Python frames
_MAX_DEPTH = 100


class _Parser:
    def __init__(self, src: str):
        self.tokens = list(_tokenize(src))
        self.pos = self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def fail(self, expected: tuple[str, ...]) -> ParseError:
        t = self.peek()
        what = "end of input" if t.kind == "END" else repr(t.text)
        exp = ", ".join(expected)
        return ParseError(f"unexpected {what} at offset {t.offset}; expected {exp}", t.offset, expected)

    def _accept(self, ops: str) -> Token | None:
        """The next token, consumed, if it is one of the operators in ops."""
        t = self.peek()
        if t.kind == "OP" and t.text in ops:
            self.pos += 1
            return t
        return None

    def _expect(self, op: str) -> Token:
        t = self._accept(op)
        if t is None:
            raise self.fail((f"'{op}'",))
        return t

    def expr(self, level: int = 0) -> Expr:
        """A left-associative chain: terms of a sum (level 0) or factors of a product."""
        e = self.factor() if level else self.expr(1)
        while (t := self._accept("*/" if level else "+-")) is not None:
            r = self.factor() if level else self.expr(1)
            e = BinOp(span=(e.span[0], r.span[1]), op=t.text, left=e, right=r)
        return e

    def factor(self) -> Expr:
        t = self.peek()
        if self.depth > _MAX_DEPTH:
            raise ParseError(f"expression nested more than {_MAX_DEPTH} deep at offset {t.offset}", t.offset)
        self.depth += 1
        if self._accept("-"):
            arg = self.factor()
            e = Neg(span=(t.offset, arg.span[1]), arg=arg)
        else:
            e = self.power()
        self.depth -= 1
        return e

    def power(self) -> Expr:
        base = self.atom()
        if self._accept("^"):
            exp = self.factor()  # right associative, signed exponents allowed
            return BinOp(span=(base.span[0], exp.span[1]), op="^", left=base, right=exp)
        return base

    def atom(self) -> Expr:
        t = self.peek()
        if self._accept("("):
            e = self.expr()
            self._expect(")")
            return e
        if t.kind not in ("NUMBER", "NAME"):
            raise self.fail(("number", "name", "'('", "'-'"))
        self.pos += 1
        span = (t.offset, t.offset + len(t.text))
        if t.kind == "NUMBER":
            return Num(span=span, value=float(t.text))
        if t.text in VARIABLES:
            return Var(span=span, index=int(t.text[1]) - 1)
        if t.text == "pi":
            return Const(span=span, name="pi")
        if t.text in FUNCTIONS:
            self._expect("(")
            arg = self.expr()
            return Call(span=(t.offset, self._expect(")").offset + 1), func=t.text, arg=arg)
        known = ", ".join(VARIABLES + ("pi",) + FUNCTIONS)
        raise ParseError(f"unknown identifier {t.text!r} at offset {t.offset}; known names: {known}",
                         t.offset, ("x1..x4", "pi", "function"))


def parse(src: str) -> Expr:
    """Parse an expression; ParseError carries byte offset and expected set."""
    parser = _Parser(src)
    e = parser.expr()
    if parser.peek().kind != "END":
        raise parser.fail(("operator", "end of input"))
    return e


# ------------------------------------------------------------ evaluation
#
# A program is a straight-line list of numpy steps over the transposed
# points xt (4, n), each yielding an (n,) array, or a scalar for a constant
# subtree.  A checked step records (mask, span, message template,
# operands) in `fails` where it fails, and the run carries on.

_Step = Callable[[list, np.ndarray, list], np.ndarray]


def _flag(fails: list, bad, span, template: str, *operands) -> None:
    if np.count_nonzero(bad):
        fails.append((bad, span, template, operands))


# per operator: its function and, if checked, the mask of failing points
# from (operands..., value) and the message, formatted with the operands
_OPS: dict[str, tuple] = {
    "neg": (operator.neg,),
    "+": (operator.add,),
    "-": (operator.sub,),
    "*": (operator.mul,),
    "/": (operator.truediv, lambda x, y, out: y == 0.0, "division by zero"),
    "^": (np.power, lambda x, y, out: ~np.isfinite(out), "power {0!r} ^ {1!r} is not finite"),
    "sin": (np.sin,),
    "cos": (np.cos,),
    "exp": (np.exp, lambda v, out: ~np.isfinite(out), "exp overflow for argument {0!r}"),
    "sqrt": (np.sqrt, lambda v, out: v < 0.0, "sqrt of negative value {0!r}"),
    "log": (np.log, lambda v, out: v <= 0.0, "log of non-positive value {0!r}"),
}


def _step(op: str, args: tuple[int, ...], span) -> _Step:
    """The step of the _OPS row op on the values in slots args, as a
    closure of its arity: a generic f(*operands) one is slower."""
    f, *check = _OPS[op]
    if len(args) == 1:
        (a,) = args
        if not check:
            return lambda vals, xt, fails: f(vals[a])
        failing, template = check

        def unary(vals, xt, fails):
            v = vals[a]
            out = f(v)
            _flag(fails, failing(v, out), span, template, v)
            return out

        return unary
    a, b = args
    if not check:
        return lambda vals, xt, fails: f(vals[a], vals[b])
    failing, template = check

    def binary(vals, xt, fails):
        x, y = vals[a], vals[b]
        out = f(x, y)
        _flag(fails, failing(x, y, out), span, template, x, y)
        return out

    return binary


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

    def _slot(self, root: Expr) -> int:
        """The slot of root's value.  Nodes compile in post-order, left
        operand first, from an explicit stack, so a chain of any length
        compiles; an operator waits there as (row, arity, span) until its
        operands' slots are the last of `done`."""
        todo: list = [root]
        done: list[int] = []
        while todo:
            e = todo.pop()
            if isinstance(e, Neg):
                todo += [("neg", 1, e.span), e.arg]
                continue
            if isinstance(e, Call) and e.func in FUNCTIONS:
                todo += [(e.func, 1, e.span), e.arg]
                continue
            if isinstance(e, BinOp) and e.op in ("+", "-", "*", "/", "^"):
                todo += [(e.op, 2, e.span), e.right, e.left]
                continue
            if isinstance(e, tuple):
                op, n, span = e
                args = tuple(done[-n:])
                del done[-n:]
                key, step = (op, *args), _step(op, args, span)
            elif isinstance(e, Var):
                key, step = ("var", e.index), lambda vals, xt, fails, i=e.index: xt[i]
            elif isinstance(e, (Num, Const)):
                v = np.float64(e.value if isinstance(e, Num) else np.pi)
                key, step = ("num", float(v).hex()), lambda vals, xt, fails, v=v: v
            else:
                raise EvalError(f"malformed expression node {e!r}", getattr(e, "span", None))
            if key not in self._slots:
                self._slots[key] = len(self.steps)
                self.steps.append(step)
            done.append(self._slots[key])
        return done[0]

    def run(self, points: np.ndarray) -> tuple[np.ndarray, EvalError | None]:
        """Values (len(exprs), n) at points (n, 4), and the EvalError of the
        first failing point (None if every point passed)."""
        xt = np.ascontiguousarray(points.T)
        out = np.empty((len(self.outputs), len(points)))
        vals: list = []
        fails: list = []
        marks = []  # len(fails) after each output's steps
        with np.errstate(all="ignore"):
            for k, (slot, span) in enumerate(self.outputs):
                for step in self.steps[len(vals) : slot + 1]:
                    vals.append(step(vals, xt, fails))
                marks.append(len(fails))
                out[k] = vals[slot]
        if not np.isfinite(out).all():
            # each output's final check goes where a point-by-point
            # evaluation meets it: after the output's new steps, before the
            # next output's; inserting from the last keeps the marks valid
            for (slot, span), mark in reversed(list(zip(self.outputs, marks))):
                bad = ~np.isfinite(vals[slot])
                if bad.any():
                    fails.insert(mark, (bad, span, "expression evaluated to a non-finite value", ()))
        if not fails:
            return out, None
        i = min(0 if np.ndim(bad) == 0 else int(np.argmax(bad)) for bad, *_ in fails)
        _, span, template, operands = next(f for f in fails if np.ndim(f[0]) == 0 or f[0][i])
        return out, EvalError(template.format(*(float(v if np.ndim(v) == 0 else v[i]) for v in operands)), span, index=i)


def evaluate(expr: Expr, p: np.ndarray) -> float:
    """Evaluate at a coordinate point, raising EvalError on bad domains."""
    values, err = _Program([expr]).run(np.asarray(p, dtype=float)[None, :])
    if err is not None:
        raise err
    return float(values[0, 0])


# ---------------------------------------------------------------- config

@dataclass(frozen=True)
class MetricConfig:
    """Parsed metric definition: name, box, ten upper-triangular entries."""

    name: str
    lo: float
    hi: float
    exprs: dict[str, Expr] = field(repr=False)


def parse_config(text: str) -> MetricConfig:
    """Parse the key-value table; diagnostics carry line:col positions.
    Each key may appear once."""
    name = None
    lo = hi = None
    exprs: dict[str, Expr] = {}
    key_lines: dict[str, int] = {}
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
            seen_table = True
            continue
        if not seen_table:
            raise ConfigError(f"{line_no}:1: key outside a [metric] section")
        if "=" not in line:
            raise ConfigError(f"{line_no}:1: expected 'key = value', got {stripped!r}")
        key_part, value_part = line.split("=", 1)
        key = key_part.strip()
        value = value_part.strip()
        value_col = 1 + len(key_part) + 1 + (len(value_part) - len(value_part.lstrip()))
        if key in key_lines:
            raise ConfigError(f"{line_no}:{1 + len(key_part) - len(key_part.lstrip())}: "
                              f"duplicate key {key!r}, first set on line {key_lines[key]}")
        key_lines[key] = line_no
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
