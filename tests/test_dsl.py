import math
import textwrap
from pathlib import Path

import numpy as np
import pytest

from gentwistor.dsl import (
    BinOp,
    Call,
    Const,
    Neg,
    Num,
    Var,
    evaluate,
    load_metric,
    parse,
    parse_config,
    probe_points,
)
from gentwistor.errors import ConfigError, EvalError, ParseError
from gentwistor.metrics import CATALOG, metric_by_name
from gentwistor.riemann import _MIXED, _NEAR

ORIGIN = np.zeros(4)


def ev(src, p=ORIGIN):
    return evaluate(parse(src), p)


def to_source(expr):
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


def test_precedence_and_unary_minus():
    assert ev("1+2*3") == 7.0
    assert ev("-2^2") == -4.0  # unary minus binds looser than ^
    assert ev("(0-2)^2") == 4.0
    assert ev("2^-3") == 0.125
    assert ev("2^3^2") == 512.0  # right associative
    assert ev("2*-3") == -6.0
    assert ev("6/3/2") == 1.0  # left associative
    assert ev("1-2-3") == -4.0


def test_sphere_expression_at_origin():
    assert ev("4/(1+x1^2+x2^2+x3^2+x4^2)^2") == 4.0
    p = np.array([0.5, -0.5, 0.25, 0.0])
    expect = 4.0 / (1.0 + float(p @ p)) ** 2
    assert ev("4/(1+x1^2+x2^2+x3^2+x4^2)^2", p) == pytest.approx(expect, rel=1e-15)


def test_functions_and_pi():
    assert ev("sin(pi)") == pytest.approx(0.0, abs=1e-15)
    assert ev("cos(0)") == 1.0
    assert ev("exp(0)") == 1.0
    assert ev("sqrt(2)^2") == pytest.approx(2.0, rel=1e-15)
    assert ev("log(exp(1))") == pytest.approx(1.0, rel=1e-15)


def test_parse_error_offsets():
    with pytest.raises(ParseError) as e:
        parse("x1+")
    assert e.value.offset == 3
    with pytest.raises(ParseError) as e:
        parse("x5")
    assert e.value.offset == 0 and "unknown identifier" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse("sin 3")
    assert e.value.expected == ("'('",)
    with pytest.raises(ParseError) as e:
        parse("(1+2")
    assert e.value.expected == ("')'",)
    with pytest.raises(ParseError) as e:
        parse("1 $ 2")
    assert e.value.offset == 2
    with pytest.raises(ParseError):
        parse("1 2")


def test_numbers_take_ascii_digits_only():
    # str.isdigit also accepts superscripts, which float() rejects, and the
    # digits of other scripts, which it reads; neither is a number here
    for src, offset in (("2\u00b2", 1), ("\u0663*x1", 0), (".\u0663", 0), ("1+\u0663", 2)):
        with pytest.raises(ParseError, match="unexpected character") as e:
            parse(src)
        assert e.value.offset == offset, src
    # an exponent needs ASCII digits too: the number ends before the e
    with pytest.raises(ParseError, match="unexpected 'e\u00b3'") as e:
        parse("1e\u00b3")
    assert e.value.offset == 1
    assert ev("10.5e+1") == 105.0


KNOWN = "; known names: x1, x2, x3, x4, pi, sin, cos, exp, sqrt, log"
AFTER = ("operator", "end of input")
OPERAND = ("number", "name", "'('", "'-'")
NAMES = ("x1..x4", "pi", "function")
CHAR = ("expression",)

# each input's outcome: the printed tree and every node's span in
# pre-order, or the ParseError's message, offset and expected set
EDGE_CASES = [
    ("1.", ("1.0", [(0, 2)])),
    (".5.3", ("unexpected '.3' at offset 2; expected operator, end of input", 2, AFTER)),
    ("1e", ("unexpected 'e' at offset 1; expected operator, end of input", 1, AFTER)),
    ("1e+", ("unexpected 'e' at offset 1; expected operator, end of input", 1, AFTER)),
    ("1e-3", ("0.001", [(0, 4)])),
    ("2\xb2", ("unexpected character '\xb2' at offset 1", 1, CHAR)),
    ("\u0663*x1", ("unexpected character '\u0663' at offset 0", 0, CHAR)),
    (".\u0663", ("unexpected character '.' at offset 0", 0, CHAR)),
    ("1e\xb3", ("unexpected 'e\xb3' at offset 1; expected operator, end of input", 1, AFTER)),
    ("\xe91", ("unknown identifier '\xe91' at offset 0" + KNOWN, 0, NAMES)),
    ("_a", ("unknown identifier '_a' at offset 0" + KNOWN, 0, NAMES)),
    ("x5", ("unknown identifier 'x5' at offset 0" + KNOWN, 0, NAMES)),
    ("sin", ("unexpected end of input at offset 3; expected '('", 3, ("'('",))),
    ("sin(", ("unexpected end of input at offset 4; expected number, name, '(', '-'", 4, OPERAND)),
    ("sin()", ("unexpected ')' at offset 4; expected number, name, '(', '-'", 4, OPERAND)),
    ("()", ("unexpected ')' at offset 1; expected number, name, '(', '-'", 1, OPERAND)),
    ("2^-3", ("(2.0^(-3.0))", [(0, 4), (0, 1), (2, 4), (3, 4)])),
    ("--1", ("(-(-1.0))", [(0, 3), (1, 3), (2, 3)])),
    ("-2^2", ("(-(2.0^2.0))", [(0, 4), (1, 4), (1, 2), (3, 4)])),
    ("1\t+ 2", ("(1.0+2.0)", [(0, 5), (0, 1), (4, 5)])),
    ("1\n+2", ("unexpected character '\\n' at offset 1", 1, CHAR)),
    ("pi2", ("unknown identifier 'pi2' at offset 0" + KNOWN, 0, NAMES)),
    ("1 2", ("unexpected '2' at offset 2; expected operator, end of input", 2, AFTER)),
    ("", ("unexpected end of input at offset 0; expected number, name, '(', '-'", 0, OPERAND)),
    (" \t", ("unexpected end of input at offset 2; expected number, name, '(', '-'", 2, OPERAND)),
    ("\xbd", ("unexpected character '\xbd' at offset 0", 0, CHAR)),
    ("1..2", ("unexpected '.2' at offset 2; expected operator, end of input", 2, AFTER)),
    ("x1x2", ("unknown identifier 'x1x2' at offset 0" + KNOWN, 0, NAMES)),
    ("sin (x1)", ("sin(x1)", [(0, 8), (5, 7)])),
    ("(1", ("unexpected end of input at offset 2; expected ')'", 2, ("')'",))),
    ("1)", ("unexpected ')' at offset 1; expected operator, end of input", 1, AFTER)),
    ("1+*2", ("unexpected '*' at offset 2; expected number, name, '(', '-'", 2, OPERAND)),
    ("$", ("unexpected character '$' at offset 0", 0, CHAR)),
    ("2^3^2", ("(2.0^(3.0^2.0))", [(0, 5), (0, 1), (2, 5), (2, 3), (4, 5)])),
    ("1.5E+2*x4", ("(150.0*x4)", [(0, 9), (0, 6), (7, 9)])),
    ("Sin(1)", ("unknown identifier 'Sin' at offset 0" + KNOWN, 0, NAMES)),
    ("-(-x1)", ("(-(-x1))", [(0, 5), (2, 5), (3, 5)])),
    ("exp(x1)/sqrt(x2)-log(pi)", ("((exp(x1)/sqrt(x2))-log(pi))", [(0, 24), (0, 16), (0, 7), (4, 6), (8, 16), (13, 15), (17, 24), (21, 23)])),
    ("1e5.5", ("unexpected '.5' at offset 3; expected operator, end of input", 3, AFTER)),
    ("3x1", ("unexpected 'x1' at offset 1; expected operator, end of input", 1, AFTER)),
    ("x1 ^ -x2 ^ 2", ("(x1^(-(x2^2.0)))", [(0, 12), (0, 2), (5, 12), (6, 12), (6, 8), (11, 12)])),
    ("\r1", ("unexpected character '\\r' at offset 0", 0, CHAR)),
    ("6/3/2", ("((6.0/3.0)/2.0)", [(0, 5), (0, 3), (0, 1), (2, 3), (4, 5)])),
    ("1-2-3", ("((1.0-2.0)-3.0)", [(0, 5), (0, 3), (0, 1), (2, 3), (4, 5)])),
]


def _spans(e):
    kids = [getattr(e, k) for k in ("arg", "left", "right") if hasattr(e, k)]
    return [e.span] + [s for k in kids for s in _spans(k)]


def test_edge_inputs_keep_their_outcome():
    for src, outcome in EDGE_CASES:
        try:
            e = parse(src)
        except ParseError as err:
            got = (str(err), err.offset, err.expected)
        else:
            got = (to_source(e), _spans(e))
        assert got == outcome, src


def test_eval_errors_not_nan():
    with pytest.raises(EvalError):
        ev("1/0")
    with pytest.raises(EvalError):
        ev("log(0-1)")
    with pytest.raises(EvalError):
        ev("sqrt(0-4)")
    with pytest.raises(EvalError):
        ev("x1/x2", np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(EvalError):
        ev("0^-1")
    # spans point into the source
    try:
        ev("1+1/0")
    except EvalError as err:
        assert err.span == (2, 5)


def _random_expr(rng, depth):
    kind = rng.integers(0, 7 if depth > 0 else 3)
    if kind == 0:
        # nonnegative literals only: the parser expresses negation via Neg
        return Num(span=(0, 0), value=float(np.round(rng.uniform(0, 4), 3)))
    if kind == 1:
        return Var(span=(0, 0), index=int(rng.integers(0, 4)))
    if kind == 2:
        return Const(span=(0, 0), name="pi")
    if kind == 3:
        return Neg(span=(0, 0), arg=_random_expr(rng, depth - 1))
    if kind == 4:
        f = ("sin", "cos", "exp", "sqrt", "log")[rng.integers(0, 5)]
        return Call(span=(0, 0), func=f, arg=_random_expr(rng, depth - 1))
    op = "+-*/^"[rng.integers(0, 5)]
    if op == "^":
        # keep exponents small integers so evaluation stays well posed
        right = Num(span=(0, 0), value=float(rng.integers(0, 4)))
    else:
        right = _random_expr(rng, depth - 1)
    return BinOp(span=(0, 0), op=op, left=_random_expr(rng, depth - 1), right=right)


def test_print_parse_round_trip_500():
    rng = np.random.default_rng(42)
    for _ in range(500):
        e = _random_expr(rng, 4)
        src = to_source(e)
        back = parse(src)
        assert back == e  # spans excluded from equality
        assert to_source(back) == src  # idempotent printing


def _python_reference(src, p):
    env = {
        "x1": p[0], "x2": p[1], "x3": p[2], "x4": p[3],
        "pi": math.pi, "sin": math.sin, "cos": math.cos,
        "exp": math.exp, "sqrt": math.sqrt, "log": math.log,
    }
    return eval(src.replace("^", "**"), {"__builtins__": {}}, env)


def test_eval_matches_python_reference():
    # the printer emits fully parenthesized source, so a plain ^ -> **
    # rewrite hands the same tree to Python's own parser and arithmetic
    rng = np.random.default_rng(43)
    compared = 0
    for _ in range(300):
        e = _random_expr(rng, 3)
        src = to_source(e)
        p = rng.uniform(-1.0, 1.0, size=4)
        try:
            ours = evaluate(e, p)
        except EvalError:
            continue
        try:
            ref = _python_reference(src, p)
        except (ArithmeticError, ValueError):
            continue
        if isinstance(ref, complex) or not math.isfinite(ref):
            continue
        assert ours == pytest.approx(ref, rel=1e-12, abs=1e-12)
        compared += 1
    assert compared > 100


GOOD_CONFIG = textwrap.dedent(
    """
    # round sphere in stereographic projection
    [metric]
    name = my-s4
    domain = [-1, 1]
    g11 = 4/(1+x1^2+x2^2+x3^2+x4^2)^2
    g12 = 0
    g13 = 0
    g14 = 0
    g22 = 4/(1+x1^2+x2^2+x3^2+x4^2)^2
    g23 = 0
    g24 = 0
    g33 = 4/(1+x1^2+x2^2+x3^2+x4^2)^2
    g34 = 0
    g44 = 4/(1+x1^2+x2^2+x3^2+x4^2)^2
    """
)


def test_config_round_trip_against_builtin():
    spec = load_metric(GOOD_CONFIG)
    assert spec.name == "my-s4"
    assert spec.box == (-1.0, 1.0)
    builtin = metric_by_name("s4")
    rng = np.random.default_rng(44)
    for p in rng.uniform(-0.9, 0.9, size=(100, 4)):
        np.testing.assert_allclose(spec.g(p), builtin.g(p), rtol=1e-12, atol=1e-12)


def test_config_diagnostics_carry_line_col():
    bad = GOOD_CONFIG.replace("g23 = 0", "g23 = 1+*2")
    with pytest.raises(ConfigError) as e:
        parse_config(bad)
    msg = str(e.value)
    assert msg.startswith("11:9:")  # line of g23, column of the bad '*'
    assert "expected" in msg


def test_config_missing_component():
    bad = "\n".join(l for l in GOOD_CONFIG.splitlines() if not l.startswith("g34"))
    with pytest.raises(ConfigError) as e:
        parse_config(bad)
    assert "g34" in str(e.value)


def test_config_rejects_indefinite_metric():
    bad = GOOD_CONFIG.replace("g22 = 4/(1+x1^2+x2^2+x3^2+x4^2)^2", "g22 = 0-1")
    with pytest.raises(ConfigError) as e:
        load_metric(bad)
    assert "positive definite" in str(e.value)


def test_config_structural_errors():
    with pytest.raises(ConfigError):
        parse_config("name = x\n")  # key outside table
    with pytest.raises(ConfigError):
        parse_config("[metric]\n[metric]\n")
    with pytest.raises(ConfigError):
        parse_config("[metric]\nname = a\ndomain = [1, -1]\n")
    with pytest.raises(ConfigError):
        parse_config("[metric]\nbogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config(GOOD_CONFIG + "\nextra = 2\n")


def test_config_rejects_duplicate_keys():
    # a repeated key is an error at its line:col, not a silent overwrite
    for extra, first in (("name = b", 4), ("domain = [-2, 2]", 5), ("g11 = 2", 6)):
        key = extra.split()[0]
        with pytest.raises(ConfigError, match=f"duplicate key '{key}', first set on line {first}$") as e:
            parse_config(GOOD_CONFIG + "  " + extra + "\n")
        assert str(e.value).startswith("16:3:")


def test_config_rejects_non_finite_domain():
    # an infinite bound, or a width that overflows, would load with an
    # infinite fd_step and fail later inside the samplers
    for domain in ("[0, inf]", "[-inf, 0]", "[-1e308, 1e308]"):
        with pytest.raises(ConfigError, match="finite") as e:
            parse_config(GOOD_CONFIG.replace("domain = [-1, 1]", f"domain = {domain}"))
        assert str(e.value).startswith("5:10:")  # line of domain, column of its value
    assert parse_config(GOOD_CONFIG.replace("domain = [-1, 1]", "domain = [-1e307, 1e307]")).hi == 1e307


def test_deep_nesting_is_a_parse_error():
    # signs, powers, parentheses and calls nest 100 deep; deeper input
    # stops at the offset where it goes too deep, not in a RecursionError
    for src in ("(" * 100 + "x1" + ")" * 100, "-" * 100 + "1", "2" + "^2" * 100, "sin(" * 100 + "1" + ")" * 100):
        parse(src)
    for src, offset in (("(" * 3000 + "1", 101), ("-" * 3000 + "1", 101), ("2" + "^2" * 3000, 202), ("sin(" * 3000, 404)):
        with pytest.raises(ParseError, match=f"^expression nested more than 100 deep at offset {offset}$") as e:
            parse(src)
        assert e.value.offset == offset
    deep = GOOD_CONFIG.replace("g12 = 0", "g12 = " + "(" * 3000 + "0" + ")" * 3000)
    with pytest.raises(ConfigError, match="^7:108: expression nested more than 100 deep at offset 101$"):
        load_metric(deep)


def test_flat_chains_of_any_length_load_and_evaluate():
    # 5000 terms compile without recursion, in the order a point-by-point
    # evaluation meets them, so of two failing terms the first is reported
    terms = ["0.0002*(1+x1^2)"] * 5000
    terms[10], terms[4990] = "0*sqrt(x2+1)", "0*log(x2+1)"
    sphere = "4/(1+x1^2+x2^2+x3^2+x4^2)^2"
    cfg = GOOD_CONFIG.replace(f"g11 = {sphere}", "g11 = " + "+".join(terms))
    cfg = cfg.replace(f"g22 = {sphere}", "g22 = " + "*".join(["1.0001"] * 5000))
    spec = load_metric(cfg)
    p = np.array([0.5, 0.25, 0.0, 0.0])
    total = 0.0
    for k, term in enumerate(terms):
        total += 0.0 if k in (10, 4990) else 0.0002 * 1.25
    assert spec.g(p)[0, 0] == pytest.approx(total, rel=1e-12)
    assert spec.g(p)[1, 1] == pytest.approx(1.0001**5000, rel=1e-12)
    with pytest.raises(EvalError, match="^sqrt of negative value -0.5$"):
        spec.g(np.array([0.5, -1.5, 0.0, 0.0]))


def test_deep_trees_compare_hash_and_print():
    # a 5000-term sum is a tree 5000 deep; ==, hash and repr walk it
    # without recursion, spans stay out of equality, and the repr is the
    # dataclass one
    src = "+".join(["1"] * 5000)
    a, b = parse(src), parse(src.replace("+", " + "))
    assert a.span != b.span and a == b and hash(a) == hash(b)
    assert a != parse(src[:-1] + "2") and a != parse(src[:-2])
    assert repr(a) == "BinOp(op='+', left=" * 4999 + "Num(value=1.0)" + ", right=Num(value=1.0))" * 4999
    cfg = GOOD_CONFIG.replace("g12 = 0", "g12 = " + "+".join(["0"] * 5000))
    assert parse_config(cfg) == parse_config(cfg)


def test_probe_points_are_interior_grid():
    pts = probe_points(-1.0, 1.0)
    assert pts.shape == (16, 4)
    assert pts.min() == -0.5 and pts.max() == 0.5


BENCH_DSL = Path(__file__).resolve().parents[1] / "bench" / "dsl"


def test_batched_g_matches_single_point_calls():
    # g on a whole stencil is the stack of its single-point values, bit for bit
    transcriptions = [load_metric((BENCH_DSL / f"{n}.cfg").read_text()) for n in ("s4", "schwarzschild", "eguchi-hanson")]
    specs = list(CATALOG.values()) + transcriptions
    rng = np.random.default_rng(45)
    for spec in specs:
        for p in spec.interior_points(3, rng):
            for offsets in (_NEAR, _MIXED):
                points = p + offsets * spec.fd_step
                batch = spec.g(points)
                single = np.array([spec.g(q) for q in points])
                assert batch.shape == (len(points), 4, 4) and single.shape[1:] == (4, 4)
                assert np.array_equal(batch, single), spec.name
                assert np.array_equal(spec.g(points[:16].reshape(2, 8, 4)), batch[:16].reshape(2, 8, 4, 4))


DOMAIN_CONFIG = textwrap.dedent(
    """
    [metric]
    name = domain-traps
    domain = [-1, 1]
    g11 = 1
    g12 = 0.01/(x1-0.3)
    g13 = 0.1*sqrt(x2+0.6)
    g14 = 0.01*log(x3+0.6)
    g22 = 1
    g23 = 0.01*exp(1000*(x4-0.9))
    g24 = 0.1*(x1+0.6)^0.5
    g33 = 1
    g34 = 0.01*(x3*1e307)*(x3*1e-307)
    g44 = 1+0.01*sqrt(x4+0.6)
    """
)

# one point that fails exactly one domain check: (coordinate, value, message)
DOMAIN_TRAPS = (
    (0, 0.3, "division by zero"),
    (1, -0.7, "sqrt of negative value"),
    (2, -0.6, "log of non-positive value"),
    (3, 1.7, "exp overflow"),
    (0, -0.7, "power"),
    (2, 100.0, "expression evaluated to a non-finite value"),
)


def test_batch_eval_error_names_first_failing_point():
    spec = load_metric(DOMAIN_CONFIG)
    rng = np.random.default_rng(46)
    good = rng.uniform(-0.2, 0.2, size=(17, 4))
    spec.g(good)
    for k, (axis, value, message) in zip((0, 5, 11, 16, 9, 13), DOMAIN_TRAPS):
        batch = good.copy()
        batch[k, axis] = value
        with pytest.raises(EvalError) as single:
            spec.g(batch[k])
        with pytest.raises(EvalError) as batched:
            spec.g(batch)
        assert str(single.value).startswith(message)
        assert (batched.value.span, str(batched.value)) == (single.value.span, str(single.value))
        assert batched.value.index == k and single.value.index == 0
    # two failing points: the lower one wins, although its node comes later
    batch = good.copy()
    batch[3, 3] = 1.7  # exp, in g23
    batch[8, 0] = 0.3  # division, in g12
    with pytest.raises(EvalError) as batched:
        spec.g(batch)
    assert batched.value.index == 3 and str(batched.value).startswith("exp overflow")
    # one point failing twice: g34's non-finite result comes before g44's sqrt
    batch = good.copy()
    batch[7, 2:] = 100.0, -0.7
    with pytest.raises(EvalError) as batched:
        spec.g(batch)
    assert batched.value.index == 7 and str(batched.value) == "expression evaluated to a non-finite value"


def test_shared_subexpressions_keep_their_operators():
    # the ten components share operands (3, x1) but not operators, so each
    # must still equal its own single-expression evaluation
    cfg = textwrap.dedent(
        """
        [metric]
        name = shared
        domain = [1, 2]
        g11 = 3+x1
        g12 = 0.1*sin(x1)
        g13 = 0.1*cos(x1)
        g14 = 0.1*(3-x1)
        g22 = 3*x1
        g23 = 0.1*(x1-3)
        g24 = 0.1*-x1
        g33 = 3/x1
        g34 = 0.1*log(x1)
        g44 = 3^x1
        """
    )
    spec = load_metric(cfg)
    points = np.random.default_rng(47).uniform(1.1, 1.9, size=(9, 4))
    batch = spec.g(points)
    exprs = parse_config(cfg).exprs
    for key, e in exprs.items():
        i, j = int(key[1]) - 1, int(key[2]) - 1
        assert [evaluate(e, p) for p in points] == batch[:, i, j].tolist() == batch[:, j, i].tolist()


def test_load_metric_names_first_failing_probe_point():
    # probes run through the 2^4 grid at -0.5 and 0.5, last axis fastest
    bad = GOOD_CONFIG.replace("g12 = 0", "g12 = 0.01/(x1-0.5)")
    with pytest.raises(ConfigError) as e:
        load_metric(bad)
    assert "evaluation failed at probe point [0.5, -0.5, -0.5, -0.5]: division by zero" in str(e.value)
    # a probe that is not positive definite comes before a later failing one
    bad = bad.replace("g13 = 0", "g13 = 2*(x4+0.5)/x4")
    with pytest.raises(ConfigError) as e:
        load_metric(bad)
    assert "not positive definite at probe point [-0.5, -0.5, -0.5, 0.5]" in str(e.value)
