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
    to_source,
)
from gentwistor.errors import ConfigError, EvalError, ParseError
from gentwistor.metrics import CATALOG, metric_by_name
from gentwistor.riemann import _MIXED, _NEAR

ORIGIN = np.zeros(4)


def ev(src, p=ORIGIN):
    return evaluate(parse(src), p)


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


def test_config_rejects_non_finite_domain():
    # an infinite bound, or a width that overflows, would load with an
    # infinite fd_step and fail later inside the samplers
    for domain in ("[0, inf]", "[-inf, 0]", "[-1e308, 1e308]"):
        with pytest.raises(ConfigError, match="finite") as e:
            parse_config(GOOD_CONFIG.replace("domain = [-1, 1]", f"domain = {domain}"))
        assert str(e.value).startswith("5:10:")  # line of domain, column of its value
    assert parse_config(GOOD_CONFIG.replace("domain = [-1, 1]", "domain = [-1e307, 1e307]")).hi == 1e307


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
