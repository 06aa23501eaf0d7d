import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gentwistor.dsl import load_metric
from gentwistor.errors import DecompositionError, UsageError
from gentwistor.gca import ComponentTag
from gentwistor.harness import (
    _RULES,
    CurvatureFlags,
    check,
    classify_metric,
    predict,
    report_from_json,
    report_json,
)
from gentwistor.metrics import CATALOG, metric_by_name
from gentwistor.numerics import DEFAULT_TOL, OBSTRUCTION_FLOOR
from gentwistor.riemann import generalized_curvature
from gentwistor import harness
from gentwistor.riemann import decompose
from gentwistor.twistor import (
    StructureKind,
    constraints_J1,
    constraints_genJ,
    fiber_residuals,
    fiber_to_structures,
    random_fiber,
)

SEED = 20240818
README = Path(__file__).resolve().parents[1] / "README.md"


def _kinds(tag):
    kinds = [StructureKind.GENJ, StructureKind.ALMOST_J1]
    if tag.mixed:
        kinds.append(StructureKind.SEMI)
    return kinds


# ---------------------------------------------------------------------------
# flags


def test_classify_flat_and_perturbed_all_flags():
    for name in ("flat", "flat-perturbed"):
        flags = classify_metric(metric_by_name(name), n_points=4, seed=SEED)
        assert flags.flat
        assert flags.wplus_zero and flags.wminus_zero and flags.einstein and flags.scalar_zero


def test_classify_round_sphere():
    flags = classify_metric(metric_by_name("s4"), n_points=4, seed=SEED)
    assert flags.wplus_zero and flags.wminus_zero and flags.einstein
    assert not flags.scalar_zero and not flags.flat
    assert abs(flags.scalar_norm - 12.0) < 1e-3


def test_classify_ricci_flat_entries():
    flags = classify_metric(metric_by_name("schwarzschild"), n_points=4, seed=SEED)
    assert flags.einstein and flags.scalar_zero
    assert not flags.wplus_zero and not flags.wminus_zero and not flags.flat
    eh = classify_metric(metric_by_name("eguchi-hanson"), n_points=4, seed=SEED)
    assert eh.einstein and eh.scalar_zero and eh.wminus_zero and not eh.wplus_zero


def test_classify_validation():
    with pytest.raises(UsageError):
        classify_metric(metric_by_name("flat"), n_points=0)
    with pytest.raises(UsageError):
        classify_metric(metric_by_name("flat"), seed=-1)
    with pytest.raises(UsageError):
        classify_metric(metric_by_name("flat"), seed=2**64)


# ---------------------------------------------------------------------------
# prediction table


def test_predict_flat_everything_integrable():
    flags = classify_metric(metric_by_name("flat"), n_points=2, seed=SEED)
    table = predict(flags)
    assert all(table.cells.values())


def test_predict_round_sphere_table():
    table = predict(classify_metric(metric_by_name("s4"), n_points=2, seed=SEED))
    for tag in (ComponentTag.PP, ComponentTag.MM):
        assert not table.expected(tag, StructureKind.GENJ)
        assert not table.expected(tag, StructureKind.ALMOST_J1)
    for tag in (ComponentTag.PM, ComponentTag.MP):
        # conformally flat and Einstein: the scalar curvature is not an
        # obstruction on the mixed components
        assert table.expected(tag, StructureKind.GENJ)
        assert table.expected(tag, StructureKind.ALMOST_J1)
        assert table.expected(tag, StructureKind.SEMI)


def test_predict_half_flat_sides():
    table = predict(classify_metric(metric_by_name("eguchi-hanson"), n_points=2, seed=SEED))
    assert table.expected(ComponentTag.MM, StructureKind.GENJ)
    assert not table.expected(ComponentTag.PP, StructureKind.GENJ)
    assert table.expected(ComponentTag.MM, StructureKind.ALMOST_J1)
    assert table.expected(ComponentTag.MP, StructureKind.ALMOST_J1)
    assert not table.expected(ComponentTag.PM, StructureKind.ALMOST_J1)
    with pytest.raises(UsageError):
        table.expected(ComponentTag.PP, StructureKind.SEMI)


def test_prediction_table_dict_shape():
    table = predict(classify_metric(metric_by_name("fubini-study"), n_points=2, seed=SEED))
    d = {f"{tag.value}:{kind.value}" for tag, kind in table.cells}
    assert len(table.cells) == 10
    assert d == {
        "++:J", "--:J", "+-:J", "-+:J",
        "++:J1", "--:J1", "+-:J1", "-+:J1",
        "+-:semi", "-+:semi",
    }


# ---------------------------------------------------------------------------
# end-to-end agreement over the whole catalog


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_agreement(name):
    metric = CATALOG[name]
    for tag in ComponentTag:
        for kind in _kinds(tag):
            r = check(metric, tag, kind, base_samples=2, fiber_samples=5, seed=SEED)
            assert r.agreement, (name, tag.value, kind.value, r.max_residual, r.prediction)
            assert r.verdict != "inconclusive", (name, tag.value, kind.value, r.max_residual)


def test_residuals_are_dichotomous():
    # residual populations stay far from the decision band on both sides:
    # integrable cells sit under the tolerance, obstructed ones above the
    # floor, across fibers, not just at the max
    rng = np.random.default_rng(SEED)
    for name in ("s4", "eguchi-hanson", "schwarzschild"):
        metric = CATALOG[name]
        p = metric.interior_points(1, rng)[0]
        for tag in ComponentTag:
            for kind in (StructureKind.GENJ, StructureKind.ALMOST_J1):
                fn = constraints_genJ if kind is StructureKind.GENJ else constraints_J1
                vals = sorted(max(fn(metric, p, random_fiber(tag, rng)).norms.values()) for _ in range(12))
                if vals[-1] < DEFAULT_TOL:
                    continue  # integrable cell, checked by agreement test
                assert vals[len(vals) // 2] > 10.0 * DEFAULT_TOL, (name, tag.value, kind.value, vals)


# Verdicts under g -> lam^2 g, same chart and box.  The geometry is the same,
# so every cell keeps its verdict; the curvature scales by lam^-2, while
# the flag threshold, DEFAULT_TOL, OBSTRUCTION_FLOOR and OPERATOR_TOL are
# absolute.  These stay red until the bounds are relative.


def _rescaled(name: str, lam: float):
    m = metric_by_name(name)
    return dataclasses.replace(m, g=lambda p: lam**2 * m.g(p))


@pytest.mark.xfail(strict=True, reason="absolute bounds: at lam = 1000 s4 reads integrable on ++ (residual 7.7e-6)")
def test_large_sphere_stays_obstructed_on_pure_components():
    # s4 is not scalar-flat at any scale; its curvature, 1e-6 here, sits
    # under every absolute bound, so the flags call it flat and agree
    r = check(_rescaled("s4", 1e3), ComponentTag.PP, StructureKind.GENJ)
    assert r.verdict != "integrable", (r.max_residual, r.flags.scalar_zero)


@pytest.mark.xfail(strict=True, reason="absolute bounds: at lam = 1e-3 s4 reads obstructed on +- (residual 3.3e-3)")
def test_small_sphere_stays_integrable_on_mixed_components():
    # s4 is conformally flat and Einstein at every scale, so J is integrable
    # on the mixed components; scaled by 1e6, its roundoff crosses the floor
    r = check(_rescaled("s4", 1e-3), ComponentTag.PM, StructureKind.GENJ)
    assert r.verdict != "obstructed", (r.max_residual, r.prediction)


@pytest.mark.xfail(strict=True, raises=DecompositionError,
                   reason="absolute OPERATOR_TOL: at lam = 1e-3 the operator's defect is 7.1e-5")
def test_small_fubini_study_decomposes():
    r = check(_rescaled("fubini-study", 1e-3), ComponentTag.PM, StructureKind.GENJ)
    assert r.verdict == "obstructed"


# The same absolute bounds on small boxes and small scales, one case each,
# with the reading measured when it was recorded.  Each case flips alone.


def _boxed(name: str, half: float):
    return dataclasses.replace(metric_by_name(name), lo=-half, hi=half)


def _red(reason: str, *values):
    return pytest.param(*values, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason))


@pytest.mark.parametrize("tag, kind", [
    _red(f"absolute bounds: on [-0.002, 0.002]^4 s4 reads {tag.value} {kind.value} inconclusive, "
         f"agreement false (residual {value})", tag, kind)
    for tag, kind, value in (
        (ComponentTag.PM, StructureKind.GENJ, "1.26e-4"),
        (ComponentTag.PM, StructureKind.ALMOST_J1, "1.24e-4"),
        (ComponentTag.PM, StructureKind.SEMI, "1.24e-4"),
        (ComponentTag.MP, StructureKind.GENJ, "1.01e-4"),
        (ComponentTag.MP, StructureKind.ALMOST_J1, "1.01e-4"),
        (ComponentTag.MP, StructureKind.SEMI, "1.01e-4"),
    )
], ids=lambda v: v.name)
def test_sphere_on_a_small_box_stays_integrable_on_mixed_components(tag, kind):
    # the FD roundoff in second derivatives grows as the box, and with it
    # fd_step, shrinks; the bounds it is measured against do not
    r = check(_boxed("s4", 0.002), tag, kind)
    assert r.verdict == "integrable", (r.max_residual, r.agreement)


@pytest.mark.parametrize("metric", [
    _red("absolute flag threshold: on [-0.001, 0.001]^4 s4 reads |B| = 1.21e-4", _boxed("s4", 0.001)),
    _red("absolute flag threshold: at lam = 1e-2 eguchi-hanson reads |B| = 1.16e-4", _rescaled("eguchi-hanson", 1e-2)),
], ids=["s4-box-0.001", "eguchi-hanson-lam-1e-2"])
def test_einstein_metrics_keep_the_einstein_flag(metric):
    flags = classify_metric(metric)
    assert flags.einstein, flags.b_norm


@pytest.mark.parametrize("tag", [
    _red(f"absolute bounds: at lam = 1e-3 schwarzschild reads {tag.value} semi obstructed, "
         f"agreement true (residual {value}, |B| = 8.30e-4)", tag)
    for tag, value in ((ComponentTag.PM, "3.3e-3"), (ComponentTag.MP, "2.5e-3"))
], ids=lambda v: v.name)
def test_small_schwarzschild_semi_is_not_obstructed(tag):
    # Ricci-flat at every scale, so semi is integrable on the mixed components
    r = check(_rescaled("schwarzschild", 1e-3), tag, StructureKind.SEMI)
    assert r.verdict != "obstructed", (r.max_residual, r.flags.b_norm)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="4 base points: the bump reads integrable, agreement true, at 14 of 40 seeds")
def test_bump_near_a_face_reads_obstructed_at_every_seed():
    # conformally flat but not Einstein, with its curvature near x1 = 0.8;
    # when the 4 base points miss it, flags and residual both read flat
    bump = "(1 + 0.5*exp(-200*(x1 - 0.8)^2))"
    entries = "".join(f"g{i}{j} = {bump if i == j else 0}\n" for i in range(1, 5) for j in range(i, 5))
    metric = load_metric(f"[metric]\nname = bump\ndomain = [-1, 1]\n{entries}")
    verdicts = [check(metric, ComponentTag.PP, StructureKind.GENJ, seed=seed).verdict for seed in range(40)]
    assert [seed for seed, v in enumerate(verdicts) if v != "obstructed"] == []


# ---------------------------------------------------------------------------
# report plumbing


def test_check_validation():
    m = metric_by_name("flat")
    with pytest.raises(UsageError):
        check(m, ComponentTag.PP, StructureKind.SEMI)
    with pytest.raises(UsageError):
        check(m, ComponentTag.PM, StructureKind.GENJ, base_samples=0)
    with pytest.raises(UsageError):
        check(m, ComponentTag.PM, StructureKind.GENJ, tol=-1.0)
    with pytest.raises(UsageError):
        check(m, ComponentTag.PM, StructureKind.GENJ, seed=2**64)


def test_sample_counts_must_be_integers():
    # a numpy integer is stored as an int, so the report still serializes;
    # a float or a bool is refused before any measurement
    m = metric_by_name("flat")
    r = check(m, ComponentTag.PM, StructureKind.GENJ, base_samples=np.int64(2), fiber_samples=np.int32(3))
    assert type(r.base_samples) is int and type(r.fiber_samples) is int
    assert json.loads(report_json(r))["base_samples"] == 2
    for bad in (2.5, True, "2", None):
        with pytest.raises(UsageError, match="base_samples must be an integer"):
            check(m, ComponentTag.PM, StructureKind.GENJ, base_samples=bad)
        with pytest.raises(UsageError, match="fiber_samples must be an integer"):
            check(m, ComponentTag.PM, StructureKind.GENJ, fiber_samples=bad)
        with pytest.raises(UsageError, match="n_points must be an integer"):
            classify_metric(m, n_points=bad)
    with pytest.raises(UsageError, match="fiber_samples must be at least 1"):
        check(m, ComponentTag.PM, StructureKind.GENJ, fiber_samples=np.int64(0))
    assert classify_metric(m, n_points=np.int64(2)) == classify_metric(m, n_points=2)


def test_check_rejects_non_finite_tolerance():
    # a NaN tolerance would print invalid JSON and an inf one would read
    # every cell integrable
    m = metric_by_name("s4")
    for tol in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(UsageError, match="positive and finite"):
            check(m, ComponentTag.PM, StructureKind.GENJ, tol=tol)


def test_check_rejects_a_tolerance_that_is_not_a_real_number():
    # a string, None or a complex number used to raise a bare TypeError,
    # and True was taken as a tolerance of 1.0
    m = metric_by_name("s4")
    for tol in ("a", None, 1e-4 + 0j, True, np.bool_(True)):
        with pytest.raises(UsageError, match="tolerance must be a real number"):
            check(m, ComponentTag.PM, StructureKind.GENJ, tol=tol)
    with pytest.raises(UsageError, match="positive and finite"):
        check(m, ComponentTag.PM, StructureKind.GENJ, tol=10**400)
    for tol in (np.float32(1e-4), 1):
        assert check(m, ComponentTag.PM, StructureKind.GENJ, tol=tol).tolerance == float(tol)


def test_report_fields_and_verdict():
    r = check(metric_by_name("s4"), ComponentTag.PP, StructureKind.GENJ,
              base_samples=2, fiber_samples=4, seed=SEED)
    assert r.metric == "s4" and r.component == "++" and r.structure == "J"
    assert r.verdict == "obstructed" and r.max_residual > OBSTRUCTION_FLOOR
    assert not r.prediction and r.agreement
    assert r.worst_constraint in {"C1", "C2", "C3", "C4", "C5", "C6"}
    assert len(r.worst_point) == 4 and len(r.worst_fiber) == 6
    assert r.wall_time_s > 0.0


def test_report_json_deterministic_and_round_trips():
    kw = dict(base_samples=2, fiber_samples=3, seed=7)
    r1 = check(metric_by_name("s4"), ComponentTag.PM, StructureKind.GENJ, **kw)
    r2 = check(metric_by_name("s4"), ComponentTag.PM, StructureKind.GENJ, **kw)
    t1, t2 = report_json(r1), report_json(r2)
    assert t1 == t2  # byte identical, wall time nulled
    parsed = json.loads(t1)
    assert parsed["wall_time_s"] is None
    assert list(parsed)[:4] == ["metric", "structure", "component", "seed"]
    back = report_from_json(t1)
    assert back == r1  # dataclass equality ignores wall time
    assert isinstance(back.flags, CurvatureFlags)


def test_report_json_float_precision():
    r = check(metric_by_name("fubini-study"), ComponentTag.PP, StructureKind.GENJ,
              base_samples=1, fiber_samples=2, seed=3)
    parsed = json.loads(report_json(r))
    # json.dumps writes floats by repr, which round-trips doubles exactly
    assert parsed["max_residual"] == r.max_residual
    assert tuple(parsed["worst_point"]) == r.worst_point


def test_report_json_keeps_exact_zeros_floats():
    # the flat metric's residual and curvature norms are exact zeros, and
    # they come back as floats, like every other field keeps its type
    r = check(metric_by_name("flat"), ComponentTag.PP, StructureKind.GENJ)
    back = report_from_json(report_json(r))
    assert r.max_residual == 0.0 and r.flags.scalar_norm == 0.0

    def typed(value):
        return [typed(v) for v in value] if isinstance(value, tuple) else (type(value), value)

    for old, new in ((r, back), (r.flags, back.flags)):
        for f in dataclasses.fields(old):
            if f.name not in ("flags", "wall_time_s"):
                assert typed(getattr(new, f.name)) == typed(getattr(old, f.name)), f.name


def test_report_json_round_trips_non_finite_residuals():
    r = check(metric_by_name("s4"), ComponentTag.PM, StructureKind.GENJ, base_samples=1, fiber_samples=1)
    for value in (float("inf"), -float("inf")):
        assert report_from_json(report_json(dataclasses.replace(r, max_residual=value))).max_residual == value
    assert math.isnan(report_from_json(report_json(dataclasses.replace(r, max_residual=float("nan")))).max_residual)


def test_tolerance_under_the_floor_reads_inconclusive():
    # eguchi-hanson's semi residual on +- is roundoff, 8e-9 to 3.4e-8 over
    # these seeds: above a 1e-9 tolerance, under the obstruction floor
    for seed in range(6):
        r = check(metric_by_name("eguchi-hanson"), ComponentTag.PM, StructureKind.SEMI, tol=1e-9, seed=seed)
        assert r.verdict == "inconclusive", (seed, r.max_residual)
        assert 1e-9 < r.max_residual < OBSTRUCTION_FLOOR


def test_check_and_expected_name_a_bad_cell():
    m = metric_by_name("flat")
    table = predict(classify_metric(m, n_points=1))
    bad_tag = r"^component must be a ComponentTag, got '\+\+'$"
    bad_kind = r"^kind must be a StructureKind, got 'J'$"
    for call, message in (
        (lambda: check(m, "++", StructureKind.GENJ), bad_tag),
        (lambda: check(m, ComponentTag.PP, "J"), bad_kind),
        (lambda: table.expected("++", StructureKind.GENJ), bad_tag),
        (lambda: table.expected(ComponentTag.PP, "J"), bad_kind),
    ):
        with pytest.raises(UsageError, match=message):
            call()
    for tag in (ComponentTag.PP, ComponentTag.MM):
        semi = rf"^no cell \({re.escape(tag.value)}, semi\): semi-integrability is defined on the mixed components only$"
        with pytest.raises(UsageError, match=semi):
            check(m, tag, StructureKind.SEMI)
        with pytest.raises(UsageError, match=semi):
            table.expected(tag, StructureKind.SEMI)


def test_fiber_samples_monotone_and_prefix_stable():
    m = metric_by_name("schwarzschild")
    prev = -1.0
    for n in (2, 4, 8):
        r = check(m, ComponentTag.PP, StructureKind.GENJ,
                  base_samples=2, fiber_samples=n, seed=SEED)
        assert r.max_residual >= prev
        prev = r.max_residual
    # same for base samples
    r2 = check(m, ComponentTag.PP, StructureKind.GENJ,
               base_samples=4, fiber_samples=2, seed=SEED)
    r1 = check(m, ComponentTag.PP, StructureKind.GENJ,
               base_samples=2, fiber_samples=2, seed=SEED)
    assert r2.max_residual >= r1.max_residual


def test_flags_embedded_in_report_match_classify():
    # check() measures flags on the same seeded base points
    m = metric_by_name("eguchi-hanson")
    r = check(m, ComponentTag.MM, StructureKind.GENJ, base_samples=3, fiber_samples=2, seed=SEED)
    direct = classify_metric(m, n_points=3, seed=SEED)
    assert r.flags == direct


def test_check_memory_does_not_grow_with_the_grid():
    # the residual kernel runs over fixed-size blocks of (point, fiber)
    # pairs; evaluated at once, 4 x 2000 pairs took about 124 MB
    m = metric_by_name("s4")
    tracemalloc.start()
    try:
        check(m, ComponentTag.PP, StructureKind.GENJ, fiber_samples=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_flags_equal_the_per_matrix_loop():
    # the flags take one decompose call over the operator stack; the loop of
    # per-matrix decompose and np.linalg.norm calls gives the same bits
    for name in CATALOG:
        m = metric_by_name(name)
        stack = generalized_curvature(m, m.interior_points(8, np.random.default_rng([SEED, 0]))).operator
        wp = wm = bn = sn = 0.0
        for op in stack:
            blocks = decompose(op)
            wp = max(wp, float(np.linalg.norm(blocks.wplus)))
            wm = max(wm, float(np.linalg.norm(blocks.wminus)))
            bn = max(bn, float(np.linalg.norm(blocks.b)))
            sn = max(sn, abs(float(blocks.scalar)))
        flags = classify_metric(m, n_points=8, seed=SEED)
        assert (flags.wplus_norm, flags.wminus_norm, flags.b_norm, flags.scalar_norm) == (wp, wm, bn, sn)


def test_check_draws_the_random_fiber_samples():
    # check draws its fibers as one array; its worst fiber and maximum are
    # those of the same seed's random_fiber samples, bit for bit, and each
    # sample is its six normals normalised one vector at a time
    m = metric_by_name("schwarzschild")
    for seed in range(10):
        tag = list(ComponentTag)[seed % 4]
        geometry = generalized_curvature(m, m.interior_points(4, np.random.default_rng([seed, 0])))
        for n in range(1, 17):
            rng = np.random.default_rng([seed, 1])
            fibers = [random_fiber(tag, rng) for _ in range(n)]
            rng = np.random.default_rng([seed, 1])
            for f in fibers:
                a, b = rng.normal(size=3), rng.normal(size=3)
                assert np.array_equal(f.a, a / np.linalg.norm(a)) and np.array_equal(f.b, b / np.linalg.norm(b))
            blocks = np.array([fiber_to_structures(f) for f in fibers])
            norms = fiber_residuals(geometry, blocks, StructureKind.GENJ).norms
            worst = fibers[np.unravel_index(np.argmax(norms), norms.shape)[1]]
            r = check(m, tag, StructureKind.GENJ, fiber_samples=n, seed=seed)
            assert r.worst_fiber == tuple(np.concatenate([worst.a, worst.b]).tolist())
            assert r.max_residual == norms.max()


@pytest.mark.parametrize("tag, kind", [
    (ComponentTag.PP, StructureKind.GENJ),
    (ComponentTag.MM, StructureKind.ALMOST_J1),
    (ComponentTag.PM, StructureKind.SEMI),
])
def test_check_stage_counts(tag, kind, monkeypatch):
    # one check is 1 g call (the whole stencil of all base points),
    # 1 residual-kernel call and 1 decompose call
    calls = {"g": 0, "fiber_residuals": 0, "decompose": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    s4 = metric_by_name("s4")
    monkeypatch.setattr(harness, "fiber_residuals", counted("fiber_residuals", harness.fiber_residuals))
    monkeypatch.setattr(harness, "decompose", counted("decompose", harness.decompose))
    check(dataclasses.replace(s4, g=counted("g", s4.g)), tag, kind)
    assert calls == {"g": 1, "fiber_residuals": 1, "decompose": 1}


def test_readme_verdict_algebra_is_the_rule():
    # README's table names exactly the flags of each cell of the rule:
    # "+- , -+" is two cells and "W+ = W- = 0" two conjuncts
    flag = {"W+": "wplus_zero", "W-": "wminus_zero", "B": "einstein", "s": "scalar_zero"}
    section = README.read_text().split("## Verdict algebra\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cols = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cols) != 3 or cols[0] not in [k.value for k in StructureKind]:
            continue
        structure, components, rule = cols
        conjuncts = [part.split("=") for part in rule.split(" and ")]
        assert all(c[-1].strip() == "0" for c in conjuncts), line
        for tag in components.split(","):
            cell = (ComponentTag(tag.strip()), StructureKind(structure))
            assert cell not in table, line
            table[cell] = {flag[name.strip()] for c in conjuncts for name in c[:-1]}
    assert table == {cell: set(rule) for cell, rule in _RULES.items()}
