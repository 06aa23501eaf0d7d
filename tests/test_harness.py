import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from gentwistor.errors import UsageError
from gentwistor.gca import ComponentTag
from gentwistor.harness import (
    DEFAULT_TOL,
    OBSTRUCTION_FLOOR,
    CurvatureFlags,
    check,
    classify_metric,
    predict,
    report_from_json,
    report_json,
)
from gentwistor.metrics import CATALOG, metric_by_name
from gentwistor.riemann import generalized_curvature
from gentwistor import harness
from gentwistor.riemann import CurvatureOperator, decompose
from gentwistor.twistor import StructureKind, constraints_J1, constraints_genJ, fiber_residuals, random_fiber

SEED = 20240818


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
        gc = generalized_curvature(metric, p)
        for tag in ComponentTag:
            for kind in (StructureKind.GENJ, StructureKind.ALMOST_J1):
                fn = constraints_genJ if kind is StructureKind.GENJ else constraints_J1
                vals = sorted(max(fn(metric, p, random_fiber(tag, rng), gc=gc).norms.values()) for _ in range(12))
                if vals[-1] < DEFAULT_TOL:
                    continue  # integrable cell, checked by agreement test
                assert vals[len(vals) // 2] > 10.0 * DEFAULT_TOL, (name, tag.value, kind.value, vals)


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


def test_check_rejects_non_finite_tolerance():
    # a NaN tolerance would print invalid JSON and an inf one would read
    # every cell integrable
    m = metric_by_name("s4")
    for tol in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(UsageError, match="positive and finite"):
            check(m, ComponentTag.PM, StructureKind.GENJ, tol=tol)


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
    # 17 significant digits round-trip doubles exactly
    assert parsed["max_residual"] == r.max_residual
    assert tuple(parsed["worst_point"]) == r.worst_point


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
        stack = generalized_curvature(m, m.interior_points(8, np.random.default_rng([SEED, 0]))).operator.matrix
        wp = wm = bn = sn = 0.0
        for op in stack:
            blocks = decompose(CurvatureOperator(op))
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
            norms = fiber_residuals(geometry, fibers, StructureKind.GENJ).norms
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
    # one check is 2 g calls (the near and the mixed stencil points of all
    # base points), 1 residual-kernel call and 1 decompose call
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
    assert calls == {"g": 2, "fiber_residuals": 1, "decompose": 1}
