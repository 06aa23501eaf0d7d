"""Every conjunct of predict() decides the prediction for some metric.

A conjunct decides a cell for a metric when it is the only false
conjunct of the cell's rule there, so a rule that dropped it would
predict that cell wrongly.  The six catalog metrics are all Einstein, so
they leave the B conjunct (einstein) and the W- conjunct of J on the
mixed components undecided.  Two witnesses close the gap.  They are
defined here and kept out of CATALOG, whose cells the benchmark's
check-sweep runs:

* S^2 x H^2 with equal radii: a round 2-sphere in stereographic
  coordinates times a Poincare disk, each with factor 4 / (1 +- |.|^2)^2,
  on [-0.5, 0.5]^4.  Conformally flat and scalar-flat, not Einstein
  (Besse, "Einstein Manifolds", ch. 1 and 16).
* eguchi-hanson with r and theta swapped, which reverses the
  orientation: W+ = 0, W- != 0, Ricci-flat.
"""

import numpy as np
import pytest

from gentwistor.gca import ComponentTag
from gentwistor.harness import VERDICT_INCONCLUSIVE, check, classify_metric, predict
from gentwistor.metrics import CATALOG, MetricSpec, metric_by_name
from gentwistor.twistor import StructureKind

PP, MM, PM, MP = ComponentTag.PP, ComponentTag.MM, ComponentTag.PM, ComponentTag.MP
J, J1, SEMI = StructureKind.GENJ, StructureKind.ALMOST_J1, StructureKind.SEMI

# the rules of the harness module docstring: a cell is predicted
# integrable iff all its flags hold
RULES = {
    (PP, J): ("wplus_zero", "einstein", "scalar_zero"),
    (MM, J): ("wminus_zero", "einstein", "scalar_zero"),
    (PM, J): ("wplus_zero", "wminus_zero", "einstein"),
    (MP, J): ("wplus_zero", "wminus_zero", "einstein"),
    (PP, J1): ("wplus_zero", "scalar_zero"),
    (MM, J1): ("wminus_zero", "scalar_zero"),
    (PM, J1): ("wplus_zero", "einstein"),
    (MP, J1): ("wminus_zero", "einstein"),
    (PM, SEMI): ("einstein",),
    (MP, SEMI): ("einstein",),
}


def _s2_times_h2(p):
    sphere = 4.0 / (1.0 + p[..., 0] ** 2 + p[..., 1] ** 2) ** 2
    disk = 4.0 / (1.0 - p[..., 2] ** 2 - p[..., 3] ** 2) ** 2
    return np.stack([sphere, sphere, disk, disk], axis=-1)[..., None] * np.eye(4)


_SWAP = [1, 0, 2, 3]


def _eguchi_hanson_swapped(p):
    return metric_by_name("eguchi-hanson").g(p[..., _SWAP])[..., _SWAP, :][..., _SWAP]


WITNESSES = (
    MetricSpec("s2xh2", -0.5, 0.5, _s2_times_h2, "S^2 x H^2, equal radii"),
    MetricSpec("eguchi-hanson-swapped", 2.0, 2.8, _eguchi_hanson_swapped, "eguchi-hanson, (theta, r, phi, psi)"),
)


@pytest.fixture(scope="module")
def flags():
    metrics = list(CATALOG.values()) + list(WITNESSES)
    return {m.name: classify_metric(m) for m in metrics}


def test_rules_are_predict(flags):
    for name, f in flags.items():
        table = predict(f)
        assert set(table.cells) == set(RULES)
        for cell, conjuncts in RULES.items():
            assert table.expected(*cell) == all(getattr(f, c) for c in conjuncts), (name, cell)


def test_every_conjunct_is_the_only_false_one_somewhere(flags):
    undecided = [
        (cell, conjunct)
        for cell, conjuncts in RULES.items()
        for conjunct in conjuncts
        if not any(
            not getattr(f, conjunct) and all(getattr(f, c) for c in conjuncts if c != conjunct)
            for f in flags.values()
        )
    ]
    assert not undecided


@pytest.mark.parametrize("metric", WITNESSES, ids=lambda m: m.name)
def test_witness_verdicts_agree_with_prediction(metric):
    for tag, kind in RULES:
        report = check(metric, tag, kind)
        assert report.verdict != VERDICT_INCONCLUSIVE and report.agreement, (tag.value, kind.value)
