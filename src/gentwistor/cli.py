"""Command line front end.

Verbs:

    catalog                          list the built-in metrics
    curvature --metric NAME --point X1,X2,X3,X4 [--json]
                                     curvature decomposition at a point
    classify  --metric NAME [--samples N] [--seed S]
                                     sampled curvature flags
    check     --metric NAME --component TAG --structure {J,J1,semi} ...
                                     residual measurement vs prediction
    type      --fiber A1,A2,A3,B1,B2,B3 --component TAG
                                     pointwise type of the generalized
                                     structure at a fiber point
    oracle    --metric NAME [--points N] ...
                                     finite difference Nijenhuis spot
                                     checks on random twistor points

Components are spelled ++, --, +-, -+; those starting with a minus must
be passed in the --component=-+ form so the parser does not mistake them
for options (pp, mm, pm, mp are accepted as aliases).  Anywhere --metric
is accepted, --metric-file loads a user definition in the config format
of the dsl module instead; its diagnostics are reported as line:col
positions on stderr.

Exit codes: 0 success (and, for check, agreement), 2 measured verdict
disagrees with the prediction, 1 any error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import ConfigError, GentwistorError
from .gca import ComponentTag
from .harness import (
    DEFAULT_TOL,
    _dump,
    check,
    classify_metric,
    report_json,
)
from .metrics import CATALOG, SAMPLE_MARGIN, MetricSpec, metric_by_name
from .oracle import nijenhuis_numeric, oracle_margin
from .riemann import curvature_operator, decompose
from .twistor import FiberPoint, StructureKind, TwistorPoint, random_fiber, type_of_genJ

_COMPONENT_ALIASES = {
    "++": "++", "--": "--", "+-": "+-", "-+": "-+",
    "pp": "++", "mm": "--", "pm": "+-", "mp": "-+",
}
_STRUCTURES = tuple(k.value for k in StructureKind)


def _component(text: str) -> ComponentTag:
    try:
        return ComponentTag(_COMPONENT_ALIASES[text.lower()])
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"component must be one of ++, --, +-, -+ (or pp, mm, pm, mp), got {text!r}"
        ) from None

_ORACLE_PAIRS = ((("h+", 0), ("h+", 1)), (("h+", 0), ("h-", 1)), (("h+", 1), ("v", 0)))


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this tool reserves 2 for a
    measured disagreement, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _floats(text: str, n: int, what: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != n:
        raise argparse.ArgumentTypeError(f"{what} needs {n} comma-separated numbers")
    try:
        values = np.array([float(x) for x in parts])
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} needs {n} comma-separated numbers") from None
    if not np.isfinite(values).all():
        raise argparse.ArgumentTypeError(f"{what} needs {n} finite numbers, got {text!r}")
    return values


def _point(text: str) -> np.ndarray:
    return _floats(text, 4, "point")


def _fiber(text: str) -> np.ndarray:
    return _floats(text, 6, "fiber")


def _add_metric_args(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--metric", choices=sorted(CATALOG), help="built-in metric name")
    group.add_argument("--metric-file", help="metric definition file (dsl config)")


def _resolve_metric(args) -> MetricSpec:
    if args.metric is not None:
        return metric_by_name(args.metric)
    from .dsl import load_metric_file

    try:
        return load_metric_file(args.metric_file)
    except FileNotFoundError:
        raise ConfigError(f"{args.metric_file}: file not found") from None
    except GentwistorError as e:
        raise ConfigError(f"{args.metric_file}: {e}") from e


def _build_parser() -> _Parser:
    parser = _Parser(prog="gentwistor", description=__doc__.split("\n", 1)[0])
    subs = parser.add_subparsers(dest="verb", required=True)

    subs.add_parser("catalog", help="list built-in metrics")

    cur = subs.add_parser("curvature", help="curvature decomposition at a point")
    _add_metric_args(cur)
    cur.add_argument("--point", type=_point, required=True, help="X1,X2,X3,X4")
    cur.add_argument("--json", action="store_true")

    cls = subs.add_parser("classify", help="sampled curvature flags")
    _add_metric_args(cls)
    cls.add_argument("--samples", type=int, default=8)
    cls.add_argument("--seed", type=_seed, default=0)

    chk = subs.add_parser("check", help="residuals vs prediction for one component")
    _add_metric_args(chk)
    chk.add_argument("--component", type=_component, required=True, metavar="TAG")
    chk.add_argument("--structure", choices=_STRUCTURES, required=True)
    chk.add_argument("--base-samples", type=int, default=4)
    chk.add_argument("--fiber-samples", type=int, default=8)
    chk.add_argument("--tol", type=float, default=DEFAULT_TOL)
    chk.add_argument("--seed", type=_seed, default=0)
    chk.add_argument("--json", action="store_true")

    typ = subs.add_parser("type", help="pointwise type of the generalized structure")
    typ.add_argument("--fiber", type=_fiber, required=True, help="A1,A2,A3,B1,B2,B3")
    typ.add_argument("--component", type=_component, required=True, metavar="TAG")

    orc = subs.add_parser("oracle", help="finite difference Nijenhuis spot checks")
    _add_metric_args(orc)
    orc.add_argument("--points", type=int, default=4)
    orc.add_argument("--structure", choices=("J", "J1"), default="J")
    orc.add_argument("--seed", type=_seed, default=0)

    return parser


def _run_catalog(args) -> int:
    for name in sorted(CATALOG):
        m = CATALOG[name]
        print(f"{name:16s} [{m.lo:g}, {m.hi:g}]^4  {m.provenance}")
    return 0


def _run_curvature(args) -> int:
    metric = _resolve_metric(args)
    blocks = decompose(curvature_operator(metric, args.point))
    wp = float(np.linalg.norm(blocks.wplus))
    wm = float(np.linalg.norm(blocks.wminus))
    bn = float(np.linalg.norm(blocks.b))
    if args.json:
        sys.stdout.write(
            _dump(
                {
                    "metric": metric.name,
                    "point": [float(x) for x in args.point],
                    "wplus_norm": wp,
                    "wminus_norm": wm,
                    "b_norm": bn,
                    "scalar": float(blocks.scalar),
                }
            )
            + "\n"
        )
    else:
        print(f"metric {metric.name} at {args.point.tolist()}")
        print(f"|W+| = {wp:.6e}  |W-| = {wm:.6e}  |B| = {bn:.6e}  s = {blocks.scalar:.6f}")
    return 0


def _run_classify(args) -> int:
    metric = _resolve_metric(args)
    flags = classify_metric(metric, n_points=args.samples, seed=args.seed)
    print(f"metric {metric.name}: {args.samples} samples, seed {args.seed}, threshold {flags.threshold:g}")
    print(f"wplus_zero:  {str(flags.wplus_zero).lower():5s} (|W+| = {flags.wplus_norm:.3e})")
    print(f"wminus_zero: {str(flags.wminus_zero).lower():5s} (|W-| = {flags.wminus_norm:.3e})")
    print(f"einstein:    {str(flags.einstein).lower():5s} (|B|  = {flags.b_norm:.3e})")
    print(f"scalar_zero: {str(flags.scalar_zero).lower():5s} (|s|  = {flags.scalar_norm:.3e})")
    print(f"flat:        {str(flags.flat).lower()}")
    return 0


def _run_check(args) -> int:
    metric = _resolve_metric(args)
    report = check(
        metric,
        args.component,
        StructureKind(args.structure),
        base_samples=args.base_samples,
        fiber_samples=args.fiber_samples,
        tol=args.tol,
        seed=args.seed,
    )
    if args.json:
        sys.stdout.write(report_json(report))
    else:
        predicted = "integrable" if report.prediction else "obstructed"
        grade = "agree" if report.agreement else "DISAGREE"
        print(
            f"{report.metric} {report.component} {report.structure}: "
            f"max residual {report.max_residual:.3e} over "
            f"{report.base_samples}x{report.fiber_samples} samples -> "
            f"{report.verdict} (predicted {predicted}, worst {report.worst_constraint}) [{grade}]"
        )
    return 0 if report.agreement else 2


def _run_type(args) -> int:
    f = FiberPoint.normalized(args.fiber[:3], args.fiber[3:], args.component)
    print(f"type: {type_of_genJ(f)}")
    return 0


def _run_oracle(args) -> int:
    metric = _resolve_metric(args)
    if args.points < 1:
        raise GentwistorError(f"--points must be at least 1, got {args.points}")
    kind = StructureKind(args.structure)
    # 5% of the width on boxes at least about 0.82 wide, the oracle's own margin on narrower ones
    margin_frac = max(SAMPLE_MARGIN, oracle_margin(metric) / (metric.hi - metric.lo))
    points = metric.interior_points(args.points, np.random.default_rng([args.seed, 0]), margin_frac)
    rng_fiber = np.random.default_rng([args.seed, 1])
    tags = tuple(ComponentTag)
    worst = 0.0
    for k, p in enumerate(points):
        tag = tags[k % len(tags)]
        tp = TwistorPoint(p, random_fiber(tag, rng_fiber))
        value = noise = 0.0
        for sel in _ORACLE_PAIRS:
            r = nijenhuis_numeric(metric, tp, sel, kind)
            value = max(value, r.norm)
            noise = max(noise, r.noise)
        worst = max(worst, value)
        print(f"point {k} ({tag.value}): max |Nij| = {value:.3e}  (fd noise {noise:.1e})")
    print(f"max over {len(points)} points: {worst:.3e}")
    return 0


_DISPATCH = {
    "catalog": _run_catalog,
    "curvature": _run_curvature,
    "classify": _run_classify,
    "check": _run_check,
    "type": _run_type,
    "oracle": _run_oracle,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse mangles the component value "--" even in the = form
    # (it doubles as the positional separator); alias it before parsing
    argv = ["--component=mm" if a == "--component=--" else a for a in argv]
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.verb](args)
    except GentwistorError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
