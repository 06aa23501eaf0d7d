#!/usr/bin/env python3
"""gentwistor benchmark: closed-loop workloads through the public Python API.

Run from the repository root:

    python3 bench/run.py --workload check-sweep --seed 0 --seconds 56 --trace 0
    python3 bench/run.py --workload all --seed 0

Workloads (bench/README.md says why each exists and which per-layer metric
should move which end-to-end metric):

    check-sweep    harness.check on the 10 prediction-table cells of each of
                   the 6 CATALOG metrics and of the DSL transcriptions of s4,
                   schwarzschild and eguchi-hanson in bench/dsl, default 4x8
                   grid
    oracle-spot    the oracle verb, cli.main(["oracle", ...]), on s4,
                   flat-perturbed, schwarzschild and eguchi-hanson

One caller runs batches of ops (the ops of one metric) back to back until
--seconds have passed and at least MIN_OPS ops are done; a check batch stops
at the first op boundary after that.  A round is one batch per metric; each
round draws a fresh sampling seed from --seed, so a seed fixes every input.
Every op is checked: a check verdict against bench/reference.json (the
built-in's row for a DSL metric), an oracle reading against predict() for its
metric, component and J.

An op's place in its round (metric and cell) is its key.  Ops of different
keys differ in cost by up to 10x, and a run ends inside a round, so rates and
latency quantiles weigh each key equally (see Phase): they describe a whole
round whatever batch the run stopped in.

--trace 0 prints the end-to-end metrics.  --trace 1 runs untraced and then
traced whole rounds, each for at least half of --seconds, so that per-op
counts repeat exactly; it prints the per-layer metrics and the tracing
overhead, and writes the spans to bench/out/trace-<workload>-<seed>.npz.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import os

# numpy here links OpenBLAS built for up to 64 threads; the benchmark measures
# one thread, so the pools are pinned before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import io
import json
import platform
import re
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

if not (SRC / "gentwistor" / "__init__.py").is_file():
    sys.exit(f"error: no gentwistor sources under {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))

import numpy as np

import gentwistor
from gentwistor import calculus, cli, dsl, harness, oracle, riemann, twistor
from gentwistor.gca import ComponentTag
from gentwistor.metrics import CATALOG, metric_by_name
from gentwistor.twistor import StructureKind
from spans import SpanStats, Tracer, rebound

if not Path(gentwistor.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: imported gentwistor from {gentwistor.__file__}, not from {SRC}")

WORKLOADS = ("check-sweep", "oracle-spot")
DSL_DIR = BENCH / "dsl"
DSL_METRICS = ("s4", "schwarzschild", "eguchi-hanson")
DSL_REL_TOL = 1e-12
ORACLE_METRICS = ("s4", "flat-perturbed", "schwarzschild", "eguchi-hanson")
ORACLE_POINTS = 4
ORACLE_PAIRS = 3  # selector pairs the oracle verb evaluates per point
OUT_DIR = BENCH / "out"

#: op_ms_p90 needs at least ten ops above it
MIN_OPS = 100
#: set-up is timed in this many fresh processes and reported as the median
SETUP_REPEATS = 5

# Counters of the ROADMAP baseline table; a traced run reports any mismatch.
BASE_SAMPLES, FIBER_SAMPLES = 4, 8
EVALS_PER_POINT = 406
KERNEL_CALLS_S4_PP_J = 2304
EVALS_PER_SELECTOR_PAIR = 3675

CELLS = tuple(
    [(tag, StructureKind.GENJ) for tag in ComponentTag]
    + [(tag, StructureKind.ALMOST_J1) for tag in ComponentTag]
    + [(tag, StructureKind.SEMI) for tag in ComponentTag if tag.mixed]
)
RESIDUAL_SPANS = ("twistor.constraints_genJ", "twistor.constraints_J1", "twistor.semi_integrability_residual")
EVAL_SPANS = ("metrics.g", "dsl.g")
POINT_LINE = re.compile(r"^point \d+ \((?P<tag>\S+)\): max \|Nij\| = (?P<value>\S+)", re.M)


def _geometry_key(metric, p, *rest, **kwargs):
    return metric.name, np.asarray(p, float).tobytes()


# (module, attribute, span name[, key]): the names callers look up at call time
HOOKS = (
    (harness, "check", "harness.check"),
    (harness, "curvature_operator", "riemann.curvature_operator"),
    (harness, "decompose", "riemann.decompose"),
    (harness, "generalized_curvature", "riemann.generalized_curvature", _geometry_key),
    (harness, "constraints_genJ", "twistor.constraints_genJ"),
    (harness, "constraints_J1", "twistor.constraints_J1"),
    (harness, "semi_integrability_residual", "twistor.semi_integrability_residual"),
    (twistor, "_constraint_block", "twistor._constraint_block"),
    (riemann, "christoffel", "riemann.christoffel"),
    (riemann, "partial", "calculus.partial"),
    (calculus, "partial", "calculus.partial"),
    (oracle, "christoffel", "riemann.christoffel"),
    (oracle, "orthonormal_frame", "riemann.orthonormal_frame"),
    (oracle, "nijenhuis_field", "calculus.nijenhuis_field"),
    (cli, "nijenhuis_numeric", "oracle.nijenhuis_numeric"),
    (cli, "main", "cli.main"),
    (dsl, "load_metric", "dsl.load_metric"),
)


def round_seed(seed: int, k: int) -> int:
    return int(np.random.default_rng([seed, k]).integers(2**63))


def counted(spec, tracer, span):
    """spec whose metric evaluations are recorded as spans."""
    return dataclasses.replace(spec, g=tracer.wrap(spec.g, span))


@dataclasses.dataclass
class Batch:
    keys: list  # one per op that ran: the op's place in its round
    latencies: list  # seconds, one per op that ran
    ends: list  # perf_counter at the end of each op that ran
    attempted: int
    failed: int


class CheckSweep:
    """check-sweep: one harness.check per cell and metric.

    A batch is the 10 cells of one metric; they share the round's seed, so
    each (metric, point) geometry is recomputed once per cell, as in the
    ROADMAP's 60-cell sweep.  A round is the 6 built-in metrics, then the 3
    DSL transcriptions."""

    def __init__(self, specs):
        self.specs = specs  # (built-in name, spec, metric eval span name)
        self.batches_per_round = len(specs)

    def prepare(self) -> list:
        self.reference = json.loads((BENCH / "reference.json").read_text())
        problems = []
        for name, spec, eval_span in self.specs:
            if eval_span != "dsl.g":
                continue
            ref = metric_by_name(name)
            if spec.box != ref.box:
                problems.append(f"{name}: DSL box {spec.box} differs from built-in {ref.box}")
            for p in dsl.probe_points(spec.lo, spec.hi):
                want = ref.g(p)
                err = float(np.abs(spec.g(p) - want).max() / np.abs(want).max())
                if err > DSL_REL_TOL:
                    problems.append(f"{name}: DSL metric off by {err:.1e} relative at {p.tolist()}")
        return problems

    def unconfirmed_ops(self) -> int:
        return 0

    def batch(self, seed, k, tracer=None, deadline=None) -> Batch:
        """The cells of batch k, stopping after the first op that ends past
        `deadline` (a perf_counter value)."""
        name, spec, eval_span = self.specs[k % len(self.specs)]
        if tracer is not None:
            spec = counted(spec, tracer, eval_span)
        s = round_seed(seed, k // len(self.specs))
        keys, lat, ends, failed = [], [], [], 0
        for tag, kind in CELLS:
            key = (spec.name, tag.value, kind.value)
            if tracer is not None:
                tracer.begin_op(("check",) + key)
            t0 = perf_counter()
            try:
                report = harness.check(spec, tag, kind, seed=s)
                ok = report.verdict == self.reference[name][f"{tag.value}:{kind.value}"]
            except Exception:
                traceback.print_exc()
                ok = False
            ends.append(perf_counter())
            lat.append(ends[-1] - t0)
            keys.append(key)
            failed += not ok
            if deadline is not None and perf_counter() >= deadline:
                break
        return Batch(keys, lat, ends, len(lat), failed)


class OracleSpot:
    """oracle-spot: the oracle verb, 4 points x 3 selector pairs per metric.

    A batch is one oracle verb call on one metric; an op is one
    nijenhuis_numeric call.  Points come from the verb's own sampler; a round
    seed whose points the oracle refuses as too close to the box edge is
    skipped and counted (see skipped_seeds).

    A point whose component predict() calls integrable must read below
    DEFAULT_TOL: integrable means small at every point.  Obstructed means
    large somewhere, not everywhere (eguchi-hanson -+ read 9.0e-4 at one
    point), so a component predicted obstructed must read above
    OBSTRUCTION_FLOOR at one or more of its points in the run."""

    def __init__(self, names):
        self.names = names
        self.batches_per_round = len(names)
        self.seeds: list = []
        self.skipped_seeds = 0

    def prepare(self) -> list:
        self.integrable = {}
        for name in self.names:
            table = harness.predict(harness.classify_metric(metric_by_name(name)))
            self.integrable[name] = {tag: table.expected(tag, StructureKind.GENJ) for tag in ComponentTag}
        self.obstructed = {}  # "metric component" -> [largest reading, ops]
        return []

    def unconfirmed_ops(self) -> int:
        """Ops of components predicted obstructed that never read above the floor."""
        return sum(ops for value, ops in self.obstructed.values() if not value > harness.OBSTRUCTION_FLOOR)

    def _seed(self, seed, k) -> int:
        while len(self.seeds) <= k:
            s = round_seed(seed, len(self.seeds) + self.skipped_seeds)
            if all(self._accepted(name, s) for name in self.names):
                self.seeds.append(s)
            else:
                self.skipped_seeds += 1
        return self.seeds[k]

    @staticmethod
    def _accepted(name, s) -> bool:
        spec = metric_by_name(name)
        margin = 4.0 * oracle.DEFAULT_ORACLE_STEP + 2.0 * spec.fd_step  # nijenhuis_numeric's own
        points = spec.interior_points(ORACLE_POINTS, np.random.default_rng([s, 0]))
        return all(spec.contains(p, margin) for p in points)

    def batch(self, seed, k, tracer=None, deadline=None) -> Batch:
        """One oracle verb call; it runs whole, whatever `deadline` says."""
        name = self.names[k % len(self.names)]
        s = self._seed(seed, k // len(self.names))
        lat, ends = [], []

        def timed(*args, **kwargs):
            if tracer is not None:
                tracer.begin_op(("oracle", name))
            t0 = perf_counter()
            try:
                return nijenhuis_numeric(*args, **kwargs)
            finally:
                ends.append(perf_counter())
                lat.append(ends[-1] - t0)

        lookup = metric_by_name if tracer is None else (lambda n: counted(metric_by_name(n), tracer, "metrics.g"))
        out = io.StringIO()
        with rebound(cli, "nijenhuis_numeric", timed) as nijenhuis_numeric, rebound(cli, "metric_by_name", lookup):
            try:
                with contextlib.redirect_stdout(out):
                    cli.main(["oracle", "--metric", name, "--points", str(ORACLE_POINTS), "--seed", str(s)])
            except Exception:
                traceback.print_exc()
        failed = ORACLE_PAIRS * ORACLE_POINTS
        for m in POINT_LINE.finditer(out.getvalue()):
            tag, value = ComponentTag(m["tag"]), float(m["value"])
            if self.integrable[name][tag]:
                failed -= ORACLE_PAIRS * (value < harness.DEFAULT_TOL)
            else:
                seen = self.obstructed.setdefault(f"{name} {tag.value}", [0.0, 0])
                seen[0] = max(seen[0], value)
                seen[1] += ORACLE_PAIRS
                failed -= ORACLE_PAIRS
        keys = [(name, i) for i in range(len(lat))]
        return Batch(keys, lat, ends, ORACLE_PAIRS * ORACLE_POINTS, failed)


def build(workload):
    """The set-up a user pays before the first op: import (done), metric
    resolution, and for check-sweep loading the DSL configs."""
    if workload == "check-sweep":
        return CheckSweep(
            [(name, metric_by_name(name), "metrics.g") for name in CATALOG]
            + [(name, dsl.load_metric_file(str(DSL_DIR / f"{name}.cfg")), "dsl.g") for name in DSL_METRICS]
        )
    return OracleSpot(ORACLE_METRICS)


@dataclasses.dataclass
class Phase:
    keys: list
    latencies: list  # seconds, one per op that ran
    cycles: list  # seconds from the end of the previous op (or the start) to the end of this one
    attempted: int
    failed: int
    seconds: float

    def weights(self) -> np.ndarray:
        """1 / (ops run of the op's key), so every key of a round weighs the same."""
        index = {key: i for i, key in enumerate(dict.fromkeys(self.keys))}
        idx = np.array([index[key] for key in self.keys])
        return 1.0 / np.bincount(idx)[idx]

    @property
    def ops_per_s(self) -> float:
        """Keys per second summed over each key's mean cycle time: the op rate
        of a whole round, with the work between ops (the oracle verb's own)
        booked to the op that follows it."""
        w = self.weights()
        return float(w.sum() / (w * self.cycles).sum())

    def latency_quantile(self, q: float) -> float:
        """Smallest latency with at least share q of the key-weighted ops at or below it."""
        order = np.argsort(self.latencies)
        cum = np.cumsum(self.weights()[order])
        return float(np.asarray(self.latencies)[order][np.searchsorted(cum, q * cum[-1])])


def measure(work, seed, seconds, min_ops, tracer=None, whole_rounds=False) -> Phase:
    """Batches back to back until `seconds` have passed and `min_ops` ops ran.

    With whole_rounds the last round is finished; otherwise a check batch
    stops at the first op boundary past the deadline."""
    phase = Phase([], [], [], 0, 0, 0.0)
    t0 = last_end = perf_counter()
    k = 0
    while True:
        deadline = None if whole_rounds or len(phase.latencies) < min_ops else t0 + seconds
        b = work.batch(seed, k, tracer, deadline)
        k += 1
        phase.keys += b.keys
        phase.latencies += b.latencies
        phase.cycles += np.diff([last_end] + b.ends).tolist()
        last_end = b.ends[-1] if b.ends else last_end
        phase.attempted += b.attempted
        phase.failed += b.failed
        phase.seconds = perf_counter() - t0
        if phase.seconds >= seconds and len(phase.latencies) >= min_ops:
            if not whole_rounds or k % work.batches_per_round == 0:
                return phase


def setup_seconds(workload, seed) -> list:
    """Wall time of fresh processes that start, set up and exit."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(perf_counter() - t0)
    return times


def end_to_end(phase: Phase, setups) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "op_ms_p50": (1e3 * phase.latency_quantile(0.5), "ms"),
        "op_ms_p90": (1e3 * phase.latency_quantile(0.9), "ms"),
        "success_rate": (1.0 - phase.failed / phase.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(st: SpanStats, tracer: Tracer, base: Phase, traced: Phase) -> dict:
    ops = st.n_ops
    points = len(tracer.keys.get("riemann.generalized_curvature", ()))
    flags_calls = st.calls("riemann.curvature_operator")
    flags_s = st.total("riemann.curvature_operator", "riemann.decompose")
    return {
        "twistor.residual_ms.J": (1e3 * st.mean("twistor.constraints_genJ"), "ms"),
        "twistor.residual_ms.J1": (1e3 * st.mean("twistor.constraints_J1"), "ms"),
        "twistor.residual_ms.semi": (1e3 * st.mean("twistor.semi_integrability_residual"), "ms"),
        "twistor.residual_calls_per_op": (st.calls(*RESIDUAL_SPANS) / ops, "count"),
        "twistor.kernel_calls_per_op": (st.calls("twistor._constraint_block") / ops, "count"),
        "twistor.self_share": (st.layer_self("twistor") / traced.seconds, "ratio"),
        "riemann.geometry_ms": (1e3 * st.mean("riemann.generalized_curvature"), "ms"),
        "riemann.flags_ms": (1e3 * flags_s / flags_calls if flags_calls else 0.0, "ms"),
        "riemann.geometry_calls_per_point": (
            st.calls("riemann.generalized_curvature") / points if points else 0.0,
            "count",
        ),
        "riemann.self_share": (st.layer_self("riemann") / traced.seconds, "ratio"),
        "riemann.christoffel_ms": (1e3 * st.mean("riemann.christoffel"), "ms"),
        "riemann.christoffel_calls_per_op": (st.calls("riemann.christoffel") / ops, "count"),
        "metrics.evals_per_op": (st.calls(*EVAL_SPANS) / ops, "count"),
        "metrics.eval_us": (1e6 * st.mean("metrics.g"), "us"),
        "dsl.eval_us": (1e6 * st.mean("dsl.g"), "us"),
        "dsl.load_ms": (1e3 * st.mean("dsl.load_metric"), "ms"),
        "calculus.partial_calls_per_op": (st.calls("calculus.partial") / ops, "count"),
        "calculus.nijenhuis_field_ms": (1e3 * st.mean("calculus.nijenhuis_field"), "ms"),
        "calculus.self_share": (st.layer_self("calculus") / traced.seconds, "ratio"),
        "harness.check_self_ms": (1e3 * st.total("harness.check", field="self") / ops, "ms"),
        "oracle.self_ms": (1e3 * st.total("oracle.nijenhuis_numeric", field="self") / ops, "ms"),
        "cli.self_ms": (1e3 * st.total("cli.main", field="self") / ops, "ms"),
        "trace.overhead_ops_per_s": (traced.ops_per_s - base.ops_per_s, "1/s"),
    }


def counter_checks(st: SpanStats, labels) -> list:
    """Per-op counters against the ROADMAP baseline; lines to print."""
    checks = []
    idx = lambda pred: [i for i, label in enumerate(labels) if pred(label)]
    cells = idx(lambda l: l[0] == "check")
    if cells:
        evals = st.per_op(*EVAL_SPANS)[cells] / BASE_SAMPLES
        checks.append(("metric evals per base point in check", evals, EVALS_PER_POINT))
        checks.append(("residual calls per cell", st.per_op(*RESIDUAL_SPANS)[cells], BASE_SAMPLES * FIBER_SAMPLES))
    s4_pp_j = idx(lambda l: l[1:] == ("s4", "++", "J"))
    if s4_pp_j:
        checks.append(("kernel calls per check s4 ++ J", st.per_op("twistor._constraint_block")[s4_pp_j], KERNEL_CALLS_S4_PP_J))
    pairs = idx(lambda l: l[0] == "oracle")
    if pairs:
        checks.append(("metric evals per oracle selector pair", st.per_op(*EVAL_SPANS)[pairs], EVALS_PER_SELECTOR_PAIR))
    lines = []
    for what, values, baseline in checks:
        seen = sorted(set(np.asarray(values).tolist()))
        status = "ok" if seen == [baseline] else "MISMATCH"
        lines.append(f"counter {what}: {', '.join(f'{v:g}' for v in seen)} (baseline {baseline}) {status}")
    return lines


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
    }


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    work = build(args.workload)
    if args.setup_only:
        return 0
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("env " + json.dumps(environment()))
    problems = work.prepare()

    if args.trace:
        base = measure(work, args.seed, args.seconds / 2, 0, whole_rounds=True)
        tracer = Tracer()
        with tracer.installed(HOOKS):
            build(args.workload)  # traced set-up, for dsl.load_ms
            traced = measure(work, args.seed, args.seconds / 2, 0, tracer, whole_rounds=True)
        traced.failed += work.unconfirmed_ops()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"trace-{args.workload}-{args.seed}.npz")
        st = SpanStats(tracer)
        metrics = per_layer(st, tracer, base, traced)
        for line in counter_checks(st, tracer.op_labels):
            print(line)
        print(f"traced {len(traced.latencies)} ops in {traced.seconds:.1f} s, "
              f"untraced {len(base.latencies)} ops in {base.seconds:.1f} s, {len(tracer.start)} spans")
        phases = (base, traced)
    else:
        setups = setup_seconds(args.workload, args.seed)
        phase = measure(work, args.seed, args.seconds, MIN_OPS)
        phase.failed += work.unconfirmed_ops()
        metrics = end_to_end(phase, setups)
        print(f"{len(phase.latencies)} ops in {phase.seconds:.1f} s; "
              f"set-up runs {', '.join(f'{t:.3f}' for t in setups)} s; failure_rate {phase.failed / phase.attempted:g}")
        phases = (phase,)

    if isinstance(work, OracleSpot):
        print(f"oracle-spot: {work.skipped_seeds} drawn seeds skipped because the oracle refuses their points")
        if work.obstructed:
            weakest, (value, _) = min(work.obstructed.items(), key=lambda item: item[1][0])
            print(f"oracle-spot: weakest obstructed component {weakest}: largest max |Nij| {value:.3e}")
    for p in problems:
        print(f"problem: {p}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
