"""One benchmark workload in one process: set up, run, check, report.

Started by ``run.py`` (never by hand) with the chart's ``src`` directory on
``PYTHONPATH`` and the BLAS thread count pinned through the environment.
Prints one JSON document as its last line of standard output.

``--setup-only`` stops right before the first timed call, so the parent can
repeat the set-up in fresh processes and report its median.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"

sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import spans as tracing  # noqa: E402

DEFAULT_SEED = 42  # the built-in configuration's seed
THEOREM_TOL = 1e-7
FUZZ_SIZE = 1e-3

# full sizes; deep-3d keeps two Bianchi points per metric, so one pass runs
# about as long as the built-in check
DEEP_PLAN = {"curvature_points": 3, "bianchi_points": 2}
REPORT_POINTS = 1100
TINY_PLAN = {
    "param_sets": 1, "theorem_points": 1, "construction_points": 1,
    "torsion_points": 1, "curvature_points": 1, "bianchi_points": 1,
    "process_points": 1, "case_points": 1, "fd_points": 1,
}
TINY_REPORT_POINTS = 20


def _import_package():
    import finslerconn

    where = Path(finslerconn.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"finslerconn imported from {where}, not from {SRC}")
    return finslerconn


# ---------------------------------------------------------------------------
# workloads: each has a set-up (untimed) and a pass (timed), and returns the
# verdict-level operations its checks judge


class CheckDefault:
    """``run_all`` on the built-in configuration, as ``finslerconn check`` runs it."""

    def __init__(self, seed: int, tiny: bool, fault: bool, clock):
        from finslerconn import cli

        config = cli.parse_config(cli.default_config_text())
        plan = dataclasses.replace(config.plan, seed=seed, **(TINY_PLAN if tiny else {}))
        self.config, self.plan, self.fault = config, plan, fault
        self.structures = [cli.build_structure(e, config.dimension) for e in config.metrics]

    def run(self, serialize):
        from finslerconn import verify

        report = verify.run_all(
            metrics=self.structures,
            plan=self.plan,
            tolerances=self.config.tolerances or None,
            fuzz=self.fault,
        )
        self.digest = serialize(report)
        return report.rows

    def check(self, rows) -> list[dict]:
        return [row.to_dict() for row in rows]


class Deep3d:
    """The curvature and Bianchi suites on the two 3-d samples, first random pack."""

    def __init__(self, seed: int, tiny: bool, fault: bool, clock):
        from finslerconn import samples, verify

        plan = verify.SamplePlan(seed=seed, **{"param_sets": 1, **(TINY_PLAN if tiny else DEEP_PLAN)})
        self.plan, self.fault = plan, fault
        self.cases = []
        for F in (samples.curved_three_dim(), samples.quartic_three_dim()):
            self.cases.append((F, verify.random_param_sets(F, plan)[0]))
        self.digest = None

    def run(self, serialize):
        from finslerconn import verify

        rows = []
        for F, pack in self.cases:
            for suite in (verify.check_curvatures, verify.check_bianchi):
                rows += suite(pack, F, self.plan, fuzz=self.fault).rows
        return rows

    check = CheckDefault.check


class _BumpedCovector:
    """A covector field with its first component shifted by a constant."""

    def __init__(self, field, n: int, size: float):
        self.field, self.bump = field, np.eye(n)[0] * size

    def eval(self, jets):
        return self.field.eval(jets) + jets.const(self.bump)

    def describe(self) -> str:
        return f"{self.field.describe()} + {self.bump.tolist()}"


class ReportStream:
    """Distinct seeded chart points, one ``tensor_report`` call each."""

    def __init__(self, seed: int, tiny: bool, fault: bool, clock):
        from finslerconn import cli, verify

        self.clock = clock
        config = cli.parse_config(cli.default_config_text())
        plan = dataclasses.replace(config.plan, seed=seed)
        self.F = cli.build_structure(config.metric_entry("drift"), config.dimension)
        self.pack = cli.build_params(config.params_entry("mild"), self.F, plan)
        count = TINY_REPORT_POINTS if tiny else REPORT_POINTS
        self.points = verify.sample_points(self.F, plan, count, "perfbench-report-stream")
        # the closed form is taken from the clean pack; a fault bumps the one
        # tensor_report sees, after that
        self.reported = self.pack
        if fault:
            self.reported = dataclasses.replace(
                self.pack, u=_BumpedCovector(self.pack.u, self.F.n, FUZZ_SIZE)
            )
        self.digest = None
        self.latencies: list[float] = []

    def run(self, serialize):
        from finslerconn import cli

        texts = []
        clock = self.clock
        for point in self.points:
            t0 = clock()
            try:
                doc = cli.tensor_report(self.F, self.reported, [point])
            except Exception as err:  # a raising call is a failed point, not a crash
                doc = err
            self.latencies.append(clock() - t0)
            texts.append(doc if isinstance(doc, Exception) else serialize(doc))
        return texts

    def check(self, texts) -> list[dict]:
        return [self._judge(point, text) for point, text in zip(self.points, texts)]

    def _judge(self, point, text) -> dict:
        """Fail closed: a raise, a non-finite value or a wrong hh block fails."""
        from finslerconn.ad import ChartJets

        if isinstance(text, Exception):
            return {"point": point.x.tolist() + point.y.tolist(), "residual": math.inf, "error": repr(text)}

        def non_finite(name):
            raise ValueError(f"non-finite value {name}")

        try:
            doc = json.loads(text, parse_constant=non_finite)
        except ValueError as err:
            return {"point": point.x.tolist() + point.y.tolist(), "residual": math.inf, "error": str(err)}
        jets = ChartJets.at(point.x, point.y, 0)
        u = self.pack.u.eval(jets).val
        phi = self.pack.phi.eval(jets).val
        quarter = np.einsum("k,ij->ijk", u, phi) - np.einsum("j,ik->ijk", u, phi)
        hh = np.asarray(doc["points"][0]["torsions"]["hh"], dtype=float)
        scale = 1.0 + max(float(np.max(np.abs(hh))), float(np.max(np.abs(quarter))))
        return {"point": point.x.tolist() + point.y.tolist(), "residual": float(np.max(np.abs(hh - quarter))) / scale}


class ReferenceKernel:
    """A fixed computation outside finslerconn, run between the program's products.

    On a shared machine the CPU's speed drifts by 10-20 % over minutes, and
    a run of half a minute cannot average that out.  This kernel -- small
    matrix products and dict churn, like the jet arithmetic's mix -- runs at
    most every ``PERIOD_S`` seconds, from inside ``TaylorRing.mul_coef``.
    Its median duration is the run's unit of machine speed (``ref``), and
    :meth:`clock` leaves its own time out of every measured interval.
    """

    PERIOD_S = 0.05

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((8, 70))
        self.b = rng.standard_normal((70, 70))
        self.times: list[float] = []
        self.total = 0.0
        self.next_at = 0.0

    def clock(self) -> float:
        """``perf_counter`` less the time spent in this kernel so far."""
        return time.perf_counter() - self.total

    def run_once(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(300):
            acc += float((self.a[i % 8] @ self.b).sum())
            acc += sum({j: j * j for j in range(20)}.values())
        now = time.perf_counter()
        self.times.append(now - t0)
        self.total += now - t0
        self.next_at = now + self.PERIOD_S
        return acc

    def install(self) -> None:
        """Pace the kernel by the program's own ring products."""
        from finslerconn.ad import TaylorRing

        mul_coef, kernel = TaylorRing.mul_coef, self

        def paced(rg, a, b):
            if time.perf_counter() >= kernel.next_at:
                kernel.run_once()
            return mul_coef(rg, a, b)

        TaylorRing.mul_coef = paced


WORKLOADS = {"check-default": CheckDefault, "deep-3d": Deep3d, "report-stream": ReportStream}


# ---------------------------------------------------------------------------
# serialization, as the CLI does it


def serialize(obj) -> str:
    """Dump a result to JSON text as the CLI writes it.

    A check report is dumped with its digest, as ``finslerconn check``
    writes it, and the digest is returned; a tensor report document is
    dumped as ``finslerconn report`` prints it, and the text is returned.
    """
    if hasattr(obj, "digest"):
        digest = obj.digest()
        json.dumps({"digest": digest, "payload": obj.payload()}, sort_keys=True, indent=2)
        return digest
    return json.dumps(obj, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# output checks (outside the timed region)


def judge(ops: list[dict]) -> list[dict]:
    """The operations that fail: a non-finite or too large residual.

    Rows are re-checked here rather than trusting their ``passed`` flag,
    and a row the program itself failed also fails.
    """
    failed = []
    for op in ops:
        tol = op.get("tolerance", THEOREM_TOL)
        residual = op["residual"]
        ok = math.isfinite(residual) and residual < tol and op.get("passed", True)
        if not ok:
            failed.append(op)
    return failed


def reference_diff(workload: str, seed: int, rows: list[dict]) -> dict:
    """Compare rows with the stored reference of the default seed.

    The row set (suite, label) does not depend on the seed, so a missing or
    extra row is reported at any seed; residuals are compared only at the
    reference's own seed, where ``changed`` lists every row that moved.
    """
    ref = json.loads((REFERENCE / f"{workload}-seed{DEFAULT_SEED}.json").read_text())
    old = {(r["suite"], r["label"]): r["residual"] for r in ref["rows"]}
    new = {(r["suite"], r["label"]): r["residual"] for r in rows}
    out = {
        "missing": sorted(old.keys() - new.keys()),
        "extra": sorted(new.keys() - old.keys()),
        "changed": None,
        "digest": None,
    }
    if seed == DEFAULT_SEED:
        out["digest"] = ref.get("digest")
        out["changed"] = [
            {"suite": s, "label": l, "old": old[s, l], "new": new[s, l]}
            for (s, l) in sorted(old.keys() & new.keys())
            if old[s, l] != new[s, l]
        ]
    return out


# ---------------------------------------------------------------------------
# machine record


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, if it can be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def machine() -> dict:
    import scipy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        model = platform.processor()
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
    }


# ---------------------------------------------------------------------------
# per-point latency and the command


def _time_points(record: list[float], clock) -> None:
    """Per-point latency for the suite workloads, without layer tracing."""
    modules = tracing.load_modules()
    for mod, name in tracing.POINT_FUNCTIONS:
        original = getattr(modules[mod], name)

        def timed(*args, __fn=original, **kwargs):
            t0 = clock()
            try:
                return __fn(*args, **kwargs)
            finally:
                record.append(clock() - t0)

        tracing.replace_everywhere(original, timed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--inject-fault", action="store_true")
    args = ap.parse_args(argv)

    _import_package()
    tracer = None
    kernel = ReferenceKernel()
    point_latencies: list[float] = []
    ser = serialize
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        ser = tracer.wrap("cli.serialize", serialize)
    elif args.workload != "report-stream":
        _time_points(point_latencies, kernel.clock)

    def make():
        return WORKLOADS[args.workload](args.seed, args.tiny, args.inject_fault, kernel.clock)

    state = make()
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if not tracer:
        kernel.install()

    # passes of identical work, each on fresh (cold) structures, until the
    # next one would overrun the measuring time
    pass_times, latencies, covered = [], [], 0.0
    started = time.perf_counter()
    while True:
        covered_before = tracer.top_level if tracer else 0.0
        t0 = kernel.clock()
        outputs = state.run(ser)
        pass_times.append(kernel.clock() - t0)
        if tracer:
            covered += tracer.top_level - covered_before
        latencies += getattr(state, "latencies", point_latencies)
        point_latencies.clear()
        elapsed = time.perf_counter() - started
        if elapsed + float(np.median(pass_times)) > args.seconds:
            break
        state = make()
    run_s = float(np.median(pass_times))
    ops = state.check(outputs)

    failed = judge(ops)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "run_s": run_s,
        "passes": len(pass_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latencies_ms": [x * 1e3 for x in latencies],
        "ref_ms": float(np.median(kernel.times)) * 1e3 if kernel.times else None,
        "ref_runs": len(kernel.times),
        "attempted": len(ops),
        "failed": len(failed),
        "failures": failed[:20],
        "digest": state.digest,
        "machine": machine(),
    }
    if args.workload != "report-stream":
        result["rows"] = ops
        if not args.tiny:
            result["reference"] = reference_diff(args.workload, args.seed, ops)
    if tracer:
        suite_rows = ops if args.workload != "report-stream" else []
        result["layers"] = tracing.layer_metrics(tracer, sum(pass_times), covered, suite_rows)
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
