"""finslerconn benchmark: one named workload at one seed, in fresh processes.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload check-default --seed 42 --seconds 30 --trace 0

Workloads (see README.md in this directory for why each exists):

* ``check-default`` -- ``run_all`` on the built-in configuration, which is
  what ``finslerconn check`` does;
* ``deep-3d``       -- the curvature and Bianchi suites on the two 3-d
  samples (6-variable rings at orders 5 and 6);
* ``report-stream`` -- 1,100 distinct points on the ``drift`` metric, one
  ``cli.tensor_report`` call each.

The workload runs in its own process (``workload.py``) so that its peak
resident memory is its own; the set-up is repeated in further fresh
processes and its median reported.  The BLAS thread count is pinned to 1.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run instead.  Every output is checked: the command exits 1
when any check fails (the last line then says ``"correct": false``), and 2
without a result when the package source is missing.  The full record --
machine, every metric, failures, reference comparison, spans -- is written
to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("check-default", "deep-3d", "report-stream")
SETUP_REPEATS = 4  # set-up-only processes, besides the measured run's own set-up
DEADLINE_S = 170  # every process this command starts has ended by then
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# the end-to-end metrics of BENCHMARK.json; the time metrics among them are
# in ``ref`` units, multiples of the reference kernel's median duration in
# the same run (see workload.ReferenceKernel), so the machine's drift cancels
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_ref": "ref",
    "peak_rss_mb": "MB",
    "point_p50_ref": "ref",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("batch_mean"):
        return "entries"
    if name.endswith("margin_min"):
        return "log10"
    return "count"


def child(args, deadline: float, *extra: str) -> dict:
    """Run ``workload.py`` in a fresh process and return its JSON result.

    The process is killed, and waited for, if it is still running at
    ``deadline`` (a ``time.monotonic`` reading).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", **BLAS_ENV)
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(time.time()), *extra,
    ]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_fault:
        cmd.append("--inject-fault")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 0.1),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrunken inputs, for the self-test")
    ap.add_argument(
        "--inject-fault", action="store_true",
        help="perturb the program's output so the checks must fail (self-test)",
    )
    args = ap.parse_args(argv)

    if not (SRC / "finslerconn" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [child(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_REPEATS)]
        res = child(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as err:
        print(f"perfbench: {args.workload} did not complete: {err}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    lat = res["latencies_ms"]
    ref_ms = res["ref_ms"]
    measured = {
        "setup_s": (float(np.median(setups)), "s"),
        "run_s": (res["run_s"], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "point_p50_ms": (percentile_ms(lat, 50), "ms"),
        "point_p99_ms": (percentile_ms(lat, 99), "ms"),
        "fail_frac": (res["failed"] / res["attempted"], "ratio"),
    }
    if ref_ms:
        measured["ref_kernel_ms"] = (ref_ms, "ms")
        measured["run_ref"] = (res["run_s"] * 1e3 / ref_ms, "ref")
        measured["point_p50_ref"] = (measured["point_p50_ms"][0] / ref_ms, "ref")
        measured["point_p99_ref"] = (measured["point_p99_ms"][0] / ref_ms, "ref")
    ref = res.get("reference")
    correct = res["failed"] == 0 and not (ref and (ref["missing"] or ref["extra"]))

    m = res["machine"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{res['passes']} pass(es) in {args.seconds:g} s")
    print(f"machine: nproc {m['nproc']}, {m['cpu']}, python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, BLAS threads {m['blas_threads']} "
          f"(OPENBLAS_NUM_THREADS={m['blas_threads_env']})")
    if not args.trace:
        for name, (value, unit) in measured.items():
            print(f"  {name:14s} {value:12.4f} {unit}")
        beyond = sum(1 for x in lat if x > measured["point_p99_ms"][0])
        print(f"  {res['failed']} of {res['attempted']} operations failed; "
              f"latency samples {len(lat)}, {beyond} beyond p99; "
              f"reference kernel runs {res['ref_runs']}; "
              f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s")
    for op in res["failures"]:
        print(f"  FAIL {op}")
    if ref:
        for key in ("missing", "extra"):
            if ref[key]:
                print(f"  rows {key} against the reference: {ref[key]}")
        if ref["changed"] is not None:
            print(f"  rows_changed {len(ref['changed'])} against the stored reference"
                  + (f"; digest {'unchanged' if res['digest'] == ref['digest'] else 'CHANGED'}"
                     if ref["digest"] else ""))
            for row in ref["changed"]:
                print(f"    {row['suite']} {row['label']}: {row['old']!r} -> {row['new']!r}")

    if args.trace:
        layers = dict(res["layers"])
        changed = ref["changed"] if ref else None
        layers["verify.rows_changed"] = len(changed) if changed is not None else -1
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        for name, value in layers.items():
            print(f"  {name:40s} {value:14.6g} {layer_unit(name)}")
    else:
        metrics = {k: {"value": measured[k][0], "unit": u} for k, u in END_TO_END_UNITS.items()}

    OUT.mkdir(exist_ok=True)
    record = dict(
        res, setups=setups, measured=measured, metrics=metrics, correct=correct, args=vars(args)
    )
    tag = "-tiny" if args.tiny else ""
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{tag}.json").write_text(
        json.dumps(record)
    )
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
