"""The relaysec benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory. Each workload process is a fresh interpreter with
``workers=1``. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` a further traced
process adds the per-layer metrics instead. Output checks decide
``correct``; failed operations are counted, listed on standard error, and
do not stop the run. Exit status is 0 when the run completed, even if a
check failed, and 1 or 2 when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import import_split, layer_metric_units  # noqa: E402
from workloads import REFERENCE, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5      # set-up time is the median of at least this many fresh interpreters
MIN_WORKLOAD_RUNS = 2  # wall time is the median of at least this many workload processes
RUN_LIMIT_S = 170      # every process of one run must end within this
SPANS_DIR = ROOT / ".perfbench"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "eval_p95_ms": "ms",
}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one process on one core: the workers=1 configuration
    return env


def spawn(mode: str, workload: str, seed: int, deadline: float) -> tuple[dict, str]:
    """Run one child interpreter; return its report and its standard error.

    The child is killed, and the run fails, if it is still running at
    ``deadline`` (a time.monotonic() reading).
    """
    command = [sys.executable]
    if mode == "trace":
        command += ["-X", "importtime"]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    command += [str(HERE / "child.py"), mode, workload, str(seed), repr(spawned), str(SPANS_DIR)]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process for {workload} did not end within {RUN_LIMIT_S} s of the run") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{mode} process for {workload} exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1]), proc.stderr


def measure(workload: str, seed: int, seconds: float, deadline: float) -> list[dict]:
    """Untraced workload processes for about ``seconds``, then set-up-only ones.

    After MIN_WORKLOAD_RUNS processes, another starts only if it is expected
    to end within ``seconds``. For the figures, the first runs at the pinned
    seed, whose Monte Carlo rows have a stored digest.
    """
    start = time.monotonic()
    reports = []
    while True:
        began = time.monotonic()
        pinned = not reports and workload != "closed-forms"
        reports.append(spawn("run", workload, REFERENCE["pinned_seed"] if pinned else seed, deadline)[0])
        took = time.monotonic() - began
        if len(reports) >= MIN_WORKLOAD_RUNS and time.monotonic() + took > start + seconds:
            break
    while len(reports) < SETUP_SAMPLES:
        reports.append(spawn("setup", workload, seed, deadline)[0])
    return reports


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(reports: list[dict]) -> dict[str, float]:
    runs = [r for r in reports if "wall_s" in r]
    latencies = [ms for r in runs for ms in r["latencies_ms"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "eval_p95_ms": quantile(latencies, 95),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "relaysec" / "cli.py").is_file():
        print(f"no relaysec sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        reports = measure(args.workload, args.seed, args.seconds, deadline)
        if args.trace:
            traced, stderr = spawn("trace", args.workload, args.seed, deadline)
            reports.append(traced)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    runs = [r for r in reports if "wall_s" in r]
    problems = [p for r in runs for p in r["problems"]]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for failure in reports[0].get("failures", []):
        print(f"failed evaluation: {failure['why']} at {json.dumps(failure['point'])}", file=sys.stderr)

    if args.trace:
        untraced = statistics.median(r["wall_s"] for r in runs[:-1])
        values = dict(traced["layers"])
        values.update(import_split(stderr))
        values["trace.overhead_s"] = traced["wall_s"] - untraced
        values["error_share"] = traced["failed"] / traced["attempted"]
        values["eval_p50_ms"] = quantile([ms for r in runs[:-1] for ms in r["latencies_ms"]], 50)
        units = layer_metric_units()
        print(f"spans written to {traced['spans_file']}", file=sys.stderr)
    else:
        values, units = end_to_end(reports), END_TO_END
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
