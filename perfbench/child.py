"""One benchmark process: import relaysec, run one workload, report as JSON.

Usage: child.py MODE WORKLOAD SEED SPAWN_TIME SPANS_DIR

MODE is ``setup`` (import only), ``run`` (untraced workload) or ``trace``
(workload with the layer wrappers installed). SPAWN_TIME is the parent's
CLOCK_MONOTONIC reading just before it started this interpreter, so the
set-up time covers interpreter start and ``import relaysec.cli``. The
report is the single line this process writes to its standard output.
"""

import sys
import time

import relaysec.cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import io  # noqa: E402  (imports after the timed one are not part of set-up)
import json  # noqa: E402
import resource  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402


class LineClock(io.TextIOBase):
    """A text stream that keeps each complete line with the time it was written."""

    def __init__(self):
        self.lines: list[tuple[float, str]] = []
        self._partial = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        now = time.perf_counter()
        *complete, self._partial = (self._partial + text).split("\n")
        self.lines.extend((now, line) for line in complete)
        return len(text)


def _root_span(tracer):
    return nullcontext() if tracer is None else tracer.root()


def run_figure(workload: str, seed: int, tracer) -> dict:
    spec = wl.FIGURES[workload]
    argv = [*spec["argv"], "--seed", str(seed), "--workers", "1"]
    clock = LineClock()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = clock, io.StringIO()  # CSV timed by line; progress dropped
    try:
        start = time.perf_counter()
        with _root_span(tracer):
            code = relaysec.cli.main(argv)
        wall = time.perf_counter() - start
    finally:
        sys.stdout, sys.stderr = saved
    text = "\n".join(line for _, line in clock.lines) + "\n"
    problems = [f"relaysec exited with {code}"] if code else []
    problems += wl.check_figure_csv(workload, text, pinned=seed == wl.REFERENCE["pinned_seed"])
    lines = [line for _, line in clock.lines[1:]]
    rows = [(t, fields) for t, line in clock.lines[1:] if len(fields := line.split(",")) > 9]
    # Latency of a figure point: from the previous point's last row to its own.
    done: dict[str, float] = {}
    for t, fields in rows:
        done[fields[spec["axis_column"]]] = t
    ends = [start, *done.values()]
    result = {
        "wall_s": wall,
        "latencies_ms": [(b - a) * 1e3 for a, b in zip(ends, ends[1:])],
        "attempted": len(lines),
        "failed": len(wl.bad_rows(lines)),
        "problems": problems,
    }
    if tracer is not None:
        from tracing import check_figure_spans

        metrics = tracer.layer_metrics()
        counts = wl.row_counts(text)
        antenna_counts = len({f[2] for _, f in rows if f[8] == "montecarlo"})
        trials = int(spec["argv"][spec["argv"].index("--trials") + 1])
        result["problems"] += check_figure_spans(tracer, metrics, counts, spec["points"], antenna_counts, trials)
        result["layers"] = metrics
    return result


def run_closed_forms(seed: int, tracer) -> dict:
    from relaysec import analytic
    from relaysec.model import LinkGains, Scheme, SchemeId, SelectionMode, SystemParams, db_to_linear

    points = wl.closed_form_points(seed)
    cases = [
        (
            LinkGains(db_to_linear(p["gab_db"]), db_to_linear(p["gar_db"]), db_to_linear(p["grb_db"])),
            SystemParams(
                rho=db_to_linear(p["rho_db"]), k_antennas=p["k"], rate=p["rate"],
                scheme=SchemeId(Scheme(p["scheme"]), SelectionMode(p["mode"])),
            ),
        )
        for p in points
    ]
    latencies, values, failures = [], [], []

    def evaluate_all():
        for point, case in zip(points, cases):
            t0 = time.perf_counter()
            try:
                value = analytic.analytic_sop(*case)
                why = wl.classify(value)
            except Exception as exc:  # a failed evaluation is counted, the run goes on
                value, why = None, f"{type(exc).__name__}: {exc}"
            latencies.append((time.perf_counter() - t0) * 1e3)
            values.append(value)
            if why is not None:
                failures.append({"point": point, "why": why})

    start = time.perf_counter()
    with _root_span(tracer):
        evaluate_all()
    wall = time.perf_counter() - start

    problems = []
    for point, value in zip(points, values):
        expected = wl.dt_oracle(point)
        if expected is not None and wl.classify(value) is None and abs(value - expected) > wl.ORACLE_TOL:
            problems.append(f"{point['form']} = {value!r}, independent form gives {expected!r} at {point}")
    result = {
        "wall_s": wall,
        "latencies_ms": latencies,
        "attempted": len(points),
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
    }
    if tracer is not None:
        from tracing import check_closed_form_spans

        metrics = tracer.layer_metrics()
        result["problems"] += check_closed_form_spans(tracer, metrics, [p["form"] for p in points])
        result["layers"] = metrics
    return result


def main(argv: list[str]) -> int:
    mode, workload, seed, spawned, spans_dir = argv
    seed, setup = int(seed), READY - float(spawned)
    result = {"setup_s": setup}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        if workload == "closed-forms":
            result.update(run_closed_forms(seed, tracer))
        else:
            result.update(run_figure(workload, seed, tracer))
        if tracer is not None:
            tracer.assert_no_unwrapped_alias()
            spans_path = Path(spans_dir) / f"spans-{workload}-seed{seed}.jsonl"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(spans_path)
            result["spans_file"] = str(spans_path)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
