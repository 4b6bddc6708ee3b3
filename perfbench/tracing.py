"""Span recorder for the traced benchmark run.

The benchmark wraps the public functions of each relaysec layer from its own
files; nothing in the package changes. A wrapper replaces the function in
every loaded relaysec module that holds it, because several modules import
these names directly and call them through their own namespace. Spans
(name, start, end, parent) stay in memory and are written when the run ends.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from workloads import CHUNK_SIZE, FORMS, classify

# (defining module, attribute, layer metric prefix). Every alias of the
# function in any loaded relaysec module is replaced, so calls through a
# name another module imported directly are recorded too.
TARGETS = (
    ("relaysec.model", "sample_channel_block", "model.sample_channel_block"),
    ("relaysec.montecarlo", "rate_margins_block", "montecarlo.rate_margins_block"),
    ("relaysec.montecarlo", "estimate_sop", "montecarlo.estimate"),
    ("relaysec.montecarlo", "estimate_sop_many", "montecarlo.estimate"),
    ("relaysec.powerallo", "minimize_sop", "powerallo.minimize_sop"),
    *(("relaysec.analytic", form, f"analytic.{form}") for form in FORMS),
    ("relaysec.specfun", "integrate_semi_infinite", "specfun.integrate_semi_infinite"),
)
ROOT = "cli"
INTEGRAND = "integrand"  # one call of a function passed to integrate_semi_infinite
IMPORT_PACKAGES = ("numpy", "scipy", "mpmath", "relaysec")


class TraceError(RuntimeError):
    """The wrappers could not be installed or the spans contradict the workload."""


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for quantity, unit in (("calls", "count"), ("self_s", "s"), ("trials", "count"),
                           ("ms_per_64k", "ms"), ("redundant_share", "ratio")):
        units[f"model.sample_channel_block.{quantity}"] = unit
    for quantity, unit in (("calls", "count"), ("self_s", "s"), ("trials", "count"), ("ms_per_64k", "ms")):
        units[f"montecarlo.rate_margins_block.{quantity}"] = unit
    units["montecarlo.estimate.calls"] = "count"
    units["montecarlo.estimate.self_s"] = "s"
    for quantity, unit in (("calls", "count"), ("self_s", "s"), ("candidates", "count")):
        units[f"powerallo.minimize_sop.{quantity}"] = unit
    for form in FORMS:
        for quantity, unit in (("calls", "count"), ("self_s", "s"), ("failures", "count")):
            units[f"analytic.{form}.{quantity}"] = unit
    for quantity, unit in (("calls", "count"), ("self_s", "s"), ("evals", "count")):
        units[f"specfun.integrate_semi_infinite.{quantity}"] = unit
    for package in IMPORT_PACKAGES:
        units[f"cli.import.{package}_s"] = "s"
    units["cli.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["error_share"] = "ratio"
    # Median latency of an evaluation, from the untraced processes of the
    # traced run: too unsteady across seeds to carry a bound (see README).
    units["eval_p50_ms"] = "ms"
    return units


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, info]
        self._stack: list[int] = []
        self._originals: list = []

    @contextmanager
    def span(self, name: str, info: dict | None = None):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, info or {}]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield record[4]
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def root(self):
        """The span around the whole workload, parent of the CLI-level calls."""
        return self.span(ROOT)

    def _wrap(self, name: str, fn):
        span, signature = self.span, inspect.signature(fn)
        if name == "model.sample_channel_block":
            def wrapper(*args, **kwargs):
                a = signature.bind(*args, **kwargs).arguments
                key = [a["seed"], a["chunk_index"], a["k"], a["n"]]
                with span(name, {"key": key, "trials": a["n"]}):
                    return fn(*args, **kwargs)
        elif name == "montecarlo.rate_margins_block":
            def wrapper(block, *args, **kwargs):
                with span(name, {"trials": int(block.h_ab.shape[0])}):
                    return fn(block, *args, **kwargs)
        elif name == "montecarlo.estimate":
            def wrapper(*args, **kwargs):
                mc = signature.bind(*args, **kwargs).arguments["mc"]
                with span(name, {"chunks": math.ceil(mc.trials / mc.chunk_size)}):
                    return fn(*args, **kwargs)
        elif name == "specfun.integrate_semi_infinite":
            def wrapper(f, *args, **kwargs):
                with span(name, {"evals": 0}) as info:
                    def counted(z):
                        info["evals"] += 1
                        with span(INTEGRAND):
                            return f(z)
                    return fn(counted, *args, **kwargs)
        elif name.startswith("analytic."):
            def wrapper(*args, **kwargs):
                with span(name, {"failed": True}) as info:
                    value = fn(*args, **kwargs)
                    info["failed"] = classify(value) is not None
                    return value
        else:
            def wrapper(*args, **kwargs):
                with span(name):
                    return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> set[str]:
        """Patch every relaysec alias of each target; return 'module.attr' patched."""
        patched = set()
        for module_name, attr, name in TARGETS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is None or hasattr(original, "__wrapped__"):
                raise TraceError(f"cannot wrap {module_name}.{attr}: not loaded or already wrapped")
            wrapper = self._wrap(name, original)
            self._originals.append(original)
            for loaded in _relaysec_modules():
                for alias, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, alias, wrapper)
                        patched.add(f"{loaded.__name__}.{alias}")
        return patched

    def assert_no_unwrapped_alias(self) -> None:
        """Fail if a module loaded after install holds an unwrapped target."""
        for loaded in _relaysec_modules():
            for alias, value in vars(loaded).items():
                if any(value is original for original in self._originals):
                    raise TraceError(f"{loaded.__name__}.{alias} bypasses the wrappers")

    def write(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, _ in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times from the recorded spans."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        metrics = {name: 0 for name, unit in layer_metric_units().items() if unit == "count"}
        metrics.update({name: 0.0 for name, unit in layer_metric_units().items() if unit != "count"})
        keys = set()
        for index, (name, start, end, parent, info) in enumerate(self.spans):
            self_s = end - start - child_time[index]
            if name == ROOT:
                metrics["cli.self_s"] += self_s
                continue
            if name == INTEGRAND:
                # The integrand is the closed form's work, not the quadrature's.
                form = self._ancestor(index, "analytic.")
                owner = self.spans[form][0] if form is not None else "specfun.integrate_semi_infinite"
                metrics[f"{owner}.self_s"] += self_s
                continue
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.self_s"] += self_s
            if "trials" in info:
                metrics[f"{name}.trials"] += info["trials"]
            if "key" in info:
                keys.add(tuple(info["key"]))
            if "evals" in info:
                metrics[f"{name}.evals"] += info["evals"]
            if name.startswith("analytic."):
                metrics[f"{name}.failures"] += int(info["failed"])
            if name == "montecarlo.estimate":
                search = self._ancestor(index, "powerallo.minimize_sop")
                if search is not None:
                    metrics["powerallo.minimize_sop.candidates"] += 1
        for layer in ("model.sample_channel_block", "montecarlo.rate_margins_block"):
            trials = metrics[f"{layer}.trials"]
            metrics[f"{layer}.ms_per_64k"] = (
                metrics[f"{layer}.self_s"] * 1e3 * CHUNK_SIZE / trials if trials else 0.0
            )
        calls = metrics["model.sample_channel_block.calls"]
        metrics["model.sample_channel_block.redundant_share"] = (calls - len(keys)) / calls if calls else 0.0
        return metrics

    def _ancestor(self, index: int, prefix: str) -> int | None:
        """The nearest enclosing span whose name starts with ``prefix``."""
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0].startswith(prefix):
                return parent
            parent = self.spans[parent][3]
        return None

    def top_level(self, prefix: str) -> list[list]:
        """Spans named ``prefix*`` whose parent is the root span."""
        return [s for s in self.spans if s[0].startswith(prefix) and s[3] >= 0 and self.spans[s[3]][0] == ROOT]


def _relaysec_modules():
    return [m for n, m in list(sys.modules.items()) if m is not None and (n == "relaysec" or n.startswith("relaysec."))]


def check_figure_spans(tracer: Tracer, metrics: dict, counts: dict, points: int, antenna_counts: int,
                       trials: int) -> list[str]:
    """Span counts a figure workload implies; a disagreement is a problem.

    The bounds hold for any schedule that computes the same rows, reuse of
    draws included: at least one draw per (K, chunk) and one rate-margin
    evaluation per Monte Carlo row.
    """
    problems = []
    chunks = math.ceil(trials / CHUNK_SIZE)
    analytic_calls = sum(metrics[f"analytic.{form}.calls"] for form in FORMS)
    expect = (
        ("analytic calls from the CLI", len(tracer.top_level("analytic.")), "==", counts.get("analytic", 0)),
        ("analytic calls in all", analytic_calls, "==", counts.get("analytic", 0)),
        ("powerallo.minimize_sop.calls", metrics["powerallo.minimize_sop.calls"], "==", counts.get("power-opt", 0)),
        ("montecarlo.estimate.calls", metrics["montecarlo.estimate.calls"], ">=", points),
        ("model.sample_channel_block.calls", metrics["model.sample_channel_block.calls"], ">=",
         antenna_counts * chunks),
        ("montecarlo.rate_margins_block.calls", metrics["montecarlo.rate_margins_block.calls"], ">=",
         counts.get("montecarlo", 0)),
    )
    for what, got, op, want in expect:
        if not (got == want if op == "==" else got >= want):
            problems.append(f"span self-check: {what} = {got}, the workload implies {op} {want}")
    draws = Counter(parent for name, _, _, parent, _ in tracer.spans if name == "model.sample_channel_block")
    for index, (name, _, _, _, info) in enumerate(tracer.spans):
        if name == "montecarlo.estimate" and draws[index] > info["chunks"]:
            problems.append(f"span self-check: an estimate over {info['chunks']} chunks drew {draws[index]}")
            break
    problems.extend(_check_quadrature(tracer))
    return problems


def check_closed_form_spans(tracer: Tracer, metrics: dict, forms: list[str]) -> list[str]:
    """Each evaluation is one call of the form its stratum dispatches to."""
    problems = []
    expected = Counter(forms)
    for form in FORMS:
        got = metrics[f"analytic.{form}.calls"]
        if got != expected[form]:
            problems.append(f"span self-check: analytic.{form}.calls = {got}, the workload implies {expected[form]}")
    if len(tracer.top_level("analytic.")) != len(forms):
        problems.append("span self-check: analytic spans do not match the evaluations one to one")
    for layer in ("model.sample_channel_block", "montecarlo.estimate", "powerallo.minimize_sop"):
        if metrics[f"{layer}.calls"]:
            problems.append(f"span self-check: {layer} ran {metrics[f'{layer}.calls']} times without Monte Carlo")
    problems.extend(_check_quadrature(tracer))
    return problems


def _check_quadrature(tracer: Tracer) -> list[str]:
    for name, _, _, parent, info in tracer.spans:
        if name != "specfun.integrate_semi_infinite":
            continue
        if parent < 0 or not tracer.spans[parent][0].startswith("analytic."):
            return ["span self-check: a quadrature ran outside a wrapped closed form"]
        if info["evals"] < 1:
            return ["span self-check: a quadrature recorded no integrand evaluations"]
    return []


def import_split(importtime_stderr: str) -> dict[str, float]:
    """Seconds of import per package from ``-X importtime`` output.

    A module outside the four packages counts for the package that first
    imported it (its nearest listed ancestor in the import tree); modules
    imported outside all four (interpreter start-up) are left out.
    """
    lines = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|", 2)
        stripped = name.rstrip().lstrip(" ")
        depth = (len(name.rstrip()) - len(stripped)) // 2
        lines.append((depth, stripped, int(self_us)))
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    stack: list[tuple[int, str | None]] = []
    # importtime prints a module after its children; walk it backwards so
    # each parent comes before its children.
    for depth, module, self_us in reversed(lines):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        package = module.split(".")[0]
        owner = package if package in totals else (stack[-1][1] if stack else None)
        stack.append((depth, owner))
        if owner is not None:
            totals[owner] += self_us * 1e-6
    return {f"cli.import.{package}_s": seconds for package, seconds in totals.items()}
