"""cardest benchmark: three workloads through the library's public API.

    python3 perfbench/run.py --workload eval-h2 --seed 5 --seconds 10 --trace 0

Run from the repository root; the library is imported from `src/`, and
without it the run exits with code 2 and prints no result.  The
load is a closed loop with one client: a single thread issues each library
call after the previous one returns.  Inputs (a correlated graph and the
workload text) come from `gen.py` and depend on `--seed` alone.

A run sets up SETUPS times (`setup_s` is the median), then repeats passes
over the workload for `--seconds` (`eval_s` is the median pass; per-call
latencies pool every pass of the run).  Outputs are checked after every pass,
outside the timed sections; any violation prints `VIOLATION` lines and exits
with code 1.  With `--trace 1` the run instead alternates plain and traced
cycles of one setup and one pass, and reports per-layer metrics plus the
tracing overhead.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
`failed` counts failures that no workload rule expects; `failed_frac` in the
report counts every failed operation.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stats import TooFewSamples, log10_qerror, median, percentile  # noqa: E402

SETUPS = 3

# name -> (unit, better); the report prints all of them where they apply
END_TO_END = {
    "setup_s": ("s", "lower"),
    "eval_s": ("s", "lower"),
    "opt_ms_p50": ("ms", "lower"),
    "opt_ms_p95": ("ms", "lower"),
    "bound_ms_p50": ("ms", "lower"),
    "bound_ms_p95": ("ms", "lower"),
    "ceg_bound_ms_p50": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "catalogue_bytes": ("bytes", "lower"),
    "failed_frac": ("ratio", "lower"),
    "qerr_bound_p50": ("log10", "lower"),
    "qerr_opt_p50": ("log10", "lower"),
}
# BENCHMARK.json's end_to_end, the metrics of the final JSON line: every workload
# defines them, they are never zero, and they stay steady from seed to seed.  The
# rest are printed only: the p95s and ceg_bound_ms_p50 need calls that not every
# workload makes often enough, failed_frac is zero on two workloads, and
# bound_ms_p50 and qerr_opt_p50 fall in gaps between clusters of queries, so
# they jump from seed to seed.
GATED = ("setup_s", "eval_s", "opt_ms_p50", "peak_rss_mb", "catalogue_bytes",
         "qerr_bound_p50")
# latency samples behind the percentile metrics: metric -> (sample list, quantile)
PERCENTILES = {
    "opt_ms_p50": ("opt_ms", 0.5), "opt_ms_p95": ("opt_ms", 0.95),
    "bound_ms_p50": ("bound_ms", 0.5), "bound_ms_p95": ("bound_ms", 0.95),
    "ceg_bound_ms_p50": ("ceg_bound_ms", 0.5),
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no library, unstable inputs)."""


def import_library():
    src = HERE.parent / "src"
    if not (src / "cardest" / "__init__.py").is_file():
        raise BenchmarkError(f"no library sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    lib = workloads.load_library()
    if Path(lib.catalogue.__file__).resolve().parent != (src / "cardest").resolve():
        raise BenchmarkError(f"imported cardest from {lib.catalogue.__file__}, not {src}")
    return lib


def make_inputs(name: str, seed: int) -> tuple[str, str]:
    edges = gen.correlated_graph(seed)
    return gen.graph_text(edges), gen.workload_text(name, edges, seed)


def stable_inputs(name: str, seed: int) -> tuple[str, str]:
    """Generate twice and refuse inputs whose digests differ between the two."""
    first = make_inputs(name, seed)
    second = make_inputs(name, seed)
    if [gen.sha256(t) for t in first] != [gen.sha256(t) for t in second]:
        raise BenchmarkError(f"inputs for seed {seed} differ between two generations")
    return first


def clear_canonical_cache(lib) -> None:
    """Start each setup as cold as a fresh process would."""
    canonical = getattr(lib.catalogue, "canonical_form", None)
    if hasattr(canonical, "cache_clear"):
        canonical.cache_clear()


def canonical_hit_ratio(lib) -> float:
    canonical = getattr(lib.catalogue, "canonical_form", None)
    if not hasattr(canonical, "cache_info"):
        return 0.0
    info = canonical.cache_info()
    return info.hits / (info.hits + info.misses) if info.hits + info.misses else 0.0


def timed_setup(lib, wl, inputs):
    clear_canonical_cache(lib)
    gc.collect()
    return wl.setup(*inputs)


def timed_pass(wl, st):
    gc.collect()
    return wl.run_pass(st)


class Run:
    """Everything one invocation measured and checked.

    `setups` and `passes` hold the untraced ones, which the end-to-end
    metrics use; `checked` holds every pass, traced or not.
    """

    def __init__(self, lib, wl, inputs):
        self.lib, self.wl, self.inputs = lib, wl, inputs
        self.setups: list = []
        self.passes: list = []
        self.checked: list = []
        self.violations: list[str] = []
        self.catalogue_digests: set[str] = set()

    def setup(self):
        st = timed_setup(self.lib, self.wl, self.inputs)
        self.add_setup(st)
        return st

    def add_setup(self, st, measured: bool = True) -> None:
        if measured:
            self.setups.append(st)
        self.catalogue_digests.add(gen.sha256(self.lib.catalogue.serialize(st.cat)))
        if len(self.catalogue_digests) > 1:
            self.violations.append("setups built different catalogues")

    def add_pass(self, result, measured: bool = True) -> None:
        if self.checked and result.fingerprint != self.checked[0].fingerprint:
            self.violations.append("a pass gave different results from the first")
        self.violations += result.violations
        self.checked.append(result)
        if measured:
            self.passes.append(result)

    def end_to_end(self) -> tuple[dict[str, float], dict[str, int]]:
        """Metric values, and the sample count behind each one."""
        last = self.passes[-1]
        pooled: dict[str, list[float]] = {}
        for p in self.passes:
            for key, values in p.samples.items():
                pooled.setdefault(key, []).extend(values)
        ops = sum(p.ops for p in self.passes)
        failed = sum(sum(p.failures.values()) for p in self.passes)
        values = {
            "setup_s": median([s.seconds for s in self.setups]),
            "eval_s": median([p.seconds for p in self.passes]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "catalogue_bytes": self.setups[-1].cat.footprint_bytes(),
            "failed_frac": failed / ops,
        }
        counts = {"setup_s": len(self.setups), "eval_s": len(self.passes),
                  "failed_frac": ops}
        for name, (key, q) in PERCENTILES.items():
            samples = pooled.get(key, [])
            counts[name] = len(samples)
            try:
                values[name] = percentile(samples, q)
            except TooFewSamples:
                pass
        for name, pairs in (("qerr_bound_p50", last.bound), ("qerr_opt_p50", last.opt)):
            counts[name] = len(pairs)
            if pairs:
                values[name] = median([log10_qerror(t, e) for t, e in pairs])
        return values, counts


def untraced(lib, wl, inputs, seconds: float) -> Run:
    run = Run(lib, wl, inputs)
    for _ in range(SETUPS):
        st = run.setup()
    run.violations += wl.prepare(st)
    start = time.perf_counter()
    while (not run.passes or time.perf_counter() - start < seconds
           or len(run.passes) < wl.min_passes):
        run.add_pass(timed_pass(wl, st))
    return run


def traced(lib, wl, inputs, seconds: float) -> tuple[Run, dict[str, float], dict[str, float]]:
    """Alternate plain and traced cycles (one setup plus one pass) for `seconds`.

    Returns the run, the per-layer metrics and the self time of each module,
    each the median over the traced cycles.  The tracing overhead is the
    median traced cycle minus the median plain one; alternating the two keeps
    slow drifts of machine speed out of the difference.
    """
    run = Run(lib, wl, inputs)
    targets = tracing.library_targets(lib)
    plain: list[float] = []
    cycles: list[dict[str, float]] = []
    modules: list[dict[str, float]] = []
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        st = run.setup()
        if not plain:
            run.violations += wl.prepare(st)
        run.add_pass(timed_pass(wl, st))
        plain.append(st.seconds + run.passes[-1].seconds)
        tracer = tracing.Tracer()
        with tracing.patched(tracer, targets):
            st = timed_setup(lib, wl, inputs)
            hit_ratio = canonical_hit_ratio(lib)
            result = timed_pass(wl, st)
        run.add_setup(st, measured=False)
        run.add_pass(result, measured=False)
        cycle = tracing.layer_metrics(tracer, len(st.cat.counts), hit_ratio)
        cycle["traced_s"] = st.seconds + result.seconds
        cycles.append(cycle)
        modules.append(tracing.module_self_times(tracer))
    per_layer = {name: median([c[name] for c in cycles])
                 for name in tracing.PER_LAYER_UNITS if not name.startswith("trace.")}
    overhead = median([c["traced_s"] for c in cycles]) - median(plain)
    per_layer["trace.overhead_s"] = overhead
    per_layer["trace.overhead_frac"] = overhead / median(plain)
    self_times = {m: median([c.get(m, 0.0) for c in modules]) for m in modules[0]}
    return run, per_layer, self_times


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(args, inputs, run: Run, per_layer: dict[str, float] | None,
           self_times: dict[str, float] | None) -> dict:
    graph_text, workload_text = inputs
    st = run.setups[-1]
    print(f"# cardest benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"input graph sha256={gen.sha256(graph_text)} edges={len(st.g.edges)} "
          f"vertices={len(st.g.vertices)} labels={len(st.g.labels)}")
    print(f"input workload sha256={gen.sha256(workload_text)} queries={len(st.items)}")
    print(f"output catalogue sha256={next(iter(run.catalogue_digests))} "
          f"patterns={len(st.cat.counts)}")
    print(f"output results sha256={run.passes[-1].fingerprint} (elapsedMs removed)")
    failures = sum((p.failures for p in run.checked), Counter())
    ops = sum(p.ops for p in run.checked)
    print(f"failures: {sum(failures.values())} of {ops} operations over "
          f"{len(run.checked)} passes; by reason: "
          + (", ".join(f"{k}={v}" for k, v in sorted(failures.items())) or "none"))
    values, counts = run.end_to_end()
    print(f"{'metric':<34}{'value':>14}  {'unit':<7}{'better':<8}samples")
    for name, (unit, better) in END_TO_END.items():
        shown = _fmt(values[name]) if name in values else "n/a"
        print(f"{name:<34}{shown:>14}  {unit:<7}{better:<8}{counts.get(name, 1)}")
    if per_layer is not None:
        for name, unit in tracing.PER_LAYER_UNITS.items():
            print(f"{name:<34}{_fmt(per_layer[name]):>14}  {unit}")
        ranked = sorted(self_times.items(), key=lambda kv: -kv[1])
        print("self time by module (s, traced setup + pass): "
              + ", ".join(f"{m}={_fmt(v)}" for m, v in ranked))
        plain = run.setups[0].seconds, run.passes[0].seconds
        print(f"untraced setup share of setup + pass: {_fmt(plain[0] / sum(plain))}")
    if per_layer is None:
        run.violations += [f"no value for {name}" for name in GATED if name not in values]
        metrics = {name: {"value": values[name], "unit": END_TO_END[name][0]}
                   for name in GATED if name in values}
    else:
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER_UNITS.items()}
    for message in run.violations:
        print(f"VIOLATION: {message}")
    return {"correct": not run.violations, "attempted": ops,
            "failed": sum(p.unexpected for p in run.checked), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lib = import_library()
        inputs = stable_inputs(args.workload, args.seed)
    except (BenchmarkError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](lib, args.seed)
    if args.trace:
        run, per_layer, self_times = traced(lib, wl, inputs, args.seconds)
    else:
        run, per_layer, self_times = untraced(lib, wl, inputs, args.seconds), None, None
    result = report(args, inputs, run, per_layer, self_times)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
