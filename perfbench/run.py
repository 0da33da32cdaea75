"""curvelift benchmark: certified chains per second, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
One closed-loop caller keeps one curve in flight. Each curve goes through
the path of ``curvelift verify FILE --json`` (see ``pipeline.py``) and
counts as one operation; every emitted document is checked independently
(``check.py``). The seed generates the workload's ``.curve`` files
(``workloads.py``); the program sees only those files.

``--trace 0`` measures the end-to-end metrics. Passes over the workload
repeat until ``--seconds`` have elapsed, and always at least one. Each curve
is summarised by the fastest of its latencies, so a partial last pass or a
slow spell of a shared machine does not shift the mix: ``branches_per_s``
is curves per second over one pass at those latencies, and
``chain_s.p50`` / ``.p90`` are percentiles over them. ``setup_s`` is the
median over seven fresh interpreters, four before the timing and three
after, each importing the program and finishing a small fixed warm-up
curve; the measuring process finishes it too before timing.

``--trace 1`` reports the per-layer metrics from spans (``spans.py``). It
runs each curve untraced and then traced, one pass, and more passes while
another fits in the time. Times are seconds per pass; exact counts
come from the first pass, and every later pass must repeat them. Traced
output must be byte-identical to untraced output. The tracing overhead is
the drop from untraced to traced ``branches_per_s`` over the same curves.
Spans of the first pass go to ``perfbench/_work/trace-WORKLOAD.json``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import check
import pipeline
import spans
import workloads

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
SETUP_PROBES = 7
DEFAULT_ORACLE_BOUND = 12     # curvelift's own default; mid-rational raises it
LAYERS = ("cli", "chardata", "semigroup", "parametrize", "polygon",
          "weierstrass", "implicitize", "oracle", "algebra")
# the traced run's layer self times must cover at least this share of its
# wall time; the rest is the benchmark's own code between spans
ACCOUNTED_TOLERANCE = 0.05

# per-layer metric -> span name; "_self_s" metrics take self time
SPAN_TIMES = {
    "algebra.uni_mul_s": "algebra.UniPoly.__mul__",
    "algebra.bi_mul_s": "algebra.BiPoly.__mul__",
    "algebra.det_s": "algebra.sylvester_det",
    "algebra.exact_div_s": "algebra.bipoly_exact_div",
    "algebra.power_get_s": "algebra.PowerChain.get",
    "polygon.slice_s": "polygon.lattice_slice",
    "parametrize.pullback_s": "parametrize.Parametrization.pullback",
    "parametrize.truncation_s": "parametrize.truncation",
    "parametrize.valuation_table_s": "parametrize.valuation_table",
    "implicitize.lift_s": "implicitize.lift",
    "implicitize.lift_self_s": "implicitize.lift",
    "implicitize.certify_s": "implicitize.certify",
    "implicitize.certify_self_s": "implicitize.certify",
    "oracle.resultant_s": "oracle.resultant_implicitize",
    "cli.parse_s": "cli.load_curve",
    "chardata.validate_s": "chardata.validate_branch",
    "semigroup.generators_s": "semigroup.generators",
    "semigroup.member_s": "semigroup.semigroup_member",
    "weierstrass.check_s": "weierstrass.is_weierstrass",
}
SPAN_CALLS = {
    "algebra.uni_mul_calls": "algebra.UniPoly.__mul__",
    "algebra.bi_mul_calls": "algebra.BiPoly.__mul__",
    "polygon.slice_calls": "polygon.lattice_slice",
    "parametrize.pullback_calls": "parametrize.Parametrization.pullback",
    "oracle.resultant_calls": "oracle.resultant_implicitize",
}
COUNTERS = ("algebra.uni_mul_term_pairs", "algebra.bi_mul_term_pairs",
            "polygon.slice_points", "implicitize.lift_iterations",
            "algebra.coeff_bits_max", "algebra.integral_fractions",
            "oracle.skipped", "cli.json_bytes")


class Curve:
    def __init__(self, path: Path, oracle_bound: int):
        self.path = path
        self.text = path.read_text()
        self.oracle_bound = oracle_bound
        self.latencies: list[float] = []
        self.digest: str | None = None


class Run:
    """Outcome bookkeeping shared by both modes."""

    def __init__(self, cli, implicitize, curves: list[Curve], seed: int):
        self.cli = cli
        self.implicitize = implicitize
        self.curves = curves
        self.rng = random.Random(f"check:{seed}")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one(self, curve: Curve, record: bool = True):
        """Run one curve; check it the first time, compare it after.
        Returns (text, chain), or None when the curve failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            text, chain = pipeline.run_curve(self.cli, self.implicitize,
                                             curve.path, curve.oracle_bound)
        except Exception as exc:  # a raising curve is a failed operation
            self.fail(curve, f"raised {type(exc).__name__}: {exc}")
            return None
        dt = time.perf_counter() - t0
        digest = hashlib.sha256(text.encode()).hexdigest()
        if not chain.ok:
            self.fail(curve, "chain.ok is false")
            return None
        if curve.digest is None:
            found = check.check_document(curve.text, text, self.rng)
            if found:
                self.fail(curve, "; ".join(found))
                return None
            curve.digest = digest
        elif digest != curve.digest:
            self.fail(curve, "emitted JSON differs from an earlier run")
            return None
        if record:
            curve.latencies.append(dt)
        return text, chain

    def fail(self, curve: Curve, why: str) -> None:
        self.failed += 1
        self.problems.append(f"{curve.path.name}: {why}")


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (inclusive method)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def setup_seconds(warmup: Path, probes: int) -> list[float]:
    """Wall times of fresh interpreters that import the program and finish
    the warm-up curve."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        probe = subprocess.Popen([sys.executable, str(HERE / "pipeline.py"),
                                  str(warmup), str(DEFAULT_ORACLE_BOUND)],
                                 cwd=pipeline.ROOT, stdout=subprocess.DEVNULL)
        # a blocking wait: Popen.wait(timeout) polls in growing sleeps,
        # which would round the time up to the next poll
        watchdog = threading.Timer(120, probe.kill)
        watchdog.start()
        try:
            code = probe.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code:
            raise RuntimeError(f"set-up probe exited with {code}")
    return times


def end_to_end(run: Run, seconds: float) -> dict:
    curves = run.curves
    warmup = WORK / "warmup.curve"
    warmup.write_text(workloads.WARMUP)
    setup = setup_seconds(warmup, SETUP_PROBES // 2 + 1)
    pipeline.run_curve(run.cli, run.implicitize, warmup, DEFAULT_ORACLE_BOUND)
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        for curve in curves:
            if passes and time.perf_counter() >= deadline:
                break
            run.one(curve)
        passes += 1
    run.one(curves[0], record=False)                     # same bytes again
    setup += setup_seconds(warmup, SETUP_PROBES // 2)    # a later spell

    # a curve's latency is the fastest of its repeats: on a shared machine
    # interference only ever adds time, and for seconds at a stretch
    best = [min(c.latencies) for c in curves if c.latencies]
    samples = sum(len(c.latencies) for c in curves)
    n = len(best)
    beyond = sum(1 for m in best if m > quantile(best, 0.9)) if n else 0
    highest = (f"p{100 * (n - 10) // n} is the highest percentile with ten "
               f"beyond" if n > 10 else "no percentile has ten beyond")
    print(f"{len(curves)} curves, {passes} passes, {samples} timed samples, "
          f"{run.failed} failed of {run.attempted} "
          f"(failed_ratio {run.failed / run.attempted:.4f})")
    print(f"chain_s percentiles are over {n} per-curve latencies; {beyond} lie "
          f"beyond p90" + ("" if beyond >= 10 else f" ({highest})"))
    if not best:
        return {}
    return {
        "branches_per_s": (n / sum(best), "1/s"),
        "chain_s.p50": (quantile(best, 0.5), "s"),
        "chain_s.p90": (quantile(best, 0.9), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }


def _chain_counts(counts, chain, text: str) -> None:
    """Exact counters read off one certified chain and its JSON."""
    for f in chain.fs + chain.deltas:
        for _, c in f.terms():
            if type(c) is Fraction and c.denominator == 1:
                counts["algebra.integral_fractions"] += 1
    bits = max((max(Fraction(c).numerator.bit_length(),
                    Fraction(c).denominator.bit_length())
                for _, c in chain.fs[-1].terms()), default=0)
    counts["algebra.coeff_bits_max"] = max(counts["algebra.coeff_bits_max"], bits)
    counts["oracle.skipped"] += sum(c.oracle == "skipped" for c in chain.certificates)
    counts["cli.json_bytes"] += len(text.encode())


def paired_pass(run: Run, tracer: spans.Tracer) -> tuple[dict, dict]:
    """Each curve untraced, then traced right after it, so that a slow
    spell of the machine hits both sides of the overhead alike. Returns
    (seconds per metric, exact counts) of the traced half."""
    tracer.reset()
    untraced = 0.0
    for curve in run.curves:
        if run.one(curve) is not None:
            untraced += curve.latencies[-1]
        tracer.install()
        tracer.patch(pipeline, "emit", "cli.json_dumps")
        try:
            out = tracer.wrap("bench.curve", run.one)(curve, record=False)
        finally:
            tracer.uninstall()
        if out is not None:
            _chain_counts(tracer.counts, out[1], out[0])
    per_name = tracer.per_name()
    total = {n: v[0] for n, v in per_name.items()}
    self_ = {n: v[1] for n, v in per_name.items()}
    times = {m: (self_ if m.endswith("_self_s") else total).get(n, 0.0)
             for m, n in SPAN_TIMES.items()}
    times["cli.emit_s"] = total.get("cli.chain_to_doc", 0.0) + total.get("cli.json_dumps", 0.0)
    for layer in LAYERS + ("bench",):
        times[f"{layer}.self_s"] = sum(v for n, v in self_.items()
                                       if n.split(".")[0] == layer)
    times["trace.wall_s"] = total.get("bench.curve", 0.0)
    times["trace.untraced_wall_s"] = untraced
    res_s, lift_s = tracer.lift_speedup_parts()
    times["oracle.lift_speedup"] = res_s / lift_s if lift_s else 0.0
    counts = {m: tracer.calls[n] for m, n in SPAN_CALLS.items()}
    counts.update({m: tracer.counts[m] for m in COUNTERS})
    counts["trace.spans"] = len(tracer.name_of)
    return times, counts


def per_layer(run: Run, seconds: float, workload: str) -> dict:
    deadline = time.perf_counter() + seconds
    tracer = spans.Tracer()
    passes = []
    pass_s = 0.0
    while not passes or time.perf_counter() + pass_s < deadline:
        t0 = time.perf_counter()
        passes.append(paired_pass(run, tracer))
        if len(passes) == 1:
            tracer.write(WORK / f"trace-{workload}.json")
        pass_s = time.perf_counter() - t0

    first_counts = passes[0][1]
    for _, counts in passes[1:]:
        if counts != first_counts:
            diff = sorted(k for k in counts if counts[k] != first_counts[k])
            run.problems.append(f"exact counters differ between passes: {diff}")
    times = {m: statistics.fmean(p[0][m] for p in passes) for m in passes[0][0]}
    wall = times["trace.wall_s"]
    ok_curves = sum(1 for c in run.curves if c.latencies)
    traced_bps = ok_curves / wall if wall else 0.0
    untraced_s = times.pop("trace.untraced_wall_s")
    untraced_bps = ok_curves / untraced_s if untraced_s else 0.0
    overhead = 1 - traced_bps / untraced_bps if untraced_bps else 0.0
    accounted = sum(times[f"{layer}.self_s"] for layer in LAYERS) / wall if wall else 0.0
    if accounted < 1 - ACCOUNTED_TOLERANCE:
        run.problems.append(f"layer self times cover only {accounted:.3f} of "
                            f"the traced wall time")
    print(f"{len(run.curves)} curves, {len(passes)} paired passes; layer self "
          f"times cover {accounted:.4f} of traced wall time (tolerance "
          f"{ACCOUNTED_TOLERANCE}); tracing overhead {overhead:.3f} of "
          f"untraced branches_per_s")

    metrics = {m: (v, "ratio" if m == "oracle.lift_speedup" else "s")
               for m, v in times.items()}
    metrics.update({m: (v, "count") for m, v in first_counts.items()})
    metrics["algebra.coeff_bits_max"] = (first_counts["algebra.coeff_bits_max"], "bits")
    metrics["cli.json_bytes"] = (first_counts["cli.json_bytes"], "bytes")
    points = first_counts["polygon.slice_points"]
    metrics["polygon.slice_useful_ratio"] = (
        first_counts["polygon.slice_calls"] / points if points else 0.0, "ratio")
    metrics["trace.accounted_share"] = (accounted, "ratio")
    metrics["trace.branches_per_s"] = (traced_bps, "1/s")
    metrics["trace.untraced_branches_per_s"] = (untraced_bps, "1/s")
    metrics["trace.overhead_share"] = (overhead, "ratio")
    metrics["failed_ratio"] = (run.failed / run.attempted, "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli, implicitize = pipeline.load_program()
    workload = workloads.WORKLOADS[args.workload]
    tag = f"{workload.name}-{args.seed}"
    paths = workloads.generate(workload, args.seed, WORK / tag)
    curves = []
    for path in paths:
        branch = cli.branch_from_file(cli.load_curve(path))  # validate_branch
        bound = branch.cd.es[-1] if workload.oracle_at_top else \
            DEFAULT_ORACLE_BOUND
        curves.append(Curve(path, bound))

    run = Run(cli, implicitize, curves, args.seed)
    if args.trace:
        metrics = per_layer(run, args.seconds, workload.name)
    else:
        metrics = end_to_end(run, args.seconds)
    for line in run.problems:
        print(f"problem: {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34} {value:>16.6g} {unit}")
    result = {
        "correct": not run.problems and run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
