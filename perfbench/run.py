#!/usr/bin/env python3
"""trigspec benchmark: one closed-loop client per workload, every output checked.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload spline-batch --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout. One client runs
whole decks of jobs (see ``workloads.py``) until ``--seconds`` of wall
time, oracle checks included, have passed and, untraced, at least 100
jobs have run, so the 90th percentile has ten jobs beyond it. Latency
metrics take each deck slot at its median calibrated time over the run's
decks: each latency is scaled by the yardstick timed right before it
(see ``yardstick.py``). Each job's output is checked against its oracle
outside the timed region. A job fails when it raises, when a CLI job
exits nonzero, or when an oracle check misses its tolerance.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs half the
time untraced and half traced, and reports per-layer metrics: calls and
computed work over deck 0 of the traced half (repeated exactly for a
given seed), self seconds per deck averaged over the traced half, and the
tracing overhead. The run also self-checks the tracer.

The report goes to stdout, ending with one JSON line; the full result,
stamped with machine and versions, goes to ``perfbench/out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
OUT = HERE / "out"

# The package under test is the checkout's own src/, never an installed copy.
sys.path[:0] = [str(SRC), str(HERE)]
try:
    import numpy as np
    from scipy.stats.mstats import hdquantiles

    import trigspec as ts
    import workloads
    import yardstick
except ImportError:
    ts = None

MIN_JOBS = 100  # so the 90th percentile has ten jobs beyond it
SETUP_SAMPLES = 6
TAIL_PERCENTILE = 90
SETUP_CODE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
start = time.perf_counter()
import trigspec
from trigspec import cli
grid = trigspec.make_grid(2)
config = trigspec.KernelConfig(grid=grid, order=3, variant=trigspec.FilterVariant.ABS_SINC_POWER)
spline = trigspec.build_spline(trigspec.sample(trigspec.power_decay_cosine(4), grid), config)
trigspec.values_on_uniform_grid(spline, 16)
cli.build_parser()
setup = time.perf_counter() - start
import yardstick
print(setup, yardstick.best_time(3))
"""


def pin(cpus):
    """Run this thread on `cpus` only; the system may refuse, which is harmless."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def measure_setup():
    """Median calibrated time of `import trigspec` plus a warm-up.

    Each sample is a fresh process, which times the yardstick right after
    its set-up; the processes take the allowed cores in turn. Returns the
    calibrated and the plain wall-time median.
    """
    cpus = sorted(os.sched_getaffinity(0))
    calibrated, wall = [], []
    try:
        for i in range(SETUP_SAMPLES):
            pin({cpus[i % len(cpus)]})  # the child process inherits this thread's affinity
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
                cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
            )
            setup, ref = map(float, proc.stdout.split()[-2:])
            calibrated.append(setup * yardstick.Y_REF / ref)
            wall.append(setup)
    finally:
        pin(cpus)
    return statistics.median(calibrated), statistics.median(wall)


def stamp(args):
    import numpy
    import scipy

    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            sha = ref_path.read_text().strip() if ref_path.is_file() else None
        else:
            sha = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "trigspec").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": ts.kernel_backend,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


class Tally:
    """Latencies, failures and oracle results of the jobs of one loop."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.worst_ratio = 0.0
        self.checks = 0
        self.counts = Counter()
        self.failures = []
        self.decks = 0
        self.by_slot = {}  # deck slot -> its calibrated latency in every deck
        self.wall_by_slot = {}  # deck slot -> its wall latency in every deck
        self.labels = {}

    def slot_times(self):
        """Each slot's median calibrated latency over the run's decks."""
        return [statistics.median(v) for v in self.by_slot.values()]

    def add(self, job, slot, tracer, job_id):
        before = yardstick.best_time()
        if tracer is not None:
            tracer.job = job_id
            tracer.on = True
        start = time.perf_counter()
        try:
            out = job.run()
            error = None
        except Exception as exc:  # a raising job is a failed job, whatever it raised
            out, error = None, f"{type(exc).__name__}: {exc}"
        self.latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.on = False
        # The yardstick brackets the job, so a change of speed during a
        # long job shows in it too.
        ref = 0.5 * (before + yardstick.best_time())
        self.wall_by_slot.setdefault(slot, []).append(self.latencies[-1])
        self.by_slot.setdefault(slot, []).append(self.latencies[-1] * yardstick.Y_REF / ref)
        self.labels[slot] = job.label
        if error is None:
            errs, counts = job.check(out)
            self.counts.update(counts)
            missed = []
            for name, err, tol in errs:
                ratio = err / tol if tol > 0 else (0.0 if err == 0 else float("inf"))
                self.worst_ratio = max(self.worst_ratio, ratio)
                self.checks += 1
                if not err <= tol:
                    missed.append(f"{name} {err:.3e} > {tol:.3e}")
            error = "; ".join(missed) or None
        if error is not None:
            self.failed += 1
            self.failures.append(f"{job.label}: {error}")


def run_loop(deck, seed, ctx, seconds, min_jobs, tracer=None, on_deck_done=None):
    """Whole decks until `seconds` of wall time, checks included, have passed.

    A run of fixed wall time rather than fixed busy time keeps its length
    when the machine slows down. A slot runs on each allowed core in turn,
    from deck to deck: the cores of a shared host change speed largely
    independently, and pinning keeps each job on the core where its
    yardstick was just timed.
    """
    cpus = sorted(os.sched_getaffinity(0))
    tally = Tally()
    start = time.perf_counter()
    wall_cap = start + 3 * seconds + 30
    d = 0
    try:
        while True:
            rng = np.random.default_rng([seed, d])
            jobs = deck(rng, ctx)
            for slot in rng.permutation(len(jobs)):
                pin({cpus[(slot + d) % len(cpus)]})
                tally.add(jobs[slot], slot, tracer, f"{d}:{jobs[slot].label}")
            tally.decks += 1
            if on_deck_done is not None:
                on_deck_done(d, tally)
            d += 1
            now = time.perf_counter()
            if now - start >= seconds and len(tally.latencies) >= min_jobs:
                break
            if now > wall_cap:
                break
    finally:
        pin(cpus)
    return tally


def refusal_outcomes(refusals):
    out = []
    for label, call in refusals():
        try:
            call()
            out.append((label, "no error"))
        except ts.NumericalError as exc:
            out.append((label, type(exc).__name__))
    return out


def slot_rate(tally):
    """Jobs per second of one deck run at every slot's median calibrated latency."""
    times = tally.slot_times()
    return len(times) / sum(times)


def end_to_end(tally, setup_s):
    # Every job counts at its slot's median calibrated latency over the
    # run's decks (see yardstick.py). Every slot runs once per deck, so the
    # slot values weigh as the run's jobs do. Harrell-Davis estimates weigh
    # neighbouring order statistics, so a quantile that falls between two
    # job sizes of the mix does not jump between them from run to run.
    p50, tail = hdquantiles(tally.slot_times(), prob=(0.5, TAIL_PERCENTILE / 100.0))
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (slot_rate(tally), "1/s"),
        "job_p50_s": (float(p50), "s"),
        f"job_p{TAIL_PERCENTILE}_s": (float(tail), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (tally.failed / len(tally.latencies), "ratio"),
        "worst_err_ratio": (tally.worst_ratio, "ratio"),
    }


def traced_run(args, deck, refusals, ctx):
    import tracing

    half = args.seconds / 2.0
    untraced = run_loop(deck, args.seed, ctx, half, 0)
    tracer = tracing.Tracer()
    wrapped = tracer.install("trigspec")

    window = {}

    def close_window(d, tally):
        # Deck 0 is the count window: snapshot its counts, then stop counting.
        if d == 0:
            window["refusals"] = tracer.counted(refusal_outcomes, refusals)
            tracer.counting = False
            window["counts"] = tracer.counts()
            window["checked"] = Counter(tally.counts)
            window["spans"], tracer.spans = tracer.spans, None
            window["spans_dropped"] = tracer.spans_dropped

    tracer.counting = True
    tracer.spans = []
    traced = run_loop(deck, args.seed, ctx, half, 0, tracer, close_window)
    self_s = Counter(tracer.self_s)
    calls, errors, work, nested = window["counts"]

    # Self-check 1: the same deck traced again gives the same counts.
    tracer.reset()
    tracer.counting = True
    replay = Tally()
    rng = np.random.default_rng([args.seed, 0])
    jobs = deck(rng, ctx)
    for slot in rng.permutation(len(jobs)):
        replay.add(jobs[slot], slot, tracer, f"replay:{jobs[slot].label}")
    job_calls = Counter(tracer.calls)
    tracer.counted(refusal_outcomes, refusals)
    tracer.counting = False
    if tracer.counts() != window["counts"]:
        raise RuntimeError("traced counts differ between two passes over deck 0")
    # Self-check 2: every call the jobs make directly was seen.
    expected = Counter()
    for job in jobs:
        expected.update(job.expect)
    wrong = {k: (job_calls[k], v) for k, v in expected.items() if job_calls[k] != v}
    if wrong:
        raise RuntimeError(f"traced calls differ from the deck's direct calls: {wrong}")
    # Self-check 3: no namespace still binds an unwrapped original.
    missed = tracer.unwrapped_bindings("trigspec")
    if missed:
        raise RuntimeError(f"unwrapped bindings after the run: {missed}")
    # Known count of the present fold: 2n hurwitz_tail calls per grid
    # evaluation of a power-decay signal. Reported, not asserted, because a
    # vectorised fold may legitimately change it.
    grid = ts.make_grid(8)
    config = ts.KernelConfig(grid=grid, order=3, variant=ts.FilterVariant.ABS_SINC_POWER)
    spline = ts.build_spline(ts.sample(ts.power_decay_cosine(4), grid), config)
    tracer.reset()
    tracer.counted(ts.values_on_uniform_grid, spline, 64)
    fold_calls = tracer.calls["series.hurwitz_tail"]

    decks = traced.decks
    per_layer = {}
    for name in LAYER_CALLS:
        per_layer[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in LAYER_SELF:
        per_layer[f"{name}.self_s"] = (self_s.get(name, 0.0) / decks, "s")
    for key in WORK_COUNTS:
        per_layer[key] = (work.get(key, 0), "count")
    per_layer["signal_model.evaluate.errors"] = (errors.get("signal_model.evaluate", 0), "count")
    builds = calls.get("trig_spline.build_spline", 0)
    per_layer["trig_spline.build_spline.tail_calls_per_build"] = (
        nested.get("series.progression_tail<trig_spline.build_spline", 0) / builds if builds else 0.0,
        "ratio",
    )
    coeffs = calls.get("filon_oracle.quad_fourier_coeff", 0)
    grid_evals = nested.get("trig_spline.values_on_uniform_grid<filon_oracle.quad_fourier_coeff", 0)
    grid_evals += nested.get("signal_model.evaluate<filon_oracle.quad_fourier_coeff", 0)
    per_layer["filon_oracle.grid_evals_per_coeff"] = (grid_evals / coeffs if coeffs else 0.0, "ratio")
    checked = window["checked"]
    per_layer["trig_spline.spline_eval.bound_over_tol"] = (
        checked.get("trig_spline.spline_eval.bound_over_tol", 0), "count"
    )
    per_layer["cli.bytes_written"] = (checked.get("cli.bytes_written", 0), "B")
    per_layer["series.hurwitz_tail.calls_per_fold_probe"] = (fold_calls, "count")
    untraced_jps = slot_rate(untraced)
    traced_jps = slot_rate(traced)
    per_layer["trace.untraced_jobs_per_s"] = (untraced_jps, "1/s")
    per_layer["trace.traced_jobs_per_s"] = (traced_jps, "1/s")
    per_layer["trace.overhead_frac"] = (1.0 - traced_jps / untraced_jps, "ratio")
    per_layer["oracle.worst_err_ratio"] = (
        max(untraced.worst_ratio, traced.worst_ratio, replay.worst_ratio), "ratio"
    )

    info = {
        "wrapped_functions": len(wrapped),
        "traced_decks": decks,
        "fold_probe": f"{fold_calls} hurwitz_tail calls for n=8 (present fold: 2n = 16)",
        "refusals": window["refusals"],
        "spans_dropped": window["spans_dropped"],
    }
    tallies = (untraced, traced, replay)
    return per_layer, tallies, info, window["spans"]


# Per-layer metric names (module prefixes without their leading underscore).
LAYER_CALLS = (
    "series.hurwitz_tail",
    "trig_spline.values_on_uniform_grid",
    "series.progression_tail",
    "trig_spline.build_spline",
    "spline_kernel.filter_response",
    "spline_kernel.class_gain_sum",
    "sampling.sample",
    "sampling.discrete_coeffs",
    "kernels.dft",
    "kernels.synth",
    "signal_model.evaluate",
    "trig_spline.spline_eval",
    "filon_oracle.quad_fourier_coeff",
    "alias_analysis.folded_coefficients",
    "cli.main",
    "signal_model.true_coefficient",
)
LAYER_SELF = (
    "series.hurwitz_tail",
    "trig_spline.values_on_uniform_grid",
    "series.progression_tail",
    "trig_spline.build_spline",
    "spline_kernel.filter_response",
    "sampling.sample",
    "sampling.discrete_coeffs",
    "kernels.dft",
    "kernels.synth",
    "signal_model.evaluate",
    "trig_spline.spline_eval",
    "filon_oracle.quad_fourier_coeff",
    "filon_oracle.sup_distance",
    "filon_oracle.estimate_diff_variation",
    "alias_analysis.fold_report_table",
    "alias_analysis.band_component",
    "cli.main",
    "trig_spline.unfolded_spectrum",
    "trig_spline.spline_fourier_coeff",
)
WORK_COUNTS = (
    "series.hurwitz_tail.values",
    "trig_spline.values_on_uniform_grid.points",
    "kernels.dft.mults",
    "kernels.synth.term_points",
    "trig_spline.spline_eval.points",
)


def write_spans(spans, args):
    """Deck-0 spans as JSON lines: id, name, start, end, parent id, job id."""
    path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
    keys = ("id", "name", "start", "end", "parent", "job")
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")
    return str(path.relative_to(ROOT))


def main(argv=None):
    parser = argparse.ArgumentParser(description="trigspec benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if ts is None or Path(ts.__file__).resolve().parent != SRC / "trigspec":
        print(f"error: no trigspec package under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    started = time.perf_counter()
    setup_s, setup_wall_s = measure_setup()
    deck, refusals = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    ctx = workloads.Context(stem=str(WORK / args.workload))
    info = {"stamp": stamp(args), "setup_wall_s": setup_wall_s}
    try:
        if args.trace:
            metrics, tallies, extra, spans = traced_run(args, deck, refusals, ctx)
            info.update(extra)
            info["spans_file"] = write_spans(spans, args)
            info["spans_written"] = len(spans)
        else:
            tally = run_loop(deck, args.seed, ctx, args.seconds, MIN_JOBS)
            info["refusals"] = refusal_outcomes(refusals)
            metrics = end_to_end(tally, setup_s)
            tallies = (tally,)
            info["decks"] = tally.decks
            # The plain wall times beside the calibrated ones.
            wall = {slot: statistics.median(v) for slot, v in sorted(tally.wall_by_slot.items())}
            info["wall_jobs_per_s"] = len(wall) / sum(wall.values())
            info["latency_by_job"] = {
                tally.labels[slot]: {"calibrated": statistics.median(tally.by_slot[slot]), "wall": w}
                for slot, w in wall.items()
            }
            info["checks"] = tally.checks
            info["known_refusal_count"] = sum(r[1] != "no error" for r in info["refusals"])
            info["spline_eval_bound_over_tol"] = tally.counts.get(
                "trig_spline.spline_eval.bound_over_tol", 0
            )
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    info["wall_s"] = round(time.perf_counter() - started, 2)
    attempted = sum(len(t.latencies) for t in tallies)
    failed = sum(t.failed for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    info["failures"] = failures[:20]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }

    print(f"trigspec benchmark: {json.dumps(info['stamp'], sort_keys=True)}")
    for key in sorted(k for k in info if k not in ("stamp", "failures", "latency_by_job")):
        print(f"  {key}: {info[key]}")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    record = dict(result, info=info)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    # Keep only metrics named in BENCHMARK.json on the result line.
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    keys = [m["name"] for m in listed["per_layer" if args.trace else "end_to_end"]]
    result["metrics"] = {k: result["metrics"][k] for k in keys}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
