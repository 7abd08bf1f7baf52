"""The workloads: job decks, and the oracle check of every job.

``BENCHMARK.json`` lists ``spline-batch``, ``scatter-eval`` and
``oracle-bounds``; ``spline-grid`` runs by hand (see README.md).

A deck is one pass over a workload's job mix. Deck d of seed s is drawn
from ``numpy.random.default_rng([s, d])``. Each slot of a deck has a fixed
cost class (job kind, n, r, variant, grid size, and either a named preset
signal or a harmonic sum), so runs are comparable across seeds; the seed
draws the harmonic sums, the scattered points, the subset of jobs given
the brute-series oracle, and the job order. Every deck draws fresh data,
so a cache keyed on configuration (N, r, variant, G) is hit across jobs
while a cache keyed on the sample values is not. A deck builder returns
its jobs in slot order; the runner draws the order it runs them in from
the same generator.

``Job.run`` is the timed call. ``Job.check`` runs outside the timed
region; it returns ``[(name, error, tolerance), ...]`` and a dict of
counts, and each tolerance is the one the tests use for that identity.
``Job.expect`` lists calls the job makes directly, which the traced run
asserts it saw.
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import trigspec as ts
from trigspec import cli, spline_kernel

VARIANTS = ("sinc", "abs-sinc", "inv-power")
PRESETS = ("power-cos-2", "power-cos-4", "power-cos-6", "power-sin-3", "power-sin-5")
PRESETS_R1 = ("power-cos-4", "power-cos-6", "power-sin-3", "power-sin-5")  # eq9 needs r >= 1

INTERP_TOL = 1e-12   # node interpolation (tests: c1 / test_trig_spline)
FOLD_TOL = 1e-10     # fold identity (c2) and brute-series grid values
PARTITION_TOL = 1e-9  # partition of unity (c4)
QUAD_TOL = 1e-8      # quadrature against closed form (c5)
ROUND_TRIP_TOL = 1e-15  # a value written with 17 digits reads back exactly
SCATTER_SLACK = 1e-13  # rounding allowance on scattered_eval_bound (test_trig_spline)

BRUTE_TAIL = 1e-11   # neglected coefficient mass allowed in the brute-series sum
BRUTE_MAX_TERMS = 200_000
BRUTE_POINTS = 64
# Scattered points are a subset of this uniform grid, whose values are the
# oracle. At 4096 points the oracle took a third of a scatter-eval run,
# which left each slot fewer timed samples.
DENSE_GRID = 1024


@dataclass
class Job:
    label: str
    run: object
    check: object
    expect: dict = field(default_factory=dict)


@dataclass
class Context:
    stem: str  # output stem for CLI jobs, inside the checkout


# -- signals --------------------------------------------------------------------


def dense_harmonic(rng, n, r=2):
    """Harmonic sum touching every alias class 1..n, some members out of band.

    Every class is nonzero, like a power-decay signal, so the cost of a
    job does not depend on which classes the seed happened to draw. The
    amplitudes sum to 1, so |f| <= 1: the tests' absolute tolerances are
    set for unit-scale signals (an unscaled sum of 257 normal terms has
    |f| near 50 and node errors near 4e-12, 1e-13 relative).
    """
    N = 2 * n + 1
    js = [0]
    for k in range(1, n + 1):
        m = int(rng.integers(0, 3))
        js.append(k if m == 0 else m * N + (k if rng.random() < 0.5 else -k))
    ab = rng.normal(size=(n + 1, 2))
    ab[0, 1] = 0.0
    ab /= 0.5 * abs(ab[0, 0]) + np.sum(np.hypot(ab[1:, 0], ab[1:, 1]))
    return ts.harmonic_sum([(j, float(a), float(b)) for j, (a, b) in zip(js, ab)], r=r)


def _signal(rng, n, slot, presets=PRESETS):
    """Even slots take the presets in turn; odd slots draw a harmonic sum."""
    if slot % 2 == 0:
        return ts.suite_signals()[presets[(slot // 2) % len(presets)]]
    return dense_harmonic(rng, n)


def _family(slot):
    return "preset" if slot % 2 == 0 else "harmonic"


def _config(n, r, variant):
    return ts.KernelConfig(
        grid=ts.make_grid(n), order=r, variant=ts.FilterVariant.from_string(variant)
    )


def _inline(sig):
    return json.dumps(ts.signal_to_json(sig), sort_keys=True)


def _read_csv(path, cols):
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols, ndmin=2)


def _exit_code(rc):
    return [("exit code", float(rc != 0), 0.5)]


# -- oracles --------------------------------------------------------------------


def _interp_errors(spline, samples):
    nodes = ts.values_on_uniform_grid(spline, samples.grid.N)
    return ("node interpolation", float(np.max(np.abs(nodes - samples.values))), INTERP_TOL)


def _fold_errors(sig, spec):
    grid = spec.grid
    worst = 0.0
    for k in range(grid.n + 1):
        rep = ts.folded_coefficients(sig, grid, k, tol=1e-12)
        a = spec.a0 if k == 0 else spec.a[k - 1]
        b = 0.0 if k == 0 else spec.b[k - 1]
        worst = max(worst, abs(rep.folded_a - a), abs(rep.folded_b - b))
    return ("fold identity", worst, FOLD_TOL)


def brute_terms(spline):
    """Series length J whose neglected tail is below BRUTE_TAIL.

    |sigma_j| <= (N/(pi j))^s for every gain family, so the coefficient mass
    beyond J is at most max_k(w_k/|H_k|) (N/pi)^s J^(1-s)/(s-1).
    """
    cfg = spline.config
    s = cfg.power
    N = cfg.grid.N
    spec = spline.spectrum
    w = (np.abs(spec.a) + np.abs(spec.b)) / np.abs(spline.table.class_sums)
    mass = float(np.max(w)) * (N / math.pi) ** s
    if mass == 0.0:
        return 1
    return math.ceil((mass / ((s - 1) * BRUTE_TAIL)) ** (1.0 / (s - 1)))


def brute_values(spline, t, J):
    """Direct summation of the coefficient law, independent of the Hurwitz fold."""
    js, ca, cb = ts.unfolded_spectrum(spline, J)
    out = np.full(len(t), 0.5 * spline.a0)
    for start in range(0, J, 4000):
        phase = np.outer(t, js[start:start + 4000])
        out += np.cos(phase) @ ca[start:start + 4000] + np.sin(phase) @ cb[start:start + 4000]
    return out


# -- spline-grid ----------------------------------------------------------------


def _spline_grid_job(rng, ctx, slot, n, r, G, variant):
    sig = _signal(rng, n, slot)
    argv = [
        "spline", "--inline", _inline(sig), "--n", str(n), "--r", str(r),
        "--variant", variant, "--eval-grid", str(G), "--out", ctx.stem,
    ]
    # The brute sum converges fast enough only for r >= 3 on small N or r = 10.
    brute_idx = None
    if (r == 10 or (r == 3 and n == 8)) and rng.random() < 0.5:
        brute_idx = np.sort(rng.choice(G, BRUTE_POINTS, replace=False))

    def check(rc):
        if rc != 0:
            return _exit_code(rc), {}
        paths = [ctx.stem + ext for ext in (".spline.json", ".unfolded.csv", ".eval.csv")]
        with open(paths[0], encoding="utf-8") as fh:
            spline = ts.spline_from_json(json.load(fh))
        grid = ts.make_grid(n)
        errs = [_interp_errors(spline, ts.sample(sig, grid))]
        table = _read_csv(paths[2], (0, 1, 2, 3))
        errs.append(("eval rows", float(table.shape[0] != G), 0.5))
        counts = {"cli.bytes_written": sum(os.path.getsize(p) for p in paths)}
        if brute_idx is not None:
            J = brute_terms(spline)
            if J <= BRUTE_MAX_TERMS:
                t = 2.0 * np.pi * brute_idx / G
                err = float(np.max(np.abs(table[brute_idx, 1] - brute_values(spline, t, J))))
                errs.append(("brute series", err, FOLD_TOL))
                counts["oracle.brute_checks"] = 1
        return errs, counts

    return Job(
        f"spline n={n} r={r} G={G} {variant} {_family(slot)}",
        lambda: cli.main(argv),
        check,
        {"cli.main": 1},
    )


def spline_grid_deck(rng, ctx):
    slots = [(8, r, G, v) for r in (1, 3, 10) for G in (1024, 4096) for v in VARIANTS]
    large = [(32, r, G) for r in (1, 3, 10) for G in (1024, 4096)]
    large += [(128, 1, 1024), (128, 3, 4096), (128, 10, 4096), (256, 1, 4096), (256, 10, 1024)]
    slots += [(n, r, G, VARIANTS[j % 3]) for j, (n, r, G) in enumerate(large)]
    jobs = [_spline_grid_job(rng, ctx, i, *slot) for i, slot in enumerate(slots)]
    return jobs


# -- spline-batch ---------------------------------------------------------------

BATCH_SIGNALS = 4  # short jobs give each slot many samples in a run


def _batch_job(rng, n, r, variant):
    cfg = _config(n, r, variant)
    N = cfg.grid.N
    sigs = [_signal(rng, n, i) for i in range(BATCH_SIGNALS)]

    def run():
        out = []
        for sig in sigs:
            samples = ts.sample(sig, cfg.grid)
            spec = ts.discrete_coeffs(samples)
            spline = ts.build_spline(samples, cfg)
            ts.unfolded_spectrum(spline, 4 * N)
            out.append((samples, spec, ts.values_on_uniform_grid(spline, N)))
        return out

    def check(out):
        errs = []
        for sig, (samples, spec, nodes) in zip(sigs, out):
            errs.append(("node interpolation", float(np.max(np.abs(nodes - samples.values))), INTERP_TOL))
            errs.append(_fold_errors(sig, spec))
        return errs, {}

    # discrete_coeffs is left out: build_spline calls it again internally.
    per_signal = ("sampling.sample", "trig_spline.build_spline",
                  "trig_spline.unfolded_spectrum", "trig_spline.values_on_uniform_grid")
    return Job(
        f"batch n={n} r={r} {variant} x{BATCH_SIGNALS}",
        run,
        check,
        {name: BATCH_SIGNALS for name in per_signal},
    )


def spline_batch_deck(rng, ctx):
    jobs = [_batch_job(rng, n, r, v) for n in (16, 64) for r in (1, 3, 10) for v in VARIANTS]
    return jobs


# -- scatter-eval ---------------------------------------------------------------


def _scatter_job(rng, slot, n, r, variant, points):
    cfg = _config(n, r, variant)
    sig = _signal(rng, n, slot)
    spline = ts.build_spline(ts.sample(sig, cfg.grid), cfg)
    idx = np.sort(rng.choice(DENSE_GRID, points, replace=False))
    t = 2.0 * np.pi * idx / DENSE_GRID

    def check(vals):
        exact = ts.values_on_uniform_grid(spline, DENSE_GRID)[idx]
        bound = ts.trig_spline.scattered_eval_bound(spline)
        err = float(np.max(np.abs(vals - exact)))
        counts = {"trig_spline.spline_eval.bound_over_tol": int(bound > cfg.tail_tol)}
        return [("scattered vs grid", err, bound + SCATTER_SLACK)], counts

    return Job(
        f"scatter n={n} r={r} {variant} {_family(slot)} P={points}",
        lambda: ts.spline_eval(spline, t),
        check,
        {"trig_spline.spline_eval": 1},
    )


def _power_signal(kind, p):
    # The smoothness class is not used by sampling; these are declared
    # values for the factories, which need one when p has no closed form.
    factory = ts.power_decay_cosine if kind == "cos" else ts.power_decay_sine
    return factory(p, r=1, variation=10.0)


def _sampling_job(kind, p, n):
    sig = _power_signal(kind, p)
    grid = ts.make_grid(n)

    def run():
        return ts.discrete_coeffs(ts.sample(sig, grid))

    return Job(
        f"sample {kind} p={p} N={grid.N}",
        run,
        lambda spec: ([_fold_errors(sig, spec)], {}),
        {"sampling.sample": 1},
    )


def scatter_eval_deck(rng, ctx):
    jobs = []
    for n, points in ((8, 256), (64, 64)):
        for i, (r, v) in enumerate((r, v) for r in (1, 2, 3) for v in VARIANTS):
            jobs.append(_scatter_job(rng, i, n, r, v, points))
    jobs.append(_sampling_job("cos", 3.0, 2))
    jobs += [_sampling_job("sin", 4.0, n) for n in (2, 4, 8)]
    return jobs


def scatter_eval_refusals():
    """Requests the library is known to refuse today: sampling p = 2.5.

    They run outside the timed jobs of every scatter-eval run, so the
    refusal stays visible without counting as a failed job.
    """
    sig = _power_signal("cos", 2.5)
    grid = ts.make_grid(8)
    return [("sample cos p=2.5 N=17", lambda: ts.sample(sig, grid))]


# -- oracle-bounds --------------------------------------------------------------


def _bounds_check(path):
    def check(rc):
        if rc != 0:
            return _exit_code(rc), {}
        rows = _read_csv(path, (1, 2))
        errs = [("bound holds", float(m), float(b)) for m, b in rows]
        return errs, {"cli.bytes_written": os.path.getsize(path)}

    return check


def _bounds_job(rng, ctx, slot, family, n, r=3, variant="abs-sinc"):
    sig = _signal(rng, n, slot, PRESETS_R1)
    path = ctx.stem + ".bounds.csv"
    argv = ["bounds", "--family", family, "--inline", _inline(sig), "--n", str(n),
            "--r", str(r), "--variant", variant, "--out", path]
    return Job(f"bounds {family} n={n} r={r} {variant} {_family(slot)}",
               lambda: cli.main(argv), _bounds_check(path), {"cli.main": 1})


def _alias_job(rng, ctx, slot, n):
    sig = _signal(rng, n, slot, PRESETS_R1)
    path = ctx.stem + ".alias.csv"
    argv = ["alias", "--inline", _inline(sig), "--n", str(n), "--out", path]

    def check(rc):
        if rc != 0:
            return _exit_code(rc), {}
        rows = _read_csv(path, (5, 6))
        errs = [("fold identity", float(np.max(rows)), FOLD_TOL)]
        return errs, {"cli.bytes_written": os.path.getsize(path)}

    return Job(f"alias n={n} {_family(slot)}", lambda: cli.main(argv), check, {"cli.main": 1})


def _response_job(ctx, n, variant):
    orders = (1, 3, 10)
    argv = ["response", "--n", str(n), "--r", ",".join(map(str, orders)),
            "--variant", variant, "--out", ctx.stem]

    def check(rc):
        if rc != 0:
            return _exit_code(rc), {}
        errs = []
        written = 0
        for r in orders:
            cfg = _config(n, r, variant)
            table = ts.filter_response(cfg, 2 * cfg.grid.N)
            path = f"{ctx.stem}.r{r}.csv"
            written += os.path.getsize(path)
            alpha = _read_csv(path, (4,))[:, 0]
            errs.append(("response table", float(np.max(np.abs(alpha - table.gains))), ROUND_TRIP_TOL))
            worst = 0.0
            for k in range(1, n + 1):
                partial, rem = spline_kernel.class_partition_terms(k, cfg, 64, table)
                worst = max(worst, abs(partial + rem - 1.0))
            errs.append(("partition of unity", worst, PARTITION_TOL))
        return errs, {"cli.bytes_written": written}

    return Job(f"response n={n} {variant}", lambda: cli.main(argv), check, {"cli.main": 1})


def _quad_job(n, r, variant, preset):
    # A preset, not a harmonic sum: the quadrature doubles its grid until it
    # converges, so its cost would change with each draw of a harmonic sum.
    cfg = _config(n, r, variant)
    spline = ts.build_spline(ts.sample(ts.suite_signals()[preset], cfg.grid), cfg)
    k_hi = 2 * cfg.grid.N

    def check(rows):
        worst = 0.0
        for k, a, b in rows:
            ca, cb = ts.spline_fourier_coeff(spline, k)
            worst = max(worst, abs(a - ca), abs(b - cb))
        return [("quadrature vs closed form", worst, QUAD_TOL)], {}

    return Job(
        f"quad n={n} r={r} {variant} {preset} k=1..{k_hi}",
        lambda: ts.filon_coeffs(spline, (1, k_hi)),
        check,
        {"filon_oracle.filon_coeffs": 1, "filon_oracle.quad_fourier_coeff": k_hi},
    )


def oracle_bounds_deck(rng, ctx):
    jobs = [
        _bounds_job(rng, ctx, i, "filon", n, r, VARIANTS[i % 3])
        for i, (n, r) in enumerate((n, r) for n in (8, 32, 64) for r in (1, 3))
    ]
    for i, n in enumerate((8, 64)):
        jobs.append(_bounds_job(rng, ctx, 1, "eq8", n))
        jobs.append(_bounds_job(rng, ctx, 2 * i, "eq9", n))
        jobs.append(_alias_job(rng, ctx, 1 - i, n))
        jobs.append(_response_job(ctx, n, VARIANTS[i]))
    jobs += [_quad_job(8, 3, v, p) for v, p in zip(VARIANTS[1:], ("power-cos-6", "power-sin-3"))]
    return jobs


def no_refusals():
    return []


# name -> (deck builder, known refusals)
WORKLOADS = {
    "spline-grid": (spline_grid_deck, no_refusals),
    "spline-batch": (spline_batch_deck, no_refusals),
    "scatter-eval": (scatter_eval_deck, scatter_eval_refusals),
    "oracle-bounds": (oracle_bounds_deck, no_refusals),
}
