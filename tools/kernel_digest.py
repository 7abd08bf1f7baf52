"""Digest of the spectral-kernel tables, splines and fold sums, for bit-identity checks.

Sweeps the raw gains and class sums of ``filter_response``,
``class_partition_terms`` and ``response_table_to_csv`` over n = 1..40
and 64, 100, 128, 200, 256, orders 1..12, 20, 40, 100, 150, 160, 170
and 200, every gain family, and fold sums of seeded harmonic sums (indices up to 5N) and power
signals. The spline layer is swept over splines of seeded
samples at n = 1..16 and 64, orders 1..12, 40, 100 and 150, every gain
family: ``unfolded_spectrum`` to 4N, ``series_truncation``,
``values_on_uniform_grid`` at G = N, 64 and 1000, and ``spline_eval`` at
32 and 512 seeded scattered points, one count on each side of the switch
between the two contraction orders of evaluation. Each of these
quantities is hashed again, as a ``spline-warm`` line, for a second
seeded sample vector on the same configuration, so its coefficient law
and grid angles come from the plans the first vector's spline stored;
``spline-large`` lines hash ``unfolded_spectrum`` to J = 4096 and
40,000 at n = 64, order 2, for every family: laws above the plans' size
budget, built on every call, the second in blocks of 2^14 rows. The
other lines are those of earlier listings, byte for byte, so two
versions still compare line by line. The signal layer is
swept over ``derivative_values`` of the power-decay cosine and sine at
p = 2, 2.5, 3, 3.5, 4, 5 and 6 and orders 0..3 wherever p - order > 1 (the
Bernoulli closed forms, the integer-order polylogarithm and the
non-integer pole pair), and of the suite's harmonic sums at order 0, at
seeded points with |t| up to 20, among them 0 and +-pi. Those lines are
kept as they were; 1,005 points fit in one of the polylogarithm's blocks
of 4096 angles, so every derivative without a Bernoulli closed form is
also hashed at 10,000 more seeded points, three blocks, as a
``signal-blocks`` line. The direct DFT
(``discrete_coeffs``) is swept over seeded unit-normal samples at n = 1..40,
64, 127, 128, 256, 711, 712, 1024 and 2048: one cached row block of the
phase table up to n = 127, two from n = 128, 31 at n = 711 (the largest
grid whose blocks all fit the cache, so it is cached), and more blocks
than the cache holds, gathered per call and not cached, from n = 712
(33 blocks). Last, one ``lerch s=... N=...`` line hashes each full Lerch
expansion table the spline and signal sweeps read
(``_series.lerch_coefficients(s, N)``: the log-type splines' (s, N) and
the polylogarithm's (s, 1)), so the tables' own bits are compared, not
only the values built from them. It prints one
``label sha256`` line per configuration, spline quantity, signal
derivative or table, hashing the exact bits of every value, or ``label refused
<error> <sha256 of the message>`` where the configuration or the
quantity is refused. The package is the one on the import path, so two
versions compare by running the script once against each and diffing
the listings:

    PYTHONPATH=path/to/base/src python tools/kernel_digest.py > base.txt
    PYTHONPATH=src python tools/kernel_digest.py > head.txt
    diff base.txt head.txt

A RuntimeWarning from NumPy is an error here, so a value that silently
left the float range shows as a refusal.
"""

import hashlib
import warnings

import numpy as np

from trigspec import (
    FilterVariant,
    KernelConfig,
    SampleVector,
    build_spline,
    discrete_coeffs,
    filter_response,
    folded_coefficients,
    harmonic_sum,
    make_grid,
    power_decay_cosine,
    power_decay_sine,
    raw_gain,
    spline_eval,
    suite_signals,
    unfolded_spectrum,
    values_on_uniform_grid,
)
from trigspec._series import lerch_coefficients
from trigspec.errors import NumericalError
from trigspec.signal_model import HARMONIC_SUM, derivative_values
from trigspec.spline_kernel import class_partition_terms, response_table_to_csv
from trigspec.trig_spline import series_truncation

SIZES = (*range(1, 41), 64, 100, 128, 200, 256)
ORDERS = (*range(1, 13), 20, 40, 100, 150, 160, 170, 200)
FOLD_SIZES = (*range(1, 41), 64, 128)
POWERS = (2.0, 2.5, 3.0, 4.0, 6.0)
SPLINE_SIZES = (*range(1, 17), 64)
SPLINE_ORDERS = (*range(1, 13), 40, 100, 150)
EVAL_GRIDS = (64, 1000)   # besides the spline's own N nodes
# Up to R + 1 points are summed angle by angle and more through the cell
# table, with R = order + 1 expansion columns where s = order + 1 is even or
# the family is signed, else R = order + 65.
SCATTER_POINTS = (32, 512)
# n, order and lengths J of the spline-large lines: laws far above the
# plans' size budget, one of them built in blocks.
LARGE_LAW = (64, 2, (4096, 40_000))
DFT_SIZES = (*range(1, 41), 64, 127, 128, 256, 711, 712, 1024, 2048)
SIGNAL_POWERS = (2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0)
SIGNAL_ORDERS = (0, 1, 2, 3)
SIGNAL_POINTS = np.concatenate((
    [0.0, np.pi, -np.pi, 20.0, -20.0],
    np.random.default_rng(2019).uniform(-20.0, 20.0, 1000),
))
BLOCK_POINTS = np.random.default_rng(4096).uniform(-20.0, 20.0, 10_000)


def _sha(values):
    h = hashlib.sha256()
    for v in values:
        h.update(np.asarray(v, dtype=float).tobytes())
    return h.hexdigest()


def _refusal(label, exc):
    msg = hashlib.sha256(str(exc).encode()).hexdigest()
    return f"{label} refused {type(exc).__name__} {msg}"


def kernel_lines():
    for variant in FilterVariant:
        for order in ORDERS:
            for n in SIZES:
                label = f"table {variant.value} r{order} n{n}"
                config = KernelConfig(grid=make_grid(n), order=order, variant=variant)
                try:
                    sums = filter_response(config, n).class_sums
                except (NumericalError, RuntimeWarning) as exc:
                    yield _refusal(label, exc)
                    continue
                parts = [class_partition_terms(k, config, 8) for k in range(1, n + 1)]
                csv = response_table_to_csv(filter_response(config, 2 * config.grid.N))
                # The constant-class sum is the H cell of row j = N; 17
                # significant digits give back its exact bits.
                dc_sum = float(csv.splitlines()[config.grid.N].split(",")[3])
                # The hashed layout is that of earlier listings, which read
                # sigma_k, H_k and the constant-class sum off the class table
                # (H_k stands twice), so two versions still compare line by line.
                yield f"{label} " + _sha([
                    raw_gain(np.arange(1, n + 1), config), sums, dc_sum, sums, parts,
                    np.frombuffer(csv.encode(), dtype=np.uint8),
                ])


def spline_lines():
    for n in SPLINE_SIZES:
        grid = make_grid(n)
        samples = SampleVector(grid, np.random.default_rng(n).standard_normal(grid.N))
        warm_samples = SampleVector(grid, np.random.default_rng([n, 2]).standard_normal(grid.N))
        scatter_points = {P: np.random.default_rng([n, P]).uniform(0.0, 2.0 * np.pi, P)
                          for P in SCATTER_POINTS}
        for variant in FilterVariant:
            for order in SPLINE_ORDERS:
                config = KernelConfig(grid=grid, order=order, variant=variant)
                for kind, vector in (("spline", samples), ("spline-warm", warm_samples)):
                    label = f"{kind} {variant.value} r{order} n{n}"
                    yield from _spline_quantity_lines(label, vector, config, scatter_points)
    n, order, lengths = LARGE_LAW
    grid = make_grid(n)
    samples = SampleVector(grid, np.random.default_rng(n).standard_normal(grid.N))
    for variant in FilterVariant:
        config = KernelConfig(grid=grid, order=order, variant=variant)
        for J in lengths:
            label = f"spline-large {variant.value} r{order} n{n} unfolded{J}"
            try:
                yield f"{label} " + _sha(unfolded_spectrum(build_spline(samples, config), J))
            except (NumericalError, RuntimeWarning) as exc:
                yield _refusal(label, exc)


def _spline_quantity_lines(label, samples, config, scatter_points):
    grid = config.grid
    try:
        spline = build_spline(samples, config)
    except (NumericalError, RuntimeWarning) as exc:
        yield _refusal(label, exc)
        return
    quantities = [
        ("unfolded", lambda: unfolded_spectrum(spline, 4 * grid.N)),
        ("truncation", lambda: series_truncation(spline)),
        *((f"grid{G}", lambda G=G: [values_on_uniform_grid(spline, G)])
          for G in (grid.N, *EVAL_GRIDS)),
        *((f"scatter{P}", lambda t=t: [spline_eval(spline, t)])
          for P, t in scatter_points.items()),
    ]
    for name, compute in quantities:
        try:
            yield f"{label} {name} " + _sha(compute())
        except (NumericalError, RuntimeWarning) as exc:
            yield _refusal(f"{label} {name}", exc)


def fold_lines():
    for n in FOLD_SIZES:
        grid = make_grid(n)
        rng = np.random.default_rng(n)
        top = 5 * grid.N
        ks = rng.choice(top + 1, size=min(top + 1, 40), replace=False)
        ab = rng.standard_normal((ks.size, 2))
        signals = [("harmonic", harmonic_sum(
            (int(k), a, b if k else 0.0) for k, (a, b) in zip(ks, ab)))]
        for p in POWERS:
            signals.append((f"cos p{p}", power_decay_cosine(p, r=0, variation=1.0)))
            signals.append((f"sin p{p}", power_decay_sine(p, r=0, variation=1.0)))
        for name, signal in signals:
            reps = [folded_coefficients(signal, grid, k) for k in range(n + 1)]
            yield f"fold {name} n{n} " + _sha([(r.folded_a, r.folded_b) for r in reps])


def dft_lines():
    for n in DFT_SIZES:
        grid = make_grid(n)
        values = np.random.default_rng(n).standard_normal(grid.N)
        spectrum = discrete_coeffs(SampleVector(grid, values))
        yield f"dft n{n} " + _sha([spectrum.a0, spectrum.a, spectrum.b])


def _bernoulli_form(kind, s, order):
    # The order-th derivative is a cosine series at even orders of the
    # cosine kind and odd orders of the sine kind; it has a Bernoulli closed
    # form for an integer s of matching parity (even for the cosine).
    cosine = (kind == "cos") == (order % 2 == 0)
    return s == int(s) and s % 2 == (0 if cosine else 1)


def signal_lines():
    for p in SIGNAL_POWERS:
        for kind, maker in (("cos", power_decay_cosine), ("sin", power_decay_sine)):
            signal = maker(p, r=0, variation=1.0)
            for order in SIGNAL_ORDERS:
                if p - order > 1:
                    values = derivative_values(signal, order, SIGNAL_POINTS)
                    yield f"signal {kind} p{p} d{order} " + _sha([values])
    for name, signal in suite_signals().items():
        if signal.kind == HARMONIC_SUM:
            yield f"signal {name} d0 " + _sha([derivative_values(signal, 0, SIGNAL_POINTS)])
    for p in SIGNAL_POWERS:
        for kind, maker in (("cos", power_decay_cosine), ("sin", power_decay_sine)):
            signal = maker(p, r=0, variation=1.0)
            for order in SIGNAL_ORDERS:
                if p - order > 1 and not _bernoulli_form(kind, p - order, order):
                    values = derivative_values(signal, order, BLOCK_POINTS)
                    yield f"signal-blocks {kind} p{p} d{order} " + _sha([values])


def lerch_lines():
    # The full Lerch tables the sweeps above read: (s, N) of every spline
    # whose s = order + 1 is odd and whose family is not signed (a
    # polynomial spline reads only r + 1 columns), and (s, 1) of every
    # signal derivative without a Bernoulli closed form.
    keys = {(float(order + 1), 2 * n + 1)
            for n in SPLINE_SIZES for order in SPLINE_ORDERS if order % 2 == 0}
    keys |= {(p - order, 1)
             for p in SIGNAL_POWERS for kind in ("cos", "sin") for order in SIGNAL_ORDERS
             if p - order > 1 and not _bernoulli_form(kind, p - order, order)}
    for s, N in sorted(keys):
        yield f"lerch s={s:g} N={N} " + _sha(lerch_coefficients(s, N))


if __name__ == "__main__":
    warnings.simplefilter("error", RuntimeWarning)
    for line in (*kernel_lines(), *spline_lines(), *fold_lines(), *signal_lines(), *dft_lines(),
                 *lerch_lines()):
        print(line)
