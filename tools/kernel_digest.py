"""Digest of the spectral-kernel tables, splines and fold sums, for bit-identity checks.

Sweeps class tables, ``class_gain_sum``, ``class_partition_terms``,
``response_table_to_csv`` and ``folded_coefficients`` over n = 1..40 and
64, 100, 128, 200, 256, orders 1..12, 20, 40, 100, 150, 160, 170 and 200,
every gain family, and fold sums of seeded harmonic sums (indices up to
5N) and power signals. The spline layer is swept over splines of seeded
samples at n = 1..16 and 64, orders 1..12, 40, 100 and 150, every gain
family: ``unfolded_spectrum`` to 4N, ``series_truncation`` and
``values_on_uniform_grid`` at G = N, 64 and 1000. It prints one ``label
sha256`` line per configuration or spline quantity, hashing the exact
bits of every value, or ``label refused <error> <sha256 of the message>``
where the class table or the quantity is refused. The package is the one on the import path, so two versions compare by running
the script once against each and diffing the listings:

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
    class_gain_sum,
    class_table,
    filter_response,
    folded_coefficients,
    harmonic_sum,
    make_grid,
    power_decay_cosine,
    power_decay_sine,
    unfolded_spectrum,
    values_on_uniform_grid,
)
from trigspec.errors import NumericalError
from trigspec.spline_kernel import class_partition_terms, response_table_to_csv
from trigspec.trig_spline import series_truncation

SIZES = (*range(1, 41), 64, 100, 128, 200, 256)
ORDERS = (*range(1, 13), 20, 40, 100, 150, 160, 170, 200)
FOLD_SIZES = (*range(1, 41), 64, 128)
POWERS = (2.0, 2.5, 3.0, 4.0, 6.0)
SPLINE_SIZES = (*range(1, 17), 64)
SPLINE_ORDERS = (*range(1, 13), 40, 100, 150)
EVAL_GRIDS = (64, 1000)   # besides the spline's own N nodes


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
                    ct = class_table(config)
                except (NumericalError, RuntimeWarning) as exc:
                    yield _refusal(label, exc)
                    continue
                ks = range(1, n + 1)
                parts = [class_partition_terms(k, config, 8) for k in ks]
                csv = response_table_to_csv(filter_response(config, 2 * config.grid.N))
                yield f"{label} " + _sha([
                    ct.raw_gains, ct.sums, ct.dc_sum,
                    [class_gain_sum(k, config) for k in ks], parts,
                    np.frombuffer(csv.encode(), dtype=np.uint8),
                ])


def spline_lines():
    for n in SPLINE_SIZES:
        grid = make_grid(n)
        samples = SampleVector(grid, np.random.default_rng(n).standard_normal(grid.N))
        for variant in FilterVariant:
            for order in SPLINE_ORDERS:
                label = f"spline {variant.value} r{order} n{n}"
                config = KernelConfig(grid=grid, order=order, variant=variant)
                try:
                    spline = build_spline(samples, config)
                except (NumericalError, RuntimeWarning) as exc:
                    yield _refusal(label, exc)
                    continue
                quantities = [
                    ("unfolded", lambda: unfolded_spectrum(spline, 4 * grid.N)),
                    ("truncation", lambda: series_truncation(spline)),
                    *((f"grid{G}", lambda G=G: [values_on_uniform_grid(spline, G)])
                      for G in (grid.N, *EVAL_GRIDS)),
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


if __name__ == "__main__":
    warnings.simplefilter("error", RuntimeWarning)
    for line in (*kernel_lines(), *spline_lines(), *fold_lines()):
        print(line)
