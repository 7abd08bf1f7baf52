"""Write reference harmonic-sum values on uniform grids, computed at 40 digits, to ``tests/data``.

``harmonic_grid_reference.json`` holds, for each grid size G in SIZES,
one seeded harmonic sum of up to 48 distinct indices k drawn from 0..4G
with unit-normal coefficients (a_k, b_k), b_0 = 0, and its values

    f(g) = sum_k a_k cos(2 pi k g/G) + b_k sin(2 pi k g/G)

at every g for G <= 129 and at POINTS seeded points (0, G/4, G/2 and
3G/4 among them) above that, summed with mpmath at 40 significant digits
from the exact binary values of the coefficients and the exact rational
phase (k g mod G)/G. The coefficients are stored as exact floats, so the
test does not depend on the random generator's stream, together with the
scale sum_k (|a_k| + |b_k|) of the test's tolerance. Values are written as
decimal strings of 25 significant digits.

mpmath is not a dependency of the package; run this by hand after a
change to the cases:

    python tools/harmonic_grid_reference.py
"""

import json
from pathlib import Path

import mpmath as mp
import numpy as np

SIZES = (3, 17, 129, 4096, 2**14)
TERMS = 48
POINTS = 64
DATA = Path(__file__).resolve().parent.parent / "tests" / "data"


def case(G):
    rng = np.random.default_rng([2019, G])
    top = 4 * G
    ks = np.sort(rng.choice(top + 1, size=min(TERMS, top + 1), replace=False))
    ab = rng.standard_normal((ks.size, 2))
    ab[ks == 0, 1] = 0.0
    if G <= 129:
        gs = np.arange(G)
    else:
        quarters = np.arange(4) * (G // 4)
        gs = np.unique(np.concatenate((quarters, rng.choice(G, POINTS - 4, replace=False))))
    return ks.tolist(), ab[:, 0].tolist(), ab[:, 1].tolist(), gs.tolist()


def reference(ks, a, b, G, gs):
    terms = [(k, mp.mpf(x), mp.mpf(y)) for k, x, y in zip(ks, a, b)]
    values = []
    for g in gs:
        total = mp.fsum(x * mp.cospi(mp.mpf(2 * (k * g % G)) / G)
                        + y * mp.sinpi(mp.mpf(2 * (k * g % G)) / G) for k, x, y in terms)
        values.append(mp.nstr(total, 25))
    return values


def main():
    mp.mp.dps = 40
    entries = []
    for G in SIZES:
        ks, a, b, gs = case(G)
        scale = mp.fsum(abs(mp.mpf(x)) + abs(mp.mpf(y)) for x, y in zip(a, b))
        entries.append({"G": G, "k": ks, "a": a, "b": b, "points": gs,
                        "abs_scale": mp.nstr(scale, 25),
                        "values": reference(ks, a, b, G, gs)})
    DATA.mkdir(parents=True, exist_ok=True)
    path = DATA / "harmonic_grid_reference.json"
    path.write_text(json.dumps({"digits": 25, "configs": entries}, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
