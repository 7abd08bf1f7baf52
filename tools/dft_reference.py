"""Write reference discrete Fourier coefficients, computed at 40 digits, to ``tests/data``.

``dft_reference.json`` holds, for seeded unit-normal samples f_1..f_N on
the odd grid N = 2n+1, n in SIZES, the coefficients

    a_k = (2/N) sum_j f_j cos(2 pi k (j-1)/N)
    b_k = (2/N) sum_j f_j sin(2 pi k (j-1)/N)

at k = 1, ceil(n/2) and n, summed with mpmath at 40 significant digits
from the exact binary values of the samples, together with the scale
(2/N) sum_j |f_j| of the test's tolerance. The samples are stored as
exact floats, so the test does not depend on the random generator's
stream. Values are written as decimal strings of 25 significant digits.

mpmath is not a dependency of the package; run this by hand after a
change to the cases:

    python tools/dft_reference.py
"""

import json
from pathlib import Path

import mpmath as mp
import numpy as np

SIZES = (1, 2, 8, 64, 256, 1024)
DATA = Path(__file__).resolve().parent.parent / "tests" / "data"


def reference(values, ks):
    N = len(values)
    f = [mp.mpf(v) for v in values]
    # cos/sin of 2 pi m/N at every residue m = k(j-1) mod N, once per N.
    cos = [mp.cospi(mp.mpf(2 * m) / N) for m in range(N)]
    sin = [mp.sinpi(mp.mpf(2 * m) / N) for m in range(N)]
    scale = mp.mpf(2) / N
    rows = []
    for k in ks:
        a = scale * mp.fsum(f[j] * cos[k * j % N] for j in range(N))
        b = scale * mp.fsum(f[j] * sin[k * j % N] for j in range(N))
        rows.append({"k": k, "a": mp.nstr(a, 25), "b": mp.nstr(b, 25)})
    return rows, scale * mp.fsum(abs(v) for v in f)


def main():
    mp.mp.dps = 40
    entries = []
    for n in SIZES:
        values = np.random.default_rng(n).standard_normal(2 * n + 1).tolist()
        ks = sorted({1, -(-n // 2), n})
        rows, size = reference(values, ks)
        entries.append({"n": n, "values": values, "abs_scale": mp.nstr(size, 25),
                        "coefficients": rows})
    DATA.mkdir(parents=True, exist_ok=True)
    path = DATA / "dft_reference.json"
    path.write_text(json.dumps({"digits": 25, "configs": entries}, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
