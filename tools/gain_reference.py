"""Write reference gains and grid values, computed at 50 digits, to ``tests/data``.

``gain_reference.json`` holds gains and ``grid_reference.json`` spline
values on uniform grids.

For each configuration (n, order, variant) below it evaluates, with
mpmath at 50 significant digits, the normalized gains alpha_j =
sigma_j / H_k for j = 1..2N+n and the in-band gains 1/(1 + rho_k) for
k = 1..n. The class sums come from their definition as sums of raw
gains, independent of the library's ratio form,

    H_k = F_k [k^-s + sum_m eps (mN + k)^-s + sum_m eps (mN - k)^-s],

with F_k = (N sin(pi k/N)/pi)^s (1 for inverse power), which cancels in
every gain, and each fold series in closed form through Hurwitz zeta
values, which mpmath carries without leaving its exponent range. Values
are written as decimal strings of 25 significant digits.

Each grid entry holds a seeded discrete spectrum as exact floats and the
spline's values at t_g = 2 pi g/G, g = 0..G-1. They come from the same
class sums through the Hurwitz fold of the whole series onto the grid:
member j = mN +- k carries eps_j (k/j)^s / (1 + rho_k) times the class's
discrete coefficient, and the members of one residue mod G form P
progressions of step P N, P = G/gcd(N, G), each a Hurwitz zeta value
(alternating when the signed family's sign flips along it).

mpmath is not a dependency of the package; run this by hand after a
change to the gain definition:

    python tools/gain_reference.py
"""

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np

VARIANTS = ("sinc", "abs-sinc", "inv-power")
# n = 8 at the orders of tools/cli_digest.py, then n = 64 up to order 200;
# sinc at even order is the signed family.
CONFIGS = (
    *((8, order, variant) for order in (1, 2, 3, 10, 40) for variant in VARIANTS),
    (16, 2, "sinc"),
    (64, 40, "inv-power"),
    (64, 100, "inv-power"),
    (64, 40, "abs-sinc"),
    (64, 100, "sinc"),
    (64, 132, "sinc"),
    (64, 150, "abs-sinc"),
    *((64, 200, variant) for variant in VARIANTS),
)
# (n, order, variant, G): G = N, 3N and a coprime 64 at n = 8, N and 64 at
# n = 16, n = 64 at high order, G = 256 at n = 8 and at n = 64, order 150,
# and G = 512 at n = 8 for two spline files of tools/cli_digest.py.
# Evaluation sums angle by angle up to R + 1 distinct angles and through the
# cell table beyond, with R = order + 1 expansion columns where s = order + 1
# is even or the family is signed, else R = order + 65.
GRID_CONFIGS = (
    *((8, order, variant, G) for G in (17, 51, 64) for order in (1, 2, 3, 10, 40)
      for variant in VARIANTS),
    *((16, order, variant, G) for G in (33, 64) for order in (1, 2, 3, 10, 40)
      for variant in VARIANTS),
    *((64, order, variant, 64) for order in (3, 150, 200) for variant in VARIANTS),
    *((8, order, variant, 256) for order in (1, 2, 3, 10, 40) for variant in VARIANTS),
    *((64, 150, variant, 256) for variant in VARIANTS),
    (8, 1, "inv-power", 512),
    (8, 2, "sinc", 512),
)
DATA = Path(__file__).resolve().parent.parent / "tests" / "data"


def _branch(s, N, off, signed):
    # sum_{m>=1} eps_m (mN + off)^-s, eps_m = (-1)^m when signed. Every
    # power is an mpf: a Python float N^-s would underflow.
    N = mp.mpf(N)
    if not signed:
        return N ** -s * mp.zeta(s, 1 + off / N)
    even = (2 * N) ** -s * mp.zeta(s, 1 + off / (2 * N))
    odd = (2 * N) ** -s * mp.zeta(s, (N + off) / (2 * N))
    return even - odd


def _class_sums(n, s, signed):
    # k^-s times (1 + rho_k), k = 1..n.
    N = 2 * n + 1
    sums = []
    for k in range(1, n + 1):
        plus = _branch(s, N, k, signed)
        minus = _branch(s, N, -k, signed)
        # The signed family's sign on mN - k is -(-1)^m.
        sums.append(mp.mpf(k) ** -s + plus + (-minus if signed else minus))
    return sums


def _family(order, variant):
    s = order + 1
    return s, variant == "sinc" and s % 2 == 1


def reference(n, order, variant):
    N = 2 * n + 1
    s, signed = _family(order, variant)
    inverse = variant == "inv-power"
    sums = _class_sums(n, s, signed)
    dc = 1 + 2 * mp.mpf(N) ** -s * mp.zeta(s) if inverse else mp.mpf(1)
    gains = []
    for j in range(1, 2 * N + n + 1):
        res = j % N
        k = min(res, N - res)
        if k == 0:
            gains.append(mp.mpf(j) ** -s / dc if inverse else mp.mpf(0))
            continue
        sign = -1 if signed and (j // N) % 2 == 1 else 1
        # sigma_j / H_k: the factor F_k is common to both and cancels.
        gains.append(sign * mp.mpf(j) ** -s / sums[k - 1])
    band = [mp.mpf(k) ** -s / sums[k - 1] for k in range(1, n + 1)]
    return band, gains


def _progression(s, j0, step, alternating):
    # sum_{i>=0} (+-1)^i (j0 + i step)^-s.
    if not alternating:
        return step ** -s * mp.zeta(s, j0 / step)
    two = 2 * step
    return two ** -s * (mp.zeta(s, j0 / two) - mp.zeta(s, (j0 + step) / two))


def grid_reference(n, order, variant, G, a0, a, b):
    """Spline values at t_g = 2 pi g/G from the Hurwitz fold at the working precision."""
    N = 2 * n + 1
    s, signed = _family(order, variant)
    sums = _class_sums(n, s, signed)
    P = G // math.gcd(N, G)
    W = [mp.mpc(0)] * G
    for k in range(1, n + 1):
        coeff = [mp.mpc(a[k - 1], -b[k - 1]), mp.mpc(a[k - 1], b[k - 1])]
        scale = mp.mpf(k) ** -s / sums[k - 1]
        W[k % G] += scale * coeff[0]
        for branch, c in zip((1, -1), coeff):
            for m in range(1, P + 1):
                j0 = m * N + branch * k
                # eps_j = (-1)^(j // N) in the signed family, which flips
                # along the progression when P is odd.
                sign = -1 if signed and (j0 // N) % 2 == 1 else 1
                tail = _progression(s, mp.mpf(j0), mp.mpf(P * N), signed and P % 2 == 1)
                W[j0 % G] += sign * tail / sums[k - 1] * c
    values = []
    for g in range(G):
        total = mp.mpf(a0) / 2
        for rho, w in enumerate(W):
            total += mp.re(w * mp.expjpi(mp.mpf(2 * rho * g) / G))
        values.append(total)
    return values


def main():
    mp.mp.dps = 50
    entries = []
    for n, order, variant in CONFIGS:
        band, gains = reference(n, order, variant)
        entries.append({
            "n": n, "order": order, "variant": variant,
            "band_gains": [mp.nstr(v, 25) for v in band],
            "gains": [mp.nstr(v, 25) for v in gains],
        })
    _write("gain_reference.json", {"digits": 25, "j_max": "2N + n", "configs": entries})
    entries = []
    for i, (n, order, variant, G) in enumerate(GRID_CONFIGS):
        rng = np.random.default_rng(i)
        a0 = float(rng.standard_normal())
        a, b = rng.standard_normal((2, n)).tolist()
        values = grid_reference(n, order, variant, G, a0, a, b)
        entries.append({
            "n": n, "order": order, "variant": variant, "G": G, "a0": a0, "a": a, "b": b,
            "values": [mp.nstr(v, 25) for v in values],
        })
    _write("grid_reference.json", {"digits": 25, "configs": entries})


def _write(name, doc):
    DATA.mkdir(parents=True, exist_ok=True)
    (DATA / name).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {DATA / name}")


if __name__ == "__main__":
    main()
