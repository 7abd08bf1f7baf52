"""Write reference gains, computed at 50 digits, to ``tests/data/gain_reference.json``.

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

mpmath is not a dependency of the package; run this by hand after a
change to the gain definition:

    python tools/gain_reference.py
"""

import json
from pathlib import Path

import mpmath as mp

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
OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "gain_reference.json"


def _branch(s, N, off, signed):
    # sum_{m>=1} eps_m (mN + off)^-s, eps_m = (-1)^m when signed. Every
    # power is an mpf: a Python float N^-s would underflow.
    N = mp.mpf(N)
    if not signed:
        return N ** -s * mp.zeta(s, 1 + off / N)
    even = (2 * N) ** -s * mp.zeta(s, 1 + off / (2 * N))
    odd = (2 * N) ** -s * mp.zeta(s, (N + off) / (2 * N))
    return even - odd


def reference(n, order, variant):
    N = 2 * n + 1
    s = order + 1
    signed = variant == "sinc" and s % 2 == 1
    inverse = variant == "inv-power"
    sums = []
    for k in range(1, n + 1):
        plus = _branch(s, N, k, signed)
        minus = _branch(s, N, -k, signed)
        # The signed family's sign on mN - k is -(-1)^m.
        sums.append(mp.mpf(k) ** -s + plus + (-minus if signed else minus))
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
    doc = {"digits": 25, "j_max": "2N + n", "configs": entries}
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
