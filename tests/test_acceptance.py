"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Every tolerance is
pinned here, not configurable. Criterion c7 is checked on both sides of
the band edge: exactly at the last in-band harmonic j = n the class
normalization makes the gain rise with the order (sharper filters stay
closer to an ideal brick wall), and the steeper-lies-lower picture is
checked where it holds, beyond the band edge.
"""

import json
import math
import time

import numpy as np
import pytest

from trigspec import (
    FilterVariant,
    KernelConfig,
    aliasing_error_bound,
    band_component,
    build_spline,
    cnorm_error_bound,
    coefficient_bound,
    curvature_functional,
    diff_variation_bound,
    discrete_coeffs,
    filter_response,
    folded_coefficients,
    make_grid,
    quad_fourier_coeff,
    refined_error_bound,
    sample,
    spline_fourier_coeff,
    sup_distance,
    time_domain_overlay_bound,
    true_coefficient,
    values_on_uniform_grid,
)
from trigspec.cli import main as cli_main
from trigspec.spline_kernel import class_partition_terms, gain

from loglog import fit_loglog_slope

SIX_SIGNALS = [
    "harmonic-single",
    "harmonic-mixed",
    "power-cos-2",
    "power-cos-4",
    "power-cos-6",
    "power-sin-3",
]

VARIANTS = {
    "abs-sinc": FilterVariant.ABS_SINC_POWER,
    "inv-power": FilterVariant.INVERSE_POWER,
}


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def _config(n, r, variant, tail_tol=1e-12):
    return KernelConfig(
        grid=make_grid(n), order=r, variant=VARIANTS[variant], tail_tol=tail_tol
    )


def test_c1_interpolation_identity(suite):
    start = time.monotonic()
    worst = 0.0
    for name in SIX_SIGNALS:
        sig = suite[name]
        for n in (2, 8, 16):
            grid = make_grid(n)
            samples = sample(sig, grid)
            for r in (1, 2, 3, 10):
                for variant in VARIANTS:
                    spl = build_spline(samples, _config(n, r, variant))
                    nodes = values_on_uniform_grid(spl, grid.N)
                    err = float(np.max(np.abs(nodes - samples.values)))
                    worst = max(worst, err)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed <= 30.0
    _report(1, ok, f"max node error {worst:.3e} (limit 1e-9), {elapsed:.1f}s/30s")
    assert worst <= 1e-9
    assert elapsed <= 30.0


def test_c2_fold_identity(suite):
    start = time.monotonic()
    worst = 0.0
    for p in (2, 4, 6):
        sig = suite[f"power-cos-{p}"]
        for n in (2, 8, 16):
            grid = make_grid(n)
            spec = discrete_coeffs(sample(sig, grid))
            for k in range(0, n + 1):
                rep = folded_coefficients(sig, grid, k, tol=1e-12)
                dft_a = spec.a0 if k == 0 else spec.a[k - 1]
                dft_b = 0.0 if k == 0 else spec.b[k - 1]
                worst = max(worst, abs(rep.folded_a - dft_a), abs(rep.folded_b - dft_b))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed <= 10.0
    _report(2, ok, f"max |fold - dft| {worst:.3e} (limit 1e-10), {elapsed:.1f}s/10s")
    assert worst <= 1e-10
    assert elapsed <= 10.0


def test_c3_bound_suite(suite):
    start = time.monotonic()
    violations = []

    # Coefficient decay bound, every suite signal, k = 1..64.
    for name, sig in suite.items():
        for k in range(1, 65):
            a, b = true_coefficient(sig, k)
            if max(abs(a), abs(b)) > coefficient_bound(sig.smoothness, k) + 1e-15:
                violations.append(("decay", name, k))

    # Aliasing bound per class and the sup-norm bound, N in {5, 17, 33}.
    for name, sig in suite.items():
        for n in (2, 8, 16):
            grid = make_grid(n)
            spec = discrete_coeffs(sample(sig, grid))
            for k in range(1, n + 1):
                ta, tb = true_coefficient(sig, k)
                measured = max(abs(ta - spec.a[k - 1]), abs(tb - spec.b[k - 1]))
                if measured > aliasing_error_bound(k, grid, sig.smoothness):
                    violations.append(("alias", name, n, k))
            if sig.smoothness.r >= 1:
                t = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
                sup = float(
                    np.max(np.abs(band_component(sig, n, t) - spec(t)))
                )
                if sup > time_domain_overlay_bound(n, sig.smoothness):
                    violations.append(("overlay", name, n))

    # Quadrature-route bounds for order-3 splines on N = 17; 10% slack on
    # the sup-norm check, which rests on a dense-grid estimate of the sup.
    # The refined bound's variation is proved, so it takes none.
    grid = make_grid(8)
    for name in SIX_SIGNALS:
        sig = suite[name]
        spl = build_spline(sample(sig, grid), _config(8, 3, "abs-sinc"))
        sup = sup_distance(sig, spl)
        cbound = cnorm_error_bound(sup)
        q = min(sig.smoothness.r, 3)
        dv = diff_variation_bound(sig, spl, q)
        for k in range(1, 4 * grid.N + 1):
            ta, tb = true_coefficient(sig, k)
            ca, cb = spline_fourier_coeff(spl, k)
            measured = max(abs(ta - ca), abs(tb - cb))
            if measured > 1.1 * cbound:
                violations.append(("cnorm", name, k))
            if measured > refined_error_bound(k, q, dv):
                violations.append(("refined", name, k))

    elapsed = time.monotonic() - start
    ok = not violations and elapsed <= 60.0
    _report(3, ok, f"{len(violations)} violations, {elapsed:.1f}s/60s")
    assert violations == []
    assert elapsed <= 60.0


def test_c4_partition_of_unity():
    worst = 0.0
    for n in (2, 8, 16):
        for r in (1, 3, 10):
            for variant in VARIANTS:
                config = _config(n, r, variant)
                for k in range(1, n + 1):
                    partial, remainder = class_partition_terms(k, config, 64)
                    worst = max(worst, abs(partial + remainder - 1.0))
    ok = worst <= 1e-9
    _report(4, ok, f"max |sum alpha - 1| {worst:.3e} (limit 1e-9)")
    assert worst <= 1e-9


def test_c5_oracle_equivalence(suite):
    worst = 0.0
    grid = make_grid(8)
    for name in ("power-cos-4", "power-cos-6", "power-sin-3"):
        sig = suite[name]
        spl = build_spline(sample(sig, grid), _config(8, 3, "abs-sinc"))
        cache = {}
        for k in range(1, 2 * grid.N + 1):
            qa, qb = quad_fourier_coeff(spl, k, _cache=cache)
            ca, cb = spline_fourier_coeff(spl, k)
            worst = max(worst, abs(qa - ca), abs(qb - cb))
    ok = worst <= 1e-8
    _report(5, ok, f"max |quadrature - closed form| {worst:.3e} (limit 1e-8)")
    assert worst <= 1e-8


def test_c6_decay_orders(suite):
    worst = 0.0
    n = 8
    N = 2 * n + 1
    js = np.arange(2 * N, 8 * N + 1)
    js = js[js % N != 0]
    for r in (1, 3, 10):
        config = _config(n, r, "abs-sinc")
        slope = fit_loglog_slope(js, gain(js, config))
        worst = max(worst, abs(slope + (1 + r)))
    grid = make_grid(n)
    for name in ("power-cos-4", "power-cos-6"):
        sig = suite[name]
        for r in (1, 3, 10):
            spl = build_spline(sample(sig, grid), _config(n, r, "abs-sinc"))
            mags = np.abs([spline_fourier_coeff(spl, int(j))[0] for j in js])
            slope = fit_loglog_slope(js, mags)
            worst = max(worst, abs(slope + (1 + r)))
    ok = worst <= 0.3
    _report(6, ok, f"max slope deviation {worst:.3f} (limit 0.3)")
    assert worst <= 0.3


def test_c7_low_pass_shape():
    n = 16
    tables = {r: filter_response(_config(n, r, "abs-sinc"), 2 * (2 * n + 1))
              for r in (1, 3, 10)}
    near_unity = all(t.gains[0] > 0.8 for t in tables.values())
    decreasing = all(
        bool(np.all(np.diff(t.gains[:n]) < 0)) for t in tables.values()
    )
    ok = near_unity and decreasing
    _report(
        "7 (gain near 1 at j=1; strict in-band decay)",
        ok,
        f"alpha(r,1) = {[round(float(t.gains[0]), 4) for t in tables.values()]}",
    )
    assert near_unity
    assert decreasing


# Rounding allowance on the independent band-edge bracket below.
_BRACKET_ROUNDING = 1e-14


def _band_edge_gain_bracket(n, r, m_terms=10**4):
    """Enclosure (lo, hi) of alpha(r, n), built without the library's class sums.

    For the abs-sinc and inverse-power families the common factor
    |sin(pi n/N)|^(1+r) cancels within class n, so
    alpha(r, n) = 1 / (1 + S) with S = sum_{m>=1} f(m) and
    f(m) = (n/(mN - n))^(1+r) + (n/(mN + n))^(1+r). S is summed directly
    for m <= M; f decreases in m, so the rest lies between the integrals
    of f from M+1 and from M to infinity.
    """
    N = 2 * n + 1
    s = 1 + r
    m = np.arange(1, m_terms + 1, dtype=float)
    partial = math.fsum((n / (m * N - n)) ** s) + math.fsum((n / (m * N + n)) ** s)

    def tail_integral(a):
        # Integral of f from a to infinity.
        return n**s / (N * (s - 1)) * ((a * N - n) ** (1 - s) + (a * N + n) ** (1 - s))

    lo = 1.0 / (1.0 + partial + tail_integral(m_terms))
    hi = 1.0 / (1.0 + partial + tail_integral(m_terms + 1))
    return lo - _BRACKET_ROUNDING, hi + _BRACKET_ROUNDING


def test_c7_band_edge_ordering_as_specified():
    """At the last in-band harmonic: alpha(1, n) < alpha(3, n) < alpha(10, n).

    Normalizing class n to sum to one gives
    alpha(r, n) = 1 / (1 + sum_{m>=1} [(n/(mN-n))^(1+r) + (n/(mN+n))^(1+r)]),
    the same value for the abs-sinc and inverse-power families. Every
    ratio in the sum is below 1, so the sum falls and alpha(r, n) rises
    strictly with r: at the band edge the sharper filter stays closer to
    the ideal brick wall. The steeper-lies-lower ordering holds only
    beyond the band edge (see the companion test below).

    Each gain is also checked against an enclosure built from this
    identity alone (direct partial sum plus integral tail bracket), not
    from the library's class sums. The signed sinc family is left out:
    it promises no ordering (at n = 16, alpha(2, n) = 0.5627 exceeds
    alpha(3, n) = 0.5523).
    """
    edge = {}
    outside = []
    worst_width = 0.0
    for n in (2, 8, 16):
        for r in (1, 3, 10):
            lo, hi = _band_edge_gain_bracket(n, r)
            worst_width = max(worst_width, hi - lo)
            for variant in VARIANTS:
                table = filter_response(_config(n, r, variant), n)
                alpha = float(table.gains[n - 1])
                edge[n, variant, r] = alpha
                if not lo <= alpha <= hi:
                    outside.append((n, variant, r, alpha, lo, hi))
    unordered = [
        (n, variant)
        for n in (2, 8, 16)
        for variant in VARIANTS
        if not edge[n, variant, 1] < edge[n, variant, 3] < edge[n, variant, 10]
    ]
    ok = not outside and not unordered
    _report(
        "7 (band-edge gain rises with order: alpha(1,n) < alpha(3,n) < alpha(10,n))",
        ok,
        f"alpha(r, 16) = {[round(edge[16, 'abs-sinc', r], 4) for r in (1, 3, 10)]} "
        f"for r = 1, 3, 10; {len(outside)} gains outside the independent "
        f"bracket (widest {worst_width:.1e})",
    )
    assert outside == [], (
        "band-edge gain outside the enclosure of "
        "1 / (1 + sum_m [(n/(mN-n))^(1+r) + (n/(mN+n))^(1+r)]): "
        f"{outside}"
    )
    assert unordered == [], (
        "class normalization forces the band-edge gain to rise with r "
        f"(every ratio n/(mN +- n) is below 1); not ordered for {unordered}"
    )


def test_c7_ordering_beyond_band_edge():
    # The intended steeper-lies-lower picture, observed where it holds.
    n = 16
    N = 2 * n + 1
    gains = {}
    for r in (1, 3, 10):
        table = filter_response(_config(n, r, "abs-sinc"), 2 * N)
        gains[r] = table.gains
    for j in (n + 2, n + 5, N - 1, N + 1, 2 * N - 2):
        assert gains[10][j - 1] < gains[3][j - 1] < gains[1][j - 1], j
    _report("7 (ordering beyond the band edge)", True, "holds for all checked j > n+1")


def test_c8_minimal_curvature(suite):
    results = {}
    grid = make_grid(8)
    for name in ("power-cos-4", "power-cos-6", "power-sin-3"):
        sig = suite[name]
        samples = sample(sig, grid)
        spl = build_spline(samples, _config(8, 3, "inv-power"))
        poly = discrete_coeffs(samples)
        results[name] = (
            curvature_functional(spl, 2),
            curvature_functional(poly, 2),
        )
    ok = all(s < p for s, p in results.values())
    detail = ", ".join(f"{k}: {s:.6f} < {p:.6f}" for k, (s, p) in results.items())
    _report(8, ok, detail)
    for name, (s, p) in results.items():
        assert s < p, name


def test_c9_cli_contract(tmp_path):
    spec_path = tmp_path / "sig.json"
    spec_path.write_text(json.dumps({
        "kind": "PowerDecayCosine", "terms": [], "p": 4.0,
        "r": 2, "variation": 4.9348022005446793,
    }))
    # Determinism: byte-identical reruns.
    runs = []
    for tag in ("one", "two"):
        stem = tmp_path / tag
        assert cli_main([
            "spline", "--signal", str(spec_path), "--n", "8", "--r", "3",
            "--eval-grid", "512", "--out", str(stem),
        ]) == 0
        runs.append({
            s: (tmp_path / (tag + s)).read_bytes()
            for s in (".spline.json", ".unfolded.csv", ".eval.csv")
        })
    deterministic = runs[0] == runs[1]

    # Exit codes: success, violation, config error, numerical error.
    codes = {}
    codes["success"] = cli_main([
        "bounds", "--signal", str(spec_path), "--n", "4",
        "--out", str(tmp_path / "ok.csv"),
    ])
    lying = tmp_path / "lying.json"
    lying.write_text(json.dumps({
        "kind": "HarmonicSum", "terms": [[1, 1.0, 0.0]], "p": None,
        "r": 0, "variation": 0.1,
    }))
    codes["violation"] = cli_main([
        "bounds", "--signal", str(lying), "--n", "2",
        "--out", str(tmp_path / "viol.csv"),
    ])
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    codes["config"] = cli_main([
        "dft", "--signal", str(bad), "--n", "2", "--out", str(tmp_path / "no.csv"),
    ])
    hard = tmp_path / "hard.json"
    hard.write_text(json.dumps({
        "kind": "PowerDecaySine", "terms": [], "p": 2.0, "r": 0, "variation": 5.0,
    }))
    codes["numerical"] = cli_main([
        "alias", "--signal", str(hard), "--n", "2", "--tail-tol", "1e-20",
        "--out", str(tmp_path / "no2.csv"),
    ])
    expected = {"success": 0, "violation": 1, "config": 2, "numerical": 3}
    ok = deterministic and codes == expected
    _report(9, ok, f"deterministic={deterministic}, exit codes {codes}")
    assert deterministic
    assert codes == expected
