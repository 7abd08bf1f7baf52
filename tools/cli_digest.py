"""Digest of the trigspec command line's output files and refusals, for byte-identity checks.

Runs a fixed set of invocations (``gen-signal``, ``dft`` as CSV and JSON,
``spline --eval-grid 512``, ``response``, ``alias`` and ``bounds`` for the
eq3, eq8, eq9 and filon families) on suite presets at small n, plus a
power signal without a Bernoulli closed form (evaluated through the
polylogarithm), a signed spline on a grid whose fold step is odd, filon
bounds for the other two gain families, a response at order 40,
splines at n = 64 of order 200 (every family) and of order 150 on a
64-point grid, filon bounds at n = 64 whose variation bounds take q = 0,
2 and 3, one at n = 8 where s is odd and q = r drops to r - 1, and one
whose signal's norm diverges, so only the sum route is finite. It prints
one ``name sha256`` line per output file, sorted by name. A second
fixed set of invocations must be refused (exit status 2 for invalid input,
3 for a numerical failure); each prints as ``label exit=<status>
stderr=<sha256>`` after the files, so a change to an error message or an
exit status shows too. The package is the one on the import path, so two
versions compare by running the script once against each and diffing the
listings:

    PYTHONPATH=path/to/base/src python tools/cli_digest.py > base.txt
    PYTHONPATH=src python tools/cli_digest.py > head.txt
    diff base.txt head.txt

An invocation of the first set that reports invalid input or a numerical
failure (exit status 2 or 3) prints as ``label exit=<status>`` after the
files, so a diff against a version that refuses it shows the invocation,
not only its missing files. The script then exits 1, as it does if a
refusal succeeds.

Run with the store's budget patched to 0, the listing shows that every
stored table and plan gives the bytes of one built for the call:

    PYTHONPATH=src python -c 'import runpy, trigspec._cache as c; c._BUDGET = 0; runpy.run_path("tools/cli_digest.py", run_name="__main__")' > uncached.txt
    diff head.txt uncached.txt
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import trigspec
from trigspec.cli import main

PRESETS = ("harmonic-mixed", "power-cos-4", "power-sin-3")
N_BAND = "8"
# (variant, order) pairs for the spline; sinc at even order is the signed family.
SPLINES = (("abs-sinc", "3"), ("inv-power", "1"), ("sinc", "2"))
VARIANTS = ("sinc", "abs-sinc", "inv-power")
# p = 3 is odd, so the cosine series has no Bernoulli closed form; its
# smoothness class is declared.
POLYLOG_SIGNAL = ('{"kind": "PowerDecayCosine", "p": 3.0, "r": 1, "terms": [], '
                  '"variation": 10.0}')
# p = 2 and r = 0: its fold sums cannot be certified below 1e-20, and the
# eq9 bound needs r >= 1.
ROUGH_SIGNAL = ('{"kind": "PowerDecaySine", "p": 2.0, "r": 0, "terms": [], '
                '"variation": 5.0}')
# p = 2.5 and r = 1: ||f''||_2 diverges (p <= q + 3/2 at q = 1), so the
# filon variation takes the sum route. f' = sum cos(kt)/k^1.5 decreases on
# (0, pi), since f'' = -sum sin(kt)/k^0.5 < 0 there (k^-0.5 is convex and
# decreasing; Zygmund, *Trigonometric Series*, ch. V), so Var(f') =
# 2 (f'(0) - f'(pi)) = 2 (2 - 2^-0.5) zeta(3/2) = 6.7550...
SUM_ROUTE_SIGNAL = ('{"kind": "PowerDecaySine", "p": 2.5, "r": 1, "terms": [], '
                    '"variation": 6.76}')
# A harmonic index of 1e999, which JSON reads as infinity.
INF_INDEX_SIGNAL = ('{"kind": "HarmonicSum", "p": null, "r": 1, "terms": [[1e999, 1.0, 0.0]], '
                    '"variation": 4.0}')


def invocations(out):
    """Yield (label, argv) pairs; every output file lands in `out`."""
    for preset in PRESETS:
        sig = str(out / f"{preset}.signal.json")
        yield f"gen-signal {preset}", ["gen-signal", "--preset", preset, "--out", sig]
        src = ["--signal", sig, "--n", N_BAND]
        for fmt in ("csv", "json"):
            yield f"dft {preset} {fmt}", [
                "dft", *src, "--format", fmt, "--out", str(out / f"{preset}.dft.{fmt}")]
        for variant, r in SPLINES:
            yield f"spline {preset} {variant} r{r}", [
                "spline", *src, "--r", r, "--variant", variant, "--eval-grid", "512",
                "--out", str(out / f"{preset}.{variant}.r{r}")]
        yield f"alias {preset}", ["alias", *src, "--out", str(out / f"{preset}.alias.csv")]
        for family in ("eq3", "eq8", "eq9", "filon"):
            yield f"bounds {preset} {family}", [
                "bounds", *src, "--family", family,
                "--out", str(out / f"{preset}.bounds.{family}.csv")]
        yield f"bounds {preset} filon sinc", [
            "bounds", *src, "--family", "filon", "--variant", "sinc",
            "--out", str(out / f"{preset}.bounds.filon.sinc.csv")]
        yield f"bounds {preset} filon inv-power", [
            "bounds", *src, "--family", "filon", "--variant", "inv-power",
            "--out", str(out / f"{preset}.bounds.filon.inv-power.csv")]
    # N = 17 and 51 points: P = 3 angles shared by 17 points each, the
    # signed (sinc, even order) family's shift of pi included.
    src = ["--signal", str(out / "power-cos-4.signal.json"), "--n", N_BAND]
    yield "spline power-cos-4 sinc r2 grid51", [
        "spline", *src, "--r", "2", "--variant", "sinc", "--eval-grid", "51",
        "--out", str(out / "power-cos-4.sinc.r2.grid51")]
    sig = str(out / "polylog.signal.json")
    yield "gen-signal polylog", ["gen-signal", "--inline", POLYLOG_SIGNAL, "--out", sig]
    src = ["--signal", sig, "--n", N_BAND]
    yield "dft polylog", ["dft", *src, "--out", str(out / "polylog.dft.csv")]
    yield "spline polylog", [
        "spline", *src, "--eval-grid", "512", "--out", str(out / "polylog.abs-sinc.r3")]
    yield "alias polylog", ["alias", *src, "--out", str(out / "polylog.alias.csv")]
    yield "bounds polylog filon", [
        "bounds", *src, "--family", "filon", "--out", str(out / "polylog.bounds.filon.csv")]
    for variant in VARIANTS:
        yield f"response {variant}", [
            "response", "--n", N_BAND, "--r", "1,3,10,40", "--variant", variant,
            "--out", str(out / f"response.{variant}")]
    # n = 64 at orders 150 and 200: the class sums are formed as ratios, so
    # no power of N leaves the float range.
    for variant in VARIANTS:
        yield f"spline r200 {variant}", [
            "spline", "--inline", POLYLOG_SIGNAL, "--n", "64", "--r", "200",
            "--variant", variant, "--out", str(out / f"polylog.{variant}.r200")]
    yield "spline r150 eval-grid 64", [
        "spline", "--inline", _long_harmonic_sum(), "--n", "64", "--r", "150",
        "--eval-grid", "64", "--out", str(out / "harmonic130.abs-sinc.r150")]
    # Filon bounds at n = 64 and order 3, whose variation bounds take
    # q = 2 (harmonic-mixed), q = 0 (power-cos-2) and q = 3 (power-cos-6).
    for preset in ("power-cos-2", "power-cos-6"):
        yield f"gen-signal {preset}", [
            "gen-signal", "--preset", preset, "--out", str(out / f"{preset}.signal.json")]
    for preset in ("harmonic-mixed", "power-cos-2", "power-cos-6"):
        yield f"bounds {preset} filon n64", [
            "bounds", "--signal", str(out / f"{preset}.signal.json"), "--n", "64", "--r", "3",
            "--family", "filon", "--out", str(out / f"{preset}.bounds.filon.n64.csv")]
    # s = 3 is odd and the family unsigned: phi'' has infinite variation,
    # so q = min(4, 2) = 2 drops to 1.
    yield "bounds power-cos-6 filon abs-sinc r2", [
        "bounds", "--signal", str(out / "power-cos-6.signal.json"), "--n", N_BAND, "--r", "2",
        "--variant", "abs-sinc", "--family", "filon",
        "--out", str(out / "power-cos-6.bounds.filon.abs-sinc.r2.csv")]
    yield "bounds sum-route filon", [
        "bounds", "--inline", SUM_ROUTE_SIGNAL, "--n", N_BAND, "--family", "filon",
        "--out", str(out / "sum-route.bounds.filon.csv")]


def _long_harmonic_sum():
    # 130 seeded harmonics at indices 0..129.
    ab = np.random.default_rng(3).standard_normal((130, 2)).tolist()
    terms = [[j, a, b if j else 0.0] for j, (a, b) in enumerate(ab)]
    return json.dumps({"kind": "HarmonicSum", "terms": terms, "p": None, "r": 1,
                       "variation": 1.0})


def refusals(out):
    """Yield (label, argv) pairs that must exit 2 or 3; files land in `out`."""
    sig = ["--inline", POLYLOG_SIGNAL]
    rough = ["--inline", ROUGH_SIGNAL]
    yield "dft n0", ["dft", *sig, "--n", "0", "--out", str(out / "dft.csv")]
    yield "spline no-out", ["spline", *sig, "--n", N_BAND]
    yield "response j-max 1", ["response", "--n", N_BAND, "--j-max", "1", "--out", str(out / "r")]
    yield "response variant nope", [
        "response", "--n", N_BAND, "--variant", "nope", "--out", str(out / "r")]
    yield "gen-signal bad inline", ["gen-signal", "--inline", "{bad", "--out", str(out / "g.json")]
    yield "bounds eq9 r0", [
        "bounds", *rough, "--n", N_BAND, "--family", "eq9", "--out", str(out / "b.csv")]
    yield "alias tail-tol 1e-20", [
        "alias", *rough, "--n", "2", "--tail-tol", "1e-20", "--out", str(out / "a.csv")]
    yield "dft harmonic index inf", [
        "dft", "--inline", INF_INDEX_SIGNAL, "--n", N_BAND, "--out", str(out / "inf.csv")]


def refusal_listing():
    """Run every refusal; return (label, exit status, stderr sha256) triples."""
    listing = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in refusals(Path(tmp)):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                status = main(argv)
            listing.append((label, status, hashlib.sha256(err.getvalue().encode()).hexdigest()))
    return listing


def digest_listing():
    """Run every invocation; return sorted (file name, sha256) pairs and the failures.

    A failure is a (label, exit status) pair.
    """
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for label, argv in invocations(out):
            status = main(argv)
            if status not in (0, 1):
                failures.append((label, status))
        listing = sorted(
            (path.name, hashlib.sha256(path.read_bytes()).hexdigest())
            for path in out.iterdir()
        )
    return listing, failures


if __name__ == "__main__":
    print(f"trigspec from {Path(trigspec.__file__).parent}", file=sys.stderr)
    listing, failed = digest_listing()
    for name, sha in listing:
        print(name, sha)
    failures = []
    for label, status in failed:
        print(f"{label} exit={status}")
        failures.append(f"{label}: exit {status}")
    for label, status, sha in refusal_listing():
        print(f"{label} exit={status} stderr={sha}")
        if status not in (2, 3):
            failures.append(f"{label}: exit {status}, expected a refusal")
    for failure in failures:
        print(f"cli_digest: {failure}", file=sys.stderr)
    sys.exit(1 if failures else 0)
