"""Digest of the trigspec command line's output files, for byte-identity checks.

Runs a fixed set of invocations (``gen-signal``, ``dft`` as CSV and JSON,
``spline --eval-grid 512``, ``response``, ``alias`` and ``bounds`` for the
eq3, eq8, eq9 and filon families) on suite presets at small n, plus a
power signal without a Bernoulli closed form (evaluated through the
polylogarithm), a signed spline on a grid whose fold step is odd, filon
bounds for the other two gain families and a response at order 40. It
prints one ``name sha256`` line per output file, sorted by name. The package is
the one on the import path, so two versions compare by running the script
once against each and diffing the listings:

    PYTHONPATH=path/to/base/src python tools/cli_digest.py > base.txt
    PYTHONPATH=src python tools/cli_digest.py > head.txt
    diff base.txt head.txt

Exits 1 if an invocation reports invalid input or a numerical failure
(exit status 2 or 3), since its missing files would make the listing
incomplete.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

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
    # N = 17 and 51 points: the fold step P = 3 is odd, which takes the
    # alternating Hurwitz branch of the signed (sinc, even order) family.
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


def digest_listing():
    """Run every invocation; return sorted (file name, sha256) pairs and the failures."""
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for label, argv in invocations(out):
            status = main(argv)
            if status not in (0, 1):
                failures.append(f"{label}: exit {status}")
        listing = sorted(
            (path.name, hashlib.sha256(path.read_bytes()).hexdigest())
            for path in out.iterdir()
        )
    return listing, failures


if __name__ == "__main__":
    print(f"trigspec from {Path(trigspec.__file__).parent}", file=sys.stderr)
    listing, failures = digest_listing()
    for name, sha in listing:
        print(name, sha)
    for failure in failures:
        print(f"cli_digest: {failure}", file=sys.stderr)
    sys.exit(1 if failures else 0)
