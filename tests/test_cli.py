"""Command line contract: outputs, determinism, and exit codes."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import trigspec
from trigspec import cli, trig_spline
from trigspec.cli import main


def run(args):
    return main(args)


@pytest.fixture
def constant_spec(tmp_path):
    path = tmp_path / "constant.json"
    doc = {"kind": "HarmonicSum", "terms": [[0, 2.0, 0.0]], "p": None,
           "r": 1, "variation": 0.0}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def cosine_spec(tmp_path):
    path = tmp_path / "cos.json"
    doc = {"kind": "HarmonicSum", "terms": [[1, 1.0, 0.0]], "p": None,
           "r": 3, "variation": 4.0}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def power_spec(tmp_path):
    path = tmp_path / "p4.json"
    doc = {"kind": "PowerDecayCosine", "terms": [], "p": 4.0,
           "r": 2, "variation": 4.9348022005446793}
    path.write_text(json.dumps(doc))
    return str(path)


# -- gen-signal ----------------------------------------------------------------


def test_gen_signal_preset(tmp_path):
    out = tmp_path / "sig.json"
    assert run(["gen-signal", "--preset", "power-cos-4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "PowerDecayCosine"
    assert doc["p"] == 4.0


def test_gen_signal_unknown_preset(tmp_path):
    assert run(["gen-signal", "--preset", "nope", "--out", str(tmp_path / "x")]) == 2


# -- dft -------------------------------------------------------------------------


def test_dft_constant(constant_spec, tmp_path):
    out = tmp_path / "spec.csv"
    assert run(["dft", "--signal", constant_spec, "--n", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,a,b"
    assert float(lines[1].split(",")[1]) == pytest.approx(2.0, abs=1e-14)
    for line in lines[2:]:
        _, a, b = line.split(",")
        assert abs(float(a)) < 1e-14 and abs(float(b)) < 1e-14


def test_dft_cosine_row(cosine_spec, tmp_path):
    out = tmp_path / "spec.csv"
    assert run(["dft", "--signal", cosine_spec, "--n", "2", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    k1 = rows[2].split(",")
    assert float(k1[1]) == pytest.approx(1.0, abs=1e-13)


def test_dft_malformed_spec_no_output(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    out = tmp_path / "never.csv"
    assert run(["dft", "--signal", str(bad), "--n", "2", "--out", str(out)]) == 2
    assert not out.exists()


def test_dft_bad_n(cosine_spec, tmp_path):
    assert run(["dft", "--signal", cosine_spec, "--n", "0",
                "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("command", [
    ["dft"], ["spline", "--j-max", "-1"], ["response"], ["alias"], ["bounds", "--j-max", "-1"],
])
def test_every_grid_command_refuses_n_below_one_first(command, cosine_spec, capsys):
    # The grid size is checked before any other option: spline without
    # --out and a negative --j-max still report --n.
    signal = [] if command[0] == "response" else ["--signal", cosine_spec]
    assert run([*command, *signal, "--n", "0"]) == 2
    assert capsys.readouterr().err == "trigspec: error: --n must be >= 1\n"


_HARMONIC = {"kind": "HarmonicSum", "terms": [[1, 1.0, 0.0]], "p": None, "r": 1,
             "variation": 4.0}
_POWER = {"kind": "PowerDecayCosine", "terms": [], "p": 4.0, "r": 2, "variation": 5.0}


@pytest.mark.parametrize("doc, field", [
    ({**_HARMONIC, "terms": [[float("inf"), 1.0, 0.0]]}, "harmonic indices"),
    ({**_HARMONIC, "r": float("inf")}, "smoothness order r"),
    ({**_POWER, "p": float("inf")}, "finite p > 1"),
    ({**_HARMONIC, "terms": [[2.5, 1.0, 0.0]]}, "harmonic indices"),
    ({**_HARMONIC, "r": [3]}, "smoothness order r"),
], ids=["index 1e999", "r 1e999", "p 1e999", "index 2.5", "r list"])
def test_dft_refuses_a_signal_document_with_a_bad_integer(tmp_path, capsys, doc, field):
    # The first three used to raise OverflowError (exit 1, a traceback);
    # the index 2.5 used to put the term at k = 2. r = [3] is an array
    # where one integer belongs.
    inline = json.dumps(doc).replace("Infinity", "1e999")
    out = tmp_path / "x.csv"
    assert run(["dft", "--inline", inline, "--n", "4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("trigspec: error: ") and field in err
    assert "Traceback" not in err
    assert not out.exists()


# -- spline ------------------------------------------------------------------------


def test_spline_outputs(power_spec, tmp_path):
    stem = str(tmp_path / "run")
    code = run([
        "spline", "--signal", power_spec, "--n", "8", "--r", "3",
        "--variant", "abs-sinc", "--eval-grid", "340", "--out", stem,
    ])
    assert code == 0
    doc = json.loads((tmp_path / "run.spline.json").read_text())
    assert doc["N"] == 17 and doc["r"] == 3
    unfolded = (tmp_path / "run.unfolded.csv").read_text().splitlines()
    assert unfolded[0] == "j,a_hat,b_hat,a_true,b_true,abs_err_a,abs_err_b"
    assert len(unfolded) == 1 + 4 * 17
    eval_rows = (tmp_path / "run.eval.csv").read_text().splitlines()
    assert eval_rows[0] == "t,spline,signal,abs_err"
    # Node columns: every 20th row of the 340-point grid is a grid node.
    node_errs = [float(r.split(",")[3]) for r in eval_rows[1::20]]
    assert max(node_errs) < 1e-9


def test_spline_requires_out(power_spec):
    assert run(["spline", "--signal", power_spec, "--n", "8"]) == 2


# -- response -------------------------------------------------------------------


def test_response_default_orders(tmp_path):
    stem = str(tmp_path / "resp")
    assert run(["response", "--n", "16", "--out", stem]) == 0
    for r in (1, 3, 10):
        lines = (tmp_path / f"resp.r{r}.csv").read_text().splitlines()
        assert lines[0] == "j,k_class,sigma,H,alpha"
        first = lines[1].split(",")
        assert float(first[4]) > 0.8
    lines = (tmp_path / "resp.r1.csv").read_text().splitlines()
    alpha = [float(r.split(",")[4]) for r in lines[1:17]]
    assert all(x > y for x, y in zip(alpha, alpha[1:]))


def test_response_single_order(tmp_path):
    stem = str(tmp_path / "resp")
    assert run(["response", "--n", "4", "--r", "1", "--out", stem]) == 0
    assert (tmp_path / "resp.r1.csv").exists()


def test_response_j_max_below_band(tmp_path):
    assert run(["response", "--n", "16", "--j-max", "10",
                "--out", str(tmp_path / "x")]) == 2


# -- alias ----------------------------------------------------------------------


def test_alias_identity_run(power_spec, tmp_path):
    out = tmp_path / "alias.csv"
    assert run(["alias", "--signal", power_spec, "--n", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("k,a_star_fold")
    for line in lines[1:]:
        cols = line.split(",")
        assert float(cols[5]) <= 1e-10


def test_alias_in_band_signal(cosine_spec, tmp_path):
    out = tmp_path / "alias.csv"
    assert run(["alias", "--signal", cosine_spec, "--n", "2", "--out", str(out)]) == 0


# -- bounds ---------------------------------------------------------------------


def test_bounds_eq3_pass(power_spec, tmp_path):
    out = tmp_path / "b.csv"
    assert run(["bounds", "--signal", power_spec, "--n", "2",
                "--family", "eq3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,measured,bound,holds"
    assert all(line.endswith("true") for line in lines[1:])


def test_bounds_violation_exits_one(tmp_path):
    # A signal whose declared variation is too small: the decay bound fails.
    bad = tmp_path / "lying.json"
    bad.write_text(json.dumps({
        "kind": "HarmonicSum", "terms": [[1, 1.0, 0.0]], "p": None,
        "r": 0, "variation": 0.1,
    }))
    out = tmp_path / "b.csv"
    assert run(["bounds", "--signal", str(bad), "--n", "2",
                "--family", "eq3", "--out", str(out)]) == 1
    assert "false" in out.read_text()


@pytest.mark.parametrize("family", ["eq8", "eq9", "filon"])
def test_bounds_families_pass(power_spec, tmp_path, family):
    out = tmp_path / f"{family}.csv"
    code = run(["bounds", "--signal", power_spec, "--n", "8",
                "--family", family, "--j-max", "20", "--out", str(out)])
    assert code == 0
    assert all(line.endswith("true") for line in out.read_text().splitlines()[1:])


@pytest.mark.parametrize("family", ["eq3", "filon"])
def test_bounds_refuses_a_negative_j_max(power_spec, tmp_path, capsys, family):
    # eq3 used to write a header-only table for --j-max -3 and exit 0.
    out = tmp_path / "b.csv"
    assert run(["bounds", "--signal", power_spec, "--n", "2", "--family", family,
                "--j-max", "-3", "--out", str(out)]) == 2
    assert "--j-max must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option", [["--j-max", "-3"], ["--eval-grid", "-5"]])
def test_spline_refuses_a_bad_option_before_writing(power_spec, tmp_path, capsys, option):
    # Both used to be refused after STEM.spline.json (and, for --eval-grid,
    # STEM.unfolded.csv) had been written.
    stem = tmp_path / "x"
    assert run(["spline", "--signal", power_spec, "--n", "4", *option,
                "--out", str(stem)]) == 2
    assert f"{option[0]} must be" in capsys.readouterr().err
    assert list(tmp_path.glob("x*")) == []


def test_bounds_eq9_needs_smooth_class(tmp_path):
    doc = {"kind": "PowerDecayCosine", "terms": [], "p": 2.0, "r": 0,
           "variation": 4.9348022005446793}
    spec = tmp_path / "p2.json"
    spec.write_text(json.dumps(doc))
    assert run(["bounds", "--signal", str(spec), "--n", "2",
                "--family", "eq9", "--out", str(tmp_path / "x.csv")]) == 2


def test_oversized_input_exits_two(cosine_spec, tmp_path, monkeypatch, capsys):
    # An allocation that fails is bad input, not a failed check (exit 1).
    def refuse(n):
        raise MemoryError(f"cannot allocate a grid of {2 * n + 1} nodes")

    monkeypatch.setattr("trigspec.cli.make_grid", refuse)
    assert run(["dft", "--signal", cosine_spec, "--n", "1000000000000",
                "--out", str(tmp_path / "x.csv")]) == 2
    assert "trigspec: error: input too large: cannot allocate" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["spline", "--n", "4", "--r", "3"], ["alias", "--n", "4"]])
def test_nan_tail_tol_exits_two(power_spec, tmp_path, capsys, command):
    # NaN fails every comparison: spline used to run to J = 64N, alias to certify anything.
    stem = str(tmp_path / "x")
    assert run([*command, "--signal", power_spec, "--tail-tol", "nan", "--out", stem]) == 2
    assert "must be positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "p4.json"]


# -- numerical failure ------------------------------------------------------------


def test_numerical_failure_exit_code(tmp_path, capsys):
    # A fold sum cannot be certified below its rounding floor.
    doc = {"kind": "PowerDecaySine", "terms": [], "p": 2.0, "r": 0,
           "variation": 5.0}
    spec = tmp_path / "hard.json"
    spec.write_text(json.dumps(doc))
    assert run(["alias", "--signal", str(spec), "--n", "2", "--tail-tol", "1e-20",
                "--out", str(tmp_path / "x.csv")]) == 3
    assert "fold sum cannot be certified below tol=1e-20" in capsys.readouterr().err


def _long_harmonic_doc():
    # The seeded 130-term harmonic sum of tests/spline_checks.py.
    ab = np.random.default_rng(3).standard_normal((130, 2)).tolist()
    terms = [[j, a, b if j else 0.0] for j, (a, b) in enumerate(ab)]
    return {"kind": "HarmonicSum", "terms": terms, "p": None, "r": 1, "variation": 1.0}


def _eval_rows(path):
    # Columns t, spline, signal, abs_err of a .eval.csv file.
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def test_eval_grid_at_order_150_matches_the_library(tmp_path, capsys):
    # Order 150 on N = 129 with --eval-grid 64, where (64 N)^-151 is below
    # the float range: the rows are the library's grid values, which agree
    # with scattered evaluation within its bound.
    doc = _long_harmonic_doc()
    assert run(["spline", "--inline", json.dumps(doc), "--n", "64", "--r", "150",
                "--eval-grid", "64", "--out", str(tmp_path / "s")]) == 0
    assert capsys.readouterr().err == ""
    spline = trig_spline.spline_from_json((tmp_path / "s.spline.json").read_text())
    rows = _eval_rows(tmp_path / "s.eval.csv")
    assert rows.shape == (64, 4)
    scattered = trig_spline.spline_eval(spline, rows[:, 0])
    tol = 1e-12 * np.max(np.abs(rows[:, 2])) + trig_spline.scattered_eval_bound(spline)
    assert np.max(np.abs(rows[:, 1] - scattered)) <= tol


def test_spline_truncation_at_order_170_writes_the_series(tmp_path, capsys):
    # Order 170 on N = 129, where (N/pi)^171 is past the float range: the
    # truncation bound is finite, with no warning, and the series has
    # J = N rows.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["spline", "--inline", json.dumps(_long_harmonic_doc()), "--n", "64",
                    "--r", "170", "--eval-grid", "129", "--out", str(tmp_path / "s")])
    assert code == 0 and not caught
    assert capsys.readouterr().err == ""
    doc = json.loads((tmp_path / "s.spline.json").read_text())
    assert doc["J"] == 129 and doc["r"] == 170
    rows = _eval_rows(tmp_path / "s.eval.csv")
    # At the nodes the spline reproduces the signal.
    assert np.max(rows[:, 3]) <= 1e-12 * np.max(np.abs(rows[:, 2]))


@pytest.mark.parametrize("variant", ["abs-sinc", "inv-power", "sinc"])
def test_spline_at_order_200_interpolates(power_spec, tmp_path, capsys, variant):
    # Order 200 on N = 129, where (N/pi)^201 and 64^-201 leave the float
    # range: every family interpolates.
    assert run(["spline", "--signal", power_spec, "--n", "64", "--r", "200",
                "--variant", variant, "--eval-grid", "129", "--out", str(tmp_path / "s")]) == 0
    assert capsys.readouterr().err == ""
    rows = _eval_rows(tmp_path / "s.eval.csv")
    assert np.max(rows[:, 3]) <= 1e-12 * np.max(np.abs(rows[:, 2]))
    spline = trig_spline.spline_from_json((tmp_path / "s.spline.json").read_text())
    assert np.max(np.abs(trig_spline.spline_eval(spline, rows[:, 0]) - rows[:, 2])) <= (
        1e-12 * np.max(np.abs(rows[:, 2])))


# -- determinism -------------------------------------------------------------------


def test_reruns_are_byte_identical(power_spec, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for stem in (out1, out2):
        assert run([
            "spline", "--signal", power_spec, "--n", "8", "--r", "3",
            "--eval-grid", "256", "--out", str(stem),
        ]) == 0
    for suffix in (".spline.json", ".unfolded.csv", ".eval.csv"):
        b1 = (tmp_path / ("a" + suffix)).read_bytes()
        b2 = (tmp_path / ("b" + suffix)).read_bytes()
        assert b1 == b2, suffix


def test_inputs_not_mutated(power_spec, tmp_path):
    before = open(power_spec, "rb").read()
    run(["dft", "--signal", power_spec, "--n", "4", "--out", str(tmp_path / "o.csv")])
    assert open(power_spec, "rb").read() == before


# -- one parser per process ----------------------------------------------------------

PACKAGE_ROOT = Path(trigspec.__file__).resolve().parent.parent


def _in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out.encode(), err.encode()


def _fresh_process(argv):
    # The same argv in a new interpreter: `python -m trigspec.cli`, with the
    # package imported from where this process imported it.
    path = [str(PACKAGE_ROOT), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-m", "trigspec.cli", *argv],
                          capture_output=True, env=env, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def test_calls_sharing_the_parser_match_fresh_processes(tmp_path, capsys):
    # The first call builds the shared parser on an argv argparse refuses;
    # the later ones reuse it. Each gives the bytes and exit code of a
    # fresh process.
    cli._shared_parser.cache_clear()
    power = json.dumps({"kind": "PowerDecayCosine", "terms": [], "p": 4.0,
                        "r": 2, "variation": 4.9348022005446793})
    invocations = [
        (["bounds", "--family", "eq7", "--n", "4"], 2),
        (["bounds", "--family", "eq8", "--inline", power, "--n", "0", "--out", "OUT/refused.csv"], 2),
        (["bounds", "--family", "filon", "--inline", power, "--n", "4", "--out", "OUT/bounds.csv"], 0),
        (["response", "--n", "4", "--r", "1,3", "--out", "OUT/resp"], 0),
    ]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    for argv, code in invocations:
        got = _in_process([a.replace("OUT", str(here)) for a in argv], capsys)
        assert got[0] == code, argv
        assert got == _fresh_process([a.replace("OUT", str(fresh)) for a in argv]), argv
    names = sorted(p.name for p in here.iterdir())
    assert names == ["bounds.csv", "resp.r1.csv", "resp.r3.csv"]
    assert names == sorted(p.name for p in fresh.iterdir())
    for name in names:
        assert (here / name).read_bytes() == (fresh / name).read_bytes(), name


def test_changing_a_built_parser_leaves_main_as_it_was(power_spec, tmp_path, capsys):
    refused = ["bounds", "--family", "eq7", "--n", "4"]
    before = _in_process(refused, capsys)
    parser = cli.build_parser()
    assert parser is not cli.build_parser()
    parser.prog = "changed"
    parser.add_argument("--extra", required=True)
    parser.set_defaults(command="gen-signal")
    assert _in_process(refused, capsys) == before
    assert b"usage: trigspec bounds" in before[2]
    out = tmp_path / "b.csv"
    argv = ["bounds", "--family", "eq8", "--signal", power_spec, "--n", "4", "--out", str(out)]
    assert _in_process(argv, capsys) == (0, b"", b"")
    assert out.read_text().startswith("k,measured,bound,holds\n1,")
