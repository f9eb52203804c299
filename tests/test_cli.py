"""CLI dispatch, exit codes, precision scoping and report serialization."""

import contextlib
import csv
import importlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
from types import SimpleNamespace

import mpmath
import pytest

import shintani
from shintani import cli, forms, quadrature
from shintani.cli import emit_report


def run(args):
    """main(args) in process: its exit code and what it wrote to stdout
    (output) and stderr."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(args)
        except SystemExit as exc:
            code = exc.code
    return SimpleNamespace(exit_code=code, output=out.getvalue(), stderr=err.getvalue())


def masked(output):
    """CLI output with the wall-time field zeroed."""
    return re.sub(r'"runtime_ms": "?\d+"?', '"runtime_ms": 0', output)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def test_class_number_command():
    r = run(["class-number", "23"])
    assert r.exit_code == 0
    payload = json.loads(r.output)
    assert payload == [{"D": 23, "H": "3"}]


def test_classes_square_regime():
    r = run(["classes", "--disc", "9"])
    assert r.exit_code == 0
    payload = json.loads(r.output)[0]
    assert payload["regime"] == "square"
    assert payload["reps"] == [[0, 3, 0], [0, 3, 1], [0, 3, 2]]


def test_chi_command():
    r = run(["chi", "--delta", "-3", "--form", "0,3,2"])
    assert json.loads(r.output)[0]["chi"] == -1


def test_usage_error_exit_code():
    r = run(["chi", "--delta", "-3", "--form", "zzz"])
    assert r.exit_code == 2
    r = run(["no-such-command"])
    assert r.exit_code == 2
    r = run(["--threads", "2", "class-number", "23"])
    assert r.exit_code == 2
    # arguments the library rejects with ValueError are usage errors too
    for args, message in [
        (["cycle-trace", "--delta", "-4", "--D", "2"],
         "sgn(delta) D must be 0 or 1 mod 4"),
        # E2* has weight 2: cycle-trace has no --k
        (["cycle-trace", "--delta", "5", "--D", "12", "--k", "1"],
         "unrecognized arguments: --k 1"),
        (["classes", "--disc", "2"],
         "disc must be a nonzero integer = 0, 1 mod 4"),
        (["chi", "--delta", "-5", "--form", "1,1,1"],
         "delta must be a fundamental discriminant"),
        (["cm-trace", "--delta", "-3", "--D", "5"],
         "need D < 0 with sgn(delta) D = 0, 1 mod 4"),
        (["theta", "--delta", "-5"], "delta must be a fundamental discriminant"),
        (["theta", "--delta", "-3", "--radius", "0"],
         "need k >= 0 and truncation radius >= 1"),
        (["eta-check", "--k", "-1", "--samples", "2"],
         "need k >= 0 and truncation radius >= 1"),
        (["l-value", "--delta", "3"], "sign condition violated"),
        (["f-series", "--delta", "5"],
         "delta must be a negative fundamental discriminant"),
        (["e32", "--dmax", "-1"], "D_max must be >= 0"),
        (["lift-coeff", "--delta", "-4", "--D", "3", "--grid", "0"],
         "grid and radius must be at least 1"),
        (["lift-coeff", "--delta", "-4", "--D", "3", "--grid", "-1"],
         "grid and radius must be at least 1"),
        (["lift-coeff", "--delta", "-4", "--D", "3", "--v", "-1"], "v must be positive"),
        (["lift-coeff", "--delta", "-4", "--D", "3", "--v", "0"], "v must be positive"),
        (["lift-coeff", "--delta", "-4", "--D", "3", "--radius", "0"],
         "grid and radius must be at least 1"),
        (["lift-coeff", "--delta", "5", "--D", "1"],
         "delta must be a negative fundamental discriminant"),
        # and so is what it rejects with NotImplementedError
        (["lift-coeff", "--delta", "-3", "--D", "3"],
         "square |delta| D needs the cusp counterterm"),
    ]:
        r = run(args)
        assert r.exit_code == 2, (args, r.stderr)
        assert any(line.startswith(f"Error: {message}") for line in r.stderr.splitlines()), \
            (args, r.stderr)
        assert not r.output, args


def test_help_exits_zero():
    for args in (["--help"], ["verify", "--help"]):
        r = run(args)
        assert r.exit_code == 0 and r.output.startswith("usage: shintani"), (args, r.stderr)
    assert "lift-coeff" in run(["--help"]).output
    assert "--identity" in run(["verify", "--help"]).output


def test_readme_examples_parse():
    # every `shintani ...` line of README's sh blocks names a command and
    # options the parser knows (parsed, not run)
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    examples = [line.split("#")[0].split()[1:]
                for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
                for line in block.splitlines() if line.startswith("shintani ")]
    assert examples
    for args in examples:
        try:
            cli._parser().parse_args(cli._glued(args))
        except SystemExit:
            pytest.fail(f"README example does not parse: shintani {' '.join(args)}")


def test_option_values_starting_with_a_minus():
    # a value such as -1,2,3 is read as the option's value, not as an option
    r = run(["chi", "--delta", "-4", "--form", "-1,2,3"])
    assert r.exit_code == 0 and json.loads(r.output)[0]["chi"] == -1, r.stderr
    r = run(["theta", "--delta", "-3", "--tau", "-0.1,0.8", "--z", "-0.2,1.3",
             "--radius", "4"])
    row = json.loads(r.output)[0]
    assert row["tau"] == [-0.1, 0.8] and row["z"] == [-0.2, 1.3], row


def test_verify_hecke_single():
    r = run(["--precision", "25", "verify", "--identity", "hecke",
             "--delta", "-4", "--D", "3"])
    assert r.exit_code == 0
    rows = json.loads(r.output)
    assert len(rows) == 1
    row = rows[0]
    assert row["identity_id"] == "hecke"
    assert float(row["target"]) == 2.0
    assert row["pass"] is True


def test_verify_at_least_precision():
    # at the least precision Precision accepts, the quadrature tolerances
    # shrink with it and the whole identity suite still passes
    r = run(["--precision", "15", "verify"])
    assert r.exit_code == 0, r.output
    assert all(row["pass"] for row in json.loads(r.output))


def test_verify_tolerance_override_failure_exit():
    r = run(["--tolerance", "1e-45", "verify", "--identity", "hecke", "--delta", "-4",
             "--D", "3"])
    # the Hecke trace's quadrature at 40 working digits cannot hit 1e-45,
    # so the suite must fail with exit 1
    assert r.exit_code == 1


def test_cm_trace_command():
    r = run(["cm-trace", "--delta", "1", "--D", "-4", "--F", "J"])
    row = json.loads(r.output)[0]
    assert abs(float(row["value"]) - 492) < 1e-8


def test_e32_command():
    # the holomorphic coefficients H(D) of the weight-3/2 Eisenstein series
    r = run(["e32", "--dmax", "8"])
    H = {row["D"]: row["H"] for row in json.loads(r.output)}
    assert list(H) == list(range(9))
    assert H[0] == "-1/12" and H[1] == H[2] == "0"
    assert H[3] == "1/3" and H[4] == "1/2"
    assert H[7] == H[8] == "1"


def test_eta_check_command():
    # every drawn D0 makes |delta| D0 a discriminant, and the draws reach
    # more than one discriminant
    for args in (["--k", "0", "--samples", "3"], [], ["--k", "1", "--samples", "5"]):
        r = run(["eta-check"] + args)
        assert r.exit_code == 0
        rows = json.loads(r.output)
        assert rows
        for row in rows:
            assert float(row["xi_error"]) < 1e-6
            assert float(row["laplace_error"]) < 1e-4
        if not args:
            discs = {b * b - 4 * a * c for a, b, c in (row["form"] for row in rows)}
            assert len(discs) >= 2, discs


def test_theta_command():
    r = run(["theta", "--delta", "-3", "--radius", "12"])
    row = json.loads(r.output)[0]
    assert "value.re" in row and "tail_bound" in row


def test_f_series_command():
    r = run(["f-series", "--delta", "-3", "--dmax", "1"])
    rows = json.loads(r.output)
    assert rows[0]["index"] == -3 and float(rows[0]["coefficient"]) == 1.0
    assert abs(float(rows[1]["coefficient"]) + 248) < 1e-6
    assert abs(float(rows[1]["imag_residual"])) < 1e-8


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_emit_empty_json(capsys):
    emit_report([], "json")
    assert capsys.readouterr().out.strip() == "[]"


def test_report_roundtrip(capsys):
    emit_report([{"a": 1.5, "b": "x", "c": {"d": 2}}], "json")
    out = capsys.readouterr().out
    assert json.loads(out) == [{"a": "1.5", "b": "x", "c.d": 2}]


def test_csv_header_matches_json_keys(capsys):
    rows = [{"a": 1, "b": 2.0, "c": "z"}]
    emit_report(rows, "json")
    json_keys = list(json.loads(capsys.readouterr().out)[0].keys())
    emit_report(rows, "csv")
    header = capsys.readouterr().out.splitlines()[0].split(",")
    assert header == json_keys
    # rows with different keys: the header is their union in first-seen
    # order, and a row lacking a key leaves its cell empty
    emit_report([{"a": 1, "b": 2}, {"a": 3, "p": {"D": 4}, "b": 5}], "csv")
    assert capsys.readouterr().out.splitlines() == ["a,b,p.D", "1,2,", "3,5,4"]


def test_float_seventeen_digits(capsys):
    import math
    emit_report([{"x": math.pi}], "json")
    out = json.loads(capsys.readouterr().out)[0]["x"]
    assert out == format(math.pi, ".17g")


def test_config_validation():
    # Precision rejects fewer than 15 digits and the parser an unknown
    # format: both are usage errors
    r = run(["--precision", "5", "class-number", "23"])
    assert r.exit_code == 2 and "Error: working_digits must be >= 15" in r.stderr, r.stderr
    r = run(["--format", "xml", "class-number", "23"])
    assert r.exit_code == 2 and "Error: argument --format: invalid choice" in r.stderr, r.stderr
    # an option is never matched by a prefix of its name, and a mistyped
    # option before the command is named, not its value read as the command
    for typo, value in (("--prec", "50"), ("--formt", "csv")):
        r = run([typo, value, "class-number", "23"])
        assert r.exit_code == 2 and not r.output, r.stderr
        assert f"Error: unrecognized arguments: {typo}\n" in r.stderr, r.stderr


def test_no_result_cache(tmp_path, monkeypatch):
    # results are recomputed on every call: the cache flag is a usage error
    # and the old cache variable writes nothing
    r = run(["--cache-dir", str(tmp_path), "class-number", "12"])
    assert r.exit_code == 2
    monkeypatch.setenv("SHINTANI_CACHE_DIR", str(tmp_path))
    r = run(["class-number", "12"])
    assert r.exit_code == 0
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args, code", [
    (["class-number", "23"], 0),
    (["classes", "--disc", "12"], 0),
    (["chi", "--delta", "-4", "--form", "1,2,-2"], 0),
    (["cm-trace", "--delta", "1", "--D", "-4", "--F", "one"], 0),
    (["cycle-trace", "--delta", "-4", "--D", "3"], 0),
    (["l-value", "--delta", "-3"], 0),
    (["f-series", "--delta", "-3", "--dmax", "1"], 0),
    (["e32", "--dmax", "4"], 0),
    (["verify", "--identity", "hecke", "--delta", "-4", "--D", "3"], 0),
    (["--tolerance", "1e-45", "verify", "--identity", "hecke", "--delta", "-4",
      "--D", "3"], 1),
    (["eta-check", "--samples", "1"], 0),
    (["theta", "--delta", "-3", "--radius", "12"], 0),
    (["lift-coeff", "--delta", "-4", "--D", "3", "--grid", "5",
      "--radius", "28"], 0),
    (["--precision", "50", "class-number", "23"], 0),
    (["cycle-trace", "--delta", "-4", "--D", "2"], 2),
])
def test_command_leaves_mp_dps_unchanged(args, code, monkeypatch):
    # each command runs at --precision and restores the caller's mp.dps,
    # on the exit-1 and exit-2 paths as well
    precision = int(args[1]) if args[0] == "--precision" else 30
    seen = []
    emit = cli.emit_report
    monkeypatch.setattr(cli, "emit_report",
                        lambda *a, **kw: seen.append(mpmath.mp.dps) or emit(*a, **kw))
    with mpmath.mp.workdps(17):
        r = run(args)
        assert r.exit_code == code, r.output
        assert mpmath.mp.dps == 17
    assert seen == ([precision] if code != 2 else [])


def test_output_independent_of_cache_state(monkeypatch):
    # a default-precision run prints the same from cold caches as after a
    # --precision 50 run has filled the per-precision caches (coefficient
    # tables, e2_star_data, Clenshaw-Curtis nodes and weights)
    def cold_caches():
        forms.e2_star_data.cache_clear()
        monkeypatch.setattr(quadrature, "_CC_CACHE", {})

    cmds = [["cycle-trace", "--delta", "-4", "--D", "3"],
            ["verify", "--identity", "hecke", "--delta", "-4", "--D", "3"]]
    cold_caches()
    before = [masked(run(args).output) for args in cmds]
    cold_caches()
    for args in cmds + [["l-value", "--delta", "-3"]]:
        assert run(["--precision", "50"] + args).exit_code == 0
    assert [masked(run(args).output) for args in cmds] == before


def test_lift_coeff_command():
    r = run(["lift-coeff", "--delta", "-4", "--D", "3", "--grid", "5",
             "--radius", "28"])
    row = json.loads(r.output)[0]
    assert abs(float(row["coefficient"]) - float(row["target"])) < 5e-2


@pytest.mark.parametrize("args", [
    ["theta", "--delta", "-3"],
    ["classes", "--disc", "12"],
    ["chi", "--delta", "-4", "--form", "1,2,-2"],
    ["eta-check", "--samples", "2"],
])
def test_csv_rows_parse(args):
    # list-valued cells are quoted, so csv.reader reads every row at the
    # header's length, and the cells read back as the JSON values
    rows = list(csv.reader(io.StringIO(run(["--format", "csv"] + args).output)))
    assert len(rows) >= 2 and all(len(row) == len(rows[0]) for row in rows), rows
    first = json.loads(run(args).output)[0]
    key = next(k for k, v in first.items() if isinstance(v, list))
    assert rows[1][rows[0].index(key)] == str(first[key])


def _loaded(code, *args):
    """sys.modules of a fresh process after `code`, which ends by printing
    it as its last line."""
    src = pathlib.Path(cli.__file__).parents[1]
    r = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                       check=True, env={**os.environ, "PYTHONPATH": str(src)})
    return set(json.loads(r.stdout.splitlines()[-1]))


def _loaded_by(*commands):
    """sys.modules of a fresh process after the CLI commands, in turn."""
    return _loaded("import json, sys\n"
                   "from shintani.cli import main\n"
                   "for args in sys.argv[1:]:\n"
                   "    main(args.split())\n"
                   "print(json.dumps(list(sys.modules)))\n", *commands)


def test_commands_without_theta_leave_numpy_unloaded():
    # numpy comes in only with thetacore and lift, which only the theta
    # commands and lift-coeff use
    assert "numpy" not in _loaded_by("class-number 23", "cycle-trace --delta -4 --D 3",
                                     "l-value --delta -3")


def test_exact_and_float_commands_leave_mpmath_unloaded():
    # class-number, classes, chi and e32 run on qforms' integers and
    # lift-coeff on numpy: none loads mpmath, and lift-coeff none of the
    # mpmath modules; cycle-trace still does.  f-series and cm-trace
    # evaluate at CM points and load no cycle integrals.  The parser is
    # argparse, so no command loads click, installed or not
    mp_modules = {"mpmath", "shintani.forms", "shintani.cycles", "shintani.cmtraces"}
    no_cycles = {"shintani.cycles", "shintani.quadrature"}
    for command, absent in [("class-number 23", {"mpmath"}),
                            ("classes --disc 12", {"mpmath"}),
                            ("chi --delta -4 --form 1,2,-2", {"mpmath"}),
                            ("e32 --dmax 4", {"mpmath"}),
                            ("lift-coeff --delta -4 --D 3 --grid 2 --radius 12", mp_modules),
                            ("f-series --delta -3 --dmax 1", no_cycles),
                            ("cm-trace --delta 1 --D -4 --F one", no_cycles)]:
        assert not (absent | {"click"}) & _loaded_by(command), command
    loaded = _loaded_by("cycle-trace --delta -4 --D 3")
    assert "mpmath" in loaded and "click" not in loaded


def test_package_import_is_lazy():
    # a bare import loads no submodule; each public name loads its module
    # on first access and is that module's object
    loaded = _loaded("import json, sys, shintani\nprint(json.dumps(list(sys.modules)))\n")
    assert not {m for m in loaded if m.startswith("shintani.")}, loaded
    exports = {"specfun": ["Precision", "SpecialValue", "DEFAULT_PRECISION"],
               "qforms": ["QForm", "ClassList", "class_reps", "hurwitz_class_number",
                          "genus_char"],
               "forms": ["HarmonicFourierData", "build_standard_forms"],
               "cycles": ["CycleIntegralResult"],
               "cmtraces": ["TraceResult", "IdentityReport"]}
    for module, names in exports.items():
        mod = importlib.import_module(f"shintani.{module}")
        for name in names:
            assert getattr(shintani, name) is getattr(mod, name), name
    with pytest.raises(AttributeError):
        shintani.no_such_name


@pytest.mark.parametrize("delta, D", [(-11, 59), (-11, 83), (-7, 103), (-11, 107),
                                      (-7, 79), (-8, 107)])
def test_cycle_trace_long_regulators(delta, D):
    # closed geodesics with regulators up to 44, whose nodes lie as deep as
    # y ~ 1e-12: the trace converges, is real to 1e-35, and is 12 H(|delta|) H(D)
    # to the 17 printed digits
    from shintani.qforms import hurwitz_class_number
    r = run(["cycle-trace", "--delta", str(delta), "--D", str(D)])
    assert r.exit_code == 0, r.output
    row = json.loads(r.output)[0]
    assert abs(float(row["value.im"])) <= 1e-35, row
    want = 12 * hurwitz_class_number(-delta) * hurwitz_class_number(D)
    assert abs(float(row["value.re"]) - want) <= 1e-15 * want, row


# ---------------------------------------------------------------------------
# golden output
# ---------------------------------------------------------------------------

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"
GOLDEN_COMMANDS = [
    "verify",
    "cycle-trace --delta -3 --D 8",
    "cycle-trace --delta -4 --D 3",
    "cycle-trace --delta -7 --D 3",
    "l-value --delta -3",
    "l-value --delta -4",
    "cm-trace --delta -3 --D -8",
    "f-series --delta -3",
    "eta-check --samples 2",
    "chi --delta -4 --form 1,2,-2",
    "classes --disc 12",
    "e32",
    "class-number 23",
    "lift-coeff --delta -4 --D 3 --grid 5 --radius 28",
    "theta --delta -3 --radius 12",
]


def _golden_outputs():
    """{command: output with runtime_ms masked} at the default precision."""
    return {cmd: masked(run(cmd.split()).output) for cmd in GOLDEN_COMMANDS}


def test_cli_output_matches_golden():
    # the default-precision bytes of the mpmath commands; a change that
    # moves them rewrites tests/data/cli_golden.json (run this file as a
    # script) and says why in CHANGES.md
    assert _golden_outputs() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_cli.py rewrites the golden file
    mpmath.mp.dps = 30
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_golden_outputs(), indent=1) + "\n")
