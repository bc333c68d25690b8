import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from lvfi import cli
from lvfi import expr as ex
from lvfi.cli import main
from lvfi.oracle import AnsatzError
from lvfi.verify import DomainViolation

VOLTERRA = '{"dim":2,"b":[1,-1],"A":[[0,-1],[1,0]],"e":[0,0]}'
GENERIC = '{"dim":2,"b":[1,2],"A":[[3,1],[4,5]],"e":[1,3]}'


@pytest.fixture
def volterra_path(tmp_path):
    p = tmp_path / "volterra.json"
    p.write_text(VOLTERRA)
    return str(p)


@pytest.fixture
def generic_path(tmp_path):
    p = tmp_path / "generic.json"
    p.write_text(GENERIC)
    return str(p)


def test_detect_found_exit_0(volterra_path, capsys):
    assert main(["detect", "--input", volterra_path]) == 0
    out = capsys.readouterr().out
    assert "R2D-C/l1=l2=0" in out
    assert "lie_max" in out


def test_detect_none_exit_3(generic_path, capsys):
    assert main(["detect", "--input", generic_path]) == 3
    assert "no first integral" in capsys.readouterr().out


def test_detect_parse_error_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["detect", "--input", str(p)]) == 1
    assert "error" in capsys.readouterr().err


def test_detect_json_round_trip(volterra_path, capsys):
    assert main(["detect", "--input", volterra_path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["detections"]
    rec = doc["detections"][0]
    h = ex.from_json_obj(rec["integral_ast"])
    assert ex.pretty(h) == rec["integral_pretty"]
    assert rec["verification"]["lie_max"] <= 1e-10
    assert rec["verification"]["max_rel_drift"] <= 1e-6


def test_detect_no_verify_flag(volterra_path, capsys):
    assert main(["detect", "--input", volterra_path, "--no-verify", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["detections"][0].get("verification") is None


def test_verify_pass_and_fail(volterra_path, tmp_path, capsys):
    # detected integral passes
    main(["detect", "--input", volterra_path, "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    ast = doc["detections"][0]["integral_ast"]
    ip = tmp_path / "h.json"
    ip.write_text(json.dumps(ast))
    assert (
        main(["verify", "--input", volterra_path, "--integral", str(ip), "--x0", "0.5,1.0"]) == 0
    )
    capsys.readouterr()
    # H = x1 is not an integral: clean negative
    ip2 = tmp_path / "h2.json"
    ip2.write_text(json.dumps({"op": "var", "i": 1}))
    assert (
        main(["verify", "--input", volterra_path, "--integral", str(ip2), "--x0", "0.5,1.0"]) == 3
    )


def test_verify_domain_error_exit_2(volterra_path, tmp_path, capsys):
    ip = tmp_path / "h.json"
    ip.write_text(json.dumps({"op": "lnabs", "arg": {"op": "var", "i": 2}}))
    # x0 on the x2 axis puts ln|x2| out of domain
    rc = main(["verify", "--input", volterra_path, "--integral", str(ip), "--x0", "1,0"])
    assert rc == 2
    assert "ln|x2|" in capsys.readouterr().err


@pytest.mark.parametrize(
    "node",
    [
        {"op": "add"},
        {"op": "add", "args": 5},
        {"op": "pow", "base": {"op": "var", "i": 1}},
        {"op": "var"},
        {"op": "const", "value": "1/0"},
    ],
    ids=["no-args", "args-not-a-list", "no-exponent", "no-index", "zero-denominator"],
)
def test_verify_malformed_integral_exit_1(volterra_path, tmp_path, capsys, node):
    ip = tmp_path / "h.json"
    ip.write_text(json.dumps(node))
    assert main(["verify", "--input", volterra_path, "--integral", str(ip)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "internal" not in err


def test_verify_unparsable_integral_names_the_file(volterra_path, tmp_path, capsys):
    ip = tmp_path / "empty.json"
    ip.write_text("")
    assert main(["verify", "--input", volterra_path, "--integral", str(ip)]) == 1
    assert capsys.readouterr().err == (
        f"error: the integral in --integral {ip} failed to parse: "
        "Expecting value: line 1 column 1 (char 0)\n"
    )


@pytest.mark.parametrize("value", ["1/0", "x"])
def test_oracle_bad_fraction_is_a_usage_error(volterra_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--input", volterra_path, "--ansatz", "2d", "--alpha", value])
    assert exc.value.code == 2
    assert f"invalid _frac value: '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_sweep_count_below_one_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--rule", "L2-i", "--count", value])
    assert exc.value.code == 2
    assert f"argument --count: must be at least 1, got '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--points", "0"], "argument --points: must be at least 1, got '0'"),
        (["--points", "0", "--no-verify"], "argument --points: must be at least 1, got '0'"),
        (["--step", "0"], "argument --step: must be a positive number, got '0'"),
        (["--t-end", "-1"], "argument --t-end: must be a positive number, got '-1'"),
        (["--t-end", "inf"], "argument --t-end: must be a positive number, got 'inf'"),
        (["--region", "5,1"], "argument --region: must be lo,hi with lo < hi, got '5,1'"),
        (["--region", "1"], "argument --region: must be lo,hi, got '1'"),
        (["--region", "a,2"], "argument --region: invalid _region value: 'a,2'"),
        (["--x0", "abc"], "argument --x0: invalid _point value: 'abc'"),
        (["--x0", "1,nan"], "argument --x0: must be finite numbers, got '1,nan'"),
        *(
            ([flag, v], f"argument {flag}: must be a finite number >= 0, got '{v}'")
            for flag in ("--tol-lie", "--tol-drift")
            for v in ("nan", "inf", "-1")
        ),
    ],
)
def test_bad_verification_flags_are_usage_errors(
    volterra_path, monkeypatch, capsys, flags, message
):
    # rejected while parsing, before any detection runs
    monkeypatch.setattr(cli, "detect2d_full", None)
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--input", volterra_path, *flags])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--tol-lie", "--tol-drift"])
def test_verify_nan_tolerance_is_a_usage_error(volterra_path, tmp_path, capsys, flag):
    # a NaN tolerance would fail every check: FAIL with exit 3, not a usage error
    ip = tmp_path / "h.json"
    ip.write_text(json.dumps({"op": "var", "i": 1}))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--input", volterra_path, "--integral", str(ip), flag, "nan"])
    assert exc.value.code == 2
    assert f"argument {flag}: must be a finite number >= 0, got 'nan'" in capsys.readouterr().err


def test_zero_tolerances_are_accepted(volterra_path, capsys):
    argv = ["detect", "--input", volterra_path, "--tol-lie", "0", "--tol-drift", "0"]
    assert main(argv) == 0


def test_verification_flags_reach_the_checks(volterra_path, monkeypatch, capsys):
    seen = {}

    def lie(h, s, n, region, seed, field=None):
        seen.update(n=n, region=region)
        return 0.0

    def integrate(s, x0, t_end, h, method):
        seen.update(t_end=t_end, h=h)
        return cli_integrate(s, x0, t_end, h, method)

    cli_integrate = cli.integrate
    monkeypatch.setattr(cli, "lie_check", lie)
    monkeypatch.setattr(cli, "integrate", integrate)
    argv = ["detect", "--input", volterra_path, "--points", "7", "--region", "0.5,2",
            "--x0", "1.5,0.5", "--t-end", "0.5", "--step", "0.01", "--format", "json"]
    assert main(argv) == 0
    dets = json.loads(capsys.readouterr().out)["detections"]
    assert seen == {"n": 7, "region": (0.5, 2.0), "t_end": 0.5, "h": 0.01}
    assert dets and all(d["verification"]["x0"] == [1.5, 0.5] for d in dets)


def test_detect_records_an_eval_domain_error_as_the_lie_error(tmp_path, capsys):
    # an R2D-C/main integral holds x1^(2/3): the Lie check on a region with
    # x1 < 0 evaluates a negative base with a non-integer exponent
    p = tmp_path / "s.json"
    p.write_text('{"dim":2,"b":["45/2",3],"A":[[-1,2],["-1/3","1/3"]],"e":[0,0]}')
    assert main(["detect", "--input", str(p), "--region=-1,1", "--format", "json"]) == 0
    (rec,) = json.loads(capsys.readouterr().out)["detections"]
    assert rec["rule"] == "R2D-C/main" and rec["params"] == {"l1": "2/3", "l2": "-5"}
    ver = rec["verification"]
    assert ver["lie_max"] is None
    assert "negative base with non-integer exponent" in ver["lie_error"]
    assert ver["x0"] == [1.0, 1.0]


def test_oracle_zero_and_nonzero(volterra_path, capsys):
    rc = main(
        ["oracle", "--input", volterra_path, "--ansatz", "2d",
         "--alpha", "0", "--beta", "1", "--gamma", "-1"]
    )
    assert rc == 0
    capsys.readouterr()
    rc = main(
        ["oracle", "--input", volterra_path, "--ansatz", "2d",
         "--alpha", "0", "--beta", "1", "--gamma", "0", "--format", "json"]
    )
    assert rc == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["residual"]


def test_oracle_undefined_ansatz_exit_2(tmp_path, capsys):
    p = tmp_path / "s.json"
    p.write_text('{"dim":2,"b":[1,-1],"A":[[0,0],[1,0]],"e":[0,0]}')
    rc = main(["oracle", "--input", str(p), "--ansatz", "2d"])
    assert rc == 2
    assert "undefined" in capsys.readouterr().err


@pytest.mark.parametrize(
    "system, ansatz, message",
    [
        ('{"dim":2,"b":[1,-1],"A":[[0,0],[1,0]],"e":[0,0]}', "2d",
         "separable Ansatz undefined: a12 = 0 or a21 = 0"),
        ('{"dim":2,"b":[1,-1],"A":[[0,1],[1,0]],"e":[0,0]}', "t1", "t1 ansatz needs a 3D system"),
        ('{"dim":3,"b":[1,-1,0],"A":[[0,1,0],[1,0,0],[0,0,0]],"e":[0,0,0]}', "2d",
         "2d ansatz needs a 2D system"),
    ],
    ids=["a12-zero", "t1-on-2d", "2d-on-3d"],
)
def test_oracle_undefined_ansatz_is_an_error_line(tmp_path, capsys, system, ansatz, message):
    p = tmp_path / "s.json"
    p.write_text(system)
    assert main(["oracle", "--input", str(p), "--ansatz", ansatz]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_sweep_pass_and_unknown_rule(capsys):
    assert main(["sweep", "--rule", "R2D-A", "--count", "5", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "5/5 pass" in out
    assert main(["sweep", "--rule", "NOPE", "--count", "2"]) == 1


def test_sweep_domain_error_exit_2(capsys):
    # R2D-D integrals carry rational powers, undefined on a negative region
    rc = main(["sweep", "--rule", "R2D-D", "--count", "3", "--region=-2,-1"])
    assert rc == 2
    assert "domain error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "make",
    [
        lambda: DomainViolation("outside the domain"),
        lambda: ex.EvalDomainError("outside the domain", ex.Var(0), (-1.0,)),
        lambda: AnsatzError("outside the domain"),
    ],
    ids=["DomainViolation", "EvalDomainError", "AnsatzError"],
)
def test_domain_errors_escaping_a_command_exit_2(make, monkeypatch, capsys):
    def handler(args):
        raise make()

    monkeypatch.setattr(cli, "cmd_catalog", handler)
    assert main(["catalog"]) == 2
    assert "domain error: outside the domain" in capsys.readouterr().err


def test_sweep_l5_7d_reports_printed_formula(capsys):
    assert main(["sweep", "--rule", "L5-7d", "--count", "5", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "5/5 pass" in out
    assert "paper_formula_deviation" in out


def test_catalog_lists_rules(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for rid in ["R2D-A", "R2D-E", "L2-iii", "L4-9", "L5-8c", "R3D-TRIV"]:
        assert rid in out


# sha256 of `lvfi catalog --format json`; a new value means the printed
# conditions changed and must be justified.
CATALOG_JSON_SHA256 = "225185b0c75a4af181cc9a36866cde120c81191eb956309ceeca49b2852c6e22"


def test_catalog_json_is_pinned(capsys):
    assert main(["catalog", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CATALOG_JSON_SHA256


def test_seed_env_var(volterra_path, capsys, monkeypatch):
    monkeypatch.setenv("LVFI_SEED", "123")
    assert main(["detect", "--input", volterra_path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    a = doc["detections"][0]["verification"]["lie_max"]
    monkeypatch.setenv("LVFI_SEED", "124")
    main(["detect", "--input", volterra_path, "--format", "json"])
    doc2 = json.loads(capsys.readouterr().out)
    b = doc2["detections"][0]["verification"]["lie_max"]
    assert a != b  # seed actually drives the sampling


# Sampler draws with several detections: every detection of L5-7d's reaches
# its drift from the third start point, L5-6's last detection falls back to
# the second, and no start point suits either of L4-6's detections.
MULTI_DETECTION = [
    '{"dim":3,"b":["-1/3","1/3","-1/3"],'
    '"A":[["-4","3/2","-4/3"],["4","-3/2","0"],["2","3/2","1"]],"e":[0,0,0]}',
    '{"dim":3,"b":["-15/2","15/4","-5/2"],'
    '"A":[["-15/2","-5","3"],["15/4","5/2","-3/2"],["-5/2","-5/3","1"]],"e":[0,0,0]}',
    '{"dim":3,"b":["3/2",0,"-3/2"],'
    '"A":[["-2","-4","-1/3"],[0,0,"-1/2"],["2","4","6"]],"e":["-3/2",0,0]}',
]


@pytest.mark.parametrize("system", MULTI_DETECTION, ids=["L5-7d", "L5-6", "L4-6"])
def test_detect_integrates_each_start_point_once(system, tmp_path, monkeypatch, capsys):
    from lvfi.model import parse_system

    starts = []
    integrate = cli.integrate

    def counting(s, x0, *args):
        starts.append(tuple(x0))
        return integrate(s, x0, *args)

    monkeypatch.setattr(cli, "integrate", counting)
    p = tmp_path / "system.json"
    p.write_text(system)
    assert main(["detect", "--input", str(p), "--format", "json"]) == 0
    dets = json.loads(capsys.readouterr().out)["detections"]
    assert len(dets) >= 2
    assert len(starts) == len(set(starts))
    s = parse_system(system)
    for rec in dets:
        ver = rec["verification"]
        if ver["x0"] is None:
            assert ver["drift_error"]
            continue
        h = ex.from_json_obj(rec["integral_ast"])
        rep = cli.conservation_report(h, integrate(s, ver["x0"], 10.0, 1e-3, "rk4"))
        assert (ver["max_rel_drift"], ver["max_abs_drift"], ver["H0"], ver["blew_up"]) == (
            rep.max_rel_drift, rep.max_abs_drift, rep.H0, rep.blew_up
        )


def test_detect_prints_no_numpy_warnings(tmp_path):
    """H overflows along some of the L4-6 system's candidate orbits; the
    drift then falls back to the next start point, and numpy's overflow and
    invalid-value warnings must not reach stderr."""
    p = tmp_path / "system.json"
    p.write_text(MULTI_DETECTION[2])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from lvfi.cli import main\n"
        "raise SystemExit(main(sys.argv[2:]))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code, src, "detect", "--input", str(p),
         "--format", "json"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0
    assert done.stderr == ""


def test_detect_drift_skips_an_equilibrium_start_point(volterra_path, capsys):
    # (1, 1) is the Volterra system's equilibrium: H = x1 shows drift 0.0
    # along its constant trajectory too, so the drift must come from elsewhere
    assert main(["detect", "--input", volterra_path, "--format", "json"]) == 0
    for rec in json.loads(capsys.readouterr().out)["detections"]:
        ver = rec["verification"]
        assert ver["x0"] not in (None, [1.0, 1.0])
        assert ver["max_rel_drift"] > 0.0
    assert main(["detect", "--input", volterra_path, "--format", "json", "--x0", "1,1"]) == 0
    for rec in json.loads(capsys.readouterr().out)["detections"]:
        ver = rec["verification"]
        assert ver["x0"] is None and ver["max_rel_drift"] is None
        assert "is constant" in ver["drift_error"]


def test_verify_skips_an_equilibrium_start_point(volterra_path, tmp_path, capsys):
    # `verify` picks its start point as `detect` does: all-ones is the
    # Volterra system's equilibrium, so the drift comes from (0.9, 1.1)
    main(["detect", "--input", volterra_path, "--format", "json"])
    ip = tmp_path / "h.json"
    ip.write_text(json.dumps(json.loads(capsys.readouterr().out)["detections"][0]["integral_ast"]))
    assert main(["verify", "--input", volterra_path, "--integral", str(ip), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["x0"] == [0.9, 1.1] and 0.0 < doc["max_rel_drift"] <= 1e-6
    assert {"H0", "max_abs_drift", "lie_max", "sample_count", "blew_up", "pass"} <= set(doc)
    # an explicit equilibrium start point certifies nothing: a domain error
    assert main(["verify", "--input", volterra_path, "--integral", str(ip), "--x0", "1,1"]) == 2
    assert "is constant" in capsys.readouterr().err


def test_detect_pretty_says_why_a_check_gave_no_number(volterra_path, monkeypatch, capsys):
    # the equilibrium start point leaves no drift: the pretty output says why
    assert main(["detect", "--input", volterra_path, "--x0", "1,1"]) == 0
    out = capsys.readouterr().out
    assert "max_rel_drift = None" in out
    assert out.count(
        "    drift_error: the trajectory from x0 = [1.0, 1.0] is constant, so no drift can show"
    ) == 2
    assert "lie_error" not in out

    def no_points(*args, **kwargs):
        raise DomainViolation("could not sample a point clear of log singularities")

    monkeypatch.setattr(cli, "lie_check", no_points)
    assert main(["detect", "--input", volterra_path]) == 0
    out = capsys.readouterr().out
    assert out.count("lie_max = None") == 2
    assert out.count("    lie_error: could not sample a point clear of log singularities") == 2
    assert "drift_error" not in out


def test_detect_drift_error_prints_the_point_as_plain_floats(volterra_path, capsys):
    # from (-1, 0.5) the trajectory reaches the x1 axis, where ln|x2| is undefined
    assert main(["detect", "--input", volterra_path, "--format", "json", "--x0=-1,0.5"]) == 0
    for rec in json.loads(capsys.readouterr().out)["detections"]:
        err = rec["verification"]["drift_error"]
        assert "np." not in err and "float64" not in err
        assert err.endswith(", 0.0)") and "at point (-738.95" in err


@pytest.mark.parametrize("command", ["detect", "verify"])
def test_x0_of_the_wrong_length_is_an_input_error_before_any_work(
    command, volterra_path, tmp_path, monkeypatch, capsys
):
    def unreachable(*args, **kwargs):
        raise AssertionError("ran before the start point was checked")

    for name in ("detect2d_full", "detect3d_full", "lie_check", "integrate"):
        monkeypatch.setattr(cli, name, unreachable)
    ip = tmp_path / "h.json"
    ip.write_text(json.dumps(ex.to_json_obj(ex.Var(0))))
    extra = ["--integral", str(ip)] if command == "verify" else []
    assert main([command, "--input", volterra_path, *extra, "--x0", "1,2,3"]) == 1
    assert capsys.readouterr().err == (
        "error: --x0 has 3 components but the system has dimension 2\n"
    )


def test_detect_builds_one_field_per_call(volterra_path, monkeypatch, capsys):
    """Every Lie check of one `detect` call shares one rhs_floats field (the
    Lie check that built its own built one per detection)."""
    from lvfi import verify

    builds = []
    rhs_floats = verify.rhs_floats

    def counting(s):
        builds.append(s)
        return rhs_floats(s)

    monkeypatch.setattr(verify, "rhs_floats", counting)
    monkeypatch.setattr(cli, "rhs_floats", counting)
    assert main(["detect", "--input", volterra_path, "--format", "json"]) == 0
    dets = json.loads(capsys.readouterr().out)["detections"]
    assert len(dets) == 2 and all(d["verification"]["lie_max"] is not None for d in dets)
    assert len(builds) == 1
    assert main(["detect", "--input", volterra_path, "--no-verify"]) == 0
    assert len(builds) == 1


# The parser registers only the invoked subcommand; what a command line
# parses to, and every help and usage text, must be as with all registered.
PARSER_ARGVS = [
    [], ["-h"], ["--help"], ["bogus"], ["--seed", "3"], ["detect"],
    ["detect", "--input"], ["detect", "--bogus"], ["sweep", "--rule"], ["sweep"],
    ["detect", "--input", "a", "extra"],
    ["oracle", "--input", "s.json", "--ansatz", "t3"],
    *([cmd, "-h"] for cmd in ("detect", "verify", "oracle", "sweep", "catalog")),
    ["detect", "--input", "s.json", "--x0", "1,2", "--seed", "5", "--no-verify"],
    ["verify", "--input", "s.json", "--integral", "h.json", "--method", "rk45"],
    ["oracle", "--input", "s.json", "--ansatz", "t1", "--alpha", "1/2", "--l3", "2"],
    ["sweep", "--rule", "R2D-C", "--count", "3", "--format", "json"],
    ["catalog", "--format", "json"],
]


def _parse(parser, argv, capsys):
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as exc:
        outcome = exc.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda a: " ".join(["lvfi", *a]))
def test_parser_for_the_invoked_subcommand_parses_as_the_full_parser(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    full = _parse(cli.build_parser(), argv, capsys)
    assert _parse(cli.build_parser(argv), argv, capsys) == full
    assert full[1] or full[2] or isinstance(full[0], dict)


def test_parser_is_built_once_per_invoked_subcommand():
    for argv in PARSER_ARGVS:
        assert cli.build_parser(argv) is cli.build_parser(argv)
    assert cli.build_parser(["detect", "--input", "a"]) is cli.build_parser(["detect"])
    assert cli.build_parser(["bogus"]) is cli.build_parser()


def _main_outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_on_shared_parsers_runs_as_on_fresh_ones(volterra_path, tmp_path, monkeypatch, capsys):
    """One process runs several commands on the parsers it built first;
    each must behave as on parsers built for it alone."""
    monkeypatch.setenv("COLUMNS", "80")
    ip = tmp_path / "h.json"
    ip.write_text(json.dumps(ex.to_json_obj(ex.Var(0))))
    argvs = [
        ["detect", "--input", volterra_path, "--x0", "0.5,1.0", "--seed", "7", "--format", "json"],
        ["detect", "--input", volterra_path, "--step", "0"],
        ["verify", "--input", volterra_path, "--integral", str(ip), "--tol-lie", "0.5",
         "--tol-drift", "1e-3", "--format", "json"],
        ["-h"],
        ["verify", "-h"],
        ["detect", "--input", volterra_path, "--seed", "3"],
        ["verify", "--input", volterra_path, "--integral", str(ip), "--tol-lie", "1e3",
         "--tol-drift", "1e3"],
    ]
    shared = [_main_outcome(argv, capsys) for argv in argvs]
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(_main_outcome(argv, capsys))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 3, 0, 0, 0, 0]
