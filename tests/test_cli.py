import json
from dataclasses import replace

import pytest
from helpers import run_fresh, run_python

from superloop import cli, modrep
from superloop.coeffs import ONE, ZPoly, q
from superloop.weyl import TorsionTriple


def run_main(args):
    return cli.main(args)


def test_weyl_slice_cli(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_main(["weyl-slice", "--Q", "1,-2,1", "--Pprev", "1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["passed"]
    names = [c["name"] for c in report["checks"]]
    assert "weyl-slice dimension = deg Q" in names
    witness = report["checks"][1]["witness"]
    assert witness["theta"] == "0"


def test_cli_stdout_and_exit_zero(capsys):
    code = run_main(["highest-weight", "--M", "2", "--N", "1"])
    assert code == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["passed"]
    hw = report["checks"][0]["witness"]
    assert hw["P"]["1"] == ["1", "-q*a"]
    assert (hw["c"], hw["Q"], hw["P_odd"]) == ("1", ["1"], ["1"])


def test_cli_rational_evaluation_point(capsys):
    code = run_main(["highest-weight", "--M", "2", "--N", "1", "--a", "3"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][0]["witness"]["P"]["1"] == ["1", "-3*q"]
    # the odd node carries the triple (q, 1 - 3z, 1 - 3q^2 z) when M = 1
    assert run_main(["highest-weight", "--M", "1", "--N", "2", "--a", "3"]) == 0
    witness = json.loads(capsys.readouterr().out)["checks"][0]["witness"]
    assert (witness["c"], witness["Q"], witness["P_odd"]) == ("q", ["1", "-3"], ["1", "-3*q**2"])


@pytest.mark.parametrize(
    "perturb",
    [
        lambda hw: replace(hw, P={**hw.P, 1: hw.P[1].scale_arg(q)}),
        lambda hw: replace(hw, torsion=TorsionTriple(-ONE, ZPoly.one(), ZPoly.one())),
        lambda hw: replace(hw, epsilon={**hw.epsilon, 1: -1}),
        lambda hw: replace(hw, k0_eigen=q),
    ],
    ids=["P1", "torsion", "epsilon", "K0"],
)
def test_highest_weight_check_fails_on_wrong_datum(monkeypatch, capsys, perturb):
    extract = modrep.highest_weight
    monkeypatch.setattr(modrep, "highest_weight", lambda *args, **kw: perturb(extract(*args, **kw)))
    assert run_main(["highest-weight", "--M", "2", "--N", "1"]) == 1
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert (check["name"], check["status"]) == ("highest-weight(2,1)", "fail")


def test_cli_config_error_exit_two(capsys):
    code = run_main(["weyl-slice", "--Q", "2,1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_cli_zero_evaluation_point_rejected():
    assert run_main(["highest-weight", "--M", "2", "--N", "1", "--a", "0"]) == 2


@pytest.mark.parametrize(("value", "message"), [("x", "cannot parse scalar 'x'"), ("0", "b must be nonzero")])
def test_cli_second_evaluation_point_validated(capsys, value, message):
    # highest-weight never uses b, yet a bad --b is a bad config
    assert run_main(["highest-weight", "--M", "2", "--N", "1", "--b", value]) == 2
    assert message in _json_error(capsys)


@pytest.mark.parametrize(
    "suite", ["verify-relations", "highest-weight", "tensor-hw", "pbw-rank", "coproduct-check"]
)
def test_cli_equal_ranks_rejected(capsys, suite):
    assert run_main([suite, "--M", "2", "--N", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "M != N" in json.loads(captured.err)["error"]


def test_cli_config_file_merge(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"Q": "1,-2,1", "Pprev": "1,-3"}))
    code = run_main(["weyl-slice", "--config", str(cfg)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["Pprev"] == "1,-3"
    # explicit flags win over the config file
    code = run_main(["weyl-slice", "--config", str(cfg), "--Pprev", "1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["Pprev"] == "1"


def test_exit_status_contract(monkeypatch, capsys):
    def failing_suite(cfg):
        return [cli._check("doomed", False)]

    monkeypatch.setitem(cli.SUITES, "weyl-slice", failing_suite)
    code = run_main(["weyl-slice", "--Q", "1,1"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["passed"]


def test_monoid_determinism(capsys):
    run_main(["monoid", "--count", "4", "--seed", "9"])
    first = capsys.readouterr().out
    run_main(["monoid", "--count", "4", "--seed", "9"])
    second = capsys.readouterr().out
    assert first == second


def test_appendix_a_cli(capsys):
    argv = ["appendix-a", "--nmax", "1", "--window", "1"]
    code = run_main(list(argv))
    assert code == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["passed"]
    assert report["config"]["M"] == 2 and report["config"]["N"] == 2
    # run as a module in a new interpreter: the same report and nothing on stderr
    proc = run_python("-m", "superloop.cli", *argv)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", out)
    assert run_main(["appendix-a", "--M", "3", "--N", "1"]) == 2


def test_sympy_loaded_only_by_suites_that_need_the_field(capsys):
    # appendix-a's scalars all stay Laurent, so it never imports sympy
    lines = run_fresh(
        "import contextlib, io, json, sys\n"
        "from superloop import cli\n"
        "def run(argv):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = cli.main(argv)\n"
        "    print(json.dumps([code, 'sympy' in sys.modules, out.getvalue()]))\n"
        "print(json.dumps('sympy' in sys.modules))\n"
        "run(['appendix-a', '--nmax', '1', '--window', '1'])\n"
        "run(['highest-weight', '--M', '2', '--N', '1'])\n"
    )
    after_import, appendix, highest = map(json.loads, lines)
    assert after_import is False
    assert appendix[:2] == [0, False] and json.loads(appendix[2])["passed"]
    assert run_main(["highest-weight", "--M", "2", "--N", "1"]) == 0
    assert highest == [0, True, capsys.readouterr().out]


def test_appendix_a_rejects_explicit_default_signature(capsys):
    # (2,1) is the default of the other suites, not a request for (2,2)
    assert run_main(["appendix-a", "--M", "2", "--N", "1", "--nmax", "1", "--window", "1"]) == 2
    assert "(2,2)" in _json_error(capsys)


def test_run_config_validation():
    with pytest.raises(cli.ConfigError):
        cli.run(cli.RunConfig(suite="monoid", window=0))
    with pytest.raises(cli.ConfigError):
        cli.run(cli.RunConfig(suite="nope"))


def _json_error(capsys) -> str:
    return json.loads(capsys.readouterr().err)["error"]


def test_cli_nonpositive_count_rejected(capsys):
    assert run_main(["monoid", "--count", "-3"]) == 2
    assert "count" in _json_error(capsys)


def test_cli_module_error_exit_two(capsys):
    assert run_main(["pbw-rank", "--M", "1", "--N", "0"]) == 2
    assert "N >= 1" in _json_error(capsys)


def test_cli_window_above_h_bound_rejected(capsys):
    assert run_main(["verify-relations", "--window", "9"]) == 2
    assert "window <= 4" in _json_error(capsys)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["appendix-a", "--nmax", "0"], "nmax must be positive"),
        (["pbw-rank", "--height", "0"], "height must be positive"),
        (["pbw-rank", "--height", "-1"], "height must be positive"),
        (["highest-weight", "--window", "6"], "window must be below 6"),
        (
            ["tensor-hw", "--M", "1", "--N", "2", "--degree-bound", "1"],
            "no annihilator of degree <= 1",
        ),
    ],
    ids=["nmax-zero", "height-zero", "height-negative", "kernel-window", "degree-bound"],
)
def test_out_of_range_input_exit_two(capsys, argv, message):
    assert run_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in json.loads(captured.err)["error"]


def test_cli_tensor_relations_include_chevalley(capsys):
    args = ["verify-relations", "--M", "2", "--N", "1", "--window", "1", "--tensor", "--chevalley"]
    assert run_main(args) == 0
    names = {c["name"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert "tensor-relations(2,1) chev-deg5(+)" in names


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read config"),
        ("{not json", "cannot read config"),
        ("[1, 2]", "one JSON object"),
        ('{"window": "2"}', "'window' must be of type int"),
        ('{"windw": 2}', "unknown config key 'windw'"),
    ],
    ids=["missing-file", "malformed-json", "json-list", "wrong-type", "unknown-key"],
)
def test_bad_config_exit_two(tmp_path, capsys, content, message):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    assert run_main(["monoid", "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"schema", "error"}
    assert message in err["error"]
