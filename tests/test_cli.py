import hashlib
import json
import re
import time
from dataclasses import replace
from pathlib import Path

import pytest
from helpers import count_field_ops, run_fresh, run_python

from superloop import cli, coeffs, modrep, weyl
from superloop.coeffs import ONE, ZPoly, q
from superloop.weyl import TorsionTriple


def run_main(args):
    return cli.main(args)


# sha256 of the stdout of each command listed in the README
README_DIGESTS = json.loads((Path(__file__).parent / "readme_digests.json").read_text())
# sha256 of the stdout of commands at rational evaluation points, whose
# scalars take integer denominators and the field form, and of the commands
# in pinned_digests.json: Chevalley suites whose level-one Cartan brackets
# nest the nodes out of order, highest weights with field-form E0-, and
# coproduct checks with three Cartan columns or field-form corrections
PINNED_DIGESTS = {
    **json.loads((Path(__file__).parent / "rational_point_digests.json").read_text()),
    **json.loads((Path(__file__).parent / "pinned_digests.json").read_text()),
}


@pytest.mark.parametrize("command", sorted(README_DIGESTS))
def test_readme_command_report_bytes(capsys, command):
    assert run_main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == README_DIGESTS[command]


@pytest.mark.parametrize("command", sorted(PINNED_DIGESTS))
def test_rational_point_report_bytes(capsys, command):
    assert run_main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[command]


def test_weyl_slice_cli(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_main(["weyl-slice", "--M", "1", "--N", "2", "--a", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["passed"]
    names = [c["name"] for c in report["checks"]]
    assert names == ["weyl-slice(1,2) dimension = deg P", "weyl-slice(1,2) P annihilates X-_{1,n} v"]
    # the slice of ev(3) is the line of X-_{1,0} v, and P = 1 - 3 q^2 z
    assert report["checks"][0]["witness"] == {"d": 1, "P": ["1", "-3*q**2"]}
    # on (2,1) the odd node is 2, and X-_{2,n} kills the highest vector
    assert run_main(["weyl-slice", "--M", "2", "--N", "1", "--tensor"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][0]["witness"] == {"d": 0, "P": ["1"]}


def test_unwritable_out_exit_two(tmp_path, capsys):
    # a report that cannot be written is a bad config, not a failed check
    target = tmp_path / "missing" / "report.json"
    assert run_main(["weyl-slice", "--M", "1", "--N", "2", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot write report" in json.loads(captured.err)["error"]
    assert not target.exists()


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
    # points outside the Laurent ring: the measured odd-node window is field-valued
    assert run_main(["highest-weight", "--M", "1", "--N", "2", "--a", "1/2"]) == 0
    witness = json.loads(capsys.readouterr().out)["checks"][0]["witness"]
    odd = (witness["c"], witness["Q"], witness["P_odd"])
    assert odd == ("q", ["1", "(-1)/(2)"], ["1", "(-q**2)/(2)"])
    assert run_main(["highest-weight", "--M", "2", "--N", "1", "--a", "1/(q+1)"]) == 0
    witness = json.loads(capsys.readouterr().out)["checks"][0]["witness"]
    assert witness["P"]["1"] == ["1", "(-q)/(q + 1)"]


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
    code = run_main(["weyl-slice", "--M", "1", "--N", "2", "--a", "0"])
    assert code == 2
    assert "evaluation point a must be nonzero" in _json_error(capsys)


# argparse's usage errors: a missing or unknown suite, an unknown flag, a non-integer value
PARSER_ERRORS = {
    (): "the following arguments are required: suite",
    ("nosuch",): "argument suite: invalid choice: 'nosuch'",
    ("verify-relations", "--bogus"): "unrecognized arguments: --bogus",
    ("verify-relations", "--M", "x"): "argument --M: invalid int value: 'x'",
    # a point that starts with "-" reads as an option unless joined: --a=-q
    ("highest-weight", "--M", "2", "--N", "1", "--a", "-q"): "argument --a: expected one argument",
}


@pytest.mark.parametrize("argv", [list(argv) for argv in PARSER_ERRORS])
def test_cli_parser_errors_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error.keys() == {"schema", "error"} and error["schema"] == cli.SCHEMA
    assert PARSER_ERRORS[tuple(argv)] in error["error"]


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run_main(["--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: superloop") and captured.err == ""


def test_cli_negative_point_joined_to_its_flag(capsys):
    assert run_main(["highest-weight", "--M", "2", "--N", "1", "--a=-q"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"][0]["witness"]["P"]["1"] == ["1", "q**2"]


def test_cli_point_coefficient_bits_bounded(capsys):
    # 10^6000 is larger than 2^coeffs._MAX_BITS: refused, where printing it would
    # pass str()'s 4,300-digit limit; 10^2000 (6,644 bits) is a point
    big = "10^2000*10^2000*10^2000"
    assert run_main(["highest-weight", "--M", "2", "--N", "1", "--a", big]) == 2
    assert "larger than 2^10000" in _json_error(capsys)
    assert run_main(["highest-weight", "--M", "2", "--N", "1", "--a", "10^2000"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["checks"][0]["witness"]["P"]["1"][1] == f"-{10**2000}*q"


def test_cli_zero_evaluation_point_rejected():
    assert run_main(["highest-weight", "--M", "2", "--N", "1", "--a", "0"]) == 2


@pytest.mark.parametrize(
    ("value", "message"),
    [
        ("x", "cannot parse scalar 'x'"),
        ("0", "b must be nonzero"),
        # decimals are not scalars of Q(q, a, b) strings
        ("2.5", "cannot parse scalar '2.5'"),
        ("1e3", "cannot parse scalar '1e3'"),
    ],
)
def test_cli_second_evaluation_point_validated(capsys, value, message):
    # highest-weight never uses b, yet a bad --b is a bad config
    assert run_main(["highest-weight", "--M", "2", "--N", "1", "--b", value]) == 2
    assert message in _json_error(capsys)


def test_point_strings_are_not_evaluated(tmp_path, capsys):
    # a point string that runs code when evaluated is a bad config, from a
    # flag and from a config file, and the code never runs
    target = tmp_path / "touched"
    payload = f"__import__('pathlib').Path({str(target)!r}).touch() or q"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": 2, "N": 1, "a": payload}))
    for argv in (
        ["highest-weight", "--M", "2", "--N", "1", "--a", payload],
        ["highest-weight", "--config", str(cfg)],
    ):
        assert run_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot parse scalar" in json.loads(captured.err)["error"]
    assert not target.exists()


# point strings that are refused, each within a second: nested too deeply for
# the parser or the walk, a null byte, and powers too big to build
REFUSED_POINTS = {
    "parens-300": "(" * 300 + "q" + ")" * 300,
    "minus-2000": "-" * 2000 + "q",
    "minus-100000": "-" * 100_000 + "q",
    "null-byte": "q\0",
    "tower": "9^9^9",
    "huge-exponent": "2^(10^9)",
    "nested-powers": "((q+a+b)^64)^64",
    # values with a coefficient larger than 2^_MAX_BITS, built from powers under it
    "big-coefficient": "10^2000*10^2000*10^2000",
    "big-denominator": "1/(10^2000*10^2000*10^2000)",
    "big-field-value": "1/(q + 10^2000*10^2000*10^2000)",
}


@pytest.mark.parametrize("text", REFUSED_POINTS.values(), ids=REFUSED_POINTS)
def test_refused_point_strings_exit_two(tmp_path, capsys, text):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        coeffs.scalar_from_str(text)
    assert time.perf_counter() - start < 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": 2, "N": 1, "a": text}))
    # "--a=" keeps argparse from reading a leading "-" as an option
    for argv in (["highest-weight", "--M", "2", "--N", "1", f"--a={text}"],
                 ["highest-weight", "--config", str(cfg)]):
        assert run_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"].startswith("cannot parse scalar")


def test_appendix_a_window_zero(capsys):
    # the one-index replay over [0]: the base cases and the first step of each
    assert run_main(["appendix-a", "--nmax", "1", "--window", "0"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks] == [
        "appendix-a lambda(0,0,0) = 0",
        "appendix-a lambda(1,0,0) = lambda(0,0,1)",
        "appendix-a mu(0,0,0,0) = 0",
        "appendix-a mu(0,0,1,0) = mu(0,0,0,1)",
    ]
    assert all(c["status"] == "pass" for c in checks)


def test_point_strings_parse_as_sympy_does():
    # every point string of the README and the digest files, against sympy's parse
    from sympy import sympify

    texts = [(Path(__file__).parent.parent / "README.md").read_text()]
    texts += [" ".join(digests) for digests in (README_DIGESTS, PINNED_DIGESTS)]
    points = {p for text in texts for p in re.findall(r"--[ab] ([^\s`]+)", text)}
    assert points >= {"3", "q+1", "1/2", "2/3", "3/4", "q^2", "1/3"}
    field = coeffs._sym().field
    for text in sorted(points):
        want = coeffs._from_field(field.from_expr(sympify(text.replace("^", "**"), rational=True)))
        assert coeffs.scalar_from_str(text) == want, text


@pytest.mark.parametrize(
    "suite", ["verify-relations", "highest-weight", "tensor-hw", "weyl-slice", "pbw-rank", "coproduct-check"]
)
def test_cli_equal_ranks_rejected(capsys, suite):
    assert run_main([suite, "--M", "2", "--N", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "M != N" in json.loads(captured.err)["error"]


def test_cli_config_file_merge(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": 1, "N": 2, "a": "q"}))
    code = run_main(["weyl-slice", "--config", str(cfg)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["config"]["M"], report["config"]["a"]) == (1, "q")
    assert report["checks"][0]["witness"]["P"] == ["1", "-q**3"]
    # explicit flags win over the config file
    code = run_main(["weyl-slice", "--config", str(cfg), "--a", "3"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["config"]["M"], report["config"]["a"]) == (1, "3")
    assert report["checks"][0]["witness"]["P"] == ["1", "-3*q**2"]


def test_exit_status_contract(monkeypatch, capsys):
    def failing_suite(cfg):
        return [cli._check("doomed", False)]

    monkeypatch.setitem(cli.SUITES, "weyl-slice", failing_suite)
    code = run_main(["weyl-slice", "--M", "1", "--N", "2"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["passed"]


def test_monoid_determinism(capsys):
    run_main(["monoid", "--count", "4", "--seed", "9"])
    first = capsys.readouterr().out
    run_main(["monoid", "--count", "4", "--seed", "9"])
    second = capsys.readouterr().out
    assert first == second


def test_monoid_star_check_fails_on_perturbed_window(monkeypatch):
    # the star check cross-multiplies two scaled windows; f_1 + 1 must fail it alone
    star = weyl.star_product_window

    def perturbed(*args):
        window, scale = star(*args)
        return {**window, 1: window[1] + scale}, scale

    monkeypatch.setattr(weyl, "star_product_window", perturbed)
    report = cli.run(cli.RunConfig(suite="monoid", count=3, seed=9, degree_bound=2))
    failed = [c["name"] for c in report["checks"] if c["status"] != "pass"]
    assert failed == ["star product matches series product"]


@pytest.mark.parametrize("edge", [1, -1])
def test_monoid_star_check_reads_factor_windows_to_their_edge(monkeypatch, edge):
    # the factor windows are shared with the roundtrip; one change at n = +-order fails the star check alone
    star = weyl.star_product_window

    def perturbed(f, g, c, d, order):
        window, scale = f
        n = edge * order
        return star(({**window, n: window[n] + scale}, scale), g, c, d, order)

    monkeypatch.setattr(weyl, "star_product_window", perturbed)
    report = cli.run(cli.RunConfig(suite="monoid", count=3, seed=9, degree_bound=2))
    failed = [c["name"] for c in report["checks"] if c["status"] != "pass"]
    assert failed == ["star product matches series product"]


def test_monoid_suite_passes():
    report = cli.run(cli.RunConfig(suite="monoid", count=3, seed=9, degree_bound=2))
    assert report["checks"] and all(c["status"] == "pass" for c in report["checks"])


def test_monoid_gcd_count(monkeypatch):
    # one gcd question per product and per coprimality test; the checks share products
    gcd = coeffs.poly_gcd
    calls = []

    def counting(p, r):
        calls.append(None)
        return gcd(p, r)

    monkeypatch.setattr(coeffs, "poly_gcd", counting)
    monkeypatch.setattr(weyl, "poly_gcd", counting)
    assert cli.run(cli.RunConfig(suite="monoid", count=3, degree_bound=4, seed=19))["passed"]
    assert len(calls) == 20


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
        "run(['verify-relations', '--M', '2', '--N', '1', '--window', '1', '--chevalley'])\n"
        "run(['highest-weight', '--M', '2', '--N', '1'])\n"
    )
    after_import, appendix, relations, highest = map(json.loads, lines)
    assert after_import is False
    assert appendix[:2] == [0, False] and json.loads(appendix[2])["passed"]
    # verify-relations' denominators are integers: 1/|s| in H_{i,s}, 1/prod m_j! in phi
    assert relations[:2] == [0, False] and json.loads(relations[2])["passed"]
    assert run_main(["highest-weight", "--M", "2", "--N", "1"]) == 0
    assert highest == [0, True, capsys.readouterr().out]


def test_module_and_monoid_suites_make_no_field_operation():
    # every quotient of these suites is a ring value: solve_span's x_j and
    # series_to_torsion's Q coefficients are exact Laurent divisions
    suites = [
        [suite, "--M", str(M), "--N", str(N)]
        for suite in ("highest-weight", "tensor-hw", "coproduct-check")
        for M, N in ((2, 1), (1, 2))
    ] + [["monoid", "--count", "3", "--degree-bound", "4"]]
    lines = run_fresh(
        "import contextlib, io, json, sys\n"
        "from superloop import cli, coeffs\n"
        "field_op, calls = coeffs._field_op, []\n"
        "def counted(op, x, y):\n"
        "    calls.append(op)\n"
        "    return field_op(op, x, y)\n"
        "coeffs._field_op = counted\n"
        f"for argv in {suites!r}:\n"
        "    calls.clear()\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    print(json.dumps([argv, code, len(calls)]))\n"
    )
    assert [json.loads(line) for line in lines] == [[argv, 0, 0] for argv in suites]


def test_appendix_a_rejects_explicit_default_signature(capsys):
    # (2,1) is the default of the other suites, not a request for (2,2)
    assert run_main(["appendix-a", "--M", "2", "--N", "1", "--nmax", "1", "--window", "1"]) == 2
    assert "(2,2)" in _json_error(capsys)


def test_run_config_validation():
    with pytest.raises(cli.ConfigError):
        cli.run(cli.RunConfig(suite="monoid", window=-1))
    with pytest.raises(cli.ConfigError):
        cli.run(cli.RunConfig(suite="nope"))


def _json_error(capsys) -> str:
    return json.loads(capsys.readouterr().err)["error"]


def test_cli_nonpositive_count_rejected(capsys):
    assert run_main(["monoid", "--count", "-3"]) == 2
    assert "count" in _json_error(capsys)


@pytest.mark.parametrize("count", ["1", "2"])
def test_cli_count_below_three_rejected(capsys, count):
    # with fewer than three triples the monoid laws would pass over no triple
    assert run_main(["monoid", "--count", count]) == 2
    assert "count must be at least 3" in _json_error(capsys)


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
        (["appendix-a", "--window", "-1"], "window must be nonnegative"),
        (["highest-weight", "--order", "0"], "order must be positive"),
        (["tensor-hw", "--degree-bound", "0"], "degree bound must be positive"),
        (["pbw-rank", "--height", "0"], "height must be positive"),
        (["pbw-rank", "--height", "-1"], "height must be positive"),
        (["highest-weight", "--window", "6"], "window must be below 6"),
        (["verify-relations", "--window", "5"], "verify-relations needs window <= 4"),
        (
            ["tensor-hw", "--M", "1", "--N", "2", "--degree-bound", "1"],
            "no annihilator of degree <= 1",
        ),
        (
            ["weyl-slice", "--M", "1", "--N", "2", "--tensor", "--degree-bound", "1"],
            "no annihilator of degree <= 1",
        ),
    ],
    ids=[
        "nmax-zero", "window-negative", "order-zero", "degree-bound-zero", "height-zero", "height-negative",
        "kernel-window", "relations-window", "degree-bound", "slice-degree-bound",
    ],
)
def test_out_of_range_input_exit_two(capsys, argv, message):
    assert run_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in json.loads(captured.err)["error"]


def test_finite_gates_and_module_suites_stay_in_laurent_ring():
    # every relation the finite gate and these suites check is stated without division
    for M, N in ((2, 1), (1, 2), (3, 1), (1, 3), (2, 2), (2, 3), (3, 2)):
        with count_field_ops() as calls:
            modrep.fundamental(M, N)
        assert calls == [], (M, N)
    for suite, tensor in (("coproduct-check", False), ("pbw-rank", True)):
        for M, N in ((2, 1), (1, 2)):
            with count_field_ops() as calls:
                report = cli.run(cli.RunConfig(suite=suite, M=M, N=N, tensor=tensor))
            assert report["passed"]
            assert calls == [], (suite, M, N)


@pytest.mark.parametrize(
    "argv",
    [
        ["--M", "2", "--N", "1", "--window", "2", "--chevalley"],
        ["--M", "3", "--N", "1", "--window", "1"],
        ["--M", "2", "--N", "1", "--window", "1", "--tensor"],
    ],
    ids=["chevalley-2-1", "3-1", "tensor-2-1"],
)
def test_verify_relations_makes_no_field_operations(capsys, argv):
    # the integer denominators of phi_coeff and H_{i,s} stay in the ring
    with count_field_ops() as calls:
        assert run_main(["verify-relations", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]
    assert calls == []


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
        ('{"Q": "1,-2,1"}', "unknown config key 'Q'"),
    ],
    ids=["missing-file", "malformed-json", "json-list", "wrong-type", "unknown-key", "removed-key"],
)
def test_bad_config_exit_two(tmp_path, capsys, content, message):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    assert run_main(["monoid", "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"schema", "error"}
    assert message in err["error"]
