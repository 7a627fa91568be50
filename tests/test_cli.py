import json

import pytest

import jetvir.cli
from jetvir import verify
from jetvir.charges import ChargeSet
from jetvir.cli import main
from jetvir.verify import SuiteResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_charges_text(capsys):
    code, out, _ = run(capsys, "charges", "--d", "1", "--p", "0",
                       "--lambda", "0", "--kappa", "0", "--delta-rho", "1",
                       "--y-rho", "0", "--delta-m", "1", "--y-m", "1",
                       "--statistics", "bose")
    assert code == 0
    assert "c5" in out and "-1" in out


def test_charges_fermi_flip(capsys):
    code, out, _ = run(capsys, "charges", "--d", "1", "--p", "0",
                       "--y-m", "1", "--statistics", "fermi")
    assert code == 0
    lines = [l.split() for l in out.splitlines() if l.startswith("c5")]
    assert lines[0][1] == "1"


def test_charges_measure(capsys):
    code, out, _ = run(capsys, "charges", "--d", "2", "--p", "1",
                       "--kappa", "1", "--y-m", "2", "--z-m", "1",
                       "--w-m", "3", "--delta-m", "2", "--measure")
    assert code == 0
    assert "engine match: exact" in out


def test_charges_json_round_trip(capsys):
    code, out, _ = run(capsys, "charges", "--d", "2", "--p", "1",
                       "--lambda", "1/2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["inputs"]["lambda"] == "1/2"
    for value in payload["charges"].values():
        num, den = value.split("/")
        int(num), int(den)


def test_charges_csv(capsys):
    code, out, _ = run(capsys, "charges", "--d", "1", "--p", "2",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "charge,closed"


def test_charges_range_guard(capsys):
    code, _, err = run(capsys, "charges", "--d", "9", "--p", "0")
    assert code == 2
    assert "range" in err


def test_sums_table(capsys):
    code, out, _ = run(capsys, "sums", "--d", "2", "--p", "2")
    assert code == 0
    rows = {l.split()[0]: l.split()[1:] for l in out.splitlines()[1:]}
    assert rows["E"] == ["5", "5"]


def test_sums_json(capsys):
    code, out, _ = run(capsys, "sums", "--d", "1", "--p", "3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["sums"]["A"]["closed"] == payload["sums"]["A"]["brute"] == 4


def test_cocycle_virasoro(capsys):
    code, out, _ = run(capsys, "cocycle", "--kind", "virasoro", "--d", "1",
                       "--xi", "x^2", "--eta", "x", "--traj", "z^-1",
                       "--c1", "1", "--c2", "1")
    assert code == 0
    assert out.strip() == "0"


def test_cocycle_constant_trajectory(capsys):
    code, out, _ = run(capsys, "cocycle", "--kind", "virasoro", "--d", "1",
                       "--xi", "x^2", "--eta", "x", "--traj", "0",
                       "--c1", "1", "--c2", "1")
    assert code == 0
    assert out.strip() == "0"


def test_cocycle_reparam(capsys):
    code, out, _ = run(capsys, "cocycle", "--kind", "reparam-reparam",
                       "--f", "z^3", "--g", "z^-1", "--c4", "12")
    assert code == 0
    assert out.strip() == "6"


def test_cocycle_parse_error(capsys):
    code, _, err = run(capsys, "cocycle", "--kind", "virasoro", "--d", "1",
                       "--xi", "x~2", "--eta", "x", "--traj", "z")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["--kind", "reparam-vector", "--d", "2", "--xi", "x0^2", "--f", "z^2",
     "--traj", "z^-1,z", "--c3", "2"],
    ["--kind", "mixed", "--d", "2", "--xi", "x0^2*x1", "--x", "x0",
     "--traj", "z^-1+z,z^-1", "--c7", "3"],
])
def test_cocycle_wrong_component_count_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, "cocycle", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_charges_measure_mismatch_exits_1_in_every_format(capsys, monkeypatch, fmt):
    extract = jetvir.cli.extract_charges

    def off_by_one(*args):
        m = extract(*args)
        return ChargeSet(m.d, m.p, m.conformal_weight, m.glrep, m.grep, m.c1, m.c2,
                         m.c1_plus_c2, m.c3, m.c4, m.c5 + 1, m.c6, m.c7, m.c8)

    monkeypatch.setattr(jetvir.cli, "extract_charges", off_by_one)
    code, _, _ = run(capsys, "charges", "--d", "2", "--p", "1", "--y-m", "1",
                     "--measure", "--format", fmt)
    assert code == 1


def test_verify_tiny_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--d-max", "1", "--p-max", "0")
    assert code == 0
    assert "result: pass" in out


def test_verify_fault_injection(capsys):
    code, out, _ = run(capsys, "verify", "--d-max", "1", "--p-max", "0",
                       "--self-test-fault")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("d_max, p_max", [("0", "-1"), ("0", "3"), ("2", "-1"),
                                          ("3", "3"), ("2", "4")])
def test_verify_empty_grid_is_a_usage_error(capsys, d_max, p_max):
    code, out, err = run(capsys, "verify", "--d-max", d_max, "--p-max", p_max)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def _one_row(checks):
    def suite(seed, d_max, p_max, fault):
        res = SuiteResult("one")
        for _ in range(checks):
            res.record(True, "")
        return res
    return ((suite, None),)


def test_suite_without_checks_does_not_pass(capsys, monkeypatch):
    assert not SuiteResult("empty").ok
    monkeypatch.setattr(verify, "SUITES", _one_row(0))
    # a suite with no check has no witness to print; this raised an IndexError
    assert run(capsys, "verify") == (1, "one      0 checks  FAIL\nresult: FAIL\n", "")


def test_report_without_suites_does_not_pass(capsys, monkeypatch):
    monkeypatch.setattr(verify, "SUITES", ())
    assert run(capsys, "verify") == (1, "result: FAIL\n", "")
    monkeypatch.setattr(verify, "SUITES", _one_row(1))
    assert run(capsys, "verify") == (0, "one      1 checks  pass\nresult: pass\n", "")


def test_cocycle_zero_denominator(capsys):
    code, _, err = run(capsys, "cocycle", "--kind", "reparam-reparam",
                       "--f", "1/0 z^3", "--g", "z", "--c4", "1")
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


# the operands of each cocycle kind in call order, with a valid value at d = 1
COCYCLE_OPERANDS = {
    "virasoro": (("xi", "x^2"), ("eta", "x"), ("traj", "z^-1")),
    "affine": (("x", "x"), ("y", "x^-1"), ("traj", "z")),
    "mixed": (("xi", "x^2"), ("x", "x"), ("traj", "z")),
    "reparam-reparam": (("f", "z^3"), ("g", "z^-1")),
    "reparam-vector": (("f", "z^2"), ("xi", "x^2"), ("traj", "z^-1")),
    "reparam-current": (("f", "z^2"), ("x", "x"), ("traj", "z^-1")),
}
MISSING_OPERAND_CASES = [(kind, dropped) for kind, operands in COCYCLE_OPERANDS.items()
                         for dropped in range(len(operands))]


@pytest.mark.parametrize("kind, dropped", MISSING_OPERAND_CASES,
                         ids=[f"{kind}-no-{COCYCLE_OPERANDS[kind][i][0]}"
                              for kind, i in MISSING_OPERAND_CASES])
def test_cocycle_missing_operand_is_a_usage_error(capsys, kind, dropped):
    argv = ["cocycle", "--kind", kind]
    for i, (flag, value) in enumerate(COCYCLE_OPERANDS[kind]):
        if i != dropped:
            argv += [f"--{flag}", value]
    code, out, err = run(capsys, *argv)
    flag = COCYCLE_OPERANDS[kind][dropped][0]
    assert (code, out, err) == (2, "", f"error: --{flag} is required for kind {kind}\n")


@pytest.mark.parametrize("argv, message", [
    # --d is checked first, then a given --traj, then the operands in call order
    (["--kind", "virasoro", "--d", "0", "--traj", "z"], "--d must be an integer >= 1, got 0"),
    (["--kind", "virasoro", "--d", "2", "--traj", "z"], "trajectory needs 2 components"),
    (["--kind", "reparam-vector", "--d", "2", "--f", "z^2", "--xi", "x0,x1", "--traj", "z"],
     "trajectory needs 2 components"),
    (["--kind", "reparam-reparam", "--f", "z", "--g", "z", "--traj", "z~"],
     "cannot parse polynomial at: '~'"),
    (["--kind", "mixed"], "--xi is required for kind mixed"),
    (["--kind", "reparam-current", "--x", "x"], "--f is required for kind reparam-current"),
], ids=["d-first", "short-traj", "short-traj-with-operands", "traj-parsed-for-every-kind",
        "first-operand-first", "operand-before-traj"])
def test_cocycle_usage_errors_come_in_a_fixed_order(capsys, argv, message):
    code, out, err = run(capsys, "cocycle", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("xi, rest", [("x0,", ""), ("x0,x1 +", "+"), ("x0,-", "-")],
                         ids=["empty-component", "trailing-sign", "sign-only"])
def test_a_component_with_no_term_is_a_usage_error(capsys, xi, rest):
    code, out, err = run(capsys, "cocycle", "--kind", "virasoro", "--d", "2", "--xi", xi,
                         "--eta", "x1,x0", "--traj", "z,z^-1", "--c1", "1")
    assert (code, out, err) == (2, "", f"error: cannot parse polynomial at: {rest!r}\n")


@pytest.mark.parametrize("d, xi, message", [
    ("1", "x_1", "unknown variable 'x_1'"),
    ("2", "x5", "variable x5 out of range for dimension 2"),
    ("2", "x0^-1", "negative exponents only supported in one variable"),
    ("1", "x^70", "parsed polynomial exceeds the degree cap"),
    ("1", "x^99999999999999999999", "parsed polynomial exceeds the degree cap"),
    ("1", "x^1/2", "cannot parse polynomial at: '/2'"),
], ids=["unknown-variable", "out-of-range", "negative-exponent", "degree-cap",
        "huge-exponent", "junk-after-a-term"])
def test_every_parser_error_is_one_usage_error_line(capsys, d, xi, message):
    rest = ["--eta", "x", "--traj", "z"] if d == "1" else ["--eta", "x1,x0", "--traj", "z,z^-1"]
    code, out, err = run(capsys, "cocycle", "--kind", "virasoro", "--d", d, "--xi", xi,
                         *rest, "--c1", "1")
    assert (code, out, err) == (2, "", f"error: {message}\n")
