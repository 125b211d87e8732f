import dataclasses
import json

import numpy as np
import pytest

import graphsync as gs
from graphsync import two_point
from graphsync.cli import build_parser, main
from graphsync.two_point import entropy_theta_fn


def test_simulate_first_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = main([
        "simulate-first", "--graph", "complete(3)", "--alpha", "1.0",
        "--kappa", "1.0", "--rho0", "0.5,0.3,0.2",
        "--dt", "0.01", "--t-final", "1.0", "--out", str(out),
    ])
    assert rc == 0
    brief = json.loads(capsys.readouterr().out)
    assert brief["records"] == 101
    lines = out.read_text().splitlines()
    assert lines[0] == "t,rho_1,rho_2,rho_3,sum_sq,max_gap"
    assert len(lines) == 102
    first_row = [float(v) for v in lines[1].split(",")]
    assert first_row[:4] == [0.0, 0.5, 0.3, 0.2]


def test_simulate_ends_at_t_final(tmp_path, capsys):
    # 0.3 does not divide 1.0; the last step is shortened to land on it.
    out = tmp_path / "x.csv"
    rc = main([
        "simulate-first", "--graph", "complete(3)", "--rho0", "0.5,0.3,0.2",
        "--dt", "0.3", "--t-final", "1.0", "--out", str(out),
    ])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["final_time"] == 1.0
    assert out.read_text().splitlines()[-1].startswith("1,")


def test_simulate_refuses_initial_data_of_the_wrong_length(tmp_path, capsys):
    # Refused where the config is built: one error line, exit 2 and no CSV.
    out = tmp_path / "x.csv"
    rc = main(["simulate-hopf-cole", "--graph", "complete(3)", "--rho0", "0.5,0.3,0.2",
               "--xi0", "0,0", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not out.exists()
    assert captured.err == "error: xi0 must have 3 entries, got ['0', '0']\n"


def test_simulate_second_gradflow(tmp_path):
    out = tmp_path / "second.csv"
    rc = main([
        "simulate-second", "--graph", "complete(3)", "--alpha", "2.0",
        "--kappa", "1.0", "--rho0", "0.5,0.3,0.2", "--s0", "gradflow",
        "--dt", "0.01", "--t-final", "1.0", "--out", str(out),
    ])
    assert rc == 0
    header = out.read_text().splitlines()[0]
    assert header == "t,rho_1,rho_2,rho_3,S_1,S_2,S_3,H"


def test_simulate_hopf_cole(tmp_path):
    out = tmp_path / "hc.csv"
    rc = main([
        "simulate-hopf-cole", "--graph", "complete(3)", "--alpha", "1.0",
        "--kappa", "1.0", "--rho0", "0.5,0.3,0.2",
        "--xi0", "zero", "--xistar0", "from-rho",
        "--dt", "0.01", "--t-final", "1.0", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,rho_1,rho_2,rho_3,xi_1,xi_2,xi_3,xistar_1,xistar_2,xistar_3,max_abs_xi"
    assert all(float(row.split(",")[-1]) < 1e-12 for row in lines[1:])


def test_two_point_action_json(capsys):
    rc = main([
        "two-point", "action", "--potential", "shannon", "--r0", "0.3", "--r1", "0.8",
    ])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    want = gs.action(entropy_theta_fn(gs.ShannonPotential()), 0.3, 0.8)
    assert doc["value"] == pytest.approx(want, rel=1e-12)
    assert doc["quadrature_error_estimate"] < 1e-9


@pytest.mark.parametrize("operation, library", [("action", gs.action), ("divergence", gs.divergence),
                                                ("solve", gs.analytic_solution)])
def test_two_point_quadratures_run_once_and_match_library(operation, library, capsys, monkeypatch):
    calls = []
    simpson = two_point.adaptive_simpson

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return simpson(*args, **kwargs)

    monkeypatch.setattr(two_point, "adaptive_simpson", counted)
    t = ["--t", "0.4"] if operation == "solve" else []
    rc = main(["two-point", operation, "--potential", "tsallis:3.0", "--r0", "0.3", "--r1", "0.8", *t])
    assert rc == 0
    monkeypatch.undo()
    doc = json.loads(capsys.readouterr().out)
    theta_fn = entropy_theta_fn(gs.TsallisPotential(q=3.0))
    if operation == "solve":
        # Only the stretch map's quadrature runs, and its estimate, summed over the panels, is told.
        nodes = two_point._StretchMap(theta_fn, *two_point._path_bracket(0.3, 0.8)).nodes
        [(a, b)] = calls
        assert a.tolist() == nodes[:-1].tolist() and b.tolist() == nodes[1:].tolist()
        quad = simpson(two_point._inv_sqrt_theta(theta_fn), a, b, tol=1e-13)
        assert doc["value"] == library(theta_fn, 0.3, 0.8, 0.4)
        assert doc["quadrature_error_estimate"] == float(np.sum(quad.error_estimate))
        return
    assert calls == [(0.5, [0.3, 0.8])]  # one quadrature over both endpoints' panels
    assert doc["value"] == library(theta_fn, 0.3, 0.8)
    q0, q1 = two_point.x_of_r_with_error(theta_fn, 0.3), two_point.x_of_r_with_error(theta_fn, 0.8)
    assert doc["quadrature_error_estimate"] == q0.error_estimate + q1.error_estimate


def test_two_point_theta_and_solve(capsys):
    rc = main(["two-point", "theta", "--potential", "tsallis:2.0", "--r0", "0.6"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(0.25)

    rc = main([
        "two-point", "solve", "--potential", "tsallis:2.0",
        "--r0", "0.3", "--r1", "0.8", "--t", "1.0",
    ])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(0.8, abs=1e-9)


def test_two_point_missing_args_fail(capsys):
    assert main(["two-point", "solve", "--potential", "shannon", "--r0", "0.3"]) == 2
    assert main(["two-point", "action", "--potential", "shannon", "--r0", "0.3"]) == 2


def test_validate_rule_offers_only_the_graph_weight_kinds(capsys):
    # The induced weight is defined on two nodes only; two-point theta computes it.
    with pytest.raises(SystemExit) as info:
        main(["validate-rule", "--kind", "entropy_induced"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'entropy_induced'" in err
    assert "'min_power'" in err and "'arithmetic_mean'" in err


def test_validate_rule_exit_codes(capsys):
    assert main(["validate-rule", "--kind", "min_power", "--alpha", "2.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["symmetry"]["passed"]
    assert main(["validate-rule", "--kind", "arithmetic_mean"]) == 1
    assert main(["validate-rule"]) == 0  # min_power at its default alpha


def test_reproduce_check_and_determinism(tmp_path, capsys):
    rc = main(["reproduce", "fig7", "--out-dir", str(tmp_path / "a"), "--check"])
    assert rc == 0
    assert "fig7: PASS" in capsys.readouterr().out
    summary_a = (tmp_path / "a" / "fig7" / "summary.json").read_bytes()
    doc = json.loads(summary_a)
    assert doc["schema"] == 1
    assert doc["synchronised"] is True
    assert (tmp_path / "a" / "fig7" / "trajectory.csv").exists()

    rc = main(["reproduce", "fig7", "--out-dir", str(tmp_path / "b"), "--check"])
    assert rc == 0
    capsys.readouterr()
    assert summary_a == (tmp_path / "b" / "fig7" / "summary.json").read_bytes()


@pytest.mark.parametrize("check, status", [(True, 1), (False, 0)])
def test_reproduce_exits_nonzero_on_unmet_expectations_only_under_check(
        tmp_path, capsys, monkeypatch, check, status):
    # fig1's gap decays exponentially: its log_gap slope is negative, so +1 is unmet.
    fig1 = gs.REPRODUCE_TARGETS["fig1"]
    wrong = dataclasses.replace(fig1, expect={"fit": {**fig1.expect["fit"], "slope_sign": +1}})
    monkeypatch.setitem(gs.REPRODUCE_TARGETS, "fig1", wrong)
    argv = ["reproduce", "fig1", "--out-dir", str(tmp_path)] + ["--check"] * check
    assert main(argv) == status
    # Both modes print the same verdict, with the unmet expectations, and write the run.
    assert capsys.readouterr().out == (
        f"fig1: FAIL (log_gap slope sign is -1.0; artifacts in {tmp_path}/fig1)\n")
    summary = json.loads((tmp_path / "fig1" / "summary.json").read_text())
    assert summary["check_failures"] == ["log_gap slope sign is -1.0"]


def test_reproduce_unknown_target(capsys):
    assert main(["reproduce", "fig99"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["two-point", "theta", "--potential", "renyi", "--r0", "0.3"],
        ["two-point", "theta", "--potential", "tsallis:two", "--r0", "0.3"],
        ["two-point", "theta", "--potential", "kuramoto:1", "--r0", "0.3"],
        ["simulate-first", "--graph", "cycle6", "--rho0", "a,b", "--out", "unused.csv"],
        ["simulate-first", "--graph", "missing.json", "--rho0", "0.5,0.5", "--out", "unused.csv"],
        ["validate-rule", "--kind", "arithmetic_mean", "--alpha", "2"],
        ["two-point", "theta", "--potential", "shannon:3", "--r0", "0.3"],
        ["two-point", "theta", "--potential", "renyi:2:3", "--r0", "0.3"],
        ["two-point", "theta", "--potential", "gibbs", "--r0", "0.3"],
    ],
    ids=["renyi-no-alpha", "tsallis-bad-q", "non-entropy", "rho0-not-numbers", "no-graph",
         "mean-rule-takes-no-alpha", "shannon-takes-no-parameter",
         "renyi-takes-one-parameter", "unknown-potential"],
)
def test_bad_arguments_exit_2_with_one_error_line(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-second", "--graph", "cycle6", "--rho0", "0.5,0.5", "--s0", "zero"],
        ["simulate-hopf-cole", "--graph", "cycle6", "--rho0", "0.5,0.5", "--xi0", "from-rho"],
        ["simulate-hopf-cole", "--graph", "cycle6", "--rho0", "0.5,0.5", "--xistar0", "x,y"],
    ],
    ids=["s0-other-keyword", "xi0-other-keyword", "xistar0-not-numbers"],
)
def test_initial_data_flag_takes_only_its_own_keyword(argv, capsys):
    assert main(argv + ["--out", "unused.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_simulate_commands_share_their_flags():
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    flags = {
        name: {opt for a in p._actions for opt in a.option_strings}
        for name, p in sub.choices.items() if name.startswith("simulate-")
    }
    shared = {"-h", "--help", "--graph", "--alpha", "--kappa", "--rho0",
              "--scheme", "--dt", "--t-final", "--record-every", "--out"}
    assert flags == {
        "simulate-first": shared,
        "simulate-second": shared | {"--s0"},
        "simulate-hopf-cole": shared | {"--xi0", "--xistar0"},
    }
    spec = gs.IntegratorSpec()
    args = parser.parse_args(["simulate-first", "--graph", "g", "--rho0", "1", "--out", "o"])
    assert (args.scheme, args.dt, args.t_final, args.record_every) == (
        spec.scheme, spec.dt, spec.t_final, spec.record_every)
