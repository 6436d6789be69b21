"""Tests for the command-line front end: presets, scenario I/O, subcommands,
exit codes and output determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opiniongame
import opiniongame.cli as cli_module
import opiniongame.network as network_module
from opiniongame.cli import (EXIT_INPUT, EXIT_OK, EXIT_UNSUPPORTED,
                             EXIT_VERIFY_FAILED, PRESETS, CliInputError,
                             cmd_figures, cmd_simulate, cmd_verify, get_preset,
                             load_scenario, main, save_scenario,
                             write_trajectory_csv)
from opiniongame.network import (CompleteUniform, SingleLeader,
                                 classify_topology)
from opiniongame.solver import EquilibriumTrajectory, solve_equilibrium


def test_presets_match_expected_parameterizations():
    assert classify_topology(PRESETS["fig1b"].network) == CompleteUniform(2.0, 0.2)
    assert classify_topology(PRESETS["fig1c"].network) == CompleteUniform(0.4, 0.04)
    assert classify_topology(PRESETS["fig2b"].network) == SingleLeader()
    assert classify_topology(PRESETS["fig2c"].network) == SingleLeader()
    for name in ("fig3b", "fig3c"):
        net = PRESETS[name].network
        assert net.n == 10 and net.T == 5.0
        # the two leaders take no influence at all
        assert not [e for e in net.edges if e[0] in (0, 9)]
    np.testing.assert_allclose(PRESETS["fig1b"].network.x0,
                               np.arange(0.05, 1.0, 0.1))


def test_preset_aliases():
    assert get_preset("fig1").name == "fig1b"
    assert get_preset("fig1_weak").name == "fig1c"
    with pytest.raises(Exception):
        get_preset("fig9")


def test_presets_round_trip_scenario_format(tmp_path):
    for name, preset in PRESETS.items():
        path = tmp_path / f"{name}.json"
        save_scenario(preset.network, path)
        back = load_scenario(path)
        assert back.edges == preset.network.edges
        np.testing.assert_array_equal(back.k, preset.network.k)
        np.testing.assert_array_equal(back.x0, preset.network.x0)
        assert back.T == preset.network.T


def test_load_scenario_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(Exception):
        load_scenario(bad)
    bad.write_text(json.dumps({"n": 2, "T": 1.0, "x0": [0.1, 0.2],
                               "k": [0, 0], "edges": [], "bogus": 1}))
    with pytest.raises(Exception, match="unknown scenario keys"):
        load_scenario(bad)


def test_simulate_writes_csv_and_reports_closed_form(tmp_path):
    report = cmd_simulate(PRESETS["fig1b"].network, 201, tmp_path)
    assert report.closed_form_error <= 1e-8
    csv_path = tmp_path / "fig1b.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3,x4,x5,x6,x7,x8,x9,x10"
    assert len(lines) == 202


def test_simulate_leader_row_constant(tmp_path):
    report = cmd_simulate(PRESETS["fig2b"].network, 201, tmp_path)
    rows = (tmp_path / "fig2b.csv").read_text().splitlines()[1:]
    leader = np.array([float(row.split(",")[1]) for row in rows])
    np.testing.assert_allclose(leader, 0.05, rtol=0, atol=1e-14)
    assert report.terminal[0] == pytest.approx(0.05, abs=1e-14)


def test_simulate_single_agent(tmp_path):
    scenario = tmp_path / "one.json"
    scenario.write_text(json.dumps({
        "n": 1, "T": 2.0, "x0": [0.4], "k": [0.5], "edges": [], "name": "one"}))
    rc = main(["simulate", "--scenario", str(scenario), "--samples", "51",
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    rows = (tmp_path / "one.csv").read_text().splitlines()[1:]
    vals = np.array([float(row.split(",")[1]) for row in rows])
    np.testing.assert_allclose(vals, 0.4, rtol=0, atol=1e-14)


def test_csv_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cmd_simulate(PRESETS["fig3b"].network, 101, a)
    cmd_simulate(PRESETS["fig3b"].network, 101, b)
    assert (a / "fig3b.csv").read_bytes() == (b / "fig3b.csv").read_bytes()


def test_costate_flag_appends_columns(tmp_path):
    rc = main(["simulate", "--preset", "fig1b", "--samples", "51",
               "--out", str(tmp_path), "--costate"])
    assert rc == EXIT_OK
    header = (tmp_path / "fig1b.csv").read_text().splitlines()[0]
    assert header.endswith("p1,p2,p3,p4,p5,p6,p7,p8,p9,p10")


def test_figures_all_writes_twelve_files(tmp_path):
    written = cmd_figures("all", tmp_path, m=51)
    assert len(written) == 12
    for name in ("fig1b", "fig1c", "fig2b", "fig2c", "fig3b", "fig3c"):
        assert (tmp_path / f"{name}.csv").exists()
        script = (tmp_path / f"{name}.gp").read_text()
        assert f"'{name}.csv'" in script and "with lines" in script


def test_figures_unknown_id_exits_2(tmp_path):
    rc = main(["figures", "--which", "fig7x", "--out", str(tmp_path)])
    assert rc == EXIT_INPUT


def test_figures_fig3_partial_consensus(tmp_path):
    # camp followers end near their own leader in fig3b
    cmd_figures("fig3b", tmp_path, m=201)
    rows = (tmp_path / "fig3b.csv").read_text().splitlines()
    last = np.array([float(v) for v in rows[-1].split(",")])
    x = last[1:]
    assert abs(x[0] - 0.05) < 1e-12 and abs(x[9] - 0.95) < 1e-12
    f1, f10 = x[1:5], x[5:9]
    assert np.all(np.abs(f1 - x[0]) < np.abs(f1 - x[9]))
    assert np.all(np.abs(f10 - x[9]) < np.abs(f10 - x[0]))


def test_limits_complete_uniform_output(capsys):
    rc = main(["limits", "--preset", "fig1b", "--eps", "0.5,0.1"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "long-run limits" in out
    assert "eps=0.5: consensus time 0.000000" in out


def test_module_entry_point_runs_command():
    # `python -m opiniongame.cli` must dispatch, not import and exit silently
    src = str(Path(opiniongame.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "opiniongame.cli", "limits", "--preset", "fig1c"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "scenario: fig1c" in proc.stdout
    assert "long-run limits:" in proc.stdout


def test_limits_unreachable_eps(capsys):
    rc = main(["limits", "--preset", "fig1b", "--eps", "1e-6"])
    assert rc == EXIT_OK
    assert "not reached" in capsys.readouterr().out


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["fig1b", "fig1c", "fig2b", "fig2c"])
@pytest.mark.parametrize("label, extra", [("default", []),
                                          ("eps", ["--eps", "0.3,0.05,0.001,1e-5"])])
def test_limits_output_matches_golden(capsys, name, label, extra):
    assert main(["limits", "--preset", name] + extra) == EXIT_OK
    want = (GOLDEN / f"limits-{name}-{label}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("eps", ["nan", "inf", "0.1,nan", "0.1,-inf"])
def test_limits_rejects_non_finite_eps(capsys, eps):
    assert main(["limits", "--preset", "fig2b", "--eps", eps]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and "--eps" in captured.err


@pytest.mark.parametrize("argv", [["simulate", "--preset", "fig1b", "--samples", "11"],
                                  ["figures", "--which", "fig1b", "--samples", "11"]])
def test_output_path_that_is_a_file_exits_2(tmp_path, capsys, argv):
    target = tmp_path / "taken"
    target.write_text("keep\n")
    assert main(argv + ["--out", str(target)]) == EXIT_INPUT
    assert "cannot write" in capsys.readouterr().err
    assert target.read_text() == "keep\n"


def test_limits_general_topology_exits_4():
    rc = main(["limits", "--preset", "fig3b"])
    assert rc == EXIT_UNSUPPORTED


def test_limits_leader_values(capsys):
    rc = main(["limits", "--preset", "fig2b", "--eps", "0.2"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    # follower limits (k_i x0_i + w_i1 x0_1) / lambda_i
    net = PRESETS["fig2b"].network
    expected = (0.2 * net.x0[5] + 2.0 * net.x0[0]) / 2.2
    assert f"{expected:.6f}" in out


def test_verify_passes_on_preset():
    rc = main(["verify", "--preset", "fig2b", "--samples", "301",
               "--count", "5", "--seed", "0"])
    assert rc == EXIT_OK


def test_verify_constant_candidate_fails():
    rc = main(["verify", "--preset", "fig1b", "--samples", "201",
               "--count", "5", "--candidate", "constant"])
    assert rc == EXIT_VERIFY_FAILED


def test_missing_source_exits_2():
    assert main(["simulate"]) == EXIT_INPUT


def test_scenario_with_warning_still_runs(tmp_path, capsys):
    scenario = tmp_path / "wide.json"
    scenario.write_text(json.dumps({
        "n": 2, "T": 1.0, "x0": [1.5, -0.2], "k": [0.1, 0.1],
        "edges": [{"from": 1, "to": 2, "w": 1.0}, {"from": 2, "to": 1, "w": 1.0}],
        "name": "wide"}))
    rc = main(["simulate", "--scenario", str(scenario), "--samples", "51",
               "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == EXIT_OK
    assert "outside [0, 1]" in captured.err


def per_value_csv(path, traj, costate=False):
    """Reference writer: one f-string per value, rows joined in memory."""
    n = traj.n
    header = ["t"] + [f"x{i + 1}" for i in range(n)]
    if costate:
        header += [f"p{i + 1}" for i in range(n)]
    rows = [",".join(header)]
    for idx in range(len(traj.grid)):
        vals = [traj.grid[idx]] + list(traj.x[idx])
        if costate:
            vals += list(traj.p[idx])
        rows.append(",".join(f"{v:.17g}" for v in vals))
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def assert_same_csv_bytes(tmp_path, traj, costate):
    write_trajectory_csv(tmp_path / "new.csv", traj, costate=costate)
    per_value_csv(tmp_path / "ref.csv", traj, costate=costate)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(PRESETS))
@pytest.mark.parametrize("costate", [False, True])
def test_csv_writer_matches_per_value_reference(tmp_path, name, costate):
    traj = solve_equilibrium(PRESETS[name].network, 201)
    assert_same_csv_bytes(tmp_path, traj, costate)


@pytest.mark.parametrize("costate", [False, True])
def test_csv_writer_single_agent_two_samples(tmp_path, costate):
    x = np.array([[0.4], [0.3]])
    traj = EquilibriumTrajectory(grid=np.array([0.0, 2.0]), x=x, p=np.array([[0.1], [0.0]]),
                                 u=np.array([[-0.1], [-0.0]]))
    assert_same_csv_bytes(tmp_path, traj, costate)
    assert (tmp_path / "new.csv").read_text().splitlines()[0] == (
        "t,x1,p1" if costate else "t,x1")


@pytest.mark.parametrize("costate", [False, True])
def test_csv_writer_special_values(tmp_path, costate):
    x = np.array([[-0.0, 1e-300, 1e300], [3.0, -7.0, 0.0], [1e16, 2.0 ** 60, 0.1]])
    p = np.array([[-1e-300, -1e300, 5.0], [0.0, -0.0, 1.0 / 3.0], [-2.0, 1e-5, 123456789.0]])
    traj = EquilibriumTrajectory(grid=np.array([0.0, 0.5, 1.0]), x=x, p=p, u=-p)
    assert_same_csv_bytes(tmp_path, traj, costate)
    row = (tmp_path / "new.csv").read_text().splitlines()[1]
    assert row.startswith("0,-0,1e-300,1.0000000000000001e+300")


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("samples", ["500", "2", "1", "0", "-3"])
def test_bad_sample_count_fails_before_solving(tmp_path, capsys, monkeypatch,
                                               command, samples):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before rejecting --samples")

    monkeypatch.setattr(cli_module, "solve_equilibrium", no_solve)
    argv = [command, "--preset", "fig1b", "--samples", samples]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "--samples must be odd and >= 3" in err and f"got {samples}" in err
    assert not (tmp_path / "out").exists()


def test_bad_sample_count_rejected_by_library_calls(tmp_path):
    net = PRESETS["fig2b"].network
    with pytest.raises(CliInputError, match="--samples"):
        cmd_simulate(net, 500, tmp_path)
    with pytest.raises(CliInputError, match="--samples"):
        cmd_verify(net, 2, count=5, seed=0)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("count", ["0", "-4"])
def test_bad_probe_count_fails_before_solving(capsys, monkeypatch, count):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before rejecting --count")

    monkeypatch.setattr(cli_module, "solve_equilibrium", no_solve)
    assert main(["verify", "--preset", "fig1b", "--count", count]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "--count must be >= 1" in err and f"got {count}" in err
    with pytest.raises(CliInputError, match=f"--count must be >= 1, got {count}"):
        cmd_verify(PRESETS["fig2b"].network, 301, count=int(count), seed=0)


def test_figures_accepts_any_sample_count(tmp_path):
    assert main(["figures", "--which", "fig1b", "--samples", "2",
                 "--out", str(tmp_path)]) == EXIT_OK
    assert len((tmp_path / "fig1b.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("candidate, want", [(None, 2), ("constant", 1)])
def test_verify_validates_network_once_beyond_the_solver(monkeypatch, candidate, want):
    # one validation in solve_equilibrium (skipped for the constant
    # candidate) and one for the matrices shared by every verifier call
    calls = []
    original = network_module.validate
    monkeypatch.setattr(network_module, "validate",
                        lambda net: calls.append(net) or original(net))
    report = cmd_verify(PRESETS["fig2b"].network, 301, count=5, seed=0,
                        candidate=candidate)
    assert report.passed == (candidate is None)
    assert len(calls) == want
