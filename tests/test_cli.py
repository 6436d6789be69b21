"""Tests for the command-line front end: presets, scenario I/O, subcommands,
exit codes and output determinism."""

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import general_route, random_net, symmetric_net
import opiniongame
import opiniongame.analytic as analytic_module
import opiniongame.cli as cli_module
import opiniongame.network as network_module
import opiniongame.solver as solver_module
import opiniongame.verify as verify_module
from opiniongame.cli import (EXIT_INPUT, EXIT_OK, EXIT_SOLVER, EXIT_VERIFY_FAILED, FIGURE_NAMES, PRESETS, CliInputError,
                             cmd_figures, cmd_simulate, cmd_verify, constant_candidate,
                             get_preset, load_scenario, main, save_scenario,
                             write_trajectory_csv)
from opiniongame.network import (CompleteUniform, SingleLeader,
                                 classify_topology, network_to_dict, validate)
from opiniongame.solver import EquilibriumTrajectory, solve_equilibrium
from opiniongame.verify import (certify, deviation_test, nash_residual,
                                stationarity_check)


def test_presets_match_expected_parameterizations():
    assert classify_topology(PRESETS["fig1b"].network) == CompleteUniform(10, 2.0, 0.2, 5.0)
    assert classify_topology(PRESETS["fig1c"].network) == CompleteUniform(10, 0.4, 0.04, 5.0)
    assert isinstance(classify_topology(PRESETS["fig2b"].network), SingleLeader)
    assert isinstance(classify_topology(PRESETS["fig2c"].network), SingleLeader)
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


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_numpy_integer_edge_keys_round_trip(tmp_path, dtype):
    # validate accepts any numbers.Integral index; the file needs plain ints
    net = PRESETS["fig3b"].network
    keyed = replace(net, edges={(dtype(i), dtype(j)): w for (i, j), w in net.edges.items()})
    assert validate(keyed) == []
    path = tmp_path / "keys.json"
    save_scenario(keyed, path)
    assert load_scenario(path).edges == net.edges


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


def run_fresh(args):
    """Run python with args in a fresh interpreter that imports this package."""
    src = str(Path(opiniongame.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_module_entry_point_runs_command():
    # `python -m opiniongame.cli` must dispatch, not import and exit silently
    proc = run_fresh(["-m", "opiniongame.cli", "limits", "--preset", "fig1c"])
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "scenario: fig1c" in proc.stdout
    assert "long-run limits:" in proc.stdout


def test_cold_path_loads_scipy_only_where_a_solve_needs_it(tmp_path):
    # the closed forms, the spectral route and the CSV need numpy alone;
    # verify's banded best-response solve is the first to import scipy
    out = str(tmp_path)
    script = f"""
import sys
def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
import opiniongame
assert not scipy_loaded(), "import opiniongame"
from opiniongame.cli import _format_tables, main
assert not scipy_loaded(), "import opiniongame.cli"
assert "fractions" not in sys.modules
assert _format_tables.cache_info().currsize == 0, "CSV tables built at import"
assert main(["limits", "--preset", "fig1b"]) == 0
assert not scipy_loaded(), "limits"
assert main(["limits", "--preset", "fig3b"]) == 0
assert not scipy_loaded(), "limits on a general net"
assert main(["simulate", "--preset", "fig2b", "--out", {out!r}]) == 0
assert not scipy_loaded(), "simulate"
assert main(["figures", "--which", "all", "--out", {out!r}]) == 0
assert not scipy_loaded(), "figures"
assert main(["verify", "--preset", "fig1b", "--count", "5"]) == 0
assert scipy_loaded(), "verify"
"""
    proc = run_fresh(["-c", script])
    assert proc.returncode == 0, proc.stderr


def test_limits_unreachable_eps(capsys):
    rc = main(["limits", "--preset", "fig1b", "--eps", "1e-6"])
    assert rc == EXIT_OK
    assert "not reached" in capsys.readouterr().out


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["fig1b", "fig1c", "fig2b", "fig2c", "fig3b"])
@pytest.mark.parametrize("label, extra", [("default", []),
                                          ("eps", ["--eps", "0.3,0.05,0.001,1e-5"])])
def test_limits_output_matches_golden(capsys, name, label, extra):
    assert main(["limits", "--preset", name] + extra) == EXIT_OK
    if name == "fig3b":
        label = "default"  # a general net prints no eps lines
    want = (GOLDEN / f"limits-{name}-{label}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("eps", ["nan", "inf", "0.1,nan", "0.1,-inf"])
def test_limits_rejects_non_finite_eps(capsys, eps):
    assert main(["limits", "--preset", "fig2b", "--eps", eps]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and "--eps" in captured.err


@pytest.mark.parametrize("eps, word", [("abc", "abc"), ("0.1,x", "x"), ("0.1;0.2", "0.1;0.2")])
def test_limits_rejects_unparsable_eps(capsys, eps, word):
    assert main(["limits", "--preset", "fig1b", "--eps", eps]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad --eps list: could not convert string to float: '{word}'\n"


@pytest.mark.parametrize("command", ["simulate", "verify", "limits"])
@pytest.mark.parametrize("entry", ["missing.json", "."])
def test_unreadable_scenario_exits_2(tmp_path, capsys, command, entry):
    path = tmp_path / entry  # a file that is not there, or a directory
    with pytest.raises(CliInputError) as info:
        load_scenario(path)
    assert str(info.value).startswith("cannot read scenario file: ")
    assert main([command, "--scenario", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {info.value}\n"


@pytest.mark.parametrize("argv", [["simulate", "--preset", "fig1b", "--samples", "11"],
                                  ["figures", "--which", "fig1b", "--samples", "11"]])
def test_output_path_that_is_a_file_exits_2(tmp_path, capsys, argv):
    target = tmp_path / "taken"
    target.write_text("keep\n")
    assert main(argv + ["--out", str(target)]) == EXIT_INPUT
    assert "cannot write" in capsys.readouterr().err
    assert target.read_text() == "keep\n"


@pytest.mark.parametrize("name, argv, code", [
    pytest.param("fig1b", ["--preset", "fig1b"], EXIT_OK, id="fig1b"),
    pytest.param("fig3b", ["--preset", "fig3b"], EXIT_OK, id="fig3b"),
    pytest.param("fig1b-constant", ["--preset", "fig1b", "--candidate", "constant"],
                 EXIT_VERIFY_FAILED, id="fig1b-constant"),
    # residuals 2.194e-09, 1.321e-09, 3.804e-07 and 7.865e-01; fig2c and the
    # directed scenario sit within two decades of the ~1e-12 rounding floor,
    # where another BLAS could move the fourth printed digit, so they are left out
    pytest.param("fig1c", ["--preset", "fig1c"], EXIT_OK, id="fig1c"),
    pytest.param("fig2b", ["--preset", "fig2b"], EXIT_OK, id="fig2b"),
    pytest.param("fig3c", ["--preset", "fig3c"], EXIT_OK, id="fig3c"),
    pytest.param("fig2b-constant", ["--preset", "fig2b", "--candidate", "constant"],
                 EXIT_VERIFY_FAILED, id="fig2b-constant"),
])
def test_verify_output_matches_golden(capsys, name, argv, code):
    assert main(["verify", *argv]) == code
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / f"verify-{name}.txt").read_text(encoding="utf-8")
    assert captured.err == ""


# (source, candidate, m, verdict): fig1b and fig3c at m = 201 fail on true
# equilibria (their residuals exceed 0.01 h^2 on the coarse grid), every
# constant candidate fails, the game scaled by 1e50 fails stationarity
VERDICTS = ([(name, candidate, m,
              candidate is None and not (m == 201 and name in ("fig1b", "fig3c")))
             for name in sorted(PRESETS) for candidate in (None, "constant")
             for m in (201, 501)]
            + [("scenario-fig3b-1e50.json", None, 501, False)])


@pytest.mark.parametrize("source, candidate, m, verdict", VERDICTS)
def test_library_certify_gives_the_cli_verdict(source, candidate, m, verdict):
    argv = ["verify", "--samples", str(m)]
    if source in PRESETS:
        net = PRESETS[source].network
        argv += ["--preset", source]
    else:
        net = load_scenario(GOLDEN / source)
        argv += ["--scenario", str(GOLDEN / source)]
    if candidate:
        argv += ["--candidate", candidate]
    traj = (constant_candidate(net, m) if candidate == "constant"
            else solve_equilibrium(net, m))
    passed, residual, reports, _ = certify(net, traj, 100, 0)
    assert passed == (main(argv) == EXIT_OK) == verdict
    assert residual == nash_residual(net, traj)
    assert reports == stationarity_check(net, traj)


def test_violated_stationarity_names_a_failing_agent(capsys):
    # agent 5 has the largest costate residual of this scenario but passes
    # its own tolerance; the line must quote an agent that fails
    scenario = str(GOLDEN / "scenario-fig3b-1e50.json")
    assert main(["verify", "--scenario", scenario]) == EXIT_VERIFY_FAILED
    line, = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("stationarity:")]
    assert "VIOLATED" in line
    residual, tol = (float(word.strip(",)")) for word in line.split()[-3::2])
    assert residual > tol


def test_limits_general_topology_prints_the_long_run_limit(capsys):
    # the fixed point W c = K x0 is where a long solve ends, and the game
    # scaled by 1e50 has the same one
    assert main(["limits", "--preset", "fig3b"]) == EXIT_OK
    scenario, limits = capsys.readouterr().out.splitlines()
    assert scenario == "scenario: fig3b"
    net = PRESETS["fig3b"].network
    x_T = solve_equilibrium(replace(net, T=200.0), 3).x[-1]
    assert limits == "long-run limits: " + " ".join(f"{v:.6f}" for v in x_T)
    assert main(["limits", "--scenario", str(GOLDEN / "scenario-fig3b-1e50.json")]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["scenario: fig3b-1e50", limits]


def test_non_finite_trajectory_exits_3(tmp_path, capsys):
    # weights of 1e150 around a directed 3-cycle over T = 1e6 put the
    # route's exponentials far beyond float64; the solve refuses before any
    # output is written
    scenario = tmp_path / "cycle.json"
    scenario.write_text(json.dumps({
        "n": 3, "T": 1e6, "x0": [0.2, 0.7, 0.4], "k": [0.0, 0.1, 0.0],
        "edges": [{"from": i, "to": j, "w": 1e150} for i, j in ((1, 2), (2, 3), (3, 1))]}))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "solver error: the trajectory is not finite" in captured.err
    assert not out.exists()


def test_best_response_failure_exits_3(tmp_path, capsys):
    # the same cycle with the constant candidate: no solve, but the
    # best-response transcription loses stationarity at these weights
    scenario = tmp_path / "cycle.json"
    scenario.write_text(json.dumps({
        "n": 3, "T": 1e6, "x0": [0.1, 0.5, 0.9], "k": [0.0, 0.1, 0.0],
        "edges": [{"from": i, "to": j, "w": 1e150} for i, j in ((1, 2), (2, 3), (3, 1))]}))
    rc = main(["verify", "--scenario", str(scenario), "--candidate", "constant"])
    assert rc == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "solver error: best-response solve did not reach stationarity for agent 1: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("field, name", [
    ("w", "edge (1, 2) weight"), ("T", "'T'"), ("k", "'k' entry 3"), ("x0", "'x0' entry 3")])
def test_scenario_value_beyond_float64_exits_2(tmp_path, capsys, field, name):
    # float() overflows on the JSON integer 10^309: a fault of the file, not
    # of the solver, so it is a bad scenario
    data = {"n": 3, "T": 1.0, "x0": [0.2, 0.5, 0.8], "k": [0.1, 0.1, 0.1],
            "edges": [{"from": 1, "to": 2, "w": 1.0}, {"from": 2, "to": 3, "w": 1.0}]}
    if field == "w":
        data["edges"][0]["w"] = 10 ** 309
    elif field == "T":
        data["T"] = 10 ** 309
    else:
        data[field][2] = 10 ** 309
    scenario = tmp_path / "big.json"
    scenario.write_text(json.dumps(data))
    message = f"bad scenario: {name} is beyond the float64 range"
    with pytest.raises(CliInputError) as info:
        load_scenario(scenario)
    assert str(info.value) == message
    assert main(["limits", "--scenario", str(scenario)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


# W is nonsingular in exact arithmetic (k_1 > 0 in its one closed class), but
# cond(W) is near 1e23, so the general route's solve for the fixed point
# raises numpy's LinAlgError: a ValueError, yet a numerical failure
SINGULAR = str(GOLDEN / "scenario-singular.json")


def test_numerically_singular_w_exits_3_from_limits(capsys):
    assert main(["limits", "--scenario", SINGULAR]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "solver error: Singular matrix\n"


def test_numerically_singular_w_exits_3_from_the_general_route(tmp_path, capsys):
    with general_route():
        rc = main(["simulate", "--scenario", SINGULAR, "--out", str(tmp_path)])
    assert rc == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "solver error: Singular matrix\n"
    assert not any(tmp_path.iterdir())


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


def test_csv_writer_matches_reference_on_general_route(tmp_path):
    # the directed scenario takes the general route; at 8001 samples with
    # costates its 136,017 cells hold 1,165 in exponent notation
    net = load_scenario(GOLDEN / "scenario-directed.json")
    assert solver_module.spectral_data(net.W, classify_topology(net)) is None
    assert_same_csv_bytes(tmp_path, solve_equilibrium(net, 8001), costate=True)


def block_rows(m, cols):
    """Rows per formatting block of write_trajectory_csv for m rows of `cols`
    cells: equal blocks of whole rows, each at most _CSV_BLOCK cells or one row."""
    blocks = -(-m // max(1, cli_module._CSV_BLOCK // cols))
    return -(-m // blocks)


@pytest.mark.parametrize("m", [195, 372, 391, 744, 745, 8001])
@pytest.mark.parametrize("costate", [False, True])
def test_csv_writer_matches_reference_across_row_blocks(tmp_path, m, costate):
    # fig3b's rows hold 11 cells (21 with costates); these row counts give
    # one block, equal blocks and a short last one (block_rows)
    traj = solve_equilibrium(PRESETS["fig3b"].network, m)
    assert_same_csv_bytes(tmp_path, traj, costate)


@pytest.mark.parametrize("case", ["one block", "one row over", "uneven last block", "ladder"])
@pytest.mark.parametrize("costate", [False, True])
def test_csv_writer_matches_reference_at_block_edges(tmp_path, case, costate):
    # the ladders write 201 rows of ten agents with costates
    cols = 21 if costate else 11
    most = max(1, cli_module._CSV_BLOCK // cols)
    m = {"one block": most, "one row over": most + 1, "uneven last block": 2 * most + 1,
         "ladder": 201}[case]
    rows = block_rows(m, cols)
    assert {"one block": rows == m, "one row over": rows < m,
            "uneven last block": m % rows != 0, "ladder": True}[case]
    traj = solve_equilibrium(PRESETS["fig3b"].network, m)
    assert_same_csv_bytes(tmp_path, traj, costate)


def test_csv_writer_matches_reference_on_rows_wider_than_a_block(tmp_path):
    n = cli_module._CSV_BLOCK // 2 + 1       # 2 n + 1 cells a row with costates
    table = np.resize(adversarial_values(), (3, 2 * n + 1))
    traj = EquilibriumTrajectory(grid=table[:, 0], x=table[:, 1:n + 1], p=table[:, n + 1:])
    assert_same_csv_bytes(tmp_path, traj, costate=True)


def test_csv_writer_memory_does_not_grow_with_samples():
    # x and p take 2 (8 m n) bytes, 25.6 MB here, and a copy of the whole
    # table beside them 27.9 MB more; the writer holds one block's arrays
    traj = solve_equilibrium(symmetric_net(np.random.default_rng(0), 200, 5), 8001)
    cli_module._format_tables()             # built once per process
    tracemalloc.start()
    try:
        write_trajectory_csv(os.devnull, traj, costate=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_csv_writer_writes_only_the_header_of_a_trajectory_without_rows(tmp_path):
    empty = np.empty((0, 2))
    traj = EquilibriumTrajectory(grid=np.empty(0), x=empty, p=empty)
    assert_same_csv_bytes(tmp_path, traj, costate=True)
    assert (tmp_path / "new.csv").read_text() == "t,x1,x2,p1,p2\n"


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


def table_trajectory(values, cols):
    """A trajectory whose CSV cells cycle through `values` row by row: t
    alone (cols = 1), t,x1..x10 (11) or t,x1..x10,p1..p10 (21).  Its row
    count spans more than one formatting block and leaves the last short."""
    rows = max(-(-len(values) // cols), cli_module._CSV_BLOCK // cols + 1)
    rows += rows % block_rows(rows, cols) == 0
    table = np.resize(np.asarray(values, dtype=float), (rows, cols))
    n = (cols - 1) // (2 if cols == 21 else 1)
    return EquilibriumTrajectory(grid=table[:, 0], x=table[:, 1:1 + n],
                                 p=table[:, 1 + n:], u=-table[:, 1 + n:])


def adversarial_values():
    """Powers of ten and their neighbours, exact decimal ties at the 17th
    digit and values next to one, values that round across a power of ten,
    and %g's switch points."""
    powers = [float(f"1e{k}") for k in range(-300, 301)]
    values = powers + [np.nextafter(p, 0.0) for p in powers] + [
        np.nextafter(p, np.inf) for p in powers]
    values += list(1.0 + np.arange(1, 2**17, 2) * 2.0**-17)
    values += [101 * 2.0**-22, 9.99999999999999999e-5, 99999999999999999.0,
               1e-4, 1e-5, 1e16, 1e17]
    # within 81 2^-57 units of a 17th-digit tie, not on one: only the
    # writer's tie margin sends them to '%.17g'
    values += [6.83280278535067e-12, 6.83280278535067e-11, 1.2568395420297045e-10,
               2.460469286850939e-10, 4.974148370910348e-10, 7.594247049386696e-10]
    return np.concatenate([values, np.negative(values)])


@pytest.mark.parametrize("cols", [1, 11, 21])
def test_csv_writer_exact_on_adversarial_values(tmp_path, cols):
    traj = table_trajectory(adversarial_values(), cols)
    assert_same_csv_bytes(tmp_path, traj, costate=cols == 21)


@pytest.mark.parametrize("shift", [-0.5, 0.5])
def test_csv_writer_exact_when_log10_misses_by_one(tmp_path, monkeypatch, shift):
    # a shifted log10 puts about half the cells one scale off either way,
    # so their 17 digits land outside (10^16, 10^17) and fall back
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    traj = table_trajectory(adversarial_values(), 21)
    assert_same_csv_bytes(tmp_path, traj, costate=True)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(st.floats(allow_subnormal=True) | st.sampled_from(
           [0.0, -0.0, np.inf, -np.inf, np.nan]), min_size=1, max_size=64),
       cols=st.sampled_from([1, 11, 21]))
def test_csv_writer_exact_property(tmp_path, values, cols):
    assert_same_csv_bytes(tmp_path, table_trajectory(values, cols), costate=cols == 21)


def test_simulate_costate_matches_golden(tmp_path):
    # fig1b takes the exact complete-uniform basis, so these bytes do not
    # depend on the eig route
    assert main(["simulate", "--preset", "fig1b", "--samples", "21", "--costate",
                 "--out", str(tmp_path)]) == EXIT_OK
    assert ((tmp_path / "fig1b.csv").read_bytes()
            == (GOLDEN / "simulate-fig1b-costate.csv").read_bytes())


@pytest.mark.parametrize("command", [["simulate", "--preset", "fig1b"],
                                     ["verify", "--preset", "fig1b"],
                                     ["figures", "--which", "fig1b"]])
def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, command):
    def exhausted(net, m):
        raise MemoryError("cannot allocate the grid")
    monkeypatch.setattr(cli_module, "solve_equilibrium", exhausted)
    monkeypatch.chdir(tmp_path)  # the default --out
    assert main(command + ["--samples", "999999999"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: not enough memory") and "--samples" in err


def test_out_of_memory_in_the_probes_names_count(capsys, monkeypatch):
    # the probe buffers are count x m, so verify's hint names --count too
    def exhausted(net, traj, count, seed):
        raise MemoryError("cannot allocate the probes")
    monkeypatch.setattr(cli_module, "certify", exhausted)
    assert main(["verify", "--preset", "fig1b", "--count", "999999999"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: not enough memory") and "--count" in err


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


def test_negative_seed_fails_before_solving(capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before rejecting --seed")

    monkeypatch.setattr(cli_module, "solve_equilibrium", no_solve)
    assert main(["verify", "--preset", "fig1b", "--seed", "-1"]) == EXIT_INPUT
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    with pytest.raises(CliInputError, match="--seed must be >= 0, got -3"):
        cmd_verify(PRESETS["fig2b"].network, 301, count=5, seed=-3)


@pytest.mark.parametrize("preset, seed", [
    ("fig1b", "100000000000000000000"),
    ("fig2b", str(2**70)),
    ("fig2b", "9223372036854775800"),  # seed + agent passes 2^63 at agent 8
])
def test_seed_beyond_int64_verifies(capsys, preset, seed):
    assert main(["verify", "--preset", preset, "--count", "5", "--seed", seed]) == EXIT_OK
    assert capsys.readouterr().err == ""


def certificate_case(name, candidate, m):
    net = (random_net(np.random.default_rng(7), n=12) if name == "random"
           else PRESETS[name].network)
    return net, (constant_candidate(net, m) if candidate == "constant"
                 else solve_equilibrium(net, m))


@pytest.mark.parametrize("candidate", ["solver", "constant"])
@pytest.mark.parametrize("name", ["fig3b", "random"])
def test_verify_probes_each_agent_as_deviation_test(name, candidate):
    # agent a probes with default_rng(seed + a), the same code as
    # deviation_test for that agent alone.  Every gain of an equilibrium is
    # exactly 0.0; the constant candidate's are O(1) and pin the seeds, up
    # to the rounding of a one-agent forcing product
    net, traj = certificate_case(name, candidate, 301)
    report = cmd_verify(net, 301, count=7, seed=11,
                        candidate=None if candidate == "solver" else candidate)
    want = [deviation_test(net, traj, i, 7, 11 + i) for i in range(net.n)]
    if candidate == "solver":
        assert report.deviations == want
    assert [ok for ok, _ in report.deviations] == [ok for ok, _ in want]
    np.testing.assert_allclose([g for _, g in report.deviations],
                               [g for _, g in want], rtol=1e-12, atol=0)


@pytest.mark.parametrize("candidate", ["solver", "constant"])
@pytest.mark.parametrize("name", ["fig3b", "random"])
def test_chunked_certificate_matches_one_chunk(monkeypatch, name, candidate):
    m = 301
    net, traj = certificate_case(name, candidate, m)
    _, residual, _, deviations = certify(net, traj, 20, 3)
    built = []
    original = verify_module._Transcription
    monkeypatch.setattr(verify_module, "_Transcription",
                        lambda net, traj, agents: built.append(agents)
                        or original(net, traj, agents))
    monkeypatch.setattr(verify_module, "_CHUNK", 4 * m)
    _, chunked, _, chunked_deviations = certify(net, traj, 20, 3)
    assert built == [range(a, min(a + 4, net.n)) for a in range(0, net.n, 4)]
    # a gap is a difference of two costs of order one, so a residual near
    # 1e-7 keeps only the absolute accuracy of those costs
    assert chunked == pytest.approx(residual, rel=1e-12, abs=1e-15)
    assert [ok for ok, _ in chunked_deviations] == [ok for ok, _ in deviations]
    np.testing.assert_allclose([g for _, g in chunked_deviations],
                               [g for _, g in deviations], rtol=1e-12, atol=0)


@pytest.mark.parametrize("candidate", [None, "constant"])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_verify_builds_one_transcription_per_preset(monkeypatch, name, candidate):
    # the Nash residual and the probes share one model of every agent
    built = []
    original = verify_module._Transcription
    monkeypatch.setattr(verify_module, "_Transcription",
                        lambda *args: built.append(args[2]) or original(*args))
    cmd_verify(PRESETS[name].network, 501, count=100, seed=0, candidate=candidate)
    assert [list(agents) for agents in built] == [list(range(10))]


def test_overflowing_diagonal_fails_validation(tmp_path, capsys):
    scenario = tmp_path / "huge.json"
    scenario.write_text(json.dumps({
        "n": 3, "T": 1.0, "x0": [0.1, 0.5, 0.9], "k": [0.0, 0.1, 0.2],
        "edges": [{"from": 1, "to": 2, "w": 1.5e308}, {"from": 1, "to": 3, "w": 1.5e308}]}))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: invalid scenario: agent 1: in-weights plus k sum beyond the float64 range\n")
    assert not out.exists()


@pytest.mark.parametrize("command", [["simulate"], ["verify"], ["limits"]])
def test_preset_and_scenario_together_fail(capsys, tmp_path, command):
    # the scenario path does not exist: the clash is reported before any read
    argv = command + ["--preset", "fig1b", "--scenario", str(tmp_path / "missing.json")]
    if command == ["simulate"]:
        argv += ["--out", str(tmp_path)]
    assert main(argv) == EXIT_INPUT
    assert "either --scenario or --preset, not both" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_figures_accepts_any_sample_count(tmp_path):
    assert main(["figures", "--which", "fig1b", "--samples", "2",
                 "--out", str(tmp_path)]) == EXIT_OK
    assert len((tmp_path / "fig1b.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("samples", ["1", "-3"])
def test_figures_rejects_bad_sample_count_before_writing(capsys, tmp_path, samples):
    out = tmp_path / "new"
    assert main(["figures", "--which", "fig1b", "--samples", samples,
                 "--out", str(out)]) == EXIT_INPUT
    assert f"--samples must be >= 2, got {samples}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("candidate", [None, "constant"])
def test_verify_validates_a_fresh_network_once(monkeypatch, candidate):
    # the solver and every verifier call share the W cached on the network;
    # PRESETS networks keep theirs across tests, so use a fresh copy
    net = replace(PRESETS["fig2b"].network)
    calls = []
    original = network_module._checked
    monkeypatch.setattr(network_module, "_checked",
                        lambda net: calls.append(net) or original(net))
    report = cmd_verify(net, 301, count=5, seed=0, candidate=candidate)
    assert report.passed == (candidate is None)
    assert len(calls) == 1


def test_ci_console_commands_succeed(capsys, monkeypatch, tmp_path):
    root = Path(__file__).resolve().parents[1]
    workflow = root / ".github" / "workflows" / "tests.yml"
    monkeypatch.chdir(root)  # the workflow runs its commands from the checkout
    # a line that must exit with code c ends in "&& exit 1 || test $? -eq c"
    commands = [line.strip().partition(" && exit 1 || test $? -eq ")
                for line in workflow.read_text().splitlines()
                if line.strip().startswith("opiniongame ")]
    assert commands
    assert any(code for _, _, code in commands)
    for command, _, code in commands:
        argv = command.split()[1:]
        if argv[0] in ("simulate", "figures"):
            # the last --out wins, so nothing is written into the checkout
            argv += ["--out", str(tmp_path)]
        assert main(argv) == (int(code) if code else EXIT_OK), command
    assert {f"{name}.csv" for name in FIGURE_NAMES} <= {p.name for p in tmp_path.iterdir()}


def test_classify_returns_family_parameters():
    assert classify_topology(PRESETS["fig1b"].network) == CompleteUniform(
        n=10, w=2.0, k=0.2, T=5.0)
    net = PRESETS["fig2b"].network
    leader = classify_topology(net)
    assert isinstance(leader, SingleLeader)
    assert leader.n == 10 and leader.T == 5.0
    np.testing.assert_array_equal(leader.w1, [net.edges.get((i, 0), 0.0) for i in range(10)])
    np.testing.assert_array_equal(leader.k, net.k)
    for name in ("fig3b", "fig3c"):
        assert classify_topology(PRESETS[name].network) is None


DEGENERATE = {"n": 4, "T": 3.0, "x0": [0.1, 0.4, 0.6, 0.9], "k": [0.0] * 4,
              "edges": [{"from": i + 1, "to": j + 1, "w": 0.0}
                        for i in range(4) for j in range(4) if i != j],
              "name": "degenerate"}


def test_degenerate_complete_scenario(tmp_path, capsys):
    # w = k = 0 still classifies as complete uniform: each agent pays only
    # for its control, so nobody moves, and the closed forms say so
    scenario = tmp_path / "degenerate.json"
    scenario.write_text(json.dumps(DEGENERATE))
    assert isinstance(classify_topology(load_scenario(scenario)), CompleteUniform)
    assert main(["limits", "--scenario", str(scenario)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "scenario: degenerate\n"
        "long-run limits: 0.100000 0.400000 0.600000 0.900000\n"
        "terminal distance ratio gamma(T): 1.000000e+00\n"
        "long-run distance ratio k/lambda1: 1.000000e+00\n"
        "eps=0.1: consensus time not reached\n"
        "eps=0.01: consensus time not reached\n")
    assert main(["simulate", "--scenario", str(scenario), "--samples", "11",
                 "--costate", "--out", str(tmp_path)]) == EXIT_OK
    line, = [s for s in capsys.readouterr().out.splitlines()
             if s.startswith("closed-form deviation: ")]
    assert float(line.split()[-1]) <= 1e-15
    assert ((tmp_path / "degenerate.csv").read_bytes()
            == (GOLDEN / "simulate-degenerate.csv").read_bytes())


def count_classifications(monkeypatch):
    calls = []
    original = network_module.classify_topology
    spy = lambda net: calls.append(net) or original(net)  # noqa: E731
    for module in (network_module, cli_module, solver_module, analytic_module):
        monkeypatch.setattr(module, "classify_topology", spy)
    return calls


def test_simulate_and_limits_classify_the_leader_preset_sparingly(tmp_path, monkeypatch):
    calls = count_classifications(monkeypatch)
    assert main(["simulate", "--preset", "fig2b", "--samples", "51",
                 "--out", str(tmp_path)]) == EXIT_OK
    assert len(calls) <= 2
    calls.clear()
    assert main(["limits", "--preset", "fig2b"]) == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [["simulate", "--samples", "51"],
                                  ["verify", "--count", "5", "--samples", "301"]])
def test_scenario_validates_at_load_and_at_first_w(tmp_path, monkeypatch, capsys, argv):
    # load_scenario validates to print warnings; the network's cached W
    # is checked once more on first use, and every later solve reuses it
    monkeypatch.chdir(tmp_path)  # simulate writes its CSV under --out = "."
    wide = replace(PRESETS["fig2b"].network, x0=[1.5] + [0.5] * 9)
    save_scenario(wide, "wide.json")
    calls = []
    original = network_module._checked
    monkeypatch.setattr(network_module, "_checked",
                        lambda net: calls.append(net) or original(net))
    assert main(argv + ["--scenario", "wide.json"]) == EXIT_OK
    assert len(calls) == 2 and calls[0] is calls[1]
    assert capsys.readouterr().err == (
        "warning: initial opinions outside [0, 1] (range [0.5, 1.5]); accepted as-is\n")


def test_main_builds_its_parser_once(tmp_path):
    cli_module._build_parser.cache_clear()
    for _ in range(3):
        assert main(["limits", "--preset", "fig1c"]) == EXIT_OK
        assert main(["simulate", "--preset", "fig2b", "--samples", "11",
                     "--out", str(tmp_path)]) == EXIT_OK
    assert main(["simulate"]) == EXIT_INPUT
    info = cli_module._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 6)


def test_invalid_scenario_keeps_its_warnings_and_message(tmp_path, capsys):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps({
        "n": 2, "T": 1.0, "x0": [1.5, 0.2], "k": [0.1, -0.1],
        "edges": [{"from": 1, "to": 2, "w": 1.0}]}))
    assert main(["verify", "--scenario", str(scenario)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "warning: initial opinions outside [0, 1] (range [0.2, 1.5]); accepted as-is\n"
        "error: invalid scenario: negative stubbornness k[2] = -0.1\n")


@pytest.mark.parametrize("kind", ["relative", "absolute", "backslash"])
def test_scenario_name_cannot_leave_out_dir(tmp_path, capsys, kind):
    name = {"relative": "../escaped", "absolute": str(tmp_path / "escaped"),
            "backslash": "sub\\escaped"}[kind]
    data = network_to_dict(PRESETS["fig2b"].network)
    data["name"] = name
    scenario = tmp_path / "named.json"
    scenario.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scenario), "--samples", "11",
                 "--out", str(out)]) == EXIT_INPUT
    assert "'name' must not contain" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["named.json"]
