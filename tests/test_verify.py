"""Tests for cost evaluation, best responses, Nash residuals, stationarity
and deviation probes."""

import tracemalloc
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_net, symmetric_net
import opiniongame.network as network_module
import opiniongame.verify as verify_module
from opiniongame.cli import (EXIT_SOLVER, PRESETS, RunReport, constant_candidate,
                             load_scenario, main)
from opiniongame.network import InfluenceNetwork
from opiniongame.solver import EquilibriumTrajectory, solve_equilibrium
from opiniongame.verify import (CostBreakdown, StationarityReport,
                                _Transcription, best_response, certify,
                                cumulative_trapezoid_matrix, deviation_test,
                                evaluate_cost, nash_residual, quadratic_cost,
                                simpson_weights, stationarity_check)

GOLDEN = Path(__file__).parent / "golden"


def dense_energy_matrix(m, h):
    """M with u' M u / 2 = exact integral of the squared piecewise-linear u."""
    M = np.zeros((m, m))
    d = np.full(m, 2.0 * h / 3.0)
    d[0] = d[-1] = h / 3.0
    idx = np.arange(m)
    M[idx, idx] = d
    M[idx[:-1], idx[:-1] + 1] = h / 6.0
    M[idx[:-1] + 1, idx[:-1]] = h / 6.0
    return M


def dense_model(model):
    """Dense L and M of a transcription, for reference computations."""
    m = len(model.s)
    return cumulative_trapezoid_matrix(m, model.h), dense_energy_matrix(m, model.h)


def dense_cost(model, u):
    L, M = dense_model(model)
    x = model.x0i + L @ u
    return float(model.s @ (0.5 * model.q * x * x - model.b * x + model.c)
                 + 0.5 * u @ (M @ u))


def dense_best_response(net, traj, i):
    """Control minimizing H u = L' s (b - q x0) with H = M + q L' diag(s) L."""
    model = _Transcription(net, traj, i)
    L, M = dense_model(model)
    H = M + model.q * (L.T * model.s) @ L
    rhs = L.T @ (model.s * (model.b - model.q * model.x0i))
    return np.linalg.solve(H, rhs)


def test_simpson_weights_basic():
    w = simpson_weights(5, 0.5)
    np.testing.assert_allclose(w, np.array([1, 4, 2, 4, 1]) * 0.5 / 3.0)
    with pytest.raises(ValueError):
        simpson_weights(4, 0.5)


def test_cumulative_trapezoid_matrix_entries():
    h = 0.37
    for m in (1, 2, 3, 8):
        expected = np.zeros((m, m))
        for j in range(1, m):
            expected[j, 0] = h / 2.0
            expected[j, 1:j] = h
            expected[j, j] = h / 2.0
        np.testing.assert_array_equal(cumulative_trapezoid_matrix(m, h), expected)


def test_transcription_stencils_match_dense_operators(fig1b_net):
    traj = solve_equilibrium(fig1b_net, 41)
    model = _Transcription(fig1b_net, traj, 2)
    L, M = dense_model(model)
    u = np.random.default_rng(5).standard_normal(41)
    np.testing.assert_allclose(model.state(u), model.x0i + L @ u,
                               rtol=0, atol=1e-14)
    assert model.cost(u) == pytest.approx(dense_cost(model, u), rel=1e-14)
    x = model.x0i + L @ u
    dense_grad = L.T @ (model.s * (model.q * x - model.b)) + M @ u
    np.testing.assert_allclose(model.gradient(u), dense_grad, rtol=0, atol=1e-13)
    # a stack of controls is costed row by row
    U = np.stack([u, 2.0 * u, np.zeros(41)])
    np.testing.assert_array_equal(model.cost(U), [model.cost(v) for v in U])
    # the Hessian form of a stack: V (q L'SL + M) V'
    H = model.q * (L.T * model.s) @ L + M
    np.testing.assert_allclose(model.hessian_form(U), U @ H @ U.T, rtol=1e-13, atol=0)


def test_zero_coupling_equilibrium_cost_is_zero():
    net = InfluenceNetwork(n=3, edges={}, k=[0.0] * 3, x0=[0.2, 0.5, 0.8], T=2.0)
    traj = solve_equilibrium(net, 101)
    for c in evaluate_cost(net, traj):
        assert c.total == 0.0


def test_consensus_start_equilibrium_cost_is_zero(fig1b_net):
    net = InfluenceNetwork(n=10, edges=fig1b_net.edges, k=fig1b_net.k,
                           x0=np.full(10, 0.4), T=5.0)
    traj = solve_equilibrium(net, 101)
    for c in evaluate_cost(net, traj):
        assert c.total <= 1e-20


def test_cost_identity_on_solver_output(fig1b_net, fig2b_net):
    rng = np.random.default_rng(44)
    nets = [fig1b_net, fig2b_net, random_net(rng, n=7, T=2.0)]
    for net in nets:
        traj = solve_equilibrium(net, 201)
        for i, bd in enumerate(evaluate_cost(net, traj)):
            assert bd.total == pytest.approx(quadratic_cost(net, traj, i),
                                             abs=1e-9)
            assert bd.influence_term >= 0 and bd.stubbornness_term >= 0
            assert bd.control_term >= 0


@pytest.mark.parametrize("m, shift, error", [(2, 0.0, "grid too coarse"),
                                             (101, 2.0, "uniform grid"),
                                             (101, 0.5, None)])
def test_cost_checks_the_grid(fig1b_net, m, shift, error):
    # the middle node moved by shift atol, atol = 1e-12 max(1, T)
    traj = solve_equilibrium(fig1b_net, m)
    grid = traj.grid.copy()
    grid[m // 2] += shift * 1e-12 * max(1.0, fig1b_net.T)
    moved = replace(traj, grid=grid)
    if error is None:
        assert len(evaluate_cost(fig1b_net, moved)) == fig1b_net.n
    else:
        with pytest.raises(ValueError, match=error):
            evaluate_cost(fig1b_net, moved)


def test_quadratic_cost_matches_row_loop(fig2b_net):
    # the row-by-row evaluation of the same z_i' G_i z_i form; only the
    # summation order differs
    net = fig2b_net
    traj = solve_equilibrium(net, 101)
    s = simpson_weights(101, traj.grid[1] - traj.grid[0])
    for i in (3, 7):
        others = [j for j in range(net.n) if j != i]
        G = np.array([net.edges.get((i, j), 0.0) for j in others] + [net.k[i]])
        total = 0.0
        for row in range(len(traj.grid)):
            z = np.append(traj.x[row, i] - traj.x[row, others],
                          traj.x[row, i] - net.x0[i])
            total += s[row] * (z @ (G * z) + traj.p[row, i] ** 2)
        assert quadratic_cost(net, traj, i) == pytest.approx(0.5 * total, rel=1e-13)


def per_agent_cost(net, traj, i):
    """Reference: agent i's terms from a full walk over every edge."""
    s = simpson_weights(len(traj.grid), traj.grid[1] - traj.grid[0])
    xi = traj.x[:, i]
    influence = np.zeros(len(xi))
    for (a, j), w in net.edges.items():
        if a == i:
            influence += w * (xi - traj.x[:, j]) ** 2
    stubborn = net.k[i] * (xi - net.x0[i]) ** 2
    control = traj.p[:, i] ** 2
    return (0.5 * float(s @ influence), 0.5 * float(s @ stubborn),
            0.5 * float(s @ control))


@pytest.mark.parametrize("case", ["fig1b", "fig3b", "random"])
@pytest.mark.parametrize("m", [3, 35, 201, 2001])
def test_all_agent_costs_match_per_agent_reference_exactly(case, m):
    net = (random_net(np.random.default_rng(17), n=9, T=2.0) if case == "random"
           else PRESETS[case].network)
    traj = solve_equilibrium(net, m)
    costs = evaluate_cost(net, traj)
    assert [c.agent for c in costs] == list(range(net.n))
    for i, c in enumerate(costs):
        terms = (c.influence_term, c.stubbornness_term, c.control_term)
        assert terms == per_agent_cost(net, traj, i)


def three_term_cost(net, traj):
    """Reference: the three cost rows of every agent as one 3 x n x m array."""
    s = simpson_weights(len(traj.grid), traj.grid[1] - traj.grid[0])
    x = np.ascontiguousarray(traj.x.T)
    terms = np.zeros((3,) + x.shape)
    for (a, j), w in net.edges.items():
        terms[0, a] += w * (x[a] - x[j]) ** 2
    terms[1] = net.k[:, None] * (x - net.x0[:, None]) ** 2
    terms[2] = traj.p.T ** 2
    return [CostBreakdown(a, *(0.5 * float(s @ row) for row in terms[:, a]))
            for a in range(traj.n)]


@pytest.mark.parametrize("case", sorted(PRESETS) + ["directed"])
@pytest.mark.parametrize("m", [201, 2001])
def test_costs_match_three_term_reference_exactly(case, m):
    net = (random_net(np.random.default_rng(23), n=12, T=2.0) if case == "directed"
           else PRESETS[case].network)
    traj = solve_equilibrium(net, m)
    assert evaluate_cost(net, traj) == three_term_cost(net, traj)


def test_cost_holds_one_influence_array(fig1b_net):
    m = 2001
    traj = solve_equilibrium(fig1b_net, m)
    evaluate_cost(fig1b_net, traj)  # first-use allocations
    tracemalloc.start()
    try:
        evaluate_cost(fig1b_net, traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # x' and the influence rows, about 2.3 m x n arrays; the 3 x n x m
    # array of every term peaked at 6.5
    assert peak <= 3 * m * fig1b_net.n * 8


def test_leader_cost_is_zero(fig2b_net):
    # the leader has no in-edges and never moves, so every term drops out
    traj = solve_equilibrium(fig2b_net, 201)
    assert evaluate_cost(fig2b_net, traj)[0].total <= 1e-18
    assert quadratic_cost(fig2b_net, traj, 0) <= 1e-18


def test_cost_requires_odd_samples(fig1b_net):
    traj = solve_equilibrium(fig1b_net, 100)
    with pytest.raises(ValueError):
        evaluate_cost(fig1b_net, traj)


def test_best_response_free_agent_stays_put():
    # agent 0 has no in-edges and no stubbornness: doing nothing is optimal
    net = InfluenceNetwork(n=2, edges={(1, 0): 1.5}, k=[0.0, 0.3],
                           x0=[0.2, 0.9], T=2.0)
    traj = solve_equilibrium(net, 101)
    res = best_response(net, traj, 0)
    assert np.max(np.abs(res.control)) <= 1e-12
    assert res.cost <= 1e-15


def test_best_response_single_stubborn_agent():
    net = InfluenceNetwork(n=1, edges={}, k=[0.7], x0=[0.4], T=2.0)
    traj = solve_equilibrium(net, 101)
    res = best_response(net, traj, 0)
    assert np.max(np.abs(res.control)) <= 1e-12
    np.testing.assert_allclose(res.trajectory, 0.4, atol=1e-12)


def test_best_response_tracks_equilibrium(fig1b_net):
    traj = solve_equilibrium(fig1b_net, 501)
    for i in (0, 4, 9):
        res = best_response(fig1b_net, traj, i)
        assert res.gap >= -1e-9
        assert res.gap <= 1e-6
        assert np.max(np.abs(res.trajectory - traj.x[:, i])) <= 1e-3
        assert res.trajectory[0] == fig1b_net.x0[i]


@pytest.mark.parametrize("m", [3, 201, 1001])
@pytest.mark.parametrize("case", ["fig1b", "fig3b", "constant", "random"])
def test_best_response_matches_dense_solve(case, m):
    if case == "random":
        net = random_net(np.random.default_rng(8), n=7, T=2.0)
    else:
        net = PRESETS["fig1b" if case == "constant" else case].network
    traj = (constant_candidate(net, m) if case == "constant"
            else solve_equilibrium(net, m))
    for i in sorted({0, net.n // 2, net.n - 1}):
        err = np.max(np.abs(best_response(net, traj, i).control
                            - dense_best_response(net, traj, i)))
        assert err <= 1e-12, f"agent {i + 1}: {err:.2e}"


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       half=st.integers(1, 150))
def test_best_response_stationary_on_random_nets(seed, n, half):
    net = random_net(np.random.default_rng(seed), n=n)
    traj = solve_equilibrium(net, 2 * half + 1)
    for i in range(n):
        res = best_response(net, traj, i)
        scale = max(1.0, float(np.linalg.norm(_Transcription(net, traj, i).b)))
        assert res.gradient_norm <= 1e-10 * scale
        assert res.gap >= -1e-9


def test_best_response_gap_never_meaningfully_negative():
    rng = np.random.default_rng(77)
    for _ in range(4):
        net = random_net(rng, n=6, T=2.0)
        traj = solve_equilibrium(net, 201)
        for i in range(net.n):
            assert best_response(net, traj, i).gap >= -1e-9


def test_best_response_gradient_vanishes_quadratically(fig1b_net):
    # discrete stationarity at the sampled equilibrium: the gradient norm,
    # per unit quadrature weight, must decay at least as fast as h^2
    def scaled_gradient(m):
        traj = solve_equilibrium(fig1b_net, m)
        model = _Transcription(fig1b_net, traj, 0)
        h = traj.grid[1] - traj.grid[0]
        return np.max(np.abs(model.gradient(-traj.p[:, 0]))) / h

    g1, g2 = scaled_gradient(101), scaled_gradient(201)
    assert g1 / g2 >= 3.0


def test_nash_residual_small_on_solver_output(fig1b_net):
    traj = solve_equilibrium(fig1b_net, 501)
    assert nash_residual(fig1b_net, traj) <= 1e-6


def test_nash_residual_converges_at_least_quadratically(fig1b_net):
    # the residual decays at O(h^4) (see the nash_residual docstring in
    # verify.py); O(h^2) is the bound
    res = [nash_residual(fig1b_net, solve_equilibrium(fig1b_net, m))
           for m in (101, 201, 401)]
    assert res[0] / res[1] >= 3.0
    assert res[1] / res[2] >= 3.0


def test_best_response_control_error_converges_quadratically(fig1b_net):
    # the second-order transcription puts the best response O(h^2) from the
    # sampled equilibrium control, so the error shrinks ~4x per grid doubling
    errors = []
    for m in (101, 201, 401):
        traj = solve_equilibrium(fig1b_net, m)
        errors.append(max(
            float(np.max(np.abs(best_response(fig1b_net, traj, i).control
                                + traj.p[:, i])))
            for i in range(fig1b_net.n)))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    assert all(3.0 <= r <= 5.0 for r in ratios), (
        f"control error doubling ratios {ratios[0]:.2f}, {ratios[1]:.2f} "
        "fall outside [3, 5]")


def test_nash_residual_positive_for_constant_candidate(fig1b_net):
    cand = constant_candidate(fig1b_net, 201)
    assert nash_residual(fig1b_net, cand) > 1e-2


def test_nash_residual_zero_for_decoupled_constant_candidate():
    net = InfluenceNetwork(n=3, edges={}, k=[0.0] * 3, x0=[0.2, 0.5, 0.8], T=2.0)
    cand = constant_candidate(net, 101)
    assert nash_residual(net, cand) <= 1e-15


def test_verifier_forms_no_dense_matrix(fig1b_net, monkeypatch):
    m = 2001
    traj = solve_equilibrium(fig1b_net, m)

    def dense_builder(*args):
        raise AssertionError("verifier built the dense trapezoid matrix")

    monkeypatch.setattr(verify_module, "cumulative_trapezoid_matrix", dense_builder)
    tracemalloc.start()
    try:
        nash_residual(fig1b_net, traj)
        deviation_test(fig1b_net, traj, 0, count=10, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one m x m float array alone would take 8 m^2 bytes (32 MB here)
    assert peak < m * m


def test_verifier_validates_network_once_per_call(fig1b_net, monkeypatch):
    traj = solve_equilibrium(fig1b_net, 201)
    net = replace(fig1b_net)  # a fresh instance: the solve cached fig1b_net's W
    calls = []
    original = network_module._checked
    monkeypatch.setattr(network_module, "_checked",
                        lambda net: calls.append(net) or original(net))
    nash_residual(net, traj)
    assert len(calls) == 1
    deviation_test(net, traj, 3, count=5, seed=0)
    assert len(calls) == 1


def test_verifier_rejects_invalid_network(fig1b_net):
    traj = solve_equilibrium(fig1b_net, 201)
    bad = InfluenceNetwork(n=10, edges=fig1b_net.edges, k=[-0.2] + [0.2] * 9,
                           x0=fig1b_net.x0, T=fig1b_net.T)
    message = "invalid network: negative stubbornness k\\[1\\] = -0.2"
    with pytest.raises(ValueError, match=message):
        nash_residual(bad, traj)
    with pytest.raises(ValueError, match=message):
        best_response(bad, traj, 0)
    with pytest.raises(ValueError, match=message):
        deviation_test(bad, traj, 0, count=5, seed=0)


def edge_forcing(net, traj, i):
    """Agent i's frozen neighbour forcing b and constant c, one edge at a time."""
    m = len(traj.grid)
    b = np.full(m, net.k[i] * net.x0[i])
    c = np.full(m, 0.5 * net.k[i] * net.x0[i] ** 2)
    for (a, j), w in net.edges.items():
        if a == i:
            b += w * traj.x[:, j]
            c += 0.5 * w * traj.x[:, j] ** 2
    return b, c


@pytest.mark.parametrize("name", ["fig2b", "fig3b", "random"])
def test_transcription_forcing_matches_edge_loop(name):
    net = (random_net(np.random.default_rng(31), n=12) if name == "random"
           else PRESETS[name].network)
    traj = solve_equilibrium(net, 201)
    for i in (0, net.n // 2, net.n - 1):
        model = _Transcription(net, traj, i)
        b, c = edge_forcing(net, traj, i)
        np.testing.assert_allclose(model.b, b, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(model.c, c, rtol=1e-13, atol=0.0)
    # a chunk's model forms the rows of every agent at once
    model = _Transcription(net, traj, range(net.n))
    for i in range(net.n):
        b, c = edge_forcing(net, traj, i)
        np.testing.assert_allclose(model.b[i], b, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(model.c[i], c, rtol=1e-13, atol=0.0)


def test_verifier_reuses_network_matrices(fig1b_net, monkeypatch):
    def run(net):
        traj = solve_equilibrium(net, 201)
        return traj, (nash_residual(net, traj), stationarity_check(net, traj),
                      deviation_test(net, traj, 3, count=5, seed=0))

    ref_traj, expected = run(replace(fig1b_net))
    net = replace(fig1b_net)
    calls = []
    original = network_module._checked
    monkeypatch.setattr(network_module, "_checked",
                        lambda net: calls.append(net) or original(net))
    traj, got = run(net)
    assert len(calls) == 1 and calls[0] is net
    assert got == expected
    np.testing.assert_array_equal(traj.x, ref_traj.x)
    np.testing.assert_array_equal(traj.p, ref_traj.p)


def test_stationarity_check_rejects_invalid_network(fig1b_net):
    traj = solve_equilibrium(fig1b_net, 201)
    bad = InfluenceNetwork(n=10, edges=fig1b_net.edges, k=[-0.2] + [0.2] * 9,
                           x0=fig1b_net.x0, T=fig1b_net.T)
    with pytest.raises(ValueError, match="invalid network: negative stubbornness k\\[1\\] = -0.2"):
        stationarity_check(bad, traj)


def test_stationarity_clean_on_solver_output(fig2b_net):
    traj = solve_equilibrium(fig2b_net, 301)
    reports = stationarity_check(fig2b_net, traj)
    assert all(r.passed for r in reports)
    assert all(r.control_residual <= 1e-12 for r in reports)
    assert all(r.initial_residual == 0.0 for r in reports)
    assert all(r.transversality_residual <= 1e-8 for r in reports)


def test_stationarity_holds_each_residual_to_its_bound(fig2b_net):
    traj = solve_equilibrium(fig2b_net, 301)
    for report in stationarity_check(fig2b_net, traj):
        assert report.passed
        bounds = {"control_residual": verify_module._CONTROL_TOL,
                  "costate_residual": report.costate_tol,
                  "initial_residual": 0.0,
                  "transversality_residual": verify_module.BOUNDARY_TOL}
        for field, bound in bounds.items():
            assert replace(report, **{field: bound}).passed
            assert not replace(report, **{field: np.nextafter(bound, np.inf)}).passed


def test_stationarity_flags_zeroed_costate(fig1b_net):
    from opiniongame.solver import EquilibriumTrajectory
    traj = solve_equilibrium(fig1b_net, 201)
    broken = EquilibriumTrajectory(grid=traj.grid, x=traj.x,
                                   p=np.zeros_like(traj.p),
                                   u=np.zeros_like(traj.p))
    reports = stationarity_check(fig1b_net, broken)
    assert any(r.costate_residual > r.costate_tol for r in reports)


def test_stationarity_flags_an_own_control_off_minus_p(fig1b_net):
    traj = solve_equilibrium(fig1b_net, 201)
    u = -traj.p
    u[100, 3] += 1e-9
    candidate = EquilibriumTrajectory(grid=traj.grid, x=traj.x, p=traj.p, u=u)
    reports = stationarity_check(fig1b_net, candidate)
    assert [r.agent for r in reports if not r.passed] == [3]
    assert reports[3].control_residual > verify_module._CONTROL_TOL


def verification(net, traj):
    """Every result cmd_verify and cmd_simulate take from traj, and the
    report text they print."""
    _, residual, _, deviations = certify(net, traj, 5, 0)
    report = RunReport(scenario=net.name, samples=len(traj.grid),
                       costs=evaluate_cost(net, traj), residual=residual,
                       stationarity=stationarity_check(net, traj),
                       deviations=deviations, terminal=traj.x[-1].copy(), passed=True)
    return (report.costs, report.residual, report.stationarity, report.deviations,
            report.render())


@pytest.mark.parametrize("make", [solve_equilibrium, constant_candidate],
                         ids=["solver", "constant"])
@pytest.mark.parametrize("case", sorted(PRESETS) + ["directed"])
@pytest.mark.parametrize("m", [201, 2001])
def test_derived_control_verifies_as_a_stored_one(make, case, m):
    # the directed golden scenario takes the general route
    net = (load_scenario(GOLDEN / "scenario-directed.json") if case == "directed"
           else PRESETS[case].network)
    traj = make(net, m)
    assert traj.u is None
    stored = EquilibriumTrajectory(grid=traj.grid, x=traj.x, p=traj.p, u=-traj.p)
    assert verification(net, traj) == verification(net, stored)


def test_replace_keeps_a_derived_control():
    # a copy with new x still derives u = -p and stores no m x n control
    net = load_scenario(GOLDEN / "scenario-directed.json")
    traj = solve_equilibrium(net, 201)
    moved = replace(traj, x=traj.x.copy())
    assert moved.u is None
    assert stationarity_check(net, moved) == stationarity_check(net, traj)


def test_stationarity_trivial_for_single_agent():
    net = InfluenceNetwork(n=1, edges={}, k=[0.5], x0=[0.3], T=2.0)
    traj = solve_equilibrium(net, 101)
    rep = stationarity_check(net, traj)[0]
    assert rep.passed
    assert rep.costate_residual <= 1e-12


def two_array_stationarity(net, traj):
    """Reference: the whole-grid check, with dp/dt and p''' as m x n arrays."""
    h = traj.grid[1] - traj.grid[0]
    x, p = traj.x, traj.p
    u = -p if traj.u is None else traj.u
    pdot = x @ net.W.T
    np.subtract(net.k * net.x0, pdot, out=pdot)
    work = pdot @ net.W.T
    costate_tol = 2.0 * (h * h / 6.0) * np.max(np.abs(work, out=work), axis=0) + 1e-9
    dp = np.subtract(p[2:], p[:-2], out=work[2:])
    dp /= 2.0 * h
    dp -= pdot[1:-1]
    costate_resid = np.max(np.abs(dp, out=dp), axis=0)
    control_resid = np.max(np.abs(np.add(u, p, out=work), out=work), axis=0)
    return [StationarityReport(
        agent=i,
        control_residual=float(control_resid[i]),
        costate_residual=float(costate_resid[i]),
        costate_tol=float(costate_tol[i]),
        initial_residual=float(abs(x[0, i] - net.x0[i])),
        transversality_residual=float(abs(p[-1, i])),
    ) for i in range(traj.n)]


# (net, m, rows in the last block); a block holds 2^15 // n grid rows, 3276
# at n = 10
BLOCK_CASES = {
    "one block": (lambda: PRESETS["fig1b"].network, 201, 201),
    "last block 1 row": (lambda: PRESETS["fig3b"].network, 2 * 3276 + 1, 1),
    "last block 2 rows": (lambda: PRESETS["fig2b"].network, 2 * 3276 + 2, 2),
    "n = 1": (lambda: InfluenceNetwork(n=1, edges={}, k=[0.5], x0=[0.3], T=2.0),
              32768 + 2, 2),
    "n = 200": (lambda: symmetric_net(np.random.default_rng(5), 200, 5.0), 8001, 14),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_blocked_stationarity_matches_two_array_formula(case):
    make_net, m, last = BLOCK_CASES[case]
    net = make_net()
    rows = verify_module._BLOCK // net.n
    assert (m - 1) % rows + 1 == last
    traj = solve_equilibrium(net, m)
    assert stationarity_check(net, traj) == two_array_stationarity(net, traj)


@pytest.mark.parametrize("side", ["last row of a block", "first row of the next"])
def test_blocked_stationarity_checks_both_rows_at_a_seam(side):
    # a shift of x on one row moves dp/dt on that row alone, so the costate
    # residual peaks exactly there
    net = PRESETS["fig1b"].network
    rows = verify_module._BLOCK // net.n
    traj = solve_equilibrium(net, 2 * rows + 1)
    x = traj.x.copy()
    x[rows - 1 if side.startswith("last") else rows] += 1.0
    moved = replace(traj, x=x)
    reports = stationarity_check(net, moved)
    assert reports == two_array_stationarity(net, moved)
    assert not any(r.passed for r in reports)


def test_blocked_stationarity_within_rounding_on_any_trajectory():
    # Off the equilibrium the maxima fall anywhere, also on rows where BLAS
    # rounds a block's product differently from the whole grid's: with
    # OpenBLAS 0.3.31's Haswell kernels, two agents' costate_tol here move by
    # an ulp.  Every residual agrees to rounding.
    rng = np.random.default_rng(1)
    n, m = 199, 2001
    net = random_net(rng, n=n, T=2.0)
    x, p, u = rng.standard_normal((3, m, n))
    traj = EquilibriumTrajectory(grid=np.linspace(0.0, 2.0, m), x=x, p=p, u=u)
    got, want = stationarity_check(net, traj), two_array_stationarity(net, traj)
    for field in ("control_residual", "costate_residual", "costate_tol",
                  "initial_residual", "transversality_residual"):
        np.testing.assert_allclose([getattr(r, field) for r in got],
                                   [getattr(r, field) for r in want], rtol=1e-14, atol=0)


def test_stationarity_holds_no_grid_sized_array():
    net = symmetric_net(np.random.default_rng(5), 200, 5.0)
    traj = solve_equilibrium(net, 8001)
    stationarity_check(net, traj)  # first-use allocations
    tracemalloc.start()
    try:
        stationarity_check(net, traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two block arrays of 2^15 entries; dp/dt and p''' over the whole grid
    # took 25.6 MB here
    assert peak < 3_000_000


def test_deviation_probes_pass_on_equilibrium(fig1b_net):
    traj = solve_equilibrium(fig1b_net, 501)
    ok, worst = deviation_test(fig1b_net, traj, 3, count=50, seed=0)
    assert ok and worst <= 1e-9


@pytest.mark.parametrize("count", [0, -3])
def test_deviation_test_rejects_a_count_below_one(fig1b_net, count):
    traj = solve_equilibrium(fig1b_net, 101)
    with pytest.raises(ValueError) as info:
        deviation_test(fig1b_net, traj, 0, count=count, seed=0)
    assert str(info.value) == "count must be >= 1"


def test_deviation_zero_amplitude_gap_is_exactly_zero(fig1b_net, monkeypatch):
    traj = solve_equilibrium(fig1b_net, 201)
    monkeypatch.setattr(verify_module, "_AMPLITUDES", (0.0,))
    ok, worst = deviation_test(fig1b_net, traj, 0, count=5, seed=1)
    assert ok and worst == 0.0


def test_probe_with_zero_peak_is_masked(fig1b_net, monkeypatch):
    # probes whose coefficients are all zero have a zero peak; they are left
    # out of the worst gain, with no division by zero, as if never drawn
    cand = constant_candidate(fig1b_net, 201)
    drawn = np.random.default_rng(4).standard_normal((3, 2, 6))
    padded = np.zeros((6, 2, 6))
    padded[1::2] = drawn

    class Fixed:
        def __init__(self, seed):
            self.coef = padded if seed else drawn

        def standard_normal(self, size, out):
            out[...] = self.coef

    monkeypatch.setattr(np.random, "default_rng", Fixed)
    ok, worst = deviation_test(fig1b_net, cand, 0, count=3, seed=0)
    ok_padded, worst_padded = deviation_test(fig1b_net, cand, 0, count=6, seed=1)
    assert not ok and not ok_padded and worst > 1e-3
    assert worst_padded == pytest.approx(worst, rel=1e-12, abs=0.0)


def test_deviation_finds_profit_on_perturbed_candidate(fig1b_net):
    cand = constant_candidate(fig1b_net, 201)
    ok, worst = deviation_test(fig1b_net, cand, 0, count=50, seed=0)
    assert not ok and worst > 1e-3


def test_deviation_seeded_reproducible(fig1b_net):
    traj = solve_equilibrium(fig1b_net, 201)
    a = deviation_test(fig1b_net, traj, 2, count=20, seed=7)
    b = deviation_test(fig1b_net, traj, 2, count=20, seed=7)
    assert a == b


def sequential_deviation_test(net, traj, i, count, seed,
                              amplitudes=(1e-3, 1e-2, 1e-1), tol=1e-9):
    """One perturbation at a time, costed with the dense L and M."""
    model = _Transcription(net, traj, i)
    u_base = -traj.p[:, i]
    base_cost = dense_cost(model, u_base)
    rng = np.random.default_rng(seed)
    tgrid = traj.grid / traj.T
    scale = float(np.max(np.abs(u_base))) + 1.0
    worst_gain = 0.0
    for _ in range(count):
        coef_sin = rng.standard_normal(6)
        coef_cos = rng.standard_normal(6)
        delta = np.zeros(len(tgrid))
        for mode in range(1, 7):
            delta += coef_sin[mode - 1] * np.sin(np.pi * mode * tgrid)
            delta += coef_cos[mode - 1] * np.cos(np.pi * mode * tgrid)
        peak = np.max(np.abs(delta))
        if peak == 0.0:
            continue
        delta /= peak
        for amp in amplitudes:
            gain = base_cost - dense_cost(model, u_base + (amp * scale) * delta)
            worst_gain = max(worst_gain, gain)
    return worst_gain <= tol, worst_gain


@pytest.mark.parametrize("candidate", ["equilibrium", "constant"])
def test_deviation_batches_match_sequential_reference(fig1b_net, candidate):
    traj = (solve_equilibrium(fig1b_net, 201) if candidate == "equilibrium"
            else constant_candidate(fig1b_net, 201))
    for i in (0, 4, 9):
        ok, worst = deviation_test(fig1b_net, traj, i, count=30, seed=i)
        ref_ok, ref_worst = sequential_deviation_test(fig1b_net, traj, i, 30, i)
        assert ok == ref_ok
        assert worst == pytest.approx(ref_worst, rel=1e-12, abs=0.0)


def difference_deviation_test(net, traj, i, count, seed):
    """The batched difference form that the quadratic expansion replaced:
    each amplitude re-costs all perturbations as one count x m batch."""
    model = _Transcription(net, traj, i)
    u_base = -traj.p[:, i]
    base_cost = model.cost(u_base[None])[0]
    coef = np.random.default_rng(seed).standard_normal((count, 2, 6))
    phase = np.pi * np.arange(1, 7)[:, None] * (traj.grid / traj.T)
    delta = coef.reshape(count, 12) @ np.vstack([np.sin(phase), np.cos(phase)])
    peak = np.max(np.abs(delta), axis=1)
    delta = delta[peak != 0.0] / peak[peak != 0.0, None]
    scale = float(np.max(np.abs(u_base))) + 1.0
    worst_gain = 0.0
    for amp in (1e-3, 1e-2, 1e-1):
        gains = base_cost - model.cost(u_base + (amp * scale) * delta)
        worst_gain = max(worst_gain, float(np.max(gains, initial=0.0)))
    return worst_gain <= 1e-9, worst_gain


def assert_matches_difference_form(net, traj, count, results=None):
    """Same verdict for every agent; gains within 1e-12 relative where the
    difference form's gain is at least 1e-3, and otherwise within 1e-12 of
    the agent's cost, the roundoff scale of a difference of two costs.
    results defaults to deviation_test for each agent i with seed i."""
    for i in range(traj.n):
        ok, gain = (deviation_test(net, traj, i, count, seed=i) if results is None
                    else results[i])
        ref_ok, ref_gain = difference_deviation_test(net, traj, i, count, seed=i)
        assert ok == ref_ok, f"agent {i + 1}: {gain!r} vs {ref_gain!r}"
        if ref_gain >= 1e-3:
            assert gain == pytest.approx(ref_gain, rel=1e-12, abs=0.0)
        else:
            cost = float(_Transcription(net, traj, i).cost(-traj.p[:, i]))
            assert abs(gain - ref_gain) <= 1e-12 * max(1.0, abs(cost))


@pytest.mark.parametrize("m", [201, 501])
@pytest.mark.parametrize("candidate", ["solver", "constant"])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_deviation_expansion_matches_difference_form(name, candidate, m):
    net = PRESETS[name].network
    traj = (solve_equilibrium(net, m) if candidate == "solver"
            else constant_candidate(net, m))
    assert_matches_difference_form(net, traj, count=100)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
       half=st.integers(1, 150), constant=st.booleans())
def test_deviation_expansion_matches_difference_form_on_random_nets(
        seed, n, half, constant):
    net = random_net(np.random.default_rng(seed), n=n)
    m = 2 * half + 1
    traj = constant_candidate(net, m) if constant else solve_equilibrium(net, m)
    assert_matches_difference_form(net, traj, count=20)


def test_deviation_test_never_costs_a_batch(fig1b_net, monkeypatch):
    traj = constant_candidate(fig1b_net, 201)

    def no_cost(self, u):
        raise AssertionError("deviation_test re-costed controls")

    monkeypatch.setattr(_Transcription, "cost", no_cost)
    ok, worst = deviation_test(fig1b_net, traj, 0, count=20, seed=0)
    assert not ok and worst > 1e-3


def test_deviation_test_holds_about_one_probe_batch(fig1b_net):
    m, count = 2001, 100
    traj = solve_equilibrium(fig1b_net, m)
    deviation_test(fig1b_net, traj, 0, count=count, seed=0)  # first-use allocations
    tracemalloc.start()
    try:
        deviation_test(fig1b_net, traj, 0, count=count, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one count x m float batch finds the peaks; re-costing each amplitude
    # as its own batch peaked above five
    assert peak < 3 * count * m * 8


def rescaled(net, alpha):
    """The same game with weights and k times alpha over a horizon T / sqrt(alpha)."""
    return replace(net, edges={e: alpha * w for e, w in net.edges.items()},
                   k=alpha * np.asarray(net.k), T=net.T / np.sqrt(alpha))


@pytest.mark.parametrize("name", ["fig1b", "fig3b", "fig2c"])
def test_deviation_finds_profit_at_large_scale(name):
    # the base cost is near 1e50 here, so a difference of two costs loses
    # the whole gain to roundoff and reads 0.0
    net = rescaled(PRESETS[name].network, 1e100)
    cand = constant_candidate(net, 501)
    gains = [deviation_test(net, cand, i, count=100, seed=i) for i in range(net.n)]
    assert not all(ok for ok, _ in gains)
    assert max(g for _, g in gains) > 0.0


@pytest.mark.parametrize("alpha", [1e100, 1e160, 2.0**1000])
def test_deviation_test_raises_no_runtime_warning_at_large_scale(alpha):
    for name in ("fig1b", "fig3b", "fig2c"):
        net = rescaled(PRESETS[name].network, alpha)
        trajectories = [constant_candidate(net, 201), solve_equilibrium(net, 201)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for traj in trajectories:
                for i in range(net.n):
                    _, worst = deviation_test(net, traj, i, count=50, seed=i)
                    assert np.isfinite(worst)


# ---------------------------------------------------------------------------
# the batched verifier against its per-agent references


def lattice_net(rng, n):
    """A random net whose weights and k lie on a binary lattice, so that
    agents of equal in-degree share q_i = W_ii exactly and some have k = 0."""
    net = random_net(rng, n=n)
    return replace(net, edges={e: float(rng.choice([0.5, 1.0])) for e in net.edges},
                   k=rng.choice([0.0, 0.5], n))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
       half=st.integers(1, 100), lattice=st.booleans(), constant=st.booleans())
@example(seed=3, n=8, half=20, lattice=True, constant=False)
@example(seed=3, n=8, half=20, lattice=True, constant=True)
def test_batched_verifier_matches_per_agent_references(seed, n, half, lattice, constant):
    rng = np.random.default_rng(seed)
    net = lattice_net(rng, n) if lattice else random_net(rng, n=n)
    m = 2 * half + 1
    traj = constant_candidate(net, m) if constant else solve_equilibrium(net, m)
    ratios, costs = [0.0], [1.0]
    for i in range(n):
        model = _Transcription(net, traj, i)
        cost = dense_cost(model, -traj.p[:, i])
        gap = cost - dense_cost(model, dense_best_response(net, traj, i))
        ratios.append(gap / max(1.0, cost))
        costs.append(abs(cost))
    _, residual, _, deviations = certify(net, traj, 20, 0)
    assert abs(nash_residual(net, traj) - max(ratios)) <= 1e-12 * max(costs)
    assert residual == nash_residual(net, traj)
    assert_matches_difference_form(net, traj, 20, results=deviations)
    assert_matches_difference_form(net, traj, 20)


def test_lattice_example_repeats_q_and_has_free_agents():
    # the pinned example above covers both cases the batching must group
    net = lattice_net(np.random.default_rng(3), 8)
    q = net.W.diagonal()
    assert len(np.unique(q)) < len(q)
    assert np.any(net.k == 0.0)


@pytest.mark.parametrize("name, solves", [("fig1b", 1), ("fig1c", 1), ("fig2b", 2),
                                          ("fig2c", 2), ("fig3b", 3), ("fig3c", 3),
                                          ("random", 9)])
def test_nash_residual_makes_one_banded_solve_per_distinct_q(name, solves, monkeypatch):
    # fig3b's two follower camps have q = 17.1 up to roundoff: three solves
    import scipy.linalg.lapack
    net = (random_net(np.random.default_rng(5), n=9) if name == "random"
           else PRESETS[name].network)
    traj = solve_equilibrium(net, 101)
    columns = []
    original = scipy.linalg.lapack.dgbsv
    monkeypatch.setattr(scipy.linalg.lapack, "dgbsv",
                        lambda kl, ku, ab, b, **kw: columns.append(b.shape[1]) or
                        original(kl, ku, ab, b, **kw))
    nash_residual(net, traj)
    assert len(columns) == solves == len(np.unique(net.W.diagonal()))
    assert sum(columns) == net.n


@pytest.mark.parametrize("m", [501, 1001])
@pytest.mark.parametrize("name", ["fig1b", "fig3b"])
def test_direct_banded_solve_matches_solve_banded(name, m, monkeypatch):
    import scipy.linalg
    import scipy.linalg.lapack
    net = PRESETS[name].network
    model = _Transcription(net, solve_equilibrium(net, m), np.arange(net.n))
    direct = model.minimize()
    # the same band and right-hand sides through scipy's checked wrapper,
    # which takes the band without gbsv's kl rows of fill-in
    monkeypatch.setattr(scipy.linalg.lapack, "dgbsv", lambda kl, ku, ab, b, **kw: (
        None, None, scipy.linalg.solve_banded((kl, ku), ab[kl:], b), 0))
    assert np.array_equal(direct, model.minimize())


def test_banded_solve_keeps_its_errors(fig1b_net, monkeypatch):
    import scipy.linalg.lapack
    traj = solve_equilibrium(fig1b_net, 101)
    x = traj.x.copy()
    x[40, 3] = np.nan  # a non-finite forcing for every rival of agent 4
    with pytest.raises(ValueError, match="infs or NaNs"):
        _Transcription(fig1b_net, replace(traj, x=x), np.arange(3)).minimize()
    original = scipy.linalg.lapack.dgbsv
    monkeypatch.setattr(scipy.linalg.lapack, "dgbsv",
                        lambda *args, **kw: original(*args, **kw)[:3] + (1,))
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        _Transcription(fig1b_net, traj, np.arange(3)).minimize()


def test_lost_stationarity_names_the_first_agent(fig1b_net, monkeypatch, capsys):
    monkeypatch.setattr(verify_module, "_GRAD_TOL", 0.0)
    traj = solve_equilibrium(fig1b_net, 201)
    with pytest.raises(ArithmeticError, match="stationarity for agent 1: gradient norm"):
        nash_residual(fig1b_net, traj)
    assert main(["verify", "--preset", "fig1b", "--samples", "201"]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "solver error: best-response solve did not reach stationarity for agent 1: ")


@pytest.mark.parametrize("check", [nash_residual, lambda net, traj: certify(net, traj, 5, 0)],
                         ids=["nash_residual", "certificate"])
def test_verifier_holds_one_transcription_at_a_time(check, monkeypatch):
    net = random_net(np.random.default_rng(8), n=20)
    traj = solve_equilibrium(net, 101)
    monkeypatch.setattr(verify_module, "_CHUNK", 4 * 101)  # five chunks
    expected = check(net, traj)
    models, alive = [], []

    class Counted(_Transcription):
        def __init__(self, *args):
            alive.append(sum(model() is not None for model in models))
            super().__init__(*args)
            models.append(weakref.ref(self))

    monkeypatch.setattr(verify_module, "_Transcription", Counted)
    got = check(net, traj)
    # each chunk's model is built once the previous one is gone
    assert alive == [0] * 5
    assert got == expected


@pytest.mark.parametrize("kind, rows, bound", [("complete", None, 8.0),
                                               ("random", None, 7.0),
                                               ("complete", 20, 3.0)],
                         ids=["complete", "random", "complete-chunked"])
def test_batched_verifier_memory_scales_with_one_trajectory(kind, rows, bound, monkeypatch):
    n, m, count = 100, 2001, 20
    rng = np.random.default_rng(2)
    net = (InfluenceNetwork(n=n, edges={(i, j): 0.5 for i in range(n) for j in range(n)
                                        if i != j},
                            k=np.full(n, 0.2), x0=rng.uniform(0, 1, n), T=2.0)
           if kind == "complete" else random_net(rng, n=n, T=2.0, edge_prob=0.05))
    traj = constant_candidate(net, m)
    if rows is not None:
        monkeypatch.setattr(verify_module, "_CHUNK", rows * m)  # five chunks
    certify(net, traj, count, 0)  # first-use allocations and the scipy import
    tracemalloc.start()
    try:
        certify(net, traj, count, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # peaks of 7.52, 6.56 and 2.44 m x n arrays, each bound about half an
    # array above.  In one chunk the complete net's single banded solve
    # takes three arrays of right-hand sides; in five chunks each solve
    # takes a fifth of that, and the one array of x^2 that each chunk's
    # model forms and frees stays below the peak.  One m x m array alone
    # is 20.
    assert peak < bound * 8 * m * n
