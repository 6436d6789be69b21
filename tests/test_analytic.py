"""Tests for the closed-form trajectories, limits and consensus metrics."""

import contextlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import X0_LADDER, complete_uniform_net, general_route, leader_net
import opiniongame.analytic as analytic_module
from opiniongame import solver
from opiniongame.analytic import (complete_limit, complete_params,
                                  complete_trajectory, consensus_times,
                                  epsilon_consensus_time, gamma,
                                  leader_consensus_time, leader_distance,
                                  leader_limit, leader_params, leader_trajectory,
                                  shrink)
from opiniongame.cli import PRESETS, closed_form_deviation, cmd_limits
from opiniongame.network import CompleteUniform, SingleLeader
from opiniongame.solver import cosh_ratios, solve_equilibrium

FIG1B = CompleteUniform(n=10, w=2.0, k=0.2, T=5.0)


def gamma_reference(n, w, k, T, t):
    """Direct high-precision evaluation of the shrink factor."""
    import mpmath
    mpmath.mp.dps = 40
    lam = mpmath.mpf(k) + n * mpmath.mpf(w)
    s = mpmath.sqrt(lam)
    val = k / lam + (n * w / lam) * mpmath.cosh(s * (T - t)) / mpmath.cosh(s * T)
    return float(val)


def test_gamma_boundary_is_one():
    assert gamma(FIG1B, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_gamma_no_coupling_is_constant_one():
    p = CompleteUniform(n=5, w=0.0, k=0.7, T=3.0)
    for t in (0.0, 1.0, 3.0):
        assert gamma(p, t) == pytest.approx(1.0, abs=1e-14)


def test_gamma_reference_values():
    for t in (0.0, 1.3, 2.5, 5.0):
        assert gamma(FIG1B, t) == pytest.approx(
            gamma_reference(10, 2.0, 0.2, 5.0, t), rel=1e-13)


def test_gamma_strictly_decreasing_within_unit_interval():
    ts = np.linspace(0.0, FIG1B.T, 50)
    vals = np.array([gamma(FIG1B, t) for t in ts])
    assert np.all(vals > 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) < 0.0)


def test_gamma_overflow_safe_for_long_horizons():
    p = CompleteUniform(n=10, w=2.0, k=0.2, T=5000.0)
    val = gamma(p, 2500.0)
    assert np.isfinite(val)
    assert val == pytest.approx(p.k / p.lambda1, rel=1e-12)


def test_gamma_shrinks_with_scaled_rates():
    # scaling k and n w together keeps k/lambda1 but speeds convergence
    t = 1.0
    vals = []
    for scale in (1.0, 2.0, 4.0, 8.0):
        p = CompleteUniform(n=10, w=2.0 * scale, k=0.2 * scale, T=5.0)
        vals.append(gamma(p, t))
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_degenerate_params_freeze_every_agent():
    # w = k = 0: each agent pays only for its control, so x = x0 throughout
    x0 = np.array([0.1, 0.4, 0.6, 0.9])
    p = complete_params(complete_uniform_net(4, 0.0, 0.0, x0, 1.0))
    assert p.lambda1 == 0.0
    ts = np.linspace(0.0, 1.0, 5)
    assert np.array_equal(gamma(p, ts), np.ones(5)) and gamma(p, 0.5) == 1.0
    np.testing.assert_allclose(complete_limit(p, x0), x0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(complete_trajectory(p, x0, ts), np.tile(x0, (5, 1)),
                               rtol=0, atol=1e-15)
    assert epsilon_consensus_time(p, x0, 0.5) == 0.0
    assert epsilon_consensus_time(p, x0, 0.3) is None


def test_complete_trajectory_boundary_and_consensus():
    x0 = np.array([0.2, 0.4, 0.9])
    p = CompleteUniform(n=3, w=1.0, k=0.5, T=2.0)
    np.testing.assert_allclose(complete_trajectory(p, x0, 0.0), x0, atol=1e-14)
    same = np.full(3, 0.6)
    for t in (0.0, 1.0, 2.0):
        np.testing.assert_allclose(complete_trajectory(p, same, t), same, atol=1e-15)


def test_complete_trajectory_preserves_mean():
    x0 = np.array([0.05, 0.3, 0.55, 0.8, 0.97])
    p = CompleteUniform(n=5, w=1.7, k=0.3, T=4.0)
    for t in np.linspace(0, 4.0, 9):
        out = complete_trajectory(p, x0, t)
        assert out.mean() == pytest.approx(x0.mean(), abs=1e-12)


def test_complete_trajectory_matches_solver(fig1b_net):
    traj = solve_equilibrium(fig1b_net, 201)
    p = complete_params(fig1b_net)
    ref = np.array([complete_trajectory(p, fig1b_net.x0, t) for t in traj.grid])
    assert np.max(np.abs(ref - traj.x)) <= 1e-8


def test_complete_limit_values():
    x0 = X0_LADDER
    # no stubbornness: exact average consensus
    p0 = CompleteUniform(n=10, w=2.0, k=0.0, T=5.0)
    np.testing.assert_allclose(complete_limit(p0, x0), x0.mean(), atol=1e-15)
    # no coupling: nobody moves
    pw = CompleteUniform(n=10, w=0.0, k=0.3, T=5.0)
    np.testing.assert_allclose(complete_limit(pw, x0), x0, atol=1e-15)
    # strong-coupling ladder instance
    lim = complete_limit(FIG1B, x0)
    np.testing.assert_allclose(lim, x0.mean() + (0.2 / 20.2) * (x0 - x0.mean()),
                               atol=1e-15)


def test_complete_limit_agrees_with_long_horizon_solver():
    # T = 50 makes cosh(sqrt(lambda) T) ~ 1e97; the spectral route handles it
    net = complete_uniform_net(10, 2.0, 0.2, X0_LADDER, 50.0)
    traj = solve_equilibrium(net, 101)
    lim = complete_limit(complete_params(net), net.x0)
    assert np.max(np.abs(traj.x[-1] - lim)) <= 1e-10


def test_pairwise_distance():
    # the complete family's law |x_i(t) - x_j(t)| = gamma(t) |x0_i - x0_j|
    assert float(gamma(FIG1B, 0.0)) == pytest.approx(1.0)
    traj = solve_equilibrium(
        complete_uniform_net(10, 2.0, 0.2, X0_LADDER, 5.0), 201)
    mid = 100
    measured = abs(traj.x[mid, 0] - traj.x[mid, 7])
    predicted = float(gamma(FIG1B, traj.grid[mid])) * abs(X0_LADDER[0] - X0_LADDER[7])
    assert measured == pytest.approx(predicted, abs=1e-8)


def test_pairwise_distance_non_increasing():
    ts = np.linspace(0, 5.0, 40)
    vals = [float(gamma(FIG1B, t)) * abs(0.05 - 0.95) for t in ts]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_epsilon_consensus_immediate_when_eps_large():
    assert epsilon_consensus_time(FIG1B, X0_LADDER, 0.5) == 0.0


def test_epsilon_consensus_unreachable_below_stubborn_floor():
    floor = (FIG1B.k / FIG1B.lambda1) * 0.45  # max deviation from the mean
    assert epsilon_consensus_time(FIG1B, X0_LADDER, 0.9 * floor) is None


def test_epsilon_consensus_matches_grid_scan():
    eps = 0.1
    t_star = epsilon_consensus_time(FIG1B, X0_LADDER, eps)
    traj = solve_equilibrium(
        complete_uniform_net(10, 2.0, 0.2, X0_LADDER, 5.0), 2001)
    dev = np.max(np.abs(traj.x - X0_LADDER.mean()), axis=1)
    scan = traj.grid[np.argmax(dev <= eps)]
    h = traj.grid[1] - traj.grid[0]
    assert abs(t_star - scan) <= h


# ---------------------------------------------------------------------------
# single-leader topology


def heterogeneous_leader():
    k = np.array([0.4, 0.0, 0.6, 1.1, 0.25])
    w1 = np.array([0.0, 2.0, 0.9, 1.4, 2.7])
    return SingleLeader(k=k, w1=w1, T=4.0)


def test_leader_trajectory_boundary():
    p = heterogeneous_leader()
    x0 = np.array([0.1, 0.35, 0.5, 0.75, 0.9])
    np.testing.assert_allclose(leader_trajectory(p, x0, 0.0), x0, atol=1e-13)


def test_leader_never_moves():
    p = heterogeneous_leader()
    x0 = np.array([0.1, 0.35, 0.5, 0.75, 0.9])
    for t in np.linspace(0, p.T, 7):
        assert leader_trajectory(p, x0, t)[0] == x0[0]


def test_nonstubborn_follower_joins_leader_on_long_horizons():
    p = SingleLeader(k=np.array([0.5, 0.0]), w1=np.array([0.0, 1.5]), T=60.0)
    x0 = np.array([0.2, 0.9])
    out = leader_trajectory(p, x0, p.T)
    assert abs(out[1] - x0[0]) < 1e-9


def test_leader_trajectory_matches_solver(fig2b_net):
    traj = solve_equilibrium(fig2b_net, 201)
    p = leader_params(fig2b_net)
    ref = np.array([leader_trajectory(p, fig2b_net.x0, t) for t in traj.grid])
    assert np.max(np.abs(ref - traj.x)) <= 1e-8


def leader_row_weights(p, i, t):
    """(rho_i, sigma_i) with x_i(t) = rho_i(t) x0_1 + sigma_i(t) x0_i.

    rho_i = w_i1/l_i - xi_i and sigma_i = k_i/l_i + xi_i; the pair always
    sums to one.  A second form of leader_trajectory's row i.
    """
    li = p.lam[i]
    if li == 0.0:
        return 0.0, 1.0
    xi = (p.w1[i] / li) * float(cosh_ratios(li, p.T - t, p.T)[0])
    return p.w1[i] / li - xi, p.k[i] / li + xi


def test_leader_row_weights_equivalent_form():
    # x_i = rho_i x0_1 + sigma_i x0_i must reproduce the direct formula,
    # and the weights always sum to one
    p = heterogeneous_leader()
    x0 = np.array([0.1, 0.35, 0.5, 0.75, 0.9])
    for t in np.linspace(0, p.T, 9):
        direct = leader_trajectory(p, x0, t)
        for i in range(1, p.n):
            rho, sigma = leader_row_weights(p, i, t)
            assert rho + sigma == pytest.approx(1.0, abs=1e-12)
            assert rho * x0[0] + sigma * x0[i] == pytest.approx(direct[i], abs=1e-12)


def test_leader_limit_cases():
    x0 = np.array([0.2, 0.9, 0.6])
    # k_i = 0: full adoption of the leader's opinion
    p = SingleLeader(k=np.array([0.5, 0.0, 0.0]), w1=np.array([0.0, 1.0, 2.0]), T=3.0)
    np.testing.assert_allclose(leader_limit(p, x0), [0.2, 0.2, 0.2], atol=1e-15)
    # w_i1 = 0: fully detached followers keep their opinions
    p = SingleLeader(k=np.array([0.5, 0.7, 0.9]), w1=np.zeros(3), T=3.0)
    np.testing.assert_allclose(leader_limit(p, x0), x0, atol=1e-15)
    # w_i1 = k_i: midpoint
    p = SingleLeader(k=np.array([0.5, 0.7, 0.9]), w1=np.array([0.0, 0.7, 0.9]), T=3.0)
    np.testing.assert_allclose(leader_limit(p, x0)[1:], (x0[1:] + 0.2) / 2.0,
                               atol=1e-15)


def test_leader_distance():
    p = heterogeneous_leader()
    x0 = np.array([0.1, 0.1, 0.5, 0.75, 0.9])
    assert leader_distance(p, 1, x0, 1.0) == 0.0  # same initial opinion
    assert leader_distance(p, 2, x0, 0.0) == pytest.approx(0.4)
    ts = np.linspace(0, p.T, 9)
    for i in (2, 3, 4):
        vals = [leader_distance(p, i, x0, t) for t in ts]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_leader_distance_matches_solver(fig2b_net):
    traj = solve_equilibrium(fig2b_net, 201)
    p = leader_params(fig2b_net)
    mid = 77
    for i in (1, 5, 9):
        measured = abs(traj.x[mid, i] - traj.x[mid, 0])
        predicted = leader_distance(p, i, fig2b_net.x0, traj.grid[mid])
        assert measured == pytest.approx(predicted, abs=1e-8)


def test_leader_consensus_time_monotone_bisection(fig2b_net):
    p = leader_params(fig2b_net)
    t = leader_consensus_time(p, 9, fig2b_net.x0, 0.1)
    # verify against a dense scan of the closed form
    ts = np.linspace(0, p.T, 20001)
    dist = np.array([leader_distance(p, 9, fig2b_net.x0, s) for s in ts])
    scan = ts[np.argmax(dist <= 0.1)]
    assert t == pytest.approx(scan, abs=1e-3)


def test_indifferent_follower_convention():
    # k_i = w_i1 = 0: the follower has no incentives and stays put
    p = SingleLeader(k=np.array([0.5, 0.0]), w1=np.array([0.0, 0.0]), T=2.0)
    x0 = np.array([0.3, 0.8])
    for t in (0.0, 1.0, 2.0):
        assert leader_trajectory(p, x0, t)[1] == x0[1]
    assert leader_limit(p, x0)[1] == x0[1]
    assert leader_distance(p, 1, x0, 1.5) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# array times: one call over a whole grid


def stacked_scalar_calls(fn, p, x0, ts):
    return np.array([fn(p, x0, t) for t in ts])


def preset_closed_form(name):
    net = PRESETS[name].network
    if name.startswith("fig1"):
        return complete_trajectory, complete_params(net), net.x0
    return leader_trajectory, leader_params(net), net.x0


@pytest.mark.parametrize("name", ["fig1b", "fig1c", "fig2b", "fig2c"])
@pytest.mark.parametrize("m", [2, 3, 10, 201, 2001])
def test_array_time_matches_stacked_scalar_calls(name, m):
    fn, p, x0 = preset_closed_form(name)
    ts = np.linspace(0.0, p.T, m)
    out = fn(p, x0, ts)
    assert out.shape == (m, p.n)
    assert np.array_equal(out, stacked_scalar_calls(fn, p, x0, ts))


def test_leader_array_time_with_indifferent_follower():
    # follower 2 has lam = k + w1 = 0 and is pinned to its own opinion
    p = SingleLeader(k=np.array([0.3, 0.0, 0.5, 0.2]),
                     w1=np.array([0.0, 0.0, 1.0, 0.7]), T=3.0)
    x0 = np.array([0.9, 0.1, 0.4, 0.6])
    ts = np.linspace(0.0, p.T, 301)
    out = leader_trajectory(p, x0, ts)
    assert np.array_equal(out, stacked_scalar_calls(leader_trajectory, p, x0, ts))
    assert np.all(out[:, 1] == x0[1]) and np.all(out[:, 0] == x0[0])


def test_leader_array_time_on_stiff_star():
    p = SingleLeader(k=np.array([0.3, 0.1, 0.5, 0.2]),
                     w1=np.array([0.0, 400.0, 1000.0, 0.7]), T=3.0)
    assert np.sqrt(p.lam[2]) * p.T > 30.0  # cosh(sqrt(l) T) beyond 1e13
    x0 = np.array([0.9, 0.1, 0.4, 0.6])
    ts = np.linspace(0.0, p.T, 301)
    out = leader_trajectory(p, x0, ts)
    assert np.all(np.isfinite(out))
    assert np.array_equal(out, stacked_scalar_calls(leader_trajectory, p, x0, ts))


def test_scalar_time_returns_agent_vector():
    for fn, p, x0 in (preset_closed_form("fig1b"), preset_closed_form("fig2c")):
        assert fn(p, x0, 1.25).shape == (p.n,)
        assert fn(p, x0, np.float64(p.T)).shape == (p.n,)
        assert fn(p, x0, np.array([[0.0, 1.0], [2.0, 3.0]])).shape == (2, 2, p.n)


@pytest.mark.parametrize("bad", [-0.5, 5.5])
def test_array_time_with_one_entry_out_of_range_raises(bad):
    for fn, p, x0 in (preset_closed_form("fig1b"), preset_closed_form("fig2b")):
        ts = np.linspace(0.0, p.T, 11)
        ts[4] = bad
        with pytest.raises(ValueError, match="t must lie in"):
            fn(p, x0, ts)


@pytest.mark.parametrize("name, fn_name", [("fig1c", "complete_trajectory"),
                                           ("fig2b", "leader_trajectory")])
def test_closed_form_deviation_makes_one_call(name, fn_name, monkeypatch):
    net = PRESETS[name].network
    traj = solve_equilibrium(net, 201)
    calls = []
    original = getattr(analytic_module, fn_name)
    monkeypatch.setattr(analytic_module, fn_name,
                        lambda *args: calls.append(args) or original(*args))
    assert closed_form_deviation(net, traj) <= 1e-8
    assert len(calls) == 1 and np.array_equal(calls[0][2], traj.grid)


@pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -0.1])
def test_consensus_times_reject_eps_outside_open_interval(eps):
    with pytest.raises(ValueError, match="eps"):
        epsilon_consensus_time(FIG1B, X0_LADDER, eps)
    p = leader_params(PRESETS["fig2b"].network)
    with pytest.raises(ValueError, match="eps"):
        leader_consensus_time(p, 3, X0_LADDER, eps)


# ---------------------------------------------------------------------------
# consensus times: every rate and every eps from one evaluation of the ratios


@pytest.mark.parametrize("name", ["fig1b", "fig2b", "fig2c", "star of 40"])
def test_limits_evaluates_the_ratios_once_per_family(name, monkeypatch):
    # one _ratio_numerators call, whatever n and the number of eps; the
    # per-follower, per-endpoint, per-eps calls made 5 and 9 on fig1b, and
    # 35 and 69 on fig2b and fig2c
    net = (leader_net(40, np.linspace(0.1, 4.0, 40), 0.2, np.linspace(0.0, 1.0, 40), 5.0)
           if name == "star of 40" else PRESETS[name].network)
    calls = []
    original = solver._ratio_numerators
    monkeypatch.setattr(solver, "_ratio_numerators",
                        lambda *args: calls.append(args) or original(*args))
    for eps_list in ([0.1, 0.01], [0.3, 0.05, 0.001, 1e-5]):
        calls.clear()
        cmd_limits(net, eps_list)
        assert len(calls) == 1


def consensus_time_reference(p, i, x0, eps):
    """Follower i alone: its shrink at t = 0 and t = T, then the explicit
    inversion between them."""
    rate = (p.lam[i], p.k[i], p.w1[i], p.T)
    dist = abs(float(x0[i] - x0[0]))
    if shrink(*rate, 0.0) * dist <= eps:
        return 0.0
    if shrink(*rate, p.T) * dist > eps:
        return None
    return analytic_module._ratio_time(*rate, eps / dist)


followers = st.tuples(st.sampled_from(["k = 0", "w = 0", "lam = 0", "dist = 0", "any"]),
                      st.floats(0.0, 1.0), st.floats(0.01, 5.0), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(drawn=st.lists(followers, min_size=1, max_size=9), T=st.floats(0.1, 50.0),
       lead=st.floats(0.0, 1.0), eps_list=st.lists(st.floats(1e-8, 1.0), min_size=1, max_size=4))
@example(drawn=[("lam = 0", 0.5, 1.0, 0.9), ("any", 0.1, 2.0, 0.2)], T=1.0, lead=0.1,
         eps_list=[0.5, 0.01])
def test_consensus_times_match_each_follower_alone_property(drawn, T, lead, eps_list):
    k, w1, x0 = [0.3], [0.0], [lead]
    for kind, kf, wf, xf in drawn:
        k.append(0.0 if kind in ("k = 0", "lam = 0") else kf)
        w1.append(0.0 if kind in ("w = 0", "lam = 0") else wf)
        x0.append(lead if kind == "dist = 0" else xf)
    p, x0 = SingleLeader(k=np.array(k), w1=np.array(w1), T=T), np.array(x0)
    at_T, times = consensus_times(p, x0, eps_list)
    assert np.array_equal(at_T, [shrink(*rate, T, T) for rate in zip(p.lam, p.k, p.w1)][1:])
    assert len(times) == len(eps_list)
    for eps, row in zip(eps_list, times):
        assert len(row) == p.n - 1
        for i, t in enumerate(row, 1):
            assert t == consensus_time_reference(p, i, x0, eps)
            assert t == leader_consensus_time(p, i, x0, eps)
            if t is None:  # eps is not reached on this horizon
                assert leader_distance(p, i, x0, T) > eps
            else:
                assert 0.0 <= t <= T


# ---------------------------------------------------------------------------
# properties over random parameters


complete_cases = st.builds(
    lambda n, w, k, T, seed: (CompleteUniform(n=n, w=w, k=k, T=T),
                              np.random.default_rng(seed).uniform(0.0, 1.0, n)),
    st.integers(2, 12), st.floats(0.01, 5.0), st.floats(0.0, 1.0),
    st.floats(0.1, 50.0), st.integers(0, 2**32 - 1))

leader_cases = st.builds(
    lambda n, T, seed: _random_leader(np.random.default_rng(seed), n, T),
    st.integers(2, 8), st.floats(0.1, 50.0), st.integers(0, 2**32 - 1))


def _random_leader(rng, n, T):
    w1 = rng.uniform(0.01, 5.0, n)
    w1[0] = 0.0
    return SingleLeader(k=rng.uniform(0.0, 1.0, n), w1=w1, T=T), rng.uniform(0.0, 1.0, n)


def _levels(lo, hi, theta, below):
    """A level theta of the way from lo to hi, one float lower if below."""
    eps = lo + theta * (hi - lo)
    return float(np.nextafter(eps, 0.0)) if below else eps


@settings(max_examples=200, deadline=None)
@given(case=complete_cases, theta=st.floats(0.0, 1.0), below=st.booleans())
@example(case=(CompleteUniform(n=12, w=0.37, k=0.98, T=27.9),
               np.random.default_rng(68).uniform(0.0, 1.0, 12)), theta=1.0, below=True)
def test_epsilon_consensus_time_inverts_gamma_property(case, theta, below):
    # the example sits one float below gamma(0), where the unclamped
    # inversion returns -3.6e-15
    p, x0 = case
    spread = float(np.max(np.abs(x0 - x0.mean())))
    eps = _levels(spread * float(gamma(p, p.T)), spread * float(gamma(p, 0.0)), theta, below)
    assume(eps > 0.0)
    t = epsilon_consensus_time(p, x0, eps)
    assert t is None or 0.0 <= t <= p.T
    if t is not None and 0.0 < t < p.T:
        assert spread * float(gamma(p, t)) == pytest.approx(eps, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(case=leader_cases, theta=st.floats(0.0, 1.0), below=st.booleans(),
       pick=st.integers(0, 2**16))
def test_leader_consensus_time_inverts_distance_property(case, theta, below, pick):
    p, x0 = case
    i = 1 + pick % (p.n - 1)
    eps = _levels(leader_distance(p, i, x0, p.T), leader_distance(p, i, x0, 0.0), theta, below)
    assume(eps > 0.0)
    t = leader_consensus_time(p, i, x0, eps)
    assert t is None or 0.0 <= t <= p.T
    if t is not None and 0.0 < t < p.T:
        assert leader_distance(p, i, x0, t) == pytest.approx(eps, rel=1e-12)


def test_epsilon_consensus_time_at_the_stubborn_floor():
    # gamma(T) rounds to k/l1 here, so eps = spread k/l1 counts as reached
    # by T although the ratio term it leaves, c = 0, is never reached
    p = CompleteUniform(n=10, w=2.0, k=1.0, T=100.0)
    spread = 0.45
    t = epsilon_consensus_time(p, X0_LADDER, spread * float(gamma(p, p.T)))
    assert t is not None and 0.0 < t <= p.T


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 10), w=st.floats(0.05, 5.0), k=st.floats(0.0, 1.0),
       T=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1))
def test_complete_closed_form_matches_both_routes_property(n, w, k, T, seed):
    x0 = np.random.default_rng(seed).uniform(0.0, 1.0, n)
    net = complete_uniform_net(n, w, k, x0, T)
    ts = np.linspace(0.0, T, 101)
    ref = complete_trajectory(complete_params(net), x0, ts)
    for route in (contextlib.nullcontext(), general_route()):
        with route:
            assert np.max(np.abs(solve_equilibrium(net, 101).x - ref)) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 10), T=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1))
def test_leader_closed_form_matches_both_routes_property(n, T, seed):
    rng = np.random.default_rng(seed)
    net = leader_net(n, rng.uniform(0.05, 5.0, n), rng.uniform(0.0, 1.0, n),
                     rng.uniform(0.0, 1.0, n), T)
    ts = np.linspace(0.0, T, 101)
    ref = leader_trajectory(leader_params(net), net.x0, ts)
    for route in (contextlib.nullcontext(), general_route()):
        with route:
            assert np.max(np.abs(solve_equilibrium(net, 101).x - ref)) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(case=complete_cases)
def test_gamma_non_increasing_property(case):
    p, _ = case
    vals = gamma(p, np.linspace(0.0, p.T, 401))
    assert np.all(np.diff(vals) <= 0.0)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 10), w=st.floats(0.05, 5.0), T=st.floats(0.1, 10.0),
       seed=st.integers(0, 2**32 - 1))
def test_mean_fixed_on_complete_nets_without_stubbornness_property(n, w, T, seed):
    x0 = np.random.default_rng(seed).uniform(0.0, 1.0, n)
    net = complete_uniform_net(n, w, 0.0, x0, T)
    for route in (contextlib.nullcontext(), general_route()):
        with route:
            x = solve_equilibrium(net, 101).x
        assert np.max(np.abs(x.mean(axis=1) - x0.mean())) <= 1e-12
