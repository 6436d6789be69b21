"""Acceptance suite: one test per criterion, each printing a PASS line after
its assertions run at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines interleaved with the test names.
"""

import numpy as np

from conftest import (X0_LADDER, complete_uniform_net, kernel_cosh, kernel_coshm1,
                      kernel_sinhc, leader_net, random_net)
from opiniongame.analytic import (complete_limit, complete_params,
                                  complete_trajectory, gamma, leader_limit,
                                  leader_params, leader_trajectory)
from opiniongame.cli import PRESETS
from opiniongame.network import build_matrices
from opiniongame.solver import solve_equilibrium, transition_blocks
from opiniongame.verify import (deviation_test, evaluate_cost, nash_residual,
                                quadratic_cost)


def _report(num, text):
    print(f"\n[PASS] criterion {num}: {text}")


def _solve(name, m=501):
    return solve_equilibrium(PRESETS[name].network, m)


def test_criterion_1_complete_uniform_cross_path():
    worst = 0.0
    for name in ("fig1b", "fig1c"):
        net = PRESETS[name].network
        traj = solve_equilibrium(net, 501)
        params = complete_params(net)
        ref = np.array([complete_trajectory(params, net.x0, t) for t in traj.grid])
        worst = max(worst, float(np.max(np.abs(ref - traj.x))))
    assert worst <= 1e-8, f"closed form vs solver sup gap {worst:.3e}"
    _report(1, f"complete-uniform closed form vs solver, sup gap {worst:.2e} <= 1e-8")


def test_criterion_2_leader_cross_path():
    worst = 0.0
    nets = [PRESETS["fig2b"].network, PRESETS["fig2c"].network]
    rng = np.random.default_rng(42)
    nets.append(leader_net(10, np.concatenate([[0.0], rng.uniform(0, 3, 9)]),
                           rng.uniform(0, 3, 10), X0_LADDER, 5.0,
                           name="leader-heterogeneous"))
    for net in nets:
        traj = solve_equilibrium(net, 501)
        params = leader_params(net)
        ref = np.array([leader_trajectory(params, net.x0, t) for t in traj.grid])
        worst = max(worst, float(np.max(np.abs(ref - traj.x))))
    assert worst <= 1e-8, f"leader closed form vs solver sup gap {worst:.3e}"
    _report(2, f"single-leader closed form vs solver, sup gap {worst:.2e} <= 1e-8")


def test_criterion_3_block_identities():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        net = random_net(rng, n=int(rng.integers(2, 13)))
        W = build_matrices(net)
        for t in rng.uniform(0.0, net.T, 10):
            Phi, Psi = transition_blocks(W, t)
            n = len(W)
            phi11, phi12, phi21, phi22 = Phi[:n, :n], Phi[:n, n:], Phi[n:, :n], Phi[n:, n:]
            scale = max(1.0, float(np.max(np.abs(phi11))))
            gaps = (np.max(np.abs(phi22 - phi11)),
                    np.max(np.abs(Psi[n:, n:] + phi12)),
                    np.max(np.abs(phi21 - W @ phi12)))
            worst = max(worst, float(max(gaps) / scale))
    assert worst <= 1e-10, f"block identity residual {worst:.3e}"
    _report(3, f"phi/psi block identities on 20 random nets, residual {worst:.2e} <= 1e-10")


def test_criterion_4_boundary_conditions():
    rng = np.random.default_rng(11)
    nets = [p.network for p in PRESETS.values()]
    nets += [random_net(rng) for _ in range(10)]
    worst_pT = 0.0
    for net in nets:
        traj = solve_equilibrium(net, 301)
        assert np.array_equal(traj.x[0], net.x0), "x(0) must equal x0 exactly"
        worst_pT = max(worst_pT, float(np.max(np.abs(traj.p[-1]))))
    assert worst_pT <= 1e-8, f"terminal costate {worst_pT:.3e}"
    _report(4, f"x(0) exact and |p(T)| <= 1e-8 on presets + 10 random nets "
               f"(worst {worst_pT:.2e})")


def test_criterion_5_nash_certification():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for name in ("fig1b", "fig2b", "fig3b", "fig3c"):
        net = PRESETS[name].network
        res = nash_residual(net, solve_equilibrium(net, 501))
        worst = max(worst, res)
    for _ in range(10):
        net = random_net(rng)
        res = nash_residual(net, solve_equilibrium(net, 501))
        worst = max(worst, res)
    assert worst <= 1e-6, f"nash residual {worst:.3e}"
    _report(5, f"nash residual at m=501 on presets + 10 random nets, "
               f"worst {worst:.2e} <= 1e-6")


def test_criterion_5_residual_doubling_ratio():
    # The residual is a cost gap J_h(u_cand) - J_h(u_br) taken at the
    # minimizer u_br of a strictly convex discrete quadratic.  Its gradient
    # vanishes there, so the gap equals (1/2) du' H du with du = u_cand - u_br:
    # it is quadratic in the control error.  The transcription is second
    # order, so du = O(h^2) (ratio in [3, 5] per grid doubling, checked in
    # test_verify.py) and the gap is O(h^4): its ratio lies in the image of
    # that band under squaring, [3^2, 5^2] = [9, 25].  Decay at O(h^2)
    # (ratio 4), O(h^3) (ratio 8) or a roundoff floor (ratio 1) all fail.
    net = PRESETS["fig1b"].network
    residuals = [nash_residual(net, solve_equilibrium(net, m))
                 for m in (101, 201, 401)]
    ratios = [residuals[0] / residuals[1], residuals[1] / residuals[2]]
    assert all(9.0 <= r <= 25.0 for r in ratios), (
        f"residual doubling ratios {ratios[0]:.2f}, {ratios[1]:.2f} fall "
        "outside [9, 25]: the residual is (1/2) du' H du in the O(h^2) "
        "best-response control error du, so it must decay at O(h^4), "
        "a ratio of 3^2 to 5^2 per grid doubling")
    _report(5, f"residual doubling ratios {ratios} within [9, 25]")


def test_criterion_6_random_deviations():
    worst = 0.0
    for name in ("fig1b", "fig3b"):
        net = PRESETS[name].network
        traj = solve_equilibrium(net, 501)
        for i in range(net.n):
            ok, gain = deviation_test(net, traj, i, count=100, seed=i)
            worst = max(worst, gain)
            assert ok, f"agent {i + 1} of {name} improved by {gain:.3e}"
    assert worst <= 1e-9
    _report(6, f"100 seeded deviations per agent on fig1b/fig3b, worst "
               f"cost reduction {worst:.2e} <= 1e-9")


def test_criterion_7_consensus_limits():
    # no stubbornness, long horizon: exact average consensus
    net0 = complete_uniform_net(10, 2.0, 0.0, X0_LADDER, 50.0)
    traj0 = solve_equilibrium(net0, 201)
    gap0 = float(np.max(np.abs(traj0.x[-1] - X0_LADDER.mean())))
    assert gap0 <= 1e-6, f"k=0 consensus gap {gap0:.3e}"

    # stubborn agents: terminal opinions near the analytic long-run limit
    net = PRESETS["fig1b"].network
    params = complete_params(net)
    traj = solve_equilibrium(net, 501)
    spread = float(np.max(np.abs(net.x0 - net.x0.mean())))
    bound = abs(gamma(params, params.T) - params.k / params.lambda1) * spread + 1e-8
    gap1 = float(np.max(np.abs(traj.x[-1] - complete_limit(params, net.x0))))
    assert gap1 <= bound, f"terminal vs limit gap {gap1:.3e} > {bound:.3e}"

    # and the same for the leader topology
    net2 = PRESETS["fig2b"].network
    p2 = leader_params(net2)
    traj2 = solve_equilibrium(net2, 501)
    xi_T = np.array([
        (p2.w1[i] / p2.lam[i]) / np.cosh(np.sqrt(p2.lam[i]) * p2.T)
        * np.cosh(0.0) if p2.lam[i] > 0 else 0.0
        for i in range(1, p2.n)])
    spreads = np.abs(net2.x0[1:] - net2.x0[0])
    bound2 = float(np.max(xi_T * spreads)) + 1e-8
    gap2 = float(np.max(np.abs(traj2.x[-1] - leader_limit(p2, net2.x0))))
    assert gap2 <= bound2, f"leader terminal vs limit gap {gap2:.3e} > {bound2:.3e}"
    _report(7, f"consensus limits: k=0 gap {gap0:.2e} <= 1e-6; fig1b gap "
               f"{gap1:.2e} <= {bound:.2e}; fig2b gap {gap2:.2e} <= {bound2:.2e}")


def test_criterion_8_cost_identity():
    rng = np.random.default_rng(99)
    nets = [p.network for p in PRESETS.values()]
    nets += [random_net(rng) for _ in range(5)]
    worst = 0.0
    for net in nets:
        traj = solve_equilibrium(net, 301)
        for i, c in enumerate(evaluate_cost(net, traj)):
            gap = abs(c.total - quadratic_cost(net, traj, i))
            worst = max(worst, gap)
    assert worst <= 1e-9, f"cost identity gap {worst:.3e}"
    _report(8, f"termwise vs quadratic-form cost agree, worst gap {worst:.2e} <= 1e-9")


def test_criterion_9_figure_reproduction():
    # same terminal values, visibly slower convergence for the weak coupling
    tb = _solve("fig1b")
    tc = _solve("fig1c")
    terminal_gap = float(np.max(np.abs(tb.x[-1] - tc.x[-1])))
    assert terminal_gap <= 1e-3, f"terminal mismatch {terminal_gap:.3e}"

    def max_pairwise(traj, t):
        row = traj.x[np.searchsorted(traj.grid, t)]
        return float(np.max(row) - np.min(row))

    assert max_pairwise(tc, 2.0) > max_pairwise(tb, 2.0), \
        "weak coupling must converge visibly slower"

    # rival-leader presets: who do the second camp's followers end up with?
    f10 = slice(5, 9)
    x3b = _solve("fig3b").x[-1]
    x3c = _solve("fig3c").x[-1]
    mean_f1_b, mean_f10_b = x3b[1:5].mean(), x3b[f10].mean()
    mean_f1_c, mean_f10_c = x3c[1:5].mean(), x3c[f10].mean()
    # balanced camps: followers-10 stay nearer their own leader
    assert abs(mean_f10_b - x3b[9]) < abs(mean_f10_b - mean_f1_b)
    # hard campaigning: followers-10 defect toward the rival camp
    assert abs(mean_f10_c - mean_f1_c) < abs(mean_f10_c - x3c[9])
    _report(9, f"fig1b/fig1c terminal gap {terminal_gap:.2e}, slower spread "
               f"confirmed; fig3b camp loyalty and fig3c defection confirmed")


def test_criterion_10_kernel_limits():
    for t in (0.0, 0.5, 1.0, 2.5, 5.0):
        assert abs(kernel_cosh(0.0, t) - 1.0) <= 1e-12
        assert abs(kernel_sinhc(0.0, t) - t) <= 1e-12
        assert abs(kernel_coshm1(0.0, t) - t * t / 2.0) <= 1e-12
        for lam in (1e-9, -1e-9):
            # continuity across 0: the probe must sit within the derivative
            # bound |dk/dlam| ~ t^4 of the lam = 0 value
            assert abs(kernel_cosh(lam, t) - kernel_cosh(0.0, t)) <= 1e-9 * (1 + t ** 4)
            assert abs(kernel_sinhc(lam, t) - kernel_sinhc(0.0, t)) <= 1e-9 * (1 + t ** 5)
            assert abs(kernel_coshm1(lam, t) - kernel_coshm1(0.0, t)) <= 1e-9 * (1 + t ** 6)
    _report(10, "kernel zero-coupling limits exact to 1e-12 and continuous "
                "across lambda = 0")
