"""Tests for the state/costate solver: kernels, transition blocks, spectral
data and the equilibrium trajectories."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import complete_uniform_net, leader_net, random_net
import opiniongame.solver as solver_module
from opiniongame.linalg import SingularMatrixError
from opiniongame.network import (InfluenceNetwork, build_matrices,
                                 classify_topology)
from opiniongame.solver import (BlockTransition, assemble_system, cosh_ratios,
                                kernel_cosh, kernel_coshm1, kernel_sinhc,
                                solve_equilibrium, spectral_data,
                                transition_blocks)
from opiniongame.verify import stationarity_check

# ---------------------------------------------------------------------------
# kernels


def kernel_series(lam, t, power_offset):
    """Brute-force series oracle: sum_m lam^m t^(2m+off) / (2m+off)!."""
    total, term = 0.0, t ** power_offset / math.factorial(power_offset)
    for m in range(60):
        total += term
        term *= lam * t * t / ((2 * m + 1 + power_offset) * (2 * m + 2 + power_offset))
    return total


def test_kernel_zero_lambda_limits():
    for t in (0.3, 1.0, 5.0):
        assert kernel_cosh(0.0, t) == pytest.approx(1.0, abs=1e-12)
        assert kernel_sinhc(0.0, t) == pytest.approx(t, abs=1e-12)
        assert kernel_coshm1(0.0, t) == pytest.approx(t * t / 2.0, abs=1e-12)


def test_kernel_at_time_zero():
    for lam in (-3.0, 0.0, 4.0, 100.0):
        assert kernel_cosh(lam, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert kernel_sinhc(lam, 0.0) == 0.0
        assert kernel_coshm1(lam, 0.0) == 0.0


def test_kernel_positive_lambda_reference_values():
    # lam=4, t=1: cosh 2, sinh 2 / 2, (cosh 2 - 1)/4
    assert kernel_cosh(4.0, 1.0) == pytest.approx(math.cosh(2.0), rel=1e-14)
    assert kernel_sinhc(4.0, 1.0) == pytest.approx(math.sinh(2.0) / 2.0, rel=1e-14)
    assert kernel_coshm1(4.0, 1.0) == pytest.approx((math.cosh(2.0) - 1.0) / 4.0, rel=1e-14)


def test_kernel_negative_lambda_trigonometric():
    lam, t = -9.0, 0.7
    assert kernel_cosh(lam, t) == pytest.approx(math.cos(3 * t), rel=1e-13)
    assert kernel_sinhc(lam, t) == pytest.approx(math.sin(3 * t) / 3.0, rel=1e-13)
    assert kernel_coshm1(lam, t) == pytest.approx((math.cos(3 * t) - 1.0) / lam, rel=1e-13)


def test_kernel_continuity_across_zero():
    for t in (0.5, 2.0, 5.0):
        for lam in (1e-9, -1e-9, 1e-12, -1e-12):
            assert kernel_cosh(lam, t) == pytest.approx(
                kernel_series(lam, t, 0), rel=1e-13)
            assert kernel_sinhc(lam, t) == pytest.approx(
                kernel_series(lam, t, 1), rel=1e-13)
            assert kernel_coshm1(lam, t) == pytest.approx(
                kernel_series(lam, t, 2) / 1.0, rel=1e-12, abs=1e-15)


def cosh_ratios_reference(lam, a, b):
    """cosh_ratios at 80 digits; the gap keeps its digits when a is near b."""
    import mpmath
    with mpmath.workdps(80):
        lam, a, b = mpmath.mpf(lam), mpmath.mpf(a), mpmath.mpf(b)
        s = mpmath.sqrt(lam)
        sinhc = mpmath.sinh(s * a) / s if lam else a
        gap = (mpmath.cosh(s * b) - mpmath.cosh(s * a)) / lam if lam else (b * b - a * a) / 2
        return [float(v / mpmath.cosh(s * b))
                for v in (mpmath.cosh(s * a), lam * sinhc, sinhc, gap)]


@settings(max_examples=300, deadline=None)
@given(lam=st.one_of(st.just(0.0), st.floats(1e-20, 1e6),
                     st.floats(-20.0, 6.0).map(lambda e: 10.0 ** e)),
       b=st.floats(0.01, 5000.0),
       frac=st.one_of(st.floats(0.0, 1.0), st.just(1.0 - 1e-9)))
def test_cosh_ratios_match_mpmath_property(lam, b, frac):
    a = b * frac
    got = cosh_ratios(lam, a, b)
    for name, value, ref in zip(("cosh", "s sinh", "sinh/s", "gap"), got,
                                cosh_ratios_reference(lam, a, b)):
        if abs(ref) > 1e-290:
            assert value == pytest.approx(ref, rel=1e-12), (name, lam, a, b)


def test_cosh_ratios_broadcast_over_modes_and_times():
    lam = np.array([0.0, 0.3, 40.0])
    a = np.linspace(0.0, 2.0, 5)[:, None]
    out = cosh_ratios(lam, a, 2.0)
    for got in out:
        assert got.shape == (5, 3)
    for j, l in enumerate(lam):
        for one, many in zip(cosh_ratios(l, a[:, 0], 2.0), out):
            np.testing.assert_array_equal(one, many[:, j])


# ---------------------------------------------------------------------------
# system assembly and transition blocks


def test_assemble_system_single_agent():
    net = InfluenceNetwork(n=1, edges={}, k=[0.7], x0=[0.5], T=1.0)
    sys = assemble_system(build_matrices(net))
    lam = 0.7
    np.testing.assert_allclose(sys.A, [[0.0, -1.0], [-lam, 0.0]])


def test_assemble_system_blocks_and_trace():
    net = complete_uniform_net(3, 1.0, 0.5, [0.1, 0.5, 0.9], 2.0)
    gm = build_matrices(net)
    sys = assemble_system(gm)
    n = 3
    np.testing.assert_array_equal(sys.A[:n, :n], np.zeros((n, n)))
    np.testing.assert_array_equal(sys.A[n:, n:], np.zeros((n, n)))
    np.testing.assert_array_equal(sys.A[:n, n:], -np.eye(n))
    np.testing.assert_array_equal(sys.A[n:, :n], -gm.W)
    assert np.trace(sys.A) == 0.0


def test_transition_blocks_at_zero():
    net = complete_uniform_net(4, 1.2, 0.3, [0.2, 0.4, 0.6, 0.8], 2.0)
    gm = build_matrices(net)
    bt = transition_blocks(assemble_system(gm), 0.0)
    np.testing.assert_array_equal(bt.phi11, np.eye(4))
    np.testing.assert_array_equal(bt.phi12, np.zeros((4, 4)))
    np.testing.assert_array_equal(bt.psi12, np.zeros((4, 4)))


def test_transition_blocks_scalar_cosh_form():
    lam, t = 2.6, 1.4
    net = InfluenceNetwork(n=1, edges={}, k=[lam], x0=[0.5], T=2.0)
    gm = build_matrices(net)
    bt = transition_blocks(assemble_system(gm), t)
    assert bt.phi11[0, 0] == pytest.approx(kernel_cosh(lam, t), rel=1e-12)
    assert bt.phi12[0, 0] == pytest.approx(-kernel_sinhc(lam, t), rel=1e-12)
    assert bt.phi21[0, 0] == pytest.approx(-lam * kernel_sinhc(lam, t), rel=1e-12)
    assert bt.psi12[0, 0] == pytest.approx(-kernel_coshm1(lam, t), rel=1e-12)


def test_block_identities_on_random_networks():
    # phi22 = phi11, psi22 = -phi12, phi21 = W phi12
    rng = np.random.default_rng(101)
    for _ in range(8):
        net = random_net(rng)
        gm = build_matrices(net)
        sys = assemble_system(gm)
        for t in rng.uniform(0.0, net.T, 4):
            bt = transition_blocks(sys, t)
            scale = max(1.0, np.max(np.abs(bt.phi11)))
            assert np.max(np.abs(bt.phi22 - bt.phi11)) <= 1e-10 * scale
            assert np.max(np.abs(bt.psi22 + bt.phi12)) <= 1e-10 * scale
            assert np.max(np.abs(bt.phi21 - gm.W @ bt.phi12)) <= 1e-10 * scale * max(
                1.0, np.max(np.abs(gm.W)))


def spectral_blocks(sd, gm, t):
    """Reference blocks from a real eigendecomposition W = V diag(l) V^-1:
    phi11 = V diag(cosh(sqrt(l) t)) V^-1, phi12 = -V diag(sinh(sqrt(l) t)/sqrt(l)) V^-1,
    psi12 = -V diag((cosh(sqrt(l) t)-1)/l) V^-1, phi21 = W phi12, phi22 = phi11,
    psi22 = -phi12."""
    lam = np.asarray(sd.lambdas, dtype=float)
    V, Vinv = sd.V, sd.Vinv
    phi11 = (V * np.array([kernel_cosh(l, t) for l in lam])) @ Vinv
    phi12 = -(V * np.array([kernel_sinhc(l, t) for l in lam])) @ Vinv
    psi12 = -(V * np.array([kernel_coshm1(l, t) for l in lam])) @ Vinv
    return BlockTransition(t=t, phi11=phi11, phi12=phi12, phi21=gm.W @ phi12,
                           phi22=phi11, psi12=psi12, psi22=-phi12)


def test_spectral_blocks_match_transition_blocks():
    cases = [
        complete_uniform_net(5, 1.5, 0.4, np.linspace(0.1, 0.9, 5), 3.0),
        leader_net(5, [0.0, 0.8, 1.7, 2.9, 0.6], [0.3, 0.5, 0.1, 0.9, 0.2],
                   np.linspace(0.2, 0.8, 5), 3.0),
    ]
    for net in cases:
        gm = build_matrices(net)
        sd = spectral_data(gm, classify_topology(net))
        assert sd is not None
        sys = assemble_system(gm)
        for t in (0.0, 0.6, 1.9, 3.0):
            bt = transition_blocks(sys, t)
            sb = spectral_blocks(sd, gm, t)
            scale = max(1.0, np.max(np.abs(bt.phi11)))
            for name in ("phi11", "phi12", "phi21", "phi22", "psi12", "psi22"):
                gap = np.max(np.abs(getattr(bt, name) - getattr(sb, name)))
                assert gap <= 1e-10 * scale, (net.name, name, t, gap)


def test_spectral_data_complete_uniform_spectrum():
    # modes: k + n w with multiplicity n-1, then k once
    n, w, k = 6, 1.3, 0.4
    net = complete_uniform_net(n, w, k, np.linspace(0, 1, n), 2.0)
    gm = build_matrices(net)
    sd = spectral_data(gm, classify_topology(net))
    np.testing.assert_allclose(sd.lambdas[:-1], k + n * w)
    assert sd.lambdas[-1] == pytest.approx(k)
    assert np.max(np.abs(gm.W @ sd.V - sd.V * sd.lambdas)) <= 1e-8 * np.linalg.norm(gm.W)
    np.testing.assert_allclose(sd.Vinv @ sd.V, np.eye(n), atol=1e-12)


def test_spectral_data_leader_triangular():
    net = leader_net(4, [0.0, 1.0, 2.0, 0.5], [0.2, 0.3, 0.1, 0.6],
                     [0.1, 0.4, 0.7, 0.9], 2.0)
    gm = build_matrices(net)
    sd = spectral_data(gm, classify_topology(net))
    np.testing.assert_allclose(sd.lambdas, gm.q)
    assert np.allclose(sd.V, np.tril(sd.V))
    # nu_i1 = w_i1 / (q_i - q_1)
    np.testing.assert_allclose(sd.V[1:, 0], [1.0 / 1.1, 2.0 / 1.9, 0.5 / 0.9])


def test_spectral_data_none_for_complex_spectrum():
    # a directed 3-cycle with unequal weights has complex eigenvalues
    edges = {(0, 1): 2.0, (1, 2): 2.0, (2, 0): 2.0}
    net = InfluenceNetwork(n=3, edges=edges, k=[0.1, 0.1, 0.1],
                           x0=[0.2, 0.5, 0.8], T=1.0)
    gm = build_matrices(net)
    assert np.max(np.abs(np.linalg.eigvals(gm.W).imag)) > 0.1
    assert spectral_data(gm, classify_topology(net)) is None


# ---------------------------------------------------------------------------
# general route: one-step blocks, backward Riccati sweep, forward march


def directed_net(rng, n, T, p=0.3, w_max=1.0):
    """Random digraph plus a directed ring of heavier edges, which keeps the
    spectrum complex, so route "auto" would take the general route too."""
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    w = rng.uniform(0.0, w_max, (n, n))
    ring = (np.arange(n), (np.arange(n) + 1) % n)
    mask[ring] = True
    w[ring] = rng.uniform(w_max, 1.5 * w_max, n)
    edges = {(int(i), int(j)): float(w[i, j]) for i, j in zip(*np.nonzero(mask))}
    return InfluenceNetwork(n=n, edges=edges, k=rng.uniform(0.0, 0.5, n),
                            x0=rng.uniform(0.0, 1.0, n), T=float(T))


def symmetric_net(rng, n, T, p=0.5, w_max=2.0):
    upper = np.triu(rng.random((n, n)) < p, 1)
    w = np.triu(rng.uniform(0.0, w_max, (n, n)), 1)
    edges = {(int(i), int(j)): float(w[min(i, j), max(i, j)])
             for i, j in zip(*np.nonzero(upper | upper.T))}
    return InfluenceNetwork(n=n, edges=edges, k=rng.uniform(0.0, 1.0, n),
                            x0=rng.uniform(0.0, 1.0, n), T=float(T))


def exact_step_reference(net, m):
    """The exact-step samples z_{k+1} = Phi(h) z_k + Psi(h) c, z = (x, p) and
    c = (0, K x0), with x_0 = x0 and p_{m-1} = 0, solved as one global sparse
    system; Phi and Psi come from one augmented expm of [[A, I], [0, 0]] h."""
    W = build_matrices(net).W
    n, h = net.n, net.T / (m - 1)
    aug = np.zeros((4 * n, 4 * n))
    aug[:n, n:2 * n] = -np.eye(n)
    aug[n:2 * n, :n] = -W
    aug[:2 * n, 2 * n:] = np.eye(2 * n)
    E = scipy.linalg.expm(aug * h)
    Phi, Psi = E[:2 * n, :2 * n], E[:2 * n, 2 * n:]
    forcing = Psi @ np.concatenate([np.zeros(n), net.k * net.x0])
    sp = scipy.sparse
    steps = (sp.kron(sp.eye(m - 1, m, k=1), sp.eye(2 * n))
             - sp.kron(sp.eye(m - 1, m), sp.csr_matrix(Phi)))
    first = sp.hstack([sp.eye(n, 2 * n), sp.csr_matrix((n, 2 * n * (m - 1)))])
    last = sp.hstack([sp.csr_matrix((n, 2 * n * m - n)), sp.eye(n)])
    system = sp.vstack([first, steps, last]).tocsc()
    rhs = np.concatenate([net.x0, np.tile(forcing, m - 1), np.zeros(n)])
    z = scipy.sparse.linalg.spsolve(system, rhs).reshape(m, 2 * n)
    return z[:, :n], z[:, n:]


def test_general_route_zero_costate_for_decoupled_agents():
    net = InfluenceNetwork(n=3, edges={}, k=[0.0, 0.0, 0.0],
                           x0=[0.2, 0.5, 0.8], T=2.0)
    traj = solve_equilibrium(net, 101, route="general")
    assert np.max(np.abs(traj.p)) <= 1e-14


def test_general_route_zero_costate_for_single_stubborn_agent():
    # x stays at x0, where the stubbornness pull vanishes, so p = 0 throughout
    net = InfluenceNetwork(n=1, edges={}, k=[0.8], x0=[0.4], T=3.0)
    traj = solve_equilibrium(net, 101, route="general")
    assert np.max(np.abs(traj.p)) <= 1e-12
    assert np.max(np.abs(traj.x - 0.4)) <= 1e-12


def test_general_route_terminal_costate():
    rng = np.random.default_rng(57)
    net = random_net(rng, n=6, T=2.0)
    traj = solve_equilibrium(net, 101, route="general")
    assert np.max(np.abs(traj.p[-1])) <= 1e-12


@pytest.mark.parametrize("n, T, m", [(3, 1.0, 3), (6, 2.0, 101), (12, 5.0, 201),
                                     (20, 20.0, 301), (50, 3.0, 101)])
def test_general_route_matches_exact_step_reference(n, T, m):
    rng = np.random.default_rng(n + m)
    for net in (directed_net(rng, n, T), random_net(rng, n=n, T=T)):
        traj = solve_equilibrium(net, m, route="general")
        x_ref, p_ref = exact_step_reference(net, m)
        assert np.max(np.abs(traj.x - x_ref)) <= 1e-12
        assert np.max(np.abs(traj.p - p_ref)) <= 1e-12


@pytest.mark.parametrize("n, T, m, kwargs", [
    (30, 50.0, 501, {}),
    (30, 5.0, 501, {"p": 0.45, "w_max": 2.0}),
    (100, 2.0, 201, {}),
])
def test_general_route_solves_long_and_dense_instances(n, T, m, kwargs):
    # shooting p(0) through zeta22(T)^{-1} refused all three
    net = directed_net(np.random.default_rng(n), n, T, **kwargs)
    assert spectral_data(build_matrices(net), classify_topology(net)) is None
    traj = solve_equilibrium(net, m)
    assert np.all(np.isfinite(traj.x)) and np.all(np.isfinite(traj.p))
    assert all(r.passed for r in stationarity_check(net, traj))


def test_general_route_holds_no_gain_per_sample():
    n, m = 50, 2001
    net = directed_net(np.random.default_rng(5), n, 2.0)
    tracemalloc.start()
    try:
        solve_equilibrium(net, m, route="general")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # every n x n gain of the sweep at once would take 8 m n^2 bytes (40 MB)
    assert peak < m * n * n * 8


def needed_steps(net):
    """T sqrt(|W|_inf): the fewest steps, or segments, with sqrt(|W|) h <= 1."""
    return net.T * math.sqrt(np.linalg.norm(build_matrices(net).W, np.inf))


def test_general_route_solves_once_per_segment(monkeypatch):
    net = directed_net(np.random.default_rng(21), 10, 5.0)
    gesv_calls, block_calls = [], []

    def counting_gesv(*args):
        gesv_calls.append(1)
        return scipy.linalg.lapack.dgesv(*args)

    def counting_blocks(sys, t):
        block_calls.append(t)
        return transition_blocks(sys, t)

    monkeypatch.setattr(solver_module, "_gesv", counting_gesv)
    monkeypatch.setattr(solver_module, "transition_blocks", counting_blocks)
    traj = solve_equilibrium(net, 2001, route="general")
    # at most 2 ceil(needed) + 1 segments, each swept twice (checkpoint, recompute)
    assert len(gesv_calls) <= 2 * (2 * math.ceil(needed_steps(net)) + 1)
    assert len(block_calls) <= 3
    x_ref, p_ref = exact_step_reference(net, 2001)
    assert np.max(np.abs(traj.x - x_ref)) <= 1e-12
    assert np.max(np.abs(traj.p - p_ref)) <= 1e-12


def test_general_route_single_segment_matches_reference():
    net = directed_net(np.random.default_rng(22), 6, 0.4, w_max=0.5)
    assert needed_steps(net) <= 1.0
    traj = solve_equilibrium(net, 301, route="general")
    x_ref, p_ref = exact_step_reference(net, 301)
    assert np.max(np.abs(traj.x - x_ref)) <= 1e-12
    assert np.max(np.abs(traj.p - p_ref)) <= 1e-12


def test_general_route_holds_no_gain_per_segment():
    # m = 11 over T = 500: every segment is one of thousands of fine steps
    n, m = 30, 11
    net = directed_net(np.random.default_rng(23), n, 500.0)
    segments = (m - 1) * math.ceil(needed_steps(net) / (m - 1))
    assert segments > 1000
    tracemalloc.start()
    try:
        traj = solve_equilibrium(net, m, route="general")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(traj.x)) and np.max(np.abs(traj.p[-1])) <= 1e-8
    # a quarter of what every segment's n x n gain at once would take
    assert peak < segments * n * n * 8 / 4


def test_general_route_seam_defect_is_an_error(monkeypatch):
    # a segment block off by 1e-6 still gives gains that reach p(T) = 0, so
    # only the fine march landing beside the next boundary state can tell
    net, m = directed_net(np.random.default_rng(24), 10, 5.0), 2001
    h = net.T / (m - 1)
    assert needed_steps(net) < (m - 1) / 2  # segments of several fine steps

    def skewed_blocks(sys, t):
        bt = transition_blocks(sys, t)
        return bt if t < 1.5 * h else dataclasses.replace(bt, phi11=bt.phi11 + 1e-6)

    monkeypatch.setattr(solver_module, "transition_blocks", skewed_blocks)
    with pytest.raises(ArithmeticError, match="seam defect"):
        solve_equilibrium(net, m, route="general")


def test_general_route_refuses_instead_of_crawling():
    # weights near the float64 limit would need ~1e150 stable steps
    net = InfluenceNetwork(n=2, edges={(0, 1): 1e300, (1, 0): 1e300},
                           k=[0.0, 0.0], x0=[0.2, 0.7], T=1.0)
    with pytest.raises(ArithmeticError, match="steps"):
        solve_equilibrium(net, 11, route="general")


@pytest.mark.parametrize("entry, message", [(0.0, "singular pivot"),
                                            (np.nan, "non-finite")])
def test_general_route_sweep_failures_are_typed(monkeypatch, entry, message):
    # phi22 = 0 makes the first pivot exactly zero; a NaN block poisons the gains
    def broken_blocks(sys, t):
        bt = transition_blocks(sys, t)
        phi22 = np.full_like(bt.phi22, entry) if entry == 0.0 else bt.phi22 + entry
        return dataclasses.replace(bt, phi22=phi22)

    monkeypatch.setattr(solver_module, "transition_blocks", broken_blocks)
    net = random_net(np.random.default_rng(8), n=4, T=1.0)
    with pytest.raises(SingularMatrixError, match=message):
        solve_equilibrium(net, 21, route="general")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8),
       T=st.floats(0.1, 60.0), m=st.integers(2, 120))
def test_general_route_boundary_conditions_property(seed, n, T, m):
    net = directed_net(np.random.default_rng(seed), n, T, w_max=2.0)
    traj = solve_equilibrium(net, m, route="general")
    assert np.array_equal(traj.x[0], net.x0)
    assert np.max(np.abs(traj.p[-1])) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
       T=st.floats(0.1, 20.0), m=st.integers(2, 80))
def test_general_route_matches_exact_step_reference_property(seed, n, T, m):
    net = directed_net(np.random.default_rng(seed), n, T)
    # the reference takes whole grid steps and loses digits once they grow
    # by e^{sqrt(|W|) h} >> 1; the route cuts such steps into substeps
    assume(needed_steps(net) <= 4 * (m - 1))
    traj = solve_equilibrium(net, m, route="general")
    x_ref, p_ref = exact_step_reference(net, m)
    assert np.max(np.abs(traj.x - x_ref)) <= 1e-12
    assert np.max(np.abs(traj.p - p_ref)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
       T=st.floats(0.1, 60.0), m=st.integers(2, 120))
def test_routes_agree_on_symmetric_nets_property(seed, n, T, m):
    net = symmetric_net(np.random.default_rng(seed), n, T)
    a = solve_equilibrium(net, m, route="spectral")
    b = solve_equilibrium(net, m, route="general")
    scale = max(1.0, float(np.max(np.abs(a.p))))
    assert np.max(np.abs(a.x - b.x)) <= 1e-10
    assert np.max(np.abs(a.p - b.p)) <= 1e-10 * scale


def test_routes_agree_where_eigh_returns_a_negative_eigenvalue():
    # k = 0 makes W a graph Laplacian with an exact zero eigenvalue, which
    # eigh returns as a small negative number; the spectral route clamps it
    net = symmetric_net(np.random.default_rng(36), 12, 2.0)
    net = dataclasses.replace(net, k=np.zeros(12))
    sd = spectral_data(build_matrices(net), classify_topology(net))
    assert sd.lambdas.min() < 0.0
    a = solve_equilibrium(net, 201, route="spectral")
    b = solve_equilibrium(net, 201, route="general")
    assert np.max(np.abs(a.x - b.x)) <= 1e-10
    assert np.max(np.abs(a.p - b.p)) <= 1e-10


# ---------------------------------------------------------------------------
# equilibrium trajectories


def test_zero_coupling_keeps_opinions_constant():
    net = InfluenceNetwork(n=4, edges={}, k=[0.0] * 4,
                           x0=[0.1, 0.4, 0.6, 0.9], T=2.0)
    traj = solve_equilibrium(net, 101)
    assert np.max(np.abs(traj.x - net.x0)) == 0.0
    assert np.max(np.abs(traj.u)) == 0.0


def test_boundary_invariants(fig1b_net):
    traj = solve_equilibrium(fig1b_net, 201)
    assert np.array_equal(traj.x[0], fig1b_net.x0)
    assert np.max(np.abs(traj.p[-1])) <= 1e-8
    assert np.array_equal(traj.u, -traj.p)


def test_dynamics_residuals_second_order():
    # central differences of x against -p shrink 4x when h halves
    rng = np.random.default_rng(3)
    net = random_net(rng, n=5, T=2.0)

    def resid(m):
        traj = solve_equilibrium(net, m)
        h = traj.grid[1] - traj.grid[0]
        dx = (traj.x[2:] - traj.x[:-2]) / (2 * h)
        return np.max(np.abs(dx + traj.p[1:-1]))

    r1, r2 = resid(101), resid(201)
    assert r1 / r2 == pytest.approx(4.0, rel=0.25)


def test_costate_dynamics_residuals_second_order():
    rng = np.random.default_rng(4)
    net = random_net(rng, n=5, T=2.0)
    gm = build_matrices(net)

    def resid(m):
        traj = solve_equilibrium(net, m)
        h = traj.grid[1] - traj.grid[0]
        dp = (traj.p[2:] - traj.p[:-2]) / (2 * h)
        rhs = -traj.x[1:-1] @ gm.W.T + gm.k * net.x0
        return np.max(np.abs(dp - rhs))

    r1, r2 = resid(101), resid(201)
    assert r1 / r2 == pytest.approx(4.0, rel=0.25)


def test_spectral_and_general_routes_agree():
    net = complete_uniform_net(6, 0.8, 0.3, np.linspace(0.1, 0.9, 6), 2.0)
    a = solve_equilibrium(net, 101, route="spectral")
    b = solve_equilibrium(net, 101, route="general")
    assert np.max(np.abs(a.x - b.x)) <= 1e-10
    assert np.max(np.abs(a.p - b.p)) <= 1e-10


def test_permutation_equivariance():
    rng = np.random.default_rng(12)
    net = random_net(rng, n=6, T=2.0)
    perm = rng.permutation(6)
    inv = np.argsort(perm)
    relabeled = InfluenceNetwork(
        n=6,
        edges={(int(inv[i]), int(inv[j])): w for (i, j), w in net.edges.items()},
        k=net.k[perm], x0=net.x0[perm], T=net.T)
    a = solve_equilibrium(net, 101)
    b = solve_equilibrium(relabeled, 101)
    assert np.max(np.abs(b.x - a.x[:, perm])) <= 1e-10


def test_initial_condition_linearity():
    # x0 -> x(t) is linear: superposition of two solves matches the summed x0
    rng = np.random.default_rng(19)
    net = random_net(rng, n=5, T=2.0)

    def with_x0(x0):
        return InfluenceNetwork(n=5, edges=net.edges, k=net.k, x0=x0, T=net.T)

    xa = rng.uniform(0, 1, 5)
    xb = rng.uniform(0, 1, 5)
    ta = solve_equilibrium(with_x0(xa), 61)
    tb = solve_equilibrium(with_x0(xb), 61)
    tab = solve_equilibrium(with_x0(xa + xb), 61)
    assert np.max(np.abs(tab.x - ta.x - tb.x)) <= 1e-10


def test_stiff_instance_solves_on_both_routes(fig1b_net):
    # cosh(sqrt(20.2) * 5) ~ 3e9 wiped out the boundary tolerance when the
    # general route shot p(0) across the horizon; the sweep only takes steps
    spectral = solve_equilibrium(fig1b_net, 51, route="spectral")
    general = solve_equilibrium(fig1b_net, 51, route="general")
    assert np.max(np.abs(spectral.p[-1])) <= 1e-12
    assert np.max(np.abs(general.x - spectral.x)) <= 1e-12
    assert np.max(np.abs(general.p - spectral.p)) <= 1e-12


@pytest.mark.parametrize("m", [2, 3, 6])
def test_general_route_accurate_on_coarse_grids(fig1b_net, m):
    # one grid step of 1 to 5 time units grows by up to e^30; the route cuts
    # it into substeps so neither the sweep nor the forward march cancels
    spectral = solve_equilibrium(fig1b_net, m, route="spectral")
    general = solve_equilibrium(fig1b_net, m, route="general")
    assert np.max(np.abs(general.x - spectral.x)) <= 1e-12
    assert np.max(np.abs(general.p - spectral.p)) <= 1e-12


def test_solver_rejects_tiny_grid(fig1b_net):
    with pytest.raises(ValueError):
        solve_equilibrium(fig1b_net, 1)
