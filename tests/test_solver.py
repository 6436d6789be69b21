"""Tests for the state/costate solver: kernels, transition blocks, spectral
data and the equilibrium trajectories."""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (complete_uniform_net, general_route, kernel_cosh, kernel_coshm1,
                      kernel_sinhc, leader_net, random_net, symmetric_net)
from opiniongame import solver
from opiniongame.analytic import leader_params, leader_trajectory
from opiniongame.cli import PRESETS, load_scenario
from opiniongame.network import (InfluenceNetwork, build_matrices,
                                 classify_topology)
from opiniongame.solver import (cosh_ratios, solve_equilibrium, spectral_data,
                                transition_blocks)
from opiniongame.verify import BOUNDARY_TOL, stationarity_check

GOLDEN = Path(__file__).parent / "golden"


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


# values of the former three-branch power-series kernels, float64 repr
KERNEL_PINS = [
    # lam, t, cosh, sinhc, coshm1
    (-1e6, 1.0, 0.5623790762907029, 0.0008268795405320025, 4.3762092370929706e-07),
    (-4.0, 1.0, -0.4161468365471424, 0.45464871341284085, 0.3540367091367856),
    (1e-300, 1.0, 1.0, 1.0, 0.5),
    (4.0, 1.0, 3.7621956910836314, 1.8134302039235093, 0.6905489227709078),
    (1e5, 1.0, 1.0837866822866022e+137, 3.4272344137829266e+134, 1.0837866822866021e+132),
    (-1e6, 5.0, 0.15466840618074712, -0.0009879664387667767, 8.453315938192529e-07),
]


@pytest.mark.parametrize("lam, t, cosh, sinhc, coshm1", KERNEL_PINS)
def test_kernels_match_pinned_values(lam, t, cosh, sinhc, coshm1):
    # lam = -1e6 must stay on the sinc branch: exp(1000) would overflow
    assert kernel_cosh(lam, t) == pytest.approx(cosh, rel=1e-13, abs=0.0)
    assert kernel_sinhc(lam, t) == pytest.approx(sinhc, rel=1e-13, abs=0.0)
    assert kernel_coshm1(lam, t) == pytest.approx(coshm1, rel=1e-13, abs=0.0)


def test_kernels_broadcast_mixed_signs():
    lam, t = np.array([-1e6, -4.0, 0.0, 4.0, 1e4]), np.array([[1.0], [5.0]])
    for kernel in (kernel_cosh, kernel_sinhc, kernel_coshm1):
        got = kernel(lam, t)
        assert got.shape == (2, 5)
        for (r, c), value in np.ndenumerate(got):
            assert value == pytest.approx(kernel(float(lam[c]), float(t[r, 0])), rel=1e-14)


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


def test_cosh_ratios_broadcast_over_horizons():
    lam, b = np.array([0.0, 0.3, 40.0]), np.array([0.5, 2.0, 30.0])[:, None]
    out = cosh_ratios(lam, 0.25, b)
    for got in out:
        assert got.shape == (3, 3)
    for i, bi in enumerate(b[:, 0]):
        for one, many in zip(cosh_ratios(lam, 0.25, bi), out):
            np.testing.assert_allclose(one, many[i], rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# transition blocks


def named_blocks(W, t):
    """The n x n blocks of transition_blocks(W, t) = (Phi, Psi), by name."""
    Phi, Psi = transition_blocks(W, t)
    n = len(W)
    return {"phi11": Phi[:n, :n], "phi12": Phi[:n, n:], "phi21": Phi[n:, :n],
            "phi22": Phi[n:, n:], "psi12": Psi[:n, n:], "psi22": Psi[n:, n:]}


def test_transition_blocks_at_zero():
    net = complete_uniform_net(4, 1.2, 0.3, [0.2, 0.4, 0.6, 0.8], 2.0)
    bt = named_blocks(build_matrices(net), 0.0)
    np.testing.assert_array_equal(bt["phi11"], np.eye(4))
    np.testing.assert_array_equal(bt["phi12"], np.zeros((4, 4)))
    np.testing.assert_array_equal(bt["psi12"], np.zeros((4, 4)))


def test_transition_blocks_scalar_cosh_form():
    lam, t = 2.6, 1.4
    net = InfluenceNetwork(n=1, edges={}, k=[lam], x0=[0.5], T=2.0)
    bt = named_blocks(build_matrices(net), t)
    assert bt["phi11"][0, 0] == pytest.approx(kernel_cosh(lam, t), rel=1e-12)
    assert bt["phi12"][0, 0] == pytest.approx(-kernel_sinhc(lam, t), rel=1e-12)
    assert bt["phi21"][0, 0] == pytest.approx(-lam * kernel_sinhc(lam, t), rel=1e-12)
    assert bt["psi12"][0, 0] == pytest.approx(-kernel_coshm1(lam, t), rel=1e-12)


def test_block_identities_on_random_networks():
    # phi22 = phi11, psi22 = -phi12, phi21 = W phi12
    rng = np.random.default_rng(101)
    for _ in range(8):
        net = random_net(rng)
        W = build_matrices(net)
        for t in rng.uniform(0.0, net.T, 4):
            bt = named_blocks(W, t)
            scale = max(1.0, np.max(np.abs(bt["phi11"])))
            assert np.max(np.abs(bt["phi22"] - bt["phi11"])) <= 1e-10 * scale
            assert np.max(np.abs(bt["psi22"] + bt["phi12"])) <= 1e-10 * scale
            assert np.max(np.abs(bt["phi21"] - W @ bt["phi12"])) <= 1e-10 * scale * max(
                1.0, np.max(np.abs(W)))


def spectral_blocks(lam, V, Vinv, W, t):
    """Reference blocks from a real eigendecomposition W = V diag(l) V^-1:
    phi11 = V diag(cosh(sqrt(l) t)) V^-1, phi12 = -V diag(sinh(sqrt(l) t)/sqrt(l)) V^-1,
    psi12 = -V diag((cosh(sqrt(l) t)-1)/l) V^-1, phi21 = W phi12, phi22 = phi11,
    psi22 = -phi12."""
    lam = np.asarray(lam, dtype=float)
    phi11 = (V * np.array([kernel_cosh(l, t) for l in lam])) @ Vinv
    phi12 = -(V * np.array([kernel_sinhc(l, t) for l in lam])) @ Vinv
    psi12 = -(V * np.array([kernel_coshm1(l, t) for l in lam])) @ Vinv
    return {"phi11": phi11, "phi12": phi12, "phi21": W @ phi12,
            "phi22": phi11, "psi12": psi12, "psi22": -phi12}


def test_spectral_blocks_match_transition_blocks():
    cases = [
        complete_uniform_net(5, 1.5, 0.4, np.linspace(0.1, 0.9, 5), 3.0),
        leader_net(5, [0.0, 0.8, 1.7, 2.9, 0.6], [0.3, 0.5, 0.1, 0.9, 0.2],
                   np.linspace(0.2, 0.8, 5), 3.0),
    ]
    for net in cases:
        W = build_matrices(net)
        sd = spectral_data(W, classify_topology(net))
        assert sd is not None
        for t in (0.0, 0.6, 1.9, 3.0):
            bt = named_blocks(W, t)
            sb = spectral_blocks(*sd, W, t)
            scale = max(1.0, np.max(np.abs(bt["phi11"])))
            for name in ("phi11", "phi12", "phi21", "phi22", "psi12", "psi22"):
                gap = np.max(np.abs(bt[name] - sb[name]))
                assert gap <= 1e-10 * scale, (net.name, name, t, gap)


@pytest.mark.parametrize("n", [1, 2, 6, 200])
def test_spectral_data_complete_uniform_spectrum(n):
    # modes: k + n w with multiplicity n-1, then k once; the basis is
    # e_i - e_n for i < n and the all-ones vector, and its exact inverse
    w, k = 1.3, 0.4
    net = complete_uniform_net(n, w, k, np.linspace(0, 1, n), 2.0)
    W = build_matrices(net)
    lam, sd_V, sd_Vinv = spectral_data(W, classify_topology(net))
    np.testing.assert_allclose(lam[:-1], k + n * w)
    assert lam[-1] == pytest.approx(k)
    V = np.zeros((n, n))
    V[:-1, :-1] = np.eye(n - 1)
    V[-1, :-1] = -1.0
    V[:, -1] = 1.0
    Vinv = np.zeros((n, n))
    Vinv[:-1, :-1] = np.eye(n - 1)
    Vinv[:-1] -= 1.0 / n
    Vinv[-1] = 1.0 / n
    assert np.array_equal(sd_V, V) and np.array_equal(sd_Vinv, Vinv)
    assert np.max(np.abs(W @ sd_V - sd_V * lam)) <= 1e-8 * np.linalg.norm(W)
    np.testing.assert_allclose(sd_Vinv @ sd_V, np.eye(n), atol=1e-12)


def test_spectral_data_leader_star_basis_rebuilds_w():
    net = leader_net(4, [0.0, 1.0, 2.0, 0.5], [0.2, 0.3, 0.1, 0.6],
                     [0.1, 0.4, 0.7, 0.9], 2.0)
    W = build_matrices(net)
    lam, V, Vinv = spectral_data(W, classify_topology(net))
    np.testing.assert_allclose(V @ np.diag(lam) @ Vinv, W, atol=1e-14)
    # W is triangular, so its spectrum is its diagonal
    np.testing.assert_allclose(np.sort(lam), np.sort(W.diagonal()), rtol=1e-14)


@pytest.mark.parametrize("case, branch", [
    ("fig1b", "exact"), ("symmetric", "eigh"), ("fig2b", "eig"), ("fig3b", "eig")])
def test_spectral_data_basis_rebuilds_w_on_every_branch(case, branch, monkeypatch):
    # V diag(lambdas) Vinv is W to rounding, relative to the largest weight,
    # whichever of the exact basis, eigh or eig produced it
    if case == "symmetric":
        net = symmetric_net(np.random.default_rng(0), 6, 2.0)
    else:
        net = PRESETS[case].network
    called = []
    for name in ("eig", "eigh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda A, f=original, name=name: called.append(name) or f(A))
    lam, V, Vinv = spectral_data(net.W, classify_topology(net))
    monkeypatch.undo()
    assert called == ([] if branch == "exact" else [branch])
    err = np.max(np.abs(V @ np.diag(lam) @ Vinv - net.W))
    assert err <= 1e-14 * max(1.0, float(np.max(np.abs(net.W)))), err


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 30), stubborn_leader=st.booleans(),
       alpha=st.sampled_from([1.0, 1e100, 1e-100]), seed=st.integers(0, 2**32 - 1))
def test_leader_star_spectral_route_matches_closed_form_property(
        n, stubborn_leader, alpha, seed):
    rng = np.random.default_rng(seed)
    k = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.8)
    if not stubborn_leader:
        k[0] = 0.0
    w = rng.uniform(0.05, 5.0, n)
    lam = k + w
    lam[0] = k[0]
    assume(np.min(np.abs(lam[1:] - lam[0])) >= 1e-3 * np.max(lam))
    T = float(rng.uniform(0.1, 10.0))
    net = rescaled(leader_net(n, w, k, rng.uniform(0.0, 1.0, n), T), alpha,
                   T / math.sqrt(alpha))
    assert spectral_data(net.W, classify_topology(net)) is not None
    traj = solve_equilibrium(net, 101)
    ref = leader_trajectory(leader_params(net), net.x0, traj.grid)
    assert np.max(np.abs(traj.x - ref)) <= 1e-12
    assert np.max(np.abs(traj.p[-1])) <= BOUNDARY_TOL


def test_defective_leader_star_takes_the_general_route():
    # follower 2's rate k + w = 0.5 equals the leader's k = 0.5, so W has a
    # repeated eigenvalue with one eigenvector and eig's basis is refused
    net = InfluenceNetwork(n=3, edges={(1, 0): 0.3, (2, 0): 1.0}, k=[0.5, 0.2, 0.4],
                           x0=[0.1, 0.6, 0.9], T=2.0)
    assert spectral_data(net.W, classify_topology(net)) is None
    traj = solve_equilibrium(net, 201)
    ref = leader_trajectory(leader_params(net), net.x0, traj.grid)
    assert np.max(np.abs(traj.x - ref)) <= 1e-14


def test_spectral_data_none_when_the_eig_basis_misses_w(monkeypatch):
    # a basis that passes the imaginary-part and cond(V) gates but is not an
    # eigenbasis of W is refused by the residual gate
    net = PRESETS["fig2b"].network
    assert spectral_data(net.W, classify_topology(net)) is not None
    eig = np.linalg.eig

    def perturbed(W):
        lam, V = eig(W)
        return lam, V + 1e-6 * np.arange(V.size).reshape(V.shape)

    monkeypatch.setattr(np.linalg, "eig", perturbed)
    assert spectral_data(net.W, classify_topology(net)) is None


def test_spectral_data_none_for_complex_spectrum():
    # a directed 3-cycle with unequal weights has complex eigenvalues
    edges = {(0, 1): 2.0, (1, 2): 2.0, (2, 0): 2.0}
    net = InfluenceNetwork(n=3, edges=edges, k=[0.1, 0.1, 0.1],
                           x0=[0.2, 0.5, 0.8], T=1.0)
    W = build_matrices(net)
    assert np.max(np.abs(np.linalg.eigvals(W).imag)) > 0.1
    assert spectral_data(W, classify_topology(net)) is None
    # the gates measure W in units of its largest entry, so no norm
    # overflows and lets a complex spectrum through
    for alpha in (1e160, 2.0 ** 1000):
        assert spectral_data(build_matrices(rescaled(net, alpha, net.T))) is None


def acyclic_net(rng, n, T, p=0.4):
    """Random DAG under a random labelling: W is triangular up to a
    permutation, so its spectrum is its real diagonal."""
    perm = rng.permutation(n)
    mask = np.tril(rng.random((n, n)) < p, -1)[np.ix_(perm, perm)]
    edges = {(int(i), int(j)): float(rng.uniform(0.1, 1.0)) for i, j in zip(*np.nonzero(mask))}
    return InfluenceNetwork(n=n, edges=edges, k=rng.uniform(0.05, 0.5, n),
                            x0=rng.uniform(0.0, 1.0, n), T=float(T))


def eig_case(case, seed):
    rng = np.random.default_rng(seed)
    if case == "ring":
        return directed_net(rng, 10, 5.0)
    if case == "star":
        return leader_net(8, rng.uniform(0.5, 3.0, 8), rng.uniform(0.0, 0.3, 8),
                          rng.uniform(0.0, 1.0, 8), 5.0)
    if case == "dag":
        return acyclic_net(rng, 10, 5.0)
    if case.startswith("scenario"):
        return load_scenario(GOLDEN / f"{case}.json")
    return PRESETS[case].network


@pytest.mark.parametrize("case, eig_calls, spectral", [
    ("ring", 0, False), ("star", 1, True), ("dag", 1, True),
    ("fig2b", 1, True), ("fig2c", 1, True), ("fig3b", 1, True), ("fig3c", 1, True),
    # a real spectrum whose eig basis fails eig's own gates
    ("scenario-fig3b-1e50", 1, False)])
def test_eig_runs_only_after_eigvals_finds_a_real_spectrum(case, eig_calls, spectral,
                                                            monkeypatch):
    # eigvals rejects a complex spectrum before any eigenvector is formed
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda A: calls.append(A) or eig(A))
    for seed in range(3 if case in ("ring", "star", "dag") else 1):
        net = eig_case(case, seed)
        calls.clear()
        sd = spectral_data(net.W, classify_topology(net))
        assert (len(calls), sd is not None) == (eig_calls, spectral), (case, seed)


def rescaled(net, alpha, T):
    """net with every weight and every k multiplied by alpha, over horizon T."""
    return InfluenceNetwork(n=net.n, edges={e: alpha * w for e, w in net.edges.items()},
                            k=alpha * net.k, x0=net.x0, T=T, name=net.name)


@pytest.mark.parametrize("name", list(PRESETS))
@pytest.mark.parametrize("alpha", [1e50, 1e100, 1e160, 2.0 ** 500])
def test_rescaled_game_keeps_its_trajectory(name, alpha):
    # weights and k times alpha over T / sqrt(alpha) is the same game in
    # rescaled time, so every grid row keeps its opinions.  At 1e50 roundoff
    # splits fig3b's six-fold eigenvalue into a complex pair, so it takes
    # the general route
    net = PRESETS[name].network
    traj = solve_equilibrium(rescaled(net, alpha, net.T / math.sqrt(alpha)), 201)
    assert np.all(traj.p[-1] == 0.0)
    assert np.max(np.abs(traj.x - solve_equilibrium(net, 201).x)) <= 1e-13


@pytest.mark.parametrize("name", ["fig2b", "fig2c", "fig3b", "fig3c"])
@pytest.mark.parametrize("alpha", [1e100, 2.0 ** 500, 1e160])
def test_general_route_keeps_the_rescaled_trajectory(name, alpha):
    # p grows with sqrt(alpha), and so does the roundoff of a computed p(T);
    # the route imposes p(T) = 0 instead, as x(0) = x0
    net = PRESETS[name].network
    with general_route():
        traj = solve_equilibrium(rescaled(net, alpha, net.T / math.sqrt(alpha)), 201)
    assert np.all(traj.p[-1] == 0.0)
    assert np.max(np.abs(traj.x - solve_equilibrium(net, 201).x)) <= 1e-13


@pytest.mark.parametrize("name", list(PRESETS))
def test_huge_weights_keep_opinions_between_the_initial_ones(name):
    net = PRESETS[name].network
    x = solve_equilibrium(rescaled(net, 1e160, net.T), 201).x
    assert np.all(np.isfinite(x))
    assert net.x0.min() - 1e-12 <= x.min() and x.max() <= net.x0.max() + 1e-12


# ---------------------------------------------------------------------------
# general route: the principal square root of W


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


def exact_step_reference(net, m):
    """The exact-step samples z_{k+1} = Phi(h) z_k + Psi(h) c, z = (x, p) and
    c = (0, K x0), with x_0 = x0 and p_{m-1} = 0, solved as one global sparse
    system; Phi and Psi come from one augmented expm of [[A, I], [0, 0]] h."""
    W = build_matrices(net)
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
    with general_route():
        traj = solve_equilibrium(net, 101)
    assert np.max(np.abs(traj.p)) <= 1e-14


def test_general_route_zero_costate_for_single_stubborn_agent():
    # x stays at x0, where the stubbornness pull vanishes, so p = 0 throughout
    net = InfluenceNetwork(n=1, edges={}, k=[0.8], x0=[0.4], T=3.0)
    with general_route():
        traj = solve_equilibrium(net, 101)
    assert np.max(np.abs(traj.p)) <= 1e-12
    assert np.max(np.abs(traj.x - 0.4)) <= 1e-12


def test_general_route_terminal_costate():
    rng = np.random.default_rng(57)
    net = random_net(rng, n=6, T=2.0)
    with general_route():
        traj = solve_equilibrium(net, 101)
    assert np.max(np.abs(traj.p[-1])) <= 1e-12


@pytest.mark.parametrize("n, T, m", [(3, 1.0, 3), (6, 2.0, 101), (12, 5.0, 201),
                                     (20, 20.0, 301), (50, 3.0, 101),
                                     # at and around powers of two, where the
                                     # doubling fills exactly or leaves one row
                                     (4, 1.5, 2), (7, 2.5, 17), (7, 2.5, 18),
                                     (10, 4.0, 1025)])
def test_general_route_matches_exact_step_reference(n, T, m):
    rng = np.random.default_rng(n + m)
    for net in (directed_net(rng, n, T), random_net(rng, n=n, T=T)):
        with general_route():
            traj = solve_equilibrium(net, m)
        x_ref, p_ref = exact_step_reference(net, m)
        assert np.max(np.abs(traj.x - x_ref)) <= 1e-12
        assert np.max(np.abs(traj.p - p_ref)) <= 1e-12


@pytest.mark.parametrize("n, T, m, kwargs", [
    (30, 50.0, 501, {}),
    (30, 5.0, 501, {"p": 0.45, "w_max": 2.0}),
    (100, 2.0, 201, {}),
])
def test_general_route_solves_long_and_dense_instances(n, T, m, kwargs):
    # a long horizon, dense coupling and n = 100, each with a complex
    # spectrum: the general route solves all three to stationarity
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
        with general_route():
            solve_equilibrium(net, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one n x n matrix per sample would take 8 m n^2 bytes (40 MB); the
    # grid itself holds x, p and their difference
    assert peak < m * n * n * 8
    assert peak < 6 * 8 * m * n


def test_general_route_fills_x_and_p_in_place():
    # x and p take 2 (8 m n) bytes and their difference one more; a table of
    # both halves beside them would take about 5
    n, m = 200, 8001
    net = directed_net(np.random.default_rng(1), n, 5.0)
    tracemalloc.start()
    try:
        with general_route():
            solve_equilibrium(net, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 8 * m * n


def needed_steps(net):
    """T sqrt(|W|_inf), the stiffness of net over its horizon: a grid step
    of e^{A h} grows by up to e^{sqrt(|W|) h}, so exact_step_reference keeps
    full accuracy while each step covers a few units of it at most."""
    return net.T * math.sqrt(np.linalg.norm(build_matrices(net), np.inf))


def test_general_route_makes_one_sqrtm_and_one_expm(monkeypatch):
    calls = []

    def counting(name):
        original = getattr(scipy.linalg, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("sqrtm", "expm"):
        monkeypatch.setattr(scipy.linalg, name, counting(name))
    for T, m in [(0.4, 2), (5.0, 2001), (500.0, 11), (5e4, 501)]:
        calls.clear()
        with general_route():
            solve_equilibrium(directed_net(np.random.default_rng(21), 10, T), m)
        assert sorted(calls) == ["expm", "sqrtm"], (T, m)


def test_general_route_single_segment_matches_reference():
    net = directed_net(np.random.default_rng(22), 6, 0.4, w_max=0.5)
    assert needed_steps(net) <= 1.0
    with general_route():
        traj = solve_equilibrium(net, 301)
    x_ref, p_ref = exact_step_reference(net, 301)
    assert np.max(np.abs(traj.x - x_ref)) <= 1e-12
    assert np.max(np.abs(traj.p - p_ref)) <= 1e-12


@pytest.mark.parametrize("m", [2001, 8001])
def test_general_route_long_grids_match_reference(m):
    # E(T) is the product of the squares of E(h) at the set bits of m - 1:
    # up to 13 of them at m = 8001
    for net in (directed_net(np.random.default_rng(22), 6, 0.4, w_max=0.5),
                directed_net(np.random.default_rng(24), 10, 4.0)):
        with general_route():
            traj = solve_equilibrium(net, m)
        x_ref, p_ref = exact_step_reference(net, m)
        assert np.max(np.abs(traj.x - x_ref)) <= 1e-12
        assert np.max(np.abs(traj.p - p_ref)) <= 1e-12


@pytest.mark.parametrize("m", [51, 501, 8001])
def test_general_route_solves_where_only_the_horizon_is_huge(m):
    # scenario-directed.json with every weight and k times 1e78:
    # T sqrt(max |W_ij|) = 5.8e39, where expm(-R T) returns NaN, while
    # expm(-R h) and the squares that give E(T) stay finite
    net = load_scenario(GOLDEN / "scenario-directed-1e78.json")
    assert spectral_data(net.W, classify_topology(net)) is None
    traj = solve_equilibrium(net, m)
    assert np.array_equal(traj.x[0], net.x0) and np.all(traj.p[-1] == 0.0)
    assert np.all(np.isfinite(traj.x)) and np.all(np.isfinite(traj.p))
    assert net.x0.min() <= traj.x.min() and traj.x.max() <= net.x0.max()


def test_general_route_holds_no_gain_per_segment():
    # m = 11 over T = 500: each grid step spans hundreds of units of
    # T sqrt(|W|), and the route's memory must not grow with that stiffness
    n, m = 30, 11
    net = directed_net(np.random.default_rng(23), n, 500.0)
    units = (m - 1) * math.ceil(needed_steps(net) / (m - 1))
    tracemalloc.start()
    try:
        with general_route():
            traj = solve_equilibrium(net, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(traj.x)) and np.max(np.abs(traj.p[-1])) <= 1e-8
    # a quarter of what one n x n matrix per unit of stiffness would take
    assert peak < units * n * n * 8 / 4


@pytest.mark.parametrize("T", [5.0, 500.0, 5e4])
def test_general_route_solves_stiff_long_horizons(T):
    # weights near 1e4 over T = 5e4: T sqrt(|W|) is about 1e7, and no
    # exponential of the route grows with it
    net = directed_net(np.random.default_rng(30), 30, T, w_max=1e4)
    with general_route():
        traj = solve_equilibrium(net, 501)
    assert np.max(np.abs(traj.p[-1])) <= BOUNDARY_TOL
    assert all(r.passed for r in stationarity_check(net, traj))


def test_general_route_refuses_instead_of_crawling():
    # weights near the float64 limit: expm of R T ~ 1e150 returns NaN
    net = InfluenceNetwork(n=2, edges={(0, 1): 1e300, (1, 0): 1e300},
                           k=[0.0, 0.0], x0=[0.2, 0.7], T=1.0)
    with pytest.raises(ArithmeticError, match=(
            r"not finite: max \|W_ij\| = 1e\+300, T sqrt\(max \|W_ij\|\) = 1e\+150$")):
        with general_route():
            solve_equilibrium(net, 11)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8),
       T=st.floats(0.1, 60.0), m=st.integers(2, 120))
def test_general_route_boundary_conditions_property(seed, n, T, m):
    net = directed_net(np.random.default_rng(seed), n, T, w_max=2.0)
    with general_route():
        traj = solve_equilibrium(net, m)
    assert np.array_equal(traj.x[0], net.x0)
    assert np.max(np.abs(traj.p[-1])) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
       T=st.floats(0.1, 20.0), m=st.integers(2, 80))
def test_general_route_matches_exact_step_reference_property(seed, n, T, m):
    net = directed_net(np.random.default_rng(seed), n, T)
    # the reference takes whole grid steps and loses digits once they grow
    # by e^{sqrt(|W|) h} >> 1; the route has no growing exponential
    assume(needed_steps(net) <= 4 * (m - 1))
    with general_route():
        traj = solve_equilibrium(net, m)
    x_ref, p_ref = exact_step_reference(net, m)
    assert np.max(np.abs(traj.x - x_ref)) <= 1e-12
    assert np.max(np.abs(traj.p - p_ref)) <= 1e-12


def singular_case(name, k_free):
    """Networks whose W is singular through closed classes (strongly
    connected sets that no edge leaves) with k = 0 on every member, or nearly
    singular with k = k_free there; an edge (i, j) makes agent i follow
    agent j."""
    rng = np.random.default_rng(31)
    x0 = rng.uniform(0.0, 1.0, 6)
    if name == "all agents":
        net = directed_net(rng, 6, 3.0)
        return dataclasses.replace(net, k=np.full(6, k_free))
    if name == "no edges":
        return InfluenceNetwork(n=4, edges={}, k=np.full(4, k_free), x0=x0[:4], T=3.0)
    if name == "one class":
        # a directed 3-ring with k = 0, followed by three stubborn agents
        edges = {(0, 1): 1.0, (1, 2): 1.5, (2, 0): 0.7, (0, 2): 0.4,
                 (3, 0): 0.9, (4, 3): 1.2, (4, 1): 0.3, (5, 4): 0.8, (5, 2): 0.5}
        k = [k_free, k_free, k_free, 0.3, 0.5, 0.2]
    else:
        # a 3-clique and a 2-clique with k = 0, and agent 5 following both
        edges = {(i, j): float(rng.uniform(0.2, 2.0))
                 for i in range(3) for j in range(3) if i != j}
        edges.update({(3, 4): 0.6, (4, 3): 1.4, (5, 0): 0.7, (5, 3): 1.1})
        k = [k_free] * 5 + [0.0]
    return InfluenceNetwork(n=6, edges=edges, k=k, x0=x0, T=3.0)


@pytest.mark.parametrize("name", ["all agents", "no edges", "one class", "two cliques"])
@pytest.mark.parametrize("k_free", [0.0, 1e-12, 1e-17, 1e-300])
def test_general_route_solves_singular_couplings(name, k_free):
    # 1e-12 leaves W nonsingular; 1e-17 and 1e-300 vanish, or nearly, in the
    # rounding of W's rows, which are then as singular as with k = 0
    net = singular_case(name, k_free)
    with general_route():
        traj = solve_equilibrium(net, 201)
    x_ref, p_ref = exact_step_reference(net, 201)
    assert np.max(np.abs(traj.x - x_ref)) <= 1e-12
    assert np.max(np.abs(traj.p - p_ref)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
       T=st.floats(0.1, 20.0), m=st.integers(2, 80),
       zero=st.lists(st.booleans(), min_size=6, max_size=6),
       drop=st.sampled_from([0.0, 0.6]))
def test_general_route_with_zero_stubbornness_property(seed, n, T, m, zero, drop):
    # zeroing k, and dropping edges so that the graph splits into classes,
    # leaves W singular whenever a closed class keeps no stubborn agent
    rng = np.random.default_rng(seed)
    net = directed_net(rng, n, T)
    k = np.where(zero[:n], 0.0, net.k)
    edges = {e: w for e, w in net.edges.items() if rng.random() >= drop}
    net = InfluenceNetwork(n=n, edges=edges, k=k, x0=net.x0, T=T)
    assume(needed_steps(net) <= 4 * (m - 1))
    with general_route():
        traj = solve_equilibrium(net, m)
    x_ref, p_ref = exact_step_reference(net, m)
    assert np.max(np.abs(traj.x - x_ref)) <= 1e-12
    assert np.max(np.abs(traj.p - p_ref)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
       zero=st.lists(st.booleans(), min_size=6, max_size=6),
       drop=st.sampled_from([0.0, 0.6]))
def test_fixed_point_is_the_long_run_limit_property(seed, n, zero, drop):
    # c = W^-1 K x0 of the lifted W, singular closed classes included, is
    # x(T) of the unlifted exact-step reference once every mode that is not
    # conserved has decayed by e^-40
    rng = np.random.default_rng(seed)
    net = directed_net(rng, n, 1.0)
    k = np.where(zero[:n], 0.0, net.k)
    edges = {e: w for e, w in net.edges.items() if rng.random() >= drop}
    net = InfluenceNetwork(n=n, edges=edges, k=k, x0=net.x0, T=1.0)
    lam = np.linalg.eigvals(net.W)
    decaying = np.sqrt(lam[np.abs(lam) > 1e-9 * max(1.0, np.max(np.abs(lam)))]).real
    T = 40.0 / min(decaying, default=1.0)
    assume(T <= 2000.0)
    net = dataclasses.replace(net, T=T)
    x_ref, _ = exact_step_reference(net, max(2, math.ceil(needed_steps(net) / 4) + 1))
    assert np.max(np.abs(solver._lifted(net)[1] - x_ref[-1])) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
       T=st.floats(0.1, 60.0), m=st.integers(2, 120))
def test_routes_agree_on_symmetric_nets_property(seed, n, T, m):
    net = symmetric_net(np.random.default_rng(seed), n, T)
    assert spectral_data(net.W, classify_topology(net)) is not None
    a = solve_equilibrium(net, m)
    with general_route():
        b = solve_equilibrium(net, m)
    scale = max(1.0, float(np.max(np.abs(a.p))))
    assert np.max(np.abs(a.x - b.x)) <= 1e-10
    assert np.max(np.abs(a.p - b.p)) <= 1e-10 * scale


def test_routes_agree_where_eigh_returns_a_negative_eigenvalue():
    # k = 0 makes W a graph Laplacian with an exact zero eigenvalue, which
    # eigh returns as a small negative number; the spectral route clamps it
    net = symmetric_net(np.random.default_rng(36), 12, 2.0)
    net = dataclasses.replace(net, k=np.zeros(12))
    sd = spectral_data(build_matrices(net), classify_topology(net))
    assert sd is not None and sd[0].min() < 0.0
    a = solve_equilibrium(net, 201)
    with general_route():
        b = solve_equilibrium(net, 201)
    assert np.max(np.abs(a.x - b.x)) <= 1e-10
    assert np.max(np.abs(a.p - b.p)) <= 1e-10


def conserving_net(family, n, T):
    """k = 0 on every agent, so W has an exact zero eigenvalue and a conserved
    mode: a complete symmetric net (eigh), or a 2-cycle that each later agent
    follows one end of (eig; the spectrum stays real and well separated)."""
    rng = np.random.default_rng([n, int(T)])
    if family == "symmetric":
        edges = symmetric_net(rng, n, T, p=1.0).edges
    else:
        edges = {(0, 1): float(rng.uniform(0.2, 0.6)), (1, 0): float(rng.uniform(0.2, 0.6))}
        edges.update({(i, i % 2): i + float(rng.uniform(0.0, 0.5)) for i in range(2, n)})
    return InfluenceNetwork(n=n, edges=edges, k=np.zeros(n), x0=rng.uniform(0.0, 1.0, n), T=T)


@pytest.mark.parametrize("family", ["symmetric", "2-cycle with followers"])
@pytest.mark.parametrize("T", [5.0, 400.0, 1e4, 1e5])
def test_routes_agree_on_a_conserved_mode_at_long_horizons(family, T):
    # eig and eigh return the zero eigenvalue as up to a few eps |W|; were it
    # kept, the conserved mode would decay and x drift by about eps |W| T^2
    for n in range(2, 10):
        net = conserving_net(family, n, T)
        sd = spectral_data(net.W, classify_topology(net))
        assert sd is not None
        a = solve_equilibrium(net, 201)
        with general_route():
            b = solve_equilibrium(net, 201)
        assert np.max(np.abs(a.x - b.x)) <= 1e-12, n
        assert np.max(np.abs(a.p - b.p)) <= 1e-12, n


# ---------------------------------------------------------------------------
# spectral route: every mode at once, in row blocks of the grid


def per_mode_spectral(sd, net, grid):
    """Oracle: one cosh_ratios call per mode over the whole grid, filling
    that mode's column of Y and Q, then x = Y V^T and p = Q V^T.  Q takes
    (lambda y0 - g) sinhc, as the route does: y0 s_sinh - g sinhc leaves
    roundoff of order eps lambda |y0| sinhc where lambda y0 = g, as for a
    lone stubborn agent, whose costate is exactly 0."""
    T = grid[-1]
    rem = T - grid
    lambdas, V, Vinv = sd
    y0 = Vinv @ net.x0
    g = Vinv @ (net.k * net.x0)
    Y = np.empty((len(grid), net.n))
    Q = np.empty_like(Y)
    for j, lam in enumerate(np.maximum(lambdas, 0.0)):
        cosh, _, sinhc, gap = cosh_ratios(lam, rem, T)
        Y[:, j] = y0[j] * cosh + g[j] * gap
        Q[:, j] = (lam * y0[j] - g[j]) * sinhc
    return Y @ V.T, Q @ V.T


def spectral_case(seed, n, family, T):
    rng = np.random.default_rng(seed)
    if family == "complete, k = 0":  # one mode at lambda = 0
        return complete_uniform_net(n, rng.uniform(0.1, 3.0), 0.0, rng.uniform(0.0, 1.0, n), T)
    net = symmetric_net(rng, n, T)
    if family == "stiff":  # sqrt(lambda) T in [1.1e3, 3e4] on the fastest mode
        scale = (rng.uniform(1.1e3, 3e4) / T) ** 2 / np.max(np.linalg.eigvalsh(net.W))
        net = InfluenceNetwork(n=n, edges={e: w * scale for e, w in net.edges.items()},
                               k=net.k * scale, x0=net.x0, T=T)
    return net


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       family=st.sampled_from(["symmetric", "complete, k = 0", "stiff"]),
       T=st.floats(0.1, 50.0), blocks=st.integers(0, 3), tail=st.floats(0.0, 1.0))
def test_blocked_spectral_route_matches_per_mode_oracle_property(seed, n, family, T,
                                                                  blocks, tail):
    net = spectral_case(seed, n, family, T)
    sd = spectral_data(net.W, classify_topology(net))
    assert sd is not None
    if family == "stiff":
        assert math.sqrt(np.max(sd[0])) * T >= 1e3
    if family == "complete, k = 0":
        assert np.min(np.abs(sd[0])) == 0.0
    # whole blocks of solver._BLOCK // n rows, then a last one that is not full
    rows = max(1, solver._BLOCK // n)
    m = max(2, blocks * rows + 1 + int(tail * (rows - 2)))
    grid = np.linspace(0.0, T, m)
    x, p = solver._propagate_spectral(sd, net, grid)
    x_ref, p_ref = per_mode_spectral(sd, net, grid)
    assert np.max(np.abs(x - x_ref)) <= 1e-13 * max(1.0, float(np.max(np.abs(x_ref))))
    assert np.max(np.abs(p - p_ref)) <= 1e-13 * max(1.0, float(np.max(np.abs(p_ref))))


def each_mode_alone(sd, net, grid):
    """The spectral route's own arithmetic, block by block, with every mode's
    numerators evaluated alone, so a repeated rate is evaluated repeatedly."""
    (lambdas, V, Vinv), T, n = sd, grid[-1], net.n
    zero = n * np.finfo(float).eps * np.linalg.norm(net.W, np.inf)
    lam = np.where(lambdas > zero, lambdas, 0.0)
    y0, g = Vinv @ net.x0, Vinv @ (net.k * net.x0)
    x, p = np.empty((len(grid), n)), np.empty((len(grid), n))
    rows = max(1, solver._BLOCK // n)
    for lo in range(0, len(grid), rows):
        modes = [solver._ratio_numerators(np.sqrt(lam[j:j + 1])[:, None], T - grid[lo:lo + rows], T)
                 for j in range(n)]
        den, Y, Q, gap = (np.concatenate(part) for part in zip(*modes))
        Y = Y * (y0[:, None] / den) + gap * (g[:, None] / den)
        Q = Q * ((lam * y0 - g)[:, None] / den)
        np.matmul(Y.T, V.T, out=x[lo:lo + rows])
        np.matmul(Q.T, V.T, out=p[lo:lo + rows])
    return x, p


@pytest.mark.parametrize("m", [21, 501, 8001])
@pytest.mark.parametrize("name", ["fig1b", "fig1c", "fig2b", "fig2c"])
def test_repeated_rates_share_numerators_bitwise(name, m, monkeypatch):
    # the exact basis (fig1) and eig on the star (fig2) both give 2 distinct
    # rates of 10; each is evaluated once, with the same bits as ten times
    net = PRESETS[name].network
    sd = spectral_data(net.W, classify_topology(net))
    assert len(np.unique(sd[0])) == 2
    grid = np.linspace(0.0, net.T, m)
    rows = []
    original = solver._ratio_numerators
    monkeypatch.setattr(solver, "_ratio_numerators",
                        lambda s, a, b: rows.append(len(s)) or original(s, a, b))
    x, p = solver._propagate_spectral(sd, net, grid)
    assert set(rows) == {2}
    monkeypatch.undo()
    x_ref, p_ref = each_mode_alone(sd, net, grid)
    assert np.array_equal(x, x_ref) and np.array_equal(p, p_ref)


def test_spectral_route_holds_no_per_mode_arrays():
    n, m = 100, 4001
    net = symmetric_net(np.random.default_rng(7), n, 5.0)
    tracemalloc.start()
    try:
        solve_equilibrium(net, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # x and p take 2 (8 m n) bytes; full-grid mode arrays Y and Q beside
    # them would add 2 (8 m n) more
    assert peak < 3.5 * 8 * m * n


def test_solve_stores_no_control():
    # x and p take 2 (8 m n) bytes and u = -p is derived; storing u beside
    # them peaked at 3.05 (8 m n)
    n, m = 200, 8001
    net = symmetric_net(np.random.default_rng(5), n, 5.0)
    tracemalloc.start()
    try:
        traj = solve_equilibrium(net, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.u is None
    assert peak <= 2.5 * 8 * m * n


# ---------------------------------------------------------------------------
# equilibrium trajectories


def test_zero_coupling_keeps_opinions_constant():
    net = InfluenceNetwork(n=4, edges={}, k=[0.0] * 4,
                           x0=[0.1, 0.4, 0.6, 0.9], T=2.0)
    traj = solve_equilibrium(net, 101)
    assert np.max(np.abs(traj.x - net.x0)) == 0.0
    assert np.max(np.abs(traj.p)) == 0.0


def test_boundary_invariants():
    # x(0) = x0 and p(T) = 0 hold exactly on both routes; the directed
    # golden scenario takes the general route
    nets = [PRESETS[name].network for name in sorted(PRESETS)]
    for net in nets + [load_scenario(GOLDEN / "scenario-directed.json")]:
        traj = solve_equilibrium(net, 201)
        assert np.array_equal(traj.x[0], net.x0)
        assert np.all(traj.p[-1] == 0.0), net.name
        assert traj.u is None


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
    W = build_matrices(net)

    def resid(m):
        traj = solve_equilibrium(net, m)
        h = traj.grid[1] - traj.grid[0]
        dp = (traj.p[2:] - traj.p[:-2]) / (2 * h)
        rhs = -traj.x[1:-1] @ W.T + net.k * net.x0
        return np.max(np.abs(dp - rhs))

    r1, r2 = resid(101), resid(201)
    assert r1 / r2 == pytest.approx(4.0, rel=0.25)


def test_spectral_and_general_routes_agree():
    net = complete_uniform_net(6, 0.8, 0.3, np.linspace(0.1, 0.9, 6), 2.0)
    assert spectral_data(net.W, classify_topology(net)) is not None
    a = solve_equilibrium(net, 101)
    with general_route():
        b = solve_equilibrium(net, 101)
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
    # cosh(sqrt(20.2) * 5) ~ 3e9 would wipe out the boundary tolerance in a
    # growing exponential; both routes use decaying ones only
    assert spectral_data(fig1b_net.W, classify_topology(fig1b_net)) is not None
    spectral = solve_equilibrium(fig1b_net, 51)
    with general_route():
        general = solve_equilibrium(fig1b_net, 51)
    assert np.max(np.abs(spectral.p[-1])) <= 1e-12
    assert np.max(np.abs(general.x - spectral.x)) <= 1e-12
    assert np.max(np.abs(general.p - spectral.p)) <= 1e-12


@pytest.mark.parametrize("m", [2, 3, 6])
def test_general_route_accurate_on_coarse_grids(fig1b_net, m):
    # one grid step of 1 to 5 time units spans a decay of up to e^-30, and
    # no growing exponential appears to cancel
    assert spectral_data(fig1b_net.W, classify_topology(fig1b_net)) is not None
    spectral = solve_equilibrium(fig1b_net, m)
    with general_route():
        general = solve_equilibrium(fig1b_net, m)
    assert np.max(np.abs(general.x - spectral.x)) <= 1e-12
    assert np.max(np.abs(general.p - spectral.p)) <= 1e-12


def test_solver_rejects_tiny_grid(fig1b_net):
    with pytest.raises(ValueError):
        solve_equilibrium(fig1b_net, 1)
