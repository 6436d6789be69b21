"""Independent certification of candidate equilibria.

Costs are integrated two algebraically equivalent ways (termwise and as a
quadratic form), best responses are computed by direct transcription of the
single-agent problem with rivals frozen, and random smooth control
deviations probe the no-profitable-deviation property directly.

Transcription scheme: the control is a piecewise-linear interpolant of its
grid values, the state is its exact integral (composite trapezoid), the
coupling and stubbornness terms are integrated with composite Simpson
weights at the nodes, and the control energy is the exact integral of the
squared interpolant.  Weighting the pointwise control energy with Simpson
weights instead would make the discrete problem inconsistent: the
alternating 4/3, 2/3 weights let the optimizer park extra control effort on
the cheap nodes at no state cost, and the discrete minimum then sits a
grid-independent O(1) below the continuous one.  The scheme is second
order: best responses sit O(h^2) from the sampled equilibrium control, and
the Nash residual, quadratic in that distance, decays as O(h^4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import InfluenceNetwork
from .solver import BOUNDARY_TOL, EquilibriumTrajectory

# best_response fails above this gradient norm relative to max(1, |b|).
_GRAD_TOL = 1e-10
# stationarity_check's bound on max |u + p|.
_CONTROL_TOL = 1e-12
# deviation_test's probe amplitudes, relative to |u_i|_inf + 1, and the
# largest cost reduction a probe may find.
_AMPLITUDES = (1e-3, 1e-2, 1e-1)
_DEVIATION_TOL = 1e-9


@dataclass(frozen=True)
class CostBreakdown:
    """Agent cost split into its three integrand terms."""

    agent: int
    influence_term: float
    stubbornness_term: float
    control_term: float

    @property
    def total(self) -> float:
        return self.influence_term + self.stubbornness_term + self.control_term


@dataclass(frozen=True)
class BestResponseResult:
    """Transcribed best response of one agent against frozen rivals.

    gap is the candidate's own transcribed cost minus the best-response
    cost; the candidate control is a feasible point of the same quadratic
    program, so the gap cannot be meaningfully negative.
    """

    agent: int
    control: np.ndarray
    trajectory: np.ndarray
    cost: float
    gap: float
    gradient_norm: float


@dataclass(frozen=True)
class StationarityReport:
    """Residuals of the four first-order optimality conditions for one agent."""

    agent: int
    control_residual: float      # max |u + p|
    costate_residual: float      # central-difference dp/dt vs -dH/dx
    costate_tol: float           # the only tolerance that varies by agent
    initial_residual: float      # |x(0) - x0|
    transversality_residual: float  # |p(T)|

    @property
    def passed(self) -> bool:
        return (self.control_residual <= _CONTROL_TOL
                and self.costate_residual <= self.costate_tol
                and self.initial_residual <= 0.0
                and self.transversality_residual <= BOUNDARY_TOL)


def simpson_weights(m: int, h: float) -> np.ndarray:
    """Composite Simpson weights for m uniformly spaced samples (m odd)."""
    if m < 3 or m % 2 == 0:
        raise ValueError("Simpson quadrature needs an odd sample count >= 3")
    s = np.ones(m)
    s[1:-1:2] = 4.0
    s[2:-1:2] = 2.0
    return s * (h / 3.0)


def _grid_step(grid):
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 3:
        raise ValueError("grid too coarse for quadrature")
    h = grid[1] - grid[0]
    if not np.max(np.abs(np.diff(grid) - h)) <= 1e-12 * max(1.0, abs(grid[-1])):
        raise ValueError("quadrature requires a uniform grid")
    return float(h)


def cumulative_trapezoid_matrix(m: int, h: float) -> np.ndarray:
    """Lower-triangular map from control samples to their running integral.

    Dense reference form of _Transcription.state; the verifier itself never
    builds it.
    """
    L = np.tril(np.full((m, m), h), -1)
    L[1:, 0] = h / 2.0
    idx = np.arange(1, m)
    L[idx, idx] = h / 2.0
    return L


def evaluate_cost(net: InfluenceNetwork, traj: EquilibriumTrajectory) -> list[CostBreakdown]:
    """Composite-Simpson quadrature of every agent's three cost terms, in
    agent order.  One pass over the edges adds each term to its source's row
    in edge order, as if that agent were costed alone."""
    s = simpson_weights(len(traj.grid), _grid_step(traj.grid))
    x = np.ascontiguousarray(traj.x.T)
    terms = np.zeros((3,) + x.shape)  # influence, stubbornness, control rows
    for (a, j), w in net.edges.items():
        terms[0, a] += w * (x[a] - x[j]) ** 2
    terms[1] = net.k[:, None] * (x - net.x0[:, None]) ** 2
    terms[2] = traj.u.T ** 2
    return [CostBreakdown(a, *(0.5 * float(s @ row) for row in terms[:, a]))
            for a in range(traj.n)]


def quadratic_cost(net: InfluenceNetwork, traj: EquilibriumTrajectory, i: int) -> float:
    """Same cost as evaluate_cost, via the stacked quadratic form.

    z_i(t) collects the pairwise differences to every other agent plus the
    drift from the initial opinion; the cost is
    (1/2) int z_i' G_i z_i + u_i^2 dt with G_i = diag(w_i1 .. w_in, k_i).
    Serves as an independent second formula for the same number.
    """
    h = _grid_step(traj.grid)
    s = simpson_weights(len(traj.grid), h)
    others = [j for j in range(traj.n) if j != i]
    G = np.array([net.edges.get((i, j), 0.0) for j in others] + [net.k[i]])
    xi = traj.x[:, i:i + 1]
    Z = np.hstack([xi - traj.x[:, others], xi - net.x0[i]])
    return 0.5 * float(s @ (np.einsum("rk,k,rk->r", Z, G, Z) + traj.u[:, i] ** 2))


class _Transcription:
    """Quadratic model of agent i's problem with the rivals frozen.

    J(u) = sum_j s_j [q_i x_j^2 / 2 - b_j x_j + c_j] + u' M u / 2 with
    x = x0_i + L u, b the frozen neighbor forcing and c the constant part,
    so J equals the agent's full cost, not just the variable piece.  L (the
    running trapezoid sum) and M (the tridiagonal exact energy of the
    piecewise-linear control) are applied as O(m) stencils, never formed.
    cost, state, integral, energy_times and hessian_form accept a stack of
    controls along the leading axis.
    """

    def __init__(self, net, traj, i):
        self.h = h = _grid_step(traj.grid)
        m = len(traj.grid)
        self.s = simpson_weights(m, h)
        self.energy = np.full(m, 2.0 * h / 3.0)  # diagonal of M; off-diagonal h/6
        self.energy[[0, -1]] = h / 3.0
        self.q = float(net.W[i, i])
        self.x0i = float(net.x0[i])
        w = -net.W[i]  # agent i's influence weights, zero on itself
        w[i] = 0.0
        kx0 = net.k[i] * net.x0[i]
        self.b = kx0 + traj.x @ w
        self.c = 0.5 * (kx0 * net.x0[i] + np.square(traj.x) @ w)

    def integral(self, u):
        """L u: the running trapezoid integral, zero at the first node."""
        steps = np.cumsum((0.5 * self.h) * (u[..., :-1] + u[..., 1:]), axis=-1)
        return np.concatenate([np.zeros(u.shape[:-1] + (1,)), steps], axis=-1)

    def state(self, u):
        return self.x0i + self.integral(u)

    def energy_times(self, u):
        """M u, the tridiagonal energy stencil."""
        mu = self.energy * u
        mu[..., :-1] += (self.h / 6.0) * u[..., 1:]
        mu[..., 1:] += (self.h / 6.0) * u[..., :-1]
        return mu

    def cost(self, u):
        x = self.state(u)
        state_part = np.sum(self.s * (0.5 * self.q * x * x - self.b * x + self.c), axis=-1)
        a, b = u[..., :-1], u[..., 1:]
        energy = np.sum(a * a + a * b + b * b, axis=-1) * (self.h / 6.0)
        return state_part + energy

    def gradient(self, u):
        x = self.state(u)
        v = self.s * (self.q * x - self.b)
        # L' v: tail sums of v[1:], each node taking half of both adjacent steps
        tail = np.append(np.cumsum(v[:0:-1])[::-1], 0.0)
        lt_v = 0.5 * self.h * (tail + np.append(0.0, tail[:-1]))
        return lt_v + self.energy_times(u)

    def hessian_form(self, v):
        """V H V' for a stack of controls V, with H = q L' S L + M."""
        lv = self.integral(v)
        return (self.q * self.s * lv) @ lv.T + v @ self.energy_times(v).T

    def minimize(self):
        """Minimizer of J from the KKT system of the QP in (u, x, lambda).

        The trapezoid steps x_j - x_{j-1} = h (u_{j-1} + u_j) / 2 are equality
        rows with multipliers lambda_j.  Ordering the unknowns
        u_0, (x_j, lambda_j, u_j) for j = 1 .. m-1 makes the symmetric KKT
        matrix banded with bandwidth 4, so one LU solve costs O(m).
        """
        from scipy.linalg import solve_banded

        m, h, s = len(self.s), self.h, self.s
        iu = 3 * np.arange(m)
        ix, il = iu[1:] - 2, iu[1:] - 1
        ab = np.zeros((9, 3 * m - 2))

        def put(rows, cols, vals):  # symmetric pair in LAPACK band storage
            ab[4 + rows - cols, cols] = vals
            ab[4 + cols - rows, rows] = vals

        put(iu, iu, self.energy)
        put(iu[:-1], iu[1:], h / 6.0)
        put(ix, ix, self.q * s[1:])
        put(ix, il, 1.0)
        put(ix[:-1], il[1:], -1.0)
        put(il, iu[:-1], -0.5 * h)
        put(il, iu[1:], -0.5 * h)
        rhs = np.zeros(3 * m - 2)
        rhs[ix] = s[1:] * self.b[1:]
        rhs[il[0]] = self.x0i
        return solve_banded((4, 4), ab, rhs)[iu]


def best_response(net: InfluenceNetwork, traj: EquilibriumTrajectory,
                  i: int) -> BestResponseResult:
    """Minimize agent i's transcribed cost against the frozen rivals in traj.

    The objective is a strictly convex quadratic in the sampled control, so
    the minimizer comes from one banded KKT solve in O(m) (see
    _Transcription.minimize); the gradient norm is reported, and one above
    _GRAD_TOL raises ArithmeticError: the solve lost its accuracy.
    """
    model = _Transcription(net, traj, i)
    u = model.minimize()
    gnorm = float(np.linalg.norm(model.gradient(u)))
    scale = max(1.0, float(np.linalg.norm(model.b)))
    if gnorm > _GRAD_TOL * scale:
        raise ArithmeticError(
            f"best-response solve did not reach stationarity for agent {i + 1}: "
            f"gradient norm {gnorm:.3e}")
    cost = float(model.cost(u))
    gap = float(model.cost(traj.u[:, i])) - cost
    return BestResponseResult(agent=i, control=u, trajectory=model.state(u),
                              cost=cost, gap=gap, gradient_norm=gnorm)


def nash_residual(net: InfluenceNetwork, traj: EquilibriumTrajectory) -> float:
    """Worst relative best-response improvement over all agents.

    Zero (up to discretization) certifies the open-loop Nash property: no
    agent can lower its own cost while the others keep their trajectories.

    Each gap J_h(u_cand) - J_h(u_br) is taken at the minimizer u_br of a
    strictly convex quadratic, where the gradient vanishes, so it equals
    (1/2) du' H du with du = u_cand - u_br and H the transcribed Hessian.
    The transcription is second order, so du = O(h^2) (about 4x smaller per
    grid doubling) and the residual is O(h^4) (about 16x smaller).
    """
    worst = 0.0
    for i in range(traj.n):
        res = best_response(net, traj, i)
        candidate_cost = res.cost + res.gap
        worst = max(worst, res.gap / max(1.0, candidate_cost))
    return worst


def stationarity_check(net: InfluenceNetwork,
                       traj: EquilibriumTrajectory) -> list[StationarityReport]:
    """First-order optimality residuals per agent.

    |u + p| is held to _CONTROL_TOL and |p(T)| to the solver's BOUNDARY_TOL.

    The costate equation is checked with central differences; its tolerance
    is the truncation bound (h^2/6) max |p'''| with p''' = W(K x0 - W x)
    evaluated along the trajectory, padded by a small safety factor.
    """
    h = _grid_step(traj.grid)
    x, p, u = traj.x, traj.p, traj.u
    # dp/dt = -W x + K x0; third derivative of p is W (dp/dt).  Two m x n
    # arrays at most: pdot and one work array, reused in place
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


def deviation_test(net: InfluenceNetwork, traj: EquilibriumTrajectory, i: int,
                   count: int, seed: int):
    """Monte-Carlo probe of the no-profitable-deviation property for agent i.

    Draws `count` band-limited perturbations (random low-order Fourier sums,
    normalized to unit sup norm), applies each at every amplitude in
    _AMPLITUDES relative to |u_i|_inf + 1, and prices it with rivals frozen.
    The transcribed cost is quadratic, so a probe e d changes it by exactly
    e g'd + (e^2/2) d'Hd with g the gradient at u_i and H = q L'SL + M.
    Every d is c'B / peak for the 12 x m sine/cosine basis B, so g'd and
    d'Hd come from Bg and the 12 x 12 form B H B'; the only count x m work
    is the product that finds each peak.  Each gain is -e (g'd + e d'Hd / 2),
    so a zero amplitude gives exactly zero and e^2 is never formed.  Returns
    (passed, worst_gain) where worst_gain is the largest cost reduction any
    perturbation achieved; passing means no reduction beyond _DEVIATION_TOL.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    model = _Transcription(net, traj, i)
    u_base = traj.u[:, i]
    coef = np.random.default_rng(seed).standard_normal((count, 2, 6)).reshape(count, 12)
    phase = np.pi * np.arange(1, 7)[:, None] * (traj.grid / traj.T)
    basis = np.vstack([np.sin(phase), np.cos(phase)])
    basis_gradient = basis @ model.gradient(u_base)
    basis_hessian = model.hessian_form(basis)
    delta = coef @ basis
    peak = np.max(np.abs(delta, out=delta), axis=1)
    coef = coef[peak != 0.0] / peak[peak != 0.0, None]
    slope = coef @ basis_gradient
    curve = np.einsum("ki,ij,kj->k", coef, basis_hessian, coef)
    scale = float(np.max(np.abs(u_base))) + 1.0
    worst_gain = 0.0
    for amp in _AMPLITUDES:
        e = amp * scale
        gains = -e * (slope + (0.5 * e) * curve)
        worst_gain = max(worst_gain, float(np.max(gains, initial=0.0)))
    return worst_gain <= _DEVIATION_TOL, worst_gain
