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
from .solver import _BLOCK, EquilibriumTrajectory

# stationarity_check's bound on max |p(T)|.
BOUNDARY_TOL = 1e-8
# best_response fails above this gradient norm relative to max(1, |b|).
_GRAD_TOL = 1e-10
# stationarity_check's bound on max |u + p|.
_CONTROL_TOL = 1e-12
# deviation_test's probe amplitudes, relative to |u_i|_inf + 1, and the
# largest cost reduction a probe may find.
_AMPLITUDES = (1e-3, 1e-2, 1e-1)
_DEVIATION_TOL = 1e-9
# certify's bound on the Nash residual, in units of h^2 for the grid step h.
_RESIDUAL_TOL = 0.01
# certify walks the agents in chunks of _CHUNK // m rows, so each of its
# per-agent arrays holds about _CHUNK entries: every preset fits in one
# chunk up to m = 26214, and an n = 200 net at m = 8001 takes seven.
_CHUNK = 1 << 18


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
    control_residual: float      # max |u + p|; 0 when u = -p is derived
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
    builds it.  Kept for bench/tracing.py:33, which traces it.
    """
    L = np.tril(np.full((m, m), h), -1)
    L[1:, 0] = h / 2.0
    idx = np.arange(1, m)
    L[idx, idx] = h / 2.0
    return L


def evaluate_cost(net: InfluenceNetwork, traj: EquilibriumTrajectory) -> list[CostBreakdown]:
    """Composite-Simpson quadrature of every agent's three cost terms, in
    agent order.  One pass over the edges adds each influence term to its
    source's row in edge order, as if that agent were costed alone; the
    stubbornness and control rows are formed one agent at a time."""
    s = simpson_weights(len(traj.grid), _grid_step(traj.grid))
    x = np.ascontiguousarray(traj.x.T)
    influence = np.zeros(x.shape)
    for (a, j), w in net.edges.items():
        influence[a] += w * (x[a] - x[j]) ** 2
    return [CostBreakdown(a, 0.5 * float(s @ influence[a]),
                          0.5 * float(s @ (net.k[a] * (x[a] - net.x0[a]) ** 2)),
                          0.5 * float(s @ traj.u_rows([a])[0] ** 2))
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
    return 0.5 * float(s @ (np.einsum("rk,k,rk->r", Z, G, Z) + traj.u_rows([i])[0] ** 2))


class _Transcription:
    """Quadratic model of the problems of the agents `agents`, rivals frozen.

    agents is an agent index, an index array or a range; every per-agent
    quantity is then a scalar or a row per agent.  Agent i's objective is
    J_i(u) = sum_j s_j [q_i x_j^2 / 2 - b_ij x_j + c_ij] + u' M u / 2 with
    x = x0_i + L u, b_i the frozen neighbor forcing and c_i the constant
    part, so J_i equals the agent's full cost, not just the variable piece.
    The grid, the Simpson weights s, L (the running trapezoid sum) and M (the
    tridiagonal exact energy of the piecewise-linear control) are shared by
    all agents and applied as O(m) stencils, never formed; only q_i = W_ii,
    x0_i, b_i and c_i differ.  state, cost, gradient and energy_times take
    one control row per agent, or for a single agent a stack of controls
    along the leading axis.
    """

    def __init__(self, net, traj, agents):
        self.h = h = _grid_step(traj.grid)
        m = len(traj.grid)
        self.s = simpson_weights(m, h)
        self.energy = np.full(m, 2.0 * h / 3.0)  # diagonal of M; off-diagonal h/6
        self.energy[[0, -1]] = h / 3.0
        q = net.W.diagonal()
        self.q = q[agents]
        self.x0i = net.x0[agents]
        w = (np.diag(q) - net.W)[agents]  # influence weights, zero on the agent itself
        kx0 = (net.k * net.x0)[agents]
        # b and c from the products of the rivals' x and x^2 with the weights,
        # completed in place
        self.b = w @ traj.x.T
        self.b += kx0[..., None]
        self.c = w @ np.square(traj.x).T
        self.c += (kx0 * self.x0i)[..., None]
        self.c *= 0.5

    def integral(self, u):
        """L u: the running trapezoid integral, zero at the first node."""
        out = np.zeros(u.shape)
        steps = np.add(u[..., :-1], u[..., 1:], out=out[..., 1:])
        steps *= 0.5 * self.h
        np.cumsum(steps, axis=-1, out=steps)
        return out

    def state(self, u):
        x = self.integral(u)
        x += self.x0i[..., None]
        return x

    def energy_times(self, u):
        """M u, the tridiagonal energy stencil."""
        mu = self.energy * u
        mu[..., :-1] += (self.h / 6.0) * u[..., 1:]
        mu[..., 1:] += (self.h / 6.0) * u[..., :-1]
        return mu

    def cost(self, u):
        x = self.state(u)
        # s (q x^2 / 2 - b x + c), formed in place in two arrays
        v = np.multiply(0.5 * self.q[..., None], x)
        v *= x
        v -= np.multiply(self.b, x, out=x)
        v += self.c
        v *= self.s
        state_part = np.sum(v, axis=-1)
        del x, v
        a, b = u[..., :-1], u[..., 1:]
        energy = a * a
        energy += a * b
        energy += b * b
        return state_part + np.sum(energy, axis=-1) * (self.h / 6.0)

    def gradient(self, u):
        v = self.state(u)  # overwritten in place by s (q x - b), then L' v + M u
        v *= self.q[..., None]
        v -= self.b
        v *= self.s
        # L' v: tail sums of v[1:], each node taking half of both adjacent steps
        tail = np.cumsum(v[..., :0:-1], axis=-1)[..., ::-1]
        v[..., :-1] = tail
        v[..., -1] = 0.0
        v[..., 1:] += tail
        del tail
        v *= 0.5 * self.h
        v += self.energy_times(u)
        return v

    def hessian_form(self, v):
        """V H_i V' for a stack of controls V, with H_i = q_i L' S L + M.

        The two agent-independent forms A = V L' S L V' and E = V M V' are
        formed once; agent i's form is q_i A + E, stacked over the rows.
        """
        lv = self.integral(v)
        a = (self.s * lv) @ lv.T
        e = v @ self.energy_times(v).T
        return self.q[..., None, None] * a + e

    def minimize(self):
        """Minimizers of every agent's J_i, for a model of an index array,
        from the KKT system of the QP in (u, x, lambda).

        The trapezoid steps x_j - x_{j-1} = h (u_{j-1} + u_j) / 2 are equality
        rows with multipliers lambda_j.  Ordering the unknowns
        u_0, (x_j, lambda_j, u_j) for j = 1 .. m-1 makes the symmetric KKT
        matrix banded with bandwidth 4, so one LU solve costs O(m).  Only the
        x diagonal q_i s_j depends on the agent: the band is built once, in
        LAPACK gbsv's layout, and the agents that share one exact value of q
        make one banded solve with their forcings as right-hand-side columns.
        A non-finite system raises ValueError, a singular one LinAlgError.
        """
        from scipy.linalg.lapack import dgbsv

        m, h, s = len(self.s), self.h, self.s
        iu = 3 * np.arange(m)
        ix, il = iu[1:] - 2, iu[1:] - 1
        ab = np.zeros((13, 3 * m - 2), order="F")  # 4 rows of LU fill-in on top

        def put(rows, cols, vals):  # symmetric pair in LAPACK band storage
            ab[8 + rows - cols, cols] = vals
            ab[8 + cols - rows, rows] = vals

        put(iu, iu, self.energy)
        put(iu[:-1], iu[1:], h / 6.0)
        put(ix, il, 1.0)
        put(ix[:-1], il[1:], -1.0)
        put(il, iu[:-1], -0.5 * h)
        put(il, iu[1:], -0.5 * h)
        u = np.empty(self.b.shape)
        values, group = np.unique(self.q, return_inverse=True)
        for g, value in enumerate(values):
            rows = np.flatnonzero(group == g)
            ab[8, ix] = value * s[1:]  # the x diagonal, q s_j
            rhs = np.zeros((len(rows), 3 * m - 2))  # one row per agent
            np.multiply(s[1:], self.b[rows, 1:], out=rhs[:, 1::3])  # at the x_j
            rhs[:, 2] = self.x0i[rows]  # at lambda_1: x_1 - h (u_0 + u_1) / 2 = x0_i
            if not (np.all(np.isfinite(ab)) and np.all(np.isfinite(rhs))):
                raise ValueError("array must not contain infs or NaNs")
            x, info = dgbsv(4, 4, ab, rhs.T, overwrite_b=True)[2:]  # LU in a copy of ab
            if info > 0:
                raise np.linalg.LinAlgError("singular matrix")
            u[rows] = x[::3].T
        return u


def _chunks(traj):
    """The agents in chunks of _CHUNK // m (at least one), as ranges."""
    step = max(1, _CHUNK // len(traj.grid))
    return (range(start, min(start + step, traj.n)) for start in range(0, traj.n, step))


def _best_responses(agents, model, traj):
    """Best responses of the agents of `model`, the range `agents`, against
    the candidate traj: the controls, the transcribed costs, the candidate's
    gaps over them and the gradient norms, a row or an entry per agent.  A
    gradient norm above _GRAD_TOL relative to max(1, |b_i|) raises
    ArithmeticError naming the first such agent: the solve lost its
    accuracy."""
    u = model.minimize()
    gnorm = np.linalg.norm(model.gradient(u), axis=-1)
    scale = np.maximum(1.0, np.linalg.norm(model.b, axis=-1))
    bad = np.flatnonzero(gnorm > _GRAD_TOL * scale)
    if bad.size:
        raise ArithmeticError(
            "best-response solve did not reach stationarity for agent "
            f"{agents[bad[0]] + 1}: gradient norm {gnorm[bad[0]]:.3e}")
    cost = model.cost(u)
    return u, cost, model.cost(traj.u_rows(agents)) - cost, gnorm


def _gap_ratios(agents, model, traj):
    """Each agent's best-response gap relative to max(1, its candidate cost)."""
    _, cost, gap, _ = _best_responses(agents, model, traj)
    return gap / np.maximum(1.0, cost + gap)


def best_response(net: InfluenceNetwork, traj: EquilibriumTrajectory,
                  i: int) -> BestResponseResult:
    """Minimize agent i's transcribed cost against the frozen rivals in traj.

    The objective is a strictly convex quadratic in the sampled control, so
    the minimizer comes from one banded KKT solve in O(m) (see
    _Transcription.minimize); the gradient norm is reported, and one above
    _GRAD_TOL raises ArithmeticError: the solve lost its accuracy.  This is
    nash_residual's batched solve restricted to agent i.
    """
    agents = range(i, i + 1)
    model = _Transcription(net, traj, agents)
    u, cost, gap, gnorm = _best_responses(agents, model, traj)
    return BestResponseResult(agent=i, control=u[0], trajectory=model.state(u)[0],
                              cost=float(cost[0]), gap=float(gap[0]),
                              gradient_norm=float(gnorm[0]))


def nash_residual(net: InfluenceNetwork, traj: EquilibriumTrajectory) -> float:
    """Worst relative best-response improvement over all agents.

    Zero (up to discretization) certifies the open-loop Nash property: no
    agent can lower its own cost while the others keep their trajectories.

    Each gap J_h(u_cand) - J_h(u_br) is taken at the minimizer u_br of a
    strictly convex quadratic, where the gradient vanishes, so it equals
    (1/2) du' H du with du = u_cand - u_br and H the transcribed Hessian.
    The transcription is second order, so du = O(h^2) (about 4x smaller per
    grid doubling) and the residual is O(h^4) (about 16x smaller).  Every
    chunk of agents is solved in one batch, one banded solve per distinct
    q_i.
    """
    ratios = [_gap_ratios(agents, _Transcription(net, traj, agents), traj)
              for agents in _chunks(traj)]
    return float(np.max(np.concatenate(ratios), initial=0.0))


def stationarity_check(net: InfluenceNetwork,
                       traj: EquilibriumTrajectory) -> list[StationarityReport]:
    """First-order optimality residuals per agent.

    |u + p| is held to _CONTROL_TOL (own u only) and |p(T)| to BOUNDARY_TOL.

    The costate equation is checked with central differences; its tolerance
    is the truncation bound (h^2/6) max |p'''| with p''' = W(K x0 - W x)
    evaluated along the trajectory, padded by a small safety factor.

    Every residual is a maximum over the grid, so the grid is walked in row
    blocks of the spectral route's _BLOCK entries.  Each block forms its own
    dp/dt and p''', folds their column maxima into length-n accumulators
    and takes p on the rows either side of it from the trajectory, so the
    differences at block seams are exact.  Working memory is O(_BLOCK)
    entries, not O(m n).
    """
    h = _grid_step(traj.grid)
    x, p, u = traj.x, traj.p, traj.u
    m, n = x.shape
    WT, kx0 = net.W.T, net.k * net.x0
    third, costate_resid, control_resid = np.zeros(n), np.zeros(n), np.zeros(n)
    rows = max(1, _BLOCK // n)
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        # dp/dt = -W x + K x0; third derivative of p is W (dp/dt).  Two
        # block arrays: pdot and one work array, reused in place
        pdot = x[start:stop] @ WT
        np.subtract(kx0, pdot, out=pdot)
        work = pdot @ WT
        np.maximum(third, np.max(np.abs(work, out=work), axis=0), out=third)
        lo, hi = max(start, 1), min(stop, m - 1)  # the block's interior rows
        if lo < hi:
            dp = np.subtract(p[lo + 1:hi + 1], p[lo - 1:hi - 1],
                             out=work[lo - start:hi - start])
            dp /= 2.0 * h
            dp -= pdot[lo - start:hi - start]
            np.maximum(costate_resid, np.max(np.abs(dp, out=dp), axis=0),
                       out=costate_resid)
        if u is not None:
            control = np.add(u[start:stop], p[start:stop], out=work)
            np.maximum(control_resid, np.max(np.abs(control, out=control), axis=0),
                       out=control_resid)
    costate_tol = 2.0 * (h * h / 6.0) * third + 1e-9
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
    e g'd + (e^2/2) d'Hd with g the gradient at u_i and H = q_i L'SL + M.
    Every d is c'B / peak for the 12 x m sine/cosine basis B, so g'd and
    d'Hd come from Bg and the 12 x 12 form B H B'; the only count x m work
    is the product that finds each peak.  Each gain is -e (g'd + e d'Hd / 2),
    so a zero amplitude gives exactly zero and e^2 is never formed.  Returns
    (passed, worst_gain) where worst_gain is the largest cost reduction any
    perturbation achieved; passing means no reduction beyond _DEVIATION_TOL.
    This is certify's probe pricing restricted to agent i.
    """
    model = _Transcription(net, traj, range(i, i + 1))
    return _probe_gains(model, traj.u_rows([i]), _probe_basis(traj), count, [seed])[0]


def _probe_basis(traj):
    """B: the sines and cosines of modes 1 .. 6 over the horizon, 12 x m."""
    phase = np.pi * np.arange(1, 7)[:, None] * (traj.grid / traj.T)
    return np.vstack([np.sin(phase), np.cos(phase)])


def _probe_gains(model, u_cand, basis, count, seeds):
    """deviation_test for every agent of `model`, whose candidate controls
    are the rows of u_cand, the r-th drawing its coefficients from
    default_rng(seeds[r]); a list of (passed, worst_gain) in agent order.

    Each agent draws its probes and finds their peaks with one count x m
    product into a reused buffer.  The normalization, the slopes from B g,
    the curvatures from the 12 x 12 forms q_i A + E (see
    _Transcription.hessian_form) and the gains at every amplitude then run
    once over the whole chunk; a probe whose peak is zero is masked.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    coef = np.empty((len(seeds), count, 12))
    peak = np.empty((len(seeds), count))
    delta = np.empty((count, basis.shape[1]))
    for r, seed in enumerate(seeds):
        np.random.default_rng(seed).standard_normal(
            (count, 2, 6), out=coef[r].reshape(count, 2, 6))
        np.abs(np.matmul(coef[r], basis, out=delta), out=delta)
        np.max(delta, axis=1, out=peak[r])
    live = peak != 0.0
    np.divide(coef, peak[..., None], out=coef, where=live[..., None])
    slope = (coef @ (model.gradient(u_cand) @ basis.T)[..., None])[..., 0]
    bend = coef @ model.hessian_form(basis)
    curve = (bend[..., None, :] @ coef[..., None])[..., 0, 0]
    e = np.multiply.outer(np.max(np.abs(u_cand), axis=1) + 1.0, _AMPLITUDES)[..., None]
    gains = -e * (slope[:, None] + (0.5 * e) * curve[:, None])
    worst = np.max(gains, axis=(1, 2), initial=0.0, where=live[:, None])
    return [(gain <= _DEVIATION_TOL, gain) for gain in worst.tolist()]


def certify(net: InfluenceNetwork, traj: EquilibriumTrajectory, count: int,
            seed: int):
    """The verdict on the candidate traj, (passed, residual, reports,
    deviations): nash_residual held to _RESIDUAL_TOL h^2 for the step
    h = T / (m - 1), every stationarity_check report, and every agent's
    deviation_test as a (passed, worst_gain) pair, agent a probing with
    seed + a.  One _Transcription per chunk of agents, each per-agent array
    about _CHUNK entries, gives the residual, nash_residual's to the bit, and
    the gains, deviation_test's up to the rounding of the forcing product.
    """
    basis = _probe_basis(traj)
    ratios, deviations = [], []
    for agents in _chunks(traj):
        model = _Transcription(net, traj, agents)
        ratios.append(_gap_ratios(agents, model, traj))
        # Python ints, so that no seed wraps or overflows at any size
        deviations += _probe_gains(model, traj.u_rows(agents), basis, count,
                                   [seed + a for a in agents])
        del model  # freed before the next chunk's is built, so one is alive at a time
    residual = float(np.max(np.concatenate(ratios), initial=0.0))
    reports = stationarity_check(net, traj)
    h = traj.T / (len(traj.grid) - 1)
    passed = (residual <= _RESIDUAL_TOL * h * h and all(r.passed for r in reports)
              and all(ok for ok, _ in deviations))
    return passed, residual, reports, deviations
