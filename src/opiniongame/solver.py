"""Open-loop Nash equilibrium trajectories via the coupled state/costate system.

Stacking opinions x and costates p gives a linear two-point boundary value
problem

    d/dt [x; p] = [[0, -I], [-W, 0]] [x; p] + [[0, 0], [K, 0]] [x0; p0],

with x(0) = x0 fixed and p(T) = 0 free-endpoint.  Two evaluation routes are
provided:

* a general route, exact for arbitrary W and stable at any horizon: it
  sweeps the costate gain p = P x + r back from p(T) = 0 over segments that
  grow by at most about e, marches x forward from x0 with p reset at each
  segment start, and fills in the grid points inside all segments at once;
  the state that the fine steps carry to each segment's end must match the
  next segment's start to the boundary tolerance;
* a spectral route used whenever W has a trustworthy real eigendecomposition,
  which collapses the block formula to per-mode cosh/sinh ratios.  One
  function, cosh_ratios, evaluates them from decaying exponentials and
  expm1 with no branch in sqrt(lambda) T, so this route stays accurate for
  stiff instances where cosh(sqrt(lambda) T) dwarfs float64 resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesv as _gesv

from .linalg import SingularMatrixError, exp_with_integral
from .network import (CompleteUniform, GameMatrices, InfluenceNetwork,
                      SingleLeader, build_matrices, classify_topology)

# |lambda| t^2 below this uses the power series; keeps kernels continuous at 0.
_SERIES_CUTOFF = 1e-6
# smallest normal float; phi(z) = -expm1(-z)/z is exactly 1 there.
_TINY = np.finfo(float).tiny
# horizon * sqrt(|W|) above this makes the general route refuse, not crawl.
_MAX_STEPS = 1_000_000


# ---------------------------------------------------------------------------
# scalar kernels: entire functions of z = lambda * t^2


def kernel_cosh(lam, t):
    """cosh(sqrt(lam) t); cos(sqrt(-lam) t) for lam < 0; 1 at lam = 0."""
    z = np.asarray(lam * np.square(t), dtype=float)
    out = np.piecewise(
        z,
        [np.abs(z) < _SERIES_CUTOFF, z >= _SERIES_CUTOFF],
        [
            lambda s: 1.0 + s / 2.0 * (1.0 + s / 12.0 * (1.0 + s / 30.0)),
            lambda s: np.cosh(np.sqrt(s)),
            lambda s: np.cos(np.sqrt(-s)),
        ],
    )
    return float(out) if np.ndim(out) == 0 else out


def kernel_sinhc(lam, t):
    """sinh(sqrt(lam) t)/sqrt(lam); the lam -> 0 limit is t."""
    t = np.asarray(t, dtype=float)
    z = np.asarray(lam * np.square(t), dtype=float)
    out = t * np.piecewise(
        z,
        [np.abs(z) < _SERIES_CUTOFF, z >= _SERIES_CUTOFF],
        [
            lambda s: 1.0 + s / 6.0 * (1.0 + s / 20.0 * (1.0 + s / 42.0)),
            lambda s: np.sinh(np.sqrt(s)) / np.sqrt(s),
            lambda s: np.sin(np.sqrt(-s)) / np.sqrt(-s),
        ],
    )
    return float(out) if np.ndim(out) == 0 else out


def kernel_coshm1(lam, t):
    """(cosh(sqrt(lam) t) - 1)/lam; the lam -> 0 limit is t^2/2."""
    t = np.asarray(t, dtype=float)
    z = np.asarray(lam * np.square(t), dtype=float)
    out = np.square(t) * np.piecewise(
        z,
        [np.abs(z) < _SERIES_CUTOFF, z >= _SERIES_CUTOFF],
        [
            lambda s: 0.5 * (1.0 + s / 12.0 * (1.0 + s / 30.0 * (1.0 + s / 56.0))),
            lambda s: (np.cosh(np.sqrt(s)) - 1.0) / s,
            lambda s: (np.cos(np.sqrt(-s)) - 1.0) / s,
        ],
    )
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# the cosh-ratio family, used by the spectral route and the closed forms


def _phi(z):
    """-expm1(-z)/z for z >= 0.  z = 0 is lifted to the smallest normal
    float, where the quotient is exactly 1, the limit at 0."""
    z = -np.maximum(z, _TINY)
    return np.expm1(z) / z


def cosh_ratios(lam, a, b):
    """cosh(sa), s sinh(sa), sinh(sa)/s and (cosh(sb) - cosh(sa))/lam, each
    divided by cosh(sb), for s = sqrt(lam), lam >= 0 and 0 <= a <= b.

    With r = e^{s(a-b)}/(1 + e^{-2sb}) and z = 2sa, expm1(-z) = -z phi(z)
    gives r (2 - z phi(z)), 2 lam a r phi(z) and 2 a r phi(z); the gap is
    (b - a)(b + a) phi(s(b + a)) phi(s(b - a))/(1 + e^{-2sb}).  No exponent
    is positive, so nothing overflows for any s b, and s = 0 needs no
    branch.  lam, a and b broadcast against each other.
    """
    s = np.sqrt(lam)
    den = 1.0 + np.exp(-2.0 * s * b)
    r = np.exp(s * (a - b)) / den
    z = 2.0 * s * a
    phi_z = _phi(z)
    sinhc = 2.0 * a * r * phi_z
    gap = (b - a) * (b + a) * _phi(s * (b + a)) * _phi(s * (b - a)) / den
    return r * (2.0 - z * phi_z), lam * sinhc, sinhc, gap


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class StateCostateSystem:
    """The stacked 2n x 2n system matrix A = [[0,-I],[-W,0]]."""

    A: np.ndarray
    n: int


@dataclass(frozen=True)
class BlockTransition:
    """n x n partitions of Phi(t) = e^{At} and Psi(t) = int_0^t e^{A s} ds."""

    t: float
    phi11: np.ndarray
    phi12: np.ndarray
    phi21: np.ndarray
    phi22: np.ndarray
    psi12: np.ndarray
    psi22: np.ndarray


@dataclass(frozen=True)
class SpectralData:
    """Real eigendecomposition W = V diag(lambdas) V^{-1}."""

    lambdas: np.ndarray
    V: np.ndarray
    Vinv: np.ndarray


@dataclass(frozen=True)
class EquilibriumTrajectory:
    """Sampled equilibrium: opinions x, costates p and controls u = -p.

    Rows index the time grid, columns the agents.  x[0] equals the initial
    opinions exactly and p[-1] vanishes up to the boundary tolerance.
    """

    grid: np.ndarray
    x: np.ndarray
    p: np.ndarray
    u: np.ndarray

    @property
    def n(self):
        return self.x.shape[1]

    @property
    def T(self):
        return float(self.grid[-1])


# ---------------------------------------------------------------------------
# block machinery


def assemble_system(gm: GameMatrices) -> StateCostateSystem:
    n = gm.W.shape[0]
    A = np.zeros((2 * n, 2 * n))
    A[:n, n:] = -np.eye(n)
    A[n:, :n] = -gm.W
    return StateCostateSystem(A=A, n=n)


def transition_blocks(sys: StateCostateSystem, t) -> BlockTransition:
    """Partition e^{At} and its running integral into the n x n blocks."""
    Phi, Psi = exp_with_integral(sys.A, t)
    n = sys.n
    return BlockTransition(
        t=float(t),
        phi11=Phi[:n, :n], phi12=Phi[:n, n:], phi21=Phi[n:, :n], phi22=Phi[n:, n:],
        psi12=Psi[:n, n:], psi22=Psi[n:, n:],
    )


def _complete_uniform_spectrum(n, w, kc):
    """Exact modes of the complete uniform topology: k + n w (n-1 times), then k."""
    lam = np.full(n, kc + n * w)
    lam[-1] = kc
    V = np.zeros((n, n))
    for i in range(n - 1):
        V[i, i] = 1.0
        V[n - 1, i] = -1.0
    V[:, n - 1] = 1.0
    Vinv = np.zeros((n, n))
    Vinv[: n - 1, : n - 1] = np.eye(n - 1)
    Vinv[: n - 1, :] -= 1.0 / n
    Vinv[n - 1, :] = 1.0 / n
    return SpectralData(lambdas=lam, V=V, Vinv=Vinv)


def _leader_spectrum(gm):
    """Triangular eigendecomposition of the one-leader topology.

    Needs the leader diagonal q_1 separated from every follower q_i; returns
    None when some gap is too small for a trustworthy eigenbasis.
    """
    q = gm.q
    n = len(q)
    gaps = q[1:] - q[0]
    scale = max(1.0, float(np.max(np.abs(q))))
    if np.any(np.abs(gaps) < 1e-8 * scale):
        return None
    nu = -gm.W[1:, 0] / gaps  # w_i1 / (q_i - q_1)
    V = np.eye(n)
    V[1:, 0] = nu
    Vinv = np.eye(n)
    Vinv[1:, 0] = -nu
    return SpectralData(lambdas=q.copy(), V=V, Vinv=Vinv)


def spectral_data(gm: GameMatrices, topology=None, *,
                  imag_tol=1e-9, resid_rtol=1e-8, cond_max=1e8):
    """Real eigendecomposition of W when one is reliably available, else None.

    Known topologies get exact eigenbases; symmetric W goes through eigh;
    anything else through eig, accepted only if the spectrum is real to
    tolerance, V is well conditioned and W is reconstructed to resid_rtol.
    """
    W = gm.W
    n = W.shape[0]
    sd = None
    if isinstance(topology, CompleteUniform):
        sd = _complete_uniform_spectrum(n, topology.w, topology.k)
    elif isinstance(topology, SingleLeader):
        sd = _leader_spectrum(gm)
    if sd is None:
        wnorm = max(np.linalg.norm(W), 1e-300)
        if np.linalg.norm(W - W.T) <= 1e-12 * wnorm:
            lam, V = np.linalg.eigh(0.5 * (W + W.T))
            sd = SpectralData(lambdas=lam, V=V, Vinv=V.T.copy())
        else:
            lam, V = np.linalg.eig(W)
            if np.max(np.abs(lam.imag)) > imag_tol * max(1.0, wnorm):
                return None
            lam = lam.real
            V = V.real
            if not np.all(np.isfinite(V)) or np.linalg.cond(V) > cond_max:
                return None
            sd = SpectralData(lambdas=lam, V=V, Vinv=np.linalg.inv(V))
    resid = np.linalg.norm(W @ sd.V - sd.V * sd.lambdas)
    if resid > resid_rtol * max(np.linalg.norm(W), 1.0):
        return None
    return sd


# ---------------------------------------------------------------------------
# trajectory propagation


def _propagate_general(gm, x0, grid, boundary_tol):
    """Invariant imbedding (Ascher, Mattheij & Russell 1995, ch. 4) over stable
    segments.  With exact steps [x+; 1; p+] = M [x; 1; p], M = [[phi11, a,
    phi12], [0, 1, 0], [phi21, b, phi22]] (a = psi12 K x0, b = psi22 K x0),
    sweep the gain p = P x + r back from 0 at T over segment boundaries,
    (phi22 - P+ phi12) [P | r] = [P+ phi11 - phi21 | P+ a + r+ - b], and march
    [x; 1; p] forward, resetting p = P x + r at each boundary.  Fine steps keep
    sqrt(|W|) h <= 1 and so does every segment of c fine steps; gains are kept
    about every sqrt(S) boundaries and recomputed block by block.  The fine
    steps inside all S segments march as c batched products; one more product
    lands on the next boundary, and a seam defect above boundary_tol fails."""
    m, n = len(grid), len(x0)
    needed = grid[-1] * math.sqrt(np.linalg.norm(gm.W, np.inf))  # steps for sqrt(|W|) h <= 1
    if not needed <= _MAX_STEPS:
        raise ArithmeticError(f"the general route would need {needed:.3g} steps (limit {_MAX_STEPS})")
    sub = max(1, math.ceil(needed / (m - 1)))
    steps = sub * (m - 1)
    c = max(1, math.floor(steps / max(needed, 1.0)))  # fine steps per segment
    S = -(-steps // c)
    h = grid[-1] / steps
    sys, kx0 = assemble_system(gm), gm.k * x0

    def stepper(t):  # M over a time t, with its phi22 and [phi21 | b] for the sweep
        bt = transition_blocks(sys, t)
        M = np.block([[bt.phi11, (bt.psi12 @ kx0)[:, None], bt.phi12],
                      [np.zeros((1, n)), np.ones((1, 1)), np.zeros((1, n))],
                      [bt.phi21, (bt.psi22 @ kx0)[:, None], bt.phi22]])
        return M, bt.phi22, M[n + 1:, :n + 1].copy()

    seg = stepper(c * h)
    last = seg if S * c == steps else stepper((steps - (S - 1) * c) * h)
    stride = math.isqrt(S) + 1
    starts = range(0, S, stride)
    ends = {S: np.zeros((n, n + 1))}

    def block(start):  # the gains from boundary min(start + stride, S) down to start
        gains = [ends[min(start + stride, S)]]
        for k in range(min(start + stride, S) - 1, start - 1, -1):
            M, phi22, shift = last if k == S - 1 else seg
            prod = gains[-1] @ M[:n + 1]
            *_, gain, info = _gesv(phi22 - prod[:, n + 1:], prod[:, :n + 1] - shift)
            if info != 0:
                raise SingularMatrixError(f"Riccati sweep hit an exactly singular pivot ({info})")
            gains.append(gain)
        return gains

    for start in reversed(starts):
        ends[start] = block(start)[-1]
    if not np.all(np.isfinite(ends[0])):
        raise SingularMatrixError("Riccati sweep produced non-finite gains")
    x, p = np.empty((m, n)), np.empty((m, n))
    z = np.append(x0, np.ones(n + 1))  # [x; 1; p], p set at each boundary
    for start in starts:
        for k, gain in enumerate(block(start)[:0:-1], start):
            z[n + 1:] = gain @ z[:n + 1]
            if k * c % sub == 0:
                x[k * c // sub], p[k * c // sub] = z[:n], z[n + 1:]
            z = (last if k == S - 1 else seg)[0] @ z
    x[-1], p[-1] = z[:n], z[n + 1:]  # p(T) as marched, not reset to 0
    if c > 1:  # sub == 1: boundary k is grid row k c
        fine = stepper(h)[0].T
        bounds = np.column_stack([x[::c], np.ones(len(x[::c])), p[::c]])
        marched = bounds[:S]
        for j in range(1, c + 1):
            marched = marched @ fine
            if j < c:
                rows = len(range(j, m, c))
                x[j::c], p[j::c] = marched[:rows, :n], marched[:rows, n + 1:]
        # every full segment's end against the next boundary state
        defect = float(np.max(np.abs(marched[:len(bounds) - 1] - bounds[1:])))
        if defect > boundary_tol * max(1.0, float(np.max(np.abs(bounds)))):
            raise ArithmeticError(f"segment seam defect {defect:.3e} exceeds {boundary_tol:.3e}")
    return x, p


def _propagate_spectral(sd, gm, x0, grid):
    """Per-mode closed form.  With y = V^-1 x, g = V^-1 K x0 and c = g/lambda,

        y(t) = c + [cosh(sqrt(l)(T-t))/cosh(sqrt(l) T)] (y0 - c),
        q(t) = sqrt(l) [sinh(sqrt(l)(T-t))/cosh(sqrt(l) T)] (y0 - c),

    evaluated through cosh_ratios, which stays bounded for any lambda T."""
    T = grid[-1]
    rem = T - grid
    y0 = sd.Vinv @ np.asarray(x0, dtype=float)
    g = sd.Vinv @ (gm.k * np.asarray(x0, dtype=float))
    m, n = len(grid), len(x0)
    Y = np.empty((m, n), order="F")  # filled a mode (column) at a time
    Q = np.empty((m, n), order="F")
    # W is diagonally dominant with a nonnegative diagonal, so its real
    # spectrum is >= 0; a negative eigenvalue is roundoff around 0
    for j, lam in enumerate(np.maximum(sd.lambdas, 0.0)):
        cosh, s_sinh, sinhc, gap = cosh_ratios(lam, rem, T)
        Y[:, j] = y0[j] * cosh + g[j] * gap
        Q[:, j] = y0[j] * s_sinh - g[j] * sinhc
    return Y @ sd.V.T, Q @ sd.V.T


def solve_equilibrium(net: InfluenceNetwork, m: int, *,
                      boundary_tol=1e-8, route="auto") -> EquilibriumTrajectory:
    """Sample the unique equilibrium trajectory on a uniform m-point grid.

    route picks the evaluation path: "auto" prefers the spectral route and
    falls back to the general one, "spectral"/"general" force a path.  The
    returned trajectory carries x, the jointly propagated costate p, and
    u = -p; the terminal costate, and on the general route each segment
    seam, is checked against boundary_tol so that an ill-conditioned
    propagation fails loudly instead of returning noise.
    """
    if m < 2:
        raise ValueError("need at least two grid samples")
    gm = build_matrices(net)
    grid = np.linspace(0.0, net.T, m)
    sd = None
    if route not in ("auto", "spectral", "general"):
        raise ValueError(f"unknown route {route!r}")
    if route in ("auto", "spectral"):
        sd = spectral_data(gm, classify_topology(net))
        if sd is None and route == "spectral":
            raise ValueError("no trustworthy real eigendecomposition; "
                             "use route='general'")
    if sd is not None:
        x, p = _propagate_spectral(sd, gm, net.x0, grid)
    else:
        x, p = _propagate_general(gm, net.x0, grid, boundary_tol)
    x[0] = net.x0  # t = 0 is the initial condition by definition
    pT = float(np.max(np.abs(p[-1])))
    if pT > boundary_tol:
        raise ArithmeticError(
            f"terminal costate residual {pT:.3e} exceeds {boundary_tol:.3e}; "
            "the instance is too stiff for the selected route")
    traj = EquilibriumTrajectory(grid=grid, x=x, p=p, u=-p)
    return traj
