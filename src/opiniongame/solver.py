"""Open-loop Nash equilibrium trajectories via the coupled state/costate system.

Stacking opinions x and costates p gives a linear two-point boundary value
problem

    d/dt [x; p] = [[0, -I], [-W, 0]] [x; p] + [[0, 0], [K, 0]] [x0; p0],

with x(0) = x0 fixed and p(T) = 0 free-endpoint.  Two evaluation routes are
provided:

* a general route, exact for arbitrary W and stable at any horizon: with R
  the principal square root of W, the trajectory combines the decaying
  exponentials e^{-R t} and e^{-R (T - t)}, so one sqrtm, one expm (of
  -R h, h the grid step) and two solves serve every horizon; the grid rows,
  powers of e^{-R h} applied to the two boundary vectors, are filled by
  doubling in ceil(log2 m) products, and e^{-R T} is the product of the
  squares that the doubling steps by;
* a spectral route used whenever W has a trustworthy real eigendecomposition,
  which collapses the block formula to cosh/sinh ratios of each mode, taken
  for every mode at once, a block of grid rows at a time, straight into x and
  p.  The ratios (cosh_ratios) come from decaying exponentials and expm1 with
  no branch in sqrt(lambda) T, so the route stays accurate for stiff
  instances where cosh(sqrt(lambda) T) dwarfs float64 resolution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import exp_with_integral
from .network import CompleteUniform, InfluenceNetwork, classify_topology

# smallest normal float; phi(z) = -expm1(-z)/z is exactly 1 there.
_TINY = np.finfo(float).tiny
# spectral_data accepts eig only with |Im lambda| <= _IMAG_TOL max(1, |W|),
# cond(V) <= _COND_MAX and |W V - V Lambda| <= _RESID_RTOL max(1, |W|).
_IMAG_TOL = 1e-9
_COND_MAX = 1e8
_RESID_RTOL = 1e-8
# entries per row block of the spectral route, n of them per grid row
_BLOCK = 1 << 15


# ---------------------------------------------------------------------------
# the cosh-ratio family, used by the spectral route and the closed forms


def _phi(w):
    """phi(-w) for w <= 0, where phi(z) = -expm1(-z)/z; a w above minus the
    smallest normal float is lowered to it, where phi is exactly its limit 1."""
    w = np.minimum(w, -_TINY)
    out = np.expm1(w)
    out /= w
    return out


def _ratio_numerators(s, a, b):
    """den = 1 + e^{-2sb} and the numerators over den of cosh_ratios' cosh,
    sinh/s and gap, as fresh arrays the caller may overwrite.  With
    e = e^{s(a-b)} and z = 2sa they are e (2 - z phi(z)), 2 a e phi(z) and
    (b - a)(b + a) phi(s(b + a)) phi(s(b - a)).  No exponent is positive, so
    nothing overflows for any s b, and s = 0 needs no branch."""
    gap = _phi(s * -(b + a))
    gap *= (b - a) * (b + a)
    w = s * (a - b)
    e = np.exp(w)
    gap *= _phi(w)
    w = s * (-2.0 * a)  # -z
    phi_z = _phi(w)
    sinhc = phi_z * e
    sinhc *= 2.0 * a
    w *= phi_z
    w += 2.0
    e *= w  # the cosh numerator; e has every axis, w may lack those of b
    return 1.0 + np.exp(-2.0 * s * b), e, sinhc, gap


def cosh_ratios(lam, a, b):
    """cosh(sa), s sinh(sa), sinh(sa)/s and (cosh(sb) - cosh(sa))/lam, each
    divided by cosh(sb), for s = sqrt(lam), lam >= 0 and 0 <= a <= b; all
    bounded for any s b.  lam, a and b broadcast against each other."""
    den, cosh, sinhc, gap = _ratio_numerators(np.sqrt(lam), a, b)
    sinhc = sinhc / den
    return cosh / den, lam * sinhc, sinhc, gap / den


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class EquilibriumTrajectory:
    """Sampled trajectory: opinions x, costates p and a candidate's own
    control u, or u = None for the derived control u = -p.

    Rows index the time grid, columns the agents.  A solved trajectory has
    x[0] equal to the initial opinions and p[-1] equal to 0, both exactly,
    and u None.  u_rows is the one reader of the control.
    """

    grid: np.ndarray
    x: np.ndarray
    p: np.ndarray
    u: np.ndarray | None = None

    def u_rows(self, agents):
        """u.T[agents] for an index array agents, a fresh C-contiguous copy;
        a derived u = -p is negated in the copy, never formed whole."""
        rows = np.ascontiguousarray((self.p if self.u is None else self.u).T[agents])
        return np.negative(rows, out=rows) if self.u is None else rows

    @property
    def n(self):
        return self.x.shape[1]

    @property
    def T(self):
        return float(self.grid[-1])


# ---------------------------------------------------------------------------
# block machinery


def transition_blocks(W: np.ndarray, t):
    """(e^{At}, int_0^t e^{As} ds) for A = [[0, -I], [-W, 0]], as 2n x 2n
    arrays.  Kept as criterion 3's reference; bench/tracing.py:28 traces it."""
    n = W.shape[0]
    A = np.block([[np.zeros((n, n)), -np.eye(n)], [-W, np.zeros((n, n))]])
    return exp_with_integral(A, t)


def _complete_uniform_spectrum(family):
    """Exact modes of the complete uniform topology: k + n w (n-1 times), then k."""
    n = family.n
    lam = np.full(n, family.k + n * family.w)
    lam[-1] = family.k
    V = np.eye(n)
    V[-1] = -1.0
    V[:, -1] = 1.0
    Vinv = np.eye(n) - 1.0 / n
    Vinv[-1] = 1.0 / n
    return lam, V, Vinv


def spectral_data(W: np.ndarray, topology=None):
    """(lambdas, V, Vinv), W = V diag(lambdas) Vinv, when reliably found, else None.

    The complete uniform family gets its exact eigenbasis from its own
    parameters; symmetric W goes through eigh; anything else, the one-leader
    star included, through eig, accepted only if the spectrum is real to
    _IMAG_TOL and V is well conditioned; every basis must reconstruct W to
    _RESID_RTOL.
    """
    # the gates measure W in units of s = max |W_ij|, so that no norm
    # overflows or underflows at any scale of the weights
    s = float(np.max(np.abs(W))) or 1.0
    Ws = W / s
    wnorm = np.linalg.norm(Ws)
    if isinstance(topology, CompleteUniform):
        lam, V, Vinv = _complete_uniform_spectrum(topology)
    elif np.linalg.norm(Ws - Ws.T) <= 1e-12 * wnorm:
        lam, V = np.linalg.eigh(0.5 * (W + W.T))
        Vinv = V.T.copy()
    else:
        imag_max = _IMAG_TOL * max(1.0 / s, wnorm)
        # a complex spectrum is rejected before any eigenvector is formed
        if np.max(np.abs(np.linalg.eigvals(W).imag)) / s > imag_max:
            return None
        lam, V = np.linalg.eig(W)
        if np.max(np.abs(lam.imag)) / s > imag_max:
            return None
        lam, V = lam.real, V.real
        if not np.all(np.isfinite(V)) or np.linalg.cond(V) > _COND_MAX:
            return None
        Vinv = np.linalg.inv(V)
    resid = np.linalg.norm(Ws @ V - V * (lam / s))
    if not resid <= _RESID_RTOL * max(wnorm, 1.0 / s):
        return None
    return lam, V, Vinv


# ---------------------------------------------------------------------------
# trajectory propagation


def _closed_classes(W, free):
    """The closed classes of the influence graph whose members are all free,
    as index arrays.  A closed class is a strongly connected set that no
    edge leaves.  Boolean reachability, squared to its fixed point, needs no
    tolerance."""
    reach = (W != 0) | np.eye(len(W), dtype=bool)
    while True:
        wider = (reach @ reach.astype(float)) > 0
        if np.array_equal(wider, reach):
            break
        reach = wider
    # an agent that every agent it reaches reaches back lies in a closed
    # class, and reaches exactly that class
    pending = ~np.any(reach & ~reach.T, axis=1) & ~np.any(reach & ~free, axis=1)
    while pending.any():
        members = reach[np.argmax(pending)]
        pending &= ~members
        yield np.flatnonzero(members)


def _lifted(net):
    """W with every singular closed class lifted, and c = W^-1 K x0: the
    point every opinion settles at as T grows (Friedkin-Johnsen).

    W is singular exactly when a closed class C of the influence graph has
    k = 0 on every member.  l^T x_C then stays at l^T x0_C, where
    l^T W_CC = 0 and l^T 1 = 1, so adding beta 1 l^T to W_CC and
    beta l^T x0_C to F_C leaves the trajectory as it is and moves the zero
    eigenvalue to beta (Brauer's theorem).  A k too small to change its row
    of W in floating point counts as 0.
    """
    x0, n = net.x0, int(net.n)
    W, F = net.W.copy(), net.k * x0
    # a k below the rounding of its row of W leaves W as singular as k = 0
    free = net.k <= n * np.finfo(float).eps * W.diagonal()
    if free.any():
        for C in _closed_classes(W, free):
            block = W[np.ix_(C, C)]
            M = block.T.copy()
            M[-1] = 1.0  # l^T 1 = 1 in place of one dependent equation
            ell = np.linalg.solve(M, np.eye(len(C))[-1])
            beta = float(np.max(np.diag(block))) or 1.0
            W[np.ix_(C, C)] = block + beta * ell
            F[C] += beta * (ell @ x0[C])
    return W, np.linalg.solve(W, F)


def _propagate_general(net, grid):
    """Square-root route for x'' = W x - F, F = K x0, x(0) = x0, x'(T) = 0.
    With W and c from _lifted, R the principal square root of W and
    E(s) = e^{-R s},

        (I + E(T)^2) z = x0 - c,   w = E(T) z,
        x(t) = c + E(t) z + E(T - t) w,   p(t) = R (E(t) z - E(T - t) w).

    No exponent is positive, so cost and accuracy do not depend on T.  expm
    runs once, for E(h); E(T) is a product of its squares, so the NaN that
    expm returns from about h sqrt(max |W_ij|) = 1e40 depends on h, not T.
    """
    from scipy.linalg import expm, sqrtm

    x0, m, n = net.x0, len(grid), int(net.n)
    W, c = _lifted(net)
    R = sqrtm(W).real  # scipy < 1.16 returns a complex array
    # squares[i] = E(h)^(2^i) transposed for every 2^i < m: the steps of the
    # fill, and those at the set bits of m - 1 multiply to E(T)
    squares = [expm(-(grid[-1] / (m - 1)) * R).T]
    while 1 << len(squares) < m:
        squares.append(squares[-1] @ squares[-1])
    ET = functools.reduce(np.matmul, (sq for i, sq in enumerate(squares) if (m - 1) >> i & 1)).T
    z = np.linalg.solve(np.eye(n) + ET @ ET, x0 - c)
    # row j of x is (E(h)^j z)^T and row m - 1 - j of p is (E(h)^j w)^T.
    # With step = E(h)^done, the next done rows are the first done times
    # step, p read from its end: ceil(log2 m) products fill the grid
    x, p = np.empty((m, n)), np.empty((m, n))
    x[0], p[-1], done = z, ET @ z, 1
    for step in squares:
        k = min(done, m - done)
        np.matmul(x[:k], step, out=x[done:done + k])
        np.matmul(p[m - k:], step, out=p[m - done - k:m - done])
        done += k
    x[-1] = p[-1]  # E(T) z is w by definition, so p(T) is exactly 0
    d = x - p
    x += c
    x += p
    return x, np.matmul(d, R.T, out=p)


def _propagate_spectral(sd, net, grid):
    """All modes at once, in row blocks of the grid.  With y = V^-1 x,
    g = V^-1 K x0 and c = g/lambda,

        y(t) = c + [cosh(sqrt(l)(T-t))/cosh(sqrt(l) T)] (y0 - c),
        q(t) = sqrt(l) [sinh(sqrt(l)(T-t))/cosh(sqrt(l) T)] (y0 - c),

    that is y = y0 cosh + g gap and q = (l y0 - g) sinhc in the ratios of
    cosh_ratios.  Each block takes their numerators with the modes as rows,
    folds y0/den, g/den and (l y0 - g)/den into them in place, and maps them
    straight into its rows of x and p."""
    (lambdas, V, Vinv), T, m, n = sd, grid[-1], len(grid), int(net.n)
    # W is diagonally dominant with a nonnegative diagonal, so its real
    # spectrum is >= 0; an eigenvalue within n eps |W|_inf, the rounding of
    # W's rows, is a 0 that must stay 0, or a conserved mode decays
    zero = n * np.finfo(float).eps * np.linalg.norm(net.W, np.inf)
    lam = np.where(lambdas > zero, lambdas, 0.0)
    y0, g = Vinv @ net.x0, Vinv @ (net.k * net.x0)
    # each distinct rate is evaluated once, and read for every mode it has
    rates, mode_rows = np.unique(lam, return_inverse=True)
    if len(rates) == n:
        rates, mode_rows = lam, slice(None)
    s, x, p = np.sqrt(rates)[:, None], np.empty((m, n)), np.empty((m, n))
    rows = max(1, _BLOCK // n)
    for lo in range(0, m, rows):
        den, Y, Q, gap = (a[mode_rows] for a in _ratio_numerators(s, T - grid[lo:lo + rows], T))
        Y *= y0[:, None] / den
        Y += np.multiply(gap, g[:, None] / den, out=gap)
        Q *= (lam * y0 - g)[:, None] / den
        np.matmul(Y.T, V.T, out=x[lo:lo + rows])
        np.matmul(Q.T, V.T, out=p[lo:lo + rows])
    return x, p


def solve_equilibrium(net: InfluenceNetwork, m: int) -> EquilibriumTrajectory:
    """Sample the unique equilibrium trajectory on a uniform m-point grid.

    W alone picks the route: the spectral one wherever spectral_data finds
    a trustworthy real eigendecomposition, the general one otherwise.  The
    returned trajectory stores x and the jointly propagated costate p, and
    derives u = -p.  Both boundary conditions hold exactly: x(0) = x0 and
    p(T) = 0.  m < 2 raises ValueError, and a trajectory that is not finite
    raises ArithmeticError instead of noise.
    """
    if m < 2:
        raise ValueError("need at least two grid samples")
    sd = spectral_data(net.W, classify_topology(net))
    grid = np.linspace(0.0, net.T, m)
    if sd is not None:
        x, p = _propagate_spectral(sd, net, grid)
    else:
        x, p = _propagate_general(net, grid)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p))):
        s = float(np.max(np.abs(net.W)))
        raise ArithmeticError(
            f"the trajectory is not finite: max |W_ij| = {s:.3g}, "
            f"T sqrt(max |W_ij|) = {net.T * math.sqrt(s):.3g}")
    x[0] = net.x0  # t = 0 is the initial condition by definition
    return EquilibriumTrajectory(grid=grid, x=x, p=p)
