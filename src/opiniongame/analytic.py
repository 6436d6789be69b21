"""Closed-form equilibrium trajectories, long-run limits and consensus metrics
for the two special topologies: the complete uniform network and the
single-leader star.

Complete uniform: every opinion relaxes toward the initial average with a
shrinking coefficient

    gamma(t) = k/l1 + (n w / l1) cosh(sqrt(l1)(T-t)) / cosh(sqrt(l1) T),
    l1 = k + n w.

Single leader: the leader holds its opinion; follower i mixes its own and
the leader's initial opinions with xi_i(t) = (w_i1/l_i) cosh(sqrt(l_i)(T-t))
/ cosh(sqrt(l_i) T) and l_i = k_i + w_i1.

The parameters of both families are the CompleteUniform and SingleLeader
objects that network.classify_topology returns; complete_params and
leader_params classify a network and require the one family.  Both
trajectory functions take a scalar or an array t and return opinions of
shape t.shape + (n,), so a whole grid costs one call.  Both families obey
one shrink law, (k + w R(t))/l with R(t) = cosh(sqrt(l)(T-t))/cosh(sqrt(l) T),
so an eps-consensus time inverts R explicitly through arccosh.
"""

from __future__ import annotations

import math

import numpy as np

from .network import CompleteUniform, InfluenceNetwork, SingleLeader, classify_topology
from .solver import cosh_ratios


def complete_params(net: InfluenceNetwork) -> CompleteUniform:
    """net's complete uniform family; ValueError for any other network."""
    p = classify_topology(net)
    if not isinstance(p, CompleteUniform):
        raise ValueError("network is not a complete uniform topology")
    return p


def leader_params(net: InfluenceNetwork) -> SingleLeader:
    """net's single-leader family; ValueError for any other network."""
    p = classify_topology(net)
    if not isinstance(p, SingleLeader):
        raise ValueError("network is not a single-leader topology")
    return p


def shrink(lam, k, w, T, t=None):
    """The shrink law (k + w R(t))/lam, as k/lam + (w/lam) R(t): the factor
    that scales a deviation at time t, or in the long run (R = 0) for
    t = None.  1 where lam = 0: with neither rate, nothing moves."""
    R = 0.0 if t is None else cosh_ratios(lam, T - np.asarray(t, dtype=float), T)[0]
    return np.ones_like(R) if lam == 0.0 else k / lam + (w / lam) * R


# ---------------------------------------------------------------------------
# complete uniform topology


def gamma(p: CompleteUniform, t) -> float:
    """Shrink factor applied to each agent's deviation from the average."""
    _check_time(p.T, t)
    return shrink(p.lambda1, p.k, p.n * p.w, p.T, t)


def complete_trajectory(p: CompleteUniform, x0, t) -> np.ndarray:
    """x_i(t) = avg(x0) + gamma(t) (x0_i - avg(x0)); the mean never moves."""
    x0 = _check_x0(p.n, x0)
    avg = x0.mean()
    return avg + np.asarray(gamma(p, t))[..., None] * (x0 - avg)


def complete_limit(p: CompleteUniform, x0) -> np.ndarray:
    """Long-run opinions avg + (k/l1)(x0_i - avg): average consensus iff k = 0."""
    x0 = _check_x0(p.n, x0)
    avg = x0.mean()
    return avg + shrink(p.lambda1, p.k, p.n * p.w, p.T) * (x0 - avg)


def epsilon_consensus_time(p: CompleteUniform, x0, eps):
    """Earliest t with every opinion within eps of the initial average.

    Returns None when gamma(T) * max deviation still exceeds eps, i.e. the
    network never gets that close on this horizon (with stubborn agents it
    never will on any horizon once eps < (k/l1) * max deviation).
    """
    _check_eps(eps)
    x0 = _check_x0(p.n, x0)
    spread = float(np.max(np.abs(x0 - x0.mean())))
    return _consensus_time(p.lambda1, p.k, p.n * p.w, p.T, spread, eps)


# ---------------------------------------------------------------------------
# single-leader topology


def leader_trajectory(p: SingleLeader, x0, t) -> np.ndarray:
    """x_1(t) = x0_1; x_i(t) = (k_i x0_i + w_i1 x0_1)/l_i + xi_i(t)(x0_i - x0_1),
    where xi is 0 for the leader and for followers with l_i = 0, which the
    convention pins to x0_i."""
    _check_time(p.T, t)
    x0 = _check_x0(p.n, x0)
    coef = np.divide(p.w1, p.lam, out=np.zeros(p.n), where=p.lam > 0.0)
    xi = coef * cosh_ratios(p.lam, p.T - np.asarray(t, dtype=float)[..., None], p.T)[0]
    return leader_limit(p, x0) + xi * (x0 - x0[0])


def leader_limit(p: SingleLeader, x0) -> np.ndarray:
    """Long-run opinions: the leader keeps x0_1, follower i settles at the
    convex combination (k_i x0_i + w_i1 x0_1)/l_i."""
    x0 = _check_x0(p.n, x0)
    out = x0.copy()
    f = np.flatnonzero(p.lam[1:]) + 1  # followers that move at all
    out[f] = (p.k[f] * x0[f] + p.w1[f] * x0[0]) / p.lam[f]
    return out


def leader_distance(p: SingleLeader, i, x0, t) -> float:
    """|x_i(t) - x0_1| = (k_i/l_i + xi_i(t)) |x0_i - x0_1|, non-increasing."""
    _check_time(p.T, t)
    dist = _leader_gap(p, i, x0)
    return shrink(p.lam[i], p.k[i], p.w1[i], p.T, t) * dist


def leader_consensus_time(p: SingleLeader, i, x0, eps):
    """Earliest t with follower i within eps of the leader's opinion, or None."""
    _check_eps(eps)
    return _consensus_time(p.lam[i], p.k[i], p.w1[i], p.T, _leader_gap(p, i, x0), eps)


def _leader_gap(p: SingleLeader, i, x0) -> float:
    """|x0_i - x0_1| for a follower i."""
    if i < 1 or i >= p.n:
        raise ValueError("follower index must be in 1..n-1")
    x0 = _check_x0(p.n, x0)
    return abs(float(x0[i] - x0[0]))


def _consensus_time(lam, k, w, T, dist, eps):
    """Earliest t in [0, T] with shrink(lam, k, w, T, t) dist <= eps, or None."""
    if shrink(lam, k, w, T, 0.0) * dist <= eps:
        return 0.0
    if shrink(lam, k, w, T, T) * dist > eps:
        return None
    return _ratio_time(lam, k, w, T, eps / dist)


def _ratio_time(lam, k, w, T, level):
    """The t in [0, T] with (k + w R(t))/lam = level, R as in the module
    docstring, for a level between the values at t = T and t = 0.

    t = T - arccosh(y)/s with y = c cosh(sT), s = sqrt(lam) and
    c = (level lam - k)/w, taken in logs so that cosh(sT) never overflows:
    log y = log c + sT + log1p(e^{-2sT}) - log 2 and
    arccosh(y) = log y + log1p(sqrt(-expm1(-2 log y))).  Roundoff at the
    ends is clamped to c > 0 and 0 <= t <= T.
    """
    s = math.sqrt(lam)
    c = max((level * lam - k) / w, math.ulp(0.0))
    log_y = max(math.log(c) + s * T + math.log1p(math.exp(-2.0 * s * T)) - math.log(2.0), 0.0)
    return max(T - (log_y + math.log1p(math.sqrt(-math.expm1(-2.0 * log_y)))) / s, 0.0)


def _check_eps(eps):
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")


def _check_time(T, t):
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-12) or np.any(t > T * (1 + 1e-12)):
        raise ValueError(f"t must lie in [0, {T}]")


def _check_x0(n, x0):
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 must have length {n}")
    return x0
