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
so an eps-consensus time inverts R explicitly through arccosh, and
consensus_times answers every rate of a family and every eps from one
evaluation of R.
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
    t = None; 1 where the rate lam = k + w is 0, as nothing moves.  lam, k
    and w may be arrays over rates: shape np.shape(t) + np.shape(lam)."""
    R = 0.0
    if t is not None:  # t's axes first, then lam's
        t = np.asarray(t, dtype=float)
        R = cosh_ratios(lam, T - t.reshape(t.shape + (1,) * np.ndim(lam)), T)[0]
    idle = lam == 0.0  # so k = w = 0, and the ratio terms below are 0
    rate = lam + idle
    return k / rate + (w / rate) * R + idle


def consensus_times(p, x0, eps_list):
    """The shrink law at t = T of every rate of the family p, and per eps in
    eps_list the earliest t in [0, T] with shrink(t) dist <= eps per rate, or
    None where the horizon ends first.  A CompleteUniform has one rate, with
    dist the largest deviation from the average; a SingleLeader has one per
    follower, with dist its gap to the leader.  One cosh_ratios call gives
    every rate's shrink at t = 0 and t = T, which every eps shares;
    _ratio_time runs only where a time falls strictly inside (0, T)."""
    for eps in eps_list:
        _check_eps(eps)
    x0 = _check_x0(p.n, x0)
    if isinstance(p, CompleteUniform):
        spread = np.max(np.abs(x0 - x0.mean()))
        lam, k, w, dist = np.array([[p.lambda1], [p.k], [p.n * p.w], [spread]])
    else:
        lam, k, w, dist = p.lam[1:], p.k[1:], p.w1[1:], np.abs(x0[1:] - x0[0])
    ends = shrink(lam, k, w, p.T, [0.0, p.T])
    first, last = ends * dist
    times = [[0.0 if a <= eps else None if b > eps else _ratio_time(*rate, p.T, eps / d)
              for a, b, d, rate in zip(first, last, dist, zip(lam, k, w))]
             for eps in eps_list]
    return ends[1], times


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
    return consensus_times(p, x0, [eps])[1][0][0]


# ---------------------------------------------------------------------------
# single-leader topology


def leader_trajectory(p: SingleLeader, x0, t) -> np.ndarray:
    """x_1(t) = x0_1; x_i(t) = (k_i x0_i + w_i1 x0_1)/l_i + xi_i(t)(x0_i - x0_1),
    where xi is 0 for the leader and for followers with l_i = 0, which the
    convention pins to x0_i."""
    _check_time(p.T, t)
    x0 = _check_x0(p.n, x0)
    coef = np.divide(p.w1, p.lam, out=np.zeros(p.n), where=p.lam > 0.0)
    rates, col = np.unique(p.lam, return_inverse=True)  # each distinct rate once
    xi = coef * cosh_ratios(rates, p.T - np.asarray(t, dtype=float)[..., None], p.T)[0][..., col]
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
    _leader_gap(p, i, x0)
    pair = [0, i]  # the leader and follower i alone
    alone = SingleLeader(k=p.k[pair], w1=p.w1[pair], T=p.T)
    return consensus_times(alone, np.asarray(x0, dtype=float)[pair], [eps])[1][0][0]


def _leader_gap(p: SingleLeader, i, x0) -> float:
    """|x0_i - x0_1| for a follower i."""
    if i < 1 or i >= p.n:
        raise ValueError("follower index must be in 1..n-1")
    x0 = _check_x0(p.n, x0)
    return abs(float(x0[i] - x0[0]))


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
