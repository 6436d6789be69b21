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

Both trajectory functions take a scalar or an array t and return opinions of
shape t.shape + (n,), so a whole grid costs one call.  Both shrink factors
have the form (k + w R(t))/l with R(t) = cosh(sqrt(l)(T-t))/cosh(sqrt(l) T),
so an eps-consensus time inverts R explicitly through arccosh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import CompleteUniform, InfluenceNetwork, SingleLeader, classify_topology
from .solver import cosh_ratios


@dataclass(frozen=True)
class CompleteUniformParams:
    n: int
    w: float
    k: float
    T: float

    def __post_init__(self):
        if self.lambda1 <= 0.0:
            raise ValueError("degenerate instance: w = k = 0 has no unique equilibrium scale")
        if self.w < 0 or self.k < 0 or self.T <= 0:
            raise ValueError("need w >= 0, k >= 0, T > 0")

    @property
    def lambda1(self) -> float:
        return self.k + self.n * self.w


@dataclass(frozen=True)
class LeaderParams:
    """Per-agent data for the one-leader star; index 0 is the leader.

    w1[i] is follower i's weight on the leader (w1[0] = 0) and
    lam = k + w1 are the follower relaxation rates (lam[0] = k_leader).
    """

    k: np.ndarray
    w1: np.ndarray
    T: float

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        w1 = np.asarray(self.w1, dtype=float)
        if k.shape != w1.shape or k.ndim != 1 or len(k) < 2:
            raise ValueError("need matching k and w1 vectors for at least two agents")
        if w1[0] != 0.0:
            raise ValueError("the leader takes no influence: w1[0] must be 0")
        if np.any(k < 0) or np.any(w1 < 0) or self.T <= 0:
            raise ValueError("need k >= 0, w1 >= 0, T > 0")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "w1", w1)

    @property
    def lam(self) -> np.ndarray:
        return self.k + self.w1

    @property
    def n(self) -> int:
        return len(self.k)


def complete_params(net: InfluenceNetwork) -> CompleteUniformParams:
    topo = classify_topology(net)
    if not isinstance(topo, CompleteUniform):
        raise ValueError("network is not a complete uniform topology")
    return CompleteUniformParams(n=int(net.n), w=topo.w, k=topo.k, T=float(net.T))


def leader_params(net: InfluenceNetwork) -> LeaderParams:
    if not isinstance(classify_topology(net), SingleLeader):
        raise ValueError("network is not a single-leader topology")
    w1 = np.zeros(int(net.n))
    for (i, j), w in net.edges.items():
        w1[i] = w
    return LeaderParams(k=net.k.copy(), w1=w1, T=float(net.T))


# ---------------------------------------------------------------------------
# complete uniform topology


def gamma(p: CompleteUniformParams, t) -> float:
    """Shrink factor applied to each agent's deviation from the average."""
    _check_time(p.T, t)
    l1 = p.lambda1
    return p.k / l1 + (p.n * p.w / l1) * cosh_ratios(l1, p.T - np.asarray(t, dtype=float), p.T)[0]


def complete_trajectory(p: CompleteUniformParams, x0, t) -> np.ndarray:
    """x_i(t) = avg(x0) + gamma(t) (x0_i - avg(x0)); the mean never moves."""
    x0 = _check_x0(p.n, x0)
    avg = x0.mean()
    return avg + np.asarray(gamma(p, t))[..., None] * (x0 - avg)


def complete_limit(p: CompleteUniformParams, x0) -> np.ndarray:
    """Long-run opinions avg + (k/l1)(x0_i - avg): average consensus iff k = 0."""
    x0 = _check_x0(p.n, x0)
    avg = x0.mean()
    return avg + (p.k / p.lambda1) * (x0 - avg)


def complete_pairwise_distance(p: CompleteUniformParams, x0i, x0j, t) -> float:
    """|x_i(t) - x_j(t)| = gamma(t) |x0_i - x0_j|; non-increasing in t."""
    return float(gamma(p, t)) * abs(float(x0i) - float(x0j))


def epsilon_consensus_time(p: CompleteUniformParams, x0, eps):
    """Earliest t with every opinion within eps of the initial average.

    Returns None when gamma(T) * max deviation still exceeds eps, i.e. the
    network never gets that close on this horizon (with stubborn agents it
    never will on any horizon once eps < (k/l1) * max deviation).
    """
    _check_eps(eps)
    x0 = _check_x0(p.n, x0)
    spread = float(np.max(np.abs(x0 - x0.mean())))
    if spread * float(gamma(p, 0.0)) <= eps:
        return 0.0
    if spread * float(gamma(p, p.T)) > eps:
        return None
    return _ratio_time(p.lambda1, p.k, p.n * p.w, p.T, eps / spread)


# ---------------------------------------------------------------------------
# single-leader topology


def _xi(p: LeaderParams, t):
    """xi_i(t) for every agent, shape t.shape + (n,); 0 for the leader and for
    followers with l_i = 0, which the convention pins to x0_i."""
    coef = np.divide(p.w1, p.lam, out=np.zeros(p.n), where=p.lam > 0.0)
    return coef * cosh_ratios(p.lam, p.T - np.asarray(t, dtype=float)[..., None], p.T)[0]


def leader_trajectory(p: LeaderParams, x0, t) -> np.ndarray:
    """x_1(t) = x0_1; x_i(t) = (k_i x0_i + w_i1 x0_1)/l_i + xi_i(t)(x0_i - x0_1)."""
    _check_time(p.T, t)
    x0 = _check_x0(p.n, x0)
    return leader_limit(p, x0) + _xi(p, t) * (x0 - x0[0])


def leader_limit(p: LeaderParams, x0) -> np.ndarray:
    """Long-run opinions: the leader keeps x0_1, follower i settles at the
    convex combination (k_i x0_i + w_i1 x0_1)/l_i."""
    x0 = _check_x0(p.n, x0)
    out = x0.copy()
    f = np.flatnonzero(p.lam[1:]) + 1  # followers that move at all
    out[f] = (p.k[f] * x0[f] + p.w1[f] * x0[0]) / p.lam[f]
    return out


def leader_distance(p: LeaderParams, i, x0, t) -> float:
    """|x_i(t) - x0_1| = (k_i/l_i + xi_i(t)) |x0_i - x0_1|, non-increasing."""
    _check_time(p.T, t)
    if i < 1 or i >= p.n:
        raise ValueError("follower index must be in 1..n-1")
    x0 = _check_x0(p.n, x0)
    li = p.lam[i]
    factor = 1.0 if li == 0.0 else p.k[i] / li + float(_xi(p, t)[..., i])
    return factor * abs(float(x0[i] - x0[0]))


def leader_consensus_time(p: LeaderParams, i, x0, eps):
    """Earliest t with follower i within eps of the leader's opinion, or None."""
    _check_eps(eps)
    if leader_distance(p, i, x0, 0.0) <= eps:
        return 0.0
    if leader_distance(p, i, x0, p.T) > eps:
        return None
    dist = abs(float(x0[i] - x0[0]))
    return _ratio_time(p.lam[i], p.k[i], p.w1[i], p.T, eps / dist)


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
