"""Shared instance builders for the test suite."""

import contextlib
from unittest import mock

import numpy as np
import pytest

from opiniongame import solver
from opiniongame.network import InfluenceNetwork

X0_LADDER = np.array([0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95])


# the kernels of acceptance criterion 10: entire functions of z = lambda t^2
# built on the solver's phi


def kernel_sinhc(lam, t):
    """sinh(sqrt(lam) t)/sqrt(lam); the lam -> 0 limit is t.

    This is t s(z) with z = lam t^2 and s(z) = sinh(sqrt z)/sqrt z, entire in
    z: s = e^a phi(2a) for z = a^2 >= 0 and sinc(a/pi) for z = -a^2 < 0.
    Each sign is evaluated only on its own entries, so a large negative z
    never reaches exp."""
    t = np.asarray(t, dtype=float)
    z = np.asarray(lam * np.square(t), dtype=float)
    s = np.empty_like(z)
    pos = z >= 0.0
    a = np.sqrt(z[pos])
    s[pos] = np.exp(a) * solver._phi(-2.0 * a)
    s[~pos] = np.sinc(np.sqrt(-z[~pos]) / np.pi)
    out = t * s
    return float(out) if np.ndim(out) == 0 else out


def kernel_coshm1(lam, t):
    """(cosh(sqrt(lam) t) - 1)/lam = 2 sinh^2(sqrt(lam) t/2)/lam; the
    lam -> 0 limit is t^2/2."""
    return 2.0 * kernel_sinhc(lam, 0.5 * np.asarray(t, dtype=float)) ** 2


def kernel_cosh(lam, t):
    """cosh(sqrt(lam) t); cos(sqrt(-lam) t) for lam < 0; 1 at lam = 0."""
    return 1.0 + lam * kernel_coshm1(lam, t)


def complete_uniform_net(n, w, k, x0, T, name=""):
    edges = {(i, j): float(w) for i in range(n) for j in range(n) if i != j}
    return InfluenceNetwork(n=n, edges=edges, k=np.full(n, float(k)),
                            x0=np.asarray(x0, dtype=float), T=T, name=name)


def leader_net(n, w1, k, x0, T, name=""):
    """Star into agent 1; w1 may be a scalar or a per-follower array."""
    w1 = np.broadcast_to(np.asarray(w1, dtype=float), (n,))
    edges = {(i, 0): float(w1[i]) for i in range(1, n)}
    k = np.broadcast_to(np.asarray(k, dtype=float), (n,))
    return InfluenceNetwork(n=n, edges=edges, k=np.array(k),
                            x0=np.asarray(x0, dtype=float), T=T, name=name)


def random_net(rng, n=None, T=None, edge_prob=0.5, w_max=3.0, k_max=1.0):
    """Moderately stiff random instance on a short horizon, where a reference
    that takes whole grid steps of e^{A h} still keeps full accuracy."""
    n = int(n if n is not None else rng.integers(3, 13))
    edges = {}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < edge_prob:
                edges[(i, j)] = float(rng.uniform(0.0, w_max))
    return InfluenceNetwork(
        n=n, edges=edges,
        k=rng.uniform(0.0, k_max, n),
        x0=rng.uniform(0.0, 1.0, n),
        T=float(T if T is not None else rng.uniform(1.0, 3.0)),
    )


def symmetric_net(rng, n, T, p=0.5, w_max=2.0):
    """Random undirected net: W is symmetric, so the spectral route takes it
    through eigh."""
    upper = np.triu(rng.random((n, n)) < p, 1)
    w = np.triu(rng.uniform(0.0, w_max, (n, n)), 1)
    edges = {(int(i), int(j)): float(w[min(i, j), max(i, j)])
             for i, j in zip(*np.nonzero(upper | upper.T))}
    return InfluenceNetwork(n=n, edges=edges, k=rng.uniform(0.0, 1.0, n),
                            x0=rng.uniform(0.0, 1.0, n), T=float(T))


@contextlib.contextmanager
def general_route():
    """Inside the block, solve_equilibrium takes the general route on every
    network: the solver's spectral_data finds no decomposition.  A plain
    context manager, so it also works inside Hypothesis test bodies."""
    with mock.patch.object(solver, "spectral_data", lambda W, topology=None: None):
        yield


@pytest.fixture
def fig1b_net():
    return complete_uniform_net(10, 2.0, 0.2, X0_LADDER, 5.0, name="fig1b")


@pytest.fixture
def fig2b_net():
    return leader_net(10, 2.0, 0.2, X0_LADDER, 5.0, name="fig2b")
