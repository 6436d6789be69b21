"""Influence network instances, their coupling matrix W and the two
closed-form families.

An instance is a weighted directed graph on n agents plus per-agent
stubbornness, initial opinions and a horizon.  Edge (i, j) with weight w_ij
means agent j influences agent i.  Agents are 0-based internally; scenario
files use 1-based indices.  classify_topology returns an instance's
closed-form family, CompleteUniform or SingleLeader, with the parameters
that analytic.py reads, or else None; solver.py also reads CompleteUniform
for its exact eigenbasis.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import numbers
import types
from dataclasses import dataclass
from typing import Mapping

import numpy as np


@dataclass(frozen=True)
class InfluenceNetwork:
    """One opinion game instance.

    edges maps ordered index pairs (i, j) to the nonnegative weight with
    which agent j influences agent i; missing pairs mean weight zero.
    k is the stubbornness vector, x0 the initial opinions, T the horizon.
    Every field is read-only, so the cached coupling matrix `W` never goes
    stale.
    """

    n: int
    edges: Mapping
    k: np.ndarray
    x0: np.ndarray
    T: float
    name: str = ""

    def __post_init__(self):
        k = np.array(self.k, dtype=float)
        x0 = np.array(self.x0, dtype=float)
        k.setflags(write=False)
        x0.setflags(write=False)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "edges", types.MappingProxyType(dict(self.edges)))

    @functools.cached_property
    def W(self) -> np.ndarray:
        """build_matrices(self) once per instance; if invalid, raises on every access."""
        return build_matrices(self)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    message: str

    def __str__(self):
        return f"{self.severity}: {self.message}"


@dataclass(frozen=True)
class CompleteUniform:
    """Complete net on n agents: common weight w and stubbornness k, horizon T."""

    n: int
    w: float
    k: float
    T: float

    @property
    def lambda1(self) -> float:
        """k + n w, the rate that sets every closed form's scale."""
        return self.k + self.n * self.w


@dataclass(frozen=True, eq=False)
class SingleLeader:
    """Agent 1 has no in-edges; every other agent i listens only to agent 1,
    with weight w1[i] (w1[0] = 0).  k is the stubbornness vector, T the
    horizon; lam = k + w1 is the diagonal of the triangular W."""

    k: np.ndarray
    w1: np.ndarray
    T: float

    def __post_init__(self):
        for name in ("k", "w1"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def lam(self) -> np.ndarray:
        return self.k + self.w1

    @property
    def n(self) -> int:
        return len(self.k)


_REAL, _FLOAT_MAX = (numbers.Real, np.bool_), float(np.finfo(float).max)  # a weight's types, bound


def _checked(net: InfluenceNetwork) -> tuple[list[Diagnostic], np.ndarray | None]:
    """validate's diagnostics and W, None if a check before its assembly fails.
    Edges that form arrays are checked at once, and only the failing ones are
    walked for messages; else every edge is walked, rejecting what failed."""
    if not isinstance(net.n, numbers.Integral) or isinstance(net.n, bool) or net.n < 1:
        error = f"agent count must be a positive integer, got {net.n!r}"
        return [Diagnostic("error", error)], None
    out, n, W = [], int(net.n), None
    if net.k.shape != (n,):
        out.append(Diagnostic("error", f"k must have length {n}, got shape {net.k.shape}"))
    elif not np.all(np.isfinite(net.k)):
        out.append(Diagnostic("error", "k entries must be finite"))
    elif np.any(net.k < 0):
        bad = int(np.argmin(net.k))
        out.append(Diagnostic("error", f"negative stubbornness k[{bad + 1}] = {net.k[bad]}"))
    if net.x0.shape != (n,):
        out.append(Diagnostic("error", f"x0 must have length {n}, got shape {net.x0.shape}"))
    elif not np.all(np.isfinite(net.x0)):
        out.append(Diagnostic("error", "x0 entries must be finite"))
    if not (np.isfinite(net.T) and net.T > 0):
        out.append(Diagnostic("error", f"horizon T must be positive and finite, got {net.T}"))
    edges, keys, weights = net.edges.items(), list(net.edges), list(net.edges.values())
    if (all(issubclass(t, tuple) for t in set(map(type, keys)))
            and all(issubclass(t, numbers.Integral)
                    for t in set(map(type, itertools.chain.from_iterable(keys))))
            and all(issubclass(t, _REAL) for t in set(map(type, weights)))):
        # keys that are not pairs, or an index or a weight that does not fit
        with contextlib.suppress(OverflowError, ValueError), np.errstate(over="ignore"):
            rows, cols = np.array(keys, dtype=np.intp).reshape(len(keys), 2).T
            weights = np.array(weights, dtype=float)
            bad = ((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n) | (rows == cols)
                   | ~np.isfinite(weights) | (weights < 0))
            edges = itertools.compress(edges, bad.tolist())  # the failing edges alone
    for key, w in edges:
        if not (isinstance(key, tuple) and len(key) == 2
                and all(isinstance(a, (numbers.Number, np.bool_)) for a in key)):
            out.append(Diagnostic("error", f"edge key {key!r}: must be a pair of agent indices"))
            continue
        i, j = key
        tag = f"edge ({i + 1}, {j + 1})"
        if not (isinstance(i, numbers.Integral) and isinstance(j, numbers.Integral)):
            out.append(Diagnostic("error", f"{tag}: indices must be integers"))
        elif not (0 <= i < n and 0 <= j < n):
            out.append(Diagnostic("error", f"{tag}: agent index out of range 1..{n}"))
        else:
            if i == j:
                out.append(Diagnostic("error", f"self-edge on agent {i + 1}"))
            if not isinstance(w, _REAL):
                out.append(Diagnostic("error", f"{tag}: weight must be a real number, got {w!r}"))
            elif not 0 <= w <= _FLOAT_MAX:
                out.append(Diagnostic("error", f"{tag}: weight must be finite and >= 0, got {w}"))
    if not out:  # so the edges hold as arrays, each in range
        W = np.zeros((n, n))
        W[rows, cols] -= weights  # the keys are unique, so each entry takes one weight
        with np.errstate(over="ignore"):
            np.fill_diagonal(W, -W.sum(axis=1) + net.k)
        W.setflags(write=False)
        for i in np.flatnonzero(~np.isfinite(W.diagonal())):
            out.append(Diagnostic(
                "error", f"agent {i + 1}: in-weights plus k sum beyond the float64 range"))
    if net.x0.shape == (n,) and np.all(np.isfinite(net.x0)):
        low, high = float(np.min(net.x0)), float(np.max(net.x0))
        if low < 0.0 or high > 1.0:
            out.append(Diagnostic(
                "warning",
                f"initial opinions outside [0, 1] (range [{low:g}, {high:g}]); accepted as-is"))
    return out, W


def validate(net: InfluenceNetwork) -> list[Diagnostic]:
    """Collect diagnostics; empty list means the instance is well formed.

    Opinions outside [0, 1] yield warnings only: the dynamics are affine and
    never clip, so the solver accepts them.
    """
    return _checked(net)[0]


def build_matrices(net: InfluenceNetwork) -> np.ndarray:
    """Assemble the read-only coupling matrix W of a network: diagonal
    q_i = sum_j w_ij + k_i and off-diagonal entries -w_ij, so its rows sum
    to the stubbornness vector k."""
    diagnostics, W = _checked(net)
    errors = [d.message for d in diagnostics if d.severity == "error"]
    if errors:
        raise ValueError("invalid network: " + "; ".join(errors))
    return W


def classify_topology(net: InfluenceNetwork) -> CompleteUniform | SingleLeader | None:
    """The closed-form family of net with its parameters, read in one walk
    over the edges, or None for any other network."""
    n, T, edges = int(net.n), float(net.T), net.edges
    if len(edges) == n * (n - 1):
        w0 = next(iter(edges.values()), 0.0)
        if all(w == w0 for w in edges.values()) and np.ptp(net.k) == 0.0:
            return CompleteUniform(n=n, w=float(w0), k=float(net.k[0]), T=T)
    if n >= 2 and len(edges) == n - 1:
        w1 = np.zeros(n)
        for (i, j), w in edges.items():
            if j != 0 or i not in range(1, n):
                return None
            w1[i] = w
        return SingleLeader(k=net.k, w1=w1, T=T)
    return None


_SCENARIO_KEYS = {"n", "T", "x0", "k", "edges", "name"}
_EDGE_KEYS = {"from", "to", "w"}


def network_from_dict(data: dict) -> InfluenceNetwork:
    """Build a network from the scenario schema (1-based edge indices).

    Unknown keys are rejected so that typos in scenario files surface
    instead of being silently ignored.
    """
    if not isinstance(data, dict):
        raise ValueError("scenario must be a JSON object")
    unknown = set(data) - _SCENARIO_KEYS
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    for key in ("n", "T", "x0", "k", "edges"):
        if key not in data:
            raise ValueError(f"scenario is missing required key {key!r}")
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"'n' must be a positive integer, got {n!r}")
    for key in ("x0", "k"):
        seq = data[key]
        if not isinstance(seq, list) or len(seq) != n:
            raise ValueError(f"'{key}' must be a list of {n} numbers")
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in seq):
            raise ValueError(f"'{key}' entries must be numbers")
    if not isinstance(data["T"], numbers.Real) or isinstance(data["T"], bool):
        raise ValueError("'T' must be a number")
    edges = {}
    if not isinstance(data["edges"], list):
        raise ValueError("'edges' must be a list of edge objects")
    for entry in data["edges"]:
        if not isinstance(entry, dict):
            raise ValueError(f"edge entries must be objects, got {entry!r}")
        unknown = set(entry) - _EDGE_KEYS
        if unknown:
            raise ValueError(f"unknown edge keys: {sorted(unknown)}")
        for key in _EDGE_KEYS:
            if key not in entry:
                raise ValueError(f"edge is missing key {key!r}: {entry!r}")
        i, j, w = entry["from"], entry["to"], entry["w"]
        for label, idx in (("from", i), ("to", j)):
            if not isinstance(idx, int) or isinstance(idx, bool) or not (1 <= idx <= n):
                raise ValueError(f"edge index '{label}' must be an integer in 1..{n}, got {idx!r}")
        if not isinstance(w, numbers.Real) or isinstance(w, bool):
            raise ValueError(f"edge weight must be a number, got {w!r}")
        key = (i - 1, j - 1)
        if key in edges:
            raise ValueError(f"duplicate edge ({i}, {j})")
        edges[key] = float(w)
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ValueError("'name' must be a string")
    if "/" in name or "\\" in name:  # the name becomes a file name under --out
        raise ValueError(f"'name' must not contain '/' or '\\', got {name!r}")
    return InfluenceNetwork(n=n, edges=edges, k=data["k"], x0=data["x0"],
                            T=float(data["T"]), name=name)


def network_to_dict(net: InfluenceNetwork) -> dict:
    """Inverse of network_from_dict; edge list sorted for determinism."""
    out = {
        "n": int(net.n),
        "T": float(net.T),
        "x0": [float(v) for v in net.x0],
        "k": [float(v) for v in net.k],
        "edges": [
            {"from": int(i) + 1, "to": int(j) + 1, "w": float(w)}
            for (i, j), w in sorted(net.edges.items())
        ],
    }
    if net.name:
        out["name"] = net.name
    return out
