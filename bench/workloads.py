"""Seeded workloads: instance generation, the ops of one pass, and the
correctness gate each op must pass.

A pass is the fixed list of ops a workload repeats; the seed picks the random
networks, the pass order and the verifier's deviation seed, nothing else, so
every seed runs the same sizes.  The program only ever sees the generated
networks, scenario files and command lines.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from opiniongame import analytic, cli, network, solver, verify
from opiniongame.linalg import SingularMatrixError

# Gate tolerances.  They are stated rather than bit-exact, so a later route
# that moves the trailing digits still passes.
X0_TOL = 1e-12            # |x(0) - x0|; solver and CSV (17 digits) are exact
BOUNDARY_TOL = 1e-8       # |p(T)|, the solver's documented boundary tolerance
CLOSED_FORM_TOL = 1e-9    # sup gap to the closed form; about 1e-15 today
LIMITS_TOL = 1e-6         # `limits` prints six decimals
CLOSED_FORM_POINTS = 201  # grid points compared against the closed form
STIFF_SHARE_MAX = 0.1    # of general_ladder ops, so op_p75_ms stays finite

# The exact error types with which the solver refuses an instance it cannot
# solve.  Only an op marked may_refuse may end this way; subclasses such as
# ZeroDivisionError are never refusals.
REFUSALS = (SingularMatrixError, ArithmeticError)


class CheckFailed(Exception):
    """The op returned, but its output breaks the contract."""


class FamilyError(Exception):
    """A generated instance lacks the property that defines its family."""


@dataclass
class Op:
    kind: str      # "solve", "simulate", "verify", "limits" or "figures"
    label: str
    main: bool     # enters op_p50_ms and op_p75_ms
    call: Callable[[], object]
    check: Callable[[object], None]
    may_refuse: bool = False  # a typed refusal is expected, not a failure


# ---------------------------------------------------------------------------
# instance families


def _net(rng, mask, weights, T, name, k_low=0.0):
    n = len(mask)
    edges = {(int(i), int(j)): float(weights[i, j]) for i, j in zip(*np.nonzero(mask))}
    return network.InfluenceNetwork(n=n, edges=edges, k=rng.uniform(k_low, 0.5, n),
                                    x0=rng.uniform(0.0, 1.0, n), T=float(T), name=name)


def directed_net(rng, n, T, p=0.3, w_max=1.0, name=None):
    """Random digraph plus a directed ring of the heaviest edges, which keeps
    the spectrum complex (no real one in 1e5 draws at n=10; weaker rings
    gave about one in 3000)."""
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    w = rng.uniform(0.0, w_max, (n, n))
    ring = (np.arange(n), (np.arange(n) + 1) % n)
    mask[ring] = True
    w[ring] = rng.uniform(w_max, 1.5 * w_max, n)
    return _net(rng, mask, w, T, name or f"directed-n{n}-T{T:g}")


def symmetric_net(rng, n, T, p=0.3):
    """Undirected random graph: symmetric W, solved through eigh."""
    upper = np.triu(rng.random((n, n)) < p, 1)
    w = np.triu(rng.uniform(0.0, 1.0, (n, n)), 1)
    return _net(rng, upper | upper.T, w + w.T, T, f"symmetric-n{n}-T{T:g}")


def acyclic_net(rng, n, T, p=0.3):
    """Random DAG under a random labelling: real spectrum, solved through eig."""
    perm = rng.permutation(n)
    mask = np.tril(rng.random((n, n)) < p, -1)[np.ix_(perm, perm)]
    w = rng.uniform(0.0, 1.0, (n, n))
    return _net(rng, mask, w, T, f"acyclic-n{n}-T{T:g}", k_low=0.05)


def spectral(net):
    return solver.spectral_data(network.build_matrices(net), network.classify_topology(net))


# ---------------------------------------------------------------------------
# correctness gate


def has_closed_form(net):
    return isinstance(network.classify_topology(net),
                      (network.CompleteUniform, network.SingleLeader))


def closed_form(net, times):
    """Closed-form opinions at the given times, or None for general topologies."""
    topo = network.classify_topology(net)
    if isinstance(topo, network.CompleteUniform):
        params = analytic.complete_params(net)
        return np.array([analytic.complete_trajectory(params, net.x0, t) for t in times])
    if isinstance(topo, network.SingleLeader):
        params = analytic.leader_params(net)
        return np.array([analytic.leader_trajectory(params, net.x0, t) for t in times])
    return None


def check_solution(net, m, grid, x, p=None):
    """Shape, x(0) = x0 and |p(T)|, then the closed form where one exists and
    the verifier's first-order conditions where p is known."""
    if x.shape != (m, net.n) or grid.shape != (m,) or (p is not None and p.shape != x.shape):
        raise CheckFailed(f"trajectory shape {x.shape}, expected {(m, net.n)}")
    if not (np.all(np.isfinite(x)) and (p is None or np.all(np.isfinite(p)))):
        raise CheckFailed("non-finite trajectory")
    gap = float(np.max(np.abs(x[0] - net.x0)))
    if gap > X0_TOL:
        raise CheckFailed(f"|x(0) - x0| = {gap:.3e}")
    if p is not None and float(np.max(np.abs(p[-1]))) > BOUNDARY_TOL:
        raise CheckFailed(f"|p(T)| = {float(np.max(np.abs(p[-1]))):.3e}")
    idx = np.unique(np.linspace(0, m - 1, min(m, CLOSED_FORM_POINTS)).astype(int))
    ref = closed_form(net, grid[idx])
    if ref is not None:
        gap = float(np.max(np.abs(ref - x[idx])))
        if gap > CLOSED_FORM_TOL:
            raise CheckFailed(f"closed-form gap {gap:.3e}")
    if p is not None:
        traj = solver.EquilibriumTrajectory(grid=grid, x=x, p=p, u=-p)
        bad = [r.agent + 1 for r in verify.stationarity_check(net, traj) if not r.passed]
        if bad:
            raise CheckFailed(f"stationarity violated for agents {bad}")


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _expect_exit(result, want):
    rc, _ = result
    if rc != want:
        raise CheckFailed(f"exit code {rc}, expected {want}")


def _check_csv(path, net, m, costate):
    n = net.n
    want = ["t"] + [f"x{i + 1}" for i in range(n)] + (
        [f"p{i + 1}" for i in range(n)] if costate else [])
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    if header != want:
        raise CheckFailed(f"{path.name}: header {header[:3]}..., expected {want[:3]}...")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (m, len(want)):
        raise CheckFailed(f"{path.name}: shape {data.shape}, expected {(m, len(want))}")
    check_solution(net, m, data[:, 0], data[:, 1:n + 1], data[:, n + 1:] if costate else None)


def _simulate_op(net, source, m, out_dir, costate):
    argv = ["simulate", *source, "--samples", str(m)] + (["--costate"] if costate else [])

    def check(result):
        _expect_exit(result, cli.EXIT_OK)
        _check_csv(Path(out_dir) / f"{net.name}.csv", net, m, costate)
        line = [s for s in result[1].splitlines() if s.startswith("closed-form deviation:")]
        if has_closed_form(net) != bool(line):
            raise CheckFailed("closed-form deviation line missing or unexpected")
        if line and float(line[0].split(":")[1]) > CLOSED_FORM_TOL:
            raise CheckFailed(line[0])

    return Op("simulate", " ".join(argv), True,
              lambda: _run_cli(argv + ["--out", str(out_dir)]), check)


def _verify_op(preset, extra, want):
    argv = ["verify", "--preset", preset, *extra]

    def check(result):
        _expect_exit(result, want)
        verdict = "verdict: PASS" if want == cli.EXIT_OK else "verdict: FAIL"
        if verdict not in result[1].splitlines():
            raise CheckFailed(f"{' '.join(argv)}: no '{verdict}'")

    return Op("verify", " ".join(argv), True, lambda: _run_cli(argv), check)


def _limits_op(preset):
    argv = ["limits", "--preset", preset]
    net = cli.get_preset(preset).network

    def check(result):
        _expect_exit(result, cli.EXIT_OK)
        lines = result[1].splitlines()
        got = [s for s in lines if s.startswith("long-run limits:")]
        if len(got) != 1 or sum(s.startswith("eps=") for s in lines) != 2:
            raise CheckFailed(f"{preset}: malformed limits report")
        values = np.array(got[0].split(":")[1].split(), dtype=float)
        if isinstance(network.classify_topology(net), network.CompleteUniform):
            ref = analytic.complete_limit(analytic.complete_params(net), net.x0)
        else:
            ref = analytic.leader_limit(analytic.leader_params(net), net.x0)
        if values.shape != ref.shape or np.max(np.abs(values - ref)) > LIMITS_TOL:
            raise CheckFailed(f"{preset}: long-run limits differ from the closed form")

    return Op("limits", " ".join(argv), True, lambda: _run_cli(argv), check)


def _figures_op(out_dir):
    argv = ["figures", "--which", "all", "--out", str(out_dir)]
    m = 501  # the figures default

    def check(result):
        _expect_exit(result, cli.EXIT_OK)
        if len(result[1].split()) != 2 * len(cli.FIGURE_NAMES):
            raise CheckFailed("figures did not list one CSV and one script per preset")
        for name in cli.FIGURE_NAMES:
            if not (Path(out_dir) / f"{name}.gp").is_file():
                raise CheckFailed(f"missing {name}.gp")
            _check_csv(Path(out_dir) / f"{name}.csv", cli.PRESETS[name].network, m, False)

    return Op("figures", "figures --which all", True, lambda: _run_cli(argv), check)


def _solve_op(net, m, may_refuse=False):
    return Op("solve", f"{net.name} m={m}", True,
              lambda: solver.solve_equilibrium(net, m),
              lambda traj: check_solution(net, m, traj.grid, traj.x, traj.p), may_refuse)


# ---------------------------------------------------------------------------
# workloads


def _scenario(net, path):
    cli.save_scenario(net, path)
    return ["--scenario", str(path)]


def cli_probe(rng, seed, work):
    """Small fixed CLI mix for the ladders.  It gives them their cmd.* numbers
    and keeps every traced layer above zero."""
    net = directed_net(rng, 10, 2, name="probe")
    verify = _verify_op("fig1c", ["--samples", "201", "--count", "10", "--seed", str(seed)],
                        cli.EXIT_OK)
    # Each line runs several times, so that its median rests on enough
    # samples.  Single verify times scatter most (by a quarter either way),
    # and the limits lines take only about 15 ms.
    return [
        _simulate_op(cli.PRESETS["fig2c"].network, ["--preset", "fig2c"], 201, work, False),
        verify,
        _simulate_op(net, _scenario(net, work / "probe.json"), 201, work, True),
        verify,
    ] * 2 + [_limits_op("fig1c"), _limits_op("fig2c")] * 4


def _interleave(main, extra):
    """Spread the extra ops evenly between the main ops, so that their samples
    see the same drift of machine speed as the main ops do.  The extra ops
    feed only the cmd.* medians, not the op percentiles."""
    extra = [replace(op, main=False) for op in extra]
    out = []
    for i, op in enumerate(main):
        out.append(op)
        out += extra[i * len(extra) // len(main):(i + 1) * len(extra) // len(main)]
    return out


def _ladder_pass(main, rng, seed, work, probe_rounds):
    main = [main[i] for i in rng.permutation(len(main))]
    return _interleave(main, cli_probe(rng, seed, work) * probe_rounds)


def cli_presets(rng, seed, work):
    """The user's path: every command on the six presets, one seeded scenario
    file, and the verifier's reject path beside its accept path."""
    general = directed_net(rng, 10, 2, name="scenario")
    # fig2b and fig2c spend about a second each in the leader closed form.
    sims = [_simulate_op(cli.PRESETS[name].network, ["--preset", name], 2001, work / "sim",
                         name in ("fig1b", "fig2b", "fig3b"))
            for name in ("fig2b", "fig2c", "fig1b", "fig1c", "fig3b", "fig3c")]
    sims.append(_simulate_op(general, _scenario(general, work / "scenario.json"), 2001,
                             work / "sim", True))
    limits = [_limits_op(name) for name in ("fig1b", "fig1c", "fig2b", "fig2c")]
    ops = sims + limits + [_figures_op(work / "fig")]
    ops += [_verify_op(name, ["--seed", str(seed)], cli.EXIT_OK) for name in cli.FIGURE_NAMES]
    ops.append(_verify_op("fig3b", ["--samples", "1001", "--seed", str(seed)], cli.EXIT_OK))
    ops.append(_verify_op("fig1b", ["--candidate", "constant"], cli.EXIT_VERIFY_FAILED))
    # Four extra runs of each cheap `limits` line steady its median; more
    # would crowd out the second pass, which gives every line a second sample.
    return _interleave(ops, limits * 4)


# (copies per pass, n, T, m, generator kwargs, stiff)
GENERAL_MEMBERS = (
    (14, 10, 2, 501, {}, False), (14, 10, 5, 501, {}, False),
    (2, 10, 2, 2001, {}, False), (2, 10, 5, 2001, {}, False),
    (2, 20, 2, 501, {}, False), (2, 20, 5, 501, {}, False),
    (1, 50, 2, 501, {}, False),
    # stiff minority: boundary tolerance lost, then zeta22(T) singular
    (1, 30, 5, 501, {"p": 0.45, "w_max": 2.0}, True),
    (1, 30, 50, 501, {}, True),
)


def general_ladder(rng, seed, work):
    """Random directed nets with complex spectra, so `auto` takes the general
    route; a stiff minority measures today's refusals."""
    ops, stiff = [], 0
    for copies, n, T, m, kwargs, is_stiff in GENERAL_MEMBERS:
        for _ in range(copies):
            net = directed_net(rng, n, T, **kwargs)
            if spectral(net) is not None:
                raise FamilyError(f"{net.name}: real decomposition found")
            stiff += is_stiff
            ops.append(_solve_op(net, m, may_refuse=is_stiff))
    if stiff / len(ops) >= STIFF_SHARE_MAX:
        raise FamilyError(f"stiff share {stiff / len(ops):.2f}")
    return _ladder_pass(ops, rng, seed, work, probe_rounds=6)


def spectral_ladder(rng, seed, work):
    """Symmetric nets (eigh), the presets (exact spectra and eig) and random
    DAGs (real spectrum through eig), all on the spectral route."""
    nets = [(symmetric_net(rng, n, T), m)
            for n in (10, 50, 100, 200) for T in (5, 50) for m in (501, 2001, 8001)]
    nets += [(cli.PRESETS[name].network, 8001) for name in cli.FIGURE_NAMES]
    nets += [(acyclic_net(rng, n, T), 2001) for n in (10, 20) for T in (5, 50)]
    for net, _ in nets:
        if spectral(net) is None:
            raise FamilyError(f"{net.name}: no real decomposition")
    return _ladder_pass([_solve_op(net, m) for net, m in nets], rng, seed, work,
                        probe_rounds=3)


WORKLOADS = {"cli_presets": cli_presets, "general_ladder": general_ladder,
             "spectral_ladder": spectral_ladder}


def build(name, seed, work):
    """The ops of one pass of the named workload."""
    work = Path(work)
    for sub in ("sim", "fig"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](np.random.default_rng(seed), seed, work)
