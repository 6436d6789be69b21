"""Command-line front end: scenario I/O, named presets, solver and verifier
orchestration, CSV trajectories and gnuplot scripts.

Exit codes: 0 success, 1 verification failed, 2 input error, 3 solver error,
4 unsupported operation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analytic
from .linalg import SingularMatrixError
from .network import (CompleteUniform, InfluenceNetwork, SingleLeader,
                      build_matrices, classify_topology, network_from_dict,
                      network_to_dict, validate)
from .solver import EquilibriumTrajectory, solve_equilibrium
from .verify import (deviation_test, evaluate_cost, nash_residual,
                     stationarity_check)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_UNSUPPORTED = 4

_X0_LADDER = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95]


@dataclass(frozen=True)
class ScenarioPreset:
    name: str
    network: InfluenceNetwork
    note: str


@dataclass
class RunReport:
    scenario: str
    samples: int
    trajectory_path: str = ""
    costs: list = field(default_factory=list)
    residual: float = None
    stationarity: list = field(default_factory=list)
    terminal: np.ndarray = None
    closed_form_error: float = None
    deviations: list = field(default_factory=list)
    passed: bool = None

    def render(self) -> str:
        lines = [f"scenario: {self.scenario}", f"samples: {self.samples}"]
        if self.trajectory_path:
            lines.append(f"trajectory: {self.trajectory_path}")
        if self.terminal is not None:
            lines.append("terminal opinions: "
                         + " ".join(f"{v:.6f}" for v in self.terminal))
        if self.closed_form_error is not None:
            lines.append(f"closed-form deviation: {self.closed_form_error:.3e}")
        if self.costs:
            lines.append("agent costs (influence + stubbornness + control = total):")
            for c in self.costs:
                lines.append(f"  agent {c.agent + 1}: {c.influence_term:.6g} + "
                             f"{c.stubbornness_term:.6g} + {c.control_term:.6g}"
                             f" = {c.total:.6g}")
        if self.residual is not None:
            lines.append(f"nash residual: {self.residual:.3e}")
        if self.stationarity:
            worst = max(self.stationarity, key=lambda r: r.costate_residual)
            lines.append(
                "stationarity: "
                + ("all within tolerance" if all(r.passed for r in self.stationarity)
                   else "VIOLATED")
                + f" (worst costate residual {worst.costate_residual:.3e},"
                  f" tol {worst.costate_tol:.3e})")
        if self.deviations:
            worst = max(g for _, g in self.deviations)
            ok = all(p for p, _ in self.deviations)
            lines.append(f"deviation probes: {'pass' if ok else 'FAIL'}"
                         f" (worst gain {worst:.3e})")
        if self.passed is not None:
            lines.append("verdict: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _complete_uniform_net(w, k, name):
    edges = {(i, j): float(w) for i in range(10) for j in range(10) if i != j}
    return InfluenceNetwork(n=10, edges=edges, k=np.full(10, float(k)),
                            x0=np.array(_X0_LADDER), T=5.0, name=name)


def _leader_net(w, k, name):
    edges = {(i, 0): float(w) for i in range(1, 10)}
    return InfluenceNetwork(n=10, edges=edges, k=np.full(10, float(k)),
                            x0=np.array(_X0_LADDER), T=5.0, name=name)


def _two_leader_net(own1, cross_f1_to_f10, name):
    """Two camps: leaders 1 and 10 never listen; followers 2-5 back leader 1,
    followers 6-9 back leader 10, with weak cross-listening."""
    f1, f10 = [1, 2, 3, 4], [5, 6, 7, 8]
    edges = {}
    for i in f1:
        edges[(i, 0)] = float(own1)
        edges[(i, 9)] = 0.1
        for j in f1:
            if j != i:
                edges[(i, j)] = 2.0
        for j in f10:
            edges[(i, j)] = 0.2
    for i in f10:
        edges[(i, 9)] = 10.0
        edges[(i, 0)] = 0.1
        for j in f10:
            if j != i:
                edges[(i, j)] = 2.0
        for j in f1:
            edges[(i, j)] = float(cross_f1_to_f10)
    return InfluenceNetwork(n=10, edges=edges, k=np.full(10, 0.2),
                            x0=np.array(_X0_LADDER), T=5.0, name=name)


def _build_presets():
    presets = {}

    def add(name, net, note):
        presets[name] = ScenarioPreset(name=name, network=net, note=note)

    add("fig1b", _complete_uniform_net(2.0, 0.2, "fig1b"),
        "complete uniform network, strong coupling (w=2, k=0.2)")
    add("fig1c", _complete_uniform_net(0.4, 0.04, "fig1c"),
        "complete uniform network, weak coupling (w=0.4, k=0.04)")
    add("fig2b", _leader_net(2.0, 0.2, "fig2b"),
        "single-leader star, strong coupling (w=2, k=0.2)")
    add("fig2c", _leader_net(0.4, 0.04, "fig2c"),
        "single-leader star, weak coupling (w=0.4, k=0.04)")
    add("fig3b", _two_leader_net(10.0, 0.2, "fig3b"),
        "two rival leaders, balanced camps")
    add("fig3c", _two_leader_net(20.0, 10.0, "fig3c"),
        "two rival leaders, camp 1 campaigning hard for camp 10's followers")
    return presets


PRESETS = _build_presets()
PRESET_ALIASES = {"fig1": "fig1b", "fig1_weak": "fig1c",
                  "fig2": "fig2b", "fig2_weak": "fig2c", "fig3": "fig3b"}
FIGURE_NAMES = ["fig1b", "fig1c", "fig2b", "fig2c", "fig3b", "fig3c"]


class CliInputError(Exception):
    pass


def get_preset(name: str) -> ScenarioPreset:
    key = PRESET_ALIASES.get(name, name)
    if key not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise CliInputError(f"unknown preset {name!r}; known presets: {known}")
    return PRESETS[key]


def load_scenario(path) -> InfluenceNetwork:
    """Parse and validate a scenario file; warnings go to stderr."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(f"scenario file is not valid JSON: {exc}") from exc
    try:
        net = network_from_dict(data)
    except ValueError as exc:
        raise CliInputError(f"bad scenario: {exc}") from exc
    diags = validate(net)
    errors = [d for d in diags if d.severity == "error"]
    for d in diags:
        if d.severity == "warning":
            print(f"warning: {d.message}", file=sys.stderr)
    if errors:
        raise CliInputError("invalid scenario: " + "; ".join(d.message for d in errors))
    return net


def save_scenario(net: InfluenceNetwork, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_to_dict(net), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_network(args) -> InfluenceNetwork:
    if getattr(args, "preset", None):
        return get_preset(args.preset).network
    if getattr(args, "scenario", None):
        return load_scenario(args.scenario)
    raise CliInputError("need --scenario PATH or --preset NAME")


def write_trajectory_csv(path, traj: EquilibriumTrajectory, costate=False):
    """t,x1,...,xn rows at 17 significant digits; optional p columns."""
    n = traj.n
    header = ["t"] + [f"x{i + 1}" for i in range(n)]
    table = [traj.grid[:, None], traj.x]
    if costate:
        header += [f"p{i + 1}" for i in range(n)]
        table.append(traj.p)
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for values in np.hstack(table):
            fh.write(row % tuple(values.tolist()))


def _gnuplot_script(csv_name, n, title):
    return "\n".join([
        f"# render with: gnuplot {Path(csv_name).stem}.gp",
        "set datafile separator ','",
        "set key autotitle columnhead outside",
        "set xlabel 'time'",
        "set ylabel 'opinion'",
        f"set title '{title}'",
        f"plot for [i=2:{n + 1}] '{csv_name}' using 1:i with lines",
        "pause -1",
    ]) + "\n"


def closed_form_deviation(net: InfluenceNetwork, traj: EquilibriumTrajectory):
    """Sup-norm gap between the sampled solver output and the matching
    closed form, or None for general topologies."""
    topo = classify_topology(net)
    try:
        if isinstance(topo, CompleteUniform):
            ref = analytic.complete_trajectory(analytic.complete_params(net),
                                               net.x0, traj.grid)
        elif isinstance(topo, SingleLeader):
            ref = analytic.leader_trajectory(analytic.leader_params(net),
                                             net.x0, traj.grid)
        else:
            return None
    except ValueError:
        # degenerate parameterizations (w = k = 0) have no closed form
        return None
    return float(np.max(np.abs(ref - traj.x)))


def _check_samples(m):
    """Simpson costs need an odd count >= 3; fail before any solve or write."""
    if m < 3 or m % 2 == 0:
        raise CliInputError(f"--samples must be odd and >= 3 (Simpson quadrature), got {m}")


def cmd_simulate(net: InfluenceNetwork, m: int, out_dir, costate=False) -> RunReport:
    _check_samples(m)
    traj = solve_equilibrium(net, m)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{net.name or 'scenario'}.csv"
    write_trajectory_csv(csv_path, traj, costate=costate)
    return RunReport(
        scenario=net.name or "scenario",
        samples=m,
        trajectory_path=str(csv_path),
        costs=evaluate_cost(net, traj),
        terminal=traj.x[-1].copy(),
        closed_form_error=closed_form_deviation(net, traj),
    )


def constant_candidate(net: InfluenceNetwork, m: int) -> EquilibriumTrajectory:
    """Everyone freezes at their initial opinion; adversarial non-equilibrium
    candidate unless the network is fully decoupled."""
    grid = np.linspace(0.0, net.T, m)
    x = np.tile(net.x0, (m, 1))
    z = np.zeros_like(x)
    return EquilibriumTrajectory(grid=grid, x=x, p=z, u=z.copy())


def cmd_verify(net: InfluenceNetwork, m: int, count: int, seed: int,
               candidate=None, residual_tol=None, deviation_tol=1e-9) -> RunReport:
    _check_samples(m)
    if count < 1:
        raise CliInputError(f"--count must be >= 1, got {count}")
    if residual_tol is None:
        # certification tolerance tied to h^2; 1e-6 at the default grid
        # (m = 501 over T = 5)
        h = net.T / (m - 1)
        residual_tol = 0.01 * h * h
    if candidate == "constant":
        traj = constant_candidate(net, m)
    else:
        traj = solve_equilibrium(net, m)
    gm = build_matrices(net)
    residual = nash_residual(net, traj, gm=gm)
    reports = stationarity_check(net, traj, gm=gm)
    deviations = [deviation_test(net, traj, i, count, seed + i, tol=deviation_tol, gm=gm)
                  for i in range(traj.n)]
    passed = (residual <= residual_tol
              and all(r.passed for r in reports)
              and all(ok for ok, _ in deviations))
    return RunReport(
        scenario=net.name or "scenario",
        samples=m,
        residual=residual,
        stationarity=reports,
        deviations=deviations,
        terminal=traj.x[-1].copy(),
        passed=passed,
    )


def cmd_limits(net: InfluenceNetwork, eps_list) -> str:
    """Long-run limits, eps-consensus times and distance ratios; closed-form
    topologies only."""
    topo = classify_topology(net)
    lines = [f"scenario: {net.name or 'scenario'}"]
    if isinstance(topo, CompleteUniform):
        params = analytic.complete_params(net)
        limit = analytic.complete_limit(params, net.x0)
        lines.append("long-run limits: " + " ".join(f"{v:.6f}" for v in limit))
        lines.append(f"terminal distance ratio gamma(T): {analytic.gamma(params, params.T):.6e}")
        lines.append(f"long-run distance ratio k/lambda1: {params.k / params.lambda1:.6e}")
        for eps in eps_list:
            t = analytic.epsilon_consensus_time(params, net.x0, eps)
            lines.append(f"eps={eps:g}: consensus time "
                         + (f"{t:.6f}" if t is not None else "not reached"))
    elif isinstance(topo, SingleLeader):
        params = analytic.leader_params(net)
        limit = analytic.leader_limit(params, net.x0)
        lines.append("long-run limits: " + " ".join(f"{v:.6f}" for v in limit))
        for i in range(1, params.n):
            ratio = (params.k[i] / params.lam[i] if params.lam[i] > 0 else 1.0)
            lines.append(f"agent {i + 1}: long-run distance ratio to leader "
                         f"{ratio:.6e}")
        for eps in eps_list:
            times = [analytic.leader_consensus_time(params, i, net.x0, eps)
                     for i in range(1, params.n)]
            txt = " ".join("never" if t is None else f"{t:.4f}" for t in times)
            lines.append(f"eps={eps:g}: per-follower times to leader: {txt}")
    else:
        raise UnsupportedTopology(
            "no closed form for a general topology; use simulate with a large T")
    return "\n".join(lines)


class UnsupportedTopology(Exception):
    pass


def cmd_figures(which, out_dir, m=501):
    """Write trajectory CSVs plus gnuplot scripts for the named presets."""
    if which == "all":
        names = list(FIGURE_NAMES)
    elif which in FIGURE_NAMES:
        names = [which]
    else:
        raise CliInputError(f"unknown figure id {which!r}; "
                            f"choose from {FIGURE_NAMES + ['all']}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name in names:
        preset = PRESETS[name]
        traj = solve_equilibrium(preset.network, m)
        csv_path = out_dir / f"{name}.csv"
        write_trajectory_csv(csv_path, traj)
        gp_path = out_dir / f"{name}.gp"
        gp_path.write_text(_gnuplot_script(csv_path.name, traj.n, preset.note),
                           encoding="utf-8")
        written += [str(csv_path), str(gp_path)]
    return written


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="opiniongame",
        description="Solve, verify and tabulate open-loop Nash equilibria of "
                    "opinion games on influence networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("--scenario", help="path to a scenario JSON file")
        p.add_argument("--preset", help="named preset (fig1b, fig1c, fig2b, "
                                        "fig2c, fig3b, fig3c)")

    p_sim = sub.add_parser("simulate", help="solve and write the trajectory CSV")
    add_source(p_sim)
    p_sim.add_argument("--samples", type=int, default=501)
    p_sim.add_argument("--out", default=".")
    p_sim.add_argument("--costate", action="store_true",
                       help="append costate columns to the CSV")

    p_ver = sub.add_parser("verify", help="certify the Nash property")
    add_source(p_ver)
    p_ver.add_argument("--samples", type=int, default=501)
    p_ver.add_argument("--count", type=int, default=100,
                       help="random deviations per agent")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--candidate", choices=["constant"],
                       help="verify an adversarial candidate instead of the solver output")

    p_lim = sub.add_parser("limits", help="long-run limits and consensus times")
    add_source(p_lim)
    p_lim.add_argument("--eps", default="0.1,0.01",
                       help="comma-separated epsilon list")

    p_fig = sub.add_parser("figures", help="write preset trajectory CSVs and plot scripts")
    p_fig.add_argument("--which", required=True)
    p_fig.add_argument("--out", default=".")
    p_fig.add_argument("--samples", type=int, default=501)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            net = _resolve_network(args)
            report = cmd_simulate(net, args.samples, args.out, costate=args.costate)
            print(report.render())
            return EXIT_OK
        if args.command == "verify":
            net = _resolve_network(args)
            report = cmd_verify(net, args.samples, args.count, args.seed,
                                candidate=args.candidate)
            print(report.render())
            return EXIT_OK if report.passed else EXIT_VERIFY_FAILED
        if args.command == "limits":
            net = _resolve_network(args)
            try:
                eps_list = [float(v) for v in str(args.eps).split(",") if v.strip()]
            except ValueError as exc:
                raise CliInputError(f"bad --eps list: {exc}") from exc
            if not eps_list or not all(0 < e < math.inf for e in eps_list):
                raise CliInputError("--eps needs positive finite values")
            print(cmd_limits(net, eps_list))
            return EXIT_OK
        if args.command == "figures":
            for path in cmd_figures(args.which, args.out, m=args.samples):
                print(path)
            return EXIT_OK
        raise CliInputError(f"unknown command {args.command!r}")
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UnsupportedTopology as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (SingularMatrixError, ArithmeticError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        # scenario reads raise CliInputError, so this is an output path
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
