"""Command-line front end: scenario I/O, named presets, solver and verifier
orchestration, CSV trajectories and gnuplot scripts.

Exit codes: 0 success, 1 verification failed, 2 input error (running out of
memory included), 3 solver error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import types
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analytic
from .network import (CompleteUniform, InfluenceNetwork, SingleLeader,
                      classify_topology, network_from_dict, network_to_dict,
                      validate)
from .solver import EquilibriumTrajectory, _lifted, solve_equilibrium
from .verify import _certificate, evaluate_cost, stationarity_check

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3

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
            worst = max(self.stationarity,
                        key=lambda r: (not r.passed, r.costate_residual))
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
FIGURE_NAMES = list(PRESETS)


class CliInputError(ValueError):
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
    text = json.dumps(network_to_dict(net), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")  # no partial file on error


def _resolve_network(args) -> InfluenceNetwork:
    if args.preset and args.scenario:
        raise CliInputError("give either --scenario or --preset, not both")
    if args.preset:
        return get_preset(args.preset).network
    if args.scenario:
        return load_scenario(args.scenario)
    raise CliInputError("need --scenario PATH or --preset NAME")


# most cells in a block of write_trajectory_csv, whose blocks are whole rows:
# a block's 48-byte slots (203 kB) stay in cache, and 201 rows of ten agents
# with costates (4,221 cells) stay in one block
_CSV_BLOCK = 4224
# |v| in [_FAST_MIN, _FAST_MAX) keeps every product and Dekker split of
# _format_cells in the normal range: 10^(16-d) <= 1e298, its low part >= 1e-282
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# the decimal exponents d of that range, with one to spare either side
_D_LO, _D_HI = -282, 282
# distance from a rounding tie, in units of the 17th digit, below which a
# cell falls back to '%.17g' (the error bound is derived in _format_cells)
_TIE_MARGIN = 1e-6
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter for doubles


def _word(text, at=0):
    """text placed at byte `at` of a little-endian 64-bit word."""
    return int.from_bytes(text, "little") << 8 * at


@functools.cache
def _format_tables():
    """The lookups of _format_cells, built on first use.

    Per decimal exponent d in [_D_LO, _D_HI], at row d - _D_LO: hi =
    fl(10^(16-d)), its Dekker halves hi_hi and hi_lo, and lo = fl(10^(16-d)
    - hi) from exact integer arithmetic, so hi + lo is within 2^-106 of
    10^(16-d); and, for d as the exponent after rounding, the "0.000"
    `prefix` word, the digit the `point` follows and the `exp` word.  Per
    4-digit group g: `digits`[g], the word of its ASCII digits at the even
    bytes, and `last`[t, g], the index of its last nonzero digit as group t
    after the leading digit (0 for none).  `keep`[t, j]: the bytes of digits
    1..j in word t.  `first`[10 sign + leading digit]: the first word."""
    hi, lo, prefix, point, exp = [], [], [], [], []
    for d in range(_D_LO, _D_HI + 1):
        k = 16 - d
        if k >= 0:
            p = 10 ** k
            h = float(p)
            rest = float(p - int(h))
        else:
            q = 10 ** -k
            h = 1 / q
            num, den = h.as_integer_ratio()
            rest = (den - num * q) / (den * q)
        hi.append(h)
        lo.append(rest)
        fixed = -4 <= d < 17
        prefix.append(_word(b"0.000"[:1 - d], 1) if fixed and d < 0 else 0)
        point.append(d if fixed else 0)
        exp.append(0 if fixed else _word(b"e%+03d" % d))
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    # a group is two pairs of digits: g = 100 high + low
    pair = np.arange(100)
    pair_word = (48 + pair // 10) | (48 + pair % 10) << 16
    digits = (pair_word[:, None] | pair_word << 32).astype(np.uint64).ravel()
    pair_last = np.where(pair % 10 > 0, 2, np.where(pair > 0, 1, 0))
    last = np.where(pair > 0, 2 + pair_last, pair_last[:, None]).ravel()
    last = np.where(last > 0, last + np.arange(0, 16, 4)[:, None], 0)
    kept = np.arange(16) < np.arange(17)[:, None]
    digit_bytes = np.array([0xFF << 16 * s for s in range(4)], np.uint64)
    keep = (kept.reshape(17, 4, 4) * digit_bytes).sum(axis=2, dtype=np.uint64)
    first = [_word(b"-" * sign) | _word(b"%d" % lead, 6)
             for sign in (0, 1) for lead in range(10)]
    return types.SimpleNamespace(
        hi=hi, hi_hi=hi_hi, hi_lo=hi - hi_hi, lo=np.array(lo),
        prefix=np.array(prefix, np.uint64), point=np.array(point),
        exp=np.array(exp, np.uint64), digits=digits, last=last.astype(np.int8),
        keep=np.ascontiguousarray(keep.T), first=np.array(first, np.uint64))


def _scaled(a, d, tables):
    """a 10^(16-d) as y + r: y = fl(a hi), and r is the rounding error of y
    (Dekker's TwoProduct, exact) plus fl(a lo).  Also n = y + rint(r)."""
    i = d - _D_LO
    y = a * tables.hi[i]
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    h, l = tables.hi_hi[i], tables.hi_lo[i]
    r = ((ah * h - y) + ah * l + al * h) + al * l + a * tables.lo[i]
    return y, r, y.astype(np.int64) + np.rint(r).astype(np.int64)


def _format_cells(v, ends, slot):
    """The bytes of '%.17g' % x for each x in v, each followed by a newline
    where `ends` is set and by a comma elsewhere.

    A cell fills a row of `slot`, six little-endian words: the sign, the
    "0.000" prefix and the leading digit with its point; four words of 4
    digits, each digit followed by a point or a zero byte; the exponent and
    the separator.  The bytes a cell does not use stay zero and are dropped.
    One scaling by 10^(16-d), d = floor(log10 |x|), gives the 17 digits;
    the cells it cannot decide are written by '%.17g' itself."""
    tables = _format_tables()
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
    zero = a == 0
    a = np.where(fast, a, 1.0)          # zero and slow cells are redone below
    d = np.floor(np.log10(a)).astype(np.intp)
    y, r, n = _scaled(a, d, tables)
    # a nonzero cell whose 17 digits n are not strictly inside (10^16,
    # 10^17) falls back: log10 missed by one next to a power of ten, the
    # rounding carried to 10^17, or the value rounds to a power of ten
    slow = ~zero & (~fast | (n <= 10**16) | (n >= 10**17))
    # Error bound, in units of the 17th digit.  A cell left has n < 10^17,
    # so a 10^(16-d) <= 1.1e17 and y + r is within 5.1e-15 of it:
    # the TwoProduct part of r is exact; hi + lo is within 2^-106 of
    # 10^(16-d), which moves the product by at most 2^-106 * 1.1e17 <
    # 1.4e-15; fl(a lo) is off by at most 2^-53 |a lo| <= 2^-106 * 1.1e17 <
    # 1.4e-15; and the last sum in r by 2^-53 (8 + 12.3) < 2.3e-15, as
    # TwoProduct's error is at most ulp(y) / 2 = 8.  So rint(r) rounds the
    # exact value as '%.17g' does unless r lies within _TIE_MARGIN (1e-6,
    # far above 5.1e-15) of a tie; such cells fall back.
    slow |= np.abs(np.abs(r - np.rint(r)) - 0.5) < _TIE_MARGIN
    n[slow | zero] = 0                  # keeps the digit lookups in range
    x = d - _D_LO                       # row of the exponent
    high = n // 10**8
    lead = high // 10**8
    groups = []
    for eight in (high - lead * 10**8, n - high * 10**8):
        four = eight // 10**4
        groups += [four, eight - four * 10**4]
    slot = slot[:len(v)]
    slot[:, 0] = tables.prefix[x] | tables.first[np.signbit(v) * 10 + lead]
    last = np.zeros(len(v), np.int8)
    for t, group in enumerate(groups):
        slot[:, 1 + t] = tables.digits[group]
        np.maximum(last, tables.last[t][group], out=last)
    point = tables.point[x]             # the point follows digit `point`
    keep = np.maximum(last, point)
    for t in range(4):
        slot[:, 1 + t] &= tables.keep[t][keep]
    slot[:, 5] = tables.exp[x] | np.where(ends, np.uint64(_word(b"\n", 5)),
                                          np.uint64(_word(b",", 5)))
    flat = slot.view(np.uint8).ravel()
    dot = np.flatnonzero((last > point) & (point >= 0))
    flat[48 * dot + 7 + 2 * point[dot]] = ord(".")
    for i in np.flatnonzero(slow):
        text = b"%.17g" % v[i]
        flat[48 * i:48 * i + 45] = 0
        flat[48 * i:48 * i + len(text)] = np.frombuffer(text, np.uint8)
    return flat.tobytes().translate(None, b"\0")


def write_trajectory_csv(path, traj: EquilibriumTrajectory, costate=False):
    """t,x1,...,xn rows, with p1,...,pn appended when `costate` is set.

    Every value is written exactly as '%.17g' % v writes it.  Equal blocks
    of whole rows, at most _CSV_BLOCK cells or one row each, are taken from
    grid, x and p and formatted at once into one slot buffer per file, so
    the writer holds one block's memory, not the table's; only the cells the
    formatter cannot decide call '%.17g' one at a time: infinities and NaN,
    magnitudes outside [1e-280, 1e280), values whose 17 rounded digits are
    not strictly inside (10^16, 10^17) after the one scaling (powers of ten
    and their neighbours), and values within 1e-6 units of the 17th digit of
    a rounding tie."""
    n, m = traj.n, len(traj.grid)
    header = ["t"] + [f"x{i + 1}" for i in range(n)]
    if costate:
        header += [f"p{i + 1}" for i in range(n)]
    cols = len(header)
    blocks = -(-m // max(1, _CSV_BLOCK // cols))
    rows = -(-m // blocks) if m else 1  # rows per block, the last may have fewer
    ends = np.arange(1, rows * cols + 1) % cols == 0
    slot = np.empty((rows * cols, 6), "<u8")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, m, rows):
            block = slice(start, start + rows)
            table = [traj.grid[block, None], traj.x[block]]
            if costate:
                table.append(traj.p[block])
            cells = np.hstack(table).ravel()
            fh.write(_format_cells(cells, ends[:len(cells)], slot))


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
    family = classify_topology(net)
    if isinstance(family, CompleteUniform):
        ref = analytic.complete_trajectory(family, net.x0, traj.grid)
    elif isinstance(family, SingleLeader):
        ref = analytic.leader_trajectory(family, net.x0, traj.grid)
    else:
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
    return EquilibriumTrajectory(grid=grid, x=x, p=np.zeros_like(x))


def cmd_verify(net: InfluenceNetwork, m: int, count: int, seed: int,
               candidate=None) -> RunReport:
    _check_samples(m)
    if count < 1:
        raise CliInputError(f"--count must be >= 1, got {count}")
    if seed < 0:
        raise CliInputError(f"--seed must be >= 0, got {seed}")
    # certification tolerance tied to h^2; 1e-6 at the default grid
    # (m = 501 over T = 5)
    h = net.T / (m - 1)
    residual_tol = 0.01 * h * h
    if candidate == "constant":
        traj = constant_candidate(net, m)
    else:
        traj = solve_equilibrium(net, m)
    residual, deviations = _certificate(net, traj, count, seed)
    reports = stationarity_check(net, traj)
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
    """Long-run limits of any network; eps-consensus times and distance
    ratios of the two closed-form families."""
    params = classify_topology(net)
    lines = [f"scenario: {net.name or 'scenario'}"]
    if isinstance(params, CompleteUniform):
        limit = analytic.complete_limit(params, net.x0)
        lines.append("long-run limits: " + " ".join(f"{v:.6f}" for v in limit))
        gamma_T, times = analytic.consensus_times(params, net.x0, eps_list)
        lines.append(f"terminal distance ratio gamma(T): {gamma_T[0]:.6e}")
        ratio = analytic.shrink(params.lambda1, params.k, params.n * params.w, params.T)
        lines.append(f"long-run distance ratio k/lambda1: {ratio:.6e}")
        for eps, (t,) in zip(eps_list, times):
            lines.append(f"eps={eps:g}: consensus time "
                         + (f"{t:.6f}" if t is not None else "not reached"))
    elif isinstance(params, SingleLeader):
        limit = analytic.leader_limit(params, net.x0)
        lines.append("long-run limits: " + " ".join(f"{v:.6f}" for v in limit))
        ratios = analytic.shrink(params.lam[1:], params.k[1:], params.w1[1:], params.T)
        for i, ratio in enumerate(ratios, 2):
            lines.append(f"agent {i}: long-run distance ratio to leader {ratio:.6e}")
        for eps, times in zip(eps_list, analytic.consensus_times(params, net.x0, eps_list)[1]):
            txt = " ".join("never" if t is None else f"{t:.4f}" for t in times)
            lines.append(f"eps={eps:g}: per-follower times to leader: {txt}")
    else:
        lines.append("long-run limits: " + " ".join(f"{v:.6f}" for v in _lifted(net)[1]))
    return "\n".join(lines)


def cmd_figures(which, out_dir, m=501):
    """Write trajectory CSVs plus gnuplot scripts for the named presets."""
    if which == "all":
        names = list(FIGURE_NAMES)
    elif which in FIGURE_NAMES:
        names = [which]
    else:
        raise CliInputError(f"unknown figure id {which!r}; "
                            f"choose from {FIGURE_NAMES + ['all']}")
    if m < 2:
        raise CliInputError(f"--samples must be >= 2, got {m}")
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


@functools.cache
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
        # the parser admits one command more: figures
        for path in cmd_figures(args.which, args.out, m=args.samples):
            print(path)
        return EXIT_OK
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError:
        # verify's probe buffers grow with --count as well
        hint = "--samples or --count" if args.command == "verify" else "--samples"
        print(f"error: not enough memory for this run; try a smaller {hint}",
              file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        # scenario reads raise CliInputError, so this is an output path
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:  # CliInputError included, LinAlgError caught above
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
