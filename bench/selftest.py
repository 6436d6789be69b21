"""Smoke-size self-test of the benchmark harness (about half a minute).

    python3 bench/selftest.py

Checks the instance families on two seeds, that the gate rejects wrong
output and counts a typed refusal as failed except on the stiff members,
that the tracer counts calls and self time exactly and restores the
package, that the calibration scales each sample by its local kernel
time, and that run.py prints the metrics BENCHMARK.json names, and fails
without printing a result when the package source is missing.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from opiniongame import cli, linalg, solver  # noqa: E402

WORK = ROOT / ".bench_work" / "selftest"


def bench_run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


class Harness(unittest.TestCase):
    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def test_families_hold_on_two_seeds(self):
        for seed in (0, 1):
            for name in workloads.WORKLOADS:
                ops = workloads.build(name, seed, WORK / f"{name}-{seed}")
                self.assertTrue(ops)  # build raises FamilyError otherwise

    def test_gate_rejects_wrong_output(self):
        preset = cli.PRESETS["fig2b"].network
        general = workloads.directed_net(np.random.default_rng(0), 6, 2)
        cases = (
            (preset, lambda t: (np.vstack([t.x[:1], t.x[1:] + 1e-6]), t.p)),  # closed form
            (general, lambda t: (t.x + 1e-6, t.p)),                           # x(0)
            (general, lambda t: (t.x, t.p + 1e-4)),                           # p(T)
            (preset, lambda t: (t.x, 1.05 * t.p)),                            # stationarity
            (general, lambda t: (t.x, 1.05 * t.p)),
        )
        for net, corrupt in cases:
            op = workloads._solve_op(net, 101)
            traj = op.call()
            op.check(traj)
            x, p = corrupt(traj)
            with self.assertRaises(workloads.CheckFailed):
                op.check(solver.EquilibriumTrajectory(grid=traj.grid, x=x, p=p, u=-p))

    def test_refusal_only_where_expected(self):
        stiff = workloads.directed_net(np.random.default_rng(0), 30, 50)
        self.assertEqual(run.execute(workloads._solve_op(stiff, 11, may_refuse=True)).outcome,
                         "refused")
        self.assertEqual(run.execute(workloads._solve_op(stiff, 11)).outcome, "failed")
        # A refusal on a preset solve, or a CLI exit 3, breaks the gate.
        fig3c = cli.PRESETS["fig3c"].network
        forced = replace(workloads._solve_op(fig3c, 11),
                         call=lambda: solver.solve_equilibrium(fig3c, 11, route="general"))
        self.assertEqual(run.execute(forced).outcome, "failed")
        WORK.mkdir(parents=True, exist_ok=True)
        source = workloads._scenario(stiff, WORK / "stiff.json")
        self.assertEqual(run.execute(workloads._simulate_op(stiff, source, 11, WORK, False))
                         .outcome, "failed")
        wrong = workloads._verify_op("fig1b", ["--candidate", "constant", "--samples", "101"],
                                     cli.EXIT_OK)
        self.assertEqual(run.execute(wrong).outcome, "failed")
        record = run.execute(wrong)
        self.assertTrue(math.isinf(record.latency))

    def test_tracer_counts_and_restores(self):
        net = workloads.directed_net(np.random.default_rng(1), 5, 1)
        m = 21
        original = linalg.exp_with_integral
        with tracing.Tracer() as tracer:
            self.assertIsNot(solver.exp_with_integral, original)
            with tracer.op(0, "solve"):
                solver.solve_equilibrium(net, m)
            solver.solve_equilibrium(net, m)  # outside an op: not recorded
        self.assertIs(solver.exp_with_integral, original)
        self.assertIs(linalg.exp_with_integral, original)
        metrics = tracer.layer_metrics()
        self.assertEqual(metrics["linalg.exp_with_integral.calls"], m + 1)
        self.assertEqual(metrics["solver.transition_blocks.calls"], m + 1)
        self.assertEqual(metrics["linalg.solve_linear.calls"], 1)
        self.assertEqual(metrics["solver.general_route_share"], 1.0)
        root = tracer.spans[0]
        self_total = sum(s for _, s in tracer.totals().values())
        self.assertAlmostEqual(self_total, root.end - root.start, places=9)

    def test_percentile_keeps_inf(self):
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 0.5), 2.0)
        self.assertTrue(math.isinf(run.percentile([1.0, 2.0, math.inf], 0.9)))
        self.assertEqual(run.percentile([1.0, math.inf, math.inf], 0.0), 1.0)

    def test_calibration_scales_by_local_kernel(self):
        cal = run.Calibration()
        cal.kernel = [2e-3, 4e-3, 8e-3, 8e-3, 8e-3, 8e-3, 8e-3, 8e-3]
        # Sample i sees the kernel samples i-2 .. i+3 that exist.
        self.assertAlmostEqual(cal.scale(0), run.CAL_NOMINAL_S / 6e-3)
        self.assertAlmostEqual(cal.scale(7), run.CAL_NOMINAL_S / 8e-3)

    def test_run_prints_every_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench_run(ROOT, "spectral_ladder", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(list(result["metrics"]), [m["name"] for m in spec[key]])

    def test_fails_without_source(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench_run(bare, "cli_presets", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
