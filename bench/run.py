"""Run one benchmark workload in this fresh process and print its metrics.

    python3 bench/run.py --workload general_ladder --seed 1 --seconds 40 --trace 0

--trace 0 repeats the workload's pass, always whole, while the next pass is
expected to end within --seconds, and reports the end-to-end metrics named
in BENCHMARK.json, its times scaled to a nominal machine speed (see
Calibration).
--trace 1 runs one pass with every op once untraced and once traced, and
reports the per-layer metrics; it ignores --seconds so that call counts
repeat exactly.  Every op is timed alone and checked afterwards, outside its timed
interval.  The lines before the last give provenance and any failures; the
last line is the JSON result.  Run it from a checkout: it imports the
package from src/ and writes only under .bench_work/, which it removes.
"""

import os

# Pinned before numpy loads; recorded in the provenance line.
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 9
CLI_KINDS = ("simulate", "verify", "limits")

# Calibration.  On a shared host the speed of the whole machine drifts, by
# up to a factor of two in phases of seconds to minutes, and every op of a
# run moves with it, though not all code alike: interpreted and small LAPACK
# code moves most, and products with matrices too large for the core's own
# caches, as in the verifier, move about half as much.  A fixed kernel with
# both kinds of work, the program's own mix, is timed before every timed op
# and set-up sample.  Each of these is scaled by CAL_NOMINAL_S over the
# median kernel time of the CAL_WINDOW samples on either side of it, so the
# end-to-end times read as milliseconds at the speed at which the kernel
# takes CAL_NOMINAL_S (its median on a 2-vCPU Intel Xeon at 2.1 GHz).  The
# kernel never calls the program, so a faster program still reads faster.
CAL_NOMINAL_S = 5.5e-3
CAL_WINDOW = 3
_CAL_RNG = np.random.default_rng(0)
_CAL_EXPM = _CAL_RNG.standard_normal((40, 40)) / 10
_CAL_SOLVE = _CAL_RNG.standard_normal((80, 80)) + 80 * np.eye(80)
_CAL_RHS = _CAL_RNG.standard_normal(80)
_CAL_GEMV = _CAL_RNG.standard_normal((501, 501))  # 2 MB, as the verifier's at m=501
_CAL_VEC = _CAL_RNG.standard_normal(501)


@dataclass
class Record:
    op: object
    outcome: str    # "solved", "refused" (expected typed solver error) or "failed"
    seconds: float
    note: str

    @property
    def latency(self):
        """Seconds to a checked solution; an op without one never arrives."""
        return self.seconds if self.outcome == "solved" else math.inf


def execute(op, tracer=None, op_id=0):
    import workloads
    scope = tracer.op(op_id, op.kind) if tracer else contextlib.nullcontext()
    # Each CLI call starts in a fresh process, so no op should pay for
    # collecting the garbage of the ops before it.
    gc.collect()
    start = time.perf_counter()
    try:
        with scope:
            result = op.call()
    except Exception as exc:  # any error but an expected refusal breaks the contract
        refused = op.may_refuse and type(exc) in workloads.REFUSALS
        return Record(op, "refused" if refused else "failed",
                      time.perf_counter() - start, repr(exc))
    seconds = time.perf_counter() - start
    try:
        op.check(result)
    except Exception as exc:  # CheckFailed, or output the gate cannot even parse
        return Record(op, "failed", seconds, repr(exc))
    return Record(op, "solved", seconds, "")


def percentile(values, q):
    """Linear-interpolated quantile that lets +inf through without NaN."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    if lo + 1 == len(xs) or pos == lo:
        return xs[lo]
    a, b = xs[lo], xs[lo + 1]
    return b if math.isinf(b) else a + (b - a) * (pos - lo)


def time_setup():
    """Seconds from spawning a fresh interpreter to `import opiniongame.cli`
    returning, which every CLI call pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import time, opiniongame.cli; print(repr(time.perf_counter()))"
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return float(out.split()[-1]) - start


def kernel_seconds():
    """Wall time of one run of the calibration kernel."""
    start = time.perf_counter()
    for _ in range(5):
        scipy.linalg.expm(_CAL_EXPM)
    for _ in range(10):
        np.linalg.solve(_CAL_SOLVE, _CAL_RHS)
    total = 0.0
    for i in range(15000):
        total += i * 0.5
    for _ in range(40):
        _CAL_GEMV @ _CAL_VEC
    return time.perf_counter() - start


class Calibration:
    """Kernel times taken through a run, and the scale they give each sample."""

    def __init__(self):
        for _ in range(20):  # first-call costs of expm and the allocator
            kernel_seconds()
        self.kernel = []

    def mark(self):
        """Time the kernel just before a sample; the index names the sample."""
        self.kernel.append(kernel_seconds())
        return len(self.kernel) - 1

    def scale(self, i):
        local = self.kernel[max(0, i - CAL_WINDOW + 1):i + CAL_WINDOW + 1]
        return CAL_NOMINAL_S / statistics.median(local)


def end_to_end(records):
    # The percentiles run over the ops of a pass, each at its median over the
    # passes, so that they do not hang on single samples.
    by_op = {}
    for r in records:
        if r.op.main:
            by_op.setdefault(id(r.op), []).append(r.latency)
    main = [statistics.median(lat) for lat in by_op.values()]
    metrics = {"op_p50_ms": 1e3 * percentile(main, 0.5),
               "op_p75_ms": 1e3 * percentile(main, 0.75)}
    # The median of each distinct command line, then the mean over the lines
    # of one command: presets cost very different amounts, and repeats of the
    # cheap lines must not change the mix.
    for kind in CLI_KINDS:
        by_line = {}
        for r in records:
            if r.op.kind == kind:
                by_line.setdefault(r.op.label, []).append(r.latency)
        metrics[f"cmd.{kind}_ms"] = 1e3 * statistics.fmean(
            statistics.median(lat) for lat in by_line.values())
    metrics["solved_share"] = sum(r.outcome == "solved" for r in records) / len(records)
    return metrics


def run_untraced(ops, seconds):
    """Repeat the pass, always whole and at least once, while the next pass
    is expected to end within `seconds`.  Stopping on that forecast, rather
    than at the first pass to end after `seconds`, keeps the number of
    passes from flipping between runs when a pass ends near `seconds`.  The
    set-up samples are taken between ops at even intervals of the run, so
    that they see the same drift of machine speed as the ops do.  Returns
    the records and metrics at the nominal speed, and the metrics as timed."""
    cal = Calibration()
    records, setup = [], []   # (calibration index, sample)
    start, passes = time.perf_counter(), 0
    while True:
        pass_start, setup_wall = time.perf_counter(), 0.0
        passes += 1
        for op in ops:
            if (len(setup) < SETUP_REPS
                    and time.perf_counter() - start >= len(setup) * seconds / SETUP_REPS):
                setup_start = time.perf_counter()
                setup.append((cal.mark(), time_setup()))
                setup_wall += time.perf_counter() - setup_start
            records.append((cal.mark(), execute(op)))
        now = time.perf_counter()
        # Most set-up samples fall in the first pass; the forecast of the
        # next pass leaves them out.
        if (now - start) + (now - pass_start - setup_wall) > seconds:
            break
    while len(setup) < SETUP_REPS:
        setup.append((cal.mark(), time_setup()))
    cal.mark()  # the kernel sample after the last one
    raw = end_to_end([r for _, r in records])
    raw["setup_s"] = statistics.median(s for _, s in setup)
    scaled = [replace(r, seconds=r.seconds * cal.scale(i)) for i, r in records]
    metrics = end_to_end(scaled)
    metrics["setup_s"] = statistics.median(s * cal.scale(i) for i, s in setup)
    raw["calibration_kernel_ms"] = 1e3 * statistics.median(cal.kernel)
    raw["passes"] = passes
    raw["run_s"] = time.perf_counter() - start
    return scaled, metrics, raw


def run_traced(ops):
    import tracing
    tracer = tracing.Tracer()
    plain, traced = [], []
    for i, op in enumerate(ops):
        # Each op runs once with the wrappers removed and once with them
        # installed; the order alternates so warm-up favours neither side.
        for first in (i % 2, 1 - i % 2):
            if first:
                with tracer:
                    traced.append(execute(op, tracer, i))
            else:
                plain.append(execute(op))
    metrics = tracer.layer_metrics()
    diffs = [t.seconds - p.seconds for p, t in zip(plain, traced)
             if p.outcome == t.outcome == "solved"]
    metrics["trace.overhead_ms"] = 1e3 * statistics.median(diffs)
    return plain + traced, metrics


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    try:
        # The ceiling stops git from reporting an enclosing repository.
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"  # not a git checkout


def provenance(args):
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "cpu": _cpu_model(), "blas_threads": BLAS_PIN,
            "commit": _git_commit()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "opiniongame" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'opiniongame'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    print("provenance: " + json.dumps(provenance(args)), flush=True)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        ops = workloads.build(args.workload, args.seed, work)
        # The collection before each op then scans only what ops allocated.
        gc.freeze()
        if args.trace:
            records, metrics = run_traced(ops)
        else:
            records, metrics, raw = run_untraced(ops, args.seconds)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print("as timed, before calibration: " + json.dumps(raw))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in records if r.outcome == "failed"]
    for r in records:
        if r.outcome != "solved":
            print(f"{r.outcome}: {r.op.label}: {r.note}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
