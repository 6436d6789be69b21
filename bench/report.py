"""Run every workload untraced and traced, each in a fresh process, print
every metric by name with its unit, and exit non-zero if any run fails its
correctness gate or produces no result.

    python3 bench/report.py                       # seed 0
    python3 bench/report.py --seed 3 --out BENCH_x.json

Every workload in BENCHMARK.json runs for its run_seconds; run.py runs a
single workload.

--out writes all results and their provenance as one JSON file, for the
before/after record a performance claim needs.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    """The parsed result line and provenance of one run, or None on failure."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if not line.startswith("provenance: "):
            print(f"  {line}")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    provenance = next((json.loads(s.split(": ", 1)[1]) for s in lines
                       if s.startswith("provenance: ")), {})
    return {"provenance": provenance, **json.loads(lines[-1])}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write every result to this JSON file")
    args = parser.parse_args(argv)

    ok, results = True, {}
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"== {workload} (seed {args.seed})")
        for trace in (0, 1):
            res = run(workload, args.seed, spec["run_seconds"], trace)
            results.setdefault(workload, {})["traced" if trace else "untraced"] = res
            if res is None:
                print(f"  {'traced' if trace else 'untraced'} run produced no result")
                ok = False
                continue
            ok = ok and res["correct"]
            print(f"  {'traced' if trace else 'untraced'}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                print(f"  {name:45s} {m['value']:16.6g} {m['unit']}")
        traced = results[workload]["traced"]
        if traced is not None:
            print(f"  tracing overhead, traced minus untraced latency per op (median): "
                  f"{traced['metrics']['trace.overhead_ms']['value']:.3f} ms")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print("gate: " + ("all runs correct" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
