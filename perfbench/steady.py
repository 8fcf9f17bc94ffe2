"""Steadiness check: two interleaved sets of runs of the same code.

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...] [--out FILE]

For every workload, run i of set A and run i of set B both use seed i + 1
and follow each other (A B A B ...), each through ``run.py`` exactly as the
benchmark is run, with ``run_seconds`` from ``BENCHMARK.json``.  For every
end-to-end metric the command prints each set's median, quartiles and
spread (interquartile range over median) across its seeds, against the
metric's bound in ``BENCHMARK.json``; how much B's median differs from
A's; the same-seed spread (interquartile range of the per-seed ratios
B/A), which leaves out the differences between seeds and shows the noise
of the runs alone; and each set's share of failed operations.  A metric
passes when both spreads across seeds stay within the bound and B's
median differs from A's, either way, by no more than the bound.  Exits
non-zero if any metric fails, any run is incorrect, or the failed shares
differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def same_seed_spread(first: list[float], second: list[float]) -> float:
    """Interquartile range of the per-seed ratios ``second / first``."""
    q1, _, q3 = statistics.quantiles([b / a for a, b in zip(first, second)], n=4)
    return q3 - q1


def report(workload: str, runs: dict[str, list[dict]], bench: dict) -> bool:
    ok = True
    print(f"\n{workload}")
    for name in ("A", "B"):
        attempted = sum(r["attempted"] for r in runs[name])
        failed = sum(r["failed"] for r in runs[name])
        correct = all(r["correct"] for r in runs[name])
        ok &= correct
        print(f"  set {name}: failed {failed}/{attempted} "
              f"({failed / attempted:.6f}), all correct: {correct}")
    shares = {
        name: [r["failed"] / r["attempted"] for r in runs[name]] for name in runs
    }
    ok &= len(set(shares["A"] + shares["B"])) == 1
    print(f"  {'metric':<16}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}{'B worse':>9}{'same-seed':>10}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = {
            s: [r["metrics"][name]["value"] for r in runs[s]] for s in ("A", "B")
        }
        stats = {s: summarize(values[s]) for s in ("A", "B")}
        drift = worse_by(stats["A"]["median"], stats["B"]["median"], metric["better"])
        noise = same_seed_spread(values["A"], values["B"])
        bound = metric["bound"]
        passed = abs(drift) <= bound and (
            max(stats["A"]["spread"], stats["B"]["spread"]) <= bound
        )
        ok &= passed
        for s in ("A", "B"):
            st = stats[s]
            tail = (
                f"{drift:>+9.3f}{noise:>10.3f} {'ok' if passed else 'FAIL'}"
                if s == "B" else ""
            )
            print(f"  {name if s == 'A' else '':<16}{s:>4}{st['median']:>12.5g}"
                  f"{st['q1']:>12.5g}{st['q3']:>12.5g}{st['spread']:>9.3f}"
                  f"{bound:>8.2f}{tail}")
    return ok


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", type=Path, help="write every run's result here")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")
    ok = True
    everything = {}
    for workload in args.workload or names:
        runs: dict[str, list[dict]] = {"A": [], "B": []}
        for i in range(args.runs):
            for name in ("A", "B"):
                runs[name].append(one_run(workload, i + 1, bench["run_seconds"]))
                print(".", end="", flush=True, file=sys.stderr)
        everything[workload] = runs
        ok &= report(workload, runs, bench)
    if args.out is not None:
        args.out.write_text(json.dumps(everything, indent=1))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
