"""One benchmark run, inside the pinned process ``run.py`` starts.

Untraced (``--trace 0``): set up ``SETUP_REPEATS`` times and until
``SETUP_SECONDS`` of set-up have passed, warm up, then run
whole rounds until ``--seconds`` have passed (at least ``MIN_ROUNDS``).
Time-valued metrics are medians over those repetitions; ``gc.collect()``
runs before every timed call.

Traced (``--trace 1``): set up once under the tracer, warm up, then
alternate an untraced and a traced round until ``--seconds`` have passed.
The reported per-layer metrics are the mean of one traced round; the
untraced rounds of the same process give the tracing overhead.  Spans, the
set-up and per-round ledgers, the per-layer metrics of set-up and round,
and the overhead are written as JSON to ``--trace-dir``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from checks import CheckFailed
from tracing import Tracer, layer_metrics, ledger
from workloads import WORKLOADS

SETUP_REPEATS = 3
#: A cheap set-up repeats until this much set-up time has passed, so its
#: median rests on more samples.
SETUP_SECONDS = 3.0
MIN_ROUNDS = 3

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def timed(fn):
    gc.collect()
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


class Tally:
    """Operation counts and check records across rounds."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.records: list[dict] = []
        self.attempted = self.failed = 0
        self.correct = True

    def check(self, out: dict) -> dict | None:
        try:
            record = self.workload.check(out)
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            self.correct = False
            return None
        record["probes"] = out["probes"]
        self.records.append(record)
        self.attempted += record["attempted"]
        self.failed += record["failed"]
        return record

    def result(self, values: dict, units: dict) -> dict:
        """The result line; it must hold exactly the manifest's metrics."""
        if set(values) != set(units):
            raise SystemExit(
                f"metrics {sorted(values)} differ from the manifest's {sorted(units)}"
            )
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in values.items()
            },
        }


def untraced_run(workload, seconds: float) -> tuple[Tally, dict]:
    setup_s: list[float] = []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        setup_s.append(timed(workload.setup)[1])
    workload.prepare()
    workload.warm_up()
    tally = Tally(workload)
    run_s: list[float] = []
    deadline = time.perf_counter() + seconds
    while tally.correct and (len(run_s) < MIN_ROUNDS or time.perf_counter() < deadline):
        out, elapsed = timed(workload.run_round)
        run_s.append(elapsed)
        tally.check(out)
        del out
    values = {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(run_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if not tally.records:
        raise SystemExit("no round passed its checks")
    values.update(workload.metrics(tally.records))
    print(f"setup_s={setup_s} run_s={run_s}", file=sys.stderr)
    return tally, values


def traced_run(workload, seconds: float, trace_path: Path) -> tuple[Tally, dict]:
    setup_tracer = Tracer("setup")
    with setup_tracer.active():
        timed(workload.setup)
    workload.prepare()
    workload.warm_up()
    tally = Tally(workload)
    run_tracer = Tracer("run")
    plain_s: list[float] = []
    traced_s: list[float] = []
    probes: list[dict] = []
    deadline = time.perf_counter() + seconds
    while tally.correct and (not traced_s or time.perf_counter() < deadline):
        out, elapsed = timed(workload.run_round)
        plain_s.append(elapsed)
        tally.check(out)
        del out
        with run_tracer.active():
            out, elapsed = timed(workload.run_round)
        traced_s.append(elapsed)
        record = tally.check(out)
        del out
        if record is not None:
            probes.append(record["probes"])
    setup_ledger = ledger(setup_tracer)
    run_ledger = ledger(run_tracer, per=len(traced_s))
    mean_probes = {
        key: statistics.fmean(p.get(key, 0.0) for p in probes)
        for key in {k for p in probes for k in p}
    }
    metrics = layer_metrics(run_ledger, mean_probes)
    overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({
        "workload": workload.name,
        "seed": workload.seed,
        "rounds": {"untraced_s": plain_s, "traced_s": traced_s},
        "tracing_overhead": overhead,
        "ledger": {"setup": setup_ledger, "run_per_round": run_ledger},
        "probes_per_round": mean_probes,
        "metrics": {
            "setup": layer_metrics(setup_ledger, {}),
            "run_per_round": metrics,
        },
        "spans": setup_tracer.export() + run_tracer.export(),
    }))
    print(f"tracing overhead {overhead:+.1%}; spans in {trace_path}", file=sys.stderr)
    return tally, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-dir", type=Path, required=True)
    args = parser.parse_args()
    bench = json.loads(BENCHMARK_JSON.read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        path = args.trace_dir / f"{args.workload}-seed{args.seed}.json"
        tally, values = traced_run(workload, args.seconds, path)
    else:
        tally, values = untraced_run(workload, args.seconds)
    args.out.write_text(json.dumps(tally.result(values, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
