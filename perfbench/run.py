"""Run one benchmark workload in a fresh, pinned worker process.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_table3 --seed 1 --seconds 25 --trace 0

The runner owns the steadiness controls that must hold before the
interpreter doing the work starts: it clears every ``REPRO_*`` variable
(the program's default configuration is what gets measured), fixes
``PYTHONHASHSEED``, pins BLAS/OpenMP pools to one thread, and gives the
worker a fresh temporary directory under ``.perfbench/tmp`` (cwd,
``TMPDIR`` and bytecode cache) that is deleted afterwards, so nothing
persists from one run to the next.  The worker's result is printed as the
last line of standard output: one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any failure exits non-zero
without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"

#: Hard limit on one worker; a run must end well inside three minutes.
WORKER_TIMEOUT_S = 170

#: Variables that size native thread pools; one thread keeps numpy's
#: kernels from competing with the interpreter on a 2-core machine.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def worker_env(tmp: Path) -> dict[str, str]:
    """The environment every worker runs under."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    # Bytecode is always written, into the run's own directory, so the
    # fresh-interpreter imports paper_table3 times read a warm cache.
    env["PYTHONPYCACHEPREFIX"] = str(tmp / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["TMPDIR"] = str(tmp)
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR / "tmp"))
    result_path = tmp / "result.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(result_path),
        "--trace-dir", str(WORK_DIR / "traces"),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=tmp, env=worker_env(tmp), timeout=WORKER_TIMEOUT_S
        )
        if proc.returncode != 0:
            print(f"worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"worker left no readable result: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
