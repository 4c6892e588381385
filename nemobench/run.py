"""Run one workload of the Nemo benchmark and print its result line.

Usage, from the repository root::

    python3 nemobench/run.py --workload nemo_amazon_5k --seed 1 --seconds 30 --trace 0

The workload runs in a fresh child process whose BLAS and OpenMP pools
are pinned to one thread; its last stdout line (one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``) is printed as this
program's last line.  ``--trace 1`` prints the per-layer metrics instead
of the end-to-end ones.  ``--smoke`` shrinks every workload for the
benchmark's own test.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("nemo_amazon_5k", "nemo_topics_4k", "serve_nemo_tiny")
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"nemobench: no program sources at {src}; run from the repository root",
            file=sys.stderr,
        )
        return 2
    argv = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    # Its own process group, so a timeout also stops the server it spawned.
    child = subprocess.Popen(
        argv, stdout=subprocess.PIPE, text=True, env=child_env(src), start_new_session=True
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print(f"nemobench: {args.workload} exceeded {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return 3
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(
            f"nemobench: {args.workload} exited with {child.returncode}", file=sys.stderr
        )
        return child.returncode or 4
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        print(f"nemobench: malformed result {lines[-1]!r}", file=sys.stderr)
        return 5
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
