"""Shared bookkeeping for the workloads: the operation ledger, timing
summaries, memory readings, seed derivation and the result line."""

from __future__ import annotations

import json
import math
import sys
import threading
import zlib


def log(message: str) -> None:
    """Progress goes to stderr; stdout carries only the result line."""
    print(f"[nemobench] {message}", file=sys.stderr, flush=True)


def derive_seed(seed: int, tag: str) -> int:
    """A stable 31-bit seed for one input of the workload."""
    return zlib.crc32(f"{tag}:{seed}".encode()) & 0x7FFFFFFF


class Ledger:
    """Counts operations attempted and failed.

    An operation is one interaction, one HTTP command or one output check.
    ``floor`` marks the label-model floor check: its failure counts in
    ``failed`` but leaves ``correct`` true, because it reports label
    quality, not a wrong output (see README.md).  Any other failure makes
    the run incorrect.  Thread-safe: the serve clients record from their
    own threads.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, what: str, floor: bool = False) -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if not floor:
                    self.wrong.append(what)
        if not ok:
            log(f"FAILED {'(label-model floor) ' if floor else ''}{what}")

    @property
    def correct(self) -> bool:
        return not self.wrong


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    rank = (len(data) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_mean(values, share: float) -> float:
    """Mean of the largest ``share`` of ``values`` (at least one sample).

    A tail figure averaged over many samples: a single order statistic such
    as the 90th percentile falls where the latency distribution is thin,
    between warm and cold refits, and jumps with the order of a few samples.
    """
    data = sorted(values)
    if not data:
        raise ValueError("tail of no samples")
    tail = data[-max(1, math.ceil(len(data) * share)) :]
    return sum(tail) / len(tail)


def vm_hwm_mb(pid: str | int = "self") -> float:
    """High-water resident set size of a process, in MiB (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def arrays_mb(*arrays) -> float:
    return sum(a.nbytes for a in arrays if a is not None) / (1024.0 * 1024.0)


def sparse_mb(matrix) -> float:
    if matrix is None:
        return 0.0
    return arrays_mb(matrix.data, matrix.indices, matrix.indptr)


def rounds_for(seconds: float, round_seconds: float) -> int:
    """Whole rounds that fill about ``seconds``, at least one.

    ``round_seconds`` is a workload's measured round time on the reference
    machine (README.md), so a run does the same work whatever the load on
    the machine, and its failed share and its samples stay comparable.
    """
    return max(1, int(seconds // round_seconds))


def end_to_end(
    setup: list[float],
    latencies: list[float],
    interactive_seconds: float,
    peak_rss: float,
    curve: list[float],
) -> dict:
    """The six end-to-end metrics, from one run's raw samples."""
    return {
        "setup_s": (median(setup), "s"),
        "interactions_per_s": (len(latencies) / interactive_seconds, "1/s"),
        "interaction_p50_ms": (1000.0 * percentile(latencies, 50.0), "ms"),
        "interaction_tail_ms": (1000.0 * tail_mean(latencies, 0.10), "ms"),
        "peak_rss_mb": (peak_rss, "MiB"),
        "curve_score": (sum(curve) / len(curve), "fraction"),
    }


def result_line(ledger: Ledger, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": ledger.correct,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
