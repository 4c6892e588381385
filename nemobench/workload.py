"""One workload in one process: ``run.py`` starts this with BLAS and
OpenMP pools pinned to one thread and ``src/`` on the import path.

Prints the result object as the last line of stdout.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from harness import Ledger, log, result_line

#: Every per-layer metric, with its unit.  A workload that bypasses a
#: layer reports 0 for it (the serve layer on the in-process workloads,
#: corpus generation inside the server on the serve workload).
PER_LAYER = {
    "data.generate_s": "s",
    "text.featurize_s": "s",
    "data.matrices_mb": "MiB",
    "core.select_s": "s",
    "core.develop_s": "s",
    "core.contextualize_s": "s",
    "core.tune_s": "s",
    "core.refits_cold": "count",
    "core.accept_ratio": "fraction",
    "core.lineage_mb": "MiB",
    "labelmodel.cold_fit_s": "s",
    "labelmodel.warm_fit_s": "s",
    "labelmodel.predict_s": "s",
    "labelmodel.em_iterations": "count",
    "labelmodel.votes_mb": "MiB",
    "labelmodel.covered_accuracy": "fraction",
    "labelmodel.mv_covered_accuracy": "fraction",
    "endmodel.fit_s": "s",
    "endmodel.predict_s": "s",
    "serve.propose_ms": "ms",
    "serve.submit_ms": "ms",
    "serve.server_propose_ms": "ms",
    "serve.server_submit_ms": "ms",
    "serve.transport_ms": "ms",
    "serve.cold_touch_ms": "ms",
    "serve.restart_s": "s",
    "io.snapshots": "count",
    "io.snapshot_mb": "MiB",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}

#: Where traced runs leave their spans (ignored by git).
SPAN_DIR = Path(".bench_build") / "nemobench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    import inproc
    import serve_load

    ledger = Ledger()
    trace = bool(args.trace)
    if args.workload in inproc.WORKLOADS:
        metrics, tracer = inproc.run(
            args.workload, args.seed, args.seconds, trace, args.smoke, ledger
        )
    elif args.workload == serve_load.NAME:
        metrics, tracer = serve_load.run(args.seed, args.seconds, trace, args.smoke, ledger)
    else:
        parser.error(f"unknown workload {args.workload!r}")
    if trace:
        path = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(path)
        log(f"wrote {len(tracer.spans)} spans to {path}")
        unknown = set(metrics) - set(PER_LAYER)
        if unknown:
            raise KeyError(f"per-layer metrics without a unit: {sorted(unknown)}")
        metrics = {name: (metrics.get(name, 0.0), unit) for name, unit in PER_LAYER.items()}
    log(f"{args.workload}: {ledger.attempted} operations, {ledger.failed} failed")
    print(result_line(ledger, metrics), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
