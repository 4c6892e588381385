"""The two in-process workloads: full Nemo sessions with the simulated user.

Each round builds two datasets and runs closed-loop sessions on each:

* the *seeded* corpus and sessions, with seeds derived from ``--seed``;
* the *reference* corpus (seed 0) and sessions (seeds 0, 1, ...) whatever
  the seed.  They carry the label-model floor check, so that check's
  outcome never depends on ``--seed``.

A round repeats the same inputs, so every round attempts the same
operations and a run's failed share is the same however many rounds fit.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

import checks
from harness import (
    Ledger,
    arrays_mb,
    derive_seed,
    end_to_end,
    rounds_for,
    log,
    sparse_mb,
    vm_hwm_mb,
)
from tracing import Tracer

MIB = 1024.0 * 1024.0


@dataclass(frozen=True)
class SessionWorkload:
    n_docs: int
    interactions: int
    multiclass: bool
    sessions_per_corpus: int
    round_seconds: float
    score_every: int = 5


WORKLOADS = {
    "nemo_amazon_5k": SessionWorkload(
        n_docs=6250,
        interactions=50,
        multiclass=False,
        sessions_per_corpus=3,
        round_seconds=36.0,
    ),
    "nemo_topics_4k": SessionWorkload(
        n_docs=5000,
        interactions=50,
        multiclass=True,
        sessions_per_corpus=2,
        round_seconds=35.0,
    ),
}
SMOKE = {"n_docs": 600, "interactions": 10, "sessions_per_corpus": 1, "round_seconds": 1.0}


def build_dataset(workload: SessionWorkload, corpus_seed: int):
    if workload.multiclass:
        from repro.multiclass import make_topics_dataset

        return make_topics_dataset(n_docs=workload.n_docs, seed=corpus_seed)
    from repro.data import load_dataset

    return load_dataset("amazon", scale="bench", seed=corpus_seed, n_docs=workload.n_docs)


def build_session(workload: SessionWorkload, dataset, session_seed: int):
    if workload.multiclass:
        from repro.multiclass.experiments import make_mc_method

        return make_mc_method("nemo-mc")(dataset, session_seed)
    from repro.experiments import make_method

    return make_method("nemo")(dataset, session_seed)


def wrap_data_layer(tracer: Tracer) -> None:
    import repro.data.recipes as recipes
    import repro.multiclass.data as mc_data
    from repro.data.synthetic import CorpusGenerator

    tracer.wrap(CorpusGenerator, "generate", "data.generate")
    tracer.wrap(mc_data.MCCorpusGenerator, "generate", "data.generate")
    tracer.wrap(recipes, "featurize_corpus", "text.featurize")
    tracer.wrap(mc_data, "featurize_mc_corpus", "text.featurize")


def wrap_session_layers(tracer: Tracer, session) -> None:
    """Wrap the classes of the session's own components."""
    tracer.wrap(type(session.selector), "select", "core.select")
    if session.contextualizer is not None:
        tracer.wrap(type(session.contextualizer), "refine", "core.contextualize")
    if session.percentile_tuner is not None:
        tracer.wrap(type(session.percentile_tuner), "best_percentile", "core.tune")
    label_model = type(session.label_model_factory())
    tracer.wrap(label_model, "fit", "labelmodel.cold_fit")
    tracer.wrap(label_model, "fit_warm", "labelmodel.warm_fit")
    tracer.wrap(label_model, "predict_proba", "labelmodel.predict")
    end_model = type(session.end_model)
    for attr in ("fit", "fit_minibatch"):
        tracer.wrap(end_model, attr, "endmodel.fit")
    for attr in ("predict_proba", "predict_proba_rows"):
        tracer.wrap(end_model, attr, "endmodel.predict")


class Round:
    """Raw samples and counters from one round."""

    def __init__(self) -> None:
        self.setup: list[float] = []
        self.latencies: list[float] = []
        self.curve: list[float] = []
        self.interactive = 0.0
        self.submits = 0
        self.counters = {
            "core.develop_s": 0.0,
            "core.refits_cold": 0.0,
            "labelmodel.em_iterations": 0.0,
            "core.lineage_mb": 0.0,
            "labelmodel.votes_mb": 0.0,
            "data.matrices_mb": 0.0,
        }
        self.floor = (0.0, 0.0)


def drive(session, workload, tracer, ledger, out: Round, role: str) -> None:
    """Closed loop: propose, let the simulated user answer, close."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    user = session.user
    for i in range(workload.interactions):
        if tracer is not None:
            tracer.set_request(f"{role}-{i}")
        try:
            t0 = time.perf_counter()
            with span("bench.propose"):
                pending = session.propose()
            t1 = time.perf_counter()
            lf = None
            if pending.dev_index is not None:
                lf = user.create_lf(pending.dev_index, pending.state)
            t2 = time.perf_counter()
            with span("bench.close"):
                if lf is None:
                    session.decline()
                else:
                    session.submit(lf)
            t3 = time.perf_counter()
        except Exception as exc:  # one failed interaction; the loop goes on
            ledger.record(False, f"{role} interaction {i}: {exc!r}")
            if session.pending is not None:
                session.cancel()
            continue
        ledger.record(True, "interaction")
        out.latencies.append((t1 - t0) + (t3 - t2))
        out.interactive += t3 - t0
        out.submits += lf is not None
        if (i + 1) % workload.score_every == 0:
            if tracer is not None:
                tracer.paused = True
            out.curve.append(float(session.test_score()))
            if tracer is not None:
                tracer.paused = False


def check_dataset(dataset, workload, ledger, role: str) -> None:
    ledger.record(checks.split_sizes_ok(dataset, workload.n_docs), f"{role} split sizes")
    ledger.record(
        all(checks.tfidf_rows_ok(s) for s in dataset.splits.values()),
        f"{role} TF-IDF row norms",
    )
    ledger.record(
        all(checks.incidence_pattern_ok(s) for s in dataset.splits.values()),
        f"{role} incidence pattern",
    )
    ledger.record(checks.train_doc_freq_ok(dataset), f"{role} train document frequencies")


def check_session(session, dataset, workload, ledger, role: str) -> None:
    n_classes = dataset.n_classes if workload.multiclass else None
    abstain = -1 if workload.multiclass else 0
    ledger.record(
        checks.vote_columns_ok(session, dataset, abstain), f"{role} LF vote columns"
    )
    views = [session.soft_labels]
    if session.selection_soft_labels is not None:
        views.append(session.selection_soft_labels)
    ledger.record(
        all(checks.posterior_rows_ok(P, n_classes) for P in views),
        f"{role} posterior rows",
    )


def count_session(session, dataset, out: Round) -> None:
    c = out.counters
    c["core.develop_s"] += session.phase_timings["develop"]
    c["core.refits_cold"] += session.refit_counts.get("cold", 0)
    c["labelmodel.em_iterations"] += sum(session.em_iteration_counts.values())
    # The lineage caches one float64 distance column per LF for the train
    # and valid splits (computed from sizes, not read from the cache).
    c["core.lineage_mb"] += len(session.lfs) * (dataset.train.n + dataset.valid.n) * 8 / MIB
    for L in (session.L_train, session.L_valid):
        c["labelmodel.votes_mb"] += arrays_mb(L.base if L.base is not None else L)
    for split in dataset.splits.values():
        c["data.matrices_mb"] += (
            sparse_mb(split.X) + sparse_mb(split.B) + sparse_mb(getattr(split, "_B_csc", None))
        )


def run_round(workload, seed: int, ledger: Ledger, tracer: Tracer | None) -> Round:
    out = Round()
    k = workload.sessions_per_corpus
    seeded_sessions = [derive_seed(seed, f"session-{i}") for i in range(k)]
    corpora = (
        ("seeded", derive_seed(seed, "corpus"), seeded_sessions),
        ("reference", 0, list(range(k))),
    )
    floors = []
    if tracer is not None:
        wrap_data_layer(tracer)
    try:
        for role, corpus_seed, session_seeds in corpora:
            t0 = time.perf_counter()
            dataset = build_dataset(workload, corpus_seed)
            sessions = [build_session(workload, dataset, s) for s in session_seeds]
            out.setup.append(time.perf_counter() - t0)
            check_dataset(dataset, workload, ledger, role)
            for session_seed in session_seeds:
                session = sessions.pop(0)
                name = f"{role} session {session_seed}"
                if tracer is not None:
                    wrap_session_layers(tracer, session)
                drive(session, workload, tracer, ledger, out, name)
                check_session(session, dataset, workload, ledger, name)
                count_session(session, dataset, out)
                if role == "reference":
                    n_classes = dataset.n_classes if workload.multiclass else None
                    lm, mv = checks.floor_pair(session, dataset, n_classes)
                    floors.append((lm, mv))
                    ledger.record(
                        lm >= mv,
                        f"{name}: label model covered accuracy {lm:.4f} >= "
                        f"majority vote {mv:.4f}",
                        floor=True,
                    )
                del session
            del dataset
    finally:
        if tracer is not None:
            tracer.unwrap()
    out.floor = tuple(sum(pair) / len(floors) for pair in zip(*floors))
    return out


def traced_layers(traced: Round, untraced: Round, tracer: Tracer) -> dict:
    """Per-layer figures every workload derives the same way."""
    return {
        "core.accept_ratio": traced.submits / len(traced.latencies),
        "labelmodel.covered_accuracy": traced.floor[0],
        "labelmodel.mv_covered_accuracy": traced.floor[1],
        "trace.spans": len(tracer.spans),
        "trace.overhead_pct": 100.0 * (traced.interactive / untraced.interactive - 1.0),
    }


def summarize(rounds: list[Round], peak_rss: float) -> dict:
    """The end-to-end metrics over a run's rounds."""
    return end_to_end(
        setup=[s for r in rounds for s in r.setup],
        latencies=[x for r in rounds for x in r.latencies],
        interactive_seconds=sum(r.interactive for r in rounds),
        peak_rss=peak_rss,
        curve=[c for r in rounds for c in r.curve],
    )


SPAN_METRICS = {
    "data.generate_s": "data.generate",
    "text.featurize_s": "text.featurize",
    "core.select_s": "core.select",
    "core.contextualize_s": "core.contextualize",
    "core.tune_s": "core.tune",
    "labelmodel.cold_fit_s": "labelmodel.cold_fit",
    "labelmodel.warm_fit_s": "labelmodel.warm_fit",
    "labelmodel.predict_s": "labelmodel.predict",
    "endmodel.fit_s": "endmodel.fit",
    "endmodel.predict_s": "endmodel.predict",
}


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool, ledger: Ledger):
    workload = WORKLOADS[name]
    if smoke:
        workload = SessionWorkload(multiclass=workload.multiclass, **SMOKE)
    if trace:
        # One untraced and one traced round of the same inputs: the traced
        # one gives the layer figures, the pair gives the tracing overhead.
        untraced = run_round(workload, seed, ledger, None)
        tracer = Tracer()
        traced = run_round(workload, seed, ledger, tracer)
        own = tracer.self_seconds()
        metrics = {metric: own.get(span, 0.0) for metric, span in SPAN_METRICS.items()}
        metrics.update(traced.counters)
        metrics.update(traced_layers(traced, untraced, tracer))
        return metrics, tracer
    rounds: list[Round] = []
    for index in range(rounds_for(seconds, workload.round_seconds)):
        t0 = time.perf_counter()
        rounds.append(run_round(workload, seed, ledger, None))
        log(f"{name}: round {index + 1} took {time.perf_counter() - t0:.1f}s")
    return summarize(rounds, vm_hwm_mb()), None
