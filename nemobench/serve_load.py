"""The serve workload: a spawned ``repro serve`` and closed-loop HTTP clients.

Each round starts a server over a fresh root under ``.bench_build/``.
Client threads, each on its own kept-alive connection, create their
sessions and step them round-robin: propose, decide, submit or decline,
and ``score`` every few interactions.  When every session sits on a
snapshot boundary the server is stopped and started again over the same
root; the sessions resume from their snapshots on first touch.

Client 0 works on a corpus and sessions derived from ``--seed``; client
1 on the reference corpus (seed 0) with sessions 0, 1, ..., whatever the
seed, so that half of every figure does not move with the seed.

The clients answer with an oracle computed here from the same dataset
the server builds: submit the unused primitive of the shown example
whose train accuracy for the example's true label is highest, if that
accuracy is at least 0.5; otherwise decline.

After the round every session is replayed in-process from its command
log through the same registry factory with no HTTP, and the served LF
sequence and every score reply must equal the replay's.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

import checks
import inproc
from harness import Ledger, derive_seed, log, median, rounds_for, vm_hwm_mb
from tracing import Tracer

NAME = "serve_nemo_tiny"
ROOT_DIR = Path(".bench_build") / "nemobench"
METHOD, DATASET, SCALE, THRESHOLD = "nemo", "amazon", "tiny", 0.5
MIB = 1024.0 * 1024.0
BARRIER_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class ServeWorkload:
    clients: int = 2
    sessions_per_client: int = 3
    interactions: int = 30
    snapshot_every: int = 4
    # A multiple of snapshot_every: the restart then loses no commit.
    restart_after: int = 16
    score_every: int = 5
    round_seconds: float = 17.0


SMOKE = ServeWorkload(
    sessions_per_client=1, interactions=8, restart_after=4, round_seconds=1.0
)


# --------------------------------------------------------------------- #
# the server process
# --------------------------------------------------------------------- #
class Server:
    """``python -m repro serve`` over one root, restartable in place."""

    def __init__(self, root: Path, snapshot_every: int) -> None:
        self.root = root
        self.snapshot_every = snapshot_every
        self.proc: subprocess.Popen | None = None

    def start(self) -> str:
        from repro.serve import ServeClientError, SessionClient

        argv = [
            sys.executable, "-m", "repro", "serve",
            "--root", str(self.root),
            "--port", "0",
            "--snapshot-every", str(self.snapshot_every),
        ]
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        match = re.search(r"serving sessions on (http://\S+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"unexpected server handshake {line!r}")
        url = match.group(1)
        probe = SessionClient(url, timeout=10.0)
        deadline = time.monotonic() + 30.0
        try:
            while True:
                try:
                    probe.health()
                    return url
                except (ServeClientError, OSError):
                    if time.monotonic() > deadline:
                        self.stop()
                        raise RuntimeError("server never became healthy") from None
                    time.sleep(0.02)
        finally:
            probe.close()

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


def parse_metrics(text: str) -> list[tuple[str, dict, float]]:
    """Prometheus text exposition to ``(name, labels, value)`` samples."""
    samples = []
    for line in text.splitlines():
        match = re.match(r"^([A-Za-z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)$", line)
        if line.startswith("#") or match is None:
            continue
        labels = dict(re.findall(r'(\w+)="([^"]*)"', match.group(2) or ""))
        samples.append((match.group(1), labels, float(match.group(3))))
    return samples


def metric_sum(scrapes, name: str, **labels) -> float:
    """Sum of ``name`` samples matching ``labels`` over several scrapes."""
    return sum(
        value
        for samples in scrapes
        for sample_name, sample_labels, value in samples
        if sample_name == name
        and all(sample_labels.get(k) == v for k, v in labels.items())
    )


# --------------------------------------------------------------------- #
# the client side
# --------------------------------------------------------------------- #
class OracleUser:
    """Deterministic stand-in for the person answering each proposal."""

    def __init__(self, dataset) -> None:
        B = dataset.train.B.tocsc()
        y = np.asarray(dataset.train.y)
        covered = np.diff(B.indptr)
        positives = B.T @ (y == 1).astype(float)
        self.positive_rate = positives / np.maximum(covered, 1)
        self.index = {name: i for i, name in enumerate(dataset.primitive_names)}
        self.y = y

    def decide(self, proposal: dict, used: set) -> tuple[str, int] | None:
        if proposal["dev_index"] is None:
            return None
        label = int(self.y[proposal["dev_index"]])
        best = None
        for token in sorted(proposal["primitives"]):
            if (token, label) in used:
                continue
            rate = self.positive_rate[self.index[token]]
            accuracy = rate if label == 1 else 1.0 - rate
            if accuracy >= THRESHOLD and (best is None or accuracy > best[0]):
                best = (accuracy, token)
        return None if best is None else (best[1], label)


@dataclass
class SessionLog:
    name: str
    seed: int
    dataset_seed: int
    user: OracleUser
    commands: list = field(default_factory=list)
    used: set = field(default_factory=set)
    served_lfs: list | None = None


class RoundState:
    """What the client threads and the main thread share in one round."""

    def __init__(self, workload: ServeWorkload, ledger, tracer) -> None:
        self.workload = workload
        self.ledger = ledger
        self.tracer = tracer
        self.url = ""
        self.barrier = threading.Barrier(workload.clients + 1, timeout=BARRIER_TIMEOUT_S)
        self.lock = threading.Lock()
        self.latencies: list[float] = []
        self.command_ms: dict[str, list[float]] = {}
        self.client_counts = [{}, {}]  # per server incarnation: command -> successes
        self.cold_touch: list[float] = []
        self.curve: list[float] = []
        self.submits = 0
        self.logs: list[SessionLog] = []


def call(state: RoundState, incarnation: int, command: str, request, name: str):
    """One HTTP command: timed, counted, recorded as an operation."""
    t0 = time.perf_counter()
    try:
        if state.tracer is None:
            result = request()
        else:
            with state.tracer.span(f"serve.{command}"):
                result = request()
    except Exception as exc:
        state.ledger.record(False, f"{command} {name}: {exc!r}")
        raise CommandFailed(command) from exc
    seconds = time.perf_counter() - t0
    with state.lock:
        state.command_ms.setdefault(command, []).append(1000.0 * seconds)
        counts = state.client_counts[incarnation]
        counts[command] = counts.get(command, 0) + 1
    state.ledger.record(True, command)
    return result, seconds


def interact(state: RoundState, client, incarnation: int, log_: SessionLog, step: int):
    """One interaction on one session; returns the propose latency."""
    name = log_.name
    proposal, t_propose = call(state, incarnation, "propose", partial(client.propose, name), name)
    decision = log_.user.decide(proposal, log_.used)
    log_.commands.append(("propose", proposal["dev_index"]))
    if decision is None:
        _, t_close = call(state, incarnation, "decline", partial(client.decline, name), name)
        log_.commands.append(("decline",))
    else:
        _, t_close = call(
            state, incarnation, "submit", partial(client.submit, name, *decision), name
        )
        log_.used.add(decision)
        log_.commands.append(("submit",) + decision)
    with state.lock:
        state.latencies.append(t_propose + t_close)
        state.submits += decision is not None
    if (step + 1) % state.workload.score_every == 0:
        reply, _ = call(state, incarnation, "score", partial(client.score, name), name)
        log_.commands.append(("score", reply["test_score"]))
        with state.lock:
            state.curve.append(reply["test_score"])
    return t_propose


class CommandFailed(Exception):
    """A command failed and :func:`call` has already counted it."""


def guarded(state: RoundState, what: str, work) -> None:
    """Run one client phase; a failure ends the phase, counted once."""
    try:
        work()
    except CommandFailed:
        pass
    except Exception as exc:
        state.ledger.record(False, f"{what}: {exc!r}")


def client_main(state: RoundState, logs: list[SessionLog], index: int):
    """One client thread: create, phase one, (restart), phase two.

    After a failure the thread skips to the next barrier, so the round
    still ends; a broken barrier means the main thread gave up.
    """
    from repro.serve import SessionClient

    w = state.workload
    client = SessionClient(state.url)

    def create_all():
        for log_ in logs:
            request = partial(
                client.create,
                log_.name,
                method=METHOD,
                dataset=DATASET,
                scale=SCALE,
                seed=log_.seed,
                user_threshold=THRESHOLD,
                dataset_seed=log_.dataset_seed,
            )
            call(state, 0, "create", request, log_.name)

    def steps(first: int, last: int, incarnation: int):
        for step in range(first, last):
            if state.tracer:
                state.tracer.set_request(f"c{index}-{step}")
            for log_ in logs:
                seconds = interact(state, client, incarnation, log_, step)
                if incarnation == 1 and step == first:
                    with state.lock:
                        state.cold_touch.append(seconds)

    def fetch_lfs():
        for log_ in logs:
            info, _ = call(state, 1, "info", partial(client.info, log_.name), log_.name)
            log_.served_lfs = [(lf["primitive"], int(lf["label"])) for lf in info["lfs"]]

    try:
        guarded(state, f"client {index} create", create_all)
        state.barrier.wait()  # every session created
        guarded(state, f"client {index} phase one", lambda: steps(0, w.restart_after, 0))
        client.close()
        state.barrier.wait()  # phase one done; the main thread restarts the server
        state.barrier.wait()  # restarted
        client = SessionClient(state.url)
        guarded(
            state,
            f"client {index} phase two",
            lambda: (steps(w.restart_after, w.interactions, 1), fetch_lfs()),
        )
        state.barrier.wait()  # phase two done
    except threading.BrokenBarrierError:
        pass
    finally:
        client.close()


# --------------------------------------------------------------------- #
# checks against the server's counters and an in-process replay
# --------------------------------------------------------------------- #
def check_counts(state: RoundState, scrape, incarnation: int) -> None:
    """Every command a client saw succeed is counted once by the server."""
    counts = state.client_counts[incarnation]
    served = {
        command: int(
            metric_sum([scrape], "repro_http_requests_total", command=command, outcome="200")
        )
        for command in counts
    }
    state.ledger.record(
        served == counts,
        f"server command counts {served} equal client counts {counts} "
        f"(server run {incarnation + 1})",
    )


def replay(state: RoundState, dataset, log_: SessionLog, out: inproc.Round):
    """Re-run one session's commands in-process; compare with the served run."""
    from repro.experiments.registry import resolve_factory

    session = resolve_factory(METHOD, DATASET, THRESHOLD)(dataset, log_.seed)
    same_path, same_scores = True, True
    for command in log_.commands:
        kind = command[0]
        if kind == "propose":
            same_path &= session.propose().dev_index == command[1]
        elif kind == "submit":
            session.submit(session.family.make_by_token(command[1], command[2]))
        elif kind == "decline":
            session.decline()
        else:
            same_scores &= float(session.test_score()) == command[1]
    replayed = [(lf.primitive, int(lf.label)) for lf in session.lfs]
    state.ledger.record(
        same_path and replayed == log_.served_lfs,
        f"{log_.name}: served proposals and LF sequence equal the replay",
    )
    state.ledger.record(same_scores, f"{log_.name}: served scores equal the replay")
    inproc.count_session(session, dataset, out)
    return session


# --------------------------------------------------------------------- #
# one round and the run
# --------------------------------------------------------------------- #
class ServeRound(inproc.Round):
    def __init__(self) -> None:
        super().__init__()
        self.peak_rss = 0.0
        self.layers: dict[str, float] = {}


def run_round(w: ServeWorkload, seed: int, ledger: Ledger, tracer, tag: str) -> ServeRound:
    from repro.data.named import load_named_dataset
    from repro.serve import SessionClient

    out = ServeRound()
    # Even clients: the seeded corpus and sessions; odd: the reference ones.
    seeds = (derive_seed(seed, "serve-corpus"), 0)
    datasets = {s: load_named_dataset(DATASET, scale=SCALE, seed=s) for s in seeds}
    users = {s: OracleUser(d) for s, d in datasets.items()}
    state = RoundState(w, ledger, tracer)

    def session_log(i: int, j: int) -> SessionLog:
        dataset_seed = seeds[i % 2]
        session_seed = derive_seed(seed, f"serve-session-{i}-{j}") if i % 2 == 0 else j
        return SessionLog(f"c{i}-s{j}", session_seed, dataset_seed, users[dataset_seed])

    per_client = [
        [session_log(i, j) for j in range(w.sessions_per_client)] for i in range(w.clients)
    ]
    state.logs = [log_ for logs in per_client for log_ in logs]
    root = ROOT_DIR / f"serve-{os.getpid()}-{tag}"
    shutil.rmtree(root, ignore_errors=True)
    server = Server(root, w.snapshot_every)
    scrapes = []
    threads = []
    try:
        t_start = time.perf_counter()
        state.url = server.start()
        threads = [
            threading.Thread(target=client_main, args=(state, logs, i))
            for i, logs in enumerate(per_client)
        ]
        for thread in threads:
            thread.start()
        state.barrier.wait()
        out.setup.append(time.perf_counter() - t_start)
        t_a = time.perf_counter()
        state.barrier.wait()
        t_b = time.perf_counter()
        scraper = SessionClient(state.url)
        scrapes.append(parse_metrics(scraper.metrics()))
        scraper.close()
        out.peak_rss = vm_hwm_mb(server.proc.pid)
        check_counts(state, scrapes[0], 0)
        t_r = time.perf_counter()
        server.stop()
        state.url = server.start()
        restart_s = time.perf_counter() - t_r
        state.barrier.wait()
        t_c = time.perf_counter()
        state.barrier.wait()
        t_d = time.perf_counter()
        scraper = SessionClient(state.url)
        scrapes.append(parse_metrics(scraper.metrics()))
        scraper.close()
        out.peak_rss = max(out.peak_rss, vm_hwm_mb(server.proc.pid))
        check_counts(state, scrapes[1], 1)
    finally:
        server.stop()
        state.barrier.abort()
        for thread in threads:
            thread.join()
    snapshots = sorted(root.glob("*/step-*.ckpt.npz"))
    snapshot_mb = (
        sum(p.stat().st_size for p in snapshots) / len(snapshots) / MIB if snapshots else 0.0
    )
    shutil.rmtree(root, ignore_errors=True)

    out.latencies = state.latencies
    out.curve = state.curve
    out.submits = state.submits
    out.interactive = (t_b - t_a) + (t_d - t_c)
    floors = []
    for log_ in state.logs:
        dataset = datasets[log_.dataset_seed]
        session = replay(state, dataset, log_, out)
        floors.append(checks.floor_pair(session, dataset, None))
    out.floor = tuple(float(np.mean(values)) for values in zip(*floors))

    def server_mean_ms(command: str) -> float:
        count = metric_sum(scrapes, "repro_http_request_seconds_count", command=command)
        total = metric_sum(scrapes, "repro_http_request_seconds_sum", command=command)
        return 1000.0 * total / count if count else 0.0

    client_mean = {c: float(np.mean(v)) for c, v in state.command_ms.items()}
    phase = {
        p: metric_sum(scrapes, "repro_engine_phase_seconds_total", phase=p)
        for p in ("select", "develop", "contextualize", "end_model")
    }
    out.layers = {
        "serve.propose_ms": median(state.command_ms.get("propose", [0.0])),
        "serve.submit_ms": median(state.command_ms.get("submit", [0.0])),
        "serve.server_propose_ms": server_mean_ms("propose"),
        "serve.server_submit_ms": server_mean_ms("submit"),
        "serve.transport_ms": client_mean.get("propose", 0.0) - server_mean_ms("propose"),
        "serve.cold_touch_ms": 1000.0 * float(np.mean(state.cold_touch or [0.0])),
        "serve.restart_s": restart_s,
        "io.snapshots": metric_sum(scrapes, "repro_serve_snapshots_total"),
        "io.snapshot_mb": snapshot_mb,
        "core.select_s": phase["select"],
        "core.develop_s": phase["develop"],
        "core.contextualize_s": phase["contextualize"],
        "core.refits_cold": metric_sum(scrapes, "repro_engine_refits_total", path="cold"),
        "labelmodel.cold_fit_s": metric_sum(
            scrapes, "repro_labelmodel_fit_seconds_total", path="cold"
        ),
        "labelmodel.warm_fit_s": metric_sum(
            scrapes, "repro_labelmodel_fit_seconds_total", path="warm"
        ),
        "labelmodel.em_iterations": metric_sum(scrapes, "repro_labelmodel_em_iterations_total"),
        "endmodel.fit_s": phase["end_model"],
    }
    return out


def run(seed: int, seconds: float, trace: bool, smoke: bool, ledger: Ledger):
    w = SMOKE if smoke else ServeWorkload()
    if trace:
        untraced = run_round(w, seed, ledger, None, "untraced")
        tracer = Tracer()
        traced = run_round(w, seed, ledger, tracer, "traced")
        metrics = {
            name: traced.counters[name]
            for name in ("core.lineage_mb", "labelmodel.votes_mb", "data.matrices_mb")
        }
        metrics.update(traced.layers)
        metrics.update(inproc.traced_layers(traced, untraced, tracer))
        return metrics, tracer
    rounds: list[ServeRound] = []
    for index in range(rounds_for(seconds, w.round_seconds)):
        t0 = time.perf_counter()
        rounds.append(run_round(w, seed, ledger, None, str(index)))
        log(f"{NAME}: round {index + 1} took {time.perf_counter() - t0:.1f}s")
    return inproc.summarize(rounds, max(r.peak_rss for r in rounds)), None
