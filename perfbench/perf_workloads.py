"""The benchmark's workloads: closed loops against real server processes.

Every workload generates its corpora from the run's seed, starts the servers
``SETUP_BEFORE`` times to time set-up (only the last fleet stays up), then
drives it with keep-alive clients for the run's duration.  The untraced run
starts the servers ``SETUP_AFTER`` more times once the measured phase is over
and reports the end-to-end metrics; the traced run (``--trace 1``) reports
the per-layer metrics of :mod:`perf_layers` instead.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable

from repro.config import PipelineConfig, ServingConfig
from repro.corpus.storage import CorpusStore
from repro.repager.app import QueryOptions, RePaGerApp
from repro.repager.service import RePaGerService
from repro.serving.warmup import capture_snapshot, warm_up

from perf_client import Client, LoopResult, closed_loop
from perf_fleet import Fleet, FleetError, Process, replica_ready, router_ready, serve_args
from perf_gate import Checked, Gate, canonical_payload, check_response, f1_at_30
from perf_inputs import Corpus, build_corpus, request_body
from perf_layers import in_process_metrics, median, span_metrics

#: Server starts before and after the measured phase; ``setup_s`` is the
#: median of all of them.  CPU speed on a shared machine swings over seconds,
#: so starts spread over the run sample more of it than back-to-back starts do.
SETUP_BEFORE = 3
SETUP_AFTER = 2
#: Requests whose F1@30 is averaged: a fixed prefix (four rounds of the
#: visiting order), so the value is exact for a seed.
F1_PREFIX = 88
#: A closed loop runs past its deadline until this many requests are done,
#: so at least ten fall beyond p90 and the F1 prefix is complete.
MIN_REQUESTS = 100
#: Responses compared byte-for-byte with in-process ``RePaGerApp.query``.
CHECK_SAMPLE = 3
#: Instances per corpus primed into the cache on ``repeat-routed`` (one round).
PRIMED_PER_CORPUS = 22
#: Direct/routed request pairs timed for ``router.hop_ms``.
HOP_PAIRS = 24
#: Traced requests that time the stages a workload's own requests skip.
PROBES = 4
#: ``repager serve --seeds`` default, repeated for in-process comparisons.
PIPELINE = PipelineConfig(num_seeds=30)
READY_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Job:
    """One request: an instance of a corpus, with the cache policy to use."""

    corpus: Corpus
    instance: Any
    use_cache: bool
    debug: bool = False
    #: Which of its client's connections the request goes out on.
    target: int = 0

    @property
    def path(self) -> str:
        return f"/v1/corpora/{self.corpus.name}/query"

    def body(self) -> dict[str, Any]:
        return request_body(self.instance, use_cache=self.use_cache, debug=self.debug)


def send_one(client: Client, job: Job) -> tuple[int, bytes, float]:
    return client.post_json(job.path, job.body())


def send(clients: list[Client], job: Job) -> tuple[int, bytes, float]:
    return send_one(clients[job.target], job)


class Run:
    """State of one benchmark run: servers, correctness gate and metrics."""

    def __init__(self, root: Path, workdir: Path, seed: int, seconds: float, trace: bool):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.fleet = Fleet(root, workdir)
        self.gate = Gate()
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: list[str] = []
        self._years: dict[str, dict[str, int]] = {}
        self.setup_seconds: list[float] = []

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        self.notes.append(f"{name} = {value:.6g} {unit}" + (f" ({note})" if note else ""))

    def corpus(self, name: str, seed: int, papers_per_topic: int) -> Corpus:
        corpus = build_corpus(name, seed, papers_per_topic, self.workdir / name)
        self._years[name] = corpus.paper_years()
        return corpus

    def check(self, job: Job, status: int, body: bytes, where: str) -> Checked:
        checked = check_response(
            status, body, job.instance, job.corpus.name, self._years[job.corpus.name]
        )
        self.gate.record(checked, f"{where} {job.corpus.name}/{job.instance.survey_id}")
        return checked

    def checked_loop(self, loop: LoopResult, where: str) -> list[tuple[Any, Checked]]:
        results = []
        for sample in loop.samples:
            if sample.error is None:
                checked = self.check(sample.job, sample.status, sample.body, where)
            else:
                checked = Checked(False, sample.error)
                self.gate.record(checked, where)
            results.append((sample, checked))
        return results


def wait_until(predicate: Callable[[], Any], what: str) -> Any:
    deadline = time.monotonic() + READY_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            value = predicate()
        except OSError:
            value = None
        if value:
            return value
        time.sleep(0.01)
    raise FleetError(f"{what} not ready after {READY_TIMEOUT_S:.0f}s")


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


# -- set-up ---------------------------------------------------------------------


def start_replica(run: Run, corpora: list[Corpus], *extra: str) -> Process:
    process = run.fleet.spawn(
        "serve",
        serve_args({c.name: c.directory for c in corpora}, corpora[0].name, *extra),
    )
    run.fleet.wait_listening(process)
    names = [c.name for c in corpora]
    wait_until(lambda: replica_ready(process.url, names), "replica")
    return process


def start_routed(
    run: Run, corpora: list[Corpus], snapshots: dict[str, Path]
) -> tuple[list[Process], dict[str, str]]:
    """Two empty replicas behind ``repager route`` with warm snapshots."""
    replicas = [
        run.fleet.spawn(f"replica{i}", ["serve", "--empty", "--port", "0"])
        for i in range(2)
    ]
    urls = [run.fleet.wait_listening(replica) for replica in replicas]
    args = ["route", "--port", "0"]
    for url in urls:
        args += ["--replica", url]
    for corpus in corpora:
        args += ["--corpus", f"{corpus.name}={corpus.directory}"]
        args += ["--snapshot", f"{corpus.name}={snapshots[corpus.name]}"]
    router = run.fleet.spawn("router", args)
    run.fleet.wait_listening(router)
    names = [c.name for c in corpora]
    placements = wait_until(lambda: router_ready(router.url, names), "router")
    return [*replicas, router], placements


def timed_setups(run: Run, start: Callable[[], Any], count: int = SETUP_BEFORE) -> Any:
    """Start the fleet ``count`` times (once when traced), timing each; keep the last."""
    for attempt in range(1 if run.trace else count):
        if attempt:
            run.fleet.stop_all()
        started = time.perf_counter()
        fleet = start()
        run.setup_seconds.append(time.perf_counter() - started)
    return fleet


def report_setup(run: Run, start: Callable[[], Any]) -> None:
    """``SETUP_AFTER`` more starts once the fleet is done with, then ``setup_s``."""
    run.fleet.stop_all()
    timed_setups(run, start, SETUP_AFTER)
    run.fleet.stop_all()
    starts = " ".join(f"{value:.3f}" for value in run.setup_seconds)
    run.metric("setup_s", median(run.setup_seconds), "s", f"median of starts {starts}")


# -- shared measurement ---------------------------------------------------------


def report_loop(
    run: Run, loop: LoopResult, checked: list[tuple[Any, Checked]], clients: int,
    f1_values: list[float], processes: list[Process],
) -> None:
    """The end-to-end metrics of one untraced closed-loop phase."""
    latencies = [s.seconds * 1e3 for s, c in checked if c.ok]
    n = len(checked)
    if len(latencies) < 20:
        run.gate.violation(f"only {len(latencies)} good responses; need 20 for p90")
        return
    run.metric("latency_p50_ms", statistics.median(latencies), "ms", f"n={len(latencies)}")
    run.metric("latency_p90_ms", percentile(latencies, 90), "ms", f"n={len(latencies)}")
    run.metric(
        "throughput_qps", len(latencies) / loop.wall_seconds, "1/s",
        f"{clients} client(s), {loop.wall_seconds:.2f}s",
    )
    run.metric("ok_ratio", len(latencies) / n, "ratio", f"{n - len(latencies)} of {n} failed")
    run.metric(
        "replica_rss_mb", sum(p.peak_rss_mb() for p in processes), "MiB",
        f"{len(processes)} server process(es)",
    )
    run.metric("f1_at_30", statistics.fmean(f1_values), "ratio", f"{len(f1_values)} instances")


def prefix_f1(checked: list[tuple[Any, Checked]]) -> list[float]:
    """F1@30 over the fixed first ``F1_PREFIX`` requests of a single client."""
    return [
        f1_at_30(c.ranked, s.job.instance) if c.ok else 0.0
        for s, c in checked[:F1_PREFIX]
    ]


def compare_in_process(
    run: Run, corpora: list[Corpus], samples: list[tuple[Job, dict[str, Any], str]],
    snapshots: dict[str, Path] | None = None,
) -> None:
    """Byte-compare HTTP payloads with ``RePaGerApp.query`` in this process."""
    with RePaGerApp(config=ServingConfig(), pipeline_config=PIPELINE) as app:
        for index, corpus in enumerate(corpora):
            tenant = app.attach_directory(corpus.name, str(corpus.directory), default=index == 0)
            warm_up(tenant.service, snapshot=(snapshots or {}).get(corpus.name))
        for job, payload, where in samples:
            options = QueryOptions(
                query=job.instance.query,
                year_cutoff=job.instance.year,
                exclude_ids=(job.instance.survey_id,),
                use_cache=False,
            )
            local = app.query(options, corpus=job.corpus.name).payload.to_dict()
            if canonical_payload(local) != canonical_payload(payload):
                run.gate.violation(
                    f"{where} payload for {job.corpus.name}/{job.instance.survey_id} "
                    "differs from in-process RePaGerApp.query"
                )


def traced_jobs(jobs: list[Job]) -> list[Job]:
    """Every job twice: traced on connection 0, untraced on connection 1.

    The order alternates from job to job.  On uncached workloads the two
    connections lead to twin replicas, so neither copy of a request finds
    state the other one left behind.
    """
    paired = []
    for index, job in enumerate(jobs):
        pair = [replace(job, debug=True, target=0), replace(job, debug=False, target=1)]
        paired += pair if index % 2 == 0 else pair[::-1]
    return paired


def report_traced(
    run: Run, checked: list[tuple[Any, Checked]], probes: list[dict[str, Any]]
) -> None:
    """Span-tree and response metrics of the traced closed-loop phase."""
    good = [(s, c) for s, c in checked if c.ok]
    traced = [(s, c) for s, c in good if s.job.debug]
    plain = [s.seconds for s, c in good if not s.job.debug]
    if not traced or not plain:
        run.gate.violation("traced phase produced no traced/untraced pair")
        return
    for name, value in span_metrics([c.serving["trace"] for _, c in traced], probes).items():
        run.metric(name, value, _unit(name))
    stats = [c.doc["payload"]["stats"] for _, c in good]
    run.metric("core.subgraph_nodes", median(s["subgraph_nodes"] for s in stats), "count")
    run.metric("core.subgraph_edges", median(s["subgraph_edges"] for s in stats), "count")
    hits = sum(1 for _, c in good if c.serving.get("cached"))
    run.metric("cache.hit_ratio", hits / len(good), "ratio", f"{hits} of {len(good)}")
    overhead = statistics.median(s.seconds for s, _ in traced) / statistics.median(plain) - 1
    run.metric("obs.tracing_overhead_ratio", overhead, "ratio",
               f"{len(traced)} traced / {len(plain)} untraced")


def _unit(name: str) -> str:
    return "ms" if name.endswith("_ms") else "ratio"


def router_hop(run: Run, router_url: str, replica_url: str, corpus: Corpus) -> None:
    """``router.hop_ms`` and ``http.transport_ms`` from cached requests.

    Each cached request is sent directly to the replica and through the
    router, alternating which goes first, on two keep-alive connections.
    """
    jobs = [Job(corpus, instance, use_cache=True) for instance in corpus.instances[:4]]
    hops, transport = [], []
    with Client(replica_url) as direct, Client(router_url) as routed:
        for job in jobs:  # prime the cache
            run.check(job, *send_one(direct, job)[:2], "hop-prime")
        for index in range(HOP_PAIRS):
            job = jobs[index % len(jobs)]
            order = (direct, routed) if index % 2 == 0 else (routed, direct)
            timings = {}
            for client in order:
                status, body, seconds = send_one(client, job)
                checked = run.check(job, status, body, "hop")
                if not checked.ok:
                    return
                timings[client] = seconds
                if client is direct:
                    transport.append((seconds - checked.serving["served_in_seconds"]) * 1e3)
            hops.append((timings[routed] - timings[direct]) * 1e3)
        status, text = routed.get_text("/v1/metrics")
    coalesced = sum(
        float(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("router_coalesced_total")
    )
    run.metric("router.hop_ms", median(hops), "ms", f"{len(hops)} pairs")
    run.metric("http.transport_ms", median(transport), "ms", f"n={len(transport)}")
    run.metric("router.coalesced_total", coalesced, "count")


def front_with_router(run: Run, replica: Process, corpus: Corpus) -> str:
    """Start ``repager route`` in front of an already-serving replica."""
    router = run.fleet.spawn(
        "router",
        ["route", "--port", "0", "--replica", replica.url,
         "--corpus", f"{corpus.name}={corpus.directory}"],
    )
    run.fleet.wait_listening(router)
    wait_until(lambda: router_ready(router.url, [corpus.name]), "router")
    return router.url


# -- workloads --------------------------------------------------------------------


def fresh(run: Run, papers_per_topic: int) -> None:
    """One cold-warmed replica, one client, every request solved uncached."""
    corpus = run.corpus("c", run.seed, papers_per_topic)
    start = partial(start_replica, run, [corpus])
    replica = timed_setups(run, start)
    jobs = [Job(corpus, instance, use_cache=False) for instance in corpus.instances]
    if run.trace:
        twin = start_replica(run, [corpus])
        traced_phase(run, [[replica.url, twin.url]], [jobs], twin,
                     probe=lambda: probe(run, replica.url, corpus, use_cache=True))
        router_hop(run, front_with_router(run, replica, corpus), replica.url, corpus)
        run_layers(run, corpus)
        return
    loop = closed_loop([[replica.url]], [jobs], send, run.seconds, min_requests=MIN_REQUESTS)
    checked = run.checked_loop(loop, "direct")
    report_loop(run, loop, checked, 1, prefix_f1(checked), [replica])
    report_setup(run, start)
    sample = [(s.job, c.doc["payload"], "direct") for s, c in checked[:CHECK_SAMPLE] if c.ok]
    compare_in_process(run, [corpus], sample)


def repeat_routed(run: Run) -> None:
    """Two corpora on two replicas behind the router; every timed request hits."""
    corpora = [run.corpus("a", run.seed, 10), run.corpus("b", run.seed + 1, 10)]
    snapshots = {}
    for corpus in corpora:  # input preparation, outside setup_s
        service = RePaGerService(CorpusStore.load(corpus.directory), pipeline_config=PIPELINE)
        warm_up(service)
        snapshots[corpus.name] = run.workdir / f"{corpus.name}.snapshot.json"
        capture_snapshot(service, snapshots[corpus.name])
    start = partial(start_routed, run, corpora, snapshots)
    processes, placements = timed_setups(run, start)
    router = processes[-1]
    primed = [
        Job(corpus, instance, use_cache=True)
        for index in range(PRIMED_PER_CORPUS)
        for corpus in corpora
        for instance in [corpus.instances[index]]
    ]
    with Client(router.url) as client:
        first = [run.check(job, *send_one(client, job)[:2], "prime") for job in primed]
    half = len(primed) // 2
    per_client = [primed, primed[half:] + primed[:half]]
    if run.trace:
        traced_phase(run, [[router.url, router.url]] * 2, per_client,
                     probe=lambda: probe(run, router.url, corpora[0], use_cache=False))
        corpus = corpora[0]
        router_hop(run, router.url, placements[corpus.name], corpus)
        run_layers(run, corpus)
        return
    loop = closed_loop([[router.url]] * 2, per_client, send, run.seconds)
    checked = check_hits(run, run.checked_loop(loop, "routed"), {
        (job.corpus.name, job.instance.survey_id): canonical_payload(c.doc["payload"])
        for job, c in zip(primed, first) if c.ok
    })
    f1_values = [
        f1_at_30(c.ranked, job.instance) if c.ok else 0.0 for job, c in zip(primed, first)
    ]
    report_loop(run, loop, checked, 2, f1_values, processes)
    sample = []
    with Client(placements["a"]) as a, Client(placements["b"]) as b:
        direct = {"a": a, "b": b}
        for job, routed in zip(primed[:CHECK_SAMPLE], first):
            checked_direct = run.check(job, *send_one(direct[job.corpus.name], job)[:2], "direct")
            if checked_direct.ok and routed.ok:
                sample.append((job, checked_direct.doc["payload"], "direct"))
                sample.append((job, routed.doc["payload"], "routed"))
    report_setup(run, start)
    compare_in_process(run, corpora, sample, snapshots)


def check_hits(
    run: Run, checked: list[tuple[Any, Checked]], primed: dict[tuple[str, str], str]
) -> list[tuple[Any, Checked]]:
    """Fail every timed request that is not a hit returning its primed payload."""
    result = []
    for sample, c in checked:
        key = (sample.job.corpus.name, sample.job.instance.survey_id)
        reason = ""
        if c.ok and not c.serving["cached"]:
            reason = "missed the cache"
        elif c.ok and canonical_payload(c.doc["payload"]) != primed.get(key):
            reason = "cache hit differs from the primed payload"
        if reason:
            c = Checked(False, reason)
            run.gate.failed += 1
            run.gate.violation(f"routed {key[0]}/{key[1]}: {reason}")
        result.append((sample, c))
    return result


def tenant_swap(run: Run) -> None:
    """One replica holding one of two corpora at a time; requests alternate."""
    corpora = [run.corpus("a", run.seed, 10), run.corpus("b", run.seed + 1, 10)]
    start = partial(start_replica, run, corpora, "--max-resident", "1")
    replica = timed_setups(run, start)
    count = min(len(c.instances) for c in corpora)
    jobs = [
        Job(corpus, corpus.instances[index], use_cache=True)
        for index in range(count)
        for corpus in corpora
    ]
    if run.trace:
        twin = start_replica(run, corpora, "--max-resident", "1")
        for server in (replica, twin):
            swap_warm_up(run, server, jobs)
        last = traced_phase(run, [[replica.url, twin.url]], [jobs], twin)
        router_hop(run, front_with_router(run, replica, last), replica.url, last)
        run_layers(run, corpora[0])
        return
    swap_warm_up(run, replica, jobs)
    loop = closed_loop([[replica.url]], [jobs], send, run.seconds, min_requests=MIN_REQUESTS)
    checked = run.checked_loop(loop, "direct")
    report_loop(run, loop, checked, 1, prefix_f1(checked), [replica])
    report_setup(run, start)
    sample = [(s.job, c.doc["payload"], "direct") for s, c in checked[:CHECK_SAMPLE] if c.ok]
    compare_in_process(run, corpora, sample)


def swap_warm_up(run: Run, replica: Process, jobs: list[Job]) -> None:
    """The first swap of each corpus saves its snapshot; later ones only load."""
    with Client(replica.url) as client:
        for job in jobs[-4:]:
            run.check(job, *send_one(client, job)[:2], "warm")


def traced_phase(
    run: Run, targets: list[list[str]], jobs: list[list[Job]], twin: Process | None = None,
    probe: Callable[[], list[dict[str, Any]]] = list,
) -> Corpus:
    """The traced closed loop; returns the corpus last sent on connection 0."""
    loop = closed_loop(targets, [traced_jobs(client_jobs) for client_jobs in jobs],
                       send, run.seconds)
    if twin is not None:
        run.fleet.stop(twin)
    report_traced(run, run.checked_loop(loop, "traced"), probe())
    return [s for s in loop.samples if s.job.target == 0][-1].job.corpus


def probe(run: Run, url: str, corpus: Corpus, use_cache: bool) -> list[dict[str, Any]]:
    """Span trees of traced requests that run the stages the loop skips.

    With ``use_cache`` each probe is sent twice (a miss, then a hit), so the
    cache lookup is timed on workloads that bypass the cache; without it the
    pipeline stages are timed on workloads that only hit the cache.
    """
    traces = []
    with Client(url) as client:
        for instance in corpus.instances[-PROBES:]:
            job = Job(corpus, instance, use_cache=use_cache, debug=True)
            for _ in range(2 if use_cache else 1):
                checked = run.check(job, *send_one(client, job)[:2], "probe")
                if checked.ok:
                    traces.append(checked.serving["trace"])
    return traces


def run_layers(run: Run, corpus: Corpus) -> None:
    """In-process layer timings, once every server of the run has stopped."""
    run.fleet.stop_all()
    for name, value in in_process_metrics(corpus, PIPELINE, run.workdir).items():
        unit = "s" if name.endswith("_s") else "ms" if name.endswith("_ms") else "MiB"
        run.metric(name, value, unit)


WORKLOADS: dict[str, Callable[[Run], None]] = {
    "fresh-8k": lambda run: fresh(run, 80),
    "fresh-1k": lambda run: fresh(run, 10),
    "repeat-routed": repeat_routed,
    "tenant-swap": tenant_swap,
}
