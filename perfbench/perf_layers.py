"""Per-layer measurements for the traced run, all taken from outside.

Two sources, neither of which changes the program:

* the span tree a replica returns inline for ``debug: true`` requests
  (stage spans, their tags and the root ``query`` trace);
* timed calls, in the benchmark's own process, into each layer's public
  functions: ``CorpusStore.load``, the phases of ``warm_up()`` (their peak
  memory in a fresh interpreter), ``ArtifactSnapshot`` save/load/restore and
  ``RePaGerApp.evict``.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.config import PipelineConfig, ServingConfig
from repro.corpus.storage import CorpusStore
from repro.repager.app import QueryOptions, RePaGerApp
from repro.repager.service import RePaGerService
from repro.search.engine import SearchEngine
from repro.serving.warmup import ArtifactSnapshot

from perf_inputs import Corpus

#: Span stage -> per-layer metric (median over the requests that ran it, in ms).
STAGE_METRICS = {
    "postings_search": "search.postings_search_ms",
    "k_hop_expand": "core.k_hop_expand_ms",
    "seed_reallocation": "core.seed_reallocation_ms",
    "edge_relevance_slice": "core.edge_relevance_slice_ms",
    "cost_bind": "core.cost_bind_ms",
    "padding": "core.padding_ms",
    "ranking": "core.ranking_ms",
    "pipeline": "core.pipeline_ms",
    "steiner_solve": "graph.steiner_solve_ms",
    "cache_lookup": "service.cache_lookup_ms",
    "payload_assembly": "service.payload_assembly_ms",
}

MIB = 1024.0 * 1024.0


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _stage_ms(traces: list[dict[str, Any]], stage: str) -> list[float]:
    """Per request that ran ``stage``: its summed span time in ms."""
    values = []
    for trace in traces:
        durations = [s["duration_seconds"] for s in trace["spans"] if s["name"] == stage]
        if durations:
            values.append(sum(durations) * 1e3)
    return values


def _runs(trace: dict[str, Any], stage: str) -> bool:
    return any(span["name"] == stage for span in trace["spans"])


def span_metrics(
    traces: list[dict[str, Any]], probes: list[dict[str, Any]] = ()
) -> dict[str, float]:
    """Stage medians, prepared-cost reuse, span coverage and app self time.

    A stage's metric is its median over the requests that ran it; a stage
    none of ``traces`` ran is taken from ``probes`` instead.
    """
    metrics = {
        name: median(_stage_ms(traces, stage) or _stage_ms(probes, stage))
        for stage, name in STAGE_METRICS.items()
    }
    solved = [t for t in traces if _runs(t, "pipeline")] or [
        t for t in probes if _runs(t, "pipeline")
    ]
    solves = cost_binds = 0
    pipeline_total = stage_total = 0.0
    for trace in solved:
        spans = trace["spans"]
        pipelines = {span["span_id"] for span in spans if span["name"] == "pipeline"}
        solves += len(pipelines)
        cost_binds += sum(1 for span in spans if span["name"] == "cost_bind")
        for span in spans:
            if span["span_id"] in pipelines:
                pipeline_total += span["duration_seconds"]
            elif span.get("parent_id") in pipelines:
                stage_total += span["duration_seconds"]
    metrics["core.prepared_reuse_ratio"] = 1.0 - cost_binds / solves if solves else 0.0
    metrics["core.span_coverage_ratio"] = (
        stage_total / pipeline_total if pipeline_total else 0.0
    )
    self_ms = []
    for trace in traces:
        roots = [
            (span["start_seconds"], span["start_seconds"] + span["duration_seconds"])
            for span in trace["spans"]
            if span.get("parent_id") is None
        ]
        self_ms.append((trace["duration_seconds"] - _covered(roots)) * 1e3)
    metrics["app.query_self_ms"] = median(self_ms)
    return metrics


def _timed(call: Callable[[], Any]) -> float:
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def _warm_phases(service: RePaGerService) -> dict[str, Callable[[], Any]]:
    """The phases of ``warm_up()`` in its order, on the indexed backend."""
    pipeline = service.pipeline
    engine = service.search_engine

    def search_index() -> None:
        if isinstance(engine, SearchEngine):
            engine.warm()
            engine.ensure_index()

    return {
        "warmup.csr_s": lambda: pipeline.indexed_graph,
        "warmup.edge_relevance_s": lambda: pipeline.weight_builder.edge_relevance(),
        "warmup.search_index_s": search_index,
        "warmup.pagerank_s": lambda: pipeline.node_weights,
    }


def _peak_rss_mb() -> float:
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE).group(1)) / 1024.0


def warm_up_growth_mb(directory: str, num_seeds: int) -> float:
    """Peak-RSS growth of this process over the warm-up phases, in MiB."""
    store = CorpusStore.load(directory)
    service = RePaGerService(store, pipeline_config=PipelineConfig(num_seeds=num_seeds))
    before = _peak_rss_mb()
    for phase in _warm_phases(service).values():
        phase()
    return _peak_rss_mb() - before


_GROWTH_SCRIPT = (
    "import sys; from perf_layers import warm_up_growth_mb; "
    "print(warm_up_growth_mb(sys.argv[1], int(sys.argv[2])))"
)


def _warm_up_growth_in_child(directory: Path, pipeline_config: PipelineConfig) -> float:
    # A fresh interpreter, so nothing earlier in the run sets its peak.
    # tracemalloc would slow the 8k warm-up from ~3 s to ~50 s.
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    completed = subprocess.run(
        [sys.executable, "-c", _GROWTH_SCRIPT, str(directory), str(pipeline_config.num_seeds)],
        env=env, capture_output=True, text=True, check=True,
    )
    return float(completed.stdout.split()[-1])


def in_process_metrics(
    corpus: Corpus, pipeline_config: PipelineConfig, workdir: Path
) -> dict[str, float]:
    """Storage, warm-up, snapshot and app-lifecycle timings on one corpus."""
    metrics: dict[str, float] = {}
    metrics["corpus.store_load_s"] = median(
        _timed(lambda: CorpusStore.load(corpus.directory)) for _ in range(3)
    )
    store = CorpusStore.load(corpus.directory)

    service = RePaGerService(store, pipeline_config=pipeline_config)
    for name, phase in _warm_phases(service).items():
        metrics[name] = _timed(phase)

    metrics["warmup.alloc_mb"] = _warm_up_growth_in_child(corpus.directory, pipeline_config)

    path = workdir / "layers.snapshot.json"
    snapshot = ArtifactSnapshot.capture(service)
    metrics["warmup.snapshot_save_s"] = _timed(lambda: snapshot.save(path))
    metrics["warmup.snapshot_mb"] = path.stat().st_size / MIB
    loaded: list[ArtifactSnapshot] = []
    metrics["warmup.snapshot_load_s"] = _timed(
        lambda: loaded.append(ArtifactSnapshot.load(path))
    )
    target = RePaGerService(store, pipeline_config=pipeline_config)
    metrics["warmup.snapshot_restore_s"] = _timed(lambda: loaded[0].restore_into(target))
    del service, target, loaded, snapshot

    metrics.update(_lifecycle(corpus, pipeline_config))
    return metrics


def _lifecycle(corpus: Corpus, pipeline_config: PipelineConfig) -> dict[str, float]:
    """``RePaGerApp.evict`` and the re-attach paid by the next query."""
    instance = corpus.instances[0]
    options = QueryOptions(
        query=instance.query,
        year_cutoff=instance.year,
        exclude_ids=(instance.survey_id,),
        use_cache=False,
        debug=True,
    )
    with RePaGerApp(config=ServingConfig(), pipeline_config=pipeline_config) as app:
        app.attach_directory(corpus.name, str(corpus.directory), default=True)
        app.query(options, corpus=corpus.name)  # builds the artifacts evict saves
        evict_s = _timed(lambda: app.evict(corpus.name))
        started = time.perf_counter()
        response = app.query(options, corpus=corpus.name)
        latency = time.perf_counter() - started
    pipeline_s = sum(
        span["duration_seconds"]
        for span in response.trace["spans"]
        if span["name"] == "pipeline"
    )
    return {"app.evict_ms": evict_s * 1e3, "app.reattach_ms": (latency - pipeline_s) * 1e3}
