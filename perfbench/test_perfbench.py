"""Fast checks of the benchmark's own logic (seconds; no servers started).

The multi-minute benchmark runs live in ``run.py``/``sweep.py``, which pytest does
not collect; these tests cover its seeded inputs, correctness gate, span
arithmetic and comparison verdicts.
"""

from __future__ import annotations

import json

from perf_client import Sample
from perf_gate import Checked, canonical_payload, check_response
from perf_inputs import build_corpus, corpus_digest, request_body
from perf_layers import span_metrics
from perf_workloads import Job, Run, check_hits
from compare import exact_verdict, verdict
from sweep import run_order


def _requests(seed, directory):
    corpus = build_corpus("c", seed, 10, directory)
    bodies = [request_body(instance, use_cache=False) for instance in corpus.instances]
    return corpus, bodies


def test_seed_fixes_requests_and_corpus(tmp_path):
    first, first_bodies = _requests(3, tmp_path / "first")
    again, again_bodies = _requests(3, tmp_path / "again")
    other, other_bodies = _requests(4, tmp_path / "other")
    assert first_bodies == again_bodies
    assert corpus_digest(first.directory) == corpus_digest(again.directory)
    assert first_bodies != other_bodies
    assert corpus_digest(first.directory) != corpus_digest(other.directory)
    body = first_bodies[0]
    instance = first.instances[0]
    assert body == {
        "query": instance.query,
        "year_cutoff": instance.year,
        "exclude_ids": [instance.survey_id],
        "use_cache": False,
    }


class _Instance:
    survey_id = "s1"
    year = 2010
    query = "graph neural networks"


def _response(nodes, status=200):
    payload = {
        "query": _Instance.query,
        "navigation": [{"paper_id": pid} for pid in nodes],
        "nodes": [{"paper_id": pid} for pid in nodes],
        "edges": [],
        "stats": {"tree_size": len(nodes), "elapsed_seconds": 0.25},
    }
    serving = {"corpus": "c", "served_in_seconds": 0.3, "cached": False}
    return status, json.dumps({"payload": payload, "serving": serving}).encode()


def test_gate_accepts_valid_and_rejects_each_violation():
    years = {"p1": 2001, "p2": 2009, "late": 2015, "s1": 2010}
    assert check_response(*_response(["p1", "p2"]), _Instance, "c", years).ok
    for nodes, status in ((["p1"], 500), (["p1", "s1"], 200), (["p1", "late"], 200), ([], 200)):
        assert not check_response(*_response(nodes, status), _Instance, "c", years).ok
    assert not check_response(*_response(["p1"]), _Instance, "other", years).ok


def test_canonical_payload_ignores_wall_clock_only():
    _, body = _response(["p1"])
    payload = json.loads(body)["payload"]
    slower = json.loads(json.dumps(payload))
    slower["stats"]["elapsed_seconds"] = 9.0
    assert canonical_payload(payload) == canonical_payload(slower)
    slower["nodes"].reverse()
    slower["nodes"].append({"paper_id": "p2"})
    assert canonical_payload(payload) != canonical_payload(slower)


def test_span_metrics_coverage_and_self_time():
    spans = [
        {"span_id": "q", "parent_id": None, "name": "queue_wait",
         "start_seconds": 0.000, "duration_seconds": 0.002},
        {"span_id": "p", "parent_id": None, "name": "pipeline",
         "start_seconds": 0.001, "duration_seconds": 0.010},
        {"span_id": "k", "parent_id": "p", "name": "k_hop_expand",
         "start_seconds": 0.001, "duration_seconds": 0.004},
        {"span_id": "c", "parent_id": "p", "name": "cost_bind",
         "start_seconds": 0.005, "duration_seconds": 0.004},
    ]
    metrics = span_metrics([{"duration_seconds": 0.015, "spans": spans}])
    assert abs(metrics["core.span_coverage_ratio"] - 0.8) < 1e-9
    assert abs(metrics["app.query_self_ms"] - 4.0) < 1e-9  # 15 ms - union(0..11 ms)
    assert metrics["core.prepared_reuse_ratio"] == 0.0
    assert abs(metrics["core.k_hop_expand_ms"] - 4.0) < 1e-9


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    pairs = lambda new: list(zip(base, new))  # noqa: E731
    faster = [90.0, 91.0, 89.0, 90.5, 89.5]
    assert verdict(base, faster, pairs(faster), False, 0.1)[0] == "improved"
    slower = [130.0, 131.0, 129.0, 130.5, 129.5]
    assert verdict(base, slower, pairs(slower), False, 0.1)[0] == "worse"
    same = [100.2, 100.9, 99.1, 100.4, 99.6]
    assert verdict(base, same, pairs(same), False, 0.1)[0] == "no-worse"
    noisy = [60.0, 140.0, 100.0, 70.0, 130.0]
    assert verdict(noisy, same, pairs(same), False, 0.1)[0] == "unresolved"


def test_exact_metrics_are_judged_seed_by_seed():
    f1 = [(0.29, 0.29), (0.28, 0.28), (0.30, 0.30)]
    assert exact_verdict(f1, True) == ("no-worse", 0.0)
    assert exact_verdict([(0.29, 0.29), (0.28, 0.27), (0.30, 0.31)], True)[0] == "worse"
    assert exact_verdict([(0.29, 0.29), (0.28, 0.285)], True)[0] == "improved"
    assert exact_verdict([], True)[0] == "unresolved"


def test_sweep_rotates_which_checkout_runs_first():
    checkouts = ["parent", "change"]
    assert [run_order(checkouts, i)[0] for i in range(4)] == [
        "parent", "change", "parent", "change"]
    assert run_order(["this"], 3) == ["this"]


def test_timed_hits_must_match_their_primed_payload(tmp_path):
    corpus = type("Corpus", (), {"name": "c"})()
    job = Job(corpus, _Instance, use_cache=True)
    primed = {("c", "s1"): canonical_payload(json.loads(_response(["p1"])[1])["payload"])}

    def timed(nodes, cached=True):
        doc = json.loads(_response(nodes)[1])
        doc["serving"]["cached"] = cached
        return Sample(job, 200, b"", 0.01), Checked(True, doc=doc)

    run = Run(tmp_path, tmp_path, 1, 1.0, False)
    checked = check_hits(run, [timed(["p1"]), timed(["p1"], cached=False), timed(["p2"])],
                         primed)
    assert [c.ok for _, c in checked] == [True, False, False]
    assert run.gate.failed == 2 and not run.gate.correct
