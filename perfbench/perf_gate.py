"""Correctness gate: every response is checked, and any violation fails the run.

A ``/v1`` query response passes when it has status 200, the
``{"payload", "serving"}`` body shape, a non-empty ranked paper list that
matches its own ``stats.tree_size``, no excluded survey and no paper
published after the request's ``year_cutoff``.  Separately, for a seeded
sample the canonical payload (``stats.elapsed_seconds`` removed) must be
byte-identical whichever way it was obtained: directly from a replica,
through the router, or in-process from ``RePaGerApp.query``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.dataset.surveybank import SurveyBankInstance
from repro.eval.metrics import f1_at_k

from perf_inputs import LABEL_LEVEL

PAYLOAD_KEYS = {"query", "navigation", "nodes", "edges", "stats"}
F1_K = 30


@dataclass
class Checked:
    """Outcome of checking one response."""

    ok: bool
    reason: str = ""
    doc: dict[str, Any] | None = None

    @property
    def ranked(self) -> list[str]:
        return [node["paper_id"] for node in self.doc["payload"]["nodes"]]

    @property
    def serving(self) -> dict[str, Any]:
        return self.doc["serving"]


def check_response(
    status: int,
    body: bytes,
    instance: SurveyBankInstance,
    corpus: str,
    years: Mapping[str, int],
) -> Checked:
    if status != 200:
        return Checked(False, f"status {status}: {body[:200]!r}")
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        return Checked(False, f"unparseable body: {exc}")
    if not isinstance(doc, dict) or set(doc) != {"payload", "serving"}:
        return Checked(False, "body is not {payload, serving}")
    payload, serving = doc["payload"], doc["serving"]
    if not isinstance(payload, dict) or set(payload) != PAYLOAD_KEYS:
        return Checked(False, f"payload keys {sorted(payload)}")
    if not isinstance(serving, dict) or serving.get("corpus") != corpus:
        return Checked(False, f"serving block names corpus {serving.get('corpus')!r}")
    if not isinstance(serving.get("served_in_seconds"), (int, float)):
        return Checked(False, "serving.served_in_seconds missing")
    if payload["query"] != instance.query:
        return Checked(False, "payload echoes another query")
    ranked = [node.get("paper_id") for node in payload["nodes"]]
    if not ranked or len(ranked) != payload["stats"].get("tree_size"):
        return Checked(False, f"{len(ranked)} ranked papers vs stats {payload['stats']}")
    if len(set(ranked)) != len(ranked):
        return Checked(False, "duplicate papers in the ranking")
    if {item.get("paper_id") for item in payload["navigation"]} != set(ranked):
        return Checked(False, "navigation and nodes disagree")
    if instance.survey_id in ranked:
        return Checked(False, f"excluded survey {instance.survey_id} returned")
    for paper_id in ranked:
        year = years.get(paper_id)
        if year is None:
            return Checked(False, f"unknown paper {paper_id}")
        if year > instance.year:
            return Checked(False, f"{paper_id} ({year}) is after cutoff {instance.year}")
    return Checked(True, doc=doc)


def canonical_payload(payload: Mapping[str, Any]) -> str:
    """The payload with its wall-clock field removed, as sorted-key JSON."""
    doc = json.loads(json.dumps(payload))
    doc["stats"].pop("elapsed_seconds", None)
    return json.dumps(doc, sort_keys=True)


def f1_at_30(ranked: list[str], instance: SurveyBankInstance) -> float:
    return f1_at_k(ranked, instance.label(LABEL_LEVEL), F1_K).f1


class Gate:
    """Counts checked requests and keeps the first few violations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []

    def record(self, checked: Checked, where: str) -> None:
        self.attempted += 1
        if not checked.ok:
            self.failed += 1
            self.violation(f"{where}: {checked.reason}")

    def violation(self, message: str) -> None:
        if len(self.violations) < 10:
            self.violations.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.violations
