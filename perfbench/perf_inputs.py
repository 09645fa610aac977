"""Seeded inputs: synthetic corpora and the SurveyBank requests sent to them.

Every workload draws its corpora from ``CorpusGenerator`` with the
benchmark's ``--seed`` and turns each SurveyBank instance into one request
under the paper's protocol: the query is the survey's key phrases, the
publication cutoff is the survey's year and the survey itself is excluded.
The program under test receives only these requests.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.config import CorpusConfig
from repro.corpus.generator import CorpusGenerator
from repro.corpus.storage import CorpusStore
from repro.dataset.surveybank import SurveyBank, SurveyBankInstance

#: Surveys per topic for every benchmark corpus (99 topics -> 198 instances).
SURVEYS_PER_TOPIC = 2

#: Cutoff-year bands of the visiting order (198 instances -> 22 bands of 9).
YEAR_BANDS = 22

#: Ground-truth level used for F1@30: every reference of the survey (L1).
LABEL_LEVEL = 1


@dataclass(eq=False)
class Corpus:
    """One generated corpus on disk plus its requests in visiting order."""

    name: str
    directory: Path
    store: CorpusStore
    instances: list[SurveyBankInstance]

    def paper_years(self) -> dict[str, int]:
        return {paper.paper_id: paper.year for paper in self.store}


def visiting_order(bank: SurveyBank, seed: int) -> list[SurveyBankInstance]:
    """The instances in a seeded order that spreads evenly over cutoff years.

    The publication cutoff sets how much of the graph a query can reach, and
    with it most of the query's cost.  Instances sorted by (year, id) are cut
    into ``YEAR_BANDS`` bands; each round of the order takes one instance
    from every band, bands in a fresh seeded order.  A run that stops after
    any whole number of rounds has seen every band equally often.
    """
    rng = random.Random(seed)
    ordered = sorted(bank, key=lambda instance: (instance.year, instance.survey_id))
    size = -(-len(ordered) // YEAR_BANDS)
    bands = [ordered[start:start + size] for start in range(0, len(ordered), size)]
    for band in bands:
        rng.shuffle(band)
    order: list[SurveyBankInstance] = []
    for round_index in range(size):
        picks = [band[round_index] for band in bands if round_index < len(band)]
        rng.shuffle(picks)
        order += picks
    return order


def build_corpus(
    name: str, seed: int, papers_per_topic: int, directory: Path
) -> Corpus:
    """Generate the corpus for ``seed``, save it and order its requests."""
    config = CorpusConfig(
        seed=seed, papers_per_topic=papers_per_topic, surveys_per_topic=SURVEYS_PER_TOPIC
    )
    store = CorpusGenerator(config).generate().store
    store.save(directory)
    bank = SurveyBank.from_corpus(store)
    return Corpus(name, directory, store, visiting_order(bank, seed))


def request_body(
    instance: SurveyBankInstance, *, use_cache: bool, debug: bool = False
) -> dict[str, Any]:
    """The ``/v1/corpora/<name>/query`` body for one SurveyBank instance."""
    body: dict[str, Any] = {
        "query": instance.query,
        "year_cutoff": instance.year,
        "exclude_ids": [instance.survey_id],
        "use_cache": use_cache,
    }
    if debug:
        body["debug"] = True
    return body


def corpus_digest(directory: Path) -> str:
    """SHA-256 over the saved corpus files, in a fixed file order."""
    digest = hashlib.sha256()
    for filename in ("papers.jsonl", "surveys.jsonl"):
        digest.update(filename.encode("utf-8"))
        digest.update((directory / filename).read_bytes())
    return digest.hexdigest()
