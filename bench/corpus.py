"""Seeded generators for the benchmark's store corpus, eval set and deltas.

Two thirds of the sentences (rounded) are causal: a cause, a trigger and an
effect span drawn from a fixed news-like vocabulary, wrapped in filler.
The rest carry no tags. Store sentences use only the ``SEEN_TRIGGERS``;
eval sentences mix those with ``UNSEEN_TRIGGERS``, so the mock client,
which labels a sentence causal when an example's trigger occurs in it,
produces both labels. Everything is a pure function of the seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from causeway.evaluation import EvalRecord

CAUSAL_SHARE = 2 / 3
TRIGGER_TAG = re.compile(r"<trigger>(.*?)</trigger>")

CAUSES = [
    "heavy rain", "the port strike", "a sharp rise in interest rates",
    "the drought", "a cyberattack on the grid", "falling oil prices",
    "the new tariff", "a shortage of chips", "the heatwave",
    "a surge in demand", "the central bank decision", "a factory fire",
    "the bridge collapse", "weak consumer spending", "the currency slump",
    "a wave of layoffs", "the pipeline leak", "an outbreak of flu",
    "the election result", "record wheat harvests",
]
EFFECTS = [
    "flooding in the delta", "delays at the harbour", "lower home sales",
    "crop failures", "blackouts across the region", "cheaper petrol",
    "higher import costs", "slower car production", "crowded hospitals",
    "longer queues at stores", "a stronger bond market", "job losses",
    "traffic chaos downtown", "a drop in retail profits", "pricier imports",
    "protests in the capital", "closed beaches", "school closures",
    "a rally in shares", "lower bread prices",
]
SEEN_TRIGGERS = [
    "led to", "caused", "resulted in", "triggered", "brought about",
    "gave rise to", "was followed by", "paved the way for",
]
UNSEEN_TRIGGERS = ["sparked", "fuelled", "provoked", "set off"]
PLACES = [
    "in Lagos", "in Lima", "in Oslo", "in Dhaka", "in Perth", "in Quito",
    "in Accra", "in Hanoi", "in Turin", "in Leeds", "in Tampa", "in Pune",
]
DAYS = ["on Monday", "on Tuesday", "on Wednesday", "on Thursday", "on Friday",
        "last week", "this spring", "over the weekend"]
SOURCES = ["officials said", "analysts noted", "reports show",
           "the ministry confirmed", "local media reported", ""]
SUBJECTS = ["the mayor", "the council", "investors", "the union",
            "the minister", "shoppers", "farmers", "the regulator"]
ACTIONS = ["met to discuss the budget", "visited the new museum",
           "announced a holiday schedule", "opened a training centre",
           "published the annual report", "hosted a trade fair",
           "praised the volunteers", "reviewed the city plan"]


@dataclass(frozen=True)
class Expected:
    """Store contents that a list of corpus records must produce."""

    events: int
    causes: int
    effects: int
    triggers: int

    @property
    def nodes(self) -> int:
        return self.events + self.causes + self.effects + self.triggers

    @property
    def edges(self) -> int:
        return self.causes + self.effects + self.triggers

    def __add__(self, other: "Expected") -> "Expected":
        return Expected(self.events + other.events, self.causes + other.causes,
                        self.effects + other.effects, self.triggers + other.triggers)

    def stats_dict(self) -> dict:
        """The ``StoreStats.as_dict()`` of a fully embedded store."""
        nodes = {"Event": self.events, "Cause": self.causes,
                 "Effect": self.effects, "Trigger": self.triggers}
        edges = {"CAUSES": self.causes, "RESULTS_IN": self.effects,
                 "HAS_TRIGGER": self.triggers}
        return {"nodes": nodes, "edges": edges, "embedded": dict(nodes),
                "total_nodes": self.nodes, "total_edges": self.edges,
                "total_embedded": self.nodes}


def _filler(rng: random.Random) -> tuple[str, str]:
    source = rng.choice(SOURCES)
    return f"{rng.choice(PLACES)} {rng.choice(DAYS)}", (f", {source}" if source else "")


def causal_sentence(rng: random.Random, triggers: list[str]) -> tuple[str, str]:
    """(tagged, plain) text of one cause-trigger-effect sentence."""
    cause, trigger, effect = rng.choice(CAUSES), rng.choice(triggers), rng.choice(EFFECTS)
    where, source = _filler(rng)
    tagged = (f"<cause>{cause}</cause> {where} <trigger>{trigger}</trigger> "
              f"<effect>{effect}</effect>{source}")
    return tagged, f"{cause} {where} {trigger} {effect}{source}"


def plain_sentence(rng: random.Random) -> str:
    where, source = _filler(rng)
    return f"{rng.choice(SUBJECTS)} {rng.choice(ACTIONS)} {where}{source}"


def causal_positions(rng: random.Random, n: int) -> set[int]:
    """Which of n sentences are causal: the same number for every seed."""
    return set(rng.sample(range(n), round(n * CAUSAL_SHARE)))


def corpus_records(rng: random.Random, n: int, prefix: str) -> tuple[list[dict], Expected]:
    """n ingestable records with ids ``<prefix><i>`` and their expected counts."""
    records = []
    causal = causal_positions(rng, n)
    for i in range(n):
        if i in causal:
            tagged, _ = causal_sentence(rng, SEEN_TRIGGERS)
            gold = 1
        else:
            tagged, gold = plain_sentence(rng), 0
        records.append({"id": f"{prefix}{i}", "tagged_text": tagged, "gold_label": gold})
    return records, Expected(n, len(causal), len(causal), len(causal))


def triggers_of(record: dict) -> list[str]:
    """Trigger texts tagged in a corpus record."""
    return TRIGGER_TAG.findall(record["tagged_text"])


def eval_records(rng: random.Random, n: int) -> list[EvalRecord]:
    """Untagged eval sentences; causal ones use seen and unseen triggers alike."""
    out = []
    causal = causal_positions(rng, n)
    for i in range(n):
        if i in causal:
            triggers = SEEN_TRIGGERS if rng.random() < 0.5 else UNSEEN_TRIGGERS
            _, text = causal_sentence(rng, triggers)
            out.append(EvalRecord(f"q{i}", text, 1))
        else:
            out.append(EvalRecord(f"q{i}", plain_sentence(rng), 0))
    return out


def query_texts(rng: random.Random, n: int) -> list[str]:
    return [r.text for r in eval_records(rng, n)]
