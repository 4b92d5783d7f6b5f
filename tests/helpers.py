"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the code paths they check: offsets come
from a naive substring scanner, neighbor counts from a raw edge scan,
retrieval scores from math.fsum arithmetic instead of numpy.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np

from causeway.store import (
    EMBEDDING_DIM,
    Edge,
    EdgeKind,
    GraphStore,
    Node,
    NodeKind,
)

# fixed-width distinct tokens: span texts can only match at token boundaries,
# so every generated span text occurs exactly once in its sentence
WORDS = [f"tok{i:03d}" for i in range(1000)]

KIND_TO_TAG = {
    NodeKind.CAUSE: "cause",
    NodeKind.EFFECT: "effect",
    NodeKind.TRIGGER: "trigger",
}


def make_tagged_sentence(rng: random.Random) -> tuple[str, str, list[tuple[NodeKind, str]]]:
    """Random flat-tagged sentence.

    Returns (tagged_text, raw_text, [(kind, span_text), ...] in document order).
    """
    n_words = rng.randint(3, 14)
    words = rng.sample(WORDS, n_words)
    raw_text = " ".join(words)

    spans: list[tuple[int, int, NodeKind]] = []  # word ranges [i, j)
    i = 0
    while i < n_words:
        if spans and len(spans) >= 4:
            break
        if rng.random() < 0.35:
            j = min(n_words, i + rng.randint(1, 2))
            kind = rng.choice([NodeKind.CAUSE, NodeKind.EFFECT, NodeKind.TRIGGER])
            spans.append((i, j, kind))
            i = j
        else:
            i += 1

    parts = []
    expected = []
    cursor = 0
    for i, j, kind in spans:
        parts.extend(words[cursor:i])
        tag = KIND_TO_TAG[kind]
        span_text = " ".join(words[i:j])
        parts.append(f"<{tag}>{span_text}</{tag}>")
        expected.append((kind, span_text))
        cursor = j
    parts.extend(words[cursor:])
    return " ".join(parts), raw_text, expected


def naive_span_offsets(raw_text: str, span_texts: list[str]) -> list[tuple[int, int]]:
    """Independent scanner: first occurrence of each span text in the raw text."""
    offsets = []
    for text in span_texts:
        idx = raw_text.find(text)
        assert idx != -1, f"span {text!r} not found by scanner"
        offsets.append((idx, idx + len(text)))
    return offsets


def random_unit_vector(np_rng: np.random.Generator) -> np.ndarray:
    vec = np_rng.standard_normal(EMBEDDING_DIM)
    return vec / np.linalg.norm(vec)


def random_store(
    rng: random.Random,
    n_events: int | None = None,
    embed_fraction: float = 0.85,
    text_fraction: float = 0.9,
) -> GraphStore:
    """Random store with valid typed edges, mixed embedding/text coverage."""
    if n_events is None:
        n_events = rng.randint(1, 200)
    np_rng = np.random.default_rng(rng.randrange(2**63))
    store = GraphStore()
    for i in range(n_events):
        event_id = f"event:{i}"
        text = f"event sentence {i}" if rng.random() < text_fraction else None
        store.upsert_node(Node(event_id, NodeKind.EVENT, text=text))
        for kind, edge_kind in (
            (NodeKind.CAUSE, EdgeKind.CAUSES),
            (NodeKind.EFFECT, EdgeKind.RESULTS_IN),
            (NodeKind.TRIGGER, EdgeKind.HAS_TRIGGER),
        ):
            for j in range(rng.choice([0, 0, 0, 1, 1, 2, 3])):
                node_id = f"{kind.value.lower()}:{i}:{j}"
                store.upsert_node(Node(node_id, kind, text=f"{kind.value} {i} {j}"))
                if edge_kind is EdgeKind.CAUSES:
                    store.add_edge(Edge(node_id, event_id, edge_kind))
                else:
                    store.add_edge(Edge(event_id, node_id, edge_kind))
        if rng.random() < embed_fraction:
            store.set_embedding(event_id, random_unit_vector(np_rng))
    return store


def live_row_ids(store: GraphStore) -> list[str]:
    """Event ids of the store's live scoring rows, in row order."""
    rows = store.scoring_rows()
    return [event_id for event_id, alive in zip(rows.ids, rows.alive) if alive]


def oracle_neighbor_counts(store: GraphStore, event_id: str) -> tuple[int, int, int]:
    """Brute-force single-pass edge scan, independent of store adjacency."""
    n_cause = n_effect = n_trigger = 0
    for edge in store.edges():
        if edge.kind is EdgeKind.CAUSES and edge.dst == event_id:
            n_cause += 1
        elif edge.kind is EdgeKind.RESULTS_IN and edge.src == event_id:
            n_effect += 1
        elif edge.kind is EdgeKind.HAS_TRIGGER and edge.src == event_id:
            n_trigger += 1
    return n_cause, n_effect, n_trigger


def oracle_query(store: GraphStore, q, cfg) -> list[tuple[str, float, float, int]]:
    """Score-everything-and-sort oracle using pure-Python arithmetic.

    Returns [(event_id, hybrid, sim, structural), ...] ranked like query().
    """
    q_list = [float(x) for x in q]
    q_norm = math.sqrt(math.fsum(x * x for x in q_list))

    cause_counts: Counter = Counter()
    effect_counts: Counter = Counter()
    trigger_counts: Counter = Counter()
    for edge in store.edges():
        if edge.kind is EdgeKind.CAUSES:
            cause_counts[edge.dst] += 1
        elif edge.kind is EdgeKind.RESULTS_IN:
            effect_counts[edge.src] += 1
        else:
            trigger_counts[edge.src] += 1

    rows = []
    for node in store.nodes(NodeKind.EVENT):
        if node.embedding is None or node.text is None:
            continue
        e_list = [float(x) for x in node.embedding]
        e_norm = math.sqrt(math.fsum(x * x for x in e_list))
        sim = math.fsum(x * y for x, y in zip(e_list, q_list)) / (e_norm * q_norm)
        sim = max(-1.0, min(1.0, sim))
        total_neighbors = (
            cause_counts[node.id] + effect_counts[node.id] + trigger_counts[node.id]
        )
        s = 1 if total_neighbors > 0 else 0
        h = cfg.alpha * sim + cfg.beta * s
        if h >= cfg.tau:
            rows.append((node.id, h, sim, s))
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows[: cfg.k]


def count_dot_statements(dot_text: str) -> tuple[int, int]:
    """Trivial DOT reader: (node statements, edge statements)."""
    nodes = edges = 0
    for line in dot_text.splitlines():
        stripped = line.strip()
        if not stripped.startswith('"'):
            continue
        if '" -> "' in stripped:
            edges += 1
        elif "[label=" in stripped:
            nodes += 1
    return nodes, edges


def reference_corpus() -> list[dict]:
    """Synthetic corpus matching the reference ingestion profile.

    1030 tagged records of which 9 are marked irrelevant; the 1021 kept
    sentences carry 1147 cause, 1118 effect and 1102 trigger spans in total
    (so 3367 relationships; the per-kind sums are the ground truth here).
    """
    n_relevant = 1021
    extra_causes = 1147 - n_relevant
    extra_effects = 1118 - n_relevant
    extra_triggers = 1102 - n_relevant
    records = []
    for i in range(n_relevant):
        causes = [f"cause {i}a"] + ([f"cause {i}b"] if i < extra_causes else [])
        effects = [f"effect {i}a"] + ([f"effect {i}b"] if i < extra_effects else [])
        triggers = [f"signal {i}a"] + ([f"signal {i}b"] if i < extra_triggers else [])
        pieces = [f"<cause>{c}</cause>" for c in causes]
        pieces += [f"<trigger>{t}</trigger>" for t in triggers]
        pieces += [f"<effect>{e}</effect>" for e in effects]
        records.append(
            {
                "id": f"ref-{i}",
                "tagged_text": " ".join(pieces),
                "gold_label": 1,
                "relevant": True,
            }
        )
    for i in range(9):
        records.append(
            {
                "id": f"irr-{i}",
                "tagged_text": f"<cause>x {i}</cause> noise <effect>y {i}</effect>",
                "gold_label": 0,
                "relevant": False,
            }
        )
    return records
