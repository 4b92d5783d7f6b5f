"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the code paths they check: offsets come
from a naive substring scanner, neighbor counts from a raw edge scan,
retrieval scores from math.fsum arithmetic instead of numpy, prompts from
ElementTree instead of string assembly, a token budget by rendering every
candidate prompt instead of by word-count prefix sums, node and edge writes
from the one-at-a-time writers that ``GraphStore.insert`` replaced.
"""

from __future__ import annotations

import json
import math
import operator
import random
import re
from collections import Counter
from dataclasses import replace
from xml.etree import ElementTree as ET

import numpy as np

from causeway import store as store_module
from causeway.errors import BudgetTooSmallError, UnknownIdError, XmlCharacterError
from causeway.prompting import INSTRUCTIONS, OUTPUT_CONTRACT, PromptSpec, estimate_tokens
from causeway.retrieval import HybridConfig, RetrievalResult, hybrid_score
from causeway.store import (
    EMBEDDING_DIM,
    Edge,
    EdgeKind,
    GraphStore,
    Node,
    NodeKind,
    ScoringRows,
    StoreStats,
    _endpoint_fault,
    _kind_change,
    _missing_endpoint,
    check_embedding,
    screen_rows,
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


class ReferenceRecord:
    """The keys a snapshot record must hold and the types (for ``isinstance``)
    each one's value may take: the record check that ``store._fields``
    replaced, kept as its reference. So ``True`` passes as an int here."""

    def __init__(self, **types):
        self.types = types
        self._values = operator.itemgetter(*types)
        self._each = tuple(types.values())

    def values(self, path, where: str, rec) -> tuple:
        """The values of these keys in ``rec``, the snapshot's ``where``, if
        it is an object holding each of them with one of its types."""
        try:
            # only an object takes a string key; a key missing is a KeyError
            values = self._values(rec)
        except (TypeError, KeyError):
            raise ValueError(
                f"{path}: snapshot {where} must be an object with keys {sorted(self.types)}"
            ) from None
        if not all(map(isinstance, values, self._each)):
            for (name, types), value in zip(self.types.items(), values):
                if not isinstance(value, types):
                    raise ValueError(
                        f"{path}: snapshot {where} {name!r} must not be {type(value).__name__}"
                    )
        return values


# the reference record check of causeway.store's `vectors` type table
REFERENCE_VECTORS = ReferenceRecord(scoring=int, provider=(str, type(None)))


def read_snapshot(path) -> tuple[dict, np.ndarray]:
    """The JSON document and the vectors of the snapshot file at ``path``:
    an ``.npy`` array, then the document."""
    with open(path, "rb") as f:
        vectors = np.lib.format.read_array(f, allow_pickle=False)
        return json.loads(f.read().decode("utf-8")), vectors


def write_snapshot(path, doc, vectors) -> None:
    """Write a snapshot file at ``path``: ``vectors`` as an ``.npy`` array
    (an object array pickled), then ``doc`` as JSON, or as it is if bytes."""
    with open(path, "wb") as f:
        np.lib.format.write_array(f, np.asarray(vectors), allow_pickle=True)
        f.write(doc if isinstance(doc, bytes) else json.dumps(doc).encode("utf-8"))


def row_ids(store: GraphStore) -> list[str]:
    """Event ids of the store's scoring rows, in row order."""
    rows = store.scoring_rows()
    return list(map(rows.ids.__getitem__, rows.nodes.tolist()))


def store_state(store: GraphStore, model: bool = False) -> tuple:
    """Everything a node write can change, each vector, screen and norm to
    the bit: the nodes, the scoring rows' events, each row's vector read
    through its node, screens, norms and linked bits, ``embedded_by`` and
    stats; and without ``model`` the store's whole vector array too, which a
    ``ReferenceGraph`` does not hold."""
    rows = store.scoring_rows()
    return (
        [(node.id, node.kind, node.text,
          None if node.embedding is None else node.embedding.tobytes()) for node in store.nodes()],
        row_ids(store),
        rows.vectors[rows.vector_row[rows.nodes]].tobytes(),
        None if model else rows.vectors.tobytes(),
        rows.screens.tobytes(), rows.norms.tobytes(), rows.linked.tobytes(),
        store.embedded_by,
        store.stats().as_dict(),
    )


def held_rows_bound(store: GraphStore) -> int:
    """The most rows the store's one vector array may hold: twice the
    nodes with a vector, plus CHUNK_ROWS."""
    return 2 * store.stats().total_embedded + store_module.CHUNK_ROWS


class ReferenceGraph:
    """A plain-Python model of a store: a dict of nodes in insertion order,
    an ordered edge list and ``embedded_by``, written by
    ``reference_upsert_node`` and ``reference_add_edge``. It answers the
    public reads a store comparison makes (``nodes``, ``edges``,
    ``scoring_rows``, ``stats``, ``collect_texts``) from that model alone."""

    def __init__(self, store: GraphStore):
        """The model of ``store``'s content, read through its public reads."""
        self.node_map = {node.id: node for node in store.nodes()}
        self.edge_list = store.edges()
        self.embedded_by = store.embedded_by

    def write(self, node_id: str, checked, embedded_by: str | None = None) -> None:
        """One vector write, as the store made it before ``insert``. A
        vector written keeps ``embedded_by`` as the provider that made it
        only if the model held no vector just before, its node's own
        included, or held that provider's; so one written without a
        provider clears it."""
        node = self.node_map[node_id]
        if checked is not None:
            held = any(n.embedding is not None for n in self.node_map.values())
            kept = not held or self.embedded_by == embedded_by
            self.embedded_by = embedded_by if kept else None
        node.embedding = None if checked is None else checked[0]

    def nodes(self, kind: NodeKind | None = None) -> list[Node]:
        return [n for n in self.node_map.values() if kind is None or n.kind is kind]

    def edges(self) -> list[Edge]:
        return list(self.edge_list)

    def scoring_rows(self) -> ScoringRows:
        """One row per event with text and a vector, in node order (the
        order of ``node_map``): its node, screen, norm and linked bit; row
        ``r``'s vector is row ``r`` of ``vectors``."""
        ids = list(self.node_map)
        linked = {e.dst if e.kind is EdgeKind.CAUSES else e.src for e in self.edge_list}
        nodes = [i for i, node in enumerate(self.node_map.values())
                 if node.kind is NodeKind.EVENT and node.text is not None
                 and node.embedding is not None]
        vectors = [self.node_map[ids[i]].embedding for i in nodes]
        stack = np.array(vectors).reshape(-1, EMBEDDING_DIM)
        norms = np.array([check_embedding(v)[1] for v in vectors], dtype=np.float64)
        vector_row = np.full(len(ids), -1, dtype=np.int64)
        vector_row[nodes] = np.arange(len(nodes))
        return ScoringRows(
            ids=ids,
            screens=screen_rows(stack, norms),
            norms=norms,
            linked=np.array([ids[i] in linked for i in nodes], dtype=bool),
            nodes=np.array(nodes, dtype=np.int64),
            vectors=stack,
            vector_row=vector_row,
        )

    def stats(self) -> StoreStats:
        node_counts, embedded_counts, text_counts = ({k: 0 for k in NodeKind} for _ in range(3))
        for node in self.node_map.values():
            node_counts[node.kind] += 1
            embedded_counts[node.kind] += node.embedding is not None
            text_counts[node.kind] += node.text is not None
        edge_counts = {k: 0 for k in EdgeKind}
        for edge in self.edge_list:
            edge_counts[edge.kind] += 1
        return StoreStats(node_counts, edge_counts, embedded_counts, text_counts)

    def collect_texts(self, event_id: str) -> tuple[list[str], list[str], list[str]]:
        """(cause, effect, trigger) neighbor texts, from a scan of the edges."""
        texts = ([], [], [])
        for edge in self.edge_list:
            if edge.kind is EdgeKind.CAUSES and edge.dst == event_id:
                texts[0].append(self.node_map[edge.src].text or "")
            elif edge.kind is not EdgeKind.CAUSES and edge.src == event_id:
                n = 1 if edge.kind is EdgeKind.RESULTS_IN else 2
                texts[n].append(self.node_map[edge.dst].text or "")
        return texts


def reference_upsert_node(graph: ReferenceGraph, node: Node) -> str:
    """``GraphStore.upsert_node`` as it was before it became a one-node
    ``insert``: one node at a time. Kept as the reference that ``insert``
    must match call for call."""
    checked = None if node.embedding is None else check_embedding(node.embedding)
    existing = graph.node_map.get(node.id)
    if existing is None:
        existing = graph.node_map[node.id] = Node(node.id, node.kind, node.text)
        if checked is None:  # nothing to write
            return node.id
    elif existing.kind is not node.kind:
        raise _kind_change(node.id, existing.kind, node.kind)
    existing.text = node.text
    graph.write(node.id, checked)
    return node.id


def reference_add_edge(graph: ReferenceGraph, edge: Edge) -> None:
    """``GraphStore.add_edge`` as it was before it became a one-edge
    ``insert``: one edge at a time, held once."""
    src = graph.node_map.get(edge.src)
    dst = graph.node_map.get(edge.dst)
    if src is None or dst is None:
        raise _missing_endpoint(edge.src if src is None else edge.dst)
    fault = _endpoint_fault(edge.kind, src.kind, dst.kind)
    if fault is not None:
        raise fault
    if edge not in graph.edge_list:
        graph.edge_list.append(edge)


def reference_insert(graph: ReferenceGraph, nodes, edges) -> None:
    """What ``GraphStore.insert`` must write: each node, then each edge, one
    call at a time through the reference writers."""
    for node in nodes:
        reference_upsert_node(graph, node)
    for edge in edges:
        reference_add_edge(graph, edge)


def reference_set_embeddings(graph: ReferenceGraph, pairs, embedded_by: str | None) -> None:
    """What ``GraphStore.set_embeddings`` must write: every vector checked
    and every id found first, then one pair at a time."""
    checks = [None if vector is None else check_embedding(vector) for _, vector in pairs]
    for node_id, _ in pairs:
        if node_id not in graph.node_map:
            raise UnknownIdError(f"no node with id {node_id!r}")
    for (node_id, _), checked in zip(pairs, checks):
        graph.write(node_id, checked, embedded_by)


def reference_batch_embed(graph: ReferenceGraph, provider) -> None:
    """What ``batch_embed`` must write, one node at a time: each node with
    text and no vector, in insertion order, gets the vector held for its
    text by the last node other than an event holding one, if the model's
    vectors are the provider's, else the provider's vector of its text
    divided by its norm."""
    eligible = [n for n in graph.node_map.values() if n.text is not None and n.embedding is None]
    held = {}
    if eligible and graph.embedded_by == provider.identity:
        for node in graph.node_map.values():
            if node.kind is not NodeKind.EVENT and node.embedding is not None:
                held[node.text] = node.embedding
    for node in eligible:
        vector = held.get(node.text)
        if vector is None:
            arr, norm = check_embedding(provider.embed_batch([node.text])[0])
            vector = arr / norm
        graph.write(node.id, check_embedding(vector), provider.identity)


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


def full_scan_query(store: GraphStore, q, cfg: HybridConfig) -> list[RetrievalResult]:
    """``query`` as it was before the float32 screen: every row scored in
    float64. The reference that ``query`` must match result for result, to
    the bit."""
    qv, q_norm = check_embedding(q)

    with store.lock.read():
        rows = store.scoring_rows()
        # every stored vector scored, then each row's taken through its node
        dots = np.einsum("ij,j->i", rows.vectors, qv)[rows.vector_row[rows.nodes]]
        sims = np.clip(dots / (rows.norms * q_norm), -1.0, 1.0)
        linked = rows.linked
        scores = hybrid_score(sims, linked, cfg)
        candidates = np.flatnonzero(scores >= cfg.tau)
        if len(candidates) > cfg.k:
            top = scores[candidates]
            kth = np.partition(top, len(top) - cfg.k)[len(top) - cfg.k]
            candidates = candidates[top >= kth]
        ids = [rows.ids[node] for node in rows.nodes.tolist()]
        best = sorted(candidates.tolist(), key=lambda r: (-scores[r], ids[r]))[: cfg.k]
        texts = store.event_texts([ids[r] for r in best])
        return [
            RetrievalResult(
                event_id=ids[r],
                event_text=event_text,
                hybrid_score=float(scores[r]),
                embedding_similarity=float(sims[r]),
                structural_score=int(linked[r]),
                cause_count=len(cause_texts),
                effect_count=len(effect_texts),
                trigger_count=len(trigger_texts),
                cause_texts=tuple(cause_texts),
                effect_texts=tuple(effect_texts),
                trigger_texts=tuple(trigger_texts),
            )
            for r, (event_text, cause_texts, effect_texts, trigger_texts) in zip(best, texts)
        ]


def score_bits(results) -> list[tuple[str, str]]:
    return [(r.hybrid_score.hex(), r.embedding_similarity.hex()) for r in results]


def reference_event_subgraph_dot(store: GraphStore, event_id: str) -> str:
    """``export.event_subgraph_dot`` as it was before the store gave one
    event's edges: a scan of every stored edge."""
    from causeway.errors import NotAnEventError
    from causeway.export import render_dot

    event = store.get_node(event_id)
    if event.kind is not NodeKind.EVENT:
        raise NotAnEventError(f"{event_id!r} is a {event.kind.value}, not an Event")
    keep = {event_id}
    edges = []
    for edge in store.edges():
        if edge.src == event_id or edge.dst == event_id:
            edges.append(edge)
            keep.add(edge.src)
            keep.add(edge.dst)
    nodes = [store.get_node(node_id) for node_id in sorted(keep)]
    return render_dot(nodes, edges, name="event_subgraph")


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


# a copy of prompting's XML 1.0 Char check, kept here so the reference
# renderer does not share it
REFERENCE_XML_INVALID = re.compile(r"[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def reference_build_prompt(spec: PromptSpec) -> str:
    """The prompt as ElementTree renders it: the layout ``build_prompt`` must
    write byte for byte (``ET.indent`` then ``ET.tostring``)."""
    root = ET.Element("prompt")
    ET.SubElement(root, "instructions").text = INSTRUCTIONS

    rules_el = ET.SubElement(root, "rules")
    for n, rule in enumerate(spec.rules, start=1):
        rule_el = ET.SubElement(rules_el, "rule", {"n": str(n)})
        rule_el.text = rule

    examples_el = ET.SubElement(
        root,
        "examples",
        {
            "count": str(len(spec.examples)),
            "zero_shot": "true" if not spec.examples else "false",
        },
    )
    for example in spec.examples:
        ex_el = ET.SubElement(
            examples_el,
            "example",
            {"rank": str(example.rank), "label": str(example.label)},
        )
        ET.SubElement(ex_el, "text").text = example.event_text
        causes_el = ET.SubElement(ex_el, "causes")
        for text in example.cause_texts:
            ET.SubElement(causes_el, "cause").text = text
        effects_el = ET.SubElement(ex_el, "effects")
        for text in example.effect_texts:
            ET.SubElement(effects_el, "effect").text = text
        triggers_el = ET.SubElement(ex_el, "triggers")
        for text in example.trigger_texts:
            ET.SubElement(triggers_el, "trigger").text = text
        ET.SubElement(ex_el, "tagged_sentence").text = example.tagged_text

    ET.SubElement(root, "query").text = spec.query_sentence
    ET.SubElement(root, "output_format").text = OUTPUT_CONTRACT

    ET.indent(root)
    prompt = ET.tostring(root, encoding="unicode")
    bad = REFERENCE_XML_INVALID.search(prompt)
    if bad is not None:
        raise XmlCharacterError(
            f"prompt text holds {bad.group()!r}, which XML 1.0 cannot carry"
        )
    return prompt


def reference_token_budget_trim(spec: PromptSpec, max_tokens: int) -> PromptSpec:
    """The trim loop ``token_budget_trim`` replaced: render the prompt, drop
    the lowest-ranked example while it exceeds the budget, render again."""
    if max_tokens <= 0:
        raise ValueError("max_tokens must be positive")
    current = spec
    while estimate_tokens(reference_build_prompt(current)) > max_tokens:
        if not current.examples:
            raise BudgetTooSmallError(
                f"zero-shot prompt exceeds budget of {max_tokens} tokens"
            )
        current = replace(current, examples=current.examples[:-1])
    return current
