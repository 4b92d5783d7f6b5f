"""Embedded typed property graph for causal events.

Four node kinds (Event, Cause, Effect, Trigger), three edge kinds with a
fixed endpoint table:

    CAUSES:      Cause  -> Event
    RESULTS_IN:  Event  -> Effect
    HAS_TRIGGER: Event  -> Trigger

Storage is in-memory with optional JSON snapshot persistence. Edges have
set semantics (duplicates are idempotent) but preserve first-insertion
order, which fixes the order of collected neighbor texts; adjacency is
kept on each edge's one Event endpoint. Many readers or one writer.
"""

from __future__ import annotations

import json
import math
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from causeway.errors import (
    DimensionMismatchError,
    KindViolationError,
    MissingEndpointError,
    NotAnEventError,
    UnknownIdError,
    ZeroVectorError,
)

EMBEDDING_DIM = 384

SNAPSHOT_FORMAT = "causeway-graph-snapshot"
SNAPSHOT_VERSION = 1


class NodeKind(str, Enum):
    EVENT = "Event"
    CAUSE = "Cause"
    EFFECT = "Effect"
    TRIGGER = "Trigger"


class EdgeKind(str, Enum):
    CAUSES = "CAUSES"
    RESULTS_IN = "RESULTS_IN"
    HAS_TRIGGER = "HAS_TRIGGER"


# (source kind, destination kind) allowed per edge kind
EDGE_ENDPOINTS: dict[EdgeKind, tuple[NodeKind, NodeKind]] = {
    EdgeKind.CAUSES: (NodeKind.CAUSE, NodeKind.EVENT),
    EdgeKind.RESULTS_IN: (NodeKind.EVENT, NodeKind.EFFECT),
    EdgeKind.HAS_TRIGGER: (NodeKind.EVENT, NodeKind.TRIGGER),
}


def check_embedding(vector) -> np.ndarray:
    """Coerce to a float64 array; enforce dimension, finiteness, nonzero norm."""
    try:
        arr = np.asarray(vector, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionMismatchError(f"embedding entries must be numbers: {exc}") from exc
    if arr.shape != (EMBEDDING_DIM,):
        raise DimensionMismatchError(
            f"embedding must have shape ({EMBEDDING_DIM},), got {arr.shape}"
        )
    # squares are non-negative, so a nan or inf entry makes the sum non-finite;
    # a non-finite sum of finite entries (overflow) is still accepted
    squared_norm = float(arr.dot(arr))
    if not math.isfinite(squared_norm) and not np.isfinite(arr).all():
        raise DimensionMismatchError("embedding entries must be finite")
    if squared_norm == 0.0:  # cosine would reject it at query time
        raise ZeroVectorError("embedding has zero norm")
    return arr


@dataclass(eq=False)
class Node:
    id: str
    kind: NodeKind
    text: str | None = None
    embedding: np.ndarray | None = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        if (self.id, self.kind, self.text) != (other.id, other.kind, other.text):
            return False
        if self.embedding is None or other.embedding is None:
            return self.embedding is None and other.embedding is None
        return bool(np.array_equal(self.embedding, other.embedding))


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    kind: EdgeKind


@dataclass
class StoreStats:
    node_counts: dict[NodeKind, int]
    edge_counts: dict[EdgeKind, int]
    embedded_counts: dict[NodeKind, int]

    @property
    def total_nodes(self) -> int:
        return sum(self.node_counts.values())

    @property
    def total_edges(self) -> int:
        return sum(self.edge_counts.values())

    @property
    def total_embedded(self) -> int:
        return sum(self.embedded_counts.values())

    def as_dict(self) -> dict:
        return {
            "nodes": {k.value: v for k, v in self.node_counts.items()},
            "edges": {k.value: v for k, v in self.edge_counts.items()},
            "embedded": {k.value: v for k, v in self.embedded_counts.items()},
            "total_nodes": self.total_nodes,
            "total_edges": self.total_edges,
            "total_embedded": self.total_embedded,
        }


class _RWLock:
    """Many readers or one writer. Writers wait for readers to drain."""

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False

    @contextmanager
    def read(self):
        with self._cond:
            while self._writer:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self):
        with self._cond:
            while self._writer or self._readers:
                self._cond.wait()
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


# snapshot record keys and the JSON types each one's value may take
_NODE_FIELDS = {
    "id": str,
    "kind": str,
    "text": (str, type(None)),
    "embedding": (list, type(None)),
}
_EDGE_FIELDS = {"src": str, "dst": str, "kind": str}


def _snapshot_records(path, payload: dict, key: str, fields: dict) -> list:
    """The snapshot's ``key`` list, each record an object with typed ``fields``."""
    records = payload.get(key)
    if not isinstance(records, list):
        raise ValueError(f"{path}: snapshot {key!r} must be a list")
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or not rec.keys() >= fields.keys():
            raise ValueError(
                f"{path}: snapshot {key}[{i}] must be an object "
                f"with keys {sorted(fields)}"
            )
        for name, types in fields.items():
            if not isinstance(rec[name], types):
                raise ValueError(
                    f"{path}: snapshot {key}[{i}] {name!r} must not be "
                    f"{type(rec[name]).__name__}"
                )
    return records


class GraphStore:
    """In-memory causal property graph.

    Nodes are keyed by caller-assigned string ids (conventionally
    namespaced by kind, e.g. ``event:17``). Each fact is held once: a
    node's embedding lives only on the node, and retrieval scans those
    vectors directly.
    """

    def __init__(self):
        self._nodes: dict[str, Node] = {}
        # every edge once, in first-insertion order
        self._edges: dict[Edge, None] = {}
        # event id -> edge kind -> other-endpoint ids in insertion order
        self._adjacent: dict[str, dict[EdgeKind, list[str]]] = {}
        self.lock = _RWLock()

    # --- nodes ---

    def upsert_node(self, node: Node) -> str:
        embedding = None
        if node.embedding is not None:
            embedding = check_embedding(node.embedding)
        with self.lock.write():
            existing = self._nodes.get(node.id)
            if existing is not None:
                if existing.kind is not node.kind:
                    raise KindViolationError(
                        f"node {node.id!r} is {existing.kind.value}, "
                        f"cannot change to {node.kind.value}"
                    )
                existing.text = node.text
                existing.embedding = embedding
            else:
                self._nodes[node.id] = Node(node.id, node.kind, node.text, embedding)
        return node.id

    def get_node(self, node_id: str) -> Node:
        with self.lock.read():
            node = self._nodes.get(node_id)
        if node is None:
            raise UnknownIdError(f"no node with id {node_id!r}")
        return node

    def has_node(self, node_id: str) -> bool:
        with self.lock.read():
            return node_id in self._nodes

    def set_embedding(self, node_id: str, vector) -> None:
        """Set or clear (vector=None) one node's embedding."""
        self.set_embeddings([(node_id, vector)])

    def set_embeddings(self, pairs) -> None:
        """Set several embeddings under a single writer-lock acquisition."""
        checked = [
            (node_id, None if vec is None else check_embedding(vec))
            for node_id, vec in pairs
        ]
        with self.lock.write():
            for node_id, embedding in checked:
                node = self._nodes.get(node_id)
                if node is None:
                    raise UnknownIdError(f"no node with id {node_id!r}")
                node.embedding = embedding

    def nodes(self, kind: NodeKind | None = None) -> list[Node]:
        with self.lock.read():
            if kind is None:
                return list(self._nodes.values())
            return [n for n in self._nodes.values() if n.kind is kind]

    # --- edges ---

    def add_edge(self, edge: Edge) -> None:
        with self.lock.write():
            src = self._nodes.get(edge.src)
            dst = self._nodes.get(edge.dst)
            if src is None or dst is None:
                missing = edge.src if src is None else edge.dst
                raise MissingEndpointError(f"edge endpoint {missing!r} not in store")
            want_src, want_dst = EDGE_ENDPOINTS[edge.kind]
            if src.kind is not want_src or dst.kind is not want_dst:
                raise KindViolationError(
                    f"{edge.kind.value} requires {want_src.value}->{want_dst.value}, "
                    f"got {src.kind.value}->{dst.kind.value}"
                )
            if edge in self._edges:
                return
            self._edges[edge] = None
            if want_src is NodeKind.EVENT:
                event_id, other_id = edge.src, edge.dst
            else:
                event_id, other_id = edge.dst, edge.src
            neighbors = self._adjacent.setdefault(event_id, {})
            neighbors.setdefault(edge.kind, []).append(other_id)

    def edges(self) -> list[Edge]:
        with self.lock.read():
            return list(self._edges)

    # --- neighbor primitives ---

    def _require_event(self, event_id: str) -> Node:
        node = self._nodes.get(event_id)
        if node is None:
            raise UnknownIdError(f"no node with id {event_id!r}")
        if node.kind is not NodeKind.EVENT:
            raise NotAnEventError(f"{event_id!r} is a {node.kind.value}, not an Event")
        return node

    def neighbor_counts(self, event_id: str) -> tuple[int, int, int]:
        """(cause, effect, trigger) edge counts for one event."""
        with self.lock.read():
            self._require_event(event_id)
            adjacent = self._adjacent.get(event_id, {})
            n_cause = len(adjacent.get(EdgeKind.CAUSES, ()))
            n_effect = len(adjacent.get(EdgeKind.RESULTS_IN, ()))
            n_trigger = len(adjacent.get(EdgeKind.HAS_TRIGGER, ()))
        return n_cause, n_effect, n_trigger

    def collect_texts(self, event_id: str) -> tuple[list[str], list[str], list[str]]:
        """(cause, effect, trigger) neighbor texts in edge-insertion order."""
        with self.lock.read():
            self._require_event(event_id)
            adjacent = self._adjacent.get(event_id, {})
            causes = adjacent.get(EdgeKind.CAUSES, [])
            effects = adjacent.get(EdgeKind.RESULTS_IN, [])
            triggers = adjacent.get(EdgeKind.HAS_TRIGGER, [])

            def texts(ids: list[str]) -> list[str]:
                return [self._nodes[i].text or "" for i in ids]

            return texts(causes), texts(effects), texts(triggers)

    # --- reporting ---

    def stats(self) -> StoreStats:
        with self.lock.read():
            node_counts = {k: 0 for k in NodeKind}
            embedded_counts = {k: 0 for k in NodeKind}
            for node in self._nodes.values():
                node_counts[node.kind] += 1
                if node.embedding is not None:
                    embedded_counts[node.kind] += 1
            edge_counts = {k: 0 for k in EdgeKind}
            for edge in self._edges:
                edge_counts[edge.kind] += 1
        return StoreStats(node_counts, edge_counts, embedded_counts)

    def events_with_embeddings(self) -> Iterator[Node]:
        """Events with both an embedding and a text, in insertion order."""
        with self.lock.read():
            snapshot = list(self._nodes.values())
        for node in snapshot:
            if (
                node.kind is NodeKind.EVENT
                and node.embedding is not None
                and node.text is not None
            ):
                yield node

    # --- snapshot persistence ---

    def save(self, path: str | Path) -> None:
        payload = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "embedding_dim": EMBEDDING_DIM,
            "nodes": [
                {
                    "id": n.id,
                    "kind": n.kind.value,
                    "text": n.text,
                    "embedding": None if n.embedding is None else n.embedding.tolist(),
                }
                for n in self.nodes()
            ],
            "edges": [
                {"src": e.src, "dst": e.dst, "kind": e.kind.value}
                for e in self.edges()
            ],
        }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "GraphStore":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict) or payload.get("format") != SNAPSHOT_FORMAT:
            raise ValueError(f"{path}: not a {SNAPSHOT_FORMAT} file")
        if payload.get("version") != SNAPSHOT_VERSION:
            raise ValueError(f"{path}: unsupported snapshot version")
        nodes = _snapshot_records(path, payload, "nodes", _NODE_FIELDS)
        edges = _snapshot_records(path, payload, "edges", _EDGE_FIELDS)
        store = cls()
        for rec in nodes:
            store.upsert_node(
                Node(
                    id=rec["id"],
                    kind=NodeKind(rec["kind"]),
                    text=rec["text"],
                    embedding=rec["embedding"],
                )
            )
        for rec in edges:
            store.add_edge(Edge(rec["src"], rec["dst"], EdgeKind(rec["kind"])))
        return store
