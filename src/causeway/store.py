"""Embedded typed property graph for causal events.

Four node kinds (Event, Cause, Effect, Trigger), three edge kinds with a
fixed endpoint table:

    CAUSES:      Cause  -> Event
    RESULTS_IN:  Event  -> Effect
    HAS_TRIGGER: Event  -> Trigger

Storage is in-memory with optional snapshot persistence: a JSON document
of nodes and edges plus one ``.npy`` file of their vectors. Edges have
set semantics (duplicates are idempotent) but preserve first-insertion
order, which fixes the order of collected neighbor texts; adjacency is
kept on each edge's one Event endpoint. Many readers or one writer.

Every event with both text and an embedding owns one scoring row: its
vector, written once into a fixed-size chunk, plus the vector's norm, a
linked bit (the event has a causal edge) and an alive flag. The event's
``embedding`` is a read-only view of that row, so each vector is held
once. A new vector gets a new row and only marks the old one dead, so a
view a caller holds never changes; live rows are copied into fresh
chunks once dead rows outnumber them by a chunk.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import re
import threading
import zipfile
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from causeway.errors import (
    CausewayError,
    DimensionMismatchError,
    KindViolationError,
    MissingEndpointError,
    NotAnEventError,
    UnknownIdError,
    ZeroVectorError,
)

EMBEDDING_DIM = 384
# scoring rows per chunk: 512 x 384 float64 is 1.5 MB
CHUNK_ROWS = 512

SNAPSHOT_FORMAT = "causeway-graph-snapshot"
SNAPSHOT_VERSION = 2  # what save writes; load also reads version 1
VECTOR_DTYPE = "<f8"
# hex digits of the vectors' sha256 in the sidecar's name
_HASH_CHARS = 16


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


def check_embedding(vector) -> tuple[np.ndarray, float]:
    """The vector as a float64 array, and its L2 norm; enforce dimension
    and a finite nonzero norm."""
    try:
        arr = np.asarray(vector, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionMismatchError(f"embedding entries must be numbers: {exc}") from exc
    if arr.shape != (EMBEDDING_DIM,):
        raise DimensionMismatchError(
            f"embedding must have shape ({EMBEDDING_DIM},), got {arr.shape}"
        )
    # squares are non-negative, so a nan or inf entry makes the sum non-finite,
    # and so do finite entries whose squares overflow: no cosine exists for
    # either. np.vdot, unlike ndarray.dot, raises no numpy floating-point
    # warning, and costs far less than entering np.errstate on every call.
    squared_norm = float(np.vdot(arr, arr))
    if not math.isfinite(squared_norm):
        raise DimensionMismatchError("embedding must have finite entries and a finite norm")
    if squared_norm == 0.0:  # cosine would reject it at query time
        raise ZeroVectorError("embedding is a zero vector")
    return arr, math.sqrt(squared_norm)


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


class Edge(NamedTuple):
    """A typed edge; a tuple, so building and hashing one run in C."""

    src: str
    dst: str
    kind: EdgeKind


@dataclass(frozen=True)
class ScoringRows:
    """A store's scoring rows, valid while the caller holds ``store.lock.read()``.

    ``chunks`` hold the vectors of rows ``0 .. len(ids) - 1`` in order;
    ``norms``, ``linked`` and ``alive`` have one entry per row. A dead row
    keeps its id and vector until compaction drops it.
    """

    ids: list[str]
    chunks: list[np.ndarray]
    norms: np.ndarray
    linked: np.ndarray
    alive: np.ndarray


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


class _Record:
    """The keys a snapshot record must hold and the JSON types each one's
    value may take. One ``itemgetter`` call fetches a record's values: a
    per-key check cost 3 ms more of a 21 ms load of 500 events (2-vCPU VM)."""

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


# a version 1 node carries its embedding, version 2 keeps vectors in the sidecar
_NODE = _Record(id=str, kind=str, text=(str, type(None)))
_V1_NODE = _Record(**_NODE.types, embedding=(list, type(None)))
_EDGE = _Record(src=str, dst=str, kind=str)
_VECTORS = _Record(file=str, dtype=str, shape=list, rows=list)
# the kind each value of a record's "kind" names: one dict lookup per
# record, not an Enum call
_NODE_KINDS = {kind.value: kind for kind in NodeKind}
_EDGE_KINDS = {kind.value: kind for kind in EdgeKind}


def _snapshot_list(path, payload: dict, key: str) -> list:
    records = payload.get(key)
    if not isinstance(records, list):
        raise ValueError(f"{path}: snapshot {key!r} must be a list")
    return records


def _in_record(path, where: str, exc: Exception) -> Exception:
    """``exc`` again, of its own class, its message naming the snapshot
    and the record."""
    return type(exc)(f"{path}: snapshot {where}: {exc}")


def _read_document(path: Path) -> dict:
    """The snapshot document at ``path``, if it is of a version load reads."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except RecursionError as exc:
        raise ValueError(f"{path}: snapshot JSON nests too deeply") from exc
    if not isinstance(payload, dict) or payload.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(f"{path}: not a {SNAPSHOT_FORMAT} file")
    version = payload.get("version")
    if type(version) is not int or version not in (1, 2):
        raise ValueError(f"{path}: unsupported snapshot version")
    return payload


class _MissingVectors(ValueError):
    """The vector file a snapshot names is not there."""


def _sidecar_path(path: Path, name) -> Path:
    """The vector file ``name`` beside the snapshot at ``path``: only a bare
    file name ``.<snapshot name>.<hash>.npy`` is one."""
    pattern = rf"\.{re.escape(path.name)}\.[0-9a-f]{{{_HASH_CHARS}}}\.npy"
    if not isinstance(name, str) or not re.fullmatch(pattern, name):
        raise ValueError(f"{path}: {name!r} is not a vector file name of this snapshot")
    return path.with_name(name)


def _open_vectors(path: Path, payload: dict) -> tuple[list, np.ndarray, str | None]:
    """A version 2 snapshot's node id of each row (not yet checked against
    the nodes), its vectors mapped read-only from the vector file, and the
    record's ``provider``. A zero or non-finite vector raises what
    ``check_embedding`` raises."""
    record = payload.get("vectors")
    file, dtype, shape, rows = _VECTORS.values(path, "'vectors'", record)
    # absent from snapshots written before the identity was recorded
    embedded_by = record.get("provider")
    if not isinstance(embedded_by, (str, type(None))):
        raise ValueError(f"{path}: snapshot vectors 'provider' must be a string or null")
    want = (len(rows), EMBEDDING_DIM)
    if dtype != VECTOR_DTYPE or shape != list(want):
        raise ValueError(f"{path}: snapshot vectors must be {VECTOR_DTYPE} of shape {want}")
    sidecar = _sidecar_path(path, file)
    try:
        # mapped, so a header that declares more data than the file holds
        # fails here instead of allocating it
        mapped = np.load(sidecar, mmap_mode="r", allow_pickle=False)
    except FileNotFoundError as exc:
        raise _MissingVectors(f"{path}: vector file {sidecar.name} is missing") from exc
    except (ValueError, EOFError, OSError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{sidecar}: not a .npy vector file: {exc}") from exc
    if not isinstance(mapped, np.ndarray):  # an .npz archive
        mapped.close()
        raise ValueError(f"{sidecar}: not a .npy vector file")
    if mapped.dtype != np.dtype(VECTOR_DTYPE) or mapped.shape != want:
        raise ValueError(f"{sidecar}: vectors must be {VECTOR_DTYPE} of shape {want}")
    # the refusals of check_embedding, for every row at once
    with np.errstate(over="ignore", invalid="ignore"):
        squared = np.einsum("ij,ij->i", mapped, mapped)
    bad = np.flatnonzero(~np.isfinite(squared) | (squared == 0.0))
    if bad.size:
        row = bad[0]
        if squared[row] == 0.0:
            raise ZeroVectorError(f"{sidecar}: vector of {rows[row]!r} is a zero vector")
        raise DimensionMismatchError(
            f"{sidecar}: vector of {rows[row]!r} must have finite entries and a finite norm"
        )
    return rows, mapped, embedded_by


def _write_atomic(path: Path, write) -> str:
    """Call ``write`` on a temporary file beside ``path``, fsync it and
    rename it to the file name ``write`` returns: a reader or a crash sees
    the old file or the new one, never part of one."""
    # unique per process and thread, in the target's directory so that
    # os.replace stays one rename on one file system
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with tmp.open("wb") as f:
            name = write(f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path.with_name(name))
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return name


def _vector_blocks(chunks: list[np.ndarray], live: np.ndarray, others: list[np.ndarray]):
    """The vectors of scoring rows ``live`` (ascending) of ``chunks``, then
    ``others``, in blocks of at most CHUNK_ROWS rows."""
    bounds = np.searchsorted(live, np.arange(len(chunks) + 1) * CHUNK_ROWS)
    for chunk, lo, hi in zip(chunks, bounds[:-1], bounds[1:]):
        yield chunk[live[lo:hi] % CHUNK_ROWS]
    for start in range(0, len(others), CHUNK_ROWS):
        yield np.stack(others[start : start + CHUNK_ROWS])


class _FirstObject(Exception):
    """Raised by _stop_at_first_object with the first JSON object to close."""

    def __init__(self, record: dict):
        self.record = record


def _stop_at_first_object(pairs):
    raise _FirstObject(dict(pairs))


def _named_sidecar(path: Path) -> str | None:
    """The vector file name the snapshot at ``path`` names, if any. Its
    ``vectors`` record is the document's first object to close, so parsing
    stops there instead of building every node and edge."""
    try:
        json.loads(path.read_bytes(), object_pairs_hook=_stop_at_first_object)
    except _FirstObject as first:
        with suppress(ValueError):
            return _sidecar_path(path, first.record.get("file")).name
    except (OSError, ValueError, RecursionError):
        pass
    return None


def _discard(path: Path) -> None:
    with suppress(OSError):
        path.unlink(missing_ok=True)


class GraphStore:
    """In-memory causal property graph.

    Nodes are keyed by caller-assigned string ids (conventionally
    namespaced by kind, e.g. ``event:17``). Each fact is held once: an
    event's embedding is a read-only view of its scoring row, any other
    node's embedding lives on the node alone.
    """

    def __init__(self):
        self._nodes: dict[str, Node] = {}
        # every edge once, in first-insertion order
        self._edges: dict[Edge, None] = {}
        # event id -> edge kind -> other-endpoint ids in insertion order
        self._adjacent: dict[str, dict[EdgeKind, list[str]]] = {}
        # scoring rows in write order, CHUNK_ROWS per chunk; dead rows stay
        # (alive False) until _compact_if_sparse copies the live ones out
        self._chunks: list[np.ndarray] = []
        self._row_ids: list[str] = []
        self._norms = np.empty(0)
        self._linked = np.empty(0, dtype=bool)
        self._alive = np.empty(0, dtype=bool)
        self._row_of: dict[str, int] = {}  # event id -> its live row
        self._embedded = 0  # nodes with an embedding
        self._embedded_by: str | None = None
        self.lock = _RWLock()

    @property
    def embedded_by(self) -> str | None:
        """The identity of the provider that made every stored vector, or
        None if that is unknown. ``batch_embed`` sets it, a snapshot keeps
        it, and any other vector written clears it."""
        return self._embedded_by

    # --- nodes ---

    def upsert_node(self, node: Node) -> str:
        checked = None if node.embedding is None else check_embedding(node.embedding)
        with self.lock.write():
            if checked is not None:
                self._embedded_by = None
            existing = self._nodes.get(node.id)
            if existing is None:
                existing = self._nodes[node.id] = Node(node.id, node.kind, node.text)
            elif existing.kind is not node.kind:
                raise KindViolationError(
                    f"node {node.id!r} is {existing.kind.value}, "
                    f"cannot change to {node.kind.value}"
                )
            else:
                existing.text = node.text
            self._place(existing, checked)
            self._compact_if_sparse()
        return node.id

    def get_node(self, node_id: str) -> Node:
        with self.lock.read():
            node = self._nodes.get(node_id)
        if node is None:
            raise UnknownIdError(f"no node with id {node_id!r}")
        return node

    def set_embedding(self, node_id: str, vector) -> None:
        """Set or clear (vector=None) one node's embedding."""
        self.set_embeddings([(node_id, vector)])

    def set_embeddings(self, pairs, embedded_by: str | None = None) -> None:
        """Set several embeddings under a single writer-lock acquisition.

        ``embedded_by`` names the provider that made the vectors; the store
        keeps it as ``embedded_by`` only if that provider made every vector
        it held before, and writing a vector without it clears that.
        """
        checked = [
            (node_id, None if vec is None else check_embedding(vec))
            for node_id, vec in pairs
        ]
        with self.lock.write():
            if any(vector is not None for _, vector in checked):
                if self._embedded and self._embedded_by != embedded_by:
                    embedded_by = None
                self._embedded_by = embedded_by
            for node_id, vector in checked:
                node = self._nodes.get(node_id)
                if node is None:
                    raise UnknownIdError(f"no node with id {node_id!r}")
                self._place(node, vector)
            self._compact_if_sparse()

    def _place(self, node: Node, checked: tuple[np.ndarray, float | None] | None) -> None:
        """Give ``node`` an (embedding, norm) from ``check_embedding``, or
        none; an event with text gets a fresh row. Only a row needs the norm.

        The node's old row, if any, is only marked dead; rows are written
        once, so views of them that callers hold keep their values.
        """
        self._embedded += (checked is not None) - (node.embedding is not None)
        row = self._row_of.pop(node.id, None)
        if row is not None:
            self._alive[row] = False
        if checked is None or node.kind is not NodeKind.EVENT or node.text is None:
            node.embedding = None if checked is None else checked[0]
            return
        embedding, norm = checked
        row = len(self._row_ids)
        chunk, offset = divmod(row, CHUNK_ROWS)
        if chunk == len(self._chunks):
            self._chunks.append(np.empty((CHUNK_ROWS, EMBEDDING_DIM)))
            self._norms = np.concatenate((self._norms, np.empty(CHUNK_ROWS)))
            self._linked = np.concatenate((self._linked, np.zeros(CHUNK_ROWS, dtype=bool)))
            self._alive = np.concatenate((self._alive, np.zeros(CHUNK_ROWS, dtype=bool)))
        view = self._chunks[chunk][offset]
        view[:] = embedding
        view.flags.writeable = False
        self._norms[row] = norm
        self._linked[row] = node.id in self._adjacent
        self._alive[row] = True
        self._row_ids.append(node.id)
        self._row_of[node.id] = row
        node.embedding = view

    def _compact_if_sparse(self) -> None:
        """Copy the live rows into fresh chunks once dead rows outnumber them
        by a chunk, so the row count stays below twice the live rows plus one
        chunk. Old chunks live on only in views that callers still hold."""
        if len(self._row_ids) - 2 * len(self._row_of) < CHUNK_ROWS:
            return
        live, ids, norms = sorted(self._row_of.values()), self._row_ids, self._norms
        self._chunks, self._row_ids, self._row_of = [], [], {}
        self._norms = np.empty(0)
        self._linked = np.empty(0, dtype=bool)
        self._alive = np.empty(0, dtype=bool)
        for row in live:
            node = self._nodes[ids[row]]
            self._place(node, (node.embedding, norms[row]))

    def scoring_rows(self) -> ScoringRows:
        """The scoring rows as arrays, for retrieval to score in bulk."""
        with self.lock.read():
            n = len(self._row_ids)
            return ScoringRows(
                ids=self._row_ids,
                chunks=[c[: n - i * CHUNK_ROWS] for i, c in enumerate(self._chunks)],
                norms=self._norms[:n],
                linked=self._linked[:n],
                alive=self._alive[:n],
            )

    def nodes(self, kind: NodeKind | None = None) -> list[Node]:
        with self.lock.read():
            if kind is None:
                return list(self._nodes.values())
            return [n for n in self._nodes.values() if n.kind is kind]

    # --- edges ---

    def add_edge(self, edge: Edge) -> None:
        with self.lock.write():
            self._link(edge)

    def _link(self, edge: Edge) -> None:
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
        row = self._row_of.get(event_id)
        if row is not None:
            self._linked[row] = True

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

    # --- snapshot persistence ---

    def save(self, path: str | Path) -> None:
        """Write the snapshot: a JSON document at ``path`` and, beside it,
        one ``.npy`` file of every vector, named after their sha256.

        Each file goes to a temporary name, is fsynced and renamed into
        place, the vectors first. Renaming the JSON commits, so a reader
        or a crash sees the old pair or the new one. The vector file the
        old JSON named is then deleted.
        """
        with self.lock.read():  # nodes, edges and vectors from one consistent view
            live = np.flatnonzero(self._alive[: len(self._row_ids)])
            others = [
                n
                for n in self._nodes.values()
                if n.embedding is not None and n.id not in self._row_of
            ]
            rows = [self._row_ids[row] for row in live.tolist()] + [n.id for n in others]
            # rows are written once and an embedding is replaced, not changed,
            # so these arrays still hold this view's vectors after the lock
            blocks = _vector_blocks(list(self._chunks), live, [n.embedding for n in others])
            # kinds are str enums, which JSON writes as their values
            nodes = [{"id": n.id, "kind": n.kind, "text": n.text} for n in self._nodes.values()]
            edges = [{"src": e.src, "dst": e.dst, "kind": e.kind} for e in self._edges]
            embedded_by = self._embedded_by
        path = Path(path)
        shape = (len(rows), EMBEDDING_DIM)

        def write_vectors(f) -> str:
            header = {"descr": VECTOR_DTYPE, "fortran_order": False, "shape": shape}
            np.lib.format.write_array_header_1_0(f, header)
            digest = hashlib.sha256()
            for block in blocks:
                digest.update(block)
                f.write(block)
            return f".{path.name}.{digest.hexdigest()[:_HASH_CHARS]}.npy"

        old = _named_sidecar(path)
        name = _write_atomic(path.with_name(f"{path.name}.npy"), write_vectors)
        payload = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "embedding_dim": EMBEDDING_DIM,
            # before the nodes, so that _named_sidecar finds it first
            "vectors": {
                "file": name,
                "dtype": VECTOR_DTYPE,
                "shape": list(shape),
                "rows": rows,
                "provider": embedded_by,
            },
            "nodes": nodes,
            "edges": edges,
        }

        def write_document(f) -> str:
            f.write(json.dumps(payload, separators=(",", ":")).encode("utf-8"))
            return path.name

        try:
            _write_atomic(path, write_document)
        except BaseException:
            if name != old:  # the old JSON still names its own vectors
                _discard(path.with_name(name))
            raise
        if old is not None and old != name:
            _discard(path.with_name(old))

    @classmethod
    def load(cls, path: str | Path) -> "GraphStore":
        """Read a snapshot of either version. Every refusal names the file:
        a malformed document or vector file is a ValueError, and a record
        the store refuses names the record too (``nodes[i]``, ``edges[j]``)
        with the error its writer raises: ValueError for an unknown kind or
        a repeated node id, KindViolationError for a repeated id of another
        kind, what ``add_edge`` raises for an edge. A zero or non-finite
        vector raises what ``check_embedding`` raises."""
        path = Path(path)
        try:
            return cls()._fill(path)
        except _MissingVectors:  # a save committed between the JSON and its vectors
            return cls()._fill(path)

    def _fill(self, path: Path) -> "GraphStore":
        """Fill this new, unshared store from the snapshot at ``path`` in
        one pass: each record is checked as its node or edge is built, and
        the vectors go to their nodes and scoring rows in bulk."""
        payload = _read_document(path)
        v1 = payload["version"] == 1
        records = _snapshot_list(path, payload, "nodes")
        edges = _snapshot_list(path, payload, "edges")
        if v1:
            node_record, row_ids = _V1_NODE, []
            # each checked vector is written straight into its row, not
            # kept in a list beside this array
            count = sum(
                isinstance(rec, dict) and rec.get("embedding") is not None for rec in records
            )
            vectors = np.empty((count, EMBEDDING_DIM))
        else:
            node_record = _NODE
            row_ids, vectors, self._embedded_by = _open_vectors(path, payload)
        nodes = self._nodes
        for i, rec in enumerate(records):
            where = f"nodes[{i}]"
            node_id, value, text, *embedding = node_record.values(path, where, rec)
            kind = _NODE_KINDS.get(value)
            if kind is None:
                raise ValueError(f"{path}: snapshot {where}: {value!r} is not a valid NodeKind")
            if node_id in nodes:
                first = next(j for j, other in enumerate(records) if other["id"] == node_id)
                where = f"nodes[{first}] and {where}"
                old = nodes[node_id].kind
                if old is not kind:
                    raise KindViolationError(
                        f"{path}: snapshot {where}: node {node_id!r} is {old.value}, "
                        f"cannot change to {kind.value}"
                    )
                raise ValueError(f"{path}: snapshot {where} repeat the node id {node_id!r}")
            nodes[node_id] = Node(node_id, kind, text)
            if v1 and embedding[0] is not None:
                try:
                    vectors[len(row_ids)] = check_embedding(embedding[0])[0]
                except CausewayError as exc:
                    raise _in_record(path, where, exc) from exc
                row_ids.append(node_id)
        if not v1 and (
            not all(isinstance(r, str) and r in nodes for r in row_ids)
            or len(set(row_ids)) < len(row_ids)
        ):
            raise ValueError(f"{path}: snapshot vector rows must be distinct node ids")
        self._fill_vectors(row_ids, vectors)
        for j, rec in enumerate(edges):
            where = f"edges[{j}]"
            src, dst, value = _EDGE.values(path, where, rec)
            kind = _EDGE_KINDS.get(value)
            if kind is None:
                raise ValueError(f"{path}: snapshot {where}: {value!r} is not a valid EdgeKind")
            try:
                self._link(Edge(src, dst, kind))
            except CausewayError as exc:
                raise _in_record(path, where, exc) from exc
        return self

    def _fill_vectors(self, ids: list[str], vectors: np.ndarray) -> None:
        """Give node ``ids[i]`` the checked vector ``vectors[i]``, read-only:
        each event with text in a new scoring row, in this order, every
        other node on the node itself."""
        nodes = self._nodes
        scored, others = [], []
        for i, node_id in enumerate(ids):
            node = nodes[node_id]
            (scored if node.kind is NodeKind.EVENT and node.text is not None else others).append(i)
        rest = np.empty((len(others), EMBEDDING_DIM))
        # one copy straight into ``rest``; every index is a row of ``vectors``
        np.take(vectors, others, axis=0, out=rest, mode="clip")
        rest.flags.writeable = False
        for i, vector in zip(others, rest):
            nodes[ids[i]].embedding = vector
        n = len(scored)
        self._chunks = [np.empty((CHUNK_ROWS, EMBEDDING_DIM)) for _ in range(0, n, CHUNK_ROWS)]
        capacity = len(self._chunks) * CHUNK_ROWS
        self._norms = np.empty(capacity)
        self._linked = np.zeros(capacity, dtype=bool)  # set as edges are linked
        self._alive = np.zeros(capacity, dtype=bool)
        self._alive[:n] = True
        self._row_ids = [ids[i] for i in scored]
        self._row_of = dict(zip(self._row_ids, range(n)))
        for start, chunk in zip(range(0, n, CHUNK_ROWS), self._chunks):
            part = chunk[: n - start]
            np.take(vectors, scored[start : start + CHUNK_ROWS], axis=0, out=part, mode="clip")
            # check_embedding's norm exactly, so scores survive a save and load
            self._norms[start : start + len(part)] = [
                math.sqrt(np.vdot(row, row)) for row in part
            ]
            part = part.view()
            part.flags.writeable = False
            for node_id, row in zip(self._row_ids[start : start + CHUNK_ROWS], part):
                nodes[node_id].embedding = row
        self._embedded = len(ids)
