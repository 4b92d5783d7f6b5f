"""Embedded typed property graph for causal events.

Four node kinds (Event, Cause, Effect, Trigger), three edge kinds with a
fixed endpoint table:

    CAUSES:      Cause  -> Event
    RESULTS_IN:  Event  -> Effect
    HAS_TRIGGER: Event  -> Trigger

Storage is in-memory with optional snapshot persistence: one file, the
NumPy ``.npy`` array of the vectors followed by a JSON document of nodes
and edges. The store holds the graph as columns, as a snapshot does: per
node (numbered in insertion order) an id, a kind code, a text and a
vector; per edge its two node numbers and a kind code. Edges have set
semantics (duplicates are idempotent) but preserve first-insertion order,
which fixes the order of collected neighbor texts; each event keeps its
neighbours' numbers in that order, one list per edge kind, so it is
linked when it has any. Reads build ``Node`` and ``Edge`` values:
changing one changes nothing stored, and every vector a read gives is a
read-only view of a row never written again. A vector is copied into a
row of the store's one vector array when written. Nodes share a row when
one write gives them one read-only array, or they hold one text and
equal bytes.
Many readers or one writer: one ``insert`` writes any number of nodes and
edges under one write lock, and one ``numbered_texts`` reads the texts
of any number of events (a query's results) under one read lock.

A snapshot (version 4) holds its records as columns: per node an id, a
kind, a text and the row of its vector in the ``.npy`` array (-1 for
none); per edge the indexes of its two nodes and a kind. The array holds
the scoring rows first, in scoring order, then each distinct vector the
other nodes hold, once: nodes with equal vectors (``batch_embed`` gives
every node of one text the same array) share a row of the file, and after
a load they share that row in the store, whose vector array is a copy of
the file's. Loading reads the file through one open file object, mapping
the rows from it, so a save that renames a new file into place meanwhile
is not seen. It checks every column in bulk and fills the store's
columns from the file's, with no step per record: each norm is the root
of the vector's row of the one ``einsum`` that checks the whole array,
the kernel ``check_embedding`` runs on one row, so a norm is the same to
the bit either way. Each check is a mask
over the records and the refusal of a record it flags, the refusal built
as the store's writers build theirs; a load names the first faulty
record, with the refusal of the first check that flags it. Versions 1 to
3, JSON documents alone or beside a vector file, are refused: such a
store is built again by ``ingest`` and ``embed``.

Every event with both text and an embedding owns one scoring row: the
screen of its vector, the vector divided by its norm (``screen_rows``) in
float32, the norm, a linked bit (the event has a causal edge), an alive
flag and the event's node number. ``retrieval.query`` screens every row
in one product before it scores in float64 the few that can reach the
top k, their vectors gathered through their nodes: half the bytes per
row scanned, for 1.5 KB more per event. Every column grows by doubling
(``_room``), the room of a vector array never written. One bulk append
writes the new scoring rows, for a write and a load alike. A new vector
gets a new row and only marks the old one dead; growth and compaction
(once dead scoring rows outnumber the live ones by ``CHUNK_ROWS``, or the
vector array holds ``CHUNK_ROWS`` rows more than twice the nodes with a
vector) make new arrays, so a view a caller holds never changes, and
pins the whole array it was read from.
"""

from __future__ import annotations

import io
import json
import math
import mmap
import operator
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
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
# compaction comes once dead scoring rows outnumber the live ones by this
# many (so too the rows of _vecs, against the nodes with a vector); save
# writes this many rows in one block
CHUNK_ROWS = 512

SNAPSHOT_FORMAT = "causeway-graph-snapshot"
SNAPSHOT_VERSION = 4  # the one version save writes and load reads
VECTOR_DTYPE = "<f8"


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


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """The squared L2 norm of each row of the C-contiguous ``rows``: the one
    kernel every stored norm comes from, a row's the same to the bit in a
    stack of any height. It raises no numpy floating-point warning."""
    return np.einsum("ij,ij->i", rows, rows)


def screen_rows(rows: np.ndarray, norms, out: np.ndarray | None = None) -> np.ndarray:
    """Each of ``rows`` (one vector, or a stack) divided by its norm (a
    number, or one per row) in float64, then rounded to float32: the one
    formula of a screen, for the stored rows and a query vector alike.
    Written into ``out`` if given, with no float64 temporary of the rows'
    size."""
    if out is None:
        out = np.empty(rows.shape, dtype=np.float32)
    return np.divide(rows, np.expand_dims(norms, -1), out=out, casting="same_kind")


def check_embedding(vector) -> tuple[np.ndarray, float]:
    """The vector as a contiguous float64 array, and its L2 norm; enforce
    dimension and a finite nonzero norm."""
    try:
        arr = np.asarray(vector, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionMismatchError(f"embedding entries must be numbers: {exc}") from exc
    if arr.shape != (EMBEDDING_DIM,):
        raise DimensionMismatchError(
            f"embedding must have shape ({EMBEDDING_DIM},), got {arr.shape}"
        )
    if not arr.flags.c_contiguous:  # the kernel sums a strided row in another order
        arr = np.ascontiguousarray(arr)
    # squares are non-negative, so a nan or inf entry makes the sum non-finite,
    # and so do finite entries whose squares overflow: no cosine exists for either
    squared_norm = float(_squared_norms(arr[None])[0])
    if not math.isfinite(squared_norm):
        raise DimensionMismatchError("embedding must have finite entries and a finite norm")
    if squared_norm == 0.0:  # cosine would reject it at query time
        raise ZeroVectorError("embedding is a zero vector")
    return arr, math.sqrt(squared_norm)


def check_embeddings(vectors: list) -> tuple[list[tuple[np.ndarray, float]], CausewayError | None]:
    """``check_embedding`` of each of ``vectors`` up to the first it
    refuses, and that refusal (None if none). A batch that passes takes its
    norms from one kernel call, the same to the bit, and gives the arrays
    ``check_embedding`` gives."""
    try:
        rows = np.array(vectors, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        rows = None
    if rows is not None and rows.shape == (len(vectors), EMBEDDING_DIM):
        squared = _squared_norms(rows)
        if np.isfinite(squared).all() and squared.all():
            arrays = [np.ascontiguousarray(v, dtype=np.float64) for v in vectors]
            return list(zip(arrays, np.sqrt(squared).tolist())), None
    checks = []
    for vector in vectors:
        try:
            checks.append(check_embedding(vector))
        except CausewayError as exc:
            return checks, exc
    return checks, None


# slots: an ingest holds one per span of its records until its one insert
@dataclass(eq=False, slots=True)
class Node:
    """A node as a value: the store keeps its fields in columns and builds a
    new ``Node`` for each read, so changing one changes nothing stored."""

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

    ``screens`` holds the ``screen_rows`` of rows ``0 .. len(ids) - 1`` in
    float32, and ``norms``, ``linked``, ``alive`` and ``nodes`` (its
    event's node number) one entry per row; ``vectors`` is the store's one
    array of every stored vector and ``vector_row`` each node's row of it
    (-1 for none), so a live row ``r``'s vector is
    ``vectors[vector_row[nodes[r]]]``. Each is a read-only view of the
    store's array. Once appended, a row changes only its alive flag and
    linked bit, in place, when it dies or its event gains an edge; a dead
    row keeps its id and screen until compaction drops it, and its node
    may hold another vector by then.
    """

    ids: list[str]
    screens: np.ndarray
    norms: np.ndarray
    linked: np.ndarray
    alive: np.ndarray
    nodes: np.ndarray
    vectors: np.ndarray
    vector_row: np.ndarray


@dataclass
class StoreStats:
    """Counts per kind. ``text_counts`` (nodes with text) feeds ``verify``;
    ``as_dict``, what ``stats`` prints, leaves it out."""

    node_counts: dict[NodeKind, int]
    edge_counts: dict[EdgeKind, int]
    embedded_counts: dict[NodeKind, int]
    text_counts: dict[NodeKind, int]

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


# the JSON types each key's values may take; a bool passes as `scoring`, to
# be refused as a count with the other values that are not one
_VECTORS = {"scoring": {int, bool}, "provider": {str, type(None)}}
_NODE_COLUMNS = {"ids": {str}, "kinds": {str}, "texts": {str, type(None)}, "vector_row": {int}}
_EDGE_COLUMNS = {"src": {int}, "dst": {int}, "kind": {str}}
# a kind's code is its index here; the columns are checked and built on codes
_NODE_KINDS = tuple(NodeKind)
_EDGE_KINDS = tuple(EdgeKind)
# a kind's code by its value, as a snapshot holds it; a kind, a str enum,
# hashes and compares as its value, so it finds its code here too
_NODE_CODES = {kind.value: code for code, kind in enumerate(_NODE_KINDS)}
_EDGE_CODES = {kind.value: code for code, kind in enumerate(_EDGE_KINDS)}
_EVENT = _NODE_CODES[NodeKind.EVENT.value]
# per edge kind code, the node kind code its source and its destination must have
_WANT_SRC, _WANT_DST = (
    np.array([_NODE_CODES[EDGE_ENDPOINTS[kind][end].value] for kind in _EDGE_KINDS])
    for end in (0, 1)
)
# per edge kind code, whether its source (else its destination) is the Event
_EVENT_AT_SRC = tuple(EDGE_ENDPOINTS[kind][0] is NodeKind.EVENT for kind in _EDGE_KINDS)


def _in_record(path, where: str, exc: Exception) -> Exception:
    """``exc`` again, of its own class, its message naming the snapshot
    and the record."""
    return type(exc)(f"{path}: snapshot {where}: {exc}")


def _not_a(kind: type[Enum], value) -> ValueError:
    return ValueError(f"{value!r} is not a valid {kind.__name__}")


def _checked(vectors) -> tuple[list, list, CausewayError | None]:
    """The place of each of ``vectors`` (None for None) in one batch, up to
    the first that one ``check_embeddings`` call refuses; that call's checks
    of the batch; and its refusal (None if none). A read-only array has one
    place, and is checked once, however many times it comes (``batch_embed``
    gives all nodes of a text the same one)."""
    batch, places, seen = [], [], {}  # id of a read-only array -> its place in batch
    for vec in vectors:
        if vec is None:
            places.append(None)
            continue
        place = len(batch)
        if isinstance(vec, np.ndarray) and not vec.flags.writeable:
            place = seen.setdefault(id(vec), place)
        if place == len(batch):
            batch.append(vec)
        places.append(place)
    checks, fault = check_embeddings(batch)
    # every vector before the refused one's first place was checked
    end = len(places) if fault is None else places.index(len(checks))
    return places[:end], checks, fault


def _kind_change(node_id: str, old: NodeKind, new: NodeKind) -> KindViolationError:
    return KindViolationError(f"node {node_id!r} is {old.value}, cannot change to {new.value}")


def _missing_endpoint(node_id) -> MissingEndpointError:
    return MissingEndpointError(f"edge endpoint {node_id!r} not in store")


def _endpoint_fault(kind: EdgeKind, src: NodeKind, dst: NodeKind) -> KindViolationError | None:
    """What is wrong with an edge of ``kind`` from a ``src`` to a ``dst``, if anything."""
    want_src, want_dst = EDGE_ENDPOINTS[kind]
    if src is want_src and dst is want_dst:
        return None
    return KindViolationError(
        f"{kind.value} requires {want_src.value}->{want_dst.value}, "
        f"got {src.value}->{dst.value}"
    )


def _read_document(path: Path, data: bytes) -> dict:
    """The snapshot document ``data`` of the file at ``path``, if it is of
    the version load reads."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except RecursionError as exc:
        raise ValueError(f"{path}: snapshot JSON nests too deeply") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: snapshot is not UTF-8 JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(f"{path}: not a {SNAPSHOT_FORMAT} file")
    version = payload.get("version")
    if type(version) is int and version in (1, 2, 3):  # JSON with its vectors inline or beside it
        raise ValueError(
            f"{path}: snapshot version {version} is no longer read; move the file aside "
            "and run `ingest` and `embed` again"
        )
    if type(version) is not int or version != SNAPSHOT_VERSION:
        raise ValueError(f"{path}: unsupported snapshot version")
    return payload


def _wrong_type(path, where: str, key: str, value) -> ValueError:
    return ValueError(f"{path}: snapshot {where} {key!r} must not be {type(value).__name__}")


def _fields(path, where: str, rec, types: dict) -> tuple:
    """The values of ``types``' keys in ``rec``, the snapshot's ``where``, if
    it is an object holding each key with a value of one of its JSON types."""
    if not isinstance(rec, dict) or not rec.keys() >= types.keys():
        raise ValueError(f"{path}: snapshot {where} must be an object with keys {sorted(types)}")
    values = tuple(map(rec.__getitem__, types))
    for (key, allowed), value in zip(types.items(), values):
        if type(value) not in allowed:
            raise _wrong_type(path, where, key, value)
    return values


def _column_table(path, payload: dict, key: str, columns: dict) -> tuple[list, Exception | None]:
    """The snapshot's ``key`` columns, up to the first record holding
    a value of a type its column does not take, and that refusal (None if none)."""
    table = payload.get(key)
    if not isinstance(table, dict) or not all(isinstance(table.get(c), list) for c in columns):
        raise ValueError(f"{path}: snapshot {key!r} must be an object of lists {list(columns)}")
    values = [table[c] for c in columns]
    if len(set(map(len, values))) > 1:
        raise ValueError(f"{path}: snapshot {key!r} lists must be of one length")
    end, fault = len(values[0]), None
    for (name, types), column in zip(columns.items(), values):
        if not set(map(type, column)) <= types:
            i = next(i for i, value in enumerate(column) if type(value) not in types)
            if i < end:
                end, fault = i, _wrong_type(path, f"{key}[{i}]", name, column[i])
    return (values, None) if fault is None else ([c[:end] for c in values], fault)


def _codes(values: list[str], codes: dict[str, int]) -> np.ndarray:
    """The code of each value, -1 for one ``codes`` does not hold."""
    return np.fromiter(map(codes.get, values, repeat(-1)), np.int64, len(values))


def _indexes(values: list[int]) -> np.ndarray:
    """``values`` as an int64 array, -2 in place of any beyond its range."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array([v if -2 <= v < 2**62 else -2 for v in values], dtype=np.int64)


def _refuse_first(checks: list, fault: Exception | None) -> None:
    """Raise the refusal of the first record, in file order, that a check
    flags, from the first of ``checks`` that flags it: a check is a mask over
    the records and a function giving the refusal of a record it flags. If
    none flags one, raise ``fault``, the refusal of the record after the
    masks' last, if any."""
    flagged = [(int(mask.argmax()), n) for n, (mask, _) in enumerate(checks) if mask.any()]
    if flagged:
        i, n = min(flagged)
        raise checks[n][1](i)
    if fault is not None:
        raise fault


def _check_nodes(path, ids: list, kinds: list, codes, fault, vector_checks: list) -> None:
    """Raise, named, for the first node in file order that is not good, if
    any. ``codes`` are the kind codes of ``kinds``. A node's kind is checked
    first, then whether its id repeats an earlier node's, then
    ``vector_checks``, the checks of its vector."""

    def repeated(i: int) -> Exception:
        j = first[ids[i]]
        old, new = _NODE_KINDS[codes[j]], _NODE_KINDS[codes[i]]
        where = f"nodes[{j}] and nodes[{i}]"
        if old is not new:
            return _in_record(path, where, _kind_change(ids[i], old, new))
        return ValueError(f"{path}: snapshot {where} repeat the node id {ids[i]!r}")

    checks = [(codes < 0, lambda i: _in_record(path, f"nodes[{i}]", _not_a(NodeKind, kinds[i])))]
    first: dict[str, int] = {}  # each id's first index, and every later one flagged
    if len(set(ids)) < len(ids):
        repeats = (first.setdefault(node_id, i) != i for i, node_id in enumerate(ids))
        checks.append((np.fromiter(repeats, bool, len(ids)), repeated))
    _refuse_first([*checks, *vector_checks], fault)


def _check_edges(path, src: list, dst: list, kinds: list, ends, node_codes, fault):
    """The kind code of each edge, if every edge is good: else the first
    that is not, in file order, raises, named. ``ends`` are the node indexes
    of ``src`` and ``dst``, each index past the nodes for a missing one. An
    edge's kind is checked first, then a missing ``src``, then a missing
    ``dst``, then the kinds of its ends."""
    n = len(node_codes)
    codes = _codes(kinds, _EDGE_CODES)
    # a missing end indexes the -1 past the nodes, which no edge kind wants
    end_codes = np.append(node_codes, -1)
    src_codes, dst_codes = (end_codes[np.where((e >= 0) & (e < n), e, n)] for e in ends)

    def refuse(j: int, exc: Exception) -> Exception:
        return _in_record(path, f"edges[{j}]", exc)

    _refuse_first([
        (codes < 0, lambda j: refuse(j, _not_a(EdgeKind, kinds[j]))),
        (src_codes < 0, lambda j: refuse(j, _missing_endpoint(src[j]))),
        (dst_codes < 0, lambda j: refuse(j, _missing_endpoint(dst[j]))),
        ((src_codes != _WANT_SRC[codes]) | (dst_codes != _WANT_DST[codes]), lambda j: refuse(
            j, _endpoint_fault(
                _EDGE_KINDS[codes[j]], _NODE_KINDS[src_codes[j]], _NODE_KINDS[dst_codes[j]]
            )
        )),
    ], fault)
    return codes


# the bytes of a snapshot's .npy header that load reads: numpy refuses a
# header longer than this, so a declared length is never read
_MAX_HEADER = 10_000
_HEADER_BYTES = np.lib.format.MAGIC_LEN + 4 + _MAX_HEADER
_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0, (2, 0): np.lib.format.read_array_header_2_0,
}
_ROW_BYTES = EMBEDDING_DIM * np.dtype(VECTOR_DTYPE).itemsize


def _vector_header(path: Path, head: bytes, size: int) -> tuple[int, int]:
    """The row count of the vectors a snapshot of ``size`` bytes begins
    with, and the offset of their data, read from ``head``, its first bytes:
    if the .npy header declares C-order rows of EMBEDDING_DIM
    ``VECTOR_DTYPE`` numbers that the file holds."""
    header = io.BytesIO(head)
    try:
        read = _HEADER_READERS.get(np.lib.format.read_magic(header))
        if read is None:
            raise ValueError("not .npy version 1.0 or 2.0")
        shape, fortran_order, dtype = read(header, max_header_size=_MAX_HEADER)
    except ValueError as exc:
        raise ValueError(f"{path}: snapshot vectors have no readable .npy header: {exc}") from exc
    if (fortran_order or dtype != np.dtype(VECTOR_DTYPE) or len(shape) != 2
            or shape[0] < 0 or shape[1] != EMBEDDING_DIM):
        raise ValueError(f"{path}: snapshot vectors must be {VECTOR_DTYPE} of shape "
                         f"(rows, {EMBEDDING_DIM}) in C order")
    rows, start = int(shape[0]), header.tell()
    if start + rows * _ROW_BYTES > size:
        raise ValueError(f"{path}: snapshot vectors run past the end of the file")
    return rows, start


def _squared_row_norms(path: Path, vectors: np.ndarray) -> np.ndarray:
    """Each of ``vectors``' squared norm, as ``check_embedding`` computes
    it. A zero or non-finite vector raises what ``check_embedding`` raises,
    naming its row."""
    squared = _squared_norms(vectors)
    bad = np.flatnonzero(~np.isfinite(squared) | (squared == 0.0))
    if bad.size:
        row = bad[0]
        if squared[row] == 0.0:
            raise ZeroVectorError(f"{path}: snapshot vector row {row} is a zero vector")
        raise DimensionMismatchError(
            f"{path}: snapshot vector row {row} must have finite entries and a finite norm"
        )
    return squared


class _Snapshot(NamedTuple):
    """A snapshot's checked content as columns: node ``i`` is ``ids[i]``,
    of kind code ``kinds[i]``, with ``texts[i]`` (``has_text[i]`` if not
    None) and the vector in row ``vector_row[i]`` of ``vectors`` (-1 for
    none), and owns a scoring row if ``scores[i]``; ``squared`` holds each
    vector's squared norm; edge ``j`` runs from node ``src[j]`` to node
    ``dst[j]`` and is of kind code ``edge_kinds[j]``."""

    ids: list[str]
    kinds: np.ndarray
    texts: list[str | None]
    has_text: np.ndarray
    vector_row: np.ndarray
    scores: np.ndarray
    vectors: np.ndarray
    squared: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    edge_kinds: np.ndarray
    embedded_by: str | None


def _read_snapshot(path: Path) -> _Snapshot:
    """The snapshot at ``path``, checked, as columns. The checks run in this
    order, each refusing the first bad record in file order: the vectors'
    header, the document, the vector record, the vectors, the nodes with
    their vector rows, the edges."""
    with path.open("rb") as f:
        head = f.read(_HEADER_BYTES)
        if not head.startswith(np.lib.format.MAGIC_PREFIX):  # JSON alone, as versions 1 to 3
            _read_document(path, head + f.read())
            raise ValueError(
                f"{path}: snapshot version {SNAPSHOT_VERSION} must begin with its vectors"
            )
        rows, start = _vector_header(path, head, os.fstat(f.fileno()).st_size)
        f.seek(start + rows * _ROW_BYTES)
        document = f.read()
        # mapped from this open file, so that a save renaming a new file into
        # place meanwhile cannot give this document another file's vectors
        vectors = (
            np.memmap(f, dtype=VECTOR_DTYPE, mode="r", offset=start, shape=(rows, EMBEDDING_DIM))
            if rows else np.empty((0, EMBEDDING_DIM))
        )
    payload = _read_document(path, document)
    (ids, kinds, texts, vector_row), node_fault = _column_table(
        path, payload, "nodes", _NODE_COLUMNS
    )
    (src, dst, edge_kinds), edge_fault = _column_table(path, payload, "edges", _EDGE_COLUMNS)
    scoring, embedded_by = _fields(path, "'vectors'", payload.get("vectors"), _VECTORS)
    if type(scoring) is not int or not 0 <= scoring <= rows:
        raise ValueError(
            f"{path}: snapshot vectors 'scoring' must be an integer from 0 to the row count"
        )
    squared = _squared_row_norms(path, vectors)
    codes = _codes(kinds, _NODE_CODES)
    file_rows = _indexes(vector_row)
    has_text = np.fromiter(map(operator.is_not, texts, repeat(None)), bool, len(texts))
    # the events with text and a vector own a scoring row
    scores = (codes == _EVENT) & has_text & (file_rows >= 0)
    checks = _row_checks(path, scores, vector_row, file_rows, rows, scoring)
    _check_nodes(path, ids, kinds, codes, node_fault, checks)
    ends = _indexes(src), _indexes(dst)
    edge_codes = _check_edges(path, src, dst, edge_kinds, ends, codes, edge_fault)
    return _Snapshot(
        ids, codes, texts, has_text, file_rows, scores, vectors, squared, *ends,
        edge_codes, embedded_by,
    )


def _row_checks(path, scores, vector_row: list, rows: np.ndarray, count: int, scoring: int):
    """The checks, as ``_check_nodes`` takes them, of the snapshot's
    ``vector_row`` (``rows`` as an array), in this order: each row is one of
    the ``count`` rows or -1; each node that ``scores`` flags has one of the
    first ``scoring`` rows; no other node has one; and no two share one."""
    below = (rows >= 0) & (rows < scoring)
    scored = np.flatnonzero(scores)
    scored = scored[np.argsort(rows[scored], kind="stable")]  # by row, then by node
    on_row = rows[scored]
    shared = np.zeros(len(rows), dtype=bool)
    shared[scored[1:][on_row[1:] == on_row[:-1]]] = True
    where = f"{path}: snapshot nodes"

    def share(i: int) -> ValueError:
        j = scored[np.searchsorted(on_row, rows[i])]  # the first node on the row
        return ValueError(f"{where}[{j}] and nodes[{i}] share the scoring row {vector_row[i]}")

    return [
        ((rows < -1) | (rows >= count), lambda i: ValueError(
            f"{where}[{i}]: vector_row {vector_row[i]} is not a row of the vector file"
        )),
        (scores & ~below, lambda i: ValueError(
            f"{where}[{i}]: a scoring event's vector_row must be below {scoring}"
        )),
        (~scores & below, lambda i: ValueError(
            f"{where}[{i}]: vector_row {vector_row[i]} is a scoring row, but the node is not "
            "an event with text"
        )),
        (shared, share),
    ]


def _write_atomic(path: Path, write) -> None:
    """Call ``write`` on a temporary file beside ``path``, fsync it and
    rename it to ``path``: a reader or a crash sees the old file or the new
    one, never part of one."""
    # unique per process and thread, in the target's directory so that
    # os.replace stays one rename on one file system
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with tmp.open("wb") as f:
            write(f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _unwritten(shape: tuple, dtype) -> np.ndarray:
    """A new array of ``shape`` in pages of its own: each takes no memory
    until written, and all go back to the system with the array's last
    view, where a freed heap block would stay resident."""
    count = math.prod(shape)
    pages = mmap.mmap(-1, count * np.dtype(dtype).itemsize)
    return np.frombuffer(pages, dtype, count).reshape(shape)


def _room(arrays: tuple, fills: tuple, used: int, n: int) -> tuple:
    """``arrays``, each with room for ``n`` entries: as they are, or new
    arrays of at least twice their length holding their first ``used``
    entries, each later entry its array's ``fills`` value. For a fill of
    None (vectors) the room is never written: an array with room is
    ``_unwritten``, one without (as a load makes) reuses the heap."""
    size = len(arrays[0])
    if n <= size:
        return arrays
    length, grown = max(n, 2 * size), []
    for a, fill in zip(arrays, fills):
        shape = (length, *a.shape[1:])
        b = _unwritten(shape, a.dtype) if fill is None and length > n else np.empty(shape, a.dtype)
        b[:used] = a[:used]
        if fill is not None:
            b[used:] = fill
        grown.append(b)
    return tuple(grown)


class GraphStore:
    """In-memory causal property graph, held as columns.

    Nodes are keyed by caller-assigned string ids (conventionally
    namespaced by kind, e.g. ``event:17``) and numbered in insertion
    order; per node number the store holds an id, a kind code, a text and
    a vector. Each fact is held once: every vector is a row of one array,
    one row for every node that ``batch_embed`` or a load gave the same
    vector, and an event with text and a vector has a scoring row of its
    screen, norm and flags. Edges are columns of node numbers in
    first-insertion order, and each event keeps the numbers of its
    neighbours (its edges' other ends) in that order. Reads build ``Node``
    and ``Edge`` values.
    """

    def __init__(self):
        # node columns: entry i of each is node i's; the arrays have room to
        # grow, and only their first len(self._ids) entries are nodes
        self._ids: list[str] = []
        self._index: dict[str, int] = {}  # id -> node number
        self._texts: list[str | None] = []
        self._kinds = np.empty(0, dtype=np.int8)
        self._has_text = np.empty(0, dtype=bool)
        self._vecs = np.empty((0, EMBEDDING_DIM))  # every stored vector
        self._vec_count = 0  # rows of _vecs in use, each never written again; the rest is room
        self._vec_row = np.empty(0, dtype=np.int64)  # the node's row of _vecs, else -1
        # text -> the last node other than an event with that text and a
        # vector; None once a write may have removed one, until _holders
        self._holder: dict[str | None, int] | None = {}
        self._row = np.empty(0, dtype=np.int64)  # the node's live scoring row, else -1
        self._degree = np.empty(0, dtype=np.int64)  # an event's edge count
        # edge columns, every edge once, in first-insertion order
        self._src = np.empty(0, dtype=np.int64)
        self._dst = np.empty(0, dtype=np.int64)
        self._edge_kinds = np.empty(0, dtype=np.int8)
        self._edge_count = 0
        # each event's (cause, effect, trigger) neighbours in edge-insertion
        # order, a list per edge kind code: the ones a load gave, in one
        # array (event i's of code k from _loaded_start[3i + k] up to the
        # next start), then the ones written since
        self._loaded = np.empty(0, dtype=np.int64)
        self._loaded_start = np.zeros(1, dtype=np.int64)
        self._written: dict[int, tuple[list[int], list[int], list[int]]] = {}
        # scoring rows in write order, the first len(_row_ids) of each
        # column, the rest room; dead rows stay (alive False) until
        # _compact_if_sparse copies the live ones out
        self._screens = np.empty((0, EMBEDDING_DIM), dtype=np.float32)
        self._row_ids: list[str] = []
        self._row_node = np.empty(0, dtype=np.int64)
        self._norms = np.empty(0)
        self._linked = np.empty(0, dtype=bool)
        self._alive = np.empty(0, dtype=bool)
        self._live_rows = 0
        self._embedded = 0  # nodes with a vector
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
        self.insert((node,))
        return node.id

    def insert(self, nodes, edges=()) -> None:
        """Write ``nodes``, then ``edges``, under one write-lock hold, as if
        by ``upsert_node`` and ``add_edge`` one at a time, or write nothing:
        the whole call is checked first, and a refused call raises what the
        first refused node or edge would raise, nodes in order, then edges.

        A node's text replaces the stored one, and so does its embedding: a
        node without one clears the stored vector. An edge already held, or
        given twice, is added once, in first-insertion order.
        """
        nodes, edges = list(nodes), list(edges)
        places, checks, fault = _checked([node.embedding for node in nodes])
        with self.lock.write():
            index, kinds = self._index, self._kinds
            added: dict[str, NodeKind] = {}  # id -> kind of each node the call adds
            for node in nodes[: len(places)]:  # a node with a refused vector is refused first
                i = index.get(node.id)
                kind = added.setdefault(node.id, node.kind) if i is None else _NODE_KINDS[kinds[i]]
                if kind is not node.kind:
                    raise _kind_change(node.id, kind, node.kind)
            if fault is not None:
                raise fault
            for edge in edges:
                src, dst = index.get(edge.src), index.get(edge.dst)
                src_kind = added.get(edge.src) if src is None else _NODE_KINDS[kinds[src]]
                dst_kind = added.get(edge.dst) if dst is None else _NODE_KINDS[kinds[dst]]
                if src_kind is None or dst_kind is None:
                    raise _missing_endpoint(edge.src if src_kind is None else edge.dst)
                refused = _endpoint_fault(edge.kind, src_kind, dst_kind)
                if refused is not None:
                    raise refused
            self._add_nodes(nodes, places, checks)
            self._add_edges(edges)

    def _add_nodes(self, nodes: list[Node], places: list, checks: list) -> None:
        """Write the checked ``nodes``, each with its ``_checked`` place."""
        ids, index, texts = self._ids, self._index, self._texts
        first = len(ids)
        codes = []  # the kind code of each node the call adds
        writes, kept = [], []  # (number, place) of every node but one added without a vector
        for node, place in zip(nodes, places):
            i = index.get(node.id)
            if i is None:
                i = index[node.id] = len(ids)
                ids.append(node.id)
                texts.append(node.text)
                codes.append(_NODE_CODES[node.kind])
                if place is None:  # nothing to write
                    continue
            else:
                if node.text != texts[i] and self._holder and self._holder.get(texts[i]) == i:
                    self._holder = None
                texts[i] = node.text
                kept.append(i)
            writes.append((i, place))
        if len(ids) > first:
            self._kinds, self._has_text, self._vec_row, self._row, self._degree = _room(
                (self._kinds, self._has_text, self._vec_row, self._row, self._degree),
                (0, False, -1, -1, 0), first, len(ids),
            )
            self._kinds[first : len(ids)] = codes
            self._has_text[first : len(ids)] = [text is not None for text in texts[first:]]
        if kept:
            self._has_text[kept] = [texts[i] is not None for i in kept]
        if writes:
            self._write(writes, checks, None)

    def get_node(self, node_id: str) -> Node:
        """The node as a new ``Node``: changing it changes nothing stored."""
        with self.lock.read():
            return self._node(self._number(node_id))

    def _number(self, node_id: str) -> int:
        i = self._index.get(node_id)
        if i is None:
            raise UnknownIdError(f"no node with id {node_id!r}")
        return i

    def _node(self, i: int) -> Node:
        """Node ``i`` as a new ``Node``; the caller holds the read lock."""
        vector = self._vecs[self._vec_row[i]] if self._vec_row[i] >= 0 else None
        if vector is not None:
            vector.flags.writeable = False
        return Node(self._ids[i], _NODE_KINDS[self._kinds[i]], self._texts[i], vector)

    def set_embedding(self, node_id: str, vector) -> None:
        """Set or clear (vector=None) one node's embedding."""
        self.set_embeddings([(node_id, vector)])

    def set_embeddings(self, pairs, embedded_by: str | None = None) -> None:
        """Set several embeddings under a single writer-lock acquisition, as
        if one pair at a time, or none if a pair names no node.

        ``embedded_by`` names the provider that made the vectors; the store
        keeps it as ``embedded_by`` only if that provider made every vector
        it held before, and writing a vector without it clears that; pair by
        pair, so a vector the call clears first does not count.
        """
        pairs = list(pairs)
        places, checks, fault = _checked([vec for _, vec in pairs])
        if fault is not None:
            raise fault
        with self.lock.write():
            index = self._index
            try:
                numbers = [index[node_id] for node_id, _ in pairs]
            except KeyError as exc:
                raise UnknownIdError(f"no node with id {exc.args[0]!r}") from None
            self._write(list(zip(numbers, places)), checks, embedded_by)

    def _write(self, writes: list, checks: list, embedded_by: str | None) -> None:
        """Write each (node number, place in ``checks`` or None) of ``writes``;
        an old row is only marked dead. A node shares its text's row of
        ``_vecs`` if that holds its vector, else its place's new row; an
        event with text gets a scoring row too."""
        numbers = [i for i, _ in writes]
        texts = self._texts
        holder = self._holders() if embedded_by is not None else self._holder or {}
        # each written text's row, that of its holder, read before the rows are reset
        before = {texts[i]: int(self._vec_row[holder[texts[i]]]) for i, place in writes
                  if place is not None and texts[i] in holder}
        had = dict(zip(numbers, (self._vec_row[numbers] >= 0).tolist()))  # as the call goes
        old = self._row[list(had)]  # a node named twice has its row killed once
        old = old[old >= 0]
        self._alive[old] = False
        self._live_rows -= len(old)
        self._row[numbers] = self._vec_row[numbers] = -1
        events = (self._kinds[numbers] == _EVENT).tolist()
        held = {}  # number -> place of its vector, by last write
        for (i, place), event in zip(writes, events):
            held.pop(i, None)
            if place is not None:  # the vectors held just before this pair
                kept = not self._embedded or self._embedded_by == embedded_by
                self._embedded_by = embedded_by if kept else None
                held[i] = place
            self._embedded += (place is not None) - had[i]
            had[i] = place is not None
            holder = self._holder
            if not event and holder is not None:
                if place is None and holder.get(texts[i]) == i:
                    self._holder = None
                elif place is not None and holder.get(texts[i], -1) < i:
                    holder[texts[i]] = i
        if held:  # a full _vecs grows into a new array; the old one is never written again
            pairs = [(before.get(texts[i], -1), place) for i, place in held.items()]
            rows, new = {}, {}  # (text's row, place) -> the nodes' row; place -> its new row
            for row, place in dict.fromkeys(pairs):
                # to the byte, so that 0.0 and -0.0 stay apart
                if row >= 0 and self._vecs[row].tobytes() == checks[place][0].tobytes():
                    rows[row, place] = row
                else:
                    rows[row, place] = new.setdefault(place, self._vec_count + len(new))
            (self._vecs,) = _room((self._vecs,), (None,), self._vec_count,
                                  self._vec_count + len(new))
            for place, row in new.items():
                self._vecs[row] = checks[place][0]
            self._vec_count += len(new)
            written = np.fromiter(held, np.int64, len(held))
            self._vec_row[written] = list(map(rows.__getitem__, pairs))
            scored = written[(self._kinds[written] == _EVENT) & self._has_text[written]]
            norms = [checks[held[i]][1] for i in scored.tolist()]
            self._append_rows(scored, self._vecs[self._vec_row[scored]], norms)
        self._compact_if_sparse()

    def _append_rows(self, numbers, vectors, norms) -> None:
        """Append a scoring row for each of nodes ``numbers`` (an int64
        array), events with text and no live row: the screen of its vector,
        ``vectors[i]``, with norm ``norms[i]``, the norm, the linked bit and
        the alive flag."""
        start, end = len(self._row_ids), len(self._row_ids) + len(numbers)
        self._screens, self._norms, self._linked, self._alive, self._row_node = _room(
            (self._screens, self._norms, self._linked, self._alive, self._row_node),
            (None, 0.0, False, False, 0), start, end,
        )
        self._norms[start:end] = norms
        screen_rows(vectors, self._norms[start:end], out=self._screens[start:end])
        self._linked[start:end] = self._degree[numbers] > 0
        self._alive[start:end] = True
        self._live_rows += len(numbers)
        self._row_node[start:end] = numbers
        self._row[numbers] = np.arange(start, end)
        self._row_ids += map(self._ids.__getitem__, numbers.tolist())

    def _compact_if_sparse(self) -> None:
        """Once ``_vecs`` holds ``CHUNK_ROWS`` rows more than twice the
        nodes with a vector, keep only the rows nodes hold, in order; once
        dead scoring rows outnumber the live ones by ``CHUNK_ROWS``, index
        each scoring column with the live rows, screens copied, as a screen
        is a function of its vector and norm alone. So ``_vecs`` stays
        within twice the nodes with a vector plus ``CHUNK_ROWS`` rows, and
        the scoring rows within twice the live ones plus ``CHUNK_ROWS``.
        Old arrays live on only in views."""
        if self._vec_count - 2 * self._embedded > CHUNK_ROWS:
            held = self._vec_row >= 0  # room past the nodes holds -1
            kept, self._vec_row[held] = np.unique(self._vec_row[held], return_inverse=True)
            self._vecs, self._vec_count = self._vecs[kept], len(kept)
        if len(self._row_ids) - 2 * self._live_rows < CHUNK_ROWS:
            return
        live = np.flatnonzero(self._alive[: len(self._row_ids)])
        self._screens, self._norms, self._linked, self._alive, self._row_node = (
            a[live] for a in (self._screens, self._norms, self._linked, self._alive,
                              self._row_node)
        )
        self._row_ids = list(map(self._row_ids.__getitem__, live.tolist()))
        self._row[self._row_node] = np.arange(len(live))

    def scoring_rows(self) -> ScoringRows:
        """The scoring rows as arrays, for retrieval to score in bulk."""
        with self.lock.read():
            n = len(self._row_ids)
            views = [a[:n] for a in (self._screens, self._norms, self._linked, self._alive,
                                     self._row_node)]
            views += [self._vecs[: self._vec_count], self._vec_row[: len(self._ids)]]
            for view in views:
                view.flags.writeable = False
            return ScoringRows(self._row_ids, *views)

    def nodes(self, kind: NodeKind | None = None) -> list[Node]:
        """Every node, or every node of ``kind``, in insertion order, each a
        new ``Node``."""
        with self.lock.read():
            n = len(self._ids)
            if kind is None:
                return list(map(self._node, range(n)))
            numbers = np.flatnonzero(self._kinds[:n] == _NODE_CODES[kind])
            return list(map(self._node, numbers.tolist()))

    def embedded_ids(self) -> list[str]:
        """The ids of the nodes with a vector, in insertion order."""
        with self.lock.read():
            numbers = np.flatnonzero(self._vec_row[: len(self._ids)] >= 0)
            return list(map(self._ids.__getitem__, numbers.tolist()))

    def unembedded(self) -> list[tuple[str, NodeKind, str]]:
        """(id, kind, text) of each node with text and no vector, in
        insertion order."""
        with self.lock.read():
            n = len(self._ids)
            numbers = np.flatnonzero(self._has_text[:n] & (self._vec_row[:n] < 0))
            kinds = map(_NODE_KINDS.__getitem__, self._kinds[numbers].tolist())
            numbers = numbers.tolist()
            ids, texts = map(self._ids.__getitem__, numbers), map(self._texts.__getitem__, numbers)
            return list(zip(ids, kinds, texts))

    def held_vectors(self, texts) -> dict[str, np.ndarray]:
        """For each of ``texts`` that a node other than an event holds a
        vector for, the vector of the last such node in insertion order, a
        read-only view of its row; a node of that text written those bytes
        shares the row. The writers keep that node per text, so a call costs
        what it asks; after a load, or a write that took a vector or a text
        from such a node, one call finds them all again."""
        with self.lock.read():
            holder = self._holders()
            return {text: self._node(holder[text]).embedding for text in texts if text in holder}

    def _holders(self) -> dict[str | None, int]:
        """``_holder``, found again from the columns if a write cleared it;
        the caller holds the lock."""
        holder = self._holder
        if holder is None:
            n = len(self._ids)
            numbers = np.flatnonzero((self._vec_row[:n] >= 0) & (self._kinds[:n] != _EVENT))
            numbers = numbers.tolist()
            # readers that race here each build the same map
            holder = self._holder = dict(zip(map(self._texts.__getitem__, numbers), numbers))
        return holder

    # --- edges ---

    def add_edge(self, edge: Edge) -> None:
        self.insert((), (edge,))

    def _add_edges(self, edges: list[Edge]) -> None:
        """Add each of the checked ``edges`` that the store lacks, once, in order."""
        index, written = self._index, self._written
        loaded = len(self._loaded_start) // len(_EDGE_KINDS)  # the events a load gave neighbours
        src, dst, codes, events = [], [], [], []
        for edge in edges:
            ends = index[edge.src], index[edge.dst]
            code = _EDGE_CODES[edge.kind]
            event, other = ends if _EVENT_AT_SRC[code] else ends[::-1]
            since = written.get(event)
            if since is None:
                since = written[event] = ([], [], [])
            if other in since[code] or (event < loaded and other in self._loaded_of(event)[code]):
                continue
            since[code].append(other)
            src.append(ends[0])
            dst.append(ends[1])
            codes.append(code)
            events.append(event)
        if not events:
            return
        m, end = self._edge_count, self._edge_count + len(events)
        self._src, self._dst, self._edge_kinds = _room(
            (self._src, self._dst, self._edge_kinds), (0, 0, 0), m, end
        )
        self._src[m:end], self._dst[m:end], self._edge_kinds[m:end] = src, dst, codes
        self._edge_count = end
        np.add.at(self._degree, events, 1)
        rows = self._row[events]
        self._linked[rows[rows >= 0]] = True

    def _loaded_of(self, event: int) -> list[list[int]]:
        """The (cause, effect, trigger) neighbours a load gave ``event``, read
        as one slice of ``_loaded``."""
        a, b, c, d = self._loaded_start[3 * event : 3 * event + 4].tolist()
        got = self._loaded[a:d].tolist()
        return [got[: b - a], got[b - a : c - a], got[c - a :]]

    def edges(self) -> list[Edge]:
        """Every edge, in first-insertion order, each a new ``Edge``."""
        with self.lock.read():
            return self._edges(slice(self._edge_count))

    def event_edges(self, event_id: str) -> list[Edge]:
        """The edges of one event, in first-insertion order, each a new
        ``Edge``: found by a mask over the edge columns, as the per-kind
        neighbour lists do not keep the order across kinds."""
        with self.lock.read():
            i, m = self._event(event_id), self._edge_count
            return self._edges(np.flatnonzero((self._src[:m] == i) | (self._dst[:m] == i)))

    def _edges(self, which) -> list[Edge]:
        """The edges ``which`` (a slice or an index array) of the edge
        columns; the caller holds the read lock."""
        ids = self._ids
        return list(map(
            Edge,
            map(ids.__getitem__, self._src[which].tolist()),
            map(ids.__getitem__, self._dst[which].tolist()),
            map(_EDGE_KINDS.__getitem__, self._edge_kinds[which].tolist()),
        ))

    # --- neighbor primitives ---

    def _event(self, event_id: str) -> int:
        """The number of the event ``event_id``; the caller holds the read lock."""
        i = self._number(event_id)
        if self._kinds[i] != _EVENT:
            kind = _NODE_KINDS[self._kinds[i]]
            raise NotAnEventError(f"{event_id!r} is a {kind.value}, not an Event")
        return i

    def neighbor_counts(self, event_id: str) -> tuple[int, int, int]:
        """(cause, effect, trigger) edge counts for one event."""
        return tuple(map(len, self.collect_texts(event_id)))

    def collect_texts(self, event_id: str) -> tuple[list[str], list[str], list[str]]:
        """(cause, effect, trigger) neighbor texts in edge-insertion order."""
        return self.event_texts((event_id,))[0][1:]

    def event_texts(self, event_ids) -> list[tuple[str | None, list[str], list[str], list[str]]]:
        """Per event id, under one read lock: the event's text, then its
        cause, effect and trigger neighbor texts as ``collect_texts`` gives them."""
        with self.lock.read():
            numbers = list(map(self._event, event_ids))  # refuses an unknown id or a non-event
            return [(text, *map(list, kinds)) for text, *kinds in self.numbered_texts(numbers)]

    def numbered_texts(self, numbers: list[int]) -> list[tuple]:
        """Per event number (as ``ScoringRows.nodes`` gives them), under one
        read lock: the event's text, then its cause, effect and trigger
        neighbor texts as tuples, each in edge-insertion order: those a load
        gave, then those written since."""
        with self.lock.read():
            texts, written, out = self._texts, self._written, []
            loaded = len(self._loaded_start) // len(_EDGE_KINDS)
            for i in numbers:
                lists = written.get(i, ([], [], []))
                if i < loaded:  # the load's lists come first
                    lists = map(operator.add, self._loaded_of(i), lists)
                causes, effects, triggers = lists
                x, y = len(causes), len(causes) + len(effects)
                flat = [texts[j] or "" for j in causes + effects + triggers]
                out.append((texts[i], tuple(flat[:x]), tuple(flat[x:y]), tuple(flat[y:])))
            return out

    # --- reporting ---

    def stats(self) -> StoreStats:
        with self.lock.read():
            n = len(self._ids)
            kinds = self._kinds[:n]
            edge_counts = np.bincount(self._edge_kinds[: self._edge_count], minlength=len(EdgeKind))
            node_counts, embedded_counts, text_counts = (
                dict(zip(NodeKind, np.bincount(counted, minlength=len(NodeKind)).tolist()))
                for counted in (kinds, kinds[self._vec_row[:n] >= 0], kinds[self._has_text[:n]])
            )
        return StoreStats(
            node_counts, dict(zip(EdgeKind, edge_counts.tolist())), embedded_counts, text_counts
        )

    # --- snapshot persistence ---

    def save(self, path: str | Path) -> None:
        """Write the snapshot at ``path``, one file: an ``.npy`` array of
        the vectors, those of the live scoring rows in scoring order, then
        each distinct vector that other nodes hold, once; then the JSON document
        of the nodes and edges. It goes to a temporary file, is fsynced and
        renamed into place, so a reader or a crash sees the old snapshot or
        the new one.
        """
        with self.lock.read():  # nodes, edges and vectors from one consistent view
            n, m = len(self._ids), self._edge_count
            live = np.flatnonzero(self._alive[: len(self._row_ids)])
            scored = self._row_node[live]  # the live rows' nodes, in scoring order
            vector_row = np.full(n, -1, dtype=np.int64)
            vector_row[scored] = np.arange(len(live))
            # nodes with equal vectors share a row, so the file depends on the
            # vectors alone, not on which nodes share a row of _vecs: each
            # distinct value once, by its bytes, in the order of its first node
            held = np.flatnonzero((self._vec_row[:n] >= 0) & (self._row[:n] < 0))
            on, node_on = np.unique(self._vec_row[held], return_inverse=True)
            vectors = self._vecs[on]
            as_bytes = vectors.view((np.void, _ROW_BYTES)).ravel()  # a row as one value
            _, one, value = np.unique(as_bytes, return_index=True, return_inverse=True)
            node_value = value[node_on]
            order = np.argsort(np.unique(node_value, return_index=True)[1])
            vector_row[held] = len(live) + np.argsort(order)[node_value]
            others = vectors[one[order]]
            # kinds are str enums, which JSON writes as their values
            nodes = {
                "ids": list(self._ids),
                "kinds": list(map(_NODE_KINDS.__getitem__, self._kinds[:n].tolist())),
                "texts": list(self._texts),
                "vector_row": vector_row.tolist(),
            }
            edges = {
                "src": self._src[:m].tolist(),
                "dst": self._dst[:m].tolist(),
                "kind": list(map(_EDGE_KINDS.__getitem__, self._edge_kinds[:m].tolist())),
            }
            # rows are written once and a vector is replaced, not changed, so
            # the array still holds this view's vectors after the lock
            vecs, scoring = self._vecs, self._vec_row[scored]
            embedded_by = self._embedded_by
        shape = (len(live) + len(others), EMBEDDING_DIM)
        payload = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "vectors": {"scoring": len(live), "provider": embedded_by},
            "nodes": nodes,
            "edges": edges,
        }

        def write(f) -> None:
            header = {"descr": VECTOR_DTYPE, "fortran_order": False, "shape": shape}
            np.lib.format.write_array_header_1_0(f, header)
            # the live rows' vectors, CHUNK_ROWS to a block, then the others
            for at in range(0, len(live), CHUNK_ROWS):
                f.write(vecs[scoring[at : at + CHUNK_ROWS]])
            f.write(others)
            # encoded once the vector blocks are written, so that its text and
            # a block are not held at once
            f.write(json.dumps(payload, separators=(",", ":")).encode("utf-8"))

        _write_atomic(Path(path), write)

    @classmethod
    def load(cls, path: str | Path) -> "GraphStore":
        """Read a snapshot of version 4. Every refusal names the file: a
        file of version 1 to 3 (the message says to run ``ingest`` and
        ``embed`` again), a vector header that is not of ``<f8`` rows of
        384 in C order or declares more rows than the file holds, and a
        document that is not UTF-8 JSON or otherwise malformed, is a
        ValueError; a record the store refuses names the first such record
        in file order too (``nodes[i]``, ``edges[j]``) with the error its
        writer raises: ValueError for an unknown kind or a repeated node id,
        KindViolationError for a repeated id of another kind, what
        ``add_edge`` raises for an edge. A zero or non-finite vector raises
        what ``check_embedding`` raises."""
        return cls()._fill(_read_snapshot(Path(path)))

    def _fill(self, snapshot: _Snapshot) -> "GraphStore":
        """Fill this new, unshared store's columns from the checked
        ``snapshot``'s. The file's rows are copied into ``_vecs`` as the file
        holds them, and each event with text and a vector gets a scoring
        row, in the order of its file rows, its norm from the file's squared
        norms."""
        ids, n = snapshot.ids, len(snapshot.ids)
        file_rows, scores = snapshot.vector_row, snapshot.scores
        self._ids, self._texts = ids, snapshot.texts
        self._index = dict(zip(ids, range(n)))
        self._kinds = snapshot.kinds.astype(np.int8)
        self._has_text = snapshot.has_text
        self._vecs = np.array(snapshot.vectors)  # a copy, not a view of the map
        self._vec_count = len(self._vecs)
        self._vec_row = file_rows
        self._row = np.full(n, -1, dtype=np.int64)
        self._embedded = int(np.count_nonzero(file_rows >= 0))
        self._embedded_by = snapshot.embedded_by
        self._holder = None  # found on first use
        # an edge the file repeats is held once, where it first comes
        src, dst, kinds = snapshot.src, snapshot.dst, snapshot.edge_kinds
        pairs = src * n + dst
        if len(np.unique(pairs)) < len(pairs):
            first = np.sort(np.unique(pairs, return_index=True)[1])
            src, dst, kinds = src[first], dst[first], kinds[first]
        self._src, self._dst, self._edge_kinds = src, dst, kinds.astype(np.int8)
        self._edge_count = len(src)
        at_src = np.array(_EVENT_AT_SRC)[kinds]
        events = np.where(at_src, src, dst)
        # before the rows, which read their linked bits from the degrees
        self._degree = np.bincount(events, minlength=n)
        runs = events * len(_EDGE_KINDS) + kinds  # the (event, edge kind) list of each edge
        self._loaded = np.where(at_src, dst, src)[np.argsort(runs, kind="stable")]
        self._loaded_start = np.concatenate(
            ([0], np.cumsum(np.bincount(runs, minlength=n * len(_EDGE_KINDS))))
        )
        scored = np.flatnonzero(scores)[np.argsort(file_rows[scores])]  # in file row order
        rows = file_rows[scored]
        # a file save wrote holds them first, in scoring order: screened from
        # that slice, with no gathered copy
        at = slice(len(rows)) if np.array_equal(rows, np.arange(len(rows))) else rows
        self._append_rows(scored, self._vecs[at], np.sqrt(snapshot.squared[rows]))
        return self
