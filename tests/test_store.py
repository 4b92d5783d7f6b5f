from __future__ import annotations

import contextlib
import io
import json
import os
import pickle
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causeway import cli
from causeway.embedding import batch_embed, clean_embeddings, mock_provider
from causeway.errors import (
    CausewayError,
    DimensionMismatchError,
    KindViolationError,
    MissingEndpointError,
    NotAnEventError,
    UnknownIdError,
    ZeroVectorError,
)
from causeway.retrieval import HybridConfig, query
from causeway.store import (
    CHUNK_ROWS,
    EMBEDDING_DIM,
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    Edge,
    EdgeKind,
    GraphStore,
    Node,
    NodeKind,
    check_embedding,
)

from helpers import (
    live_row_ids,
    oracle_neighbor_counts,
    random_store,
    random_unit_vector,
    write_v1_snapshot,
)


def small_event(store: GraphStore, event_id="event:1", text="it happened"):
    store.upsert_node(Node(event_id, NodeKind.EVENT, text=text))
    return event_id


def test_upsert_then_get_returns_equal_node():
    store = GraphStore()
    vec = np.full(EMBEDDING_DIM, 1.0) / np.sqrt(EMBEDDING_DIM)
    node = Node("event:1", NodeKind.EVENT, text="hello", embedding=vec)
    store.upsert_node(node)
    assert store.get_node("event:1") == node


def test_upsert_twice_keeps_count_at_one():
    store = GraphStore()
    store.upsert_node(Node("event:1", NodeKind.EVENT, text="a"))
    store.upsert_node(Node("event:1", NodeKind.EVENT, text="b"))
    assert store.stats().node_counts[NodeKind.EVENT] == 1
    assert store.get_node("event:1").text == "b"


def test_upsert_rejects_kind_change():
    store = GraphStore()
    store.upsert_node(Node("n", NodeKind.EVENT, text="a"))
    with pytest.raises(KindViolationError):
        store.upsert_node(Node("n", NodeKind.CAUSE, text="a"))


def test_embedding_dimension_enforced():
    store = GraphStore()
    with pytest.raises(DimensionMismatchError):
        store.upsert_node(
            Node("event:1", NodeKind.EVENT, text="a", embedding=np.ones(383))
        )
    store.upsert_node(Node("event:1", NodeKind.EVENT, text="a"))
    with pytest.raises(DimensionMismatchError):
        store.set_embedding("event:1", np.full(EMBEDDING_DIM, np.nan))


def test_zero_norm_embedding_rejected(tmp_path):
    store = GraphStore()
    zero = np.zeros(EMBEDDING_DIM)
    with pytest.raises(ZeroVectorError):
        store.upsert_node(Node("event:1", NodeKind.EVENT, text="a", embedding=zero))
    store.upsert_node(Node("event:1", NodeKind.EVENT, text="a"))
    with pytest.raises(ZeroVectorError):
        store.set_embeddings([("event:1", zero)])
    assert store.get_node("event:1").embedding is None
    path = tmp_path / "zero.json"
    node = {"id": "event:1", "kind": "Event", "text": "a", "embedding": zero.tolist()}
    path.write_text(
        json.dumps({**HEADER, "nodes": [node], "edges": []}), encoding="utf-8"
    )
    with pytest.raises(ZeroVectorError):
        GraphStore.load(path)


def test_overflowing_norm_embedding_rejected():
    # finite entries whose squared norm overflows: no cosine can be taken
    huge = np.full(EMBEDDING_DIM, 1e200)
    with pytest.raises(DimensionMismatchError, match="finite norm"):
        check_embedding(huge)
    store = GraphStore()
    small_event(store)
    with pytest.raises(DimensionMismatchError):
        store.set_embedding("event:1", huge)
    assert store.get_node("event:1").embedding is None


def test_add_edge_accepts_valid_kind():
    store = GraphStore()
    eid = small_event(store)
    store.upsert_node(Node("cause:1:0", NodeKind.CAUSE, text="why"))
    store.add_edge(Edge("cause:1:0", eid, EdgeKind.CAUSES))
    assert store.stats().edge_counts[EdgeKind.CAUSES] == 1


def test_add_edge_rejects_kind_violation():
    store = GraphStore()
    small_event(store, "event:1")
    small_event(store, "event:2")
    with pytest.raises(KindViolationError):
        store.add_edge(Edge("event:1", "event:2", EdgeKind.CAUSES))


def test_add_edge_rejects_missing_endpoint():
    store = GraphStore()
    small_event(store)
    with pytest.raises(MissingEndpointError):
        store.add_edge(Edge("cause:ghost", "event:1", EdgeKind.CAUSES))


def test_duplicate_edges_idempotent():
    store = GraphStore()
    eid = small_event(store)
    store.upsert_node(Node("cause:1:0", NodeKind.CAUSE, text="why"))
    for _ in range(3):
        store.add_edge(Edge("cause:1:0", eid, EdgeKind.CAUSES))
    assert store.stats().total_edges == 1


def test_edge_kind_safety_fuzz(rng):
    # random insert attempts: violating edges must never be stored
    store = GraphStore()
    ids = []
    for kind in NodeKind:
        for i in range(3):
            node_id = f"{kind.value.lower()}:{i}"
            store.upsert_node(Node(node_id, kind, text="t"))
            ids.append((node_id, kind))
    for _ in range(500):
        (src, src_kind) = rng.choice(ids)
        (dst, dst_kind) = rng.choice(ids)
        kind = rng.choice(list(EdgeKind))
        want_src, want_dst = {
            EdgeKind.CAUSES: (NodeKind.CAUSE, NodeKind.EVENT),
            EdgeKind.RESULTS_IN: (NodeKind.EVENT, NodeKind.EFFECT),
            EdgeKind.HAS_TRIGGER: (NodeKind.EVENT, NodeKind.TRIGGER),
        }[kind]
        legal = src_kind is want_src and dst_kind is want_dst
        if legal:
            store.add_edge(Edge(src, dst, kind))
        else:
            with pytest.raises(KindViolationError):
                store.add_edge(Edge(src, dst, kind))
    for edge in store.edges():
        assert store.get_node(edge.src).kind is {
            EdgeKind.CAUSES: NodeKind.CAUSE,
            EdgeKind.RESULTS_IN: NodeKind.EVENT,
            EdgeKind.HAS_TRIGGER: NodeKind.EVENT,
        }[edge.kind]


def test_neighbor_counts_isolated():
    store = GraphStore()
    eid = small_event(store)
    assert store.neighbor_counts(eid) == (0, 0, 0)


def test_neighbor_counts_constructed():
    store = GraphStore()
    eid = small_event(store)
    for i in range(2):
        store.upsert_node(Node(f"cause:1:{i}", NodeKind.CAUSE, text=f"c{i}"))
        store.add_edge(Edge(f"cause:1:{i}", eid, EdgeKind.CAUSES))
    store.upsert_node(Node("effect:1:0", NodeKind.EFFECT, text="e"))
    store.add_edge(Edge(eid, "effect:1:0", EdgeKind.RESULTS_IN))
    store.upsert_node(Node("trigger:1:0", NodeKind.TRIGGER, text="t"))
    store.add_edge(Edge(eid, "trigger:1:0", EdgeKind.HAS_TRIGGER))
    assert store.neighbor_counts(eid) == (2, 1, 1)


def test_neighbor_counts_errors():
    store = GraphStore()
    store.upsert_node(Node("cause:x", NodeKind.CAUSE, text="c"))
    with pytest.raises(UnknownIdError):
        store.neighbor_counts("event:ghost")
    with pytest.raises(NotAnEventError):
        store.neighbor_counts("cause:x")


def test_neighbor_counts_against_edge_scan_oracle(rng):
    store = random_store(rng, n_events=50)
    for node in store.nodes(NodeKind.EVENT):
        assert store.neighbor_counts(node.id) == oracle_neighbor_counts(store, node.id)


def test_collect_texts_isolated():
    store = GraphStore()
    eid = small_event(store)
    assert store.collect_texts(eid) == ([], [], [])


def test_collect_texts_matches_span_texts_in_order():
    store = GraphStore()
    eid = small_event(store)
    for i, text in enumerate(["first cause", "second cause"]):
        store.upsert_node(Node(f"cause:1:{i}", NodeKind.CAUSE, text=text))
        store.add_edge(Edge(f"cause:1:{i}", eid, EdgeKind.CAUSES))
    store.upsert_node(Node("trigger:1:0", NodeKind.TRIGGER, text="because"))
    store.add_edge(Edge(eid, "trigger:1:0", EdgeKind.HAS_TRIGGER))
    causes, effects, triggers = store.collect_texts(eid)
    assert causes == ["first cause", "second cause"]
    assert effects == []
    assert triggers == ["because"]


def test_collect_texts_agrees_with_counts(rng):
    store = random_store(rng, n_events=40)
    for node in store.nodes(NodeKind.EVENT):
        causes, effects, triggers = store.collect_texts(node.id)
        assert (len(causes), len(effects), len(triggers)) == store.neighbor_counts(
            node.id
        )


def test_stats_empty_store():
    stats = GraphStore().stats()
    assert stats.total_nodes == 0
    assert stats.total_edges == 0
    assert stats.total_embedded == 0


def test_stats_embedded_counts(rng):
    store = random_store(rng, n_events=30)
    stats = store.stats()
    # scan oracle
    for kind in NodeKind:
        nodes = store.nodes(kind)
        assert stats.node_counts[kind] == len(nodes)
        assert stats.embedded_counts[kind] == sum(
            1 for n in nodes if n.embedding is not None
        )
        assert stats.embedded_counts[kind] <= stats.node_counts[kind]


def test_events_with_embeddings_filter():
    store = GraphStore()
    np_rng = np.random.default_rng(7)
    store.upsert_node(
        Node("event:1", NodeKind.EVENT, text="a", embedding=random_unit_vector(np_rng))
    )
    store.upsert_node(Node("event:2", NodeKind.EVENT, text="b"))  # no embedding
    store.upsert_node(
        Node("event:3", NodeKind.EVENT, text="c", embedding=random_unit_vector(np_rng))
    )
    store.upsert_node(
        Node("event:4", NodeKind.EVENT, text=None, embedding=random_unit_vector(np_rng))
    )
    assert live_row_ids(store) == ["event:1", "event:3"]


def test_events_with_embeddings_empty_store():
    assert live_row_ids(GraphStore()) == []


def test_events_with_embeddings_setequal_to_scan(rng):
    store = random_store(rng, n_events=80)
    got = live_row_ids(store)
    assert len(got) == len(set(got))  # one live row per event
    got = set(got)
    want = {
        n.id
        for n in store.nodes(NodeKind.EVENT)
        if n.embedding is not None and n.text is not None
    }
    assert got == want


def test_event_embedding_is_a_read_only_view_of_its_row():
    store = GraphStore()
    np_rng = np.random.default_rng(12)
    first, second = random_unit_vector(np_rng), random_unit_vector(np_rng)
    store.upsert_node(Node("event:1", NodeKind.EVENT, text="a", embedding=first))
    held = store.get_node("event:1").embedding
    assert not held.flags.writeable
    with pytest.raises(ValueError):
        held[0] = 1.0
    rows = store.scoring_rows()
    assert np.shares_memory(held, rows.chunks[0])  # the row is the only copy
    assert rows.norms[0] == pytest.approx(1.0)

    store.set_embedding("event:1", second)  # re-embed: a new row, the old one dead
    assert np.array_equal(held, first)
    assert np.array_equal(store.get_node("event:1").embedding, second)
    store.upsert_node(Node("event:1", NodeKind.EVENT, text=None, embedding=second))
    assert live_row_ids(store) == []  # no text, no row; the vector stays
    assert np.array_equal(store.get_node("event:1").embedding, second)


def test_held_views_survive_compaction(provider):
    store = GraphStore()
    for i in range(CHUNK_ROWS + 1):
        store.upsert_node(Node(f"event:{i}", NodeKind.EVENT, text=f"event text {i}"))
    batch_embed(store, provider)
    held = [store.get_node(f"event:{i}").embedding for i in (0, CHUNK_ROWS)]
    before = [v.copy() for v in held]
    clean_embeddings(store)  # every row dead: compaction drops them all
    assert store.scoring_rows().ids == []
    batch_embed(store, mock_provider(seed=1))
    assert all(np.array_equal(v, b) for v, b in zip(held, before))
    assert not np.array_equal(store.get_node("event:0").embedding, before[0])


@pytest.mark.parametrize("n_events", [300, CHUNK_ROWS + 200])
def test_clean_and_embed_cycles_bound_the_row_count(provider, n_events):
    store = GraphStore()
    for i in range(n_events):
        store.upsert_node(Node(f"event:{i}", NodeKind.EVENT, text=f"event text {i}"))
    for cycle in range(5):
        for step in (clean_embeddings, lambda s: batch_embed(s, mock_provider(cycle))):
            step(store)
            rows, live = store.scoring_rows(), live_row_ids(store)
            assert len(rows.ids) <= 2 * len(live) + CHUNK_ROWS
        assert sorted(live) == sorted(f"event:{i}" for i in range(n_events))


def test_snapshot_roundtrip(tmp_path, rng):
    store = random_store(rng, n_events=25)
    path = tmp_path / "graph.json"
    store.save(path)
    loaded = GraphStore.load(path)
    assert {n.id for n in loaded.nodes()} == {n.id for n in store.nodes()}
    assert loaded.edges() == store.edges()
    for node in store.nodes():
        other = loaded.get_node(node.id)
        assert other == node  # includes exact embedding equality


def snapshot_files(path) -> dict[str, bytes]:
    """Every file in the snapshot's directory, after checking that they are
    the JSON document and the vector file it names, and nothing else."""
    sidecar = json.loads(path.read_text(encoding="utf-8"))["vectors"]["file"]
    files = {p.name: p.read_bytes() for p in path.parent.iterdir()}
    assert sorted(files) == sorted([path.name, sidecar])
    return files


def test_failed_save_leaves_the_old_snapshot(tmp_path, rng, monkeypatch):
    path = tmp_path / "graph.json"
    random_store(rng, n_events=5).save(path)
    before = snapshot_files(path)
    real_open, real_replace = io.open, os.replace

    class HalfWriter:
        """A file whose write stops halfway, as on a full disk."""

        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def __getattr__(self, name):
            return getattr(self.f, name)

        def write(self, text):
            self.f.write(text[: len(text) // 2])
            raise OSError("no space left on device")

    def failing_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        return HalfWriter(f) if "w" in mode else f

    def failing_json_rename(src, dst):
        if Path(dst) == path:  # the vector file is already in place
            raise OSError("rename interrupted")
        real_replace(src, dst)

    for target, name, fake, error in (
        (io, "open", failing_open, "no space"),  # the vector file, the first written
        (os, "replace", failing_json_rename, "rename interrupted"),
    ):
        monkeypatch.setattr(target, name, fake)
        with pytest.raises(OSError, match=error):
            random_store(rng, n_events=8).save(path)
        monkeypatch.undo()
        assert snapshot_files(path) == before  # the old pair whole, no temp file left
        assert len(GraphStore.load(path).nodes(NodeKind.EVENT)) == 5


def test_save_deletes_only_the_vector_file_the_old_snapshot_named(tmp_path, rng):
    path = tmp_path / "graph.json"
    other = tmp_path / ".graph.json.0123456789abcdef.npy"  # named like a vector file
    other.write_bytes(b"not ours")
    random_store(rng, n_events=5).save(path)
    first = json.loads(path.read_text(encoding="utf-8"))["vectors"]["file"]
    store = random_store(rng, n_events=6)
    store.save(path)
    second = json.loads(path.read_text(encoding="utf-8"))["vectors"]["file"]
    assert second != first and not (tmp_path / first).exists()
    assert other.read_bytes() == b"not ours"
    other.unlink()
    files = snapshot_files(path)
    store.save(path)  # unchanged: the same vector file, which stays
    assert snapshot_files(path) == files
    assert GraphStore.load(path).nodes() == store.nodes()


def test_load_rereads_the_snapshot_once_if_its_vectors_vanish(tmp_path, rng, monkeypatch):
    path = tmp_path / "graph.json"
    random_store(rng, n_events=5).save(path)
    newer = random_store(rng, n_events=7)
    real_load, calls = np.load, []

    def load_after_a_save(file, *args, **kwargs):
        # the first read of vectors comes after a writer committed a new
        # snapshot and deleted the vector file the reader's JSON named
        calls.append(Path(file).name)
        if len(calls) == 1:
            newer.save(path)
        return real_load(file, *args, **kwargs)

    monkeypatch.setattr(np, "load", load_after_a_save)
    loaded = GraphStore.load(path)
    monkeypatch.undo()
    assert len(calls) == 2 and calls[0] != calls[1]
    assert loaded.nodes() == newer.nodes() and loaded.edges() == newer.edges()


def test_snapshot_writes_version_2_with_rows_in_scoring_order(tmp_path, rng, provider):
    store = random_store(rng, n_events=30)
    batch_embed(store, provider)  # every span node gets a vector too
    store.set_embedding("event:0", random_unit_vector(np.random.default_rng(3)))
    path = tmp_path / "graph.json"
    store.save(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["version"] == SNAPSHOT_VERSION == 2
    assert all("embedding" not in n for n in doc["nodes"])
    rows = doc["vectors"]["rows"]
    assert rows[: len(live_row_ids(store))] == live_row_ids(store)  # event:0 is now last
    assert sorted(rows) == sorted(n.id for n in store.nodes() if n.embedding is not None)
    assert doc["vectors"]["shape"] == [len(rows), EMBEDDING_DIM]
    loaded = GraphStore.load(path)
    assert live_row_ids(loaded) == live_row_ids(store)
    assert loaded.nodes() == store.nodes()


def test_v1_snapshot_round_trips_through_v2_bit_for_bit(tmp_path, rng, provider):
    store = random_store(rng, n_events=80)
    batch_embed(store, provider)
    for i in range(0, 80, 7):  # re-embedded events move to the end of the rows
        store.set_embedding(f"event:{i}", random_unit_vector(np.random.default_rng(i)))
    write_v1_snapshot(store, tmp_path / "v1.json")
    stores = [store, GraphStore.load(tmp_path / "v1.json")]
    for name in ("one", "two"):  # v1 -> v2 -> v2
        path = tmp_path / name / "graph.json"
        path.parent.mkdir()
        stores[-1].save(path)
        stores.append(GraphStore.load(path))
    assert snapshot_files(tmp_path / "one" / "graph.json") == snapshot_files(
        tmp_path / "two" / "graph.json"
    )
    np_rng = np.random.default_rng(5)
    queries = [random_unit_vector(np_rng) for _ in range(10)]
    queries += [provider.embed(f"event sentence {i}") for i in range(0, 80, 9)]
    cfg = HybridConfig(k=20, tau=-2.0)
    want = [query(store, q, cfg) for q in queries]
    def live_norms(s: GraphStore) -> dict[str, float]:
        rows = s.scoring_rows()
        return {i: n for i, n, a in zip(rows.ids, rows.norms.tolist(), rows.alive) if a}

    for other in stores[1:]:
        assert [query(other, q, cfg) for q in queries] == want  # ids and scores to the bit
        assert live_norms(other) == live_norms(store)
        assert other.nodes() == store.nodes() and other.edges() == store.edges()
    # v1 lists no row order, so its rows follow the nodes; v2 keeps the order
    assert live_row_ids(stores[1]) == live_row_ids(stores[2]) == live_row_ids(stores[3])


def test_snapshot_rejects_foreign_file(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else", "version": 1}', encoding="utf-8")
    with pytest.raises(ValueError):
        GraphStore.load(path)


HEADER = {"format": SNAPSHOT_FORMAT, "version": 1}  # the format with inline embeddings
NODE = {"id": "event:1", "kind": "Event", "text": "t", "embedding": None}
CAUSE = {"id": "cause:1", "kind": "Cause", "text": "c", "embedding": None}
EDGE = {"src": "cause:1", "dst": "event:1", "kind": "CAUSES"}


@pytest.mark.parametrize(
    "payload",
    [
        [1, 2],
        "text",
        {**HEADER, "edges": []},
        {**HEADER, "nodes": {}, "edges": []},
        {**HEADER, "nodes": []},
        {**HEADER, "nodes": [], "edges": None},
        {**HEADER, "nodes": [1], "edges": []},
        {**HEADER, "nodes": [{"id": "event:1", "kind": "Event"}], "edges": []},
        {**HEADER, "nodes": [NODE], "edges": [["event:1", "cause:1", "CAUSES"]]},
        {**HEADER, "nodes": [NODE], "edges": [{"src": "cause:1", "kind": "CAUSES"}]},
        {**HEADER, "nodes": [{**NODE, "id": ["event:1"]}], "edges": []},
        {**HEADER, "nodes": [{**NODE, "text": 5}], "edges": []},
        {**HEADER, "nodes": [{**NODE, "embedding": {}}], "edges": []},
        {**HEADER, "nodes": [NODE, CAUSE], "edges": [{**EDGE, "src": ["cause:1"]}]},
        {**HEADER, "nodes": [NODE, CAUSE], "edges": [{**EDGE, "dst": 1}]},
    ],
    ids=[
        "list", "string", "no-nodes", "nodes-not-list", "no-edges", "edges-not-list",
        "node-not-object", "node-missing-key", "edge-not-object", "edge-missing-key",
        "node-id-list", "node-text-number", "node-embedding-object", "edge-src-list",
        "edge-dst-number",
    ],
)
def test_snapshot_rejects_malformed_shape(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match="bad.json"):
        GraphStore.load(path)


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
) | JSON_SCALARS.map(lambda x: [x] * EMBEDDING_DIM)  # right length, any entry
SNAPSHOT_FIELDS = [("nodes", 0, key) for key in NODE] + [
    ("edges", 0, key) for key in EDGE
]


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(SNAPSHOT_FIELDS), value=JSON_VALUES)
def test_snapshot_field_value_loads_or_raises_documented_error(
    tmp_path_factory, field, value
):
    event = {**NODE, "embedding": [1.0] + [0.0] * (EMBEDDING_DIM - 1)}
    payload = {**HEADER, "nodes": [event, CAUSE], "edges": [dict(EDGE)]}
    section, index, key = field
    payload[section][index][key] = value
    path = tmp_path_factory.getbasetemp() / "field-value.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    try:
        GraphStore.load(path)
    except (ValueError, CausewayError):
        pass


def npy_bytes(array, allow_pickle=False) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=allow_pickle)
    return buf.getvalue()


# the `record` fault's sub-cases: a `vectors` key and the value it gets
RECORD_FAULTS = [
    ("dtype", "<f4"), ("dtype", ">f8"), ("shape", [0, EMBEDDING_DIM]), ("shape", "x"),
    ("shape", [1, EMBEDDING_DIM, 1]), ("rows", "event:0"), ("rows", []), ("file", None),
    ("drop-row", None), ("no-record", None),
]


def vector_fault(fault, row=0, cut=0.0, junk=b"", value=np.nan, whole_row=True, name="",
                 record=RECORD_FAULTS[0], provider=5):
    """``(fault, apply)``: ``apply`` breaks a saved snapshot's ``vectors``
    record (the parsed JSON ``doc``) or its vector file, in place."""

    def apply(doc: dict, sidecar: Path) -> None:
        vectors = np.load(sidecar)
        rows = doc["vectors"]["rows"]
        i, j = row % len(rows), (row + 1) % len(rows)
        data = sidecar.read_bytes()
        if fault == "truncated":
            sidecar.write_bytes(data[: int(cut * len(data))])
        elif fault == "foreign":
            sidecar.write_bytes(junk)
        elif fault == "pickled":
            sidecar.write_bytes(pickle.dumps(vectors))
        elif fault == "object":
            sidecar.write_bytes(npy_bytes(np.array(list(vectors), dtype=object), True))
        elif fault == "f4":
            sidecar.write_bytes(npy_bytes(vectors.astype("<f4")))
        elif fault == "shape":
            shapes = [vectors[:-1], np.vstack([vectors, vectors[:1]]), vectors[:, :-1],
                      vectors.reshape(-1), vectors[None]]
            sidecar.write_bytes(npy_bytes(shapes[row % len(shapes)]))
        elif fault == "record":
            key, new = record
            if key == "no-record":
                del doc["vectors"]
            elif key == "drop-row":
                rows.pop()
            else:
                doc["vectors"][key] = new
        elif fault == "bad-row":
            vectors = vectors.copy()
            if whole_row:
                vectors[i] = value
            else:
                vectors[i, j % EMBEDDING_DIM] = value if value != 0.0 else np.nan
            sidecar.write_bytes(npy_bytes(vectors))
        elif fault == "unknown-id":
            rows[i] = "event:ghost"
        elif fault == "duplicate-id":
            rows[i] = rows[j]
        elif fault == "name":
            doc["vectors"]["file"] = name
        elif fault == "provider":
            doc["vectors"]["provider"] = provider
        else:
            sidecar.unlink()

    return fault, apply


vector_faults = st.builds(
    vector_fault,
    st.sampled_from([
        "truncated", "foreign", "pickled", "object", "f4", "shape", "record",
        "bad-row", "unknown-id", "duplicate-id", "name", "missing", "provider",
    ]),
    row=st.integers(0, 10**6),
    cut=st.floats(0, 1, exclude_max=True),
    junk=st.binary(max_size=200),
    value=st.sampled_from([np.nan, np.inf, -np.inf, 0.0, 1e200]),
    whole_row=st.booleans(),
    name=st.sampled_from([
        "../graph.json", "/etc/hostname", "sub/.graph.json.0123456789abcdef.npy",
        ".graph.json.0123456789ABCDEF.npy", ".graph.json.0123.npy",
        ".other.json.0123456789abcdef.npy", ".graph.json.0123456789abcdef.npy/",
        ".graph.json.0123456789abcdef.npy", "", 5, None,
    ]),
    record=st.sampled_from(RECORD_FAULTS),
    provider=st.sampled_from([5, True, ["mock-hash-0"], {"name": "mock-hash-0"}]),
)


def each_record_fault(test):
    """An ``@example`` per `record` sub-case, so each runs on every run."""
    for record in RECORD_FAULTS:
        test = example(fault=vector_fault("record", record=record))(test)
    return test


@settings(max_examples=250, deadline=None)
@given(fault=vector_faults)
@each_record_fault
def test_broken_vectors_are_refused_with_exit_one(tmp_path_factory, fault):
    kind, apply = fault
    path = tmp_path_factory.mktemp("broken") / "graph.json"
    store = random_store(random.Random(1), n_events=6, embed_fraction=1.0, text_fraction=1.0)
    batch_embed(store, mock_provider())
    store.save(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    apply(doc, path.with_name(doc["vectors"]["file"]))
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises((ValueError, CausewayError)):
        GraphStore.load(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--store", str(path), "stats"])
    assert code == 1, kind
    assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()


def test_reader_writer_lock_smoke():
    store = GraphStore()
    with store.lock.read():
        with store.lock.read():  # concurrent readers allowed
            pass
    with store.lock.write():
        pass
