from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from helpers import live_row_ids, oracle_neighbor_counts, random_store, random_unit_vector


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


def test_snapshot_rejects_foreign_file(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else", "version": 1}', encoding="utf-8")
    with pytest.raises(ValueError):
        GraphStore.load(path)


HEADER = {"format": SNAPSHOT_FORMAT, "version": SNAPSHOT_VERSION}
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


def test_reader_writer_lock_smoke():
    store = GraphStore()
    with store.lock.read():
        with store.lock.read():  # concurrent readers allowed
            pass
    with store.lock.write():
        pass
