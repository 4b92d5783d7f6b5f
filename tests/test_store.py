from __future__ import annotations

import contextlib
import io
import json
import math
import os
import pickle
import random
from pathlib import Path
from unittest import mock

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
    screen_rows,
)

from causeway import store as store_module
from helpers import (
    REFERENCE_VECTORS,
    held_rows_bound,
    live_row_ids,
    oracle_neighbor_counts,
    random_store,
    random_unit_vector,
    read_snapshot,
    ReferenceGraph,
    reference_insert,
    store_state,
    write_snapshot,
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
    store.set_embedding("event:1", random_unit_vector(np.random.default_rng(0)))
    store.save(path)
    write_snapshot(path, read_snapshot(path)[0], zero[None])
    with pytest.raises(ZeroVectorError, match="vector row 0 is a zero vector"):
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


def test_event_texts_gives_each_events_text_and_collect_texts(rng):
    store = random_store(rng, n_events=40)
    ids = [node.id for node in store.nodes(NodeKind.EVENT)]
    ids += ids[:3]  # an id asked for twice is given twice
    want = [(store.get_node(i).text, *store.collect_texts(i)) for i in ids]
    assert store.event_texts(ids) == want
    assert store.event_texts([]) == []


@pytest.mark.parametrize("bad", ["event:ghost", "cause:x"])
def test_event_texts_refuses_what_collect_texts_refuses(bad):
    store = GraphStore()
    small_event(store)
    store.upsert_node(Node("cause:x", NodeKind.CAUSE, text="c"))
    with pytest.raises(CausewayError) as want:
        store.collect_texts(bad)
    assert type(want.value) in (UnknownIdError, NotAnEventError)
    with pytest.raises(type(want.value)) as got:
        store.event_texts(["event:1", bad])
    assert str(got.value) == str(want.value)


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
    assert np.shares_memory(held, rows.vectors)  # the row is the only copy
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


def test_scoring_rows_are_read_only_views(provider):
    store = GraphStore()
    for i in (1, 2):
        small_event(store, f"event:{i}", f"text {i}")
    batch_embed(store, provider)
    before = store_state(store)
    rows = store.scoring_rows()
    for name in ("vectors", "screens", "norms", "linked", "alive"):
        array = getattr(rows, name)
        assert len(array) == 2
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert store_state(store) == before


def test_growth_and_compaction_keep_every_held_view():
    """Vectors, screens and norms read before writes that grow the scoring
    columns and the one vector array into new arrays, twice and more, and
    then compact both, keep their bytes (a row's alive flag and linked bit
    are marked in place); after each write the store holds what the
    reference model holds."""
    np_rng = np.random.default_rng(41)
    store = GraphStore()
    graph = ReferenceGraph(store)
    held = []  # (view, its bytes when read)
    bases = {"scoring": set(), "vecs": set()}  # the arrays the held views were read from

    def write(nodes, edges=()):
        store.insert(nodes, edges)
        reference_insert(graph, nodes, edges)
        assert store_state(store, live=True) == store_state(graph, live=True)
        rows = store.scoring_rows()
        bases["scoring"].add(id(rows.screens.base))
        bases["vecs"].add(id(rows.vectors.base))
        views = [rows.vectors, rows.screens, rows.norms]
        for node in store.nodes():
            if node.embedding is not None:
                views.append(node.embedding)
                bases["vecs"].add(id(node.embedding.base))
        held.extend((view, view.tobytes()) for view in views)
        assert all(view.tobytes() == bytes_ for view, bytes_ in held)

    with mock.patch.object(store_module, "CHUNK_ROWS", 2):
        count = 0
        for batch in (1, 1, 2, 4, 8, 16):  # each batch fills the arrays' room, then grows them
            nodes, edges = [], []
            for i in range(count, count + batch):
                nodes.append(Node(f"event:{i}", NodeKind.EVENT, f"event {i}",
                                  random_unit_vector(np_rng)))
                nodes.append(Node(f"cause:{i}", NodeKind.CAUSE, f"cause {i}",
                                  random_unit_vector(np_rng)))
                if i % 3:
                    edges.append(Edge(f"cause:{i}", f"event:{i}", EdgeKind.CAUSES))
            write(nodes, edges)
            count += batch
        grown = {name: len(ids) for name, ids in bases.items()}
        assert grown["scoring"] >= 3 and grown["vecs"] >= 3
        assert len(store.scoring_rows().ids) == count
        # three events in four lose their text and vector, so their rows
        # die, and all causes but four their vector: both arrays compact in
        # this one write
        write([Node(f"event:{i}", NodeKind.EVENT) for i in range(count) if i % 4]
              + [Node(f"cause:{i}", NodeKind.CAUSE, f"cause {i}") for i in range(count - 4)])
    assert {name: len(ids) for name, ids in bases.items()} == {
        name: n + 1 for name, n in grown.items()
    }
    rows = store.scoring_rows()
    assert rows.alive.all() and len(rows.ids) == count // 4  # no dead row kept
    assert store._vec_count == count // 4 + 4  # the rows the nodes hold


def assert_one_array(store: GraphStore) -> None:
    """Every node's vector, an event's or not, is a view of the store's one
    vector array, and each live scoring row's screen is the screen of its
    node's row of that array and its norm."""
    rows = store.scoring_rows()
    for node in store.nodes():
        if node.embedding is not None:
            assert np.shares_memory(node.embedding, rows.vectors), node.id
    live = np.flatnonzero(rows.alive)
    vectors = rows.vectors[rows.vector_row[rows.nodes[live]]]
    assert rows.screens[live].tobytes() == screen_rows(vectors, rows.norms[live]).tobytes()


def test_every_stored_vector_is_a_row_of_the_one_array(tmp_path, provider):
    """After writes, a load, both compactions, and a load of a file whose
    scoring rows do not come first."""
    np_rng = np.random.default_rng(17)
    with mock.patch.object(store_module, "CHUNK_ROWS", 2):
        store = GraphStore()
        for i in range(8):
            event = small_event(store, f"event:{i}", f"text {i % 6}")
            store.upsert_node(Node(f"cause:{i}", NodeKind.CAUSE, f"text {i % 3}"))
            store.add_edge(Edge(f"cause:{i}", event, EdgeKind.CAUSES))
        store.upsert_node(Node("event:untexted", NodeKind.EVENT, None, random_unit_vector(np_rng)))
        batch_embed(store, provider)
        assert_one_array(store)
        # an event shares the row of the cause of its text, as one embed gave both
        assert np.shares_memory(store.get_node("event:0").embedding,
                                store.get_node("cause:3").embedding)
        path = tmp_path / "graph.json"
        store.save(path)
        store = GraphStore.load(path)
        assert_one_array(store)
        store.set_embeddings([(f"cause:{i}", None) for i in range(8)])
        for _ in range(2):  # new event rows, the old ones dead: both arrays compact
            rows, vecs = len(store.scoring_rows().ids), store._vec_count
            store.set_embeddings([(f"event:{i}", random_unit_vector(np_rng)) for i in range(8)])
            assert_one_array(store)
        assert len(store.scoring_rows().ids) < rows + 8 and store._vec_count < vecs + 8
        store.save(path)
        doc, vectors = read_snapshot(path)
    # one row no node holds, ahead of the scoring rows: they no longer come first
    doc["vectors"]["scoring"] += 1
    doc["nodes"]["vector_row"] = [row + (row >= 0) for row in doc["nodes"]["vector_row"]]
    moved = tmp_path / "moved.json"
    write_snapshot(moved, doc, np.vstack([random_unit_vector(np_rng), vectors]))
    loaded = GraphStore.load(moved)
    assert_one_array(loaded)
    assert loaded.nodes() == store.nodes()
    assert live_row_ids(loaded) == live_row_ids(store)
    q, cfg = random_unit_vector(np_rng), HybridConfig(tau=-2.0, k=20)
    assert query(loaded, q, cfg) == query(store, q, cfg)


def test_a_read_node_is_a_copy_and_its_vector_is_read_only(provider):
    store = GraphStore()
    small_event(store)
    for i, kind in enumerate((NodeKind.CAUSE, NodeKind.TRIGGER)):
        store.upsert_node(Node(f"span:{i}", kind, text="led to"))
    batch_embed(store, provider)
    mine = random_unit_vector(np.random.default_rng(3))
    store.set_embedding("span:1", mine)  # a writable array: the store keeps its own copy
    mine[0] = 7.0
    before = store_state(store)
    for node in [*store.nodes(), *map(store.get_node, ("event:1", "span:0", "span:1"))]:
        assert node.embedding is not None and not node.embedding.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            node.embedding[0] = 1.0
        node.embedding, node.text = mine, "changed"
        assert store_state(store) == before
    assert store.get_node("span:1").embedding[0] != 7.0


@settings(max_examples=100, deadline=None)
@given(
    steps=st.lists(st.tuples(
        st.sampled_from(["vector", "clear", "text", "event", "load"]),
        st.integers(0, 7), st.integers(0, 3),
    ), max_size=25),
    seed=st.integers(0, 2**32 - 1),
)
# the last holder of a text loses its vector, or its text
@example(steps=[("vector", 0, 0), ("vector", 1, 0), ("clear", 1, 0)], seed=0)
@example(steps=[("vector", 0, 0), ("vector", 1, 0), ("text", 1, 1)], seed=0)
def test_held_vectors_gives_each_texts_last_holder(tmp_path_factory, steps, seed):
    np_rng = np.random.default_rng(seed)
    texts = ["a", "b", "c", None]
    store = GraphStore()
    for step, i, t in steps:
        node_id = f"cause:{i}"
        held = node_id in {n.id for n in store.nodes()}
        if step == "vector":
            vector = random_unit_vector(np_rng)
            vector.flags.writeable = bool(t % 2)
            store.upsert_node(Node(node_id, NodeKind.CAUSE, texts[t], vector))
        elif step == "clear" and held:
            store.set_embedding(node_id, None)
        elif step == "text" and held:  # a new text, the vector kept
            node = store.get_node(node_id)
            store.upsert_node(Node(node_id, NodeKind.CAUSE, texts[t], node.embedding))
        elif step == "event":  # an event's vector is never held for reuse
            store.upsert_node(Node(f"event:{i}", NodeKind.EVENT, texts[t],
                                   random_unit_vector(np_rng)))
        elif step == "load":
            path = tmp_path_factory.mktemp("held") / "graph.json"
            store.save(path)
            store = GraphStore.load(path)
        want = {}  # the last node's, in insertion order
        for node in store.nodes():
            if node.kind is not NodeKind.EVENT and node.embedding is not None:
                want[node.text] = node.embedding
        got = store.held_vectors(texts[:3])
        assert got.keys() == want.keys() - {None}
        assert all(np.shares_memory(got[text], want[text]) for text in got)


@settings(max_examples=200, deadline=None)
@given(
    height=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-150, 1e-3, 1.0, 7.5, 1e150]),
    kind=st.sampled_from(["whole", "rows", "misaligned"]),
)
def test_a_vectors_norm_is_its_row_of_the_one_stacked_kernel(height, seed, scale, kind):
    """``check_embedding``'s norm is the root of the vector's row of
    ``einsum("ij,ij->i")`` over any C-contiguous stack holding it, so the
    norms a load takes from the whole vector file equal the writers' own."""
    rows = np.random.default_rng(seed).standard_normal((height + 3, EMBEDDING_DIM)) * scale
    if kind == "rows":  # a view of some rows of a larger stack, as the scoring array gives
        rows = rows[2 : 2 + height]
    elif kind == "misaligned":  # data at an odd address
        buffer = np.empty(rows.nbytes + 1, dtype=np.uint8)[1:]
        stack = buffer.view(np.float64).reshape(rows.shape)
        stack[:] = rows
        rows = stack
        assert not rows.flags.aligned
    checks, fault = store_module.check_embeddings(list(rows))  # the batch a provider gives
    assert fault is None and len(checks) == len(rows)
    for row, squared, (_, norm) in zip(rows, np.einsum("ij,ij->i", rows, rows), checks):
        assert check_embedding(row)[1] == math.sqrt(squared) == norm


@pytest.mark.parametrize("n_events", [300, CHUNK_ROWS + 200])
def test_clean_and_embed_cycles_bound_the_row_count(provider, n_events):
    """Both the scoring rows and the array of the other vectors (a private
    attribute's count) stay within their compaction bounds."""
    store = GraphStore()
    for i in range(n_events):
        store.upsert_node(Node(f"event:{i}", NodeKind.EVENT, text=f"event text {i}"))
        store.upsert_node(Node(f"cause:{i}", NodeKind.CAUSE, text=f"cause text {i}"))
    for cycle in range(5):
        for step in (clean_embeddings, lambda s: batch_embed(s, mock_provider(cycle))):
            step(store)
            rows, live = store.scoring_rows(), live_row_ids(store)
            assert len(rows.ids) <= 2 * len(live) + CHUNK_ROWS
            assert store._vec_count <= held_rows_bound(store)
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


def test_an_edge_a_snapshot_repeats_is_held_once(tmp_path, rng):
    store = random_store(rng, n_events=25)
    path = tmp_path / "graph.json"
    store.save(path)
    doc, vectors = read_snapshot(path)
    for column in doc["edges"].values():
        column += column[::-1]
    write_snapshot(path, doc, vectors)
    loaded = GraphStore.load(path)
    assert loaded.edges() == store.edges()
    assert loaded.stats() == store.stats()
    for node in store.nodes(NodeKind.EVENT):
        assert loaded.collect_texts(node.id) == store.collect_texts(node.id)
        assert loaded.neighbor_counts(node.id) == oracle_neighbor_counts(store, node.id)
    assert live_rows(loaded) == live_rows(store)  # linked bits too


def snapshot_files(path) -> dict[str, bytes]:
    """Every file in the snapshot's directory, after checking that the
    snapshot is the only one."""
    files = {p.name: p.read_bytes() for p in path.parent.iterdir()}
    assert list(files) == [path.name]
    return files


def test_failed_save_leaves_the_old_snapshot(tmp_path, rng, monkeypatch):
    path = tmp_path / "graph.json"
    random_store(rng, n_events=5).save(path)
    before = snapshot_files(path)
    real_open = io.open

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

    def failing_rename(src, dst):  # the commit, once the file is written whole
        raise OSError("rename interrupted")

    for target, name, fake, error in (
        (io, "open", failing_open, "no space"),
        (os, "replace", failing_rename, "rename interrupted"),
    ):
        monkeypatch.setattr(target, name, fake)
        with pytest.raises(OSError, match=error):
            random_store(rng, n_events=8).save(path)
        monkeypatch.undo()
        assert snapshot_files(path) == before  # the old snapshot whole, no temp file left
        assert len(GraphStore.load(path).nodes(NodeKind.EVENT)) == 5


@pytest.mark.parametrize("hook", ["read_magic", "memmap"])
def test_a_load_does_not_see_a_save_that_commits_during_it(tmp_path, rng, monkeypatch, hook):
    path = tmp_path / "graph.json"
    first = random_store(rng, n_events=6)
    batch_embed(first, mock_provider())
    first.save(path)
    newer = random_store(rng, n_events=9)
    batch_embed(newer, mock_provider(1))
    # the save commits after the load has opened the file: once its header
    # is read, or as the vectors are about to be mapped
    target = np.lib.format if hook == "read_magic" else np
    real = getattr(target, hook)

    def save_first(*args, **kwargs):
        newer.save(path)
        return real(*args, **kwargs)

    monkeypatch.setattr(target, hook, save_first)
    loaded = GraphStore.load(path)
    monkeypatch.undo()
    assert loaded.nodes() == first.nodes() and loaded.edges() == first.edges()
    assert live_rows(loaded) == live_rows(first) and loaded.embedded_by == first.embedded_by
    assert GraphStore.load(path).nodes() == newer.nodes()  # the save did commit


def share_span_texts(store: GraphStore, texts: int) -> None:
    """Give the store's span nodes one of ``texts`` texts each, so that
    ``batch_embed`` hands each group of them one shared array."""
    for i, node in enumerate(n for n in store.nodes() if n.kind is not NodeKind.EVENT):
        store.upsert_node(Node(node.id, node.kind, f"span {i % texts}"))


def test_snapshot_writes_version_4_with_each_shared_array_once(tmp_path, rng, provider):
    store = random_store(rng, n_events=40)
    share_span_texts(store, 4)
    batch_embed(store, provider)
    store.set_embedding("event:0", random_unit_vector(np.random.default_rng(3)))
    # an equal vector in an array of its own shares the row of its value too
    spans = [n for n in store.nodes() if n.kind is not NodeKind.EVENT and n.embedding is not None]
    copied = next(a for a in spans if not np.shares_memory(a.embedding, spans[0].embedding))
    store.set_embedding(copied.id, spans[0].embedding.copy())
    path = tmp_path / "first" / "graph.json"
    path.parent.mkdir()
    store.save(path)
    doc, array = read_snapshot(path)
    assert doc["version"] == SNAPSHOT_VERSION == 4
    assert list(doc) == ["format", "version", "vectors", "nodes", "edges"]
    nodes, edges, vectors = doc["nodes"], doc["edges"], doc["vectors"]
    assert list(vectors) == ["scoring", "provider"] and vectors["provider"] is None
    assert nodes["ids"] == [n.id for n in store.nodes()]
    assert nodes["kinds"] == [n.kind.value for n in store.nodes()]
    assert nodes["texts"] == [n.text for n in store.nodes()]
    live = live_row_ids(store)
    row_of = dict(zip(nodes["ids"], nodes["vector_row"]))
    assert vectors["scoring"] == len(live)
    assert [row_of[i] for i in live] == list(range(len(live)))  # event:0 is now last
    others = [n for n in store.nodes() if n.embedding is not None and n.id not in set(live)]
    shared = {n.embedding.tobytes() for n in others}
    # the .npy holds the live scoring rows plus each distinct shared vector once
    assert array.dtype == np.dtype("<f8")
    assert array.shape == (len(live) + len(shared), EMBEDDING_DIM)
    assert np.array_equal(np.load(path), array)
    for node in store.nodes():
        if node.embedding is not None:
            assert array[row_of[node.id]].tobytes() == node.embedding.tobytes()
    assert len(shared) < len({n.embedding.ctypes.data for n in others}) < len(others)
    for a in others:
        for b in others:
            equal = a.embedding.tobytes() == b.embedding.tobytes()
            assert (row_of[a.id] == row_of[b.id]) == equal
    assert all(row_of[n.id] == -1 for n in store.nodes() if n.embedding is None)
    index = {node_id: i for i, node_id in enumerate(nodes["ids"])}
    assert list(zip(edges["src"], edges["dst"], edges["kind"])) == [
        (index[e.src], index[e.dst], e.kind.value) for e in store.edges()
    ]
    loaded = GraphStore.load(path)
    assert loaded.nodes() == store.nodes() and live_row_ids(loaded) == live
    # nodes of one file row share one read-only array again
    held = {}
    for node in loaded.nodes():
        if node.id in row_of and node.embedding is not None and node.id not in set(live):
            assert not node.embedding.flags.writeable
            first = held.setdefault(row_of[node.id], node.embedding)
            assert np.shares_memory(first, node.embedding)
    assert len(held) == len(shared)
    again = tmp_path / "again" / "graph.json"
    again.parent.mkdir()
    loaded.save(again)  # save -> load -> save writes the same file
    assert snapshot_files(again) == snapshot_files(path)


def test_save_tells_vectors_apart_by_their_bytes(tmp_path):
    """``0.0`` and ``-0.0`` compare equal, yet two vectors that differ only
    there get a file row each; an equal copy shares its value's row."""
    vector = random_unit_vector(np.random.default_rng(7))
    vector[5] = 0.0
    negative = vector.copy()
    negative[5] = -0.0
    assert np.array_equal(vector, negative) and vector.tobytes() != negative.tobytes()
    store = GraphStore()
    for i, v in enumerate([vector, negative, vector.copy()]):
        store.upsert_node(Node(f"cause:{i}", NodeKind.CAUSE, f"c{i}", v))
    path = tmp_path / "graph.json"
    store.save(path)
    doc, array = read_snapshot(path)
    assert doc["nodes"]["vector_row"] == [0, 1, 0]
    assert [row.tobytes() for row in array] == [vector.tobytes(), negative.tobytes()]
    loaded = GraphStore.load(path)
    assert loaded.get_node("cause:1").embedding.tobytes() == negative.tobytes()
    again = tmp_path / "again.json"
    loaded.save(again)
    assert again.read_bytes() == path.read_bytes()


def test_a_view_a_read_returned_shares_its_row_when_written():
    """Written to a node of its text: a node shares its text's row when
    written that row's bytes, as a read's view or as an equal copy; a node
    of another text gets a row of its own."""
    store = GraphStore()
    vector = random_unit_vector(np.random.default_rng(3))
    vector[5] = 0.0
    store.upsert_node(Node("cause:0", NodeKind.CAUSE, "a", vector))
    store.upsert_node(Node("cause:1", NodeKind.CAUSE, "b"))
    store.upsert_node(Node("cause:2", NodeKind.CAUSE, "a"))
    held = store.get_node("cause:0").embedding
    store.set_embeddings([("cause:2", held)], "provider")
    store.set_embedding("cause:2", None)  # the last holder of "a" loses its vector
    store.set_embeddings([("cause:2", held.copy())], "provider")  # an equal copy
    assert np.shares_memory(store.get_node("cause:2").embedding, held)
    assert store._vec_count == 1
    negative = held.copy()
    negative[5] = -0.0  # equal, but not to the byte
    store.set_embeddings([("cause:2", negative)], "provider")
    assert store.get_node("cause:2").embedding.tobytes() == negative.tobytes()
    store.set_embedding("cause:1", held)
    got = store.get_node("cause:1").embedding
    assert not np.shares_memory(got, held) and got.tobytes() == held.tobytes()
    # anything but a whole row of the store, as a read gives it, is copied
    # into a row of its own, even another view of a row's memory
    for make in (np.copy, lambda v: v[::-1], lambda v: np.broadcast_to(v[:1], v.shape),
                 lambda v: v.view(np.int64)):
        held = store.get_node("cause:0").embedding  # a view of the rows as they are now
        store.set_embedding("cause:1", make(held))
        got = store.get_node("cause:1").embedding
        assert not np.shares_memory(got, held)
        assert got.tobytes() == np.asarray(make(held), dtype=np.float64).tobytes()


def test_a_vector_a_read_returned_never_changes(rng, provider):
    store = random_store(rng, n_events=60)
    batch_embed(store, provider)
    cause = next(n for n in store.nodes(NodeKind.CAUSE) if n.embedding is not None)
    held = [cause.embedding]  # each vector as a read returned it, and its bytes then
    before = [held[0].tobytes()]
    np_rng = np.random.default_rng(11)
    store.set_embedding(cause.id, random_unit_vector(np_rng))
    held.append(store.get_node(cause.id).embedding)
    before.append(held[-1].tobytes())
    store.set_embedding(cause.id, None)
    # rows no node holds, past the bound: the array grows and is rebuilt
    spans = [n.id for n in store.nodes()
             if n.kind is not NodeKind.EVENT and n.embedding is not None and n.id != cause.id][:8]
    for i in range(3 * CHUNK_ROWS):
        held.append(store.get_node(spans[i % len(spans)]).embedding)
        before.append(held[-1].tobytes())
        store.set_embedding(spans[i % len(spans)], random_unit_vector(np_rng))
        assert store._vec_count <= held_rows_bound(store)
    clean_embeddings(store)
    batch_embed(store, provider)
    assert [vector.tobytes() for vector in held] == before
    for vector in held:
        assert not vector.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            vector[0] = 1.0


def written_store(n_events: int, seed: int, texts: int) -> GraphStore:
    """A store built through the public writers: event and span texts drawn
    from ``texts`` distinct ones or missing, events with and without edges,
    every text embedded, some event vectors replaced (new rows, old ones
    dead) by strided views of vectors of several lengths and, at times, an
    event without text that holds a vector."""
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    store = GraphStore()
    spans = ((NodeKind.CAUSE, EdgeKind.CAUSES), (NodeKind.EFFECT, EdgeKind.RESULTS_IN),
             (NodeKind.TRIGGER, EdgeKind.HAS_TRIGGER))
    for i in range(n_events):
        event_id = f"event:{i}"
        text = None if rng.random() < 0.05 else f"event text {rng.randrange(texts)}"
        store.upsert_node(Node(event_id, NodeKind.EVENT, text))
        for kind, edge_kind in spans:
            if rng.random() < 0.3:
                node_id = f"{kind.value.lower()}:{i}"
                span = None if rng.random() < 0.1 else f"{kind.value} {rng.randrange(texts)}"
                store.upsert_node(Node(node_id, kind, span))
                ends = (node_id, event_id) if kind is NodeKind.CAUSE else (event_id, node_id)
                store.add_edge(Edge(*ends, edge_kind))
    batch_embed(store, mock_provider(seed % 3))
    for i in rng.sample(range(n_events), min(n_events, rng.randrange(6))):
        vector = random_unit_vector(np_rng) * 10.0 ** (i % 5 - 2)
        store.set_embedding(f"event:{i}", np.repeat(vector, 2)[::2])
    if rng.random() < 0.5:
        store.upsert_node(
            Node("event:untexted", NodeKind.EVENT, None, random_unit_vector(np_rng))
        )
    return store


def replay(path: Path) -> GraphStore:
    """The snapshot at ``path`` written into a new store through the public
    writers, record by record, as ``load`` once did."""
    doc, vectors = read_snapshot(path)
    store = GraphStore()
    nodes, edges = doc["nodes"], doc["edges"]
    ids = nodes["ids"]
    for rec in zip(ids, nodes["kinds"], nodes["texts"]):
        store.upsert_node(Node(rec[0], NodeKind(rec[1]), rec[2]))
    held = sorted((row, i) for i, row in zip(ids, nodes["vector_row"]) if row >= 0)
    store.set_embeddings([(i, vectors[row]) for row, i in held], doc["vectors"]["provider"])
    for src, dst, kind in zip(edges["src"], edges["dst"], edges["kind"]):
        store.add_edge(Edge(ids[src], ids[dst], EdgeKind(kind)))
    return store


def live_rows(store: GraphStore) -> tuple[list[str], bytes, bytes]:
    """Ids, norms (as bytes, so equal means equal to the bit) and linked bits
    of the live scoring rows, in row order."""
    rows = store.scoring_rows()
    return (
        [i for i, alive in zip(rows.ids, rows.alive) if alive],
        rows.norms[rows.alive].tobytes(),
        rows.linked[rows.alive].tobytes(),
    )


@settings(max_examples=10, deadline=None)
@given(
    n_events=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
    texts=st.sampled_from([1, 3, 10**6]),
)
@example(n_events=620, seed=1, texts=3)  # more live rows than save writes in one block
@example(n_events=620, seed=2, texts=10**6)
@example(n_events=620, seed=3, texts=3)
def test_load_gives_the_store_the_public_writers_give(tmp_path_factory, n_events, seed, texts):
    store = written_store(n_events, seed, texts)
    path = tmp_path_factory.mktemp("equal") / "graph.json"
    store.save(path)
    loaded, want = GraphStore.load(path), replay(path)
    assert loaded.nodes() == want.nodes() == store.nodes()  # ids, kinds, texts, vectors to the bit
    assert loaded.edges() == want.edges()
    loaded.insert((), reversed(store.edges()))  # every edge held already: nothing changes
    assert loaded.edges() == want.edges()
    for event in want.nodes(NodeKind.EVENT):
        assert loaded.collect_texts(event.id) == want.collect_texts(event.id)
    # row order, norms to the bit and linked bits, as the writers gave them
    assert live_rows(loaded) == live_rows(want) == live_rows(store)
    if n_events >= 600:
        assert len(live_rows(loaded)[0]) > CHUNK_ROWS
    assert loaded.embedded_by == store.embedded_by
    np_rng = np.random.default_rng(seed)
    queries = [random_unit_vector(np_rng) for _ in range(4)]
    queries += [n.embedding for n in store.nodes(NodeKind.EVENT)[:4] if n.embedding is not None]
    cfg = HybridConfig(k=25, tau=-2.0)
    want_results = [query(store, q, cfg) for q in queries]  # ids and scores to the bit
    assert [query(loaded, q, cfg) for q in queries] == want_results
    assert [query(want, q, cfg) for q in queries] == want_results


def test_a_refused_set_embeddings_writes_nothing(provider):
    store = GraphStore()
    for i in (1, 2):
        small_event(store, f"event:{i}", f"text {i}")
    batch_embed(store, provider)
    before = store_state(store)
    np_rng = np.random.default_rng(5)
    pairs = [("event:1", random_unit_vector(np_rng)), ("event:2", None),
             ("event:3", random_unit_vector(np_rng))]
    with pytest.raises(UnknownIdError, match="'event:3'"):
        store.set_embeddings(pairs)
    assert store_state(store) == before
    assert store.embedded_by == provider.identity


def test_a_refused_upsert_node_keeps_embedded_by(provider):
    store = GraphStore()
    small_event(store)
    batch_embed(store, provider)
    before = store_state(store)
    vector = random_unit_vector(np.random.default_rng(6))
    with pytest.raises(KindViolationError):
        store.upsert_node(Node("event:1", NodeKind.CAUSE, text="it happened", embedding=vector))
    assert store_state(store) == before
    assert store.embedded_by == provider.identity


def writes_before_compaction(writer: str, per_call: int) -> int:
    """How many writes of one event's vector, ``per_call`` to a call, a
    store of five embedded events takes until a write compacts its rows."""
    vector = np.full(EMBEDDING_DIM, 0.5)
    node = Node("event:0", NodeKind.EVENT, text="event 0", embedding=vector)
    store = GraphStore()
    store.insert([Node(f"event:{i}", NodeKind.EVENT, f"event {i}", vector) for i in range(5)])
    rows = len(store.scoring_rows().ids)
    for call in range(1, 100):
        if writer == "insert":
            store.insert([node] * per_call)
        else:
            store.set_embeddings([(node.id, vector)] * per_call)
        assert len(live_row_ids(store)) == 5
        if len(store.scoring_rows().ids) < rows:
            return call * per_call
        rows = len(store.scoring_rows().ids)
    raise AssertionError("no compaction")


@pytest.mark.parametrize("writer", ["insert", "set_embeddings"])
def test_a_node_named_twice_in_one_call_does_not_bring_compaction_sooner(writer):
    # the store compacts once dead rows outnumber live ones by CHUNK_ROWS, here 4
    with mock.patch.object(store_module, "CHUNK_ROWS", 4):
        one_each = writes_before_compaction(writer, 1)
        assert one_each == 9  # 14 rows, 5 of them live
        assert writes_before_compaction(writer, 2) >= one_each


@settings(max_examples=60, deadline=None)
@given(
    n_events=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.tuples(st.integers(0, 10**6), st.integers(-1, 3)), max_size=30),
    identity=st.sampled_from(["none", "own", "third"]),
)
# one call clears every vector the store holds, then writes one under a third identity
@example(n_events=1, seed=0, picks=[(i, -1) for i in range(6)] + [(0, 0)], identity="third")
def test_one_set_embeddings_call_writes_what_one_call_per_pair_writes(
    tmp_path_factory, n_events, seed, picks, identity
):
    np_rng = np.random.default_rng(seed)
    pool = [random_unit_vector(np_rng) * scale for scale in (1.0, 0.5, 3.0)]
    shared = pool[0].copy()
    shared.flags.writeable = False  # one read-only array for many nodes, as batch_embed gives
    pool.append(shared)
    stores = []
    # early compaction
    with mock.patch.object(store_module, "CHUNK_ROWS", 3):
        for _ in range(2):
            stores.append(written_store(n_events, seed, 3))
        ids = [n.id for n in stores[0].nodes()]  # events, with and without text, and spans
        if not ids:
            return
        pairs = [(ids[i % len(ids)], None if v < 0 else pool[v]) for i, v in picks]
        embedded_by = {"none": None, "own": stores[0].embedded_by, "third": "third-provider"}[
            identity
        ]
        stores[0].set_embeddings(pairs, embedded_by)
        for pair in pairs:
            stores[1].set_embeddings([pair], embedded_by)
        paths = [tmp_path_factory.mktemp("pairs") / "graph.json" for _ in stores]
        for store, path in zip(stores, paths):
            store.save(path)
    assert snapshot_files(paths[0]) == snapshot_files(paths[1])
    one, each = stores
    assert one.nodes() == each.nodes()
    for a, b in zip(one.nodes(), each.nodes()):
        assert (a.embedding is None) == (b.embedding is None)
        assert a.embedding is None or a.embedding.tobytes() == b.embedding.tobytes()
    assert live_rows(one) == live_rows(each)
    assert one.embedded_by == each.embedded_by
    assert one.stats() == each.stats()


# per kind, ids some of which written_store holds; "event:9" it never holds
INSERT_IDS = {kind: [f"{kind.value.lower()}:{i}" for i in range(3)] for kind in NodeKind}
ALL_INSERT_IDS = [node_id for ids in INSERT_IDS.values() for node_id in ids] + ["event:9"]
KINDS = list(NodeKind)


@st.composite
def insert_calls(draw):
    """Nodes and edges for one ``insert`` call: repeated ids, missing texts,
    vectors or none (a shared read-only one, a scaled one, now and then a
    zero one), a node now and then of another kind than its id's, and
    edges mostly between nodes of the kinds their kind wants."""
    nodes = []
    for kind, i, other, text, vector in draw(st.lists(st.tuples(
        st.sampled_from(KINDS), st.integers(0, 2), st.integers(0, 11),
        st.sampled_from([None, "a", "b", "c"]),
        st.sampled_from([None, None, 0, 1, 2, 3, 3, 4]),
    ), max_size=12)):
        node_kind = KINDS[(KINDS.index(kind) + 1) % 4] if other == 0 else kind
        nodes.append((INSERT_IDS[kind][i], node_kind, text, vector))
    edges = []
    for kind, i, j, wild in draw(st.lists(st.tuples(
        st.sampled_from(list(EdgeKind)), st.integers(0, 2), st.integers(0, 2),
        st.integers(0, 9),
    ), max_size=10)):
        src_kind, dst_kind = store_module.EDGE_ENDPOINTS[kind]
        src, dst = INSERT_IDS[src_kind][i], INSERT_IDS[dst_kind][j]
        if wild == 0:
            src = ALL_INSERT_IDS[(i * 5 + j) % len(ALL_INSERT_IDS)]
        elif wild == 1:
            dst = ALL_INSERT_IDS[(j * 7 + i) % len(ALL_INSERT_IDS)]
        edges.append(Edge(src, dst, kind))
    return nodes, edges


@settings(max_examples=150, deadline=None)
@given(
    n_events=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
    call=insert_calls(),
)
@example(  # a kind refused after a write the loop makes: insert makes none
    n_events=2, seed=0,
    call=([("cause:0", NodeKind.CAUSE, "a", 0), ("event:1", NodeKind.CAUSE, None, None)], []),
)
@example(  # a zero vector after a kind refusal: the kind is refused first
    n_events=2, seed=0,
    call=([("event:1", NodeKind.CAUSE, "a", None), ("cause:2", NodeKind.CAUSE, "b", 4)], []),
)
@example(  # an edge to a node the call itself adds
    n_events=0, seed=0,
    call=([("event:0", NodeKind.EVENT, "a", 0), ("trigger:1", NodeKind.TRIGGER, "t", None)],
          [Edge("event:0", "trigger:1", EdgeKind.HAS_TRIGGER)] * 2),
)
def test_insert_writes_what_one_call_per_node_and_edge_writes(
    tmp_path_factory, n_events, seed, call
):
    np_rng = np.random.default_rng(seed)
    pool = [random_unit_vector(np_rng) * scale for scale in (1.0, 0.5, 3.0)]
    shared = pool[0].copy()
    shared.flags.writeable = False  # one read-only array for many nodes, as batch_embed gives
    pool += [shared, np.zeros(EMBEDDING_DIM)]
    nodes = [Node(i, kind, text, None if v is None else pool[v]) for i, kind, text, v in call[0]]
    edges = call[1]
    # early compaction
    with mock.patch.object(store_module, "CHUNK_ROWS", 3):
        one = written_store(n_events, seed, 3)
        each = ReferenceGraph(written_store(n_events, seed, 3))
        try:
            reference_insert(each, nodes, edges)
        except CausewayError as exc:
            before = (store_state(one), one.edges())
            with pytest.raises(type(exc)) as refused:
                one.insert(nodes, edges)
            assert str(refused.value) == str(exc)
            assert (store_state(one), one.edges()) == before  # a refused call writes nothing
            return
        one.insert(nodes, edges)
        path = tmp_path_factory.mktemp("insert") / "graph.json"
        one.save(path)
    # the store, and its snapshot loaded back, hold what the model holds
    for got in (one, GraphStore.load(path)):
        assert got.nodes() == each.nodes()
        for a, b in zip(got.nodes(), each.nodes()):
            assert (a.embedding is None) == (b.embedding is None)
            assert a.embedding is None or a.embedding.tobytes() == b.embedding.tobytes()
        assert got.edges() == each.edges()
        assert live_rows(got) == live_rows(each)  # row order, norms and linked bits
        assert got.embedded_by == each.embedded_by
        assert got.stats() == each.stats()
        for event in each.nodes(NodeKind.EVENT):
            assert got.collect_texts(event.id) == each.collect_texts(event.id)


def test_snapshot_rejects_foreign_file(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else", "version": 3}', encoding="utf-8")
    with pytest.raises(ValueError):
        GraphStore.load(path)


# nodes and edges in record notation, written as snapshot columns by as_columns
NODE = {"id": "event:1", "kind": "Event", "text": "t"}
CAUSE = {"id": "cause:1", "kind": "Cause", "text": "c"}
EDGE = {"src": "cause:1", "dst": "event:1", "kind": "CAUSES"}
# records the store refuses, each with its error and its message after
# "<path>: snapshot "
REFUSED_RECORDS = {
    "node-kind-unknown": (
        {"nodes": [NODE, {**CAUSE, "kind": "Foo"}], "edges": []},
        ValueError, "nodes[1]: 'Foo' is not a valid NodeKind",
    ),
    "edge-kind-unknown": (
        {"nodes": [NODE, CAUSE], "edges": [{**EDGE, "kind": "PRECEDES"}]},
        ValueError, "edges[0]: 'PRECEDES' is not a valid EdgeKind",
    ),
    "edge-endpoint-missing": (
        {"nodes": [NODE], "edges": [EDGE]},
        MissingEndpointError, "edges[0]: edge endpoint 1 not in store",
    ),
    "edge-kinds-wrong": (
        {"nodes": [NODE, CAUSE], "edges": [EDGE, {**EDGE, "kind": "RESULTS_IN"}]},
        KindViolationError, "edges[1]: RESULTS_IN requires Event->Effect, got Cause->Event",
    ),
    "node-id-repeated": (
        {"nodes": [NODE, CAUSE, {**NODE, "text": "u"}], "edges": []},
        ValueError, "nodes[0] and nodes[2] repeat the node id 'event:1'",
    ),
    "node-id-changes-kind": (
        {"nodes": [NODE, {**NODE, "kind": "Cause"}], "edges": []},
        KindViolationError,
        "nodes[0] and nodes[1]: node 'event:1' is Event, cannot change to Cause",
    ),
}


NO_VECTORS = np.empty((0, EMBEDDING_DIM))


def as_columns(path: Path, records: dict) -> dict:
    """``records`` as a snapshot document, with the ``vectors`` record of an
    empty store's snapshot, saved at ``path``, whose vectors are NO_VECTORS:
    each edge end is the index of the first node of its id, or one past the
    nodes if there is none."""
    GraphStore().save(path)
    vectors = read_snapshot(path)[0]["vectors"]
    nodes = records["nodes"]
    first = {}
    for i, n in enumerate(nodes):
        first.setdefault(n["id"], i)
    ends = [
        (first.get(e["src"], len(nodes)), first.get(e["dst"], len(nodes)))
        for e in records["edges"]
    ]
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "vectors": vectors,
        "nodes": {
            "ids": [n["id"] for n in nodes],
            "kinds": [n["kind"] for n in nodes],
            "texts": [n["text"] for n in nodes],
            "vector_row": [-1] * len(nodes),
        },
        "edges": {
            "src": [src for src, _ in ends],
            "dst": [dst for _, dst in ends],
            "kind": [e["kind"] for e in records["edges"]],
        },
    }


GONE = object()  # a value that deletes its key
NOT_ROWS = f"vectors must be <f8 of shape (rows, {EMBEDDING_DIM}) in C order"
NOT_NODE_COLUMNS = (
    "snapshot 'nodes' must be an object of lists ['ids', 'kinds', 'texts', 'vector_row']"
)
NOT_EDGE_COLUMNS = "snapshot 'edges' must be an object of lists ['src', 'dst', 'kind']"
# malformed documents: the keys of a value in the document of NODE, CAUSE
# and EDGE (none for the whole document, None for the vectors before it),
# the value it gets instead (bytes are the whole document), and the
# refusal's message after "<path>: "
MALFORMED = {
    "list": ((), [1, 2], f"not a {SNAPSHOT_FORMAT} file"),
    "string": ((), "text", f"not a {SNAPSHOT_FORMAT} file"),
    "truncated": (
        (), b'{"format": "causeway-graph-snapshot", "version": 4, "nodes": {"ids": [',
        "snapshot is not UTF-8 JSON: Expecting value: line 1 column 71 (char 70)",
    ),
    "not-utf-8": (
        (), b"\xff{}",
        "snapshot is not UTF-8 JSON: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte",
    ),
    "no-nodes": (("nodes",), GONE, NOT_NODE_COLUMNS),
    "nodes-not-list": (("nodes",), {}, NOT_NODE_COLUMNS),
    "no-edges": (("edges",), GONE, NOT_EDGE_COLUMNS),
    "edges-not-list": (("edges",), None, NOT_EDGE_COLUMNS),
    "node-not-object": (("nodes",), [1], NOT_NODE_COLUMNS),
    "node-missing-key": (("nodes", "texts"), GONE, NOT_NODE_COLUMNS),
    "edge-not-object": (("edges",), [[1, 0, "CAUSES"]], NOT_EDGE_COLUMNS),
    "edge-missing-key": (("edges", "dst"), GONE, NOT_EDGE_COLUMNS),
    "node-id-list": (("nodes", "ids", 0), ["event:1"], "snapshot nodes[0] 'ids' must not be list"),
    "node-text-number": (("nodes", "texts", 0), 5, "snapshot nodes[0] 'texts' must not be int"),
    "node-embedding-object": (
        ("nodes", "vector_row", 0), {}, "snapshot nodes[0] 'vector_row' must not be dict"
    ),
    "node-embedding-short": (None, np.ones((1, 1)), f"snapshot {NOT_ROWS}"),
    "edge-src-list": (("edges", "src", 0), [1], "snapshot edges[0] 'src' must not be list"),
    "edge-dst-number": (("edges", "dst", 0), 0.0, "snapshot edges[0] 'dst' must not be float"),
}


def changed(doc, keys: tuple, value):
    """``doc`` with the value at ``keys`` (the whole document for none) set
    to ``value``, or deleted if ``value`` is GONE."""
    if not keys:
        return value
    *outer, last = keys
    target = doc
    for key in outer:
        target = target[key]
    if value is GONE:
        del target[last]
    else:
        target[last] = value
    return doc


@pytest.mark.parametrize("name", [*MALFORMED, *REFUSED_RECORDS])
def test_snapshot_rejects_malformed_shape(tmp_path, name):
    path = tmp_path / "bad.json"
    vectors = NO_VECTORS
    if name in MALFORMED:
        keys, value, message = MALFORMED[name]
        error, payload = ValueError, as_columns(path, {"nodes": [NODE, CAUSE], "edges": [EDGE]})
        if keys is None:
            vectors = value
        else:
            payload = changed(payload, keys, value)
    else:
        records, error, message = REFUSED_RECORDS[name]
        payload, message = as_columns(path, records), f"snapshot {message}"
    write_snapshot(path, payload, vectors)
    with pytest.raises(error) as info:
        GraphStore.load(path)
    assert str(info.value) == f"{path}: {message}"


def assert_refused_and_exits_one(path: Path, error, message: str) -> None:
    """Loading ``path`` raises ``error`` (that class exactly) with the message
    ``<path>: snapshot <message>``, and ``causeway stats`` on it prints that
    message and exits 1."""
    with pytest.raises(error) as info:
        GraphStore.load(path)
    assert type(info.value) is error
    assert str(info.value) == f"{path}: snapshot {message}"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--store", str(path), "stats"])
    assert code == 1
    assert err.getvalue() == f"error: {path}: snapshot {message}\n"


# each case keeps the id it had when it also ran on versions 1 and 2
@pytest.mark.parametrize("name", REFUSED_RECORDS, ids=lambda name: f"{name}-3")
def test_refused_record_is_named_and_exits_one(tmp_path, name):
    records, error, message = REFUSED_RECORDS[name]
    path = tmp_path / "graph.json"
    write_snapshot(path, as_columns(path, records), NO_VECTORS)
    assert_refused_and_exits_one(path, error, message)


SCORING_NOT_A_COUNT = "vectors 'scoring' must be an integer from 0 to the row count"


# "v3" names the tests of the columns that snapshot version 3 introduced and
# version 4 keeps
def v3_base(path: Path) -> dict:
    """Save, at ``path``, a small store whose two causes share one array,
    and return its document: nodes event:0, event:1 (scoring rows 0 and 1),
    cause:0, cause:1 (shared row 2) and effect:0 (row 3); edges
    cause:0 -> event:0, event:0 -> effect:0 and cause:1 -> event:1."""
    store = GraphStore()
    for node in (Node("event:0", NodeKind.EVENT, "e0"), Node("event:1", NodeKind.EVENT, "e1"),
                 Node("cause:0", NodeKind.CAUSE, "c"), Node("cause:1", NodeKind.CAUSE, "c"),
                 Node("effect:0", NodeKind.EFFECT, "x")):
        store.upsert_node(node)
    store.add_edge(Edge("cause:0", "event:0", EdgeKind.CAUSES))
    store.add_edge(Edge("event:0", "effect:0", EdgeKind.RESULTS_IN))
    store.add_edge(Edge("cause:1", "event:1", EdgeKind.CAUSES))
    batch_embed(store, mock_provider())
    store.save(path)
    doc = read_snapshot(path)[0]
    assert doc["nodes"]["vector_row"] == [0, 1, 2, 2, 3] and doc["vectors"]["scoring"] == 2
    return doc


def put(*changes):
    """A fault: set each ``(section, column, index, value)`` in the document."""

    def apply(doc: dict) -> None:
        for section, column, index, value in changes:
            if index is None:
                doc[section][column] = value
            else:
                doc[section][column][index] = value

    return apply


# faults of v3_base's document: the change, the error and its message after
# "<path>: snapshot "
NOT_A_ROW = "vector_row {} is not a row of the vector file"
NOT_SCORING = "vector_row {} is a scoring row, but the node is not an event with text"
V3_REFUSALS = {
    "vector-row-past-the-file": (
        put(("nodes", "vector_row", 2, 4)), ValueError, "nodes[2]: " + NOT_A_ROW.format(4)
    ),
    "vector-row-below-none": (
        put(("nodes", "vector_row", 4, -2)), ValueError, "nodes[4]: " + NOT_A_ROW.format(-2)
    ),
    "vector-row-huge": (
        put(("nodes", "vector_row", 3, 2**70)), ValueError, "nodes[3]: " + NOT_A_ROW.format(2**70)
    ),
    "vector-row-not-integer": (
        put(("nodes", "vector_row", 1, 1.0)), ValueError, "nodes[1] 'vector_row' must not be float"
    ),
    "vector-row-bool": (
        put(("nodes", "vector_row", 1, True)), ValueError, "nodes[1] 'vector_row' must not be bool"
    ),
    "scoring-row-shared": (
        put(("nodes", "vector_row", 1, 0)), ValueError,
        "nodes[0] and nodes[1] share the scoring row 0",
    ),
    "scoring-event-on-shared-row": (
        put(("nodes", "vector_row", 0, 2)), ValueError,
        "nodes[0]: a scoring event's vector_row must be below 2",
    ),
    "shared-node-on-scoring-row": (
        put(("nodes", "vector_row", 2, 1)), ValueError, "nodes[2]: " + NOT_SCORING.format(1)
    ),
    "untexted-event-on-scoring-row": (
        put(("nodes", "texts", 0, None)), ValueError, "nodes[0]: " + NOT_SCORING.format(0)
    ),
    "edge-end-past-the-nodes": (
        put(("edges", "src", 1, 5)), MissingEndpointError,
        "edges[1]: edge endpoint 5 not in store",
    ),
    "edge-end-negative": (
        put(("edges", "dst", 0, -1)), MissingEndpointError,
        "edges[0]: edge endpoint -1 not in store",
    ),
    "edge-end-huge": (
        put(("edges", "src", 2, 2**64)), MissingEndpointError,
        f"edges[2]: edge endpoint {2**64} not in store",
    ),
    "edge-end-not-integer": (
        put(("edges", "dst", 2, "event:1")), ValueError, "edges[2] 'dst' must not be str"
    ),
    "edge-ends-wrong-kinds": (
        put(("edges", "src", 2, 4)), KindViolationError,
        "edges[2]: CAUSES requires Cause->Event, got Effect->Event",
    ),
    "edge-kind-unknown": (
        put(("edges", "kind", 1, "PRECEDES")), ValueError,
        "edges[1]: 'PRECEDES' is not a valid EdgeKind",
    ),
    "node-id-repeated": (
        put(("nodes", "ids", 3, "cause:0")), ValueError,
        "nodes[2] and nodes[3] repeat the node id 'cause:0'",
    ),
    "node-id-changes-kind": (
        put(("nodes", "ids", 2, "event:1")), KindViolationError,
        "nodes[1] and nodes[2]: node 'event:1' is Event, cannot change to Cause",
    ),
    # several faults: the first record in file order is named
    "first-node-named": (
        put(("nodes", "kinds", 3, "Foo"), ("nodes", "vector_row", 1, 9)), ValueError,
        "nodes[1]: " + NOT_A_ROW.format(9),
    ),
    "kind-before-a-later-type-fault": (
        put(("nodes", "kinds", 1, "Foo"), ("nodes", "ids", 3, 7)), ValueError,
        "nodes[1]: 'Foo' is not a valid NodeKind",
    ),
    "type-fault-before-a-later-kind": (
        put(("nodes", "ids", 1, 7), ("nodes", "kinds", 3, "Foo")), ValueError,
        "nodes[1] 'ids' must not be int",
    ),
    "first-edge-named": (
        put(("edges", "kind", 2, "PRECEDES"), ("edges", "src", 1, 9)),
        MissingEndpointError, "edges[1]: edge endpoint 9 not in store",
    ),
    "edge-kinds-before-a-later-type-fault": (
        put(("edges", "src", 0, 1), ("edges", "dst", 2, None)), KindViolationError,
        "edges[0]: CAUSES requires Cause->Event, got Event->Event",
    ),
    "nodes-not-columns": (
        put(("nodes", "ids", None, "x")), ValueError,
        "'nodes' must be an object of lists ['ids', 'kinds', 'texts', 'vector_row']",
    ),
    "edge-lists-of-two-lengths": (
        put(("edges", "kind", None, ["CAUSES"])), ValueError,
        "'edges' lists must be of one length",
    ),
    "scoring-past-the-rows": (
        put(("vectors", "scoring", None, 5)), ValueError, SCORING_NOT_A_COUNT
    ),
    "scoring-not-integer": (
        put(("vectors", "scoring", None, True)), ValueError, SCORING_NOT_A_COUNT
    ),
}


@pytest.mark.parametrize("name", V3_REFUSALS)
def test_v3_refusal_is_named_and_exits_one(tmp_path, name):
    change, error, message = V3_REFUSALS[name]
    path = tmp_path / "graph.json"
    doc = v3_base(path)
    change(doc)
    write_snapshot(path, doc, np.load(path))
    assert_refused_and_exits_one(path, error, message)


# one record with two faults, for each pair of checks that load applies one
# after the other: node kind, repeated id, vector_row; edge kind, missing
# src, missing dst, endpoint kinds; a vector_row out of range, then a
# scoring event's row at or above `scoring`. The earlier check's refusal
# names the record. The later row checks, another node on a scoring row and
# a shared scoring row, cannot pair up so: a record is a scoring event or
# not, and the first node on a shared row has every other row fault its
# partner has. Each fault: the change to v3_base's document, the error and
# its message after "<path>: snapshot ".
FAULT_PAIRS = {
    "v3-node-kind-then-repeated-id": (
        put(("nodes", "ids", 3, "cause:0"), ("nodes", "kinds", 3, "Foo")), ValueError,
        "nodes[3]: 'Foo' is not a valid NodeKind",
    ),
    "v3-repeated-id-then-vector-row": (
        put(("nodes", "ids", 3, "cause:0"), ("nodes", "vector_row", 3, 9)), ValueError,
        "nodes[2] and nodes[3] repeat the node id 'cause:0'",
    ),
    "v3-edge-kind-then-missing-src": (
        put(("edges", "kind", 1, "PRECEDES"), ("edges", "src", 1, 9)), ValueError,
        "edges[1]: 'PRECEDES' is not a valid EdgeKind",
    ),
    "v3-missing-src-then-missing-dst": (
        put(("edges", "src", 1, 9), ("edges", "dst", 1, -1)), MissingEndpointError,
        "edges[1]: edge endpoint 9 not in store",
    ),
    "v3-missing-dst-then-endpoint-kinds": (
        put(("edges", "src", 1, 2), ("edges", "dst", 1, 9)), MissingEndpointError,
        "edges[1]: edge endpoint 9 not in store",
    ),
    "v3-row-out-of-range-then-scoring-row-too-high": (
        put(("nodes", "vector_row", 0, 4)), ValueError, "nodes[0]: " + NOT_A_ROW.format(4)
    ),
}


@pytest.mark.parametrize("name", FAULT_PAIRS)
def test_a_record_with_two_faults_gets_the_earlier_checks_refusal(tmp_path, name):
    change, error, message = FAULT_PAIRS[name]
    path = tmp_path / "graph.json"
    doc = v3_base(path)
    change(doc)
    write_snapshot(path, doc, np.load(path))
    assert_refused_and_exits_one(path, error, message)


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
# (section, where, key): a column's entry, or the vectors record's key
SNAPSHOT_FIELDS = (
    [("nodes", i, key) for key in ("ids", "kinds", "texts", "vector_row") for i in (0, 2)]
    + [("edges", 0, key) for key in ("src", "dst", "kind")]
    + [("vectors", None, key) for key in ("scoring", "provider")]
)


@settings(max_examples=400, deadline=None)
@given(field=st.sampled_from(SNAPSHOT_FIELDS), value=JSON_VALUES)
def test_snapshot_field_value_loads_or_raises_documented_error(
    tmp_path_factory, field, value
):
    section, where, key = field
    path = tmp_path_factory.getbasetemp() / "field-value" / "graph.json"
    path.parent.mkdir(exist_ok=True)
    payload = v3_base(path)
    if where is None:
        payload[section][key] = value
    else:
        payload[section][key][where] = value
    write_snapshot(path, payload, np.load(path))
    try:
        GraphStore.load(path)
    except (ValueError, CausewayError):
        pass


# a value of each JSON type a record key may take
FIELD_VALUES = {
    str: st.text(max_size=4), type(None): st.none(), int: st.integers() | st.booleans(),
}


@st.composite
def records(draw, types: dict):
    """An object holding most of ``types``' keys, each mostly with a value of
    one of its types, and perhaps other keys; or any JSON value."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES)
    rec = {}
    for key, allowed in types.items():
        allowed = allowed if isinstance(allowed, tuple) else (allowed,)
        if draw(st.integers(0, 9)):
            rec[key] = draw(st.one_of(*(FIELD_VALUES[t] for t in allowed)) | JSON_VALUES)
    rec.update(draw(st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=2)))
    return rec


@settings(max_examples=200, deadline=None)
@given(rec=records(REFERENCE_VECTORS.types))
def test_fields_checks_a_record_as_the_reference_does(rec):
    def outcome(check):
        try:
            return check()
        except ValueError as exc:
            return type(exc), str(exc)

    got = outcome(lambda: store_module._fields("g.json", "r", rec, store_module._VECTORS))
    assert got == outcome(lambda: REFERENCE_VECTORS.values("g.json", "r", rec))


# the `record` fault's sub-cases, by id: a key of the `vectors` record (or
# of the .npy header, for `dtype` and `shape`, once record keys), the value
# it gets, and the refusal's message after "<path>: snapshot " for
# broken_snapshot's store (25 vector rows, 5 of them scoring rows)
VECTORS_KEYS = "'vectors' must be an object with keys ['provider', 'scoring']"
RECORD_REFUSALS = {
    "dtype-float32": ("dtype", "<f4", NOT_ROWS),
    "dtype-big-endian": ("dtype", ">f8", NOT_ROWS),
    "shape-no-rows": ("shape", (0, EMBEDDING_DIM), SCORING_NOT_A_COUNT),
    "drop-row-scoring-short": (
        "drop-row", None, "nodes[21]: a scoring event's vector_row must be below 5"
    ),
    "no-record": ("no-record", None, VECTORS_KEYS),
    "scoring-string": ("scoring", "x", "'vectors' 'scoring' must not be str"),
    "scoring-null": ("scoring", None, "'vectors' 'scoring' must not be NoneType"),
    "scoring-negative": ("scoring", -1, SCORING_NOT_A_COUNT),
    "scoring-past-row-count": ("scoring", 10**6, SCORING_NOT_A_COUNT),
    "no-provider": ("no-provider", None, VECTORS_KEYS),  # as no save ever wrote
    "provider-integer": ("provider", 5, "'vectors' 'provider' must not be int"),
    "provider-list": ("provider", ["mock-hash-0"], "'vectors' 'provider' must not be list"),
}
RECORD_FAULTS = [(key, value) for key, value, _ in RECORD_REFUSALS.values()]


def vector_fault(fault, row=0, cut=0.0, junk=b"", value=np.nan, whole_row=True,
                 record=("scoring", "x"), provider=5):
    """``(fault, apply)``: ``apply(path)`` breaks the snapshot file at
    ``path`` in place: its bytes, its vectors, or its document's
    ``vectors`` record or nodes."""

    def apply(path: Path) -> None:
        doc, vectors = read_snapshot(path)
        i, j = row % len(vectors), (row + 1) % len(vectors)
        vector_row, scoring = doc["nodes"]["vector_row"], doc["vectors"]["scoring"]
        if fault == "truncated":
            data = path.read_bytes()
            path.write_bytes(data[: int(cut * len(data))])
            return
        instead = {"foreign": junk, "pickled": pickle.dumps(vectors), "missing": b""}.get(fault)
        if instead is not None:  # the vectors replaced, or gone
            path.write_bytes(instead + json.dumps(doc).encode("utf-8"))
            return
        if fault == "object":
            vectors = np.array(list(vectors), dtype=object)
        elif fault == "f4":
            vectors = vectors.astype("<f4")
        elif fault == "shape":
            shapes = [vectors[:-1], vectors[:, :-1], vectors.reshape(-1), vectors[None],
                      np.asfortranarray(vectors)]
            vectors = shapes[row % len(shapes)]
        elif fault == "record":
            key, new = record
            if key == "no-record":
                del doc["vectors"]
            elif key == "no-provider":
                del doc["vectors"]["provider"]
            elif key == "drop-row":  # the last scoring event now holds a shared row
                doc["vectors"]["scoring"] -= 1
            elif key == "dtype":
                vectors = vectors.astype(new)
            elif key == "shape":
                vectors = np.ones(new)
            else:
                doc["vectors"][key] = new
        elif fault == "bad-row":
            vectors = vectors.copy()
            if whole_row:
                vectors[i] = value
            else:
                vectors[i, j % EMBEDDING_DIM] = value if value != 0.0 else np.nan
        elif fault == "unknown-id":  # a row past the vectors
            vector_row[vector_row.index(i)] = len(vectors) + row % 3
        elif fault == "duplicate-id":  # two scoring events on one row
            vector_row[vector_row.index(i % scoring)] = (i + 1) % scoring
        else:
            doc["vectors"]["provider"] = provider
        write_snapshot(path, doc, vectors)

    return fault, apply


vector_faults = st.builds(
    vector_fault,
    st.sampled_from([
        "truncated", "foreign", "pickled", "object", "f4", "shape", "record",
        "bad-row", "unknown-id", "duplicate-id", "missing", "provider",
    ]),
    row=st.integers(0, 10**6),
    cut=st.floats(0, 1, exclude_max=True),
    junk=st.binary(max_size=200),
    value=st.sampled_from([np.nan, np.inf, -np.inf, 0.0, 1e200]),
    whole_row=st.booleans(),
    record=st.sampled_from(RECORD_FAULTS),
    provider=st.sampled_from([5, True, ["mock-hash-0"], {"name": "mock-hash-0"}]),
)


def each_record_fault(test):
    """An ``@example`` per `record` sub-case, so each runs on every run."""
    for record in RECORD_FAULTS:
        test = example(fault=vector_fault("record", record=record))(test)
    return test


def broken_snapshot(path: Path, fault) -> None:
    """Save a small store as a snapshot at ``path``, then break it as
    ``fault`` says."""
    store = random_store(random.Random(1), n_events=6, embed_fraction=1.0, text_fraction=1.0)
    batch_embed(store, mock_provider())
    store.save(path)
    fault[1](path)


@settings(max_examples=250, deadline=None)
@given(fault=vector_faults)
@each_record_fault
def test_broken_vectors_are_refused_with_exit_one(tmp_path_factory, fault):
    path = tmp_path_factory.mktemp("broken") / "graph.json"
    broken_snapshot(path, fault)
    with pytest.raises((ValueError, CausewayError)):
        GraphStore.load(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--store", str(path), "stats"])
    assert code == 1, fault[0]
    assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()


@pytest.mark.parametrize("key, value, message", RECORD_REFUSALS.values(), ids=RECORD_REFUSALS)
def test_vectors_record_refusal_is_named_and_exits_one(tmp_path, key, value, message):
    path = tmp_path / "graph.json"
    broken_snapshot(path, vector_fault("record", record=(key, value)))
    assert_refused_and_exits_one(path, ValueError, message)


def npy_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=True)
    return buf.getvalue()


def npy_version_3(vectors) -> bytes:
    """``vectors`` as an .npy file that declares format version 3.0."""
    data = bytearray(npy_bytes(vectors))
    data[6] = 3
    return bytes(data)


# what the file of v3_base's snapshot (4 vector rows) becomes, from its
# document's and its vectors' bytes, and the refusal's message after
# "<path>: snapshot "
FILE_REFUSALS = {
    "truncated": (
        lambda doc, vectors: (npy_bytes(vectors) + doc)[:3000],
        "vectors run past the end of the file",
    ),
    "object-header": (
        lambda doc, vectors: npy_bytes(np.array(list(vectors), dtype=object)) + doc, NOT_ROWS
    ),
    "f4-header": (lambda doc, vectors: npy_bytes(vectors.astype("<f4")) + doc, NOT_ROWS),
    "big-endian-header": (lambda doc, vectors: npy_bytes(vectors.astype(">f8")) + doc, NOT_ROWS),
    "fortran-order": (lambda doc, vectors: npy_bytes(np.asfortranarray(vectors)) + doc, NOT_ROWS),
    "one-dimensional": (lambda doc, vectors: npy_bytes(vectors.reshape(-1)) + doc, NOT_ROWS),
    "narrow-rows": (lambda doc, vectors: npy_bytes(vectors[:, :-1]) + doc, NOT_ROWS),
    "npy-version-3": (
        lambda doc, vectors: npy_version_3(vectors) + doc,
        "vectors have no readable .npy header: not .npy version 1.0 or 2.0",
    ),
    "no-document": (
        lambda doc, vectors: npy_bytes(vectors),
        "is not UTF-8 JSON: Expecting value: line 1 column 1 (char 0)",
    ),
    "no-vectors": (lambda doc, vectors: doc, "version 4 must begin with its vectors"),
}


@pytest.mark.parametrize("name", FILE_REFUSALS)
def test_a_broken_file_is_refused_named_with_exit_one(tmp_path, name):
    make, message = FILE_REFUSALS[name]
    path = tmp_path / "graph.json"
    doc = v3_base(path)
    path.write_bytes(make(json.dumps(doc).encode("utf-8"), np.load(path)))
    assert_refused_and_exits_one(path, ValueError, message)


def test_a_version_2_npy_header_is_read(tmp_path):
    path = tmp_path / "graph.json"
    v3_base(path)
    store = GraphStore.load(path)
    doc, vectors = read_snapshot(path)
    with open(path, "wb") as f:
        np.lib.format.write_array(f, vectors, version=(2, 0))
        f.write(json.dumps(doc).encode("utf-8"))
    assert GraphStore.load(path).nodes() == store.nodes()


def test_reader_writer_lock_smoke():
    store = GraphStore()
    with store.lock.read():
        with store.lock.read():  # concurrent readers allowed
            pass
    with store.lock.write():
        pass
