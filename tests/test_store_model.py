"""The store against its model: a hypothesis state machine drives one
``GraphStore`` and a ``ReferenceGraph`` through the node and edge writers,
``set_embeddings``, the embedding lifecycle, snapshots and queries, with
``CHUNK_ROWS`` small so that the vector array compacts, and checks after
every step that the two agree, that the scoring rows are the model's
scored events in node order, and that nothing a read gave has changed."""

from __future__ import annotations

import copy
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from causeway import store as store_module
from causeway.embedding import batch_embed, clean_embeddings, mock_provider
from causeway.errors import CausewayError
from causeway.retrieval import HybridConfig, query
from causeway.store import EMBEDDING_DIM, Edge, EdgeKind, GraphStore, Node, NodeKind

from helpers import (
    ReferenceGraph,
    full_scan_query,
    held_rows_bound,
    oracle_query,
    random_unit_vector,
    reference_batch_embed,
    reference_insert,
    reference_set_embeddings,
    score_bits,
    store_state,
)

KINDS = list(NodeKind)
IDS = {kind: [f"{kind.value.lower()}:{i}" for i in range(n)]
       for kind, n in zip(KINDS, (6, 3, 2, 2))}
ALL_IDS = [node_id for ids in IDS.values() for node_id in ids]
# texts shared across kinds, so that an event and a span can hold one text
TEXTS = [None, "a", "b", "c"]
PROVIDERS = [mock_provider(0), mock_provider(1)]

_rng = np.random.default_rng(7)
POOL = [random_unit_vector(_rng) * scale for scale in (1.0, 0.5, 3.0)]
SHARED = POOL[0].copy()
SHARED.flags.writeable = False  # one read-only array for many nodes, as batch_embed gives
POOL += [SHARED, np.zeros(EMBEDDING_DIM)]  # the zero vector is refused
# a vector to write: none, one of POOL, or a stored node's vector as a
# read gives it or as an equal copy of it
VECTORS = st.one_of(
    st.none(),
    st.tuples(st.just("pool"), st.sampled_from([0, 0, 1, 2, 3, 3, 3, 0, 1, 2, 3, 4])),
    st.tuples(st.sampled_from(["view", "copy"]), st.integers(0, 20)),
)
# a node: its kind, its id's index, a draw that now and then (0) gives it
# another kind than its id's, its text and its vector
NODES = st.lists(st.tuples(
    st.sampled_from(KINDS), st.integers(0, 3), st.integers(0, 39), st.sampled_from(TEXTS),
    VECTORS,
), max_size=6)
# an edge: its kind, its ends' indexes among the stored nodes of the kinds
# it wants, and a draw that now and then (0) takes any id as its source
EDGES = st.lists(st.tuples(
    st.sampled_from(list(EdgeKind)), st.integers(0, 3), st.integers(0, 3), st.integers(0, 19),
), max_size=4)


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = GraphStore()
        self.graph = ReferenceGraph(self.store)
        self.held: list[tuple[np.ndarray, bytes]] = []  # every view a read gave, and its bytes
        self.directory = tempfile.TemporaryDirectory()
        self.query_args = (0, HybridConfig(tau=-2.0, k=3))

    @initialize(texts=st.lists(st.sampled_from(TEXTS), min_size=len(ALL_IDS),
                               max_size=len(ALL_IDS)),
                provider=st.sampled_from(PROVIDERS))
    def fill(self, texts, provider):
        """Every id, each with a drawn text, linked to the first event, all embedded."""
        nodes = [Node(node_id, kind, text) for (kind, node_id), text in zip(
            ((kind, node_id) for kind, ids in IDS.items() for node_id in ids), texts)]
        event = IDS[NodeKind.EVENT][0]
        edges = [Edge(node.id, event, EdgeKind.CAUSES) if node.kind is NodeKind.CAUSE
                 else Edge(event, node.id, next(kind for kind, (src, dst)
                                                in store_module.EDGE_ENDPOINTS.items()
                                                if dst is node.kind))
                 for node in nodes if node.kind is not NodeKind.EVENT]
        self.store.insert(nodes, edges)
        reference_insert(self.graph, nodes, edges)
        self.embed(provider, 4)

    def teardown(self):
        self.directory.cleanup()

    def path(self, name: str) -> Path:
        return Path(self.directory.name) / name

    def vector(self, spec):
        """The vector ``spec`` (a ``VECTORS`` draw) names."""
        if spec is None:
            return None
        how, n = spec
        if how == "pool":
            return POOL[n]
        stored = [node.embedding for node in self.store.nodes() if node.embedding is not None]
        if not stored:
            return None
        vector = stored[n % len(stored)]
        return vector if how == "view" else vector.copy()

    def attempt(self, write, model) -> None:
        """Run ``model`` on a copy of the model, then ``write`` on the store.
        If the model refuses, the store must refuse with the same error and
        keep all it held; else the copy becomes the model."""
        trial = copy.deepcopy(self.graph)
        try:
            model(trial)
        except CausewayError as exc:
            before = store_state(self.store), self.store.edges()
            with pytest.raises(type(exc)) as refused:
                write()
            assert str(refused.value) == str(exc)
            assert (store_state(self.store), self.store.edges()) == before
            return
        write()
        self.graph = trial

    @rule(nodes=NODES, edges=EDGES)
    def insert(self, nodes, edges):
        built = []
        for kind, i, other, text, spec in nodes:
            node_kind = KINDS[(KINDS.index(kind) + 1) % 4] if other == 0 else kind
            ids = IDS[kind]
            built.append(Node(ids[i % len(ids)], node_kind, text, self.vector(spec)))
        held = {node.id for node in self.store.nodes()} | {node.id for node in built}
        links = []
        for kind, i, j, wild in edges:
            src_ids, dst_ids = ([node_id for node_id in IDS[end] if node_id in held]
                                for end in store_module.EDGE_ENDPOINTS[kind])
            if wild == 0 or not src_ids:
                src_ids = ALL_IDS
            if dst_ids:
                links.append(Edge(src_ids[i % len(src_ids)], dst_ids[j % len(dst_ids)], kind))
        self.attempt(lambda: self.store.insert(built, links),
                     lambda graph: reference_insert(graph, built, links))

    # a pair: its node's index among the stored nodes, a draw that now and
    # then (0) takes any id instead, and its vector
    @rule(pairs=st.lists(st.tuples(st.integers(0, 10), st.integers(0, 29), VECTORS), max_size=8),
          provider=st.sampled_from([None, 0, 1]))
    def set_embeddings(self, pairs, provider):
        stored = [node.id for node in self.store.nodes()]
        named = []
        for i, wild, spec in pairs:
            ids = stored if stored and wild else ALL_IDS
            named.append((ids[i % len(ids)], self.vector(spec)))
        pairs = named
        identity = None if provider is None else PROVIDERS[provider].identity
        self.attempt(lambda: self.store.set_embeddings(pairs, identity),
                     lambda graph: reference_set_embeddings(graph, pairs, identity))

    @rule()
    def clean(self):
        ids = self.store.embedded_ids()
        clean_embeddings(self.store)
        for node_id in ids:
            self.graph.write(node_id, None)

    @rule(provider=st.sampled_from(PROVIDERS), batch_size=st.integers(1, 4))
    def embed_all(self, provider, batch_size):
        self.embed(provider, batch_size)

    def embed(self, provider, batch_size):
        batch_embed(self.store, provider, batch_size=batch_size)
        reference_batch_embed(self.graph, provider)

    @rule()
    def save_and_load(self):
        self.store.save(self.path("graph.json"))
        self.store = GraphStore.load(self.path("graph.json"))

    @rule(q=st.sampled_from([0, 1, 2]), k=st.integers(1, 12),
          tau=st.sampled_from([-2.0, -0.5, 0.0, 0.2, 0.5]))
    def set_query(self, q, k, tau):
        self.query_args = (q, HybridConfig(tau=tau, k=k))

    @invariant()
    def agrees_with_the_model(self):
        assert store_state(self.store, model=True) == store_state(self.graph, model=True)
        assert self.store.edges() == self.graph.edges()

    @invariant()
    def keeps_every_view_a_read_gave(self):
        rows = self.store.scoring_rows()
        views = [rows.vectors, rows.screens, rows.norms, rows.nodes]
        for node in self.store.nodes():
            if node.embedding is not None:
                assert not node.embedding.flags.writeable
                views.append(node.embedding)
        self.held.extend((view, view.tobytes()) for view in views)
        assert all(view.tobytes() == before for view, before in self.held)

    @invariant()
    def holds_for_each_text_its_last_holders_vector(self):
        last = {}  # text -> the last node other than an event with it and a vector
        for node in self.graph.nodes():
            if node.kind is not NodeKind.EVENT and node.embedding is not None:
                last[node.text] = node.id
        held = self.store.held_vectors(TEXTS[1:])
        assert held.keys() == last.keys() - {None}
        for text, vector in held.items():
            assert np.shares_memory(vector, self.store.get_node(last[text]).embedding)

    @invariant()
    def queries_as_a_scan_of_every_row_and_the_oracle(self):
        q, cfg = self.query_args
        got, want = query(self.store, POOL[q], cfg), full_scan_query(self.store, POOL[q], cfg)
        assert got == want
        assert score_bits(got) == score_bits(want)
        # the texts from the model, as full_scan_query reads them from the store
        for r in got:
            texts = (r.event_text, list(r.cause_texts), list(r.effect_texts), list(r.trigger_texts))
            assert texts == (self.graph.node_map[r.event_id].text,
                             *self.graph.collect_texts(r.event_id))
        oracle = oracle_query(self.store, POOL[q], cfg)
        assert [r.event_id for r in got] == [o[0] for o in oracle]
        for r, o in zip(got, oracle):
            assert abs(r.hybrid_score - o[1]) <= 1e-9

    @invariant()
    def holds_one_row_per_scored_event_in_node_order(self):
        scored = [i for i, node in enumerate(self.graph.nodes())
                  if node.kind is NodeKind.EVENT and node.text is not None
                  and node.embedding is not None]
        assert self.store.scoring_rows().nodes.tolist() == scored

    @invariant()
    def compaction_bounds_the_vector_array(self):
        assert self.store._vec_count <= held_rows_bound(self.store)

    @invariant()
    def saves_what_it_loads(self):
        first, again = self.path("first.json"), self.path("again.json")
        self.store.save(first)
        GraphStore.load(first).save(again)
        assert first.read_bytes() == again.read_bytes()


def test_the_store_holds_what_its_model_holds():
    with mock.patch.object(store_module, "CHUNK_ROWS", 2):
        run_state_machine_as_test(
            StoreMachine,
            settings=settings(max_examples=60, stateful_step_count=25, deadline=None),
        )
