from __future__ import annotations

import random
import re

import pytest

from causeway.annotation import build_causal_fragment, ingest_corpus, parse_tagged_sentence
from causeway.errors import NotAnEventError, UnknownIdError
from causeway.export import (
    event_subgraph_dot,
    render_dot,
    store_to_cypher,
    store_to_dot,
)
from causeway.store import Edge, EdgeKind, GraphStore, Node, NodeKind

from helpers import count_dot_statements, random_store, reference_event_subgraph_dot


def fragment_store():
    store = GraphStore()
    s = parse_tagged_sentence(
        '<cause>rain</cause> <trigger>led to</trigger> <effect>a "flood"</effect>', "s1"
    )
    frag = build_causal_fragment(s)
    for node in frag.nodes:
        store.upsert_node(node)
    for edge in frag.edges:
        store.add_edge(edge)
    return store, frag


def test_render_dot_counts():
    _, frag = fragment_store()
    dot = render_dot(frag.nodes, frag.edges)
    nodes, edges = count_dot_statements(dot)
    assert (nodes, edges) == (4, 3)
    assert dot.startswith("digraph causal {")
    assert dot.rstrip().endswith("}")


def test_dot_escapes_quotes():
    _, frag = fragment_store()
    dot = render_dot(frag.nodes, frag.edges)
    assert '\\"flood\\"' in dot


def test_store_to_dot_covers_whole_graph(rng):
    store = random_store(rng, n_events=15)
    nodes, edges = count_dot_statements(store_to_dot(store))
    stats = store.stats()
    assert nodes == stats.total_nodes
    assert edges == stats.total_edges


def test_event_subgraph_dot_restricts_to_neighborhood():
    store, frag = fragment_store()
    # second unrelated event
    store.upsert_node(Node("event:other", NodeKind.EVENT, text="elsewhere"))
    dot = event_subgraph_dot(store, frag.event_id)
    nodes, edges = count_dot_statements(dot)
    assert (nodes, edges) == (4, 3)
    assert "event:other" not in dot


def test_event_subgraph_dot_errors():
    store, _ = fragment_store()
    with pytest.raises(UnknownIdError):
        event_subgraph_dot(store, "event:ghost")
    with pytest.raises(NotAnEventError):
        event_subgraph_dot(store, "cause:s1:0")


@pytest.mark.parametrize("seed", range(6))
def test_event_subgraph_dot_is_the_old_scan_on_interleaved_edge_kinds(tmp_path, seed):
    rng = random.Random(seed)
    built = random_store(rng, n_events=rng.randint(1, 25))
    edges = built.edges()
    rng.shuffle(edges)  # an event's edge kinds interleave in insertion order
    store = GraphStore()
    store.insert(built.nodes(), edges[: len(edges) // 2])
    if seed % 2:  # the rest written after a load
        store.save(tmp_path / "graph.json")
        store = GraphStore.load(tmp_path / "graph.json")
    store.insert((), edges[len(edges) // 2 :])
    for node in store.nodes():
        try:
            want = reference_event_subgraph_dot(store, node.id)
        except NotAnEventError as exc:
            with pytest.raises(NotAnEventError, match=re.escape(str(exc))):
                event_subgraph_dot(store, node.id)
        else:
            assert event_subgraph_dot(store, node.id) == want
    with pytest.raises(UnknownIdError, match="no node with id 'event:ghost'"):
        event_subgraph_dot(store, "event:ghost")


def test_cypher_statement_counts(rng):
    store = random_store(rng, n_events=10)
    text = store_to_cypher(store)
    stats = store.stats()
    creates = re.findall(r"^CREATE \(:(\w+) ", text, flags=re.M)
    assert len(creates) == stats.total_nodes
    rels = re.findall(r"CREATE \(a\)-\[:(\w+)\]->\(b\);", text)
    assert len(rels) == stats.total_edges
    for kind in NodeKind:
        assert creates.count(kind.value) == stats.node_counts[kind]
    for kind in EdgeKind:
        assert rels.count(kind.value) == stats.edge_counts[kind]


def test_cypher_escapes_quotes_and_backslashes():
    store = GraphStore()
    store.upsert_node(
        Node("event:1", NodeKind.EVENT, text='he said "run\\hide" loudly')
    )
    text = store_to_cypher(store)
    assert '\\"run\\\\hide\\"' in text


def test_cypher_edges_reference_node_ids():
    store = GraphStore()
    store.upsert_node(Node("event:1", NodeKind.EVENT, text="t"))
    store.upsert_node(Node("cause:1:0", NodeKind.CAUSE, text="c"))
    store.add_edge(Edge("cause:1:0", "event:1", EdgeKind.CAUSES))
    text = store_to_cypher(store)
    assert 'MATCH (a {id: "cause:1:0"}), (b {id: "event:1"}) ' in text
    assert "CREATE (a)-[:CAUSES]->(b);" in text


@pytest.mark.parametrize("cut", ["\n", "\r", "\r\n"])
def test_a_line_break_in_a_text_keeps_one_statement_per_line(cut):
    store = GraphStore()
    tagged = f"<cause>rain{cut}fall</cause> led to <effect>flo{cut}ods</effect>"
    ingest_corpus([{"id": f"s{cut}1", "tagged_text": tagged}], store)
    nodes, edges = len(store.nodes()), len(store.edges())
    assert (nodes, edges) == (3, 2)
    dot = store_to_dot(store)
    # the opening line, rankdir and the closing brace
    assert len(dot.splitlines()) == 3 + nodes + edges
    assert count_dot_statements(dot) == (nodes, edges)
    assert f"rain{cut}fall" not in dot
    # the comment line
    assert len(store_to_cypher(store).splitlines()) == 1 + nodes + edges
