"""GraphViz DOT and Cypher text exports.

DOT output is one node or edge statement per line so it stays trivially
machine-countable. The Cypher export emits CREATE statements mirroring the
three relationship types for loading into an external graph database, one
per line too: a line break in an id or a text is escaped as ``\\n`` or
``\\r``.
"""

from __future__ import annotations

from collections.abc import Iterable

from causeway.store import Edge, GraphStore, Node, NodeKind

_NODE_SHAPES = {
    NodeKind.EVENT: "box",
    NodeKind.CAUSE: "ellipse",
    NodeKind.EFFECT: "ellipse",
    NodeKind.TRIGGER: "diamond",
}


_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"})


def _escape(value: str) -> str:
    """Backslash-escape a DOT or Cypher double-quoted string, line breaks
    too, so that each statement stays on one line."""
    return value.translate(_ESCAPES)


def render_dot(
    nodes: Iterable[Node],
    edges: Iterable[Edge],
    name: str = "causal",
    comment: str | None = None,
) -> str:
    lines = [f"digraph {name} {{"]
    if comment:
        lines.append(f"  // {comment}")
    lines.append("  rankdir=LR;")
    for node in nodes:
        label = f"{node.kind.value}: {node.text or ''}"
        lines.append(
            f'  "{_escape(node.id)}" '
            f'[label="{_escape(label)}", shape={_NODE_SHAPES[node.kind]}];'
        )
    for edge in edges:
        lines.append(
            f'  "{_escape(edge.src)}" -> "{_escape(edge.dst)}" '
            f'[label="{edge.kind.value}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def event_subgraph_dot(store: GraphStore, event_id: str) -> str:
    """DOT for one event and its direct causal neighborhood."""
    edges = store.event_edges(event_id)
    keep = {event_id, *(edge.src for edge in edges), *(edge.dst for edge in edges)}
    nodes = [store.get_node(node_id) for node_id in sorted(keep)]
    return render_dot(nodes, edges, name="event_subgraph")


def store_to_dot(store: GraphStore) -> str:
    return render_dot(store.nodes(), store.edges())


def store_to_cypher(store: GraphStore) -> str:
    """CREATE statements for every node and relationship."""
    lines = ["// causeway graph export"]
    for node in store.nodes():
        props = [f'id: "{_escape(node.id)}"']
        if node.text is not None:
            props.append(f'text: "{_escape(node.text)}"')
        lines.append(f"CREATE (:{node.kind.value} {{{', '.join(props)}}});")
    for edge in store.edges():
        lines.append(
            f'MATCH (a {{id: "{_escape(edge.src)}"}}), '
            f'(b {{id: "{_escape(edge.dst)}"}}) '
            f"CREATE (a)-[:{edge.kind.value}]->(b);"
        )
    return "\n".join(lines) + "\n"
