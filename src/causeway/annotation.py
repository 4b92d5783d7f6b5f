"""Parse tagged news sentences and turn them into causal graph fragments.

Tag syntax is inline XML-style, case-insensitive, flat (no nesting):

    <cause>heavy rain</cause> led to <effect>flooding</effect>

Each tagged sentence becomes one Event node plus one node per span, wired
with the three edge kinds (Cause->CAUSES->Event, Event->RESULTS_IN->Effect,
Event->HAS_TRIGGER->Trigger).
"""

from __future__ import annotations

import json
import logging
import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

from causeway.errors import (
    MalformedTagError,
    SourceUnreadableError,
    UnknownTagKindError,
)
from causeway.store import Edge, EdgeKind, GraphStore, Node, NodeKind

logger = logging.getLogger(__name__)

TAG_KINDS: dict[str, NodeKind] = {
    "cause": NodeKind.CAUSE,
    "effect": NodeKind.EFFECT,
    "trigger": NodeKind.TRIGGER,
}

# open or close tag token; tag names are bare words, so literal "<" followed
# by whitespace or punctuation is left untouched
_TAG_RE = re.compile(r"<\s*(/?)\s*([A-Za-z][A-Za-z0-9_]*)\s*>")


@dataclass(frozen=True)
class TagSpan:
    kind: NodeKind
    text: str
    start: int
    end: int


@dataclass
class AnnotatedSentence:
    id: str
    raw_text: str
    tagged_text: str
    spans: list[TagSpan]
    gold_label: int | None = None


def normalize_ws(text: str) -> str:
    return " ".join(text.split())


def strip_tags(text: str) -> str:
    """Remove all well-formed known-kind tag tokens, leaving everything else."""
    return _TAG_RE.sub(
        lambda m: "" if m.group(2).lower() in TAG_KINDS else m.group(0), text
    )


def parse_tagged_sentence(
    tagged_text: str, sentence_id: str, gold_label: int | None = None
) -> AnnotatedSentence:
    """Parse inline tags into spans with offsets into the stripped text.

    Raises MalformedTagError for unclosed/mismatched/nested/empty tags and
    UnknownTagKindError for tag names outside cause/effect/trigger. Tags do
    not nest, so the spans are non-empty and disjoint.
    """
    raw_parts: list[str] = []
    raw_len = 0
    spans: list[TagSpan] = []
    open_tag: tuple[NodeKind, str, int] | None = None  # kind, name, raw offset
    pos = 0

    for match in _TAG_RE.finditer(tagged_text):
        literal = tagged_text[pos : match.start()]
        raw_parts.append(literal)
        raw_len += len(literal)
        pos = match.end()

        closing, name = match.group(1) == "/", match.group(2).lower()
        kind = TAG_KINDS.get(name)
        if kind is None:
            raise UnknownTagKindError(
                f"{sentence_id}: unknown tag <{match.group(2)}>"
            )
        if not closing:
            if open_tag is not None:
                raise MalformedTagError(
                    f"{sentence_id}: nested <{name}> inside <{open_tag[1]}>"
                )
            open_tag = (kind, name, raw_len)
        else:
            if open_tag is None or open_tag[1] != name:
                raise MalformedTagError(f"{sentence_id}: unmatched </{name}>")
            start = open_tag[2]
            if start == raw_len:
                raise MalformedTagError(f"{sentence_id}: empty <{name}> tag")
            spans.append(
                TagSpan(kind, "".join(raw_parts)[start:], start, raw_len)
            )
            open_tag = None

    if open_tag is not None:
        raise MalformedTagError(f"{sentence_id}: unclosed <{open_tag[1]}>")
    raw_parts.append(tagged_text[pos:])
    raw_text = "".join(raw_parts)

    return AnnotatedSentence(sentence_id, raw_text, tagged_text, spans, gold_label)


@dataclass
class GraphFragment:
    sentence_id: str
    nodes: list[Node]
    edges: list[Edge]

    @property
    def event_id(self) -> str:
        return self.nodes[0].id


def build_causal_fragment(sentence: AnnotatedSentence) -> GraphFragment:
    """One Event node plus one node and one edge per span.

    Node ids are namespaced by kind: ``event:<sid>``, ``cause:<sid>:<i>``
    with i counting same-kind spans in document order.
    """
    event_id = f"event:{sentence.id}"
    nodes = [Node(event_id, NodeKind.EVENT, text=sentence.raw_text)]
    edges: list[Edge] = []
    counters = {kind: 0 for kind in TAG_KINDS.values()}
    for span in sentence.spans:
        index = counters[span.kind]
        counters[span.kind] += 1
        node_id = f"{span.kind.value.lower()}:{sentence.id}:{index}"
        nodes.append(Node(node_id, span.kind, text=span.text))
        if span.kind is NodeKind.CAUSE:
            edges.append(Edge(node_id, event_id, EdgeKind.CAUSES))
        elif span.kind is NodeKind.EFFECT:
            edges.append(Edge(event_id, node_id, EdgeKind.RESULTS_IN))
        else:
            edges.append(Edge(event_id, node_id, EdgeKind.HAS_TRIGGER))
    return GraphFragment(sentence.id, nodes, edges)


@dataclass
class IngestReport:
    ingested: int = 0
    node_counts: dict[NodeKind, int] = field(
        default_factory=lambda: {k: 0 for k in NodeKind}
    )
    edge_counts: dict[EdgeKind, int] = field(
        default_factory=lambda: {k: 0 for k in EdgeKind}
    )
    skipped: list[tuple[str, str]] = field(default_factory=list)

    @property
    def total_edges(self) -> int:
        return sum(self.edge_counts.values())

    def as_dict(self) -> dict:
        return {
            "ingested": self.ingested,
            "nodes": {k.value: v for k, v in self.node_counts.items()},
            "edges": {k.value: v for k, v in self.edge_counts.items()},
            "total_edges": self.total_edges,
            "skipped": [list(entry) for entry in self.skipped],
        }


def ingest_corpus(records: Iterable[Mapping], store: GraphStore) -> IngestReport:
    """Store every parseable, relevant record; skip and list the rest.

    Each record needs ``id`` and ``tagged_text``; ``gold_label`` (0/1/null)
    and ``relevant`` (default true) are optional. A malformed record never
    aborts the batch. Every fragment goes to the store in one ``insert``,
    under one write lock: readers see the store before the ingest or after
    it, and a node the store refuses (one whose kind would change) aborts
    the ingest with nothing written.
    """
    report = IngestReport()
    nodes: list[Node] = []
    edges: list[Edge] = []
    for position, record in enumerate(records):
        rec_id = str(record.get("id", f"record-{position}"))
        if not record.get("relevant", True):
            report.skipped.append((rec_id, "marked irrelevant"))
            continue
        tagged = record.get("tagged_text")
        if not isinstance(tagged, str):
            report.skipped.append((rec_id, "missing tagged_text"))
            continue
        try:
            sentence = parse_tagged_sentence(
                tagged, rec_id, gold_label=record.get("gold_label")
            )
        except Exception as exc:
            report.skipped.append((rec_id, str(exc)))
            continue
        fragment = build_causal_fragment(sentence)
        nodes += fragment.nodes
        edges += fragment.edges
        for node in fragment.nodes:
            report.node_counts[node.kind] += 1
        for edge in fragment.edges:
            report.edge_counts[edge.kind] += 1
        report.ingested += 1
    store.insert(nodes, edges)
    if report.skipped:
        logger.info("ingest skipped %d record(s)", len(report.skipped))
    return report


def _json_object(text: str) -> dict | None:
    """``text`` as a JSON object, or None if it is not one or nests too
    deeply to decode."""
    try:
        record = json.loads(text)
    except (ValueError, RecursionError):
        return None
    return record if isinstance(record, dict) else None


def iter_jsonl_records(path: str | Path) -> Iterable[Mapping]:
    """Yield one record per JSONL line; bad lines become skip markers.

    Lines end at ``"\\n"`` alone, so a line break that ``json.dumps`` leaves
    raw inside a string (U+2028, U+0085) stays in its record. A line that
    is not one JSON object is split again at every line break
    ``str.splitlines`` knows, and each nonblank piece read on its own; a
    line that is its own one piece is not read again. A line that is not
    UTF-8, or a piece that is not a JSON object or nests too deeply to
    decode, yields ``{"id": "line-N", "tagged_text": None}`` so
    ingest_corpus lists it as skipped instead of aborting.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise SourceUnreadableError(f"cannot read corpus {path}: {exc}") from exc
    for lineno, raw in enumerate(data.split(b"\n"), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            yield {"id": f"line-{lineno}", "tagged_text": None}
            continue
        record = _json_object(line)
        if record is not None:
            yield record
            continue
        pieces = line.splitlines()
        if pieces == [line.rstrip("\r")]:  # its own one piece, read already: JSON skips a "\r"
            records = [None] if line.strip() else []
        else:  # each nonblank piece on its own
            records = [_json_object(piece) for piece in pieces if piece.strip()]
        for record in records:
            yield {"id": f"line-{lineno}", "tagged_text": None} if record is None else record


def ingest_corpus_file(path: str | Path, store: GraphStore) -> IngestReport:
    return ingest_corpus(iter_jsonl_records(path), store)
