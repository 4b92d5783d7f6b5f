from __future__ import annotations

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causeway import annotation
from causeway.annotation import (
    AnnotatedSentence,
    build_causal_fragment,
    ingest_corpus,
    ingest_corpus_file,
    iter_jsonl_records,
    normalize_ws,
    parse_tagged_sentence,
    strip_tags,
)
from causeway.embedding import batch_embed
from causeway.errors import (
    CausewayError,
    KindViolationError,
    MalformedTagError,
    SourceUnreadableError,
    UnknownTagKindError,
)
from causeway.store import EdgeKind, GraphStore, Node, NodeKind

from helpers import make_tagged_sentence, naive_span_offsets, reference_corpus, store_state


def test_parse_basic_cause_effect():
    s = parse_tagged_sentence(
        "<cause>heavy rain</cause> led to <effect>flooding</effect>", "s1"
    )
    assert s.raw_text == "heavy rain led to flooding"
    assert [(sp.kind, sp.text) for sp in s.spans] == [
        (NodeKind.CAUSE, "heavy rain"),
        (NodeKind.EFFECT, "flooding"),
    ]


def test_parse_untagged_identity():
    s = parse_tagged_sentence("no tags here at all", "s2")
    assert s.raw_text == "no tags here at all"
    assert s.spans == []


def test_parse_multi_span_offsets_against_scanner():
    tagged = (
        "<cause>strike</cause> and <cause>low pay</cause> "
        "<trigger>led to</trigger> <effect>protest</effect>"
    )
    s = parse_tagged_sentence(tagged, "s3")
    assert len(s.spans) == 4
    # every offset must re-slice to the span text
    for span in s.spans:
        assert s.raw_text[span.start : span.end] == span.text
    # independent naive scanner agrees on positions
    expected = naive_span_offsets(s.raw_text, [sp.text for sp in s.spans])
    assert [(sp.start, sp.end) for sp in s.spans] == expected


def test_parse_case_insensitive_tags():
    s = parse_tagged_sentence("<CAUSE>a b</Cause> then <Effect>c</EFFECT>", "s4")
    assert [(sp.kind, sp.text) for sp in s.spans] == [
        (NodeKind.CAUSE, "a b"),
        (NodeKind.EFFECT, "c"),
    ]


def test_parse_preserves_gold_label():
    assert parse_tagged_sentence("x", "s", gold_label=1).gold_label == 1
    assert parse_tagged_sentence("x", "s").gold_label is None


@pytest.mark.parametrize(
    "bad",
    [
        "<cause>unclosed",
        "closed only</cause>",
        "<cause>a <trigger>b</trigger></cause>",  # nested
        "<cause>a</effect>",  # mismatched
        "<cause></cause> empty",
    ],
)
def test_parse_malformed(bad):
    with pytest.raises(MalformedTagError):
        parse_tagged_sentence(bad, "bad")


def test_parse_unknown_tag_kind():
    with pytest.raises(UnknownTagKindError):
        parse_tagged_sentence("<reason>a</reason>", "bad")


def test_parse_leaves_bare_angle_brackets_alone():
    s = parse_tagged_sentence("profits fell < 5% while <cause>costs</cause> rose", "s5")
    assert s.raw_text == "profits fell < 5% while costs rose"
    assert len(s.spans) == 1


TAG_PIECES = st.sampled_from([
    "<cause>", "</cause>", "<effect>", "</effect>", "<trigger>", "</trigger>",
    "< Cause >", "</ EFFECT>", "<reason>", "<", ">", "/", "rain", " ", "é",
])


@settings(max_examples=300, deadline=None)
@given(tagged=st.lists(TAG_PIECES, max_size=12).map("".join) | st.text(max_size=30))
def test_parse_yields_disjoint_spans_or_a_causeway_error(tagged):
    try:
        s = parse_tagged_sentence(tagged, "prop")
    except CausewayError:
        return
    assert s.raw_text == strip_tags(tagged)
    end = 0
    for span in s.spans:
        assert end <= span.start < span.end  # non-empty, disjoint, in order
        assert s.raw_text[span.start : span.end] == span.text
        end = span.end


def test_roundtrip_property_generated_sentences(rng):
    for _ in range(300):
        tagged, raw, expected = make_tagged_sentence(rng)
        s = parse_tagged_sentence(tagged, "gen")
        assert s.raw_text == raw
        assert strip_tags(tagged) == raw
        assert normalize_ws(strip_tags(s.tagged_text)) == normalize_ws(s.raw_text)
        assert [(sp.kind, sp.text) for sp in s.spans] == expected
        for span in s.spans:
            assert s.raw_text[span.start : span.end] == span.text


def test_fragment_one_of_each():
    s = parse_tagged_sentence(
        "<cause>rain</cause> <trigger>led to</trigger> <effect>floods</effect>", "f1"
    )
    frag = build_causal_fragment(s)
    assert len(frag.nodes) == 4
    assert len(frag.edges) == 3
    assert {e.kind for e in frag.edges} == set(EdgeKind)
    event = frag.nodes[0]
    assert event.kind is NodeKind.EVENT and event.text == s.raw_text


def test_fragment_untagged_sentence():
    frag = build_causal_fragment(parse_tagged_sentence("nothing causal", "f2"))
    assert len(frag.nodes) == 1
    assert frag.edges == []


def test_fragment_arithmetic_property(rng):
    for _ in range(200):
        tagged, _, expected = make_tagged_sentence(rng)
        frag = build_causal_fragment(parse_tagged_sentence(tagged, "fa"))
        assert len(frag.nodes) == len(expected) + 1
        assert len(frag.edges) == len(expected)


def test_fragment_edge_directions():
    s = parse_tagged_sentence(
        "<cause>a</cause> <effect>b</effect> <trigger>c</trigger>", "f3"
    )
    frag = build_causal_fragment(s)
    by_kind = {e.kind: e for e in frag.edges}
    assert by_kind[EdgeKind.CAUSES].dst == frag.event_id
    assert by_kind[EdgeKind.RESULTS_IN].src == frag.event_id
    assert by_kind[EdgeKind.HAS_TRIGGER].src == frag.event_id


def test_ingest_empty_stream():
    store = GraphStore()
    report = ingest_corpus([], store)
    assert report.ingested == 0
    assert report.total_edges == 0
    assert all(v == 0 for v in report.node_counts.values())
    assert store.stats().total_nodes == 0


def test_ingest_skips_malformed_record():
    store = GraphStore()
    records = [
        {"id": "a", "tagged_text": "<cause>x</cause> hit <effect>y</effect>"},
        {"id": "b", "tagged_text": "<cause>broken"},
        {"id": "c", "tagged_text": "plain sentence"},
    ]
    report = ingest_corpus(records, store)
    assert report.ingested == 2
    assert [entry[0] for entry in report.skipped] == ["b"]
    assert store.stats().node_counts[NodeKind.EVENT] == 2


def test_ingest_skips_irrelevant_record():
    store = GraphStore()
    report = ingest_corpus(
        [{"id": "a", "tagged_text": "x", "relevant": False}], store
    )
    assert report.ingested == 0
    assert report.skipped == [("a", "marked irrelevant")]


def test_ingest_report_matches_store_recount(rng):
    store = GraphStore()
    records = []
    for i in range(10):
        tagged, _, _ = make_tagged_sentence(rng)
        records.append({"id": f"r{i}", "tagged_text": tagged})
    report = ingest_corpus(records, store)
    # independent recount: full store scan
    stats = store.stats()
    for kind in NodeKind:
        assert report.node_counts[kind] == stats.node_counts[kind]
    for kind in EdgeKind:
        assert report.edge_counts[kind] == stats.edge_counts[kind]
    assert report.total_edges == stats.total_edges
    assert report.ingested == stats.node_counts[NodeKind.EVENT]


def test_ingest_conservation_of_edges(rng):
    # sum of per-record fragment edge counts equals store relationship count
    store = GraphStore()
    records = []
    expected_edges = 0
    for i in range(40):
        tagged, _, spans = make_tagged_sentence(rng)
        records.append({"id": f"r{i}", "tagged_text": tagged})
        expected_edges += len(spans)
    ingest_corpus(records, store)
    assert store.stats().total_edges == expected_edges


def test_ingest_reference_profile_counts():
    # reference ingestion profile: 1030 records, 9 irrelevant, per-kind span
    # totals fixed; total relationships follow from the per-kind sums
    store = GraphStore()
    report = ingest_corpus(reference_corpus(), store)
    assert report.ingested == 1021
    assert len(report.skipped) == 9
    stats = store.stats()
    assert stats.node_counts[NodeKind.EVENT] == 1021
    assert stats.node_counts[NodeKind.CAUSE] == 1147
    assert stats.node_counts[NodeKind.EFFECT] == 1118
    assert stats.node_counts[NodeKind.TRIGGER] == 1102
    assert stats.total_edges == 1147 + 1118 + 1102
    assert report.total_edges == stats.total_edges


def test_a_refused_ingest_writes_nothing(provider):
    store = GraphStore()
    ingest_corpus([{"id": "c", "tagged_text": "<cause>heat</cause> <trigger>led to</trigger> "
                                             "<effect>fires</effect>"}], store)
    store.upsert_node(Node("event:b", NodeKind.CAUSE, text="a cause"))
    batch_embed(store, provider)
    before = store_state(store), store.edges()
    records = [
        {"id": "a", "tagged_text": "<cause>rain</cause> made <effect>floods</effect>"},
        {"id": "b", "tagged_text": "<cause>wind</cause> made <effect>damage</effect>"},
    ]
    with pytest.raises(KindViolationError,
                       match=re.escape("node 'event:b' is Cause, cannot change to Event")):
        ingest_corpus(records, store)
    # nodes, embeddings, scoring rows, embedded_by and edges as they were
    assert (store_state(store), store.edges()) == before
    assert store.embedded_by == provider.identity


def test_ingest_holds_the_write_lock_once(rng):
    store = GraphStore()
    records = [{"id": f"r{i}", "tagged_text": make_tagged_sentence(rng)[0]} for i in range(30)]
    records.append({"id": "r0", "tagged_text": records[0]["tagged_text"]})  # ingested again
    entries = []
    write = store.lock.write

    def counted_write():
        entries.append(1)
        return write()

    store.lock.write = counted_write
    report = ingest_corpus(records, store)
    assert report.ingested == 31
    assert len(entries) == 1


def test_jsonl_ingest_roundtrip(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"id": "a", "tagged_text": "<cause>x</cause> made <effect>y</effect>", "gold_label": 1}\n'
        "not json at all\n"
        '{"id": "b", "tagged_text": "plain", "gold_label": 0}\n'
        "\n",
        encoding="utf-8",
    )
    store = GraphStore()
    report = ingest_corpus_file(path, store)
    assert report.ingested == 2
    assert len(report.skipped) == 1
    assert report.skipped[0][0] == "line-2"


@settings(max_examples=200, deadline=None)
@given(content=st.text(max_size=60) | st.lists(
    st.sampled_from(['{"id": "a", "tagged_text": "x"}', "[1]", "{", "null", "", " "]),
    max_size=5,
).map("\n".join))
@example(content="[" * 100_000 + "]" * 100_000)
@example(content='{"id": "a", "tagged_text": ' + "[" * 100_000 + "]" * 100_000 + "}")
def test_jsonl_yields_a_record_per_nonblank_line(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "corpus-property.jsonl"
    path.write_text(content, encoding="utf-8")
    records = list(iter_jsonl_records(path))
    assert all(isinstance(record, dict) for record in records)
    assert len(records) == sum(1 for line in content.splitlines() if line.strip())


GOOD_LINE = '{"id": "a", "tagged_text": "<cause>x</cause> made <effect>y</effect>"}'


def test_jsonl_line_that_is_not_utf8_is_skipped_alone(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(GOOD_LINE.encode() + b'\n{"id": "b", "tagged_text": "caf\xff"}\n'
                     + GOOD_LINE.replace('"a"', '"c"').encode() + b"\n")
    report = ingest_corpus_file(path, GraphStore())
    assert report.ingested == 2
    assert report.skipped == [("line-2", "missing tagged_text")]


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
def test_jsonl_line_break_inside_a_string_stays_in_its_record(tmp_path, char):
    path = tmp_path / "corpus.jsonl"
    record = {"id": "a", "tagged_text": f"<cause>x{char}z</cause> made <effect>y</effect>"}
    path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    assert char in path.read_text(encoding="utf-8")  # written raw, not escaped
    assert list(iter_jsonl_records(path)) == [record]
    report = ingest_corpus_file(path, GraphStore())
    assert (report.ingested, report.skipped) == (1, [])


def test_jsonl_keeps_its_line_numbers_with_crlf_endings(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(f"{GOOD_LINE}\r\nnot json\r\n\r\n{GOOD_LINE}\r\n[1]\r\n".encode())
    records = list(iter_jsonl_records(path))
    assert [r["id"] for r in records] == ["a", "line-2", "a", "line-5"]


def test_jsonl_reads_a_line_that_is_not_one_object_once(tmp_path, monkeypatch):
    path = tmp_path / "corpus.jsonl"
    path.write_text("[" * 100_000 + f"\nnot json\n{GOOD_LINE}\n[1]\r\n", encoding="utf-8")
    read = []
    json_object = annotation._json_object

    def counted(text):
        read.append(len(text))
        return json_object(text)

    monkeypatch.setattr(annotation, "_json_object", counted)
    records = list(iter_jsonl_records(path))
    assert records == [{"id": "line-1", "tagged_text": None}, {"id": "line-2", "tagged_text": None},
                       json.loads(GOOD_LINE), {"id": "line-4", "tagged_text": None}]
    # each line once, the last (empty) one too; JSON reads "[1]\r" as "[1]"
    assert read == [100_000, 8, len(GOOD_LINE), 4, 0]


def test_jsonl_missing_file():
    with pytest.raises(SourceUnreadableError):
        list(iter_jsonl_records("/nonexistent/corpus.jsonl"))


def test_annotated_sentence_shape():
    s = AnnotatedSentence("id", "raw", "raw", [], gold_label=0)
    assert s.gold_label == 0
