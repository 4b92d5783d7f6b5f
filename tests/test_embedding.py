from __future__ import annotations

import json
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causeway.embedding import (
    EmbedReport,
    EmbeddingProvider,
    HttpEmbeddingProvider,
    batch_embed,
    clean_embeddings,
    mock_provider,
    verify,
)
from causeway.errors import DimensionMismatchError, ProviderFailureError
from causeway.store import (
    EMBEDDING_DIM,
    Edge,
    EdgeKind,
    GraphStore,
    Node,
    NodeKind,
    check_embedding,
)

from helpers import random_store


def store_with_texts(n=10, kind=NodeKind.EVENT, null_text=0):
    store = GraphStore()
    for i in range(n):
        text = None if i < null_text else f"sentence number {i}"
        store.upsert_node(Node(f"{kind.value.lower()}:{i}", kind, text=text))
    return store


def test_mock_provider_deterministic(provider):
    a = provider.embed("the strike caused delays")
    b = provider.embed("the strike caused delays")
    assert np.array_equal(a, b)


def test_mock_provider_unit_norm(provider):
    vec = provider.embed("any text at all")
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-6


def test_mock_provider_seed_and_text_sensitivity():
    p0, p1 = mock_provider(0), mock_provider(1)
    assert not np.array_equal(p0.embed("x"), p1.embed("x"))
    assert not np.array_equal(p0.embed("x"), p0.embed("y"))


def test_clean_embeddings_counts(provider):
    store = store_with_texts(5)
    batch_embed(store, provider)
    assert clean_embeddings(store) == 5
    assert store.stats().total_embedded == 0
    assert clean_embeddings(store) == 0  # idempotent


def test_clean_embeddings_empty_store():
    assert clean_embeddings(GraphStore()) == 0


def test_batch_count_is_ceiling(provider):
    store = store_with_texts(10)
    report = batch_embed(store, provider, batch_size=4)
    assert report.batches_issued == 3
    assert report.total_embedded == 10


def test_null_text_nodes_untouched(provider):
    store = store_with_texts(6, null_text=2)
    report = batch_embed(store, provider, batch_size=3)
    assert report.total_embedded == 4
    for node in store.nodes():
        if node.text is None:
            assert node.embedding is None
        else:
            assert node.embedding is not None


def test_rerun_is_idempotent(provider):
    store = store_with_texts(7)
    batch_embed(store, provider, batch_size=3)
    before = {n.id: n.embedding.copy() for n in store.nodes()}
    report = batch_embed(store, provider, batch_size=3)
    assert report.total_embedded == 0
    assert report.batches_issued == 0
    for node in store.nodes():  # store scan: vectors unchanged
        assert np.array_equal(node.embedding, before[node.id])


def test_embeddings_match_provider_output(provider):
    store = store_with_texts(5)
    batch_embed(store, provider)
    for node in store.nodes():
        expected = provider.embed(node.text)
        expected = expected / np.linalg.norm(expected)
        assert np.allclose(node.embedding, expected, atol=0)


def test_batch_size_independence(provider):
    texts = {}
    for b in (1, 3, 64):
        store = random_store(random.Random(99), n_events=20, embed_fraction=0.0)
        batch_embed(store, mock_provider(0), batch_size=b)
        texts[b] = {n.id: n.embedding for n in store.nodes() if n.embedding is not None}
    assert texts[1].keys() == texts[3].keys() == texts[64].keys()
    for node_id in texts[1]:
        assert np.array_equal(texts[1][node_id], texts[3][node_id])
        assert np.array_equal(texts[1][node_id], texts[64][node_id])


def test_batch_embed_validates_args(provider):
    store = store_with_texts(2)
    with pytest.raises(ValueError):
        batch_embed(store, provider, batch_size=0)

    class WrongDim(EmbeddingProvider):
        name = "wrong"
        dimension = 128

        def embed_batch(self, texts):
            return [np.zeros(128) for _ in texts]

    with pytest.raises(DimensionMismatchError):
        batch_embed(store, WrongDim())


class ZeroProvider(EmbeddingProvider):
    """Returns an all-zero vector for every text."""

    name = "zero"

    def embed_batch(self, texts):
        return [np.zeros(EMBEDDING_DIM) for _ in texts]


def test_zero_vector_from_provider_is_provider_failure():
    store = store_with_texts(3)
    with pytest.raises(ProviderFailureError, match="zero vector") as exc_info:
        batch_embed(store, ZeroProvider(), batch_size=2)
    assert exc_info.value.report.total_embedded == 0
    assert all(n.embedding is None for n in store.nodes())
    # a query text's vector passes the same gate
    with pytest.raises(ProviderFailureError, match="for text 'q': embedding is a zero vector"):
        ZeroProvider().embed("q")


def test_overflowing_vector_from_provider_is_provider_failure():
    class HugeProvider(EmbeddingProvider):
        def embed_batch(self, texts):
            return [np.full(EMBEDDING_DIM, 1e308) for _ in texts]

    store = store_with_texts(3)
    with pytest.raises(ProviderFailureError, match="'event:0'") as exc_info:
        batch_embed(store, HugeProvider(), batch_size=2)
    assert exc_info.value.report.total_embedded == 0
    assert all(n.embedding is None for n in store.nodes())


class FlakyProvider(EmbeddingProvider):
    """Fails the first `fail_times` calls for a given batch index."""

    name = "flaky"

    def __init__(self, fail_batch: int, fail_times: int):
        self.inner = mock_provider(0)
        self.fail_batch = fail_batch
        self.fail_times = fail_times
        self.calls = 0
        self.batch_seen = 0

    def embed_batch(self, texts):
        self.calls += 1
        current = self.batch_seen
        if current == self.fail_batch and self.fail_times > 0:
            self.fail_times -= 1
            raise RuntimeError("transient provider outage")
        self.batch_seen += 1
        return self.inner.embed_batch(texts)


def test_batch_retry_once_then_succeed():
    store = store_with_texts(6)
    provider = FlakyProvider(fail_batch=1, fail_times=1)
    report = batch_embed(store, provider, batch_size=2)
    assert report.total_embedded == 6
    assert report.retries == 1


def test_batch_fails_twice_aborts_with_partial_report():
    store = store_with_texts(6)
    provider = FlakyProvider(fail_batch=1, fail_times=2)
    with pytest.raises(ProviderFailureError) as exc_info:
        batch_embed(store, provider, batch_size=2)
    partial = exc_info.value.report
    assert isinstance(partial, EmbedReport)
    assert partial.batches_issued == 1
    assert partial.total_embedded == 2
    # first batch landed, rest untouched
    embedded = [n for n in store.nodes() if n.embedding is not None]
    assert len(embedded) == 2


def test_lifecycle_leaves_full_coverage(provider, rng):
    for trial in range(5):
        store = random_store(rng, n_events=rng.randint(1, 40))
        clean_embeddings(store)
        batch_embed(store, provider, batch_size=rng.choice([1, 3, 64]))
        report = verify(store)
        assert report.ok
        for row in report.rows:
            assert row.embedded == row.with_text


def test_verify_after_clean(provider):
    store = store_with_texts(5)
    batch_embed(store, provider)
    clean_embeddings(store)
    report = verify(store)
    assert all(row.embedded == 0 for row in report.rows)
    assert not report.ok
    assert NodeKind.EVENT in report.flagged


def test_verify_counts_null_text_nodes(provider):
    store = store_with_texts(6, null_text=2)
    batch_embed(store, provider)
    report = verify(store)
    row = {r.kind: r for r in report.rows}[NodeKind.EVENT]
    assert row.total == 6
    assert row.with_text == 4
    assert row.embedded == 4
    assert row.total - row.embedded == 2  # exactly the null-text nodes
    assert report.ok  # no text-bearing node is missing a vector


class CountingProvider(EmbeddingProvider):
    """The seed-0 mock, counting every text it is sent; every attempt at
    batch ``fail_batch`` (counted from 0) fails, if given."""

    def __init__(self, fail_batch: int | None = None):
        self.inner = mock_provider(0)
        self.name = self.inner.name
        self.sent: Counter = Counter()
        self.batches = 0
        self.fail_batch = fail_batch

    def embed_batch(self, texts):
        if self.batches == self.fail_batch:
            raise RuntimeError("provider outage")
        self.batches += 1
        self.sent.update(texts)
        return self.inner.embed_batch(texts)


# per event: its text, its span nodes' (kind, text) and whether it holds a
# vector before the run; few texts, so event and span texts repeat
STORE_SPECS = st.lists(
    st.tuples(
        st.sampled_from(["a strike", "heavy rain", None]),
        st.lists(
            st.tuples(
                st.sampled_from([NodeKind.CAUSE, NodeKind.EFFECT, NodeKind.TRIGGER]),
                st.sampled_from(["rain", "delays", "led to", "heavy rain"]),
            ),
            max_size=3,
        ),
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)
SPAN_EDGES = {
    NodeKind.CAUSE: EdgeKind.CAUSES,
    NodeKind.EFFECT: EdgeKind.RESULTS_IN,
    NodeKind.TRIGGER: EdgeKind.HAS_TRIGGER,
}


def store_from_spec(spec) -> GraphStore:
    store = GraphStore()
    for i, (text, spans, embedded) in enumerate(spec):
        event_id = f"event:{i}"
        store.upsert_node(Node(event_id, NodeKind.EVENT, text=text))
        for j, (kind, span_text) in enumerate(spans):
            node_id = f"{kind.value.lower()}:{i}:{j}"
            store.upsert_node(Node(node_id, kind, text=span_text))
            ends = (node_id, event_id) if kind is NodeKind.CAUSE else (event_id, node_id)
            store.add_edge(Edge(*ends, SPAN_EDGES[kind]))
        if embedded:
            store.set_embedding(event_id, mock_provider(9).embed(f"earlier {i}"))
    return store


def eligible_nodes(store) -> list[Node]:
    return [n for n in store.nodes() if n.text is not None and n.embedding is None]


def embed_one_text_per_node(store, provider, batch_size) -> dict:
    """Reference: batches of batch_size nodes, every node's text sent and
    its vector written, in store order. Returns the counts per kind."""
    eligible = eligible_nodes(store)
    counts = Counter()
    for start in range(0, len(eligible), batch_size):
        batch = eligible[start : start + batch_size]
        vectors = provider.embed_batch([n.text for n in batch])
        checked = [(n.id, check_embedding(v)) for n, v in zip(batch, vectors)]
        store.set_embeddings([(i, v / norm) for i, (v, norm) in checked], provider.identity)
        counts.update(n.kind for n in batch)
    return {kind: counts[kind] for kind in NodeKind}


def runs_of_new_texts(nodes: list[Node], batch_size: int) -> list[tuple[list[str], int]]:
    """``nodes`` cut into the shortest runs that hold batch_size texts new
    to the run and every run before it: (node ids, new texts) per run."""
    runs, ids, seen, new = [], [], set(), 0
    for node in nodes:
        ids.append(node.id)
        if node.text not in seen:
            seen.add(node.text)
            new += 1
        if new == batch_size:
            runs.append((ids, new))
            ids, new = [], 0
    return runs + [(ids, new)] if ids else runs


def snapshot_bytes(store, path) -> tuple[bytes, bytes]:
    path.parent.mkdir()
    store.save(path)
    sidecar = path.with_name(json.loads(path.read_text(encoding="utf-8"))["vectors"]["file"])
    return path.read_bytes(), sidecar.read_bytes()


@settings(max_examples=60, deadline=None)
@given(spec=STORE_SPECS, data=st.data())
def test_each_distinct_text_is_embedded_once_as_one_text_per_node_would(
    tmp_path_factory, spec, data
):
    eligible = eligible_nodes(store_from_spec(spec))
    distinct = Counter({n.text: 1 for n in eligible})
    tmp = tmp_path_factory.mktemp("dedup")
    for batch_size in range(1, len(eligible) + 2):
        store, reference = store_from_spec(spec), store_from_spec(spec)
        provider = CountingProvider()
        report = batch_embed(store, provider, batch_size=batch_size)
        assert report.embedded_counts == embed_one_text_per_node(
            reference, mock_provider(0), batch_size
        )
        assert provider.sent == distinct  # each distinct eligible text once
        assert report.texts_sent == len(distinct)
        runs = runs_of_new_texts(eligible, batch_size)
        assert report.batches_issued == sum(1 for _, new in runs if new)
        for node in reference.nodes():
            got = store.get_node(node.id).embedding
            assert (got is None) == (node.embedding is None)
            assert got is None or np.array_equal(got, node.embedding), node.id
        assert store.scoring_rows().ids == reference.scoring_rows().ids
        assert store.embedded_by == reference.embedded_by
        got = snapshot_bytes(store, tmp / f"got{batch_size}" / "graph.json")
        assert got == snapshot_bytes(reference, tmp / f"want{batch_size}" / "graph.json")

    # every attempt at batch j fails: exactly the batches before j landed
    if not eligible:
        return
    batch_size = data.draw(st.integers(1, len(eligible)), label="batch_size")
    runs = [ids for ids, new in runs_of_new_texts(eligible, batch_size) if new]
    j = data.draw(st.integers(0, len(runs) - 1), label="failing batch")
    store, reference = store_from_spec(spec), store_from_spec(spec)
    embed_one_text_per_node(reference, mock_provider(0), batch_size)
    with pytest.raises(ProviderFailureError, match=f"batch {j + 1} failed twice") as exc_info:
        batch_embed(store, CountingProvider(fail_batch=j), batch_size=batch_size)
    landed = {node_id for ids in runs[:j] for node_id in ids}
    partial = exc_info.value.report
    assert (partial.batches_issued, partial.retries) == (j, 1)
    assert partial.total_embedded == len(landed)
    for node in eligible:
        got = store.get_node(node.id).embedding
        if node.id in landed:
            assert np.array_equal(got, reference.get_node(node.id).embedding)
        else:
            assert got is None


def test_a_bad_vector_names_the_first_node_holding_its_text():
    store = GraphStore()
    for i, text in enumerate(["fine", "bad", "bad"]):
        store.upsert_node(Node(f"cause:{i}", NodeKind.CAUSE, text=text))

    class BadForOneText(EmbeddingProvider):
        def embed_batch(self, texts):
            return [np.zeros(EMBEDDING_DIM) if t == "bad" else np.ones(EMBEDDING_DIM) for t in texts]

    with pytest.raises(ProviderFailureError, match="'cause:1'"):
        batch_embed(store, BadForOneText())
    assert all(n.embedding is None for n in store.nodes())


def test_nodes_with_one_text_share_one_read_only_vector(provider):
    store = GraphStore()
    for i in range(3):
        store.upsert_node(Node(f"trigger:{i}", NodeKind.TRIGGER, text="led to"))
    batch_embed(store, provider)
    first, *siblings = (n.embedding for n in store.nodes())
    before = first.copy()
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 1.0
    for vector in siblings:
        assert np.shares_memory(vector, first)
        assert np.array_equal(vector, before)


def test_embedded_by_holds_while_one_provider_made_every_vector():
    store = store_with_texts(4)
    assert store.embedded_by is None
    batch_embed(store, mock_provider(0))  # the store held no vector: it takes the identity
    assert store.embedded_by == "mock-hash-0"
    store.upsert_node(Node("event:9", NodeKind.EVENT, text="new"))
    batch_embed(store, mock_provider(0))  # the same provider keeps it
    assert store.embedded_by == "mock-hash-0"
    store.upsert_node(Node("event:10", NodeKind.EVENT, text="newer"))
    batch_embed(store, mock_provider(1))  # another provider's vectors beside them
    assert store.embedded_by is None
    clean_embeddings(store)
    batch_embed(store, mock_provider(1))
    assert store.embedded_by == "mock-hash-1"
    store.set_embedding("event:0", mock_provider(1).embed("x"))  # not written by batch_embed
    assert store.embedded_by is None
    session = FakeSession({"data": []})
    a = HttpEmbeddingProvider("http://a.local", model="m", session=session)
    assert a.identity != HttpEmbeddingProvider("http://b.local", model="m", session=session).identity
    assert a.identity != HttpEmbeddingProvider("http://a.local", model="n", session=session).identity


class FakeResponse:
    def __init__(self, payload, status=200):
        self._payload = payload
        self.status = status

    def raise_for_status(self):
        if self.status >= 400:
            raise RuntimeError(f"http {self.status}")

    def json(self):
        return self._payload


class FakeSession:
    def __init__(self, payload, status=200):
        self.payload = payload
        self.status = status
        self.last_request = None

    def post(self, url, json=None, headers=None, timeout=None):
        self.last_request = {"url": url, "json": json, "headers": headers, "timeout": timeout}
        return FakeResponse(self.payload, self.status)


def test_http_provider_parses_openai_style_payload(monkeypatch):
    monkeypatch.delenv("CAUSEWAY_EMBED_API_KEY", raising=False)
    vec = [0.1] * EMBEDDING_DIM
    session = FakeSession({"data": [{"embedding": vec}, {"embedding": vec}]})
    provider = HttpEmbeddingProvider("http://embed.local/v1/embeddings", session=session)
    out = provider.embed_batch(["a", "b"])
    assert len(out) == 2
    assert out[0].shape == (EMBEDDING_DIM,)
    assert session.last_request["json"] == {"model": "all-MiniLM-L6-v2", "input": ["a", "b"]}
    assert session.last_request["timeout"] == 30.0
    assert session.last_request["headers"] == {}


def test_http_provider_wraps_transport_errors():
    provider = HttpEmbeddingProvider(
        "http://embed.local/v1/embeddings", session=FakeSession({}, status=500)
    )
    with pytest.raises(ProviderFailureError):
        provider.embed_batch(["a"])


def test_http_provider_checks_cardinality():
    session = FakeSession({"data": [{"embedding": [0.1] * EMBEDDING_DIM}]})
    provider = HttpEmbeddingProvider("http://embed.local", session=session)
    with pytest.raises(ProviderFailureError):
        provider.embed_batch(["a", "b"])


def test_http_provider_checks_dimension():
    # the one vector gate, provider_vector, checks http vectors on both paths
    session = FakeSession({"data": [{"embedding": [0.1] * (EMBEDDING_DIM - 1)}]})
    provider = HttpEmbeddingProvider("http://embed.local", session=session)
    with pytest.raises(ProviderFailureError):
        provider.embed("a")
    store = GraphStore()
    store.upsert_node(Node("event:1", NodeKind.EVENT, text="a"))
    with pytest.raises(ProviderFailureError):
        batch_embed(store, provider)
