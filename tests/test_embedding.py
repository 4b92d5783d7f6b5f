from __future__ import annotations

import random

import numpy as np
import pytest

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
from causeway.retrieval import cosine
from causeway.store import EMBEDDING_DIM, GraphStore, Node, NodeKind

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
    assert cosine(vec, vec) == 1.0


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
        self.last_request = {"url": url, "json": json, "headers": headers}
        return FakeResponse(self.payload, self.status)


def test_http_provider_parses_openai_style_payload():
    vec = [0.1] * EMBEDDING_DIM
    session = FakeSession({"data": [{"embedding": vec}, {"embedding": vec}]})
    provider = HttpEmbeddingProvider("http://embed.local/v1/embeddings", session=session)
    out = provider.embed_batch(["a", "b"])
    assert len(out) == 2
    assert out[0].shape == (EMBEDDING_DIM,)
    assert session.last_request["json"]["input"] == ["a", "b"]


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
    session = FakeSession({"data": [{"embedding": [0.1] * (EMBEDDING_DIM - 1)}]})
    provider = HttpEmbeddingProvider("http://embed.local", session=session)
    with pytest.raises(ProviderFailureError):
        provider.embed_batch(["a"])
