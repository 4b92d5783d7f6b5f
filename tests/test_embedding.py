from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causeway.annotation import ingest_corpus
from causeway.embedding import (
    EmbedReport,
    EmbeddingProvider,
    HttpEmbeddingProvider,
    batch_embed,
    clean_embeddings,
    mock_provider,
    verify,
)
from causeway.errors import ProviderFailureError
from causeway.store import (
    EMBEDDING_DIM,
    Edge,
    EdgeKind,
    GraphStore,
    Node,
    NodeKind,
    check_embedding,
    check_embeddings,
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

        def embed_batch(self, texts):
            return [np.ones(128) for _ in texts]

    # the vector gate's shape check is the one rule, on both paths
    message = "unusable vector for {}: embedding must have shape \\(384,\\), got \\(128,\\)"
    with pytest.raises(ProviderFailureError, match=message.format("node 'event:0'")):
        batch_embed(store, WrongDim())
    with pytest.raises(ProviderFailureError, match=message.format("text 'a'")):
        WrongDim().embed("a")


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


def test_a_single_embed_is_retried_once_as_a_batch_is():
    provider = FlakyProvider(fail_batch=0, fail_times=1)
    assert np.array_equal(provider.embed("q"), mock_provider(0).embed("q"))
    assert provider.calls == 2
    provider = FlakyProvider(fail_batch=0, fail_times=2)
    with pytest.raises(
        ProviderFailureError, match="^text 'q' failed twice: transient provider outage$"
    ):
        provider.embed("q")
    assert provider.calls == 2


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


def snapshot_bytes(store, path) -> bytes:
    path.parent.mkdir()
    store.save(path)
    return path.read_bytes()


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


RAIN = {"id": "a", "gold_label": 1, "tagged_text":
        "<cause>heavy rain</cause> <trigger>led to</trigger> <effect>floods</effect>"}
WIND = {"id": "b", "gold_label": 1, "tagged_text":
        "<cause>heavy rain</cause> <trigger>caused</trigger> <effect>floods</effect>"}


def test_after_ingest_only_texts_the_store_does_not_hold_are_sent(tmp_path):
    store = GraphStore()
    ingest_corpus([RAIN], store)
    batch_embed(store, mock_provider(0))
    path = tmp_path / "graph.json"
    store.save(path)
    store = GraphStore.load(path)
    ingest_corpus([WIND], store)
    provider = CountingProvider()
    report = batch_embed(store, provider)
    # the cause and effect texts are held already; an event's vector is never reused
    assert provider.sent == Counter({"heavy rain caused floods": 1, "caused": 1})
    assert (report.total_embedded, report.texts_sent) == (4, 2)
    reference = GraphStore()
    ingest_corpus([RAIN, WIND], reference)
    batch_embed(reference, mock_provider(0))
    for node in reference.nodes():
        assert np.array_equal(store.get_node(node.id).embedding, node.embedding), node.id
    # once a vector not known to be this provider's is written, none is reused
    store.set_embedding("event:a", store.get_node("event:a").embedding.copy())
    store.set_embedding("cause:a:0", None)
    provider = CountingProvider()
    batch_embed(store, provider)
    assert provider.sent == Counter({"heavy rain": 1})


def whole_store_reuse(store: GraphStore, provider) -> dict:
    """Text -> the read-only array ``batch_embed`` reused for it when it
    scanned the whole store: the last non-event node's, in store order."""
    if store.embedded_by != provider.identity:
        return {}
    return {
        n.text: n.embedding
        for n in store.nodes()
        if n.kind is not NodeKind.EVENT and n.embedding is not None
        and not n.embedding.flags.writeable
    }


def span_records(rng: random.Random, prefix: str, n: int) -> list[dict]:
    """``n`` records, each of its own event text, with a cause, a trigger and
    an effect from 20, 8 and 20 texts, every one of which the first 20 use."""
    records = []
    for i in range(n):
        picks = [i if i < 20 else rng.randrange(20) for _ in range(3)]
        records.append({"id": f"{prefix}{i}", "tagged_text": (
            f"<cause>cause {picks[0]}</cause> <trigger>trigger {picks[1] % 8}</trigger> "
            f"<effect>effect {picks[2]}</effect> in {prefix}{i}"
        )})
    return records


def test_only_new_texts_are_sent_and_the_reused_array_is_the_last_nodes(provider):
    rng = random.Random(11)
    store = GraphStore()
    ingest_corpus(span_records(rng, "base", 1000), store)
    batch_embed(store, provider)
    sent = 0
    for r in range(10):
        # a value of its own on some span nodes, each an entry one ulp off
        # the node's vector: one text, several values to pick from
        spans = [n for n in store.nodes() if n.kind is not NodeKind.EVENT]
        copies = []
        for k, node in enumerate(rng.sample(spans, 30)):
            copy = node.embedding.copy()
            copy[30 * r + k] = np.nextafter(copy[30 * r + k], np.inf)
            copy.flags.writeable = False
            copies.append((node.id, copy))
        store.set_embeddings(copies, provider.identity)
        ingest_corpus(span_records(rng, f"g{r}-", 100), store)
        want = whole_store_reuse(store, provider)
        new = [n for n in store.nodes() if n.text is not None and n.embedding is None]
        report = batch_embed(store, provider)
        sent += report.texts_sent
        assert report.total_embedded == len(new) == 400
        for node in new:
            if node.kind is not NodeKind.EVENT:
                got = store.get_node(node.id).embedding
                assert got.tobytes() == want[node.text].tobytes(), node.id
    assert sent == 1000  # each new event's text, and no span text again


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


def test_the_batches_of_one_embed_share_one_row_per_text(provider):
    store = GraphStore()
    for i in range(6):
        store.upsert_node(Node(f"event:{i}", NodeKind.EVENT, text=f"event {i}"))
        store.upsert_node(Node(f"trigger:{i}", NodeKind.TRIGGER, text="led to"))
    report = batch_embed(store, provider, batch_size=2)
    assert report.batches_issued == 4 and report.texts_sent == 7
    first, *others = (n.embedding for n in store.nodes(NodeKind.TRIGGER))
    assert all(np.shares_memory(vector, first) for vector in others)


def spread_records(prefix: str, n: int, causes: int, effects: int) -> list[dict]:
    """``n`` records of their own event texts, whose cause, trigger and
    effect texts repeat every ``causes``, 8 and ``effects`` records."""
    return [{"id": f"{prefix}{i}", "tagged_text": (
        f"<cause>cause {i % causes}</cause> <trigger>trigger {i % 8}</trigger> "
        f"<effect>effect {i % effects}</effect> in {prefix}{i}"
    )} for i in range(n)]


def saved_bytes(store: GraphStore, path) -> bytes:
    store.save(path)
    return path.read_bytes()


@pytest.mark.parametrize("case", ["batches", "provider-change", "rounds"])
def test_a_store_holds_one_row_per_distinct_span_vector(tmp_path, case):
    """Nodes share one row of the store's one vector array per distinct
    vector, whichever way they were embedded, and the store saves what one
    built in one process does."""
    provider = mock_provider(0)
    store = GraphStore()
    if case == "batches":  # the first batch of the second embed grows the array
        first = span_records(random.Random(5), "a", 30)
        ingest_corpus(first, store)
        batch_embed(store, provider, batch_size=100)  # one write, of an array just as long
        assert store._vec_count == len(store._vecs)
        later = spread_records("b", 40, 5, 20)  # "effect 0" to "effect 19" are held already
        ingest_corpus(later, store)
        batch_embed(store, provider, batch_size=8)
        records = first + later
    elif case == "provider-change":
        # more span texts than CHUNK_ROWS, so that the write clearing
        # them drops their rows
        records = spread_records("a", 300, 300, 250)
        ingest_corpus(records, store)
        batch_embed(store, mock_provider(1))
        clean_embeddings(store)
        assert store._vec_count == 0
        batch_embed(store, provider, batch_size=16)
    else:
        parts = [span_records(random.Random(5), "a", 30), spread_records("b", 40, 5, 20),
                 spread_records("c", 40, 7, 30)]
        for r, part in enumerate(parts):
            if r:
                store = GraphStore.load(tmp_path / "round.json")
            ingest_corpus(part, store)
            batch_embed(store, provider, batch_size=16)
            store.save(tmp_path / "round.json")
        records = [record for part in parts for record in part]
    distinct = {n.embedding.tobytes() for n in store.nodes() if n.embedding is not None}
    assert store._vec_count == len(distinct)
    reference = GraphStore()
    ingest_corpus(records, reference)
    batch_embed(reference, provider)
    assert reference._vec_count == len(distinct)
    assert saved_bytes(store, tmp_path / "store.json") == saved_bytes(
        reference, tmp_path / "reference.json"
    )


def test_set_embeddings_checks_each_shared_array_once(provider, monkeypatch):
    from causeway import store as store_module

    batches = []  # the number of vectors in each check the store makes

    def counted(vectors):
        batches.append(len(vectors))
        return check_embeddings(vectors)

    monkeypatch.setattr(store_module, "check_embeddings", counted)
    store = GraphStore()
    texts = ["led to", "caused", "led to", "rain", "caused", "led to"]
    for i, text in enumerate(texts):
        store.upsert_node(Node(f"trigger:{i}", NodeKind.TRIGGER, text=text))
    batch_embed(store, provider)
    assert sum(batches) == len(set(texts))  # one per distinct (shared, read-only) array
    batches.clear()
    shared = provider.embed("x")
    shared.flags.writeable = False
    writable = provider.embed("y")  # a caller may change it between nodes: checked each time
    store.set_embeddings([("trigger:0", shared), ("trigger:1", writable), ("trigger:2", shared),
                          ("trigger:3", writable), ("trigger:4", None)])
    assert batches == [3]  # in one check
    assert np.shares_memory(store.get_node("trigger:2").embedding,
                            store.get_node("trigger:0").embedding)
    assert not np.shares_memory(store.get_node("trigger:3").embedding,
                                store.get_node("trigger:1").embedding)


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
    # one check of the vector count covers every provider, on both paths
    session = FakeSession({"data": [{"embedding": [0.1] * EMBEDDING_DIM}] * 2})
    provider = HttpEmbeddingProvider("http://embed.local", session=session)
    with pytest.raises(ProviderFailureError, match="^provider returned 2 vectors for 1 texts$"):
        provider.embed("a")
    store = GraphStore()
    store.upsert_node(Node("event:1", NodeKind.EVENT, text="a"))
    with pytest.raises(ProviderFailureError, match="^provider returned 2 vectors for 1 texts$"):
        batch_embed(store, provider)


def test_http_provider_checks_dimension():
    # the one vector gate, provider_vectors, checks http vectors on both paths
    session = FakeSession({"data": [{"embedding": [0.1] * (EMBEDDING_DIM - 1)}]})
    provider = HttpEmbeddingProvider("http://embed.local", session=session)
    with pytest.raises(ProviderFailureError):
        provider.embed("a")
    store = GraphStore()
    store.upsert_node(Node("event:1", NodeKind.EVENT, text="a"))
    with pytest.raises(ProviderFailureError):
        batch_embed(store, provider)
