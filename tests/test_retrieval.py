from __future__ import annotations

import random
import threading
from dataclasses import FrozenInstanceError, fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from causeway import store as store_module
from causeway.annotation import parse_tagged_sentence
from causeway.embedding import batch_embed, clean_embeddings, mock_provider
from causeway.errors import DimensionMismatchError, ZeroVectorError
from causeway.retrieval import (
    HybridConfig,
    hybrid_score,
    query,
    reconstruct_tagged,
    to_fewshot_examples,
)
from causeway.store import (
    EMBEDDING_DIM,
    Edge,
    EdgeKind,
    GraphStore,
    Node,
    NodeKind,
    check_embedding,
    screen_rows,
)

from helpers import (
    ReferenceGraph,
    full_scan_query,
    live_row_ids,
    oracle_query,
    random_store,
    random_unit_vector,
    score_bits,
)


def test_hybrid_score_published_values():
    cfg = HybridConfig(alpha=0.6, beta=0.4)
    assert hybrid_score(1.0, 1, cfg) == pytest.approx(1.0, abs=5e-4)
    assert hybrid_score(0.595, 1, cfg) == pytest.approx(0.757, abs=5e-4)
    # held-out check: weights recovered from the two rows above
    assert hybrid_score(0.572, 1, cfg) == pytest.approx(0.743, abs=5e-4)


def test_hybrid_config_validation():
    with pytest.raises(ValueError):
        HybridConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        HybridConfig(alpha=0.0, beta=0.0)
    with pytest.raises(ValueError):
        HybridConfig(k=0)
    for bad in ({"alpha": "x"}, {"beta": None}, {"tau": True}, {"k": 2.5}, {"k": False},
                {"alpha": float("inf")}, {"tau": float("nan")}, {"beta": 10**400},
                {"alpha": 1e308, "beta": 1e308}):
        with pytest.raises(ValueError):
            HybridConfig(**bad)
    # numpy scalars are real numbers and integers too
    assert HybridConfig(alpha=np.float64(0.5), k=np.int64(3)).k == 3
    # float32 weights are checked in float64, where they are scored
    assert HybridConfig(alpha=np.float32(3e38), beta=np.float32(3e38)).beta == np.float32(3e38)


def test_hybrid_monotone_in_structural(rng):
    for _ in range(100):
        cfg = HybridConfig(alpha=rng.uniform(0, 2), beta=rng.uniform(0.001, 2))
        sim = rng.uniform(-1, 1)
        assert hybrid_score(sim, 1, cfg) >= hybrid_score(sim, 0, cfg)


# weights as a config may hold them: floats, ints and numpy scalars
WEIGHTS = st.one_of(
    st.floats(0, 4),
    st.integers(0, 4),
    st.floats(0, 4).map(np.float64),
    st.floats(0, 4, width=32).map(np.float32),
    st.integers(0, 4).map(np.int64),
)


@settings(max_examples=80, deadline=None)
@given(
    alpha=WEIGHTS,
    beta=WEIGHTS,
    tau=st.floats(-2, 2),
    k=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    pairs=st.lists(st.tuples(st.floats(-1, 1), st.booleans()), max_size=20),
)
@example(alpha=1, beta=2, tau=-2.0, k=30, seed=0, pairs=[(0.5, True), (-0.0, False)])
@example(alpha=np.float32(0.6), beta=np.int64(1), tau=0.0, k=5, seed=1, pairs=[(0.1, True)])
def test_query_scores_every_result_by_the_one_hybrid_formula(alpha, beta, tau, k, seed, pairs):
    assume(alpha + beta > 0)
    cfg = HybridConfig(alpha=alpha, beta=beta, tau=tau, k=k)
    store = random_store(random.Random(seed), n_events=40)
    q = random_unit_vector(np.random.default_rng(seed))
    for r in query(store, q, cfg):
        assert r.hybrid_score == hybrid_score(r.embedding_similarity, r.structural_score, cfg)
    # on arrays, as query calls it, bit for bit the scalar values
    sims = np.array([sim for sim, _ in pairs], dtype=np.float64)
    linked = np.array([bit for _, bit in pairs], dtype=bool)
    scalar = [hybrid_score(float(sim), int(bit), cfg) for sim, bit in pairs]
    assert hybrid_score(sims, linked, cfg).tobytes() == np.array(scalar, dtype=np.float64).tobytes()


def embedded_event(store, event_id, vec, text="some text", edges=0):
    store.upsert_node(Node(event_id, NodeKind.EVENT, text=text, embedding=vec))
    for j in range(edges):
        trig_id = f"trigger:{event_id}:{j}"
        store.upsert_node(Node(trig_id, NodeKind.TRIGGER, text=f"sig {j}"))
        store.add_edge(Edge(event_id, trig_id, EdgeKind.HAS_TRIGGER))


def test_cosine_orthogonal_basis():
    # orthogonal vectors score exactly 0, so H is exactly beta * S
    a = np.zeros(EMBEDDING_DIM)
    b = np.zeros(EMBEDDING_DIM)
    a[0] = 1.0
    b[1] = 1.0
    store = GraphStore()
    embedded_event(store, "event:1", a, edges=1)
    (r,) = query(store, b, HybridConfig(alpha=0.6, beta=0.4, tau=-2.0))
    assert r.embedding_similarity == 0.0
    assert r.hybrid_score == 0.4


@pytest.mark.parametrize(
    "counts,expected", [((0, 0, 0), 0), ((0, 0, 1), 1), ((2, 1, 1), 1)]
)
def test_structural_score(counts, expected):
    store = GraphStore()
    vec = random_unit_vector(np.random.default_rng(4))
    store.upsert_node(Node("event:1", NodeKind.EVENT, text="some text", embedding=vec))
    kinds = (NodeKind.CAUSE, NodeKind.EFFECT, NodeKind.TRIGGER)
    edge_kinds = (EdgeKind.CAUSES, EdgeKind.RESULTS_IN, EdgeKind.HAS_TRIGGER)
    for n, kind, edge_kind in zip(counts, kinds, edge_kinds):
        for j in range(n):
            other = f"{kind.value.lower()}:1:{j}"
            store.upsert_node(Node(other, kind, text=f"text {j}"))
            ends = (other, "event:1") if kind is NodeKind.CAUSE else ("event:1", other)
            store.add_edge(Edge(*ends, edge_kind))
    (r,) = query(store, vec, HybridConfig(tau=-2.0))
    assert r.structural_score == expected
    assert (r.cause_count, r.effect_count, r.trigger_count) == counts


def test_query_self_retrieval_scores_one(provider):
    store = GraphStore()
    text = "the strike caused the closure"
    vec = provider.embed(text)
    embedded_event(store, "event:1", vec, text=text, edges=1)
    embedded_event(
        store, "event:2", provider.embed("unrelated"), text="unrelated", edges=1
    )
    cfg = HybridConfig(alpha=0.6, beta=0.4, tau=0.2, k=5)
    results = query(store, provider.embed(text), cfg)
    assert results[0].event_id == "event:1"
    assert results[0].hybrid_score == pytest.approx(1.0, abs=1e-12)
    assert results[0].embedding_similarity == pytest.approx(1.0, abs=1e-12)
    assert results[0].structural_score == 1


def test_query_threshold_filters_everything():
    store = GraphStore()
    # isolated events with sim <= 0.5 under alpha=0.6/beta=0.4 stay below 0.9
    base = np.zeros(EMBEDDING_DIM)
    base[0] = 1.0
    other = np.zeros(EMBEDDING_DIM)
    other[0] = 0.5
    other[1] = np.sqrt(1 - 0.25)
    embedded_event(store, "event:1", other, edges=0)
    cfg = HybridConfig(alpha=0.6, beta=0.4, tau=0.9, k=5)
    assert query(store, base, cfg) == []


def test_query_empty_store_returns_empty():
    cfg = HybridConfig()
    assert query(GraphStore(), np.ones(EMBEDDING_DIM), cfg) == []


def test_query_rejects_bad_vectors():
    store = GraphStore()
    with pytest.raises(ZeroVectorError):
        query(store, np.zeros(EMBEDDING_DIM), HybridConfig())
    with pytest.raises(DimensionMismatchError):
        query(store, np.ones(10), HybridConfig())
    with pytest.raises(DimensionMismatchError):
        query(store, ["a"] * EMBEDDING_DIM, HybridConfig())


def test_query_threshold_is_inclusive(provider):
    store = GraphStore()
    vec = provider.embed("boundary event")
    embedded_event(store, "event:1", vec, text="boundary event", edges=0)
    cfg = HybridConfig(alpha=0.6, beta=0.4, tau=0.0, k=1)
    h = query(store, provider.embed("boundary event"), cfg)[0].hybrid_score
    at_boundary = HybridConfig(alpha=0.6, beta=0.4, tau=h, k=1)
    assert query(store, provider.embed("boundary event"), at_boundary) != []


def test_query_self_retrieval_attains_alpha_plus_beta():
    # an event whose embedding equals q and has >= 1 edge scores the maximum
    store = GraphStore()
    vec = random_unit_vector(np.random.default_rng(17))
    embedded_event(store, "event:self", vec, edges=1)
    embedded_event(
        store, "event:other", random_unit_vector(np.random.default_rng(18)), edges=1
    )
    cfg = HybridConfig(alpha=0.7, beta=0.5, tau=-10.0, k=5)
    results = query(store, vec, cfg)
    assert results[0].event_id == "event:self"
    assert results[0].hybrid_score == pytest.approx(cfg.alpha + cfg.beta, abs=1e-12)
    assert all(r.hybrid_score <= results[0].hybrid_score for r in results)


def test_query_tie_break_ascending_id():
    store = GraphStore()
    vec = random_unit_vector(np.random.default_rng(5))
    for event_id in ("event:b", "event:a", "event:c"):
        embedded_event(store, event_id, vec, edges=1)
    cfg = HybridConfig(k=3, tau=-2.0)
    results = query(store, vec, cfg)
    assert [r.event_id for r in results] == ["event:a", "event:b", "event:c"]


def test_query_result_invariants(rng):
    store = random_store(rng, n_events=60)
    q = random_unit_vector(np.random.default_rng(11))
    cfg = HybridConfig(alpha=0.7, beta=0.3, tau=0.1, k=10)
    for r in query(store, q, cfg):
        assert r.hybrid_score == cfg.alpha * r.embedding_similarity + cfg.beta * r.structural_score
        assert r.structural_score == (
            1 if r.cause_count + r.effect_count + r.trigger_count > 0 else 0
        )
        assert r.hybrid_score >= cfg.tau
        assert len(r.cause_texts) == r.cause_count
        assert len(r.effect_texts) == r.effect_count
        assert len(r.trigger_texts) == r.trigger_count
        assert -cfg.alpha - 1e-12 <= r.hybrid_score <= cfg.alpha + cfg.beta + 1e-12


def test_query_matches_bruteforce_oracle(rng):
    for _ in range(50):
        store = random_store(rng, n_events=rng.randint(1, 60))
        q = random_unit_vector(np.random.default_rng(rng.randrange(2**32)))
        cfg = HybridConfig(
            alpha=rng.uniform(0.0, 1.5) + 1e-6,
            beta=rng.uniform(0.0, 1.5),
            tau=rng.uniform(-0.5, 1.0),
            k=rng.randint(1, 25),
        )
        got = query(store, q, cfg)
        want = oracle_query(store, q, cfg)
        assert [r.event_id for r in got] == [w[0] for w in want]
        for r, w in zip(got, want):
            assert abs(r.hybrid_score - w[1]) <= 1e-9
            assert abs(r.embedding_similarity - w[2]) <= 1e-9
            assert r.structural_score == w[3]


def test_query_ties_exactly_across_row_positions():
    # one vector at rows 0, 1, 511, 512, 513 and 1500: the first rows, rows
    # on either side of a 512-row block's edge and the last row, where a
    # BLAS matvec rounds differently
    tie_rows = (0, 1, 511, 512, 513, 1500)
    tie_ids = {row: f"event:tie{5 - i}" for i, row in enumerate(tie_rows)}
    np_rng = np.random.default_rng(29)
    vec = random_unit_vector(np_rng)
    q = vec + 0.5 * random_unit_vector(np_rng)  # not vec itself: v.v rounds alike anywhere
    store = GraphStore()
    cfg = HybridConfig(k=len(tie_rows), tau=-2.0)
    for row in range(1600):
        event_id = tie_ids.get(row, f"event:{row:04d}")
        embedding = vec if row in tie_ids else random_unit_vector(np_rng)
        store.upsert_node(Node(event_id, NodeKind.EVENT, text="t", embedding=embedding))
        if row in (1500, 1599):  # 1501 rows end on a tie
            assert [store.scoring_rows().ids[r] for r in tie_rows] == list(tie_ids.values())
            results = query(store, q, cfg)
            assert [r.event_id for r in results] == sorted(tie_ids.values())
            assert len({r.hybrid_score for r in results}) == 1


STEPS = st.one_of(
    # new event: vector seed, power-of-two scale (cosine stays exact), edge
    st.tuples(st.just("new"), st.integers(0, 5), st.sampled_from([0.5, 1.0, 4.0]),
              st.booleans()),
    st.tuples(st.just("reembed"), st.integers(0, 99), st.integers(0, 5)),
    st.tuples(st.just("drop_text"), st.integers(0, 99)),
    st.tuples(st.just("clean_and_embed")),
    st.tuples(st.just("edge"), st.integers(0, 99)),
)


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(STEPS, min_size=1, max_size=20),
    q_seed=st.integers(0, 5),
    tau=st.sampled_from([-1.0, 0.0, 0.3]),
    k=st.integers(1, 8),
)
def test_query_matches_oracle_after_every_write(steps, q_seed, tau, k):
    vectors = [random_unit_vector(np.random.default_rng(seed)) for seed in range(6)]
    provider = mock_provider(0)
    store = GraphStore()
    events: list[str] = []
    cfg = HybridConfig(tau=tau, k=k)
    with mock.patch.object(store_module, "CHUNK_ROWS", 2):  # early compaction
        for step in steps:
            op, args = step[0], step[1:]
            if op == "new":
                seed, scale, linked = args
                event_id = f"event:{len(events)}"
                events.append(event_id)
                store.upsert_node(Node(event_id, NodeKind.EVENT, text=f"text {seed}",
                                       embedding=vectors[seed] * scale))
                if linked:
                    trigger_id = f"trigger:{event_id}"
                    store.upsert_node(Node(trigger_id, NodeKind.TRIGGER, text="sig"))
                    store.add_edge(Edge(event_id, trigger_id, EdgeKind.HAS_TRIGGER))
            elif not events:
                continue
            elif op == "reembed":
                event_id = events[args[0] % len(events)]
                store.upsert_node(Node(event_id, NodeKind.EVENT, text="again",
                                       embedding=vectors[args[1]]))
            elif op == "drop_text":
                node = store.get_node(events[args[0] % len(events)])
                store.upsert_node(Node(node.id, NodeKind.EVENT, text=None,
                                       embedding=node.embedding))
            elif op == "clean_and_embed":
                clean_embeddings(store)
                batch_embed(store, provider)
            else:
                event_id = events[args[0] % len(events)]
                cause_id = f"cause:{event_id}"
                store.upsert_node(Node(cause_id, NodeKind.CAUSE, text="why"))
                store.add_edge(Edge(cause_id, event_id, EdgeKind.CAUSES))
            q = vectors[q_seed]
            got = query(store, q, cfg)
            want = oracle_query(store, q, cfg)
            assert [r.event_id for r in got] == [w[0] for w in want]
            for r, w in zip(got, want):
                assert abs(r.hybrid_score - w[1]) <= 1e-9
                assert r.structural_score == w[3]
            live = live_row_ids(store)
            assert sorted(live) == sorted(
                n.id for n in store.nodes(NodeKind.EVENT)
                if n.text is not None and n.embedding is not None
            )
            assert len(store.scoring_rows().ids) < 2 * len(live) + 2


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    block_rows=st.sampled_from([1, 2, 3, 8]),
    n_events=st.integers(1, 40),
    k=st.integers(1, 20),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=12),
    scale=st.sampled_from([1e-150, 1e-39, 1.0, 1e39, 1e150]),
)
@example(seed=1, block_rows=512, n_events=1100, k=20, picks=[0, 511, 512, 1099], scale=1.0)
def test_a_gathered_row_scores_the_bits_of_the_whole_array(
    seed, block_rows, n_events, k, picks, scale
):
    """The premise of the float64 rescore: ``einsum("ij,j->i")`` gives a row
    the same bits whether it comes in the whole array of scoring rows or
    gathered, alone, with rows near it or far from it, or in a block of
    ``block_rows`` consecutive rows. Were a numpy build to break this,
    exact ties would split by row position, so this test fails first."""
    np_rng = np.random.default_rng(seed)
    store = GraphStore()
    store.insert(
        Node(f"event:{i}", NodeKind.EVENT, text="t",
             embedding=np_rng.standard_normal(EMBEDDING_DIM) * scale)
        for i in range(n_events)
    )
    vectors = store.scoring_rows().vectors
    q = np_rng.standard_normal(EMBEDDING_DIM) * scale
    whole = np.einsum("ij,j->i", vectors, q)
    across = [pick % n_events for pick in picks]  # near one another or far apart
    first = across[0] // block_rows * block_rows  # the first row of the block holding across[0]
    block = list(range(first, min(first + block_rows, n_events)))
    for which in ([across[0]], list(range(min(k, n_events))), across, block):
        got = np.einsum("ij,j->i", vectors[which], q)
        assert got.tobytes() == whole[which].tobytes()


# norms: the last three lie beyond the screen's bound, and two vectors of
# norm 1e-160 have a float64 dot product that underflows
SCALES = st.sampled_from([1e-150, 1e-100, 1e-39, 2**-30, 1.0, 3.0, 1e39, 1e100, 1e150,
                          1e-155, 1e-160, 1e152])
FORMS = st.sampled_from(
    ["plain", "plain", "near", "near", "toward", "ulp", "tiny", "tinier", "mixed"]
)
# a base direction, a scale, a form and the size of a moved row's offset
ROW = st.tuples(st.integers(0, 3), SCALES, FORMS, st.integers(0, 7))


def shaped_row(bases, base: int, scale: float, form: str, jitter: int) -> np.ndarray:
    """Unit base direction ``base`` at ``scale``: as it is, moved by 1e-8
    (less than the screen can tell apart), moved toward base 1 by
    ``jitter`` steps of 5e-5 (a few margins), one ulp off in its first
    entry, every entry near float32 underflow keeping its sign, or a third
    of them replaced by one that is."""
    v = bases[base] * scale
    if form == "near":
        v = (bases[base] + 1e-8 * random_unit_vector(np.random.default_rng(jitter))) * scale
    elif form == "toward":
        v = (bases[base] + jitter * 5e-5 * bases[1]) * scale
    elif form == "ulp":
        v[0] = np.nextafter(v[0], np.inf)
    elif form in ("tiny", "tinier"):
        v = np.sign(bases[base]) * (1e-39 if form == "tiny" else 1e-45)
    elif form == "mixed":
        v[::3] = np.sign(v[::3]) * 1e-45
    return v


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.lists(st.tuples(ROW, st.booleans()), min_size=1, max_size=24),
    rewrites=st.lists(st.tuples(st.integers(0, 99), st.one_of(ROW, st.none())), max_size=16),
    reload=st.booleans(),
    q=ROW,
    alpha=st.one_of(st.sampled_from([0.0, 0.6, 1.0, 1e300]), st.floats(0, 4)),
    beta=st.one_of(st.sampled_from([0.0, 0.4, 1.0]), st.floats(0, 4)),
    tau=st.one_of(st.sampled_from([-1.0, 0.2, "above", "at"]), st.floats(-2, 2)),
    at=st.integers(0, 99),
    k=st.integers(1, 30),
)
@example(seed=0, rows=[((0, 1.0, "plain", 0), True)] * 6 + [((3, 1.0, "ulp", 0), False)] * 3,
         rewrites=[], reload=False, q=(0, 1.0, "ulp", 0), alpha=0.6, beta=0.4, tau=-1.0, at=0,
         k=4)
@example(seed=1, rows=[((0, 1.0, "near", j), False) for j in range(8)], rewrites=[],
         reload=False, q=(3, 1.0, "plain", 0), alpha=0.6, beta=0.4, tau="at", at=3, k=2)
@example(seed=2, rows=[((0, 1e-150, "mixed", 0), False), ((1, 1e150, "tinier", 0), True)],
         rewrites=[(0, None), (1, (3, 1e-155, "plain", 0))], reload=True,
         q=(3, 1e150, "plain", 0), alpha=1e300, beta=0.0, tau="at", at=1, k=1)
@example(seed=3, rows=[((0, 1e-160, "toward", j), False) for j in range(8)], rewrites=[],
         reload=False, q=(1, 1e-160, "plain", 0), alpha=1.0, beta=0.0, tau=-1.0, at=0, k=2)
def test_query_matches_a_scan_of_every_row_to_the_bit(
    tmp_path_factory, seed, rows, rewrites, reload, q, alpha, beta, tau, at, k
):
    """``query`` returns what scoring every row in float64 returns: equal
    lists, each score to the bit, through exact ties, duplicated rows, rows
    one ulp apart and rows the screen cannot tell apart, zero and huge
    weights, a tau above every score or at one, norms from 1e-160 to
    1e152, entries near float32 underflow, and
    dead rows left by rewrites, compaction and a load; and every live
    row's screen is the one formula of its node's vector and its norm."""
    assume(alpha + beta > 0)
    np_rng = np.random.default_rng(seed)
    # unit, so that a row's scale is its norm; the last at about 25 degrees
    # from the first, so that rows near one differ at first order seen from the other
    bases = [random_unit_vector(np_rng) for _ in range(3)]
    bases.append(bases[0] + 0.45 * random_unit_vector(np_rng))
    bases[3] /= np.linalg.norm(bases[3])
    with mock.patch.object(store_module, "CHUNK_ROWS", 3):  # early compaction
        store = GraphStore()
        for i, (row, linked) in enumerate(rows):
            embedded_event(store, f"event:{i:02d}", shaped_row(bases, *row), edges=int(linked))
        for i, row in rewrites:  # a new row, the old one dead; or no text, no row
            event_id = f"event:{i % len(rows):02d}"
            if row is None:
                store.upsert_node(Node(event_id, NodeKind.EVENT, text=None,
                                       embedding=store.get_node(event_id).embedding))
            else:
                store.upsert_node(Node(event_id, NodeKind.EVENT, text="again",
                                       embedding=shaped_row(bases, *row)))
        if reload:
            path = tmp_path_factory.mktemp("screen") / "graph.json"
            store.save(path)
            store = GraphStore.load(path)
        scoring = store.scoring_rows()
        live = np.flatnonzero(scoring.alive)
        vectors = scoring.vectors[scoring.vector_row[scoring.nodes[live]]]
        want = screen_rows(vectors, scoring.norms[live])
        assert scoring.screens[live].tobytes() == want.tobytes()
        qv = shaped_row(bases, *q)
        if tau == "above":  # no score exceeds alpha + beta
            tau = float(np.nextafter(float(alpha) + float(beta), np.inf))
        elif tau == "at":  # a score that some row has exactly
            every = full_scan_query(store, qv, HybridConfig(alpha, beta, -alpha - 1.0, 100))
            tau = every[at % len(every)].hybrid_score if every else 0.0
        cfg = HybridConfig(alpha=alpha, beta=beta, tau=tau, k=k)
        got, want = query(store, qv, cfg), full_scan_query(store, qv, cfg)
    assert got == want
    assert score_bits(got) == score_bits(want)


def test_query_holds_one_read_lock_against_writers(rng):
    store = random_store(rng, n_events=20)
    scoring_rows, numbered_texts = store.scoring_rows, store.numbered_texts
    writer_done = threading.Event()
    seen_done = []

    def write():
        store.upsert_node(Node("event:late", NodeKind.EVENT, text="late"))
        writer_done.set()

    writer = threading.Thread(target=write, daemon=True)

    def started_scan():
        writer.start()
        writer_done.wait(0.2)  # room for the writer between two scan steps
        seen_done.append(writer_done.is_set())
        return scoring_rows()

    def collected(numbers):
        seen_done.append(writer_done.is_set())
        return numbered_texts(numbers)

    store.scoring_rows, store.numbered_texts = started_scan, collected
    query(store, random_unit_vector(np.random.default_rng(3)), HybridConfig(tau=-1.0))
    assert len(seen_done) > 1
    assert not any(seen_done)  # the writer stayed blocked for the whole query
    writer.join(timeout=5)
    assert writer_done.is_set()


def test_query_enters_the_read_lock_as_often_whatever_k(rng):
    store = random_store(rng, n_events=60, embed_fraction=1.0, text_fraction=1.0)
    read = store.lock.read
    entries = []

    def counted_read():
        entries.append(1)
        return read()

    store.lock.read = counted_read
    q = random_unit_vector(np.random.default_rng(4))
    counts = []
    for k in (1, 5, 20, 60):
        entries.clear()
        assert len(query(store, q, HybridConfig(tau=-1.0, k=k))) == k
        counts.append(len(entries))
    assert counts == [counts[0]] * 4


def test_query_collects_the_texts_of_loaded_and_written_neighbours(rng, tmp_path):
    store = random_store(rng, n_events=40, embed_fraction=1.0, text_fraction=1.0)
    store.save(tmp_path / "graph")
    loaded = GraphStore.load(tmp_path / "graph")
    # after the load, events gain neighbours of every kind, one without a
    # text, and a new event gets some: loaded and written lists mix
    np_rng = np.random.default_rng(5)
    loaded.upsert_node(Node("event:new", NodeKind.EVENT, text="a new event",
                            embedding=random_unit_vector(np_rng)))
    nodes, edges = [Node("cause:bare", NodeKind.CAUSE)], []
    for i in (*range(0, 40, 3), "new"):
        for kind, edge_kind in ((NodeKind.CAUSE, EdgeKind.CAUSES),
                                (NodeKind.EFFECT, EdgeKind.RESULTS_IN),
                                (NodeKind.TRIGGER, EdgeKind.HAS_TRIGGER)):
            node_id = f"{kind.value.lower()}:late:{i}"
            nodes.append(Node(node_id, kind, text=f"late {kind.value} {i}"))
            end = (node_id, f"event:{i}")
            edges.append(Edge(*(end if edge_kind is EdgeKind.CAUSES else end[::-1]), edge_kind))
        edges.append(Edge("cause:bare", f"event:{i}", EdgeKind.CAUSES))
    loaded.insert(nodes, edges)
    model = ReferenceGraph(loaded)  # its texts come from a scan of the edges
    results = query(loaded, random_unit_vector(np_rng), HybridConfig(tau=-2.0, k=50))
    assert len(results) == 41
    for r in results:
        want = model.collect_texts(r.event_id)
        assert (list(r.cause_texts), list(r.effect_texts), list(r.trigger_texts)) == want
        assert (r.cause_count, r.effect_count, r.trigger_count) == tuple(map(len, want))
        assert r.event_text == model.node_map[r.event_id].text
        assert loaded.event_texts([r.event_id]) == [(r.event_text, *want)]
    # each touched event's lists: the loaded texts, then the late ones
    by_id = {r.event_id: r for r in results}
    mixed = 0
    for i in range(0, 40, 3):
        causes, effects, triggers = store.collect_texts(f"event:{i}")
        r = by_id[f"event:{i}"]
        assert r.cause_texts == (*causes, f"late Cause {i}", "")
        assert r.effect_texts == (*effects, f"late Effect {i}")
        assert r.trigger_texts == (*triggers, f"late Trigger {i}")
        mixed += bool(causes or effects or triggers)
    assert mixed


def test_query_threshold_superset_prefix(rng):
    for _ in range(20):
        store = random_store(rng, n_events=40)
        q = random_unit_vector(np.random.default_rng(rng.randrange(2**32)))
        hi = HybridConfig(alpha=0.6, beta=0.4, tau=0.7, k=15)
        lo = HybridConfig(alpha=0.6, beta=0.4, tau=0.1, k=15)
        first = [r.event_id for r in query(store, q, hi)]
        second = [r.event_id for r in query(store, q, lo)]
        if len(first) < hi.k:
            assert second[: len(first)] == first


def test_results_and_examples_are_what_their_constructors_make(rng):
    store = random_store(rng, n_events=30)
    results = query(store, random_unit_vector(np.random.default_rng(9)), HybridConfig(tau=-2.0))
    examples = to_fewshot_examples(results)
    assert results and examples
    for made in (*results, *examples):
        cls = type(made)
        assert list(vars(made)) == [f.name for f in fields(cls)]
        again = cls(**vars(made))
        assert made == again and hash(made) == hash(again) and repr(made) == repr(again)
        with pytest.raises(FrozenInstanceError):
            made.event_id = "event:other"
    for r in results:
        assert [type(v) for v in (r.hybrid_score, r.embedding_similarity)] == [float, float]
        assert type(r.structural_score) is int and type(r.cause_texts) is tuple


def test_fewshot_empty_neighbors_label_zero():
    store = GraphStore()
    vec = random_unit_vector(np.random.default_rng(3))
    embedded_event(store, "event:1", vec, text="nothing causal here", edges=0)
    results = query(store, vec, HybridConfig(tau=0.0))
    examples = to_fewshot_examples(results)
    assert len(examples) == 1
    assert examples[0].label == 0
    assert examples[0].tagged_text == "nothing causal here"
    assert examples[0].reconstruction_ok


def test_fewshot_roundtrips_through_parser():
    store = GraphStore()
    text = "heavy rain led to flooding"
    vec = random_unit_vector(np.random.default_rng(4))
    store.upsert_node(Node("event:1", NodeKind.EVENT, text=text, embedding=vec))
    store.upsert_node(Node("cause:1:0", NodeKind.CAUSE, text="heavy rain"))
    store.add_edge(Edge("cause:1:0", "event:1", EdgeKind.CAUSES))
    store.upsert_node(Node("effect:1:0", NodeKind.EFFECT, text="flooding"))
    store.add_edge(Edge("event:1", "effect:1:0", EdgeKind.RESULTS_IN))
    results = query(store, vec, HybridConfig(tau=0.0))
    example = to_fewshot_examples(results)[0]
    assert example.label == 1
    reparsed = parse_tagged_sentence(example.tagged_text, "rt")
    assert reparsed.raw_text == text
    assert {(sp.kind, sp.text) for sp in reparsed.spans} == {
        (NodeKind.CAUSE, "heavy rain"),
        (NodeKind.EFFECT, "flooding"),
    }


def test_fewshot_rank_order_preserved(rng):
    store = random_store(rng, n_events=30)
    q = random_unit_vector(np.random.default_rng(8))
    results = query(store, q, HybridConfig(tau=-1.0, k=30))
    examples = to_fewshot_examples(results)
    assert [e.event_id for e in examples] == [r.event_id for r in results]
    assert [e.rank for e in examples] == list(range(1, len(results) + 1))


def test_reconstruct_flags_missing_text():
    tagged, ok, unplaced = reconstruct_tagged(
        "short sentence", ["not present anywhere"], [], []
    )
    assert not ok
    assert tagged == "short sentence"  # untagged fallback
    assert unplaced == [("cause", "not present anywhere")]


def test_reconstruct_handles_duplicate_span_texts():
    tagged, ok, unplaced = reconstruct_tagged(
        "rain and rain again", ["rain", "rain"], [], []
    )
    assert ok
    reparsed = parse_tagged_sentence(tagged, "dup")
    assert [sp.text for sp in reparsed.spans] == ["rain", "rain"]
    assert [sp.start for sp in reparsed.spans] == [0, 9]


def test_reconstruct_claims_do_not_overlap():
    # "the law" overlaps "law and order"; second span must take a later slot or fail
    tagged, ok, unplaced = reconstruct_tagged(
        "the law and order act", ["the law"], ["law and order"], []
    )
    assert not ok  # "law and order" only occurs overlapping the claimed cause
    assert unplaced == [("effect", "law and order")]


def test_rank_vs_score_permutation(rng):
    # rank order in examples always mirrors hybrid-score order of results
    store = random_store(rng, n_events=50)
    q = random_unit_vector(np.random.default_rng(21))
    results = query(store, q, HybridConfig(tau=-1.0, k=50))
    scores = [r.hybrid_score for r in results]
    assert scores == sorted(scores, reverse=True)
