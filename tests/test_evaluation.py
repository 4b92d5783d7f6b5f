from __future__ import annotations

import json
import math
from dataclasses import replace
from xml.etree import ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causeway import inference, prompting, retrieval
from causeway.embedding import EmbeddingProvider, HttpEmbeddingProvider
from causeway.errors import (
    BadLabelError,
    CausewayError,
    EmptyConfusionError,
    LengthMismatchError,
    ProviderFailureError,
    TransportError,
)
from causeway.evaluation import (
    EMPTY_METRICS,
    Confusion,
    EvalRecord,
    EvalReport,
    confusion,
    load_eval_dataset,
    metrics,
    reports_to_json,
    reports_to_markdown,
    sweep,
)
from causeway.inference import HttpLLMClient, LLMClient, MockLLMClient, classify
from causeway.prompting import PromptSpec, build_prompt, estimate_tokens
from causeway.retrieval import HybridConfig
from causeway.store import EMBEDDING_DIM, Edge, EdgeKind, GraphStore, Node, NodeKind


def test_confusion_perfect_and_inverted():
    c = confusion([1, 0, 1], [1, 0, 1])
    assert (c.tp, c.tn, c.fp, c.fn) == (2, 1, 0, 0)
    inverted = confusion([0, 1, 0], [1, 0, 1])
    assert (inverted.tp, inverted.tn) == (0, 0)
    assert (inverted.fp, inverted.fn) == (1, 2)


def test_confusion_random_recount(rng):
    preds = [rng.randint(0, 1) for _ in range(100)]
    gold = [rng.randint(0, 1) for _ in range(100)]
    c = confusion(preds, gold)
    # independent second counting pass
    pairs = list(zip(preds, gold))
    assert c.tp == pairs.count((1, 1))
    assert c.fp == pairs.count((1, 0))
    assert c.fn == pairs.count((0, 1))
    assert c.tn == pairs.count((0, 0))
    assert c.total == 100


def test_confusion_validation():
    with pytest.raises(LengthMismatchError):
        confusion([1], [1, 0])
    with pytest.raises(BadLabelError):
        confusion([2], [1])
    with pytest.raises(BadLabelError):
        confusion([1], [None])


def test_metrics_perfect_predictions():
    m = metrics(Confusion(tp=10, fp=0, fn=0, tn=10))
    assert m.f1 == m.accuracy == m.precision == m.recall == 1.0
    assert m.mcc == 1.0
    assert m.degenerate == ()


def test_metrics_all_positive_on_balanced_gold():
    # 50/50 gold, everything predicted positive
    m = metrics(Confusion(tp=25, fp=25, fn=0, tn=0))
    assert m.precision == 0.5
    assert m.recall == 1.0
    assert m.mcc == 0.0
    assert "mcc" in m.degenerate


def test_metrics_empty_confusion():
    with pytest.raises(EmptyConfusionError):
        metrics(Confusion(0, 0, 0, 0))


def test_metrics_reference_row_from_recovered_matrix():
    # matrix recovered by integer search over all matrices consistent with
    # the published top-k=20 row (see test_acceptance for the search itself)
    m = metrics(Confusion(tp=152, fp=40, fn=26, tn=105))
    assert m.f1 == pytest.approx(0.8216, abs=5e-4)
    assert m.accuracy == pytest.approx(0.7957, abs=5e-4)
    assert m.precision == pytest.approx(0.7917, abs=5e-4)
    assert m.recall == pytest.approx(0.8539, abs=5e-4)
    assert m.mcc == pytest.approx(0.5856, abs=5e-4)


def random_confusion(rng):
    return Confusion(
        tp=rng.randint(0, 50),
        fp=rng.randint(0, 50),
        fn=rng.randint(0, 50),
        tn=rng.randint(0, 50),
    )


def test_f1_is_harmonic_mean(rng):
    for _ in range(200):
        c = random_confusion(rng)
        if c.total == 0:
            continue
        m = metrics(c)
        if m.precision + m.recall > 0:
            expected = 2 * m.precision * m.recall / (m.precision + m.recall)
            assert math.isclose(m.f1, expected, rel_tol=1e-12)


def test_accuracy_identity(rng):
    for _ in range(200):
        c = random_confusion(rng)
        if c.total == 0:
            continue
        assert metrics(c).accuracy == (c.tp + c.tn) / c.total


def test_mcc_invariant_under_simultaneous_class_swap(rng):
    for _ in range(200):
        c = random_confusion(rng)
        if c.total == 0:
            continue
        swapped = Confusion(tp=c.tn, fp=c.fn, fn=c.fp, tn=c.tp)
        assert math.isclose(
            metrics(c).mcc, metrics(swapped).mcc, rel_tol=0, abs_tol=1e-12
        )


def test_load_eval_dataset(tmp_path):
    path = tmp_path / "test.jsonl"
    path.write_text(
        '{"id": "a", "text": "plain sentence", "gold_label": 1}\n'
        '{"id": "b", "tagged_text": "<cause>x</cause> y", "gold_label": 0}\n',
        encoding="utf-8",
    )
    records = load_eval_dataset(path)
    assert records[0] == EvalRecord("a", "plain sentence", 1)
    assert records[1].text == "x y"  # stripped from tagged_text


def test_load_eval_dataset_requires_gold(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "text": "s"}\n', encoding="utf-8")
    with pytest.raises(BadLabelError):
        load_eval_dataset(path)
    path.write_text('{"id": "a", "text": "s", "gold_label": 1}\n[1, 2]\n', encoding="utf-8")
    with pytest.raises(BadLabelError, match="line 2"):
        load_eval_dataset(path)
    path.write_text("[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
    with pytest.raises(BadLabelError, match="line 1"):
        load_eval_dataset(path)
    for record in ({"text": 5}, {"text": None}, {"tagged_text": ["x"]}, {}):
        path.write_text(json.dumps({"id": "a", "gold_label": 1, **record}), encoding="utf-8")
        with pytest.raises(BadLabelError, match="a: record needs"):
            load_eval_dataset(path)
    for gold in (True, False, 1.0, 0.0, "1", 2, None):  # exactly the ints 0 and 1
        path.write_text(json.dumps({"id": "a", "text": "s", "gold_label": gold}), encoding="utf-8")
        with pytest.raises(BadLabelError, match="a: gold_label must be 0 or 1"):
            load_eval_dataset(path)


@pytest.mark.parametrize("char", ["\x85", "\u2028"])
def test_eval_line_break_inside_a_string_stays_in_its_record(tmp_path, char):
    path = tmp_path / "test.jsonl"
    rows = [{"id": "a", "text": f"rain{char}fell", "gold_label": 1},
            {"id": "b", "text": "calm", "gold_label": 0}]
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\r\n" for r in rows),
                    encoding="utf-8")
    assert load_eval_dataset(path) == [EvalRecord("a", f"rain{char}fell", 1),
                                       EvalRecord("b", "calm", 0)]


def test_eval_line_that_is_not_utf8_is_refused_by_its_number(tmp_path):
    path = tmp_path / "test.jsonl"
    path.write_bytes(b'{"id": "a", "text": "s", "gold_label": 1}\n\n'
                     b'{"id": "b", "text": "caf\xe9", "gold_label": 0}\n')
    # the position is within the line, which is decoded on its own
    with pytest.raises(BadLabelError, match=(
        "^line 3: not a JSON record: 'utf-8' codec can't decode byte 0xe9 in position 24: "
        "invalid continuation byte$"
    )):
        load_eval_dataset(path)


EVAL_VALUES = st.none() | st.booleans() | st.integers(-1, 2) | st.floats() | st.text(max_size=12)
EVAL_LINES = st.dictionaries(
    st.sampled_from(["id", "text", "tagged_text", "gold_label"]),
    EVAL_VALUES | st.sampled_from(["<cause>a</cause> b", "<effect>x", "</cause>"]),
    max_size=4,
).map(json.dumps) | st.text(max_size=20)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(EVAL_LINES, max_size=4))
def test_load_eval_dataset_loads_or_raises_a_causeway_error(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "eval-property.jsonl"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        records = load_eval_dataset(path)
    except CausewayError:
        return
    for record in records:
        assert isinstance(record.text, str)
        assert type(record.gold_label) is int and record.gold_label in (0, 1)


class ThresholdClient(LLMClient):
    """k-dependent rule: label 1 iff the prompt carries >= N examples,
    where N is embedded in the query sentence as 'needs N'."""

    name = "threshold-mock"

    def complete(self, prompt: str) -> str:
        root = ET.fromstring(prompt)
        sentence = root.findtext("query") or ""
        needed = int(sentence.rsplit("needs ", 1)[1].split()[0])
        count = int(root.find("examples").get("count"))
        label = 1 if count >= needed else 0
        return json.dumps({"tagged_sentence": sentence, "label": label})


def sweep_fixture(provider, n_events=12):
    store = GraphStore()
    for i in range(n_events):
        text = f"stored event {i}"
        store.upsert_node(
            Node(f"event:{i}", NodeKind.EVENT, text=text, embedding=provider.embed(text))
        )
        store.upsert_node(Node(f"trigger:{i}:0", NodeKind.TRIGGER, text="because"))
        store.add_edge(Edge(f"event:{i}", f"trigger:{i}:0", EdgeKind.HAS_TRIGGER))
    dataset = [
        EvalRecord(f"q{i}", f"query sentence that needs {i} examples", 1)
        for i in range(1, 11)
    ]
    return store, dataset


def test_sweep_single_k_deterministic(provider):
    store, dataset = sweep_fixture(provider)
    cfg = HybridConfig(tau=-1.0)
    reports = sweep(dataset, [5], store, provider, ThresholdClient(), cfg_base=cfg)
    assert len(reports) == 1
    assert reports[0].k == 5
    assert reports[0].confusion.total == len(dataset)
    assert reports[0].failures == []


def test_sweep_identical_runs_identical_reports(provider):
    store, dataset = sweep_fixture(provider)
    cfg = HybridConfig(tau=-1.0)
    args = (dataset, [5, 10], store, provider, ThresholdClient())
    first = sweep(*args, cfg_base=cfg)
    second = sweep(*args, cfg_base=cfg)
    assert reports_to_json(first) == reports_to_json(second)


def test_sweep_f1_monotone_in_k_by_construction(provider):
    # with the threshold client, larger k can only flip 0 -> 1 on all-causal
    # gold, so recall and f1 never decrease
    store, dataset = sweep_fixture(provider)
    cfg = HybridConfig(tau=-1.0)
    reports = sweep(
        dataset, [2, 5, 8, 10], store, provider, ThresholdClient(), cfg_base=cfg
    )
    f1s = [r.metrics.f1 for r in reports]
    assert f1s == sorted(f1s)
    assert f1s[0] < f1s[-1]


def test_sweep_with_no_verdicts_reports_empty_metrics(provider):
    store, _ = sweep_fixture(provider)
    dataset = [EvalRecord("ctrl", "a control \u0001 character", 1)]
    reports = sweep(dataset, [1, 3], store, provider, MockLLMClient())
    assert [r.k for r in reports] == [1, 3]
    for report in reports:
        assert report.confusion == Confusion(0, 0, 0, 0)
        assert report.metrics == EMPTY_METRICS
        assert report.metrics.degenerate == ("empty",)
        assert [f[0] for f in report.failures] == ["ctrl"]
    assert json.loads(reports_to_json(reports))[0]["degenerate"] == ["empty"]


def test_sweep_records_failures_not_fatal(provider):
    class ExplodingClient(LLMClient):
        name = "explodes"

        def complete(self, prompt: str) -> str:
            root = ET.fromstring(prompt)
            query = root.findtext("query") or ""
            if "boom" in query:
                return "no json here"
            if "deep" in query:  # nests past the JSON decoder's recursion limit
                return '{"label": ' + "[" * 100_000 + "]" * 100_000 + "}"
            return '{"tagged_sentence": "t", "label": 1}'

    store, _ = sweep_fixture(provider)
    dataset = [
        EvalRecord("ok", "fine sentence", 1),
        EvalRecord("bad", "boom sentence", 1),
        EvalRecord("deep", "deep sentence", 1),
    ]
    reports = sweep(dataset, [3], store, provider, ExplodingClient())
    assert reports[0].confusion.total == 1
    assert [f[0] for f in reports[0].failures] == ["bad", "deep"]


@pytest.mark.parametrize("bad", [0.0, math.nan, 1e200], ids=["zero", "nan", "huge"])
def test_sweep_records_a_bad_provider_vector_as_provider_failure(provider, bad):
    class BadProvider(EmbeddingProvider):
        def embed_batch(self, texts):
            return [
                np.full(EMBEDDING_DIM, bad) if text == "bad vector" else vec
                for text, vec in zip(texts, provider.embed_batch(texts))
            ]

    store, _ = sweep_fixture(provider)
    dataset = [EvalRecord("ok", "fine sentence", 1), EvalRecord("bad", "bad vector", 1)]
    reports = sweep(dataset, [1, 3], store, BadProvider(), MockLLMClient())
    for report in reports:
        assert report.confusion.total == 1
        [(rec_id, message)] = report.failures
        assert rec_id == "bad"
        assert message.startswith("provider returned")


class JsonSession:
    """An HTTP session whose every POST answers ``reply(body)`` as the JSON
    of a successful reply; counts the POSTs."""

    def __init__(self, reply):
        self.reply = reply
        self.posts = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts += 1
        self.body = json
        return self

    def raise_for_status(self):
        pass

    def json(self):
        return self.reply(self.body)


def faulty_vectors(fault: str, texts) -> list:
    """What a provider with ``fault`` gives for ``texts``."""
    if fault == "raises":
        raise RuntimeError("provider outage")
    if fault == "no-vector":
        return []
    if fault == "none":
        return None
    return [np.ones(128) for _ in texts]  # 128-wide


@pytest.mark.parametrize("fault", ["raises", "no-vector", "none", "128-wide"])
def test_a_library_providers_fault_fails_its_sentence_as_the_http_providers_would(
    provider, fault
):
    class FaultyProvider(EmbeddingProvider):
        def embed_batch(self, texts):
            if "bad sentence" in texts:
                return faulty_vectors(fault, texts)
            return provider.embed_batch(texts)

    def reply(body):
        return {"data": [{"embedding": v.tolist()} for v in faulty_vectors(fault, body["input"])]}

    store, _ = sweep_fixture(provider)
    http = HttpEmbeddingProvider("http://embed.local", session=JsonSession(reply))
    with pytest.raises(ProviderFailureError) as want:
        classify("bad sentence", store, http, MockLLMClient())
    with pytest.raises(ProviderFailureError) as got:
        classify("bad sentence", store, FaultyProvider(), MockLLMClient())
    # the http provider names a fault of its own as a failed request
    assert str(got.value) == str(want.value).replace("embedding request failed: ", "")

    dataset = [EvalRecord("ok", "fine sentence", 1), EvalRecord("bad", "bad sentence", 1)]
    reports = sweep(dataset, [1, 3], store, FaultyProvider(), MockLLMClient())
    for report in reports:
        assert report.confusion.total == 1
        assert report.failures == [("bad", str(got.value))]


def test_a_library_clients_non_string_reply_fails_its_k_as_the_http_clients_would(provider):
    class NoneClient(LLMClient):
        """Answers None to a prompt of more than one example."""

        def complete(self, prompt: str):
            if int(ET.fromstring(prompt).find("examples").get("count")) > 1:
                return None
            return '{"tagged_sentence": "t", "label": 1}'

    store, dataset = sweep_fixture(provider)
    cfg = HybridConfig(tau=-1.0, k=3)
    session = JsonSession(lambda body: {"choices": [{"message": {"content": None}}]})
    http = HttpLLMClient("http://llm.local", model="m", session=session)
    with pytest.raises(TransportError) as want:
        classify("q", store, provider, http, cfg=cfg)
    assert session.posts == 1  # a reply that came is not retried
    with pytest.raises(TransportError) as got:
        classify("q", store, provider, NoneClient(), cfg=cfg)
    assert str(got.value) == str(want.value)
    assert str(got.value) == "LLM request failed: reply content must be a string, not NoneType"

    reports = sweep(dataset, [1, 3], store, provider, NoneClient(), cfg_base=cfg)
    assert reports[0].confusion.total == len(dataset) and reports[0].failures == []
    assert reports[1].confusion.total == 0
    assert reports[1].failures == [(record.id, str(got.value)) for record in dataset]


def test_a_library_clients_exception_fails_each_sentence_and_k_and_is_not_retried(provider):
    class BrokenClient(LLMClient):
        def __init__(self):
            self.calls = 0

        def complete(self, prompt: str):
            self.calls += 1
            raise RuntimeError("client bug")

    store, dataset = sweep_fixture(provider)
    client = BrokenClient()
    with pytest.raises(TransportError) as got:
        classify("q", store, provider, client, retry_sleeper=lambda _: None)
    assert client.calls == 1
    assert str(got.value) == "LLM request failed: RuntimeError: client bug"
    assert isinstance(got.value.__cause__, RuntimeError)

    reports = sweep(dataset[:2], [1, 3], store, provider, BrokenClient())
    for report in reports:
        assert report.confusion.total == 0
        assert report.failures == [(record.id, str(got.value)) for record in dataset[:2]]


class CountingProvider(EmbeddingProvider):
    """Counts embed calls; the text "zero vector" embeds to all zeros."""

    name = "counting"

    def __init__(self, inner):
        self.inner = inner
        self.embeds = 0

    def embed(self, text):
        self.embeds += 1
        return super().embed(text)

    def embed_batch(self, texts):
        return [
            np.zeros(EMBEDDING_DIM) if text == "zero vector" else vec
            for text, vec in zip(texts, self.inner.embed_batch(texts))
        ]


def per_k_reports(dataset, k_values, store, provider, client, cfg_base, max_prompt_tokens):
    """The reports of a sweep that calls classify once per (sentence, k)."""
    reports = []
    for k in k_values:
        cfg = replace(cfg_base, k=k)
        preds, golds, failures = [], [], []
        for record in dataset:
            try:
                verdict, _ = classify(
                    record.text, store, provider, client, cfg=cfg,
                    max_prompt_tokens=max_prompt_tokens,
                )
            except CausewayError as exc:
                failures.append((record.id, str(exc)))
                continue
            preds.append(verdict.label)
            golds.append(record.gold_label)
        c = confusion(preds, golds)
        reports.append(
            EvalReport(client.name, k, cfg.tau, cfg.alpha, cfg.beta, c,
                       metrics(c) if c.total else EMPTY_METRICS, failures)
        )
    return reports


@pytest.mark.parametrize("budgeted", [False, True], ids=["no-budget", "budget"])
@pytest.mark.parametrize(
    "k_values", [[5, 10, 15, 20], [20, 5, 5, 1]], ids=["ascending", "unsorted-dup"]
)
def test_sweep_ranks_each_sentence_once_and_matches_per_k_classify(
    provider, monkeypatch, k_values, budgeted
):
    store, dataset = sweep_fixture(provider, n_events=25)
    dataset += [
        EvalRecord("xml", "bad \x01 sentence that needs 1 examples", 1),
        EvalRecord("zero", "zero vector", 0),
    ]
    cfg = HybridConfig(tau=-1.0)
    budget = None
    if budgeted:  # room for a few examples, so large k are trimmed
        zero_shot = build_prompt(PromptSpec(query_sentence=dataset[-3].text))
        budget = estimate_tokens(zero_shot) + 60
    queries = []
    real_query = retrieval.query

    def counting_query(*args):
        queries.append(args[2].k)
        return real_query(*args)

    monkeypatch.setattr(retrieval, "query", counting_query)
    counting = CountingProvider(provider)
    reports = sweep(
        dataset, k_values, store, counting, ThresholdClient(),
        cfg_base=cfg, max_prompt_tokens=budget,
    )
    assert counting.embeds == len(dataset)
    # the zero-vector sentence fails at the provider's vector gate, before retrieval
    assert queries == [max(k_values)] * (len(dataset) - 1)
    assert [r.k for r in reports] == k_values
    for report in reports:
        assert [f[0] for f in report.failures] == ["xml", "zero"]

    monkeypatch.setattr(retrieval, "query", real_query)
    want = per_k_reports(
        dataset, k_values, store, CountingProvider(provider), ThresholdClient(), cfg, budget
    )
    assert reports_to_json(reports) == reports_to_json(want)


XML_REFUSAL = "prompt text holds '\\x01', which XML 1.0 cannot carry"


def ranked_fixture(provider, first, second, n_events=25, bad_rank=8):
    """A store whose events rank in id order for the sentence ``first`` and in
    reverse id order for ``second``, all linked; the event at ``bad_rank`` for
    ``first`` holds a character XML cannot carry."""
    q = provider.embed(first)
    other = provider.embed(second)
    other = other - (other @ q) * q
    other /= np.linalg.norm(other)
    store = GraphStore()
    for i in range(n_events):
        angle = 1.5 * (i + 1) / n_events  # similarity falls with i for q, rises for other
        trigger = f"trig{i:02d}"
        text = f"stored event {i:02d} {trigger} happened"
        if i + 1 == bad_rank:
            text = f"stored \x01 event {i:02d} {trigger} happened"
        vec = math.cos(angle) * q + math.sin(angle) * other
        store.upsert_node(Node(f"event:{i:02d}", NodeKind.EVENT, text=text, embedding=vec))
        store.upsert_node(Node(f"trigger:{i:02d}", NodeKind.TRIGGER, text=trigger))
        store.add_edge(Edge(f"event:{i:02d}", f"trigger:{i:02d}", EdgeKind.HAS_TRIGGER))
    return store


@pytest.mark.parametrize("budgeted", [False, True], ids=["no-budget", "budget"])
def test_sweep_builds_examples_once_and_fails_only_the_ks_that_reach_a_bad_example(
    provider, monkeypatch, budgeted
):
    dataset = [
        EvalRecord("ranked", "the ranked query mentions trig03 and trig12", 1),
        EvalRecord("reversed", "another sentence about trig12", 0),
    ]
    store = ranked_fixture(provider, dataset[0].text, dataset[1].text)
    for record, bad_rank in zip(dataset, [8, 18]):
        ranking = retrieval.query(store, provider.embed(record.text), HybridConfig(k=25))
        assert ["\x01" in r.event_text for r in ranking].index(True) + 1 == bad_rank
        assert sum("\x01" in r.event_text for r in ranking) == 1
    k_values = [5, 10, 15, 20]
    budget = None
    if budgeted:  # room for a few examples, so large k are trimmed
        zero_shot = build_prompt(PromptSpec(query_sentence=dataset[0].text))
        budget = estimate_tokens(zero_shot) + 60

    fewshot_calls, renders = [], []
    real_fewshot, real_render = retrieval.to_fewshot_examples, prompting._example

    def counting_fewshot(results):
        fewshot_calls.append(len(results))
        return real_fewshot(results)

    def counting_render(example):
        renders.append(example.rank)
        return real_render(example)

    for module in (retrieval, inference):  # counted in whichever module makes the call
        monkeypatch.setattr(module, "to_fewshot_examples", counting_fewshot)
    monkeypatch.setattr(prompting, "_example", counting_render)
    reports = sweep(
        dataset, k_values, store, provider, MockLLMClient(), max_prompt_tokens=budget
    )
    # one build per sentence, at the largest k, and none per k
    assert fewshot_calls == [max(k_values)] * len(dataset)
    # each example is rendered once per sentence, whatever the k and the budget
    assert renders == list(range(1, max(k_values) + 1)) * len(dataset)
    # each sentence fails exactly at the k whose prefix reaches the bad example
    assert [report.failures for report in reports] == [
        [],
        [("ranked", XML_REFUSAL)],
        [("ranked", XML_REFUSAL)],
        [("ranked", XML_REFUSAL), ("reversed", XML_REFUSAL)],
    ]
    monkeypatch.undo()

    want = per_k_reports(
        dataset, k_values, store, provider, MockLLMClient(), HybridConfig(), budget
    )
    assert reports_to_json(reports) == reports_to_json(want)


def test_sweep_checks_every_k_before_any_work(provider):
    store, dataset = sweep_fixture(provider)
    counting = CountingProvider(provider)
    assert sweep(dataset, [], store, counting, ThresholdClient()) == []
    with pytest.raises(ValueError):
        sweep(dataset, [5, 0], store, counting, ThresholdClient())
    assert counting.embeds == 0


@pytest.mark.parametrize("budget", [0, -3])
def test_sweep_refuses_a_nonpositive_budget_before_any_work(provider, budget):
    store, dataset = sweep_fixture(provider)
    # the second set fails every sentence before it reaches a prompt
    for records in (dataset, [EvalRecord("zero", "zero vector", 0)]):
        counting = CountingProvider(provider)
        with pytest.raises(ValueError, match="^max_tokens must be positive$"):
            sweep(records, [5], store, counting, ThresholdClient(), max_prompt_tokens=budget)
        assert counting.embeds == 0


def test_report_serialization_shapes(provider):
    store, dataset = sweep_fixture(provider)
    reports = sweep(
        dataset, [5, 10], store, provider, ThresholdClient(),
        cfg_base=HybridConfig(tau=-1.0),
    )
    md = reports_to_markdown(reports)
    lines = md.strip().splitlines()
    assert lines[0].startswith("| Top K |")
    assert len(lines) == 2 + len(reports)
    payload = json.loads(reports_to_json(reports))
    assert [row["k"] for row in payload] == [5, 10]
    for row in payload:
        for key in ("f1", "accuracy", "precision", "recall", "mcc", "confusion"):
            assert key in row
