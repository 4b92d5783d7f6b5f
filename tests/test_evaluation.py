from __future__ import annotations

import json
import math
from dataclasses import replace
from xml.etree import ElementTree as ET

import numpy as np
import pytest

from causeway import retrieval
from causeway.embedding import EmbeddingProvider
from causeway.errors import (
    BadLabelError,
    CausewayError,
    EmptyConfusionError,
    LengthMismatchError,
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
from causeway.inference import LLMClient, MockLLMClient, classify
from causeway.prompting import PromptSpec, build_prompt, estimate_tokens
from causeway.retrieval import HybridConfig
from causeway.store import Edge, EdgeKind, GraphStore, Node, NodeKind


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
            if "boom" in (root.findtext("query") or ""):
                return "no json here"
            return '{"tagged_sentence": "t", "label": 1}'

    store, _ = sweep_fixture(provider)
    dataset = [
        EvalRecord("ok", "fine sentence", 1),
        EvalRecord("bad", "boom sentence", 1),
    ]
    reports = sweep(dataset, [3], store, provider, ExplodingClient())
    assert reports[0].confusion.total == 1
    assert [f[0] for f in reports[0].failures] == ["bad"]


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
            np.zeros(self.dimension) if text == "zero vector" else vec
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
            EvalReport(client.name, k, cfg.tau, cfg.alpha, cfg.beta, c, metrics(c), failures)
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
    assert queries == [max(k_values)] * len(dataset)
    assert [r.k for r in reports] == k_values
    for report in reports:
        assert [f[0] for f in report.failures] == ["xml", "zero"]

    monkeypatch.setattr(retrieval, "query", real_query)
    want = per_k_reports(
        dataset, k_values, store, CountingProvider(provider), ThresholdClient(), cfg, budget
    )
    assert reports_to_json(reports) == reports_to_json(want)


def test_sweep_checks_every_k_before_any_work(provider):
    store, dataset = sweep_fixture(provider)
    counting = CountingProvider(provider)
    assert sweep(dataset, [], store, counting, ThresholdClient()) == []
    with pytest.raises(ValueError):
        sweep(dataset, [5, 0], store, counting, ThresholdClient())
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
