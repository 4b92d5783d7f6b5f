from __future__ import annotations

import json
import string

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causeway.errors import (
    BadLabelError,
    MissingKeyError,
    NoJsonFoundError,
    ParseFailureError,
    TransportError,
    XmlCharacterError,
)
from causeway.inference import (
    HttpLLMClient,
    LLMClient,
    MockLLMClient,
    RateBudgeter,
    RetrievalTrace,
    Verdict,
    classify,
    emit_graph_if_causal,
    extract_json,
    prompt_hash,
    self_evaluate_tagging,
)
from causeway.prompting import PromptSpec, build_prompt, estimate_tokens
from causeway.retrieval import FewShotExample, HybridConfig
from causeway.store import Edge, EdgeKind, GraphStore, Node, NodeKind

from helpers import count_dot_statements, random_store


class CannedClient(LLMClient):
    name = "canned"

    def __init__(self, raw: str):
        self.raw = raw
        self.prompts: list[str] = []

    def complete(self, prompt: str) -> str:
        self.prompts.append(prompt)
        return self.raw


def causal_store(provider, sentences):
    """Store of causal events whose trigger texts come from the sentences."""
    store = GraphStore()
    for i, (text, trigger) in enumerate(sentences):
        event_id = f"event:{i}"
        store.upsert_node(
            Node(event_id, NodeKind.EVENT, text=text, embedding=provider.embed(text))
        )
        trigger_id = f"trigger:{i}:0"
        store.upsert_node(Node(trigger_id, NodeKind.TRIGGER, text=trigger))
        store.add_edge(Edge(event_id, trigger_id, EdgeKind.HAS_TRIGGER))
    return store


# --- extract_json ---

def test_extract_json_bare_object():
    raw = '{"tagged_sentence": "<cause>x</cause> led to <effect>y</effect>", "label": 1}'
    verdict = extract_json(raw)
    assert verdict.label == 1
    assert verdict.tagged_sentence.startswith("<cause>")


def test_extract_json_fenced_with_prose():
    raw = (
        "Sure! Here is the answer you asked for:\n"
        "```json\n"
        '{"tagged_sentence": "plain", "label": 0}\n'
        "```\n"
        "Hope that helps."
    )
    assert extract_json(raw) == Verdict("plain", 0)


def test_extract_json_coerces_string_labels():
    assert extract_json('{"tagged_sentence": "t", "label": "1"}').label == 1
    assert extract_json('{"tagged_sentence": "t", "label": "0"}').label == 0


def test_extract_json_ignores_extra_keys():
    raw = '{"tagged_sentence": "t", "label": 1, "original_sentence": "t", "note": 5}'
    assert extract_json(raw).label == 1


def test_extract_json_bad_label():
    with pytest.raises(BadLabelError):
        extract_json('{"tagged_sentence": "t", "label": 2}')
    with pytest.raises(BadLabelError):
        extract_json('{"tagged_sentence": "t", "label": true}')
    with pytest.raises(BadLabelError):
        extract_json('{"tagged_sentence": "t", "label": "causal"}')


def test_extract_json_missing_keys():
    with pytest.raises(MissingKeyError):
        extract_json('{"label": 1}')
    with pytest.raises(MissingKeyError):
        extract_json('{"tagged_sentence": "t"}')
    with pytest.raises(MissingKeyError):
        extract_json('{"tagged_sentence": 7, "label": 1}')


def test_extract_json_no_json():
    with pytest.raises(NoJsonFoundError):
        extract_json("there is no object here { not json")


def test_extract_json_total_over_fuzzed_strings(rng):
    alphabet = string.printable
    for _ in range(500):
        raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
        try:
            verdict = extract_json(raw)
            assert verdict.label in (0, 1)
        except ParseFailureError:
            pass  # typed failure is the only acceptable error


DEEP = "[" * 100_000 + "]" * 100_000


def test_extract_json_deeply_nested_reply_is_no_json():
    with pytest.raises(NoJsonFoundError, match="too deeply"):
        extract_json('{"tagged_sentence": "s", "label": ' + DEEP + "}")


@settings(max_examples=300, deadline=None)
@given(raw=st.text(alphabet=st.sampled_from('{}[]":,01 labeltagged_sentence\\x'), max_size=80)
       | st.text(max_size=40))
def test_extract_json_yields_a_verdict_or_a_parse_failure(raw):
    try:
        verdict = extract_json(raw)
    except ParseFailureError:
        return
    assert verdict.label in (0, 1)
    assert isinstance(verdict.tagged_sentence, str)


def test_extract_json_picks_first_valid_object():
    raw = '{"oops": } {"tagged_sentence": "t", "label": 0} {"label": 1}'
    assert extract_json(raw).label == 0


# --- classify ---

def test_classify_plumbing_with_canned_client(provider):
    store = causal_store(provider, [("a strike happened", "because")])
    client = CannedClient('{"tagged_sentence": "<cause>a</cause> b", "label": 1}')
    verdict, trace = classify("a strike happened", store, provider, client)
    assert verdict.label == 1
    assert trace.k_used == 1
    assert trace.event_ids == ["event:0"]
    assert len(trace.prompt_hash) == 64
    assert not trace.salvaged


def test_classify_mock_trigger_lexicon(provider):
    store = causal_store(
        provider,
        [
            ("wages fell because of inflation", "because of"),
            ("the market closed early", "owing to"),
        ],
    )
    client = MockLLMClient()
    verdict, trace = classify(
        "prices rose because of the drought", store, provider, client
    )
    assert verdict.label == 1
    assert "<trigger>because of</trigger>" in verdict.tagged_sentence

    verdict2, _ = classify("nothing interesting happened", store, provider, client)
    assert verdict2.label == 0
    assert verdict2.tagged_sentence == "nothing interesting happened"


def test_classify_empty_store_zero_shot(provider):
    client = CannedClient('{"tagged_sentence": "t", "label": 0}')
    verdict, trace = classify("t", GraphStore(), provider, client)
    assert verdict.label == 0
    assert trace.k_used == 0
    assert trace.event_ids == []


def test_classify_is_deterministic(provider):
    store = causal_store(provider, [("x because y", "because")])
    client = MockLLMClient()
    runs = [
        classify("it broke because it fell", store, provider, client)
        for _ in range(2)
    ]
    assert runs[0][0] == runs[1][0]
    assert runs[0][1].prompt_hash == runs[1][1].prompt_hash


def test_classify_never_mutates_store(provider, rng):
    store = random_store(rng, n_events=20)
    before_stats = store.stats().as_dict()
    before_vectors = {
        n.id: None if n.embedding is None else n.embedding.copy()
        for n in store.nodes()
    }
    classify("anything", store, provider, MockLLMClient())
    assert store.stats().as_dict() == before_stats
    for node in store.nodes():
        prev = before_vectors[node.id]
        if prev is None:
            assert node.embedding is None
        else:
            assert np.array_equal(node.embedding, prev)


class FlakyClient(LLMClient):
    name = "flaky"

    def __init__(self, failures: int, raw: str):
        self.failures = failures
        self.raw = raw
        self.calls = 0

    def complete(self, prompt: str) -> str:
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError("connection reset")
        return self.raw


def test_classify_retries_transport_errors(provider):
    sleeps = []
    client = FlakyClient(2, '{"tagged_sentence": "t", "label": 0}')
    verdict, trace = classify(
        "t", GraphStore(), provider, client, retry_sleeper=sleeps.append
    )
    assert verdict.label == 0
    assert trace.retries == 2
    assert sleeps == [0.5, 1.0]  # exponential backoff


def test_classify_gives_up_after_max_retries(provider):
    client = FlakyClient(10, "{}")
    with pytest.raises(TransportError):
        classify("t", GraphStore(), provider, client, retry_sleeper=lambda _: None)
    assert client.calls == 4  # initial attempt + 3 retries


class CountingBudgeter(RateBudgeter):
    """Admits every request at once and records each one's tokens."""

    def __init__(self):
        super().__init__()
        self.acquired = []

    def acquire(self, tokens: int) -> None:
        self.acquired.append(tokens)


class PromptRecordingClient(FlakyClient):
    def complete(self, prompt: str) -> str:
        self.prompt = prompt
        return super().complete(prompt)


def test_every_transport_attempt_acquires_the_rate_budget(provider):
    budgeter = CountingBudgeter()
    client = PromptRecordingClient(2, '{"tagged_sentence": "t", "label": 0}')
    _, trace = classify("t", GraphStore(), provider, client, budgeter=budgeter,
                        retry_sleeper=lambda _: None)
    assert (client.calls, trace.retries) == (3, 2)
    assert budgeter.acquired == [estimate_tokens(client.prompt)] * 3


@pytest.mark.parametrize("limits", [
    {"requests_per_minute": 0}, {"requests_per_minute": -1},
    {"tokens_per_minute": 0}, {"tokens_per_minute": -5, "requests_per_minute": 10},
])
def test_rate_budgeter_refuses_limits_below_one(limits):
    name = next(key for key, value in limits.items() if value < 1)
    with pytest.raises(ValueError, match=f"{name} must be at least 1, got {limits[name]}"):
        RateBudgeter(**limits)
    RateBudgeter(requests_per_minute=1, tokens_per_minute=1)  # the least each allows
    RateBudgeter()


def test_classify_propagates_parse_failure(provider):
    client = CannedClient("the model rambled and produced no JSON at all")
    with pytest.raises(NoJsonFoundError):
        classify("t", GraphStore(), provider, client)


def test_classify_handles_xml_special_characters(provider):
    sentence = 'profits < forecasts & the "crash" followed'
    store = causal_store(provider, [(sentence, "followed")])
    verdict, _ = classify(sentence, store, provider, MockLLMClient())
    assert verdict.label == 1
    from causeway.annotation import strip_tags

    assert strip_tags(verdict.tagged_sentence) == sentence


def test_classify_refuses_xml_invalid_characters(provider):
    # a raw control character would otherwise reach the client and break
    # its XML parse with an error outside the CausewayError hierarchy
    with pytest.raises(XmlCharacterError):
        classify("bad \x01 sentence", GraphStore(), provider, MockLLMClient())


def test_classify_records_salvage(provider):
    client = CannedClient('noise before {"tagged_sentence": "t", "label": 1} after')
    _, trace = classify("t", GraphStore(), provider, client)
    assert trace.salvaged


def test_classify_budget_trims_prompt(provider):
    store = causal_store(
        provider, [(f"sentence {i} because reasons", "because") for i in range(8)]
    )
    client = MockLLMClient()
    cfg = HybridConfig(tau=-1.0, k=8)
    _, trace_full = classify("sentence 0 because reasons", store, provider, client, cfg=cfg)
    _, trace_slim = classify(
        "sentence 0 because reasons",
        store,
        provider,
        client,
        cfg=cfg,
        max_prompt_tokens=400,
    )
    assert trace_full.k_used == 8
    assert trace_slim.k_used < 8


# --- self evaluation ---

def test_self_evaluate_perfect_tagging():
    verdict = Verdict("<cause>rain</cause> flooded <effect>the town</effect>", 1)
    report = self_evaluate_tagging(verdict, "rain flooded the town")
    assert report.ok
    assert report.round_trip_ok
    assert report.span_kinds == ("Cause", "Effect")


def test_self_evaluate_strip_mismatch():
    verdict = Verdict("<cause>rain</cause> flooded town", 1)
    report = self_evaluate_tagging(verdict, "rain flooded the town")
    assert not report.ok
    assert not report.round_trip_ok
    assert report.detail


def test_self_evaluate_label_without_spans():
    report = self_evaluate_tagging(Verdict("no tags at all", 1), "no tags at all")
    assert not report.ok
    assert report.round_trip_ok
    assert not report.label_consistent


def test_self_evaluate_trigger_only_label_one():
    report = self_evaluate_tagging(
        Verdict("it broke <trigger>because</trigger> it fell", 1),
        "it broke because it fell",
    )
    assert not report.label_consistent  # needs a cause or effect span


def test_self_evaluate_malformed_tagging():
    report = self_evaluate_tagging(
        Verdict("<cause>broken tagging", 1), "broken tagging"
    )
    assert not report.parse_ok
    assert not report.ok


def test_self_evaluate_label_zero_untagged_ok():
    report = self_evaluate_tagging(Verdict("plain sentence", 0), "plain sentence")
    assert report.ok


# --- graph emission ---

def test_emit_graph_label_zero_returns_none():
    assert emit_graph_if_causal(Verdict("anything", 0)) is None


def test_emit_graph_counts_nodes_and_edges():
    verdict = Verdict("<cause>rain</cause> flooded <effect>the town</effect>", 1)
    dot = emit_graph_if_causal(verdict)
    nodes, edges = count_dot_statements(dot)
    assert (nodes, edges) == (3, 2)


def test_emit_graph_matches_fragment_arithmetic(rng):
    from causeway.annotation import build_causal_fragment, parse_tagged_sentence
    from helpers import make_tagged_sentence

    for _ in range(50):
        tagged, _, spans = make_tagged_sentence(rng)
        dot = emit_graph_if_causal(Verdict(tagged, 1))
        fragment = build_causal_fragment(parse_tagged_sentence(tagged, "x"))
        nodes, edges = count_dot_statements(dot)
        assert nodes == len(fragment.nodes)
        assert edges == len(fragment.edges)


def test_emit_graph_downgrades_unparseable_tagging():
    dot = emit_graph_if_causal(Verdict("<cause>broken", 1))
    nodes, edges = count_dot_statements(dot)
    assert (nodes, edges) == (1, 0)
    assert "tagging unparseable" in dot


# --- clients and budgeter ---

def test_mock_client_emits_two_key_json(provider):
    from causeway.retrieval import query, to_fewshot_examples

    store = causal_store(provider, [("x happened due to y", "due to")])
    results = query(store, provider.embed("z failed due to w"), HybridConfig())
    prompt = build_prompt(
        PromptSpec("z failed due to w", examples=to_fewshot_examples(results))
    )
    parsed = json.loads(MockLLMClient().complete(prompt))
    assert set(parsed) == {"tagged_sentence", "label"}
    assert parsed["label"] == 1


def lexicon_reply(sentence: str, triggers: list[str]) -> dict:
    """What the mock client answers for ``sentence`` with one few-shot
    example per trigger."""
    examples = [
        FewShotExample(i, f"event:{i}", "e", (), (), (trigger,), "e", 1, True)
        for i, trigger in enumerate(triggers)
    ]
    return json.loads(MockLLMClient().complete(build_prompt(PromptSpec(sentence, examples))))


# letters whose lowercase is one letter whatever their neighbours, and İ,
# whose lowercase is two (i and a combining dot above)
LETTERS = "aiksAIKS\u0130\u1e9e\u212a"


@settings(max_examples=300, deadline=None)
@given(
    sentence=st.text(alphabet=LETTERS + " ", max_size=12),
    triggers=st.lists(st.text(alphabet=LETTERS, min_size=1, max_size=3), min_size=1, max_size=3),
)
@example(sentence="\u0130stanbul rain caused floods", triggers=["caused"])
@example(sentence="\u0130i", triggers=["i"])  # i first occurs inside the lowercase \u0130
@example(sentence="\u0130", triggers=["i"])  # and only there
def test_mock_client_tags_the_trigger_in_the_sentences_own_characters(sentence, triggers):
    reply = lexicon_reply(sentence, triggers)
    lowered = sentence.lower()
    hits = [t for t in triggers if t.lower() in lowered and len(t.lower()) == len(t)]
    assert reply["label"] == int(bool(hits))
    tagged = reply["tagged_sentence"]
    assert tagged.replace("<trigger>", "").replace("</trigger>", "") == sentence
    if not hits:
        assert tagged == sentence
        return
    span = tagged.split("<trigger>")[1].split("</trigger>")[0]
    needle = hits[0].lower()
    n = len(sentence)
    if any(sentence[i:j].lower() == needle for i in range(n) for j in range(i + 1, n + 1)):
        assert span.lower() == needle
    else:  # the trigger lies inside one character's lowercase: that character is tagged
        assert needle in span.lower()


def test_http_client_payload_and_errors(monkeypatch):
    monkeypatch.delenv("CAUSEWAY_LLM_API_KEY", raising=False)
    class FakeResponse:
        def __init__(self, payload, status):
            self.payload = payload
            self.status = status

        def raise_for_status(self):
            if self.status >= 400:
                raise RuntimeError(f"http {self.status}")

        def json(self):
            return self.payload

    class FakeSession:
        def __init__(self, payload, status=200):
            self.payload = payload
            self.status = status
            self.request = None

        def post(self, url, json=None, headers=None, timeout=None):
            self.request = {"url": url, "json": json, "headers": headers, "timeout": timeout}
            return FakeResponse(self.payload, self.status)

    ok = FakeSession({"choices": [{"message": {"content": "hi"}}]})
    client = HttpLLMClient("http://llm.local/v1/chat", model="test-model", session=ok)
    assert client.complete("prompt text") == "hi"
    assert ok.request["json"] == {
        "model": "test-model",
        "messages": [{"role": "user", "content": "prompt text"}],
        "temperature": 0.0,
        "max_tokens": 1024,
    }
    assert ok.request["timeout"] == 60.0
    assert ok.request["headers"] == {}
    monkeypatch.setenv("CAUSEWAY_LLM_API_KEY", "secret")
    client.complete("prompt text")
    assert ok.request["headers"] == {"Authorization": "Bearer secret"}

    bad = FakeSession({}, status=503)
    client = HttpLLMClient("http://llm.local/v1/chat", model="m", session=bad)
    with pytest.raises(TransportError):
        client.complete("prompt")


class ReplySession:
    """A chat-completions endpoint whose reply holds ``content`` as its
    message; counts the requests."""

    def __init__(self, content):
        self.content = content
        self.posts = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts += 1
        return self

    def raise_for_status(self):
        pass

    def json(self):
        return {"choices": [{"message": {"content": self.content}}]}


@pytest.mark.parametrize("content", [None, 5, 1.5, ["a"], {"label": 1}, True])
def test_http_client_refuses_reply_content_that_is_not_a_string(provider, content):
    session = ReplySession(content)
    client = HttpLLMClient("http://llm.local/v1/chat", model="m", session=session)
    with pytest.raises(TransportError, match=(
        f"^LLM request failed: reply content must be a string, not {type(content).__name__}$"
    )):
        classify("t", GraphStore(), provider, client, retry_sleeper=lambda _: None)
    assert session.posts == 1  # a reply that came is not retried as a transport fault


def test_rate_budgeter_requests_per_minute():
    clock = {"now": 0.0}
    sleeps = []

    def sleeper(seconds):
        sleeps.append(seconds)
        clock["now"] += seconds

    budgeter = RateBudgeter(
        requests_per_minute=2, clock=lambda: clock["now"], sleeper=sleeper
    )
    budgeter.acquire(10)
    budgeter.acquire(10)
    budgeter.acquire(10)  # must wait for the first event to fall out
    assert sleeps and clock["now"] >= 60.0


def test_rate_budgeter_tokens_per_minute():
    clock = {"now": 0.0}

    def sleeper(seconds):
        clock["now"] += seconds

    budgeter = RateBudgeter(
        tokens_per_minute=100, clock=lambda: clock["now"], sleeper=sleeper
    )
    budgeter.acquire(60)
    budgeter.acquire(60)  # 120 > 100: waits out the window
    assert clock["now"] >= 60.0


def test_trace_serializes():
    trace = RetrievalTrace(1, ["event:0"], [0.9], prompt_hash("p"))
    d = trace.as_dict()
    assert d["k_used"] == 1 and d["event_ids"] == ["event:0"]
