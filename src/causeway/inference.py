"""LLM-side of the pipeline: prompt the model, parse the verdict.

classify() embeds the sentence, retrieves few-shot examples, renders the
XML prompt, calls the client (with bounded retries on transport errors)
and salvages a strict two-key JSON verdict from the raw output. After
retrieval it takes two steps that a top-k sweep shares: prompt_pieces()
renders the prompt's pieces once, and classify_pieces() sends the prompt
of a prefix of them and reads the verdict, once per k in a sweep.
The mock client makes the whole pipeline deterministic and
offline-testable.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable
from xml.etree import ElementTree as ET

from causeway.annotation import (
    build_causal_fragment,
    normalize_ws,
    parse_tagged_sentence,
    strip_tags,
)
from causeway.embedding import EmbeddingProvider, http_session, post_json
from causeway.errors import (
    BadLabelError,
    CausewayError,
    MissingKeyError,
    NoJsonFoundError,
    TransportError,
)
from causeway.export import render_dot
from causeway.prompting import PromptPieces, PromptSpec, default_rules, render_pieces
# bench/tracer.py patches these two names here
from causeway.prompting import build_prompt, token_budget_trim  # noqa: F401
from causeway.retrieval import (
    HybridConfig,
    RetrievalResult,
    query,
    to_fewshot_examples,
)
from causeway.store import GraphStore, Node, NodeKind

logger = logging.getLogger(__name__)

MAX_TRANSPORT_RETRIES = 3
RETRY_BACKOFF_SECONDS = 0.5
TEMPERATURE = 0.0
MAX_OUTPUT_TOKENS = 1024
LLM_TIMEOUT_SECONDS = 60.0


@dataclass(frozen=True)
class Verdict:
    tagged_sentence: str
    label: int


class LLMClient(ABC):
    """Turns a rendered prompt into raw model text. Never mutates state."""

    name: str = "client"

    @abstractmethod
    def complete(self, prompt: str) -> str:
        ...


def _span_of(sentence: str, lowered: str, needle: str) -> tuple[int, int]:
    """The start and end, in ``sentence``, of ``needle``'s first occurrence in
    ``lowered`` (``sentence.lower()``) that begins and ends between two of
    the sentence's characters; if none does, of the characters its first
    occurrence touches. A character may lowercase to more than one (``İ``
    to ``i`` and a combining dot above), so the two strings' indexes differ."""
    ends = list(accumulate(len(c.lower()) for c in sentence))  # in ``lowered``
    bounds = {0, *ends}
    first = at = lowered.find(needle)
    while at != -1 and not (at in bounds and at + len(needle) in bounds):
        at = lowered.find(needle, at + 1)
    at = first if at == -1 else at
    return bisect_right(ends, at), bisect_left(ends, at + len(needle)) + 1


class MockLLMClient(LLMClient):
    """Offline trigger-lexicon stand-in for a hosted model.

    Labels the query 1 exactly when some trigger text from the few-shot
    examples occurs in it (case-insensitive); that trigger occurrence is
    wrapped in <trigger> tags. Deterministic by construction.
    """

    name = "mock-trigger-lexicon"

    def complete(self, prompt: str) -> str:
        root = ET.fromstring(prompt)
        sentence = root.findtext("query") or ""
        triggers = [
            el.text
            for el in root.findall("examples/example/triggers/trigger")
            if el.text
        ]
        tagged, label = sentence, 0
        lowered = sentence.lower()
        for trigger in triggers:
            needle = trigger.lower()
            if needle in lowered and len(needle) == len(trigger):
                start, end = _span_of(sentence, lowered, needle)
                tagged = (
                    sentence[:start]
                    + f"<trigger>{sentence[start:end]}</trigger>"
                    + sentence[end:]
                )
                label = 1
                break
        return json.dumps(
            {"tagged_sentence": tagged, "label": label}, ensure_ascii=False
        )


class HttpLLMClient(LLMClient):
    """OpenAI-style chat-completions client; provider is configuration.

    Temperature is fixed at 0 for reproducibility. The API key is read
    from the environment variable named by ``api_key_env``.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key_env: str = "CAUSEWAY_LLM_API_KEY",
        session=None,
    ):
        self.endpoint = endpoint
        self.model = model
        self.api_key_env = api_key_env
        self.session = http_session(session)
        self.name = model

    def complete(self, prompt: str) -> str:
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": TEMPERATURE,
            "max_tokens": MAX_OUTPUT_TOKENS,
        }
        try:
            payload = post_json(
                self.session, self.endpoint, self.api_key_env, body, LLM_TIMEOUT_SECONDS
            )
            return payload["choices"][0]["message"]["content"]
        except Exception as exc:
            raise TransportError(f"LLM request failed: {exc}") from exc


class RateBudgeter:
    """Sliding-window requests/tokens-per-minute limiter shared by callers."""

    def __init__(
        self,
        requests_per_minute: int | None = None,
        tokens_per_minute: int | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        for name, limit in (("requests", requests_per_minute), ("tokens", tokens_per_minute)):
            if limit is not None and limit < 1:
                raise ValueError(f"{name}_per_minute must be at least 1, got {limit!r}")
        self.requests_per_minute = requests_per_minute
        self.tokens_per_minute = tokens_per_minute
        self._clock = clock
        self._sleeper = sleeper
        self._lock = threading.Lock()
        self._events: list[tuple[float, int]] = []  # (timestamp, tokens)

    def acquire(self, tokens: int) -> None:
        """Block until issuing a request with this many tokens fits."""
        while True:
            with self._lock:
                now = self._clock()
                self._events = [(t, n) for t, n in self._events if now - t < 60.0]
                over_requests = (
                    self.requests_per_minute is not None
                    and len(self._events) >= self.requests_per_minute
                )
                over_tokens = (
                    self.tokens_per_minute is not None
                    and self._events
                    and sum(n for _, n in self._events) + tokens
                    > self.tokens_per_minute
                )
                if not over_requests and not over_tokens:
                    self._events.append((now, tokens))
                    return
                oldest = self._events[0][0]
            self._sleeper(max(oldest + 60.0 - now, 0.01))


def _salvage_json(raw: str) -> tuple[dict, bool]:
    """First syntactically valid JSON object in raw, plus a salvage flag."""
    decoder = json.JSONDecoder()
    idx = raw.find("{")
    while idx != -1:
        try:
            obj, end = decoder.raw_decode(raw, idx)
        except ValueError:
            idx = raw.find("{", idx + 1)
            continue
        except RecursionError as exc:
            # a retry at each nested "{" would recurse as deep again: give up
            raise NoJsonFoundError("model output nests JSON too deeply") from exc
        salvaged = raw[:idx].strip() != "" or raw[end:].strip() != ""
        return obj, salvaged
    raise NoJsonFoundError("no JSON object in model output")


def _coerce_label(value) -> int:
    if isinstance(value, bool):
        raise BadLabelError(f"label must be 0 or 1, got {value!r}")
    if isinstance(value, int) and value in (0, 1):
        return value
    if isinstance(value, float) and value in (0.0, 1.0):
        return int(value)
    if isinstance(value, str) and value.strip() in ("0", "1"):
        return int(value.strip())
    raise BadLabelError(f"label must be 0 or 1, got {value!r}")


def extract_json(raw: str) -> Verdict:
    """Parse the strict two-key verdict, tolerating surrounding prose.

    Extra keys are ignored. Labels "0"/"1" (strings) are coerced.
    """
    verdict, _ = _extract_json_with_flag(raw)
    return verdict


def _extract_json_with_flag(raw: str) -> tuple[Verdict, bool]:
    obj, salvaged = _salvage_json(raw)
    tagged = obj.get("tagged_sentence")
    if not isinstance(tagged, str):
        raise MissingKeyError("tagged_sentence missing or not a string")
    if "label" not in obj:
        raise MissingKeyError("label missing")
    return Verdict(tagged_sentence=tagged, label=_coerce_label(obj["label"])), salvaged


@dataclass
class RetrievalTrace:
    k_used: int
    event_ids: list[str]
    hybrid_scores: list[float]
    prompt_hash: str
    salvaged: bool = False
    retries: int = 0

    def as_dict(self) -> dict:
        return {
            "k_used": self.k_used,
            "event_ids": list(self.event_ids),
            "hybrid_scores": list(self.hybrid_scores),
            "prompt_hash": self.prompt_hash,
            "salvaged": self.salvaged,
            "retries": self.retries,
        }


def prompt_hash(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def classify(
    sentence: str,
    store: GraphStore,
    provider: EmbeddingProvider,
    client: LLMClient,
    cfg: HybridConfig | None = None,
    rules: list[str] | None = None,
    max_prompt_tokens: int | None = None,
    budgeter: RateBudgeter | None = None,
    retry_sleeper: Callable[[float], None] = time.sleep,
) -> tuple[Verdict, RetrievalTrace]:
    """Full per-sentence pipeline; read-only with respect to the store."""
    results = query(store, provider.embed(sentence), cfg or HybridConfig())
    verdict, kept, prompt, salvaged, retries = classify_pieces(
        len(results), prompt_pieces(sentence, results, rules), client,
        max_prompt_tokens, budgeter, retry_sleeper,
    )
    used = results[:kept]  # a budget drops a suffix
    trace = RetrievalTrace(
        k_used=kept,
        event_ids=[r.event_id for r in used],
        hybrid_scores=[r.hybrid_score for r in used],
        prompt_hash=prompt_hash(prompt),
        salvaged=salvaged,
        retries=retries,
    )
    return verdict, trace


def prompt_pieces(
    sentence: str, results: list[RetrievalResult], rules: list[str] | None = None
) -> PromptPieces:
    """The rendered pieces of ``sentence``'s prompt, with ``results``, in
    rank order, as its few-shot examples. A prefix of a deeper ranking is
    exactly a shallower query's results, and an example depends only on its
    result and rank, so a sweep renders one deep ranking's pieces."""
    examples = to_fewshot_examples(results)
    return render_pieces(
        PromptSpec(sentence, examples, rules if rules is not None else default_rules())
    )


def classify_pieces(
    n: int,
    pieces: PromptPieces,
    client: LLMClient,
    max_prompt_tokens: int | None,
    budgeter: RateBudgeter | None,
    retry_sleeper: Callable[[float], None] = time.sleep,
) -> tuple[Verdict, int, str, bool, int]:
    """The verdict on a prompt of the first ``n`` examples of ``pieces``,
    fewer if the budget drops some. Returns the verdict, the examples kept,
    the prompt sent, the salvage flag and the transport retries."""
    kept = n
    if max_prompt_tokens is not None:
        kept = pieces.fit(kept, max_prompt_tokens)
    prompt = pieces.prompt(kept)

    retries = 0
    while True:
        if budgeter is not None:  # every attempt is a request
            budgeter.acquire(pieces.tokens(kept))
        try:
            raw = client.complete(prompt)
            break
        except TransportError:
            if retries >= MAX_TRANSPORT_RETRIES:
                raise
            retry_sleeper(RETRY_BACKOFF_SECONDS * 2**retries)
            retries += 1
        except CausewayError:
            raise
        except Exception as exc:  # a library client's own fault, a failed request not retried
            raise TransportError(f"LLM request failed: {type(exc).__name__}: {exc}") from exc
    if not isinstance(raw, str):  # any client's reply, checked once and not retried
        raise TransportError(
            f"LLM request failed: reply content must be a string, not {type(raw).__name__}"
        )

    verdict, salvaged = _extract_json_with_flag(raw)
    return verdict, kept, prompt, salvaged, retries


@dataclass
class TaggingReport:
    ok: bool
    parse_ok: bool
    round_trip_ok: bool
    label_consistent: bool
    span_kinds: tuple[str, ...] = ()
    detail: str | None = None


def self_evaluate_tagging(verdict: Verdict, original_sentence: str) -> TaggingReport:
    """Check the model's own tagging: parses, strips back, label-consistent.

    All findings land in the report; nothing raises.
    """
    parse_ok = True
    spans = []
    detail = None
    try:
        parsed = parse_tagged_sentence(verdict.tagged_sentence, "self-eval")
        spans = parsed.spans
        stripped = parsed.raw_text
    except Exception as exc:
        parse_ok = False
        detail = str(exc)
        stripped = strip_tags(verdict.tagged_sentence)

    round_trip_ok = normalize_ws(stripped) == normalize_ws(original_sentence)
    if not round_trip_ok and detail is None:
        detail = (
            f"stripped text {normalize_ws(stripped)!r} != "
            f"original {normalize_ws(original_sentence)!r}"
        )

    kinds = tuple(sorted({span.kind.value for span in spans}))
    label_consistent = True
    if verdict.label == 1 and not any(k in ("Cause", "Effect") for k in kinds):
        label_consistent = False
        if detail is None:
            detail = "label 1 but no cause or effect span"

    return TaggingReport(
        ok=parse_ok and round_trip_ok and label_consistent,
        parse_ok=parse_ok,
        round_trip_ok=round_trip_ok,
        label_consistent=label_consistent,
        span_kinds=kinds,
        detail=detail,
    )


def emit_graph_if_causal(
    verdict: Verdict, sentence_id: str = "query"
) -> str | None:
    """DOT text for label-1 verdicts; None for label 0.

    Unparseable tagging degrades to a single untagged event node.
    """
    if verdict.label != 1:
        return None
    try:
        parsed = parse_tagged_sentence(verdict.tagged_sentence, sentence_id)
        fragment = build_causal_fragment(parsed)
        return render_dot(fragment.nodes, fragment.edges, name="verdict")
    except Exception as exc:
        logger.warning("tagged sentence unparseable (%s); emitting bare event", exc)
        node = Node(
            f"event:{sentence_id}",
            NodeKind.EVENT,
            text=strip_tags(verdict.tagged_sentence),
        )
        return render_dot([node], [], name="verdict", comment="tagging unparseable")
