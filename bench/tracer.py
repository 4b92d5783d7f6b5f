"""Span tracer that wraps the public calls into each causeway module.

Nothing under ``src/`` is edited: ``install()`` replaces module and class
attributes with timing wrappers and ``uninstall()`` puts the originals
back. Callers that bind a function with a from-import (``inference``
imports ``query``, ``to_fewshot_examples``, ``build_prompt`` and
``token_budget_trim``; ``evaluation`` imports ``classify``) are patched
under that name too. Spans stay in memory until ``write()``.

A span's layer is the part of its name before the dot. Spans of one
sentence or command share a trace id: ``cli.main`` and a ``classify``
outside a CLI command start a new one, everything below inherits it, and
the harness calls ``new_trace()`` before each read or write it makes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
from collections import Counter
from time import perf_counter

from causeway import annotation, cli, embedding, evaluation, inference, prompting, retrieval
from causeway.store import GraphStore, NodeKind

LAYERS = ("annotation", "store", "embedding", "retrieval", "prompting",
          "inference", "evaluation", "cli")

# Below this many samples fewer than ten lie beyond the 95th percentile.
P95_MIN_SAMPLES = 200


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, trace, name, start, end, self_s, error)
        self.counts: Counter = Counter()
        self.values: dict[str, list[float]] = {}
        self.failure_classes: Counter = Counter()
        self._stack: list[list] = []  # [id, trace, name, start, child_s]
        self._next_id = 0
        self._next_trace = 0
        self._trace = 0
        self._saved: list[tuple[object, str, object]] = []

    # --- recording ---

    def new_trace(self) -> None:
        """Start the trace id that the next spans without a parent share."""
        self._next_trace += 1
        self._trace = self._next_trace

    def _push(self, name: str) -> list:
        self._next_id += 1
        if name == "cli.main" or (name == "inference.classify" and not self.in_span("cli.main")):
            self.new_trace()
            trace = self._trace
        else:
            trace = self._stack[-1][1] if self._stack else self._trace
        frame = [self._next_id, trace, name, perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _pop(self, frame: list, error: str | None = None) -> None:
        end = perf_counter()
        self._stack.pop()
        span_id, trace, name, start, child_s = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += duration
        self.spans.append((span_id, parent[0] if parent else None, trace, name,
                           start, end, duration - child_s, error))

    def _add(self, key: str, value: float) -> None:
        self.values.setdefault(key, []).append(value)

    def in_span(self, name: str) -> bool:
        return any(frame[2] == name for frame in self._stack)

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; ``after(result, args)`` runs outside all timings."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._push(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._pop(frame, type(exc).__name__)
                if name == "inference.classify":
                    tracer.failure_classes[type(exc).__name__] += 1
                raise
            tracer._pop(frame)
            if after is not None:
                start = perf_counter()
                after(result, args)
                if tracer._stack:  # keep the hook out of the caller's self time
                    tracer._stack[-1][4] += perf_counter() - start
            return result

        return wrapper

    def counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- patching ---

    def _patch(self, targets, wrapper) -> None:
        for owner, attr in targets:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        load = GraphStore.__dict__["load"].__func__
        self._patch([(GraphStore, "load")], classmethod(self.span("store.load", load)))
        self._patch([(GraphStore, "save")], self.span("store.save", GraphStore.save, self._after_save))
        for attr, key in (("upsert_node", "store.upsert_calls"),
                          ("add_edge", "store.add_edge_calls"),
                          ("neighbor_counts", "retrieval.scanned")):
            self._patch([(GraphStore, attr)], self.counter(key, getattr(GraphStore, attr)))

        self._patch([(annotation, "ingest_corpus")],
                    self.span("annotation.ingest", annotation.ingest_corpus, self._after_ingest))
        self._patch([(embedding, "batch_embed")],
                    self.span("embedding.batch_embed", embedding.batch_embed))
        self._patch([(embedding, "clean_embeddings")],
                    self.span("embedding.clean", embedding.clean_embeddings))
        self._patch([(embedding, "verify")], self.span("embedding.verify", embedding.verify))
        self._patch([(embedding.HashEmbeddingProvider, "embed_batch")],
                    self.span("embedding.provider", embedding.HashEmbeddingProvider.embed_batch,
                              self._after_provider))

        self._patch([(retrieval, "query"), (inference, "query")],
                    self.span("retrieval.query", retrieval.query, self._after_query))
        self._patch([(retrieval, "to_fewshot_examples"), (inference, "to_fewshot_examples")],
                    self.span("retrieval.fewshot", retrieval.to_fewshot_examples,
                              self._after_fewshot))

        self._patch([(prompting, "build_prompt"), (inference, "build_prompt")],
                    self.span("prompting.render", prompting.build_prompt))
        self._patch([(prompting, "token_budget_trim"), (inference, "token_budget_trim")],
                    self.span("prompting.trim", prompting.token_budget_trim, self._after_trim))

        self._patch([(inference.MockLLMClient, "complete")],
                    self.span("inference.client", inference.MockLLMClient.complete,
                              self._after_client))
        self._patch([(inference, "classify"), (evaluation, "classify")],
                    self.span("inference.classify", inference.classify, self._after_classify))
        self._patch([(evaluation, "sweep")],
                    self.span("evaluation.sweep", evaluation.sweep, self._after_sweep))
        self._patch([(cli, "main")], self.span("cli.main", cli.main, self._after_main))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    # --- hooks: counts taken where the work happens ---

    def _after_save(self, _result, args) -> None:
        store, path = args[0], args[1]
        events = len(store.nodes(NodeKind.EVENT))
        if events:
            self._add("store.snapshot_bytes_per_event", os.path.getsize(path) / events)

    def _after_ingest(self, report, _args) -> None:
        self.counts["annotation.skipped"] += len(report.skipped)

    def _after_provider(self, vectors, _args) -> None:
        if not self.in_span("embedding.batch_embed"):
            self.counts["embedding.query_texts"] += len(vectors)

    def _after_query(self, results, _args) -> None:
        self.counts["retrieval.results"] += len(results)

    def _after_fewshot(self, examples, _args) -> None:
        self.counts["retrieval.examples"] += len(examples)
        self.counts["retrieval.reconstruct_ok"] += sum(e.reconstruction_ok for e in examples)

    def _after_trim(self, trimmed, args) -> None:
        self.counts["prompting.examples_dropped"] += len(args[0].examples) - len(trimmed.examples)

    def _after_client(self, _raw, args) -> None:
        self._add("prompting.prompt_tokens", prompting.estimate_tokens(args[1]))

    def _after_classify(self, result, _args) -> None:
        trace = result[1]
        self.counts["inference.verdicts"] += 1
        self.counts["inference.salvaged"] += int(trace.salvaged)
        self.counts["inference.transport_retries"] += trace.retries

    def _after_sweep(self, reports, _args) -> None:
        self.counts["evaluation.verdicts"] += sum(r.confusion.total for r in reports)
        self.counts["evaluation.failures"] += sum(len(r.failures) for r in reports)

    def _after_main(self, code, _args) -> None:
        self.counts["cli.nonzero_exits"] += int(code != 0)

    # --- results ---

    def durations(self, name: str) -> list[float]:
        return [span[5] - span[4] for span in self.spans if span[3] == name]

    def layer_metrics(self, passes: int, sentences: int,
                      overhead_ref: float) -> dict[str, float | None]:
        """Every per-layer metric; None where the workload never made the call
        it is taken from (a p95 also needs ``P95_MIN_SAMPLES`` queries)."""
        def med(name, scale=1.0):
            values = self.durations(name)
            return statistics.median(values) * scale if values else None

        def ratio(a, b):
            return a / b if b else None

        def per_pass(key, span):  # a count taken by the hook of ``span``
            return ratio(c[key], passes) if self.durations(span) else None

        c = self.counts
        queries = len(self.durations("retrieval.query"))
        query_ms = sorted(d * 1000 for d in self.durations("retrieval.query"))
        verdicts = c["inference.verdicts"]
        tokens = self.values.get("prompting.prompt_tokens", [])
        snapshot = self.values.get("store.snapshot_bytes_per_event", [])
        classify_self = [s[6] for s in self.spans if s[3] == "inference.classify"]
        provider = self.durations("embedding.provider")
        metrics = {
            "store.load_s": med("store.load"),
            "store.save_s": med("store.save"),
            "store.snapshot_bytes_per_event": statistics.median(snapshot) if snapshot else None,
            "store.upsert_calls": ratio(c["store.upsert_calls"], passes),
            "store.add_edge_calls": ratio(c["store.add_edge_calls"], passes),
            "retrieval.query_p50_ms": statistics.median(query_ms) if query_ms else None,
            "retrieval.query_p95_ms": (statistics.quantiles(query_ms, n=20)[18]
                                       if queries >= P95_MIN_SAMPLES else None),
            "retrieval.queries_per_sentence": ratio(queries, sentences),
            "retrieval.scanned_per_query": ratio(c["retrieval.scanned"], queries),
            "retrieval.scanned_per_result": ratio(c["retrieval.scanned"], c["retrieval.results"]),
            "retrieval.results_per_query": ratio(c["retrieval.results"], queries),
            "retrieval.fewshot_ms": med("retrieval.fewshot", 1000),
            "retrieval.reconstruct_ok_ratio": ratio(c["retrieval.reconstruct_ok"],
                                                    c["retrieval.examples"]),
            "embedding.provider_s": (sum(provider) / passes if provider else None),
            "embedding.texts_per_sentence": ratio(c["embedding.query_texts"], sentences),
            "embedding.batch_embed_s": med("embedding.batch_embed"),
            "embedding.clean_s": med("embedding.clean"),
            "embedding.verify_s": med("embedding.verify"),
            "annotation.ingest_s": med("annotation.ingest"),
            "annotation.skipped": per_pass("annotation.skipped", "annotation.ingest"),
            "prompting.render_ms": med("prompting.render", 1000),
            "prompting.renders_per_verdict": ratio(len(self.durations("prompting.render")),
                                                   verdicts),
            "prompting.prompt_tokens_p50": statistics.median(tokens) if tokens else None,
            "prompting.examples_dropped": per_pass("prompting.examples_dropped",
                                                   "prompting.trim"),
            "inference.client_ms": med("inference.client", 1000),
            "inference.classify_self_ms": (1000 * statistics.median(classify_self)
                                           if classify_self else None),
            "inference.salvaged": per_pass("inference.salvaged", "inference.classify"),
            "inference.transport_retries": per_pass("inference.transport_retries",
                                                    "inference.classify"),
            "evaluation.sweep_s": med("evaluation.sweep"),
            "evaluation.verdicts": per_pass("evaluation.verdicts", "evaluation.sweep"),
            "evaluation.failures": per_pass("evaluation.failures", "evaluation.sweep"),
            "cli.main_ms": med("cli.main", 1000),
            "cli.nonzero_exits": per_pass("cli.nonzero_exits", "cli.main"),
        }
        self_s = Counter()
        for span in self.spans:
            self_s[span[3].split(".")[0]] += span[6]
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self_s[layer] / passes if layer in self_s else None
        metrics["bench.trace_overhead_ref"] = overhead_ref
        return metrics

    def summary(self) -> dict:
        """Sample counts behind the percentiles and failures by error class."""
        return {
            "retrieval.query_samples": len(self.durations("retrieval.query")),
            "retrieval.query_p95_reported": len(self.durations("retrieval.query"))
            >= P95_MIN_SAMPLES,
            "failures_by_class": dict(self.failure_classes),
            "spans": len(self.spans),
        }

    def write(self, path: str) -> None:
        keys = ("id", "parent", "trace", "name", "start", "end", "self_s", "error")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")
