"""The three benchmark workloads: one caller each, closed loop, no threads.

Each workload turns a seed into inputs once (``generate``), then repeats
passes. A pass starts from a fresh ``setup`` (timed as set-up) and makes
the same sequence of calls every time, each timed on its own and next to
the reference task; the harness checks between calls are not timed. Every check that fails counts as a
failed operation.

- ``sweep``: the paper's experiment, ``evaluation.sweep`` at k=5/10/15/20
  over an eval set (one call per sentence) against a 2k-event store held
  in memory. Nearly all of its time is ``retrieval.query``; there is no
  snapshot I/O.
- ``cli-session``: the interactive user's path, ``cli.main`` commands
  against a 500-event snapshot on disk. Every command pays
  ``GraphStore.load`` and the writes also pay ``GraphStore.save``.
- ``grow-and-query``: rounds of writes (``ingest_corpus`` of new records,
  then ``batch_embed`` of just the new nodes) beside reads (``embed`` plus
  ``query``) on a store growing from 1k to 2k events, so that a derived
  structure rebuilt after each write shows its cost.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from causeway import annotation, cli, embedding, evaluation, inference, retrieval
from causeway.store import GraphStore

import corpus
from oracle import Oracle, matches
from reference import Reference

K_VALUES = (5, 10, 15, 20)
PROVIDER_SEED = 0


@dataclass(frozen=True)
class Sizes:
    sweep_events: int = 2000
    sweep_sentences: int = 12
    cli_events: int = 500
    cli_retrieves: int = 2
    cli_classifies: int = 2
    cli_delta: int = 20
    # a five-example prompt is about 600 tokens and a zero-shot one about
    # 300, so this budget keeps two or three examples
    cli_max_prompt_tokens: int = 460
    grow_start: int = 1000
    grow_rounds: int = 10
    grow_batch: int = 100
    grow_reads: int = 5
    # a grow-and-query pass checks its first read in every fifth round
    # (rotating with the pass), as the oracle costs more than the read
    grow_oracle_every: int = 5


TINY = Sizes(sweep_events=60, sweep_sentences=3, cli_events=30, cli_retrieves=1,
             cli_classifies=1, cli_delta=4, grow_start=30, grow_rounds=2,
             grow_batch=5, grow_reads=2, grow_oracle_every=1)


class Ledger:
    """Operations and checks attempted and failed, and per-call timings.

    ``samples`` holds each kind of call's durations; ``pass_calls`` the
    durations of the current pass's calls in the order they were made, and
    ``pass_refs`` the mean time of the reference task run just before and
    just after each.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.pass_calls: list[float] = []
        self.pass_refs: list[float] = []
        self.reference = Reference()

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def call(self, kind: str, fn, *args, **kwargs):
        """Time one operation; a raised error is recorded as a failure."""
        self.attempted += 1
        ref_before = self.reference.seconds()
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the benchmark reports failures, it does not stop
            elapsed = perf_counter() - start
            self.failed += 1
            self.problems.append(f"{kind}: {type(exc).__name__}: {exc}")
            result = None
        else:
            elapsed = perf_counter() - start
            self.samples.setdefault(kind, []).append(elapsed)
        self.pass_calls.append(elapsed)
        self.pass_refs.append((ref_before + self.reference.seconds()) / 2)
        return result, elapsed


def build_store(records: list[dict]) -> GraphStore:
    """Ingest and run the full embedding lifecycle, as ``ingest``+``embed`` do."""
    store = GraphStore()
    annotation.ingest_corpus(records, store)
    embedding.clean_embeddings(store)
    embedding.rebuild_indexes(store)
    embedding.batch_embed(store, embedding.mock_provider(PROVIDER_SEED))
    return store


def ranked(results) -> list[tuple[str, float]]:
    return [(r.event_id, r.hybrid_score) for r in results]


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, ledger: Ledger):
        self.rng = random.Random(seed)
        self.sizes = sizes
        self.workdir = workdir
        self.ledger = ledger
        self.tracer = None  # set by the harness for traced passes
        self.generate()

    def new_trace(self) -> None:
        if self.tracer is not None:
            self.tracer.new_trace()

    def untraced(self):
        """Context in which harness checks call the program without spans."""
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def run_pass(self, state, index: int) -> None:
        """Run one pass, timing each call through the ledger."""
        raise NotImplementedError

    def sentences_per_pass(self) -> int:
        raise NotImplementedError


class Sweep(Workload):
    name = "sweep"

    def generate(self):
        s = self.sizes
        self.records, self.expected = corpus.corpus_records(self.rng, s.sweep_events, "c")
        # keyed by event node id, which ingest derives from the record id
        self.triggers = {f"event:{r['id']}": corpus.triggers_of(r) for r in self.records}
        self.dataset = corpus.eval_records(self.rng, s.sweep_sentences)
        self.first_reports: list[str] | None = None
        # per sentence: the oracle's ranking at the largest k, and the
        # (tp, fp, fn, tn) the mock client must give at each k
        self.oracle_top: list[list[tuple[str, float]]] = []
        self.want: list[dict[int, tuple[int, int, int, int]]] = []

    def setup(self):
        return build_store(self.records)

    def sentences_per_pass(self):
        return len(self.dataset)

    def expect(self, store, provider) -> None:
        """Work out each verdict from the oracle and the mock client's rule.

        The mock client labels a sentence 1 exactly when a trigger of one of
        its k examples occurs in it, case-insensitively; the examples are the
        top k of the ranking, and the triggers come from the tagged corpus.
        """
        oracle = Oracle(store)
        cfg = retrieval.HybridConfig(k=max(K_VALUES))
        for record in self.dataset:
            top = oracle.query(provider.embed(record.text), cfg)
            lowered, gold = record.text.lower(), record.gold_label == 1
            want = {}
            for k in K_VALUES:
                label = any(t.lower() in lowered for event_id, _ in top[:k]
                            for t in self.triggers[event_id])
                want[k] = (int(label and gold), int(label and not gold),
                           int(not label and gold), int(not label and not gold))
            self.oracle_top.append(top)
            self.want.append(want)

    def run_pass(self, store, index):
        # one sweep call per sentence: the same verdicts as one call over the
        # whole set, timed in pieces short enough for wall_s to take each at
        # its fastest
        provider = embedding.mock_provider(PROVIDER_SEED)
        client = inference.MockLLMClient()
        if not self.want:
            with self.untraced():
                self.expect(store, provider)
        docs, elapsed = [], 0.0
        for record, want in zip(self.dataset, self.want):
            reports, seconds = self.ledger.call("sweep", evaluation.sweep, [record], K_VALUES,
                                                store, provider, client)
            elapsed += seconds
            self.ledger.attempted += len(K_VALUES)
            if reports is None:
                self.ledger.failed += len(K_VALUES)
                continue
            docs.append(evaluation.reports_to_json(reports))
            for report in reports:
                c = report.confusion
                self.ledger.failed += len(report.failures)
                self.ledger.check(c.total == 1 - len(report.failures),
                                  f"sweep: {record.id} k={report.k} confusion total {c.total}")
                self.ledger.check((c.tp, c.fp, c.fn, c.tn) == want.get(report.k),
                                  f"sweep: {record.id} k={report.k} confusion {c} differs "
                                  f"from the oracle's {want.get(report.k)}")
        self.ledger.samples.setdefault("classify_rate", []).append(
            len(self.dataset) * len(K_VALUES) / elapsed)
        if self.first_reports is None:
            self.first_reports = docs
        self.ledger.check(docs == self.first_reports, "sweep: reports differ from pass 0")
        with self.untraced():
            self.ledger.check(store.stats().as_dict() == self.expected.stats_dict(),
                              "sweep: store counts differ from the corpus")
            i = index % len(self.dataset)
            text = self.dataset[i].text
            got = ranked(read(store, provider, text, retrieval.HybridConfig(k=max(K_VALUES))))
            self.ledger.check(matches(got, self.oracle_top[i]),
                              f"sweep: query for {text!r} differs from the oracle")


class CliSession(Workload):
    name = "cli-session"
    TOP_K = 10

    def generate(self):
        s = self.sizes
        self.records, self.expected = corpus.corpus_records(self.rng, s.cli_events, "c")
        self.queries = corpus.query_texts(self.rng, s.cli_retrieves)
        self.sentences = corpus.query_texts(self.rng, s.cli_classifies)
        delta, self.delta_expected = corpus.corpus_records(self.rng, s.cli_delta, "d")
        self.delta_path = self.workdir / "delta.jsonl"
        self.delta_path.write_text("".join(json.dumps(r) + "\n" for r in delta), encoding="utf-8")
        self.store_path = self.workdir / "graph.json"
        self.wanted: list[list[tuple[str, float]]] | None = None

    def setup(self):
        store = build_store(self.records)
        store.save(self.store_path)
        return store

    def sentences_per_pass(self):
        return len(self.queries) + len(self.sentences)

    def command(self, kind: str, *argv: str):
        self.new_trace()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code, _ = self.ledger.call(kind, cli.main, ["--store", str(self.store_path), *argv])
        self.ledger.check(code == 0, f"cli-session: {kind} exited {code}")
        return out.getvalue()

    def run_pass(self, store, index):
        if self.wanted is None:  # every set-up builds the same snapshot
            with self.untraced():
                oracle = Oracle(store)
                provider = embedding.mock_provider(PROVIDER_SEED)
                self.wanted = [oracle.query(provider.embed(text),
                                            retrieval.HybridConfig(k=self.TOP_K))
                               for text in self.queries]
        for text, want in zip(self.queries, self.wanted):
            out = self.command("retrieve", "retrieve", "--query", text,
                               "--top-k", str(self.TOP_K), "--format", "json")
            got = [(r.get("event_id"), r.get("hybrid_score"))
                   for r in _json(out).get("results", [])]
            self.ledger.check(matches(got, want),
                              f"cli-session: retrieve {text!r} differs from the oracle")
        for text in self.sentences:
            out = self.command("classify", "classify", "--sentence", text,
                               "--max-prompt-tokens", str(self.sizes.cli_max_prompt_tokens))
            self.ledger.check(_json(out).get("label") in (0, 1), "cli-session: classify label")
        out = self.command("stats", "stats", "--format", "json")
        self.ledger.check(_json(out) == self.expected.stats_dict(), "cli-session: stats counts")
        out = self.command("ingest", "ingest", "--corpus", str(self.delta_path),
                           "--format", "json")
        report = _json(out)
        self.ledger.check(report.get("ingested") == self.sizes.cli_delta
                          and report.get("skipped") == [], "cli-session: ingest report")
        out = self.command("embed", "embed", "--format", "json")
        self.ledger.check(_json(out).get("verify", {}).get("ok") is True, "cli-session: embed verify")

        with self.untraced():
            reloaded = GraphStore.load(self.store_path)
            after = self.expected + self.delta_expected
            self.ledger.check(reloaded.stats().as_dict() == after.stats_dict(),
                              "cli-session: reloaded snapshot counts")
            self.ledger.check(embedding.verify(reloaded).ok,
                              "cli-session: reloaded snapshot verify")


class GrowAndQuery(Workload):
    name = "grow-and-query"
    TOP_K = 10

    def generate(self):
        s = self.sizes
        self.records, self.expected = corpus.corpus_records(self.rng, s.grow_start, "c")
        self.deltas = [corpus.corpus_records(self.rng, s.grow_batch, f"g{r}-")
                       for r in range(s.grow_rounds)]
        self.reads = [corpus.query_texts(self.rng, s.grow_reads) for _ in range(s.grow_rounds)]

    def setup(self):
        return build_store(self.records)

    def sentences_per_pass(self):
        return self.sizes.grow_rounds * self.sizes.grow_reads

    def run_pass(self, store, index):
        provider = embedding.mock_provider(PROVIDER_SEED)
        cfg = retrieval.HybridConfig(k=self.TOP_K)
        expected = self.expected
        for r, ((records, delta), texts) in enumerate(zip(self.deltas, self.reads)):
            checked = (r + index) % self.sizes.grow_oracle_every == 0
            self.new_trace()
            report, _ = self.ledger.call("ingest", annotation.ingest_corpus, records, store)
            self.new_trace()
            embedded, _ = self.ledger.call("embed", embedding.batch_embed, store, provider)
            self.ledger.samples.setdefault("write_events", []).append(len(records))
            expected = expected + delta
            with self.untraced():
                self.ledger.check(report is not None and report.ingested == len(records)
                                  and not report.skipped, "grow-and-query: ingest report")
                self.ledger.check(embedded is not None and embedded.total_embedded == delta.nodes,
                                  "grow-and-query: batch_embed must embed exactly the new nodes")
                self.ledger.check(store.stats().as_dict() == expected.stats_dict(),
                                  "grow-and-query: store counts after the write")
                self.ledger.check(embedding.verify(store).ok,
                                  "grow-and-query: verify after the write")
            for j, text in enumerate(texts):
                self.new_trace()
                results, _ = self.ledger.call("retrieve", read, store, provider, text, cfg)
                if checked and j == 0:
                    with self.untraced():
                        want = Oracle(store).query(provider.embed(text), cfg)
                    self.ledger.check(results is not None and matches(ranked(results), want),
                                      f"grow-and-query: query for {text!r} differs from the oracle")


def read(store: GraphStore, provider, text: str, cfg) -> list:
    """One read as a library user makes it: embed the sentence, then query."""
    return retrieval.query(store, provider.embed(text), cfg)


def _json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return {}
    return doc if isinstance(doc, dict) else {}


WORKLOADS = {w.name: w for w in (Sweep, CliSession, GrowAndQuery)}
