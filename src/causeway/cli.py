"""Command-line entry point wiring the whole pipeline.

Subcommands: ingest, embed, stats, retrieve, classify, evaluate, export.
Exit codes: 0 ok, 1 operational error, 2 usage, 3 provider/transport.
Settings come from an optional JSON config file; flags override the file;
secrets come from environment variables only.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from dataclasses import dataclass, field
from pathlib import Path

from causeway import annotation, embedding, evaluation, export, inference, retrieval
from causeway.errors import CausewayError, ProviderFailureError, TransportError
from causeway.store import GraphStore

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_OPERATIONAL = 1
EXIT_USAGE = 2
EXIT_PROVIDER = 3

DEFAULT_STORE_PATH = "causeway-graph.json"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_STRING = (lambda v: isinstance(v, str), "a string")
_RATE = (lambda v: v is None or _is_int(v) and v > 0, "a positive integer or null")
_KIND = (lambda v: v in ("mock", "http"), "'mock' or 'http'")
_HYBRID = (lambda v: True, "")  # HybridConfig checks these values
# every setting each section may hold, and what it must be when present
_SETTINGS = {
    "provider": {
        "kind": _KIND,
        "seed": (lambda v: _is_int(v) and -(2**63) <= v < 2**63, "a 64-bit integer"),
        "endpoint": _STRING,
        "model": _STRING,
        "api_key_env": _STRING,
    },
    "client": {
        "kind": _KIND,
        "endpoint": _STRING,
        "model": _STRING,
        "api_key_env": _STRING,
        "requests_per_minute": _RATE,
        "tokens_per_minute": _RATE,
    },
    "hybrid": dict.fromkeys(("alpha", "beta", "tau", "k"), _HYBRID),
}
# settings an http provider or client cannot do without
_HTTP_REQUIRED = {"provider": ("endpoint",), "client": ("endpoint", "model")}


def _present(section: dict, *keys: str) -> dict:
    """``section``'s settings among ``keys``; constructors default the rest."""
    return {key: section[key] for key in keys if key in section}


@dataclass
class Config:
    store_path: str = DEFAULT_STORE_PATH
    provider: dict = field(default_factory=lambda: {"kind": "mock"})
    client: dict = field(default_factory=lambda: {"kind": "mock"})
    hybrid: dict = field(default_factory=dict)
    rules_path: str | None = None
    log_level: str = "WARNING"

    @classmethod
    def from_file(cls, path: str | Path) -> "Config":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except RecursionError as exc:
            raise ValueError(f"{path}: config JSON nests too deeply") from exc
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: config is not UTF-8 JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        cfg = cls()
        for key, value in raw.items():
            if key in _SETTINGS:
                if not isinstance(value, dict):
                    raise ValueError(f"{path}: config {key!r} must be an object")
                getattr(cfg, key).update(value)
            elif key in ("store_path", "rules_path", "log_level"):
                if not isinstance(value, str) and (key != "rules_path" or value is not None):
                    raise ValueError(f"{path}: config {key!r} must be a string")
                setattr(cfg, key, value)
            else:
                raise ValueError(f"{path}: unknown config key {key!r}")
        return cfg

    def hybrid_config(self, args) -> retrieval.HybridConfig:
        values = dict(self.hybrid)
        for key in ("alpha", "beta", "tau"):
            flag = getattr(args, key, None)
            if flag is not None:
                values[key] = flag
        top_k = getattr(args, "top_k", None)
        if top_k is not None:
            values["k"] = top_k
        return retrieval.HybridConfig(**values)

    def validate(self) -> None:
        for name, checks in _SETTINGS.items():
            section = getattr(self, name)
            for key, value in section.items():
                if key not in checks:
                    raise ValueError(f"unknown {name} setting {key!r}")
                ok, what = checks[key]
                if not ok(value):
                    raise ValueError(f"{name} {key!r} must be {what}, got {value!r}")
            if section.get("kind") == "http":
                self._require_http(name)
        retrieval.HybridConfig(**self.hybrid)

    def _require_http(self, name: str) -> None:
        missing = [key for key in _HTTP_REQUIRED[name] if key not in getattr(self, name)]
        if missing:
            raise ValueError(f"an http {name} needs {', '.join(map(repr, missing))}")

    def make_provider(self):
        if self.provider.get("kind", "mock") == "mock":
            return embedding.mock_provider(**_present(self.provider, "seed"))
        return embedding.HttpEmbeddingProvider(
            **_present(self.provider, "endpoint", "model", "api_key_env")
        )

    def make_client(self):
        if self.client.get("kind", "mock") == "mock":
            return inference.MockLLMClient()
        return inference.HttpLLMClient(
            **_present(self.client, "endpoint", "model", "api_key_env")
        )

    def make_budgeter(self) -> inference.RateBudgeter | None:
        rpm = self.client.get("requests_per_minute")
        tpm = self.client.get("tokens_per_minute")
        if rpm is None and tpm is None:
            return None
        return inference.RateBudgeter(requests_per_minute=rpm, tokens_per_minute=tpm)

    def load_rules(self) -> list[str] | None:
        if self.rules_path is None:
            return None
        from causeway.prompting import load_rules

        return load_rules(self.rules_path)


def _load_store(config: Config, must_exist: bool = True) -> GraphStore:
    path = Path(config.store_path)
    if path.exists():
        return GraphStore.load(path)
    if must_exist:
        raise CausewayError(f"no graph snapshot at {path}; run `ingest` first")
    return GraphStore()


def _emit(document: dict) -> None:
    print(json.dumps(document, indent=2, sort_keys=True))


def _add_weights(p: argparse.ArgumentParser) -> None:
    """--alpha/--beta/--tau, in place: a parent parser would list them first."""
    for flag in ("--alpha", "--beta", "--tau"):
        p.add_argument(flag, type=float)


def _k_values(text: str) -> list[int]:
    """``--k``: comma-separated integers, at least one; ``HybridConfig``
    refuses a k below 1."""
    try:
        values = [int(k) for k in text.split(",") if k.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("names no k")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causeway",
        description="Causal event graph: ingest, embed, retrieve, classify, evaluate.",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--store", help="graph snapshot path (overrides config)")
    parser.add_argument("--log-level", help="logging level (overrides config)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load a JSONL corpus into the graph")
    p.add_argument("--corpus", required=True)
    p.add_argument("--format", choices=["json", "text"], default="text")

    p = sub.add_parser("embed", help="embed every node that has text")
    p.add_argument("--batch-size", type=int, default=embedding.DEFAULT_BATCH_SIZE)
    p.add_argument("--format", choices=["json", "text"], default="text")

    p = sub.add_parser("stats", help="node/edge/embedded counts")
    p.add_argument("--format", choices=["json", "text"], default="text")

    p = sub.add_parser("retrieve", help="hybrid query for similar events")
    p.add_argument("--query", required=True)
    _add_weights(p)
    p.add_argument("--top-k", type=int)
    p.add_argument("--format", choices=["json", "table"], default="table")

    p = sub.add_parser("classify", help="classify one sentence via the LLM client")
    p.add_argument("--sentence", required=True)
    p.add_argument("--emit-graph", metavar="OUT.dot")
    _add_weights(p)
    p.add_argument("--top-k", type=int)
    p.add_argument("--max-prompt-tokens", type=int)

    p = sub.add_parser("evaluate", help="top-k sweep against gold labels")
    p.add_argument("--test", required=True, help="JSONL with gold_label")
    p.add_argument("--k", type=_k_values, default="5,10,15,20", help="comma-separated k values")
    p.add_argument("--out", help="report path (.json or .md)")
    _add_weights(p)
    p.add_argument("--max-prompt-tokens", type=int)

    p = sub.add_parser("export", help="emit DOT or Cypher text")
    p.add_argument("--format", choices=["dot", "cypher"], required=True)
    p.add_argument("--event", help="restrict DOT to one event subgraph")
    p.add_argument("--out", help="write to file instead of stdout")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: parsing leaves it
    as it was, and building it costs more than a parse."""
    return build_parser()


def _cmd_ingest(config: Config, args) -> int:
    store = _load_store(config, must_exist=False)
    report = annotation.ingest_corpus_file(args.corpus, store)
    store.save(config.store_path)
    if args.format == "json":
        _emit(report.as_dict())
    else:
        print(f"ingested {report.ingested} record(s), skipped {len(report.skipped)}")
        for kind, count in report.node_counts.items():
            print(f"  {kind.value}: {count}")
        print(f"  relationships: {report.total_edges}")
        for rec_id, reason in report.skipped:
            print(f"  skipped {rec_id}: {reason}")
    return EXIT_OK


def _cmd_embed(config: Config, args) -> int:
    store = _load_store(config)
    provider = config.make_provider()
    cleared = 0
    # vectors of another or an unknown provider are redone; this one's are kept
    if store.embedded_by != provider.identity:
        cleared = embedding.clean_embeddings(store)
    report = embedding.batch_embed(store, provider, batch_size=args.batch_size)
    verification = embedding.verify(store)
    store.save(config.store_path)
    if args.format == "json":
        _emit(
            {
                "cleared": cleared,
                "embed": report.as_dict(),
                "verify": verification.as_dict(),
            }
        )
    else:
        print(
            f"cleared {cleared}, embedded {report.total_embedded} node(s) "
            f"from {report.texts_sent} text(s) in {report.batches_issued} batch(es) "
            f"via {provider.name}"
        )
        for row in verification.rows:
            flag = "" if row.deficit == 0 else f"  (missing {row.deficit})"
            print(
                f"  {row.kind.value}: total={row.total} "
                f"with_text={row.with_text} embedded={row.embedded}{flag}"
            )
    return EXIT_OK


def _cmd_stats(config: Config, args) -> int:
    stats = _load_store(config).stats()
    if args.format == "json":
        _emit(stats.as_dict())
    else:
        for kind, count in stats.node_counts.items():
            embedded = stats.embedded_counts[kind]
            print(f"{kind.value}: {count} node(s), {embedded} embedded")
        for kind, count in stats.edge_counts.items():
            print(f"{kind.value}: {count} edge(s)")
        print(f"total: {stats.total_nodes} nodes, {stats.total_edges} edges")
    return EXIT_OK


def _cmd_retrieve(config: Config, args) -> int:
    store = _load_store(config)
    provider = config.make_provider()
    cfg = config.hybrid_config(args)
    results = retrieval.query(store, provider.embed(args.query), cfg)
    if args.format == "json":
        _emit({"query": args.query, "results": [r.as_dict() for r in results]})
    else:
        for r in results:
            print(
                f"{r.hybrid_score:.4f}  sim={r.embedding_similarity:.4f} "
                f"s={r.structural_score}  {r.event_id}  {r.event_text}"
            )
        if not results:
            print("(no events above threshold)")
    return EXIT_OK


def _cmd_classify(config: Config, args) -> int:
    store = _load_store(config)
    provider = config.make_provider()
    client = config.make_client()
    cfg = config.hybrid_config(args)
    verdict, trace = inference.classify(
        args.sentence,
        store,
        provider,
        client,
        cfg=cfg,
        rules=config.load_rules(),
        max_prompt_tokens=args.max_prompt_tokens,
        budgeter=config.make_budgeter(),
    )
    dot = inference.emit_graph_if_causal(verdict)
    if args.emit_graph and dot is not None:
        Path(args.emit_graph).write_text(dot, encoding="utf-8")
    _emit(
        {
            "label": verdict.label,
            "tagged_sentence": verdict.tagged_sentence,
            "trace": trace.as_dict(),
            "graph_written": bool(args.emit_graph and dot is not None),
        }
    )
    return EXIT_OK


def _cmd_evaluate(config: Config, args) -> int:
    store = _load_store(config)
    provider = config.make_provider()
    client = config.make_client()
    dataset = evaluation.load_eval_dataset(args.test)
    cfg = config.hybrid_config(args)
    reports = evaluation.sweep(
        dataset,
        args.k,
        store,
        provider,
        client,
        cfg_base=cfg,
        rules=config.load_rules(),
        max_prompt_tokens=args.max_prompt_tokens,
        budgeter=config.make_budgeter(),
    )
    if args.out:
        out = Path(args.out)
        if out.suffix == ".md":
            out.write_text(evaluation.reports_to_markdown(reports), encoding="utf-8")
        else:
            out.write_text(evaluation.reports_to_json(reports), encoding="utf-8")
    print(evaluation.reports_to_markdown(reports), end="")
    return EXIT_OK


def _cmd_export(config: Config, args) -> int:
    store = _load_store(config)
    if args.format == "dot":
        if args.event:
            text = export.event_subgraph_dot(store, args.event)
        else:
            text = export.store_to_dot(store)
    else:
        text = export.store_to_cypher(store)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "embed": _cmd_embed,
    "stats": _cmd_stats,
    "retrieve": _cmd_retrieve,
    "classify": _cmd_classify,
    "evaluate": _cmd_evaluate,
    "export": _cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)

    try:
        config = Config.from_file(args.config) if args.config else Config()
        if args.store:
            config.store_path = args.store
        if args.log_level:
            config.log_level = args.log_level
        logging.basicConfig(level=config.log_level.upper())
        config.validate()
        return _COMMANDS[args.command](config, args)
    except (ProviderFailureError, TransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except (CausewayError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL


if __name__ == "__main__":
    sys.exit(main())
