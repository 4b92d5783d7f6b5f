from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causeway.cli import Config, main
from causeway.embedding import HttpEmbeddingProvider, batch_embed, clean_embeddings, mock_provider
from causeway.errors import CausewayError
from causeway.store import EMBEDDING_DIM, GraphStore, Node

from helpers import count_dot_statements, write_v1_snapshot


CORPUS = (
    '{"id": "a", "tagged_text": "<cause>heavy rain</cause> <trigger>led to</trigger> <effect>flooding</effect>", "gold_label": 1}\n'
    '{"id": "b", "tagged_text": "markets were calm all day", "gold_label": 0}\n'
    '{"id": "c", "tagged_text": "<cause>the strike</cause> <trigger>caused</trigger> <effect>delays</effect>", "gold_label": 1}\n'
    '{"id": "d", "tagged_text": "<cause>unclosed", "gold_label": 1}\n'
)

TESTSET = (
    '{"id": "t1", "text": "traffic stalled because the strike caused chaos", "gold_label": 1}\n'
    '{"id": "t2", "text": "a quiet afternoon in the park", "gold_label": 0}\n'
)


@pytest.fixture
def workspace(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(CORPUS, encoding="utf-8")
    testset = tmp_path / "test.jsonl"
    testset.write_text(TESTSET, encoding="utf-8")
    store = tmp_path / "graph.json"
    return {"corpus": corpus, "testset": testset, "store": store, "dir": tmp_path}


def run(args, workspace):
    return main(["--store", str(workspace["store"]), *args])


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "causeway" in capsys.readouterr().out


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_snapshot_is_operational_error(workspace, capsys):
    assert run(["stats"], workspace) == 1
    assert "ingest" in capsys.readouterr().err


def test_ingest_then_stats_consistency(workspace, capsys):
    assert run(["ingest", "--corpus", str(workspace["corpus"]), "--format", "json"], workspace) == 0
    ingest_doc = json.loads(capsys.readouterr().out)
    assert ingest_doc["ingested"] == 3
    assert [s[0] for s in ingest_doc["skipped"]] == ["d"]

    assert run(["stats", "--format", "json"], workspace) == 0
    stats_doc = json.loads(capsys.readouterr().out)
    # cross-command consistency: ingest report equals store statistics
    assert stats_doc["nodes"] == ingest_doc["nodes"]
    assert stats_doc["edges"] == ingest_doc["edges"]
    assert stats_doc["total_edges"] == ingest_doc["total_edges"]


def test_embed_then_retrieve_flow(workspace, capsys):
    run(["ingest", "--corpus", str(workspace["corpus"])], workspace)
    capsys.readouterr()

    assert run(["embed", "--batch-size", "2", "--provider", "mock", "--format", "json"], workspace) == 0
    embed_doc = json.loads(capsys.readouterr().out)
    assert embed_doc["verify"]["ok"] is True
    assert embed_doc["embed"]["batches_issued"] >= 1

    assert (
        run(
            [
                "retrieve",
                "--query",
                "heavy rain led to flooding",
                "--tau",
                "0.2",
                "--top-k",
                "2",
                "--format",
                "json",
            ],
            workspace,
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"], "self-similar event should clear the threshold"
    top = doc["results"][0]
    assert top["event_id"] == "event:a"
    assert top["hybrid_score"] == pytest.approx(1.0, abs=1e-9)
    # Listing-style column set
    assert set(top) == {
        "text",
        "event_id",
        "hybrid_score",
        "embedding_similarity",
        "structural_score",
        "effect_count",
        "cause_count",
        "trigger_count",
        "effect_texts",
        "cause_texts",
        "trigger_texts",
    }


def test_classify_writes_graph(workspace, capsys):
    run(["ingest", "--corpus", str(workspace["corpus"])], workspace)
    run(["embed", "--provider", "mock"], workspace)
    capsys.readouterr()
    out_dot = workspace["dir"] / "verdict.dot"
    assert (
        run(
            [
                "classify",
                "--sentence",
                "exports stalled because tariffs caused chaos",
                "--tau",
                "-1.0",
                "--emit-graph",
                str(out_dot),
            ],
            workspace,
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["label"] == 1
    assert doc["graph_written"] is True
    nodes, edges = count_dot_statements(out_dot.read_text(encoding="utf-8"))
    assert nodes >= 1
    assert doc["trace"]["k_used"] >= 1


def test_classify_xml_invalid_sentence_exits_one(workspace, capsys):
    run(["ingest", "--corpus", str(workspace["corpus"])], workspace)
    run(["embed"], workspace)
    capsys.readouterr()
    assert run(["classify", "--sentence", "bad \x01 sentence"], workspace) == 1
    assert "XML 1.0" in capsys.readouterr().err


def test_evaluate_writes_reports(workspace, capsys):
    run(["ingest", "--corpus", str(workspace["corpus"])], workspace)
    run(["embed", "--provider", "mock"], workspace)
    capsys.readouterr()
    out_md = workspace["dir"] / "report.md"
    assert (
        run(
            [
                "evaluate",
                "--test",
                str(workspace["testset"]),
                "--k",
                "1,2",
                "--tau",
                "-1.0",
                "--out",
                str(out_md),
            ],
            workspace,
        )
        == 0
    )
    md = out_md.read_text(encoding="utf-8")
    assert md.startswith("| Top K |")
    assert md == capsys.readouterr().out

    out_json = workspace["dir"] / "report.json"
    run(
        [
            "evaluate",
            "--test",
            str(workspace["testset"]),
            "--k",
            "1",
            "--tau",
            "-1.0",
            "--out",
            str(out_json),
        ],
        workspace,
    )
    payload = json.loads(out_json.read_text(encoding="utf-8"))
    assert payload[0]["k"] == 1
    assert payload[0]["model"] == "mock-trigger-lexicon"


def test_export_dot_and_cypher(workspace, capsys):
    run(["ingest", "--corpus", str(workspace["corpus"])], workspace)
    capsys.readouterr()

    assert run(["export", "--format", "dot"], workspace) == 0
    dot = capsys.readouterr().out
    nodes, edges = count_dot_statements(dot)
    assert nodes == 9 and edges == 6  # 3 events + 6 span nodes

    assert run(["export", "--format", "dot", "--event", "event:a"], workspace) == 0
    nodes, edges = count_dot_statements(capsys.readouterr().out)
    assert (nodes, edges) == (4, 3)

    assert run(["export", "--format", "cypher"], workspace) == 0
    cypher = capsys.readouterr().out
    assert cypher.count("CREATE (:") == 9
    assert cypher.count("CREATE (a)-[:") == 6


def test_config_file_and_flag_override(workspace, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "store_path": str(workspace["store"]),
                "provider": {"kind": "mock", "seed": 3},
                "hybrid": {"alpha": 0.6, "beta": 0.4, "tau": 0.5, "k": 2},
            }
        ),
        encoding="utf-8",
    )
    assert main(["--config", str(config), "ingest", "--corpus", str(workspace["corpus"])]) == 0
    capsys.readouterr()
    assert main(["--config", str(config), "embed", "--provider", "mock"]) == 0
    capsys.readouterr()
    # flag overrides the config tau: with tau 2.0 nothing can pass
    assert (
        main(
            [
                "--config",
                str(config),
                "retrieve",
                "--query",
                "anything",
                "--tau",
                "2.0",
                "--format",
                "json",
            ]
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"] == []


def test_invalid_config_rejected(tmp_path, capsys):
    # a snapshot that exists, so that only the config can make `stats` fail
    snapshot = tmp_path / "graph.json"
    GraphStore().save(snapshot)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"provider": {"kind": "mock", "seed": 3}}), encoding="utf-8")
    assert main(["--config", str(config), "--store", str(snapshot), "stats"]) == 0
    config.write_text(json.dumps({"hybrid": {"alpha": -1.0}}), encoding="utf-8")
    assert main(["--config", str(config), "stats"]) == 1
    config.write_text(json.dumps({"hybrid": {"gamma": 0.5}}), encoding="utf-8")
    assert main(["--config", str(config), "stats"]) == 1
    assert "gamma" in capsys.readouterr().err
    for raw in (
        5,
        [1],
        {"hybrid": 5},
        {"hybrid": {"alpha": "x"}},
        {"hybrid": {"tau": True}},
        {"hybrid": {"k": 2.5}},
        {"provider": []},
        {"client": "mock"},
        {"log_level": 5},
        {"store_path": None},
        {"rules_path": 5},
        {"provider": {"seed": [1]}},
        {"provider": {"seed": 2**64}},
        {"provider": {"kind": "http"}},
        {"provider": {"kind": "http", "endpoint": 5}},
        {"client": {"requests_per_minute": "x"}},
        {"client": {"tokens_per_minute": 0}},
        {"client": {"kind": "http", "endpoint": "http://localhost:1"}},
        {"hybrid": {"alpha": float("inf")}},
        # misspelt keys would silently fall back to defaults
        {"client": {"requests_per_mintue": 5}},
        {"provider": {"sed": 1}},
        {"stor_path": "x"},
    ):
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["--config", str(config), "--store", str(snapshot), "stats"]) == 1, raw
        assert capsys.readouterr().err.startswith("error: "), raw


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["mock", "http"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)
# provider/client/hybrid sections: known setting names with any JSON value
CONFIG_SECTIONS = st.dictionaries(
    st.sampled_from(["kind", "seed", "endpoint", "model", "api_key_env",
                     "requests_per_minute", "tokens_per_minute", "alpha", "beta", "tau",
                     "k"]),
    JSON_VALUES,
    max_size=5,
)
CONFIG_DOCUMENTS = JSON_VALUES | st.dictionaries(
    st.sampled_from(["store_path", "rules_path", "log_level", "provider", "client",
                     "hybrid"]),
    CONFIG_SECTIONS | JSON_VALUES,
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(document=CONFIG_DOCUMENTS)
def test_config_file_loads_or_raises_documented_error(tmp_path_factory, document):
    path = tmp_path_factory.getbasetemp() / "config-property.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    try:
        config = Config.from_file(path)
        config.validate()
        config.make_provider()
        config.make_client()
        config.make_budgeter()
    except (ValueError, CausewayError):
        pass


def test_evaluate_reports_when_every_sentence_fails(workspace, capsys):
    run(["ingest", "--corpus", str(workspace["corpus"])], workspace)
    run(["embed"], workspace)
    workspace["testset"].write_text(
        '{"id": "t1", "text": "a control \\u0001 character", "gold_label": 1}\n',
        encoding="utf-8",
    )
    out = workspace["dir"] / "report.json"
    args = ["evaluate", "--test", str(workspace["testset"]), "--k", "1,2", "--out", str(out)]
    assert run(args, workspace) == 0
    reports = json.loads(out.read_text(encoding="utf-8"))
    assert [r["degenerate"] for r in reports] == [["empty"], ["empty"]]
    assert [r["failures"][0][0] for r in reports] == ["t1", "t1"]


def test_overflowing_vector_provider_exits_three(workspace, monkeypatch, capsys):
    from causeway import embedding

    class HugeProvider(embedding.EmbeddingProvider):
        def embed_batch(self, texts):
            return [np.full(embedding.EMBEDDING_DIM, 1e308) for _ in texts]

    monkeypatch.setattr(embedding, "mock_provider", lambda seed=0: HugeProvider())
    run(["ingest", "--corpus", str(workspace["corpus"])], workspace)
    assert run(["embed"], workspace) == 3
    assert "finite norm" in capsys.readouterr().err


def test_malformed_snapshot_is_operational_error(workspace, capsys):
    workspace["store"].write_text(
        json.dumps({"format": "causeway-graph-snapshot", "version": 1}), encoding="utf-8"
    )
    assert run(["stats"], workspace) == 1
    assert "nodes" in capsys.readouterr().err


def test_non_object_eval_line_is_operational_error(workspace, capsys):
    run(["ingest", "--corpus", str(workspace["corpus"])], workspace)
    workspace["testset"].write_text("[1, 2]\n", encoding="utf-8")
    assert run(["evaluate", "--test", str(workspace["testset"])], workspace) == 1
    assert "line 1" in capsys.readouterr().err


def test_wrong_dimension_provider_exits_three(workspace, tmp_path, monkeypatch, capsys):
    import requests

    class Reply:
        def __init__(self, n):
            self.n = n

        def raise_for_status(self):
            pass

        def json(self):
            return {"data": [{"embedding": [0.1] * 3}] * self.n}

    class Session:
        def post(self, url, json=None, headers=None, timeout=None):
            return Reply(len(json["input"]))

    monkeypatch.setattr(requests, "Session", Session)
    run(["ingest", "--corpus", str(workspace["corpus"])], workspace)
    config = tmp_path / "config.json"
    provider = {"kind": "http", "endpoint": "http://embed.local"}
    config.write_text(json.dumps({"provider": provider}), encoding="utf-8")
    assert run(["--config", str(config), "embed"], workspace) == 3
    assert "shape" in capsys.readouterr().err


def test_zero_vector_provider_exits_three(workspace, monkeypatch, capsys):
    from causeway import embedding

    class ZeroProvider(embedding.EmbeddingProvider):
        def embed_batch(self, texts):
            return [np.zeros(embedding.EMBEDDING_DIM) for _ in texts]

    monkeypatch.setattr(embedding, "mock_provider", lambda seed=0: ZeroProvider())
    run(["ingest", "--corpus", str(workspace["corpus"])], workspace)
    assert run(["embed"], workspace) == 3
    assert "zero vector" in capsys.readouterr().err


# new ids whose nodes repeat texts among themselves: 9 nodes, 7 texts
MORE = (
    '{"id": "e", "tagged_text": "<cause>heavy rain</cause> <trigger>caused</trigger> <effect>delays</effect>", "gold_label": 1}\n'
    '{"id": "f", "tagged_text": "<cause>heavy rain</cause> <trigger>led to</trigger> <effect>delays</effect>", "gold_label": 1}\n'
    '{"id": "g", "tagged_text": "a quiet day", "gold_label": 0}\n'
)


def snapshot_pair(path) -> tuple[bytes, bytes]:
    """The snapshot JSON's bytes and those of the vector file it names."""
    sidecar = json.loads(path.read_text(encoding="utf-8"))["vectors"]["file"]
    return path.read_bytes(), path.with_name(sidecar).read_bytes()


def clean_and_embed(store_path, provider, out) -> tuple[bytes, bytes]:
    """The snapshot a full clean + embed of ``store_path`` gives, saved at ``out``."""
    store = GraphStore.load(store_path)
    clean_embeddings(store)
    batch_embed(store, provider)
    out.parent.mkdir()
    store.save(out)
    return snapshot_pair(out)


def embed_json(workspace, capsys, *config) -> dict:
    assert run([*config, "embed", "--format", "json"], workspace) == 0
    return json.loads(capsys.readouterr().out)


def test_embed_after_ingest_embeds_only_the_new_nodes(workspace, tmp_path, capsys):
    more = tmp_path / "more.jsonl"
    more.write_text(MORE, encoding="utf-8")
    run(["ingest", "--corpus", str(workspace["corpus"])], workspace)
    capsys.readouterr()
    assert run(["embed"], workspace) == 0
    assert capsys.readouterr().out.startswith(
        "cleared 0, embedded 9 node(s) from 9 text(s) in 1 batch(es) via mock-hash-0"
    )
    run(["ingest", "--corpus", str(more)], workspace)
    capsys.readouterr()
    want = clean_and_embed(workspace["store"], mock_provider(0), tmp_path / "want" / "graph.json")
    doc = embed_json(workspace, capsys)
    assert doc["cleared"] == 0  # the vectors the same provider made are kept
    assert doc["embed"]["total_embedded"] == 9 and doc["embed"]["texts_sent"] == 7
    assert doc["verify"]["ok"] is True
    assert snapshot_pair(workspace["store"]) == want
    assert embed_json(workspace, capsys)["embed"]["total_embedded"] == 0


class Reply:
    def __init__(self, payload):
        self.payload = payload

    def raise_for_status(self):
        pass

    def json(self):
        return self.payload


class MockVectorSession:
    """An embeddings endpoint that serves the seed-7 mock's vectors."""

    def post(self, url, json=None, headers=None, timeout=None):
        vectors = mock_provider(7).embed_batch(json["input"])
        return Reply({"data": [{"embedding": v.tolist()} for v in vectors]})


def drop_provider_record(path) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["vectors"]["provider"]  # as written before the identity was recorded
    path.write_text(json.dumps(doc), encoding="utf-8")


def write_vector_directly(path) -> None:
    store = GraphStore.load(path)
    node = store.get_node("event:a")
    store.upsert_node(Node(node.id, node.kind, node.text, embedding=node.embedding.copy()))
    store.save(path)


@pytest.mark.parametrize(
    "case", ["other-seed", "http", "v1", "v2-without-provider", "vector-upserted"]
)
def test_embed_cleans_when_the_vectors_provider_is_not_known_to_be_this_one(
    workspace, tmp_path, monkeypatch, capsys, case
):
    import requests

    more = tmp_path / "more.jsonl"
    more.write_text(MORE, encoding="utf-8")
    for corpus in (workspace["corpus"], more):
        run(["ingest", "--corpus", str(corpus)], workspace)
    run(["embed"], workspace)
    capsys.readouterr()
    path, config, provider = workspace["store"], [], mock_provider(0)
    if case in ("other-seed", "http"):
        if case == "other-seed":
            settings, provider = {"kind": "mock", "seed": 1}, mock_provider(1)
        else:
            monkeypatch.setattr(requests, "Session", MockVectorSession)
            settings = {"kind": "http", "endpoint": "http://embed.local"}
            provider = HttpEmbeddingProvider("http://embed.local", session=MockVectorSession())
        (tmp_path / "config.json").write_text(json.dumps({"provider": settings}), encoding="utf-8")
        config = ["--config", str(tmp_path / "config.json")]
    elif case == "v1":
        write_v1_snapshot(GraphStore.load(path), path)
    elif case == "v2-without-provider":
        drop_provider_record(path)
    else:
        write_vector_directly(path)
    assert GraphStore.load(path).embedded_by != provider.identity
    want = clean_and_embed(path, provider, tmp_path / "want" / "graph.json")
    doc = embed_json(workspace, capsys, *config)
    assert doc["cleared"] == 18  # every node with text
    assert doc["embed"]["total_embedded"] == 18 and doc["verify"]["ok"] is True
    assert snapshot_pair(path) == want
    assert GraphStore.load(path).embedded_by == provider.identity


BAD_VECTORS = {
    "zero": np.zeros(EMBEDDING_DIM),
    "nan": np.full(EMBEDDING_DIM, np.nan),
    "huge": np.full(EMBEDDING_DIM, 1e200),
}


@pytest.mark.parametrize("command", [["retrieve", "--query"], ["classify", "--sentence"]],
                         ids=["retrieve", "classify"])
@pytest.mark.parametrize("bad", sorted(BAD_VECTORS))
def test_bad_query_vector_provider_exits_three(workspace, monkeypatch, capsys, command, bad):
    from causeway import embedding

    class BadProvider(embedding.EmbeddingProvider):
        def embed_batch(self, texts):
            return [BAD_VECTORS[bad].copy() for _ in texts]

    run(["ingest", "--corpus", str(workspace["corpus"])], workspace)
    run(["embed"], workspace)
    capsys.readouterr()
    monkeypatch.setattr(embedding, "mock_provider", lambda seed=0: BadProvider())
    assert run([*command, "heavy rain led to flooding"], workspace) == 3
    assert capsys.readouterr().err.startswith("error: provider returned")


def test_http_settings_left_out_take_the_constructor_defaults(monkeypatch):
    from causeway import embedding, inference

    provider = {"kind": "http", "endpoint": "http://embed.local"}
    client = {"kind": "http", "endpoint": "http://llm.local", "model": "m"}
    made = Config(provider=provider, client=client)
    assert made.make_provider().model == "all-MiniLM-L6-v2"
    assert made.make_provider().api_key_env == "CAUSEWAY_EMBED_API_KEY"
    assert made.make_client().api_key_env == "CAUSEWAY_LLM_API_KEY"
    # the factories pass on only the settings the config holds
    monkeypatch.setattr(embedding, "HttpEmbeddingProvider", lambda **kw: kw)
    monkeypatch.setattr(inference, "HttpLLMClient", lambda **kw: kw)
    assert made.make_provider() == {"endpoint": "http://embed.local"}
    assert made.make_client() == {"endpoint": "http://llm.local", "model": "m"}


DEEP_JSON = "[" * 100_000 + "]" * 100_000


def test_deeply_nested_json_is_an_operational_error(workspace, capsys):
    workspace["store"].write_text(DEEP_JSON, encoding="utf-8")
    assert run(["stats"], workspace) == 1
    workspace["store"].unlink()
    config = workspace["dir"] / "config.json"
    config.write_text(DEEP_JSON, encoding="utf-8")
    assert run(["--config", str(config), "stats"], workspace) == 1
    capsys.readouterr()
    workspace["corpus"].write_text(DEEP_JSON + "\n", encoding="utf-8")
    assert run(["ingest", "--corpus", str(workspace["corpus"]), "--format", "json"],
               workspace) == 0
    assert json.loads(capsys.readouterr().out)["skipped"] == [["line-1", "missing tagged_text"]]
    workspace["testset"].write_text(DEEP_JSON + "\n", encoding="utf-8")
    assert run(["evaluate", "--test", str(workspace["testset"])], workspace) == 1
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("record", [{"text": 5}, {"text": None}, {"tagged_text": ["x"]}])
def test_non_string_eval_text_is_operational_error(workspace, capsys, record):
    run(["ingest", "--corpus", str(workspace["corpus"])], workspace)
    workspace["testset"].write_text(
        json.dumps({"id": "t1", "gold_label": 1, **record}) + "\n", encoding="utf-8"
    )
    capsys.readouterr()
    assert run(["evaluate", "--test", str(workspace["testset"])], workspace) == 1
    assert "t1" in capsys.readouterr().err


def test_json_mode_emits_single_document(workspace, capsys):
    run(["ingest", "--corpus", str(workspace["corpus"]), "--format", "json"], workspace)
    out = capsys.readouterr().out
    json.loads(out)  # exactly one document, no trailing junk
