from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causeway import cli
from causeway.cli import Config, main
from causeway.annotation import ingest_corpus, iter_jsonl_records
from causeway.embedding import (
    HttpEmbeddingProvider,
    batch_embed,
    clean_embeddings,
    mock_provider,
    verify,
)
from causeway.errors import CausewayError
from causeway.evaluation import load_eval_dataset, reports_to_json, sweep
from causeway.inference import MockLLMClient
from causeway.prompting import PromptSpec, build_prompt, default_rules, estimate_tokens
from causeway.retrieval import HybridConfig
from causeway.store import EMBEDDING_DIM, GraphStore, Node

from helpers import count_dot_statements, read_snapshot, write_snapshot


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


def test_main_reuses_one_parser_and_each_call_parses_as_a_fresh_one(monkeypatch, tmp_path):
    seen = []
    commands = {name: lambda config, args: seen.append(args) or 0 for name in cli._COMMANDS}
    monkeypatch.setattr(cli, "_COMMANDS", commands)
    argvs = [
        ["stats", "--format", "json"],
        ["retrieve", "--query", "rain", "--top-k", "3", "--alpha", "0.5"],
        ["stats"],
        ["--store", str(tmp_path / "g.json"), "embed", "--batch-size", "7"],
        ["retrieve", "--query", "sun"],
        ["embed"],
    ]
    for argv in argvs:
        assert main(argv) == 0
    assert [vars(args) for args in seen] == [
        vars(cli.build_parser().parse_args(argv)) for argv in argvs
    ]
    assert cli._parser() is cli._parser()


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2


def test_embed_takes_its_provider_from_the_config_alone(workspace, capsys):
    run(["ingest", "--corpus", str(workspace["corpus"])], workspace)
    capsys.readouterr()
    assert run(["embed", "--provider", "mock"], workspace) == 2
    assert "unrecognized arguments: --provider mock" in capsys.readouterr().err
    assert GraphStore.load(workspace["store"]).stats().total_embedded == 0


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

    assert run(["embed", "--batch-size", "2", "--format", "json"], workspace) == 0
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


def test_the_embedding_lifecycle_and_the_commands_build_no_node_per_stored_node(
    workspace, monkeypatch, capsys
):
    def refused(*_args, **_kwargs):
        raise AssertionError("GraphStore.nodes called")

    monkeypatch.setattr(GraphStore, "nodes", refused)
    store = GraphStore()
    ingest_corpus(iter_jsonl_records(workspace["corpus"]), store)
    embedded = batch_embed(store, mock_provider()).total_embedded
    assert verify(store).ok and embedded == store.stats().total_embedded == 9
    assert clean_embeddings(store) == 9 and store.stats().total_embedded == 0
    assert run(["ingest", "--corpus", str(workspace["corpus"])], workspace) == 0
    capsys.readouterr()
    assert run(["embed", "--format", "json"], workspace) == 0
    assert json.loads(capsys.readouterr().out)["verify"]["ok"] is True
    for command in (
        ["stats", "--format", "json"],
        ["retrieve", "--query", "heavy rain led to flooding", "--format", "json"],
        ["classify", "--sentence", "the strike caused delays"],
        ["ingest", "--corpus", str(workspace["corpus"])],
        ["embed"],
        ["evaluate", "--test", str(workspace["testset"])],
    ):
        assert run(command, workspace) == 0, command
    out = capsys.readouterr().out
    assert '"event:a"' in out and '"total_nodes": 9' in out


def test_classify_writes_graph(workspace, capsys):
    run(["ingest", "--corpus", str(workspace["corpus"])], workspace)
    run(["embed"], workspace)
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
    run(["embed"], workspace)
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


@pytest.mark.parametrize("value", ["", ",", " , ", "5,x", "x", "1.5"])
def test_a_malformed_k_list_is_a_usage_error_naming_the_flag(workspace, capsys, value):
    assert run(["evaluate", "--test", str(workspace["testset"]), f"--k={value}"], workspace) == 2
    err = capsys.readouterr().err
    assert "argument --k: " in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-1,2"])
def test_a_k_below_one_is_refused_as_top_k_zero_is(workspace, capsys, value):
    run(["ingest", "--corpus", str(workspace["corpus"])], workspace)
    run(["embed"], workspace)
    capsys.readouterr()
    assert run(["evaluate", "--test", str(workspace["testset"]), f"--k={value}"], workspace) == 1
    assert run(["retrieve", "--query", "rain", "--top-k", "0"], workspace) == 1
    assert capsys.readouterr().err == "error: k must be >= 1\n" * 2


def evaluate_json(workspace, *extra) -> str:
    out = workspace["dir"] / "report.json"
    args = ["evaluate", "--test", str(workspace["testset"]), "--k", "1,2,3", "--tau", "-1.0",
            "--out", str(out), *extra]
    assert run(args, workspace) == 0
    return out.read_text(encoding="utf-8")


def test_evaluate_max_prompt_tokens_reports_what_a_library_sweep_at_that_budget_does(workspace):
    run(["ingest", "--corpus", str(workspace["corpus"])], workspace)
    run(["embed"], workspace)
    rules = default_rules()
    dataset = load_eval_dataset(workspace["testset"])
    zero_shot = estimate_tokens(build_prompt(PromptSpec(dataset[0].text, rules=rules)))
    store = GraphStore.load(workspace["store"])
    docs = []
    for budget in (zero_shot + 25, zero_shot + 200):
        want = sweep(dataset, [1, 2, 3], store, mock_provider(), MockLLMClient(),
                     cfg_base=HybridConfig(tau=-1.0), rules=rules, max_prompt_tokens=budget)
        docs.append(evaluate_json(workspace, "--max-prompt-tokens", str(budget)))
        assert docs[-1] == reports_to_json(want)
    assert docs[0] != docs[1]  # the tight budget drops an example a verdict needs
    # below the zero-shot prompt every sentence fails at every k
    reports = json.loads(evaluate_json(workspace, "--max-prompt-tokens", "5"))
    assert [r["failures"] for r in reports] == [
        [[record.id, "zero-shot prompt exceeds budget of 5 tokens"] for record in dataset]
    ] * 3
    assert run(["evaluate", "--test", str(workspace["testset"]), "--max-prompt-tokens", "0"],
               workspace) == 1


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
    assert main(["--config", str(config), "embed"]) == 0
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
        b'{"hybrid": {"alpha": 0.',  # cut short
        b"\xff{}",  # not UTF-8
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
        if isinstance(raw, bytes):
            config.write_bytes(raw)
        else:
            config.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["--config", str(config), "--store", str(snapshot), "stats"]) == 1, raw
        err = capsys.readouterr().err
        assert err.startswith("error: "), raw
        if isinstance(raw, bytes):
            assert err.startswith(f"error: {config}: config is not UTF-8 JSON: "), raw


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
    write_snapshot(
        workspace["store"], {"format": "causeway-graph-snapshot", "version": 4},
        np.empty((0, EMBEDDING_DIM)),
    )
    assert run(["stats"], workspace) == 1
    assert "nodes" in capsys.readouterr().err


# the smallest snapshots of versions 1 to 3: one event, its vector inline
# (version 1) or in a vector file beside the JSON, whose rows name their
# nodes (version 2) or whose row the node names (version 3)
ONE_ROW = [1.0] + [0.0] * (EMBEDDING_DIM - 1)
OLD_SNAPSHOTS = {
    1: {
        "format": "causeway-graph-snapshot", "version": 1, "embedding_dim": EMBEDDING_DIM,
        "nodes": [{"id": "event:a", "kind": "Event", "text": "rain", "embedding": ONE_ROW}],
        "edges": [],
    },
    2: {
        "format": "causeway-graph-snapshot", "version": 2, "embedding_dim": EMBEDDING_DIM,
        "vectors": {"file": ".graph.json.0123456789abcdef.npy", "dtype": "<f8",
                    "shape": [1, EMBEDDING_DIM], "rows": ["event:a"], "provider": "mock-hash-0"},
        "nodes": [{"id": "event:a", "kind": "Event", "text": "rain"}],
        "edges": [],
    },
    3: {
        "format": "causeway-graph-snapshot", "version": 3, "embedding_dim": EMBEDDING_DIM,
        "vectors": {"file": ".graph.json.0123456789abcdef.npy", "dtype": "<f8",
                    "shape": [1, EMBEDDING_DIM], "scoring": 1, "provider": "mock-hash-0"},
        "nodes": {"ids": ["event:a"], "kinds": ["Event"], "texts": ["rain"], "vector_row": [0]},
        "edges": {"src": [], "dst": [], "kind": []},
    },
}


@pytest.mark.parametrize("version", sorted(OLD_SNAPSHOTS))
def test_old_snapshot_is_refused_by_every_command_and_left_as_it_is(workspace, capsys, version):
    path = workspace["store"]
    path.write_text(json.dumps(OLD_SNAPSHOTS[version]), encoding="utf-8")
    if version >= 2:
        np.save(path.with_name(OLD_SNAPSHOTS[version]["vectors"]["file"]), np.array([ONE_ROW]))
    files = {p.name: p.read_bytes() for p in workspace["dir"].iterdir()}
    message = (
        f"{path}: snapshot version {version} is no longer read; move the file aside "
        "and run `ingest` and `embed` again"
    )
    with pytest.raises(ValueError) as info:
        GraphStore.load(path)
    assert type(info.value) is ValueError and str(info.value) == message
    for command in (["stats"], ["retrieve", "--query", "rain"], ["embed"],
                    ["ingest", "--corpus", str(workspace["corpus"])]):
        capsys.readouterr()
        assert run(command, workspace) == 1, command
        assert capsys.readouterr().err == f"error: {message}\n", command
        # neither overwritten by a new store nor deleted, nor a file added
        assert {p.name: p.read_bytes() for p in workspace["dir"].iterdir()} == files, command


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


def clean_and_embed(store_path, provider, out) -> bytes:
    """The snapshot a full clean + embed of ``store_path`` gives, saved at ``out``."""
    store = GraphStore.load(store_path)
    clean_embeddings(store)
    batch_embed(store, provider)
    out.parent.mkdir()
    store.save(out)
    return out.read_bytes()


def test_ingest_and_embed_leave_one_snapshot_file_of_the_same_bytes_each_run(workspace, tmp_path):
    again = dict(workspace, store=tmp_path / "again" / "graph.json")
    again["store"].parent.mkdir()
    for space in (workspace, again):
        before = {p.name for p in space["store"].parent.iterdir()}
        for command in (["ingest", "--corpus", str(workspace["corpus"])], ["embed"]):
            assert run(command, space) == 0
            # the snapshot alone is added: no vector file, no temporary file
            assert {p.name for p in space["store"].parent.iterdir()} == before | {"graph.json"}
    assert again["store"].read_bytes() == workspace["store"].read_bytes()
    doc, vectors = read_snapshot(workspace["store"])
    assert np.array_equal(np.load(workspace["store"]), vectors)
    assert doc["vectors"] == {"scoring": 3, "provider": "mock-hash-0"} and len(vectors) == 9


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
    # 7 distinct new texts, of which the store already held 4 (span texts)
    assert doc["embed"]["total_embedded"] == 9 and doc["embed"]["texts_sent"] == 3
    assert doc["verify"]["ok"] is True
    assert workspace["store"].read_bytes() == want
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


class NullContentSession:
    """A chat-completions endpoint whose reply has no message content."""

    def post(self, url, json=None, headers=None, timeout=None):
        return Reply({"choices": [{"message": {"content": None}}]})


def test_llm_reply_without_string_content_exits_three_and_fails_each_sentence(
    workspace, tmp_path, monkeypatch, capsys
):
    import requests

    from causeway import inference

    monkeypatch.setattr(requests, "Session", NullContentSession)
    monkeypatch.setattr(inference, "RETRY_BACKOFF_SECONDS", 0.0)
    run(["ingest", "--corpus", str(workspace["corpus"])], workspace)
    run(["embed"], workspace)
    settings = {"client": {"kind": "http", "endpoint": "http://llm.local", "model": "m"}}
    (tmp_path / "config.json").write_text(json.dumps(settings), encoding="utf-8")
    config = ["--config", str(tmp_path / "config.json")]
    capsys.readouterr()
    message = "LLM request failed: reply content must be a string, not NoneType"
    assert run([*config, "classify", "--sentence", "rain caused floods"], workspace) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    out = tmp_path / "report.json"
    args = ["evaluate", "--test", str(workspace["testset"]), "--k", "1", "--out", str(out)]
    assert run([*config, *args], workspace) == 0
    [report] = json.loads(out.read_text(encoding="utf-8"))
    assert report["failures"] == [["t1", message], ["t2", message]]


def test_a_client_exception_exits_three(workspace, monkeypatch, capsys):
    from causeway import inference

    def complete(self, prompt):
        raise RuntimeError("client bug")

    run(["ingest", "--corpus", str(workspace["corpus"])], workspace)
    run(["embed"], workspace)
    capsys.readouterr()
    monkeypatch.setattr(inference.MockLLMClient, "complete", complete)
    assert run(["classify", "--sentence", "rain caused floods"], workspace) == 3
    assert capsys.readouterr().err == "error: LLM request failed: RuntimeError: client bug\n"


def write_vector_directly(path) -> None:
    store = GraphStore.load(path)
    node = store.get_node("event:a")
    store.upsert_node(Node(node.id, node.kind, node.text, embedding=node.embedding.copy()))
    store.save(path)


@pytest.mark.parametrize("case", ["other-seed", "http", "vector-upserted"])
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
    else:
        write_vector_directly(path)
    assert GraphStore.load(path).embedded_by != provider.identity
    want = clean_and_embed(path, provider, tmp_path / "want" / "graph.json")
    doc = embed_json(workspace, capsys, *config)
    assert doc["cleared"] == 18  # every node with text
    assert doc["embed"]["total_embedded"] == 18 and doc["verify"]["ok"] is True
    assert path.read_bytes() == want
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


def test_jsonl_lines_end_at_newline_and_a_bad_byte_fails_only_its_line(workspace, capsys):
    corpus = workspace["corpus"]
    corpus.write_bytes(CORPUS.encode().replace(b"markets", b"mark\xffets"))
    assert run(["ingest", "--corpus", str(corpus), "--format", "json"], workspace) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ingested"] == 2 and doc["skipped"] == [["line-2", "missing tagged_text"],
                                                       ["d", "d: unclosed <cause>"]]
    run(["embed"], workspace)
    rows = [{"id": "t1", "text": "rain\x85fell and caused floods", "gold_label": 1}]
    workspace["testset"].write_text(json.dumps(rows[0], ensure_ascii=False) + "\n",
                                    encoding="utf-8")
    out = workspace["dir"] / "report.json"
    args = ["evaluate", "--test", str(workspace["testset"]), "--k", "1", "--out", str(out)]
    assert run(args, workspace) == 0
    [report] = json.loads(out.read_text(encoding="utf-8"))
    assert report["failures"] == [] and report["confusion"]["tp"] + report["confusion"]["fn"] == 1


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
