"""Smoke test of the benchmark harness at tiny sizes (a few seconds).

    python3 -m pytest bench/test_smoke.py -q

Fails fast when a change breaks a workload, a correctness check, the
tracer's patching, or the result line's shape.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import corpus  # noqa: E402
import run  # noqa: E402
from oracle import Oracle, matches  # noqa: E402
from workloads import TINY, build_store, ranked  # noqa: E402

from causeway import embedding, inference, retrieval  # noqa: E402

BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_its_checks_and_reports_every_metric(workload, trace):
    out = run.run(workload, seed=7, seconds=0.2, trace=trace, sizes=TINY)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0, out["report"]["problems"]
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[section]}
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    for name in run.WORKLOAD_METRICS[workload]:
        assert name in out["report"]["end_to_end"]


def test_sweep_fails_when_a_verdict_differs_from_the_oracle(monkeypatch):
    complete = inference.MockLLMClient.complete

    def flipped(self, prompt):
        verdict = json.loads(complete(self, prompt))
        return json.dumps({**verdict, "label": 1 - verdict["label"]})

    monkeypatch.setattr(inference.MockLLMClient, "complete", flipped)
    result = run.run("sweep", seed=7, seconds=0.2, trace=False, sizes=TINY)["result"]
    assert not result["correct"] and result["failed"] > 0


def test_wall_ref_cancels_a_slower_host_and_follows_a_slower_program():
    calls, refs = [[0.2, 0.5], [0.3, 0.4], [0.25, 0.45]], [[0.002, 0.002]] * 3
    base = run.pass_in_refs(calls, refs)
    slow_host = run.pass_in_refs([[1.5 * c for c in cs] for cs in calls],
                                 [[1.5 * r for r in rs] for rs in refs])
    slow_program = run.pass_in_refs([[1.2 * c for c in cs] for cs in calls], refs)
    assert slow_host == pytest.approx(base)
    assert slow_program == pytest.approx(1.2 * base)


def test_same_seed_gives_same_inputs_and_new_seed_different_ones():
    first = corpus.corpus_records(random.Random(3), 50, "c")
    assert first == corpus.corpus_records(random.Random(3), 50, "c")
    assert first != corpus.corpus_records(random.Random(4), 50, "c")
    labels = {r.gold_label for r in corpus.eval_records(random.Random(3), 40)}
    assert labels == {0, 1}


def test_oracle_agrees_with_query_and_rejects_a_reordering():
    records, _ = corpus.corpus_records(random.Random(5), 80, "c")
    store = build_store(records)
    provider = embedding.mock_provider(0)
    cfg = retrieval.HybridConfig(k=6)
    q = provider.embed("heavy rain in Oslo on Monday led to job losses")
    got, want = ranked(retrieval.query(store, q, cfg)), Oracle(store).query(q, cfg)
    assert matches(got, want)
    assert not matches(got[::-1], want)
    assert not matches([(i, s + 1e-6) for i, s in got], want)


def test_run_refuses_without_the_package_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
