"""Binary classification metrics and top-k evaluation sweeps.

Positive class is 1 (causal). Ratios with a zero denominator are reported
as 0.0 and flagged as degenerate rather than raising, so sweeps stay total.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from causeway.annotation import parse_tagged_sentence
from causeway.embedding import EmbeddingProvider
from causeway.errors import (
    BadLabelError,
    CausewayError,
    EmptyConfusionError,
    LengthMismatchError,
    SourceUnreadableError,
)
from causeway import retrieval
from causeway.inference import LLMClient, RateBudgeter, classify_retrieved
from causeway.inference import classify  # noqa: F401  bench/tracer.py patches this name
from causeway.store import GraphStore

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(preds: Sequence[int], gold: Sequence[int]) -> Confusion:
    if len(preds) != len(gold):
        raise LengthMismatchError(
            f"{len(preds)} predictions vs {len(gold)} gold labels"
        )
    tp = fp = fn = tn = 0
    for p, g in zip(preds, gold):
        if p not in (0, 1) or g not in (0, 1):
            raise BadLabelError(f"labels must be 0/1, got pred={p!r} gold={g!r}")
        if p == 1 and g == 1:
            tp += 1
        elif p == 1 and g == 0:
            fp += 1
        elif p == 0 and g == 1:
            fn += 1
        else:
            tn += 1
    return Confusion(tp, fp, fn, tn)


@dataclass(frozen=True)
class Metrics:
    f1: float
    accuracy: float
    precision: float
    recall: float
    mcc: float
    degenerate: tuple[str, ...] = ()


def metrics(c: Confusion) -> Metrics:
    """Standard formulas; zero-denominator ratios become 0.0 + a flag."""
    if c.total == 0:
        raise EmptyConfusionError("confusion matrix is empty")
    degenerate = []

    precision = recall = f1 = mcc = 0.0
    if c.tp + c.fp > 0:
        precision = c.tp / (c.tp + c.fp)
    else:
        degenerate.append("precision")
    if c.tp + c.fn > 0:
        recall = c.tp / (c.tp + c.fn)
    else:
        degenerate.append("recall")
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        degenerate.append("f1")
    accuracy = (c.tp + c.tn) / c.total

    denom2 = (c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn)
    if denom2 > 0:
        mcc = (c.tp * c.tn - c.fp * c.fn) / math.sqrt(denom2)
    else:
        degenerate.append("mcc")

    return Metrics(
        f1=f1,
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        mcc=mcc,
        degenerate=tuple(degenerate),
    )


# what a sweep reports for a k at which every sentence failed
EMPTY_METRICS = Metrics(0.0, 0.0, 0.0, 0.0, 0.0, degenerate=("empty",))


@dataclass
class EvalReport:
    model: str
    k: int
    tau: float
    alpha: float
    beta: float
    confusion: Confusion
    metrics: Metrics
    failures: list[tuple[str, str]] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "k": self.k,
            "tau": self.tau,
            "alpha": self.alpha,
            "beta": self.beta,
            "confusion": {
                "tp": self.confusion.tp,
                "fp": self.confusion.fp,
                "fn": self.confusion.fn,
                "tn": self.confusion.tn,
            },
            "f1": self.metrics.f1,
            "accuracy": self.metrics.accuracy,
            "precision": self.metrics.precision,
            "recall": self.metrics.recall,
            "mcc": self.metrics.mcc,
            "degenerate": list(self.metrics.degenerate),
            "failures": [list(f) for f in self.failures],
        }


@dataclass(frozen=True)
class EvalRecord:
    id: str
    text: str
    gold_label: int


def load_eval_dataset(path: str | Path) -> list[EvalRecord]:
    """JSONL with id, text or tagged_text, and a mandatory 0/1 gold_label."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise SourceUnreadableError(f"cannot read dataset {path}: {exc}") from exc
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        row = json.loads(line)
        if not isinstance(row, dict):
            raise BadLabelError(f"line {lineno}: record must be a JSON object")
        rec_id = str(row.get("id", f"line-{lineno}"))
        gold = row.get("gold_label")
        if gold not in (0, 1):
            raise BadLabelError(f"{rec_id}: gold_label must be 0 or 1, got {gold!r}")
        if "text" in row:
            text = row["text"]
        elif "tagged_text" in row:
            text = parse_tagged_sentence(row["tagged_text"], rec_id).raw_text
        else:
            raise BadLabelError(f"{rec_id}: record has neither text nor tagged_text")
        records.append(EvalRecord(rec_id, text, gold))
    return records


def sweep(
    dataset: Sequence[EvalRecord],
    k_values: Sequence[int],
    store: GraphStore,
    provider: EmbeddingProvider,
    client: LLMClient,
    cfg_base: retrieval.HybridConfig | None = None,
    rules: list[str] | None = None,
    max_prompt_tokens: int | None = None,
    budgeter: RateBudgeter | None = None,
) -> list[EvalReport]:
    """One report per k; per-sentence failures are recorded, never fatal.

    A k at which every sentence failed gets all-zero ``EMPTY_METRICS``.

    Each sentence is embedded and ranked once, at the largest k; every k
    classifies against a prefix of that ranking. The prefix is exact: the
    ranking is a total order (score, then id) and tau is the same for all k.
    """
    cfg_base = cfg_base or retrieval.HybridConfig()
    cfgs = [replace(cfg_base, k=k) for k in k_values]  # rejects a bad k up front
    if not cfgs:
        return []
    deepest = max(cfgs, key=lambda cfg: cfg.k)
    outcomes = [([], [], []) for _ in cfgs]  # per k: preds, golds, failures
    for record in dataset:
        try:
            results = retrieval.query(store, provider.embed(record.text), deepest)
        except CausewayError as exc:
            for _, _, failures in outcomes:
                failures.append((record.id, str(exc)))
            continue
        for cfg, (preds, golds, failures) in zip(cfgs, outcomes):
            try:
                verdict, _ = classify_retrieved(
                    record.text,
                    results[: cfg.k],
                    client,
                    rules=rules,
                    max_prompt_tokens=max_prompt_tokens,
                    budgeter=budgeter,
                )
            except CausewayError as exc:
                failures.append((record.id, str(exc)))
                continue
            preds.append(verdict.label)
            golds.append(record.gold_label)
    reports = []
    for cfg, (preds, golds, failures) in zip(cfgs, outcomes):
        c = confusion(preds, golds)
        reports.append(
            EvalReport(
                model=client.name,
                k=cfg.k,
                tau=cfg.tau,
                alpha=cfg.alpha,
                beta=cfg.beta,
                confusion=c,
                metrics=metrics(c) if c.total else EMPTY_METRICS,
                failures=failures,
            )
        )
        logger.info("sweep k=%d: f1=%.4f (%d failures)", cfg.k, reports[-1].metrics.f1, len(failures))
    return reports


def reports_to_json(reports: Sequence[EvalReport]) -> str:
    return json.dumps([r.as_dict() for r in reports], indent=2, sort_keys=True)


def reports_to_markdown(reports: Sequence[EvalReport]) -> str:
    """Top-k comparison table, four decimals per metric."""
    lines = [
        "| Top K | F1 | Acc | Prec | Rec | MCC |",
        "|-------|-----|-----|------|-----|-----|",
    ]
    for r in reports:
        m = r.metrics
        lines.append(
            f"| {r.k} | {m.f1:.4f} | {m.accuracy:.4f} | {m.precision:.4f} "
            f"| {m.recall:.4f} | {m.mcc:.4f} |"
        )
    return "\n".join(lines) + "\n"
