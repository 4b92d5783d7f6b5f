"""Hybrid semantic + structural retrieval over the event graph.

Every candidate event e (with embedding and text) is scored

    H(e) = alpha * cos(e, q) + beta * S(e)

where S(e) is 1 exactly when the event has at least one causal edge.
Events with H(e) >= tau are ranked by descending score (ties broken by
ascending event id) and the top k are returned with their collected
neighbor texts. The scan is exhaustive and exact: desk-scale corpora make
approximate indexes unnecessary. It runs over the store's scoring rows
as whole arrays, one chunk of rows at a time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from causeway.store import GraphStore, check_embedding

# Weights recovered from the published retrieval scores under alpha+beta=1;
# tau defaults low so few-shot sets are not silently empty.
DEFAULT_ALPHA = 0.6
DEFAULT_BETA = 0.4
DEFAULT_TAU = 0.2
DEFAULT_TOP_K = 5


@dataclass(frozen=True)
class HybridConfig:
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    tau: float = DEFAULT_TAU
    k: int = DEFAULT_TOP_K

    def __post_init__(self):
        for name in ("alpha", "beta", "tau"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            try:  # math, not abs(value) <= max: a float32 would cast max to inf
                finite = math.isfinite(value)
            except OverflowError:  # an int past float range
                finite = False
            if not finite:
                raise ValueError(f"{name} must be a finite float, got {value!r}")
        if isinstance(self.k, bool) or not isinstance(self.k, Integral):
            raise ValueError(f"k must be an integer, got {self.k!r}")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        # scores stay finite in float64, where hybrid_score takes them
        if not 0 < float(self.alpha) + float(self.beta) <= sys.float_info.max:
            raise ValueError("alpha + beta must be positive and finite")
        if self.k < 1:
            raise ValueError("k must be >= 1")


def hybrid_score(sim, structural, cfg: HybridConfig):
    """H(e); on arrays, elementwise and bit for bit equal to scalar calls."""
    return float(cfg.alpha) * sim + float(cfg.beta) * structural


@dataclass(frozen=True)
class RetrievalResult:
    event_id: str
    event_text: str
    hybrid_score: float
    embedding_similarity: float
    structural_score: int
    cause_count: int
    effect_count: int
    trigger_count: int
    cause_texts: tuple[str, ...]
    effect_texts: tuple[str, ...]
    trigger_texts: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "text": self.event_text,
            "event_id": self.event_id,
            "hybrid_score": self.hybrid_score,
            "embedding_similarity": self.embedding_similarity,
            "structural_score": self.structural_score,
            "effect_count": self.effect_count,
            "cause_count": self.cause_count,
            "trigger_count": self.trigger_count,
            "effect_texts": list(self.effect_texts),
            "cause_texts": list(self.cause_texts),
            "trigger_texts": list(self.trigger_texts),
        }


def query(store: GraphStore, q, cfg: HybridConfig) -> list[RetrievalResult]:
    """Score, filter and rank candidate events; empty store yields [].

    Considers exactly the events with non-null embedding and text, scored
    elementwise in float64, so each result's ``hybrid_score`` equals
    ``hybrid_score(embedding_similarity, structural_score, cfg)``. S is the
    row's linked bit; the top-k's texts and neighbor texts are collected in
    one store call, and the neighbor lists' lengths are the counts. The
    whole query holds one read lock, so it sees a single consistent store.
    ``q`` must pass ``check_embedding``, as every stored vector has.
    """
    qv, q_norm = check_embedding(q)

    with store.lock.read():
        rows = store.scoring_rows()
        dots = np.empty(len(rows.ids))
        start = 0
        for chunk in rows.chunks:
            # einsum, not chunk @ qv: OpenBLAS's matvec gives identical rows
            # last-bit-different dots depending on their position, which
            # would break exact ties and so the ascending-id tie-break
            np.einsum("ij,j->i", chunk, qv, out=dots[start : start + len(chunk)])
            start += len(chunk)
        sims = np.clip(dots / (rows.norms * q_norm), -1.0, 1.0)
        scores = hybrid_score(sims, rows.linked, cfg)
        candidates = np.flatnonzero(rows.alive & (scores >= cfg.tau))
        if len(candidates) > cfg.k:
            # keep every row tied with the k-th best; the sort below settles ties
            top = scores[candidates]
            kth = np.partition(top, len(top) - cfg.k)[len(top) - cfg.k]
            candidates = candidates[top >= kth]
        # a Python sort on the ids: numpy string arrays drop trailing NULs
        best = sorted(candidates.tolist(), key=lambda r: (-scores[r], rows.ids[r]))[: cfg.k]
        texts = store.event_texts([rows.ids[row] for row in best])
        return [
            RetrievalResult(
                event_id=rows.ids[row],
                event_text=event_text,
                hybrid_score=float(scores[row]),
                embedding_similarity=float(sims[row]),
                structural_score=int(rows.linked[row]),
                cause_count=len(cause_texts),
                effect_count=len(effect_texts),
                trigger_count=len(trigger_texts),
                cause_texts=tuple(cause_texts),
                effect_texts=tuple(effect_texts),
                trigger_texts=tuple(trigger_texts),
            )
            for row, (event_text, cause_texts, effect_texts, trigger_texts) in zip(best, texts)
        ]


@dataclass(frozen=True)
class FewShotExample:
    rank: int
    event_id: str
    event_text: str
    cause_texts: tuple[str, ...]
    effect_texts: tuple[str, ...]
    trigger_texts: tuple[str, ...]
    tagged_text: str
    label: int
    reconstruction_ok: bool
    unplaced: tuple[tuple[str, str], ...] = field(default=())


def reconstruct_tagged(
    event_text: str,
    cause_texts,
    effect_texts,
    trigger_texts,
) -> tuple[str, bool, list[tuple[str, str]]]:
    """Wrap each neighbor text's first free occurrence in its kind tag.

    Occurrences are claimed left to right without overlap. If any text has
    no free occurrence, the event text is returned untagged and the
    stragglers are listed (reconstruction failure is flagged, not raised).
    """
    wanted = (
        [("cause", t) for t in cause_texts]
        + [("effect", t) for t in effect_texts]
        + [("trigger", t) for t in trigger_texts]
    )
    claimed: list[tuple[int, int, str]] = []  # start, end, tag name
    unplaced: list[tuple[str, str]] = []
    for tag, text in wanted:
        placed = False
        if text:
            search_from = 0
            while True:
                idx = event_text.find(text, search_from)
                if idx == -1:
                    break
                end = idx + len(text)
                if all(end <= s or e <= idx for s, e, _ in claimed):
                    claimed.append((idx, end, tag))
                    placed = True
                    break
                search_from = idx + 1
        if not placed:
            unplaced.append((tag, text))
    if unplaced:
        return event_text, False, unplaced

    tagged = event_text
    for start, end, tag in sorted(claimed, reverse=True):
        tagged = (
            tagged[:start]
            + f"<{tag}>{tagged[start:end]}</{tag}>"
            + tagged[end:]
        )
    return tagged, True, []


def to_fewshot_examples(results: list[RetrievalResult]) -> list[FewShotExample]:
    """One example per result, rank order preserved.

    The exemplar label is the structural score: an event without any causal
    edge serves as a non-causal (label 0) example.
    """
    examples = []
    for rank, result in enumerate(results, start=1):
        tagged, ok, unplaced = reconstruct_tagged(
            result.event_text,
            result.cause_texts,
            result.effect_texts,
            result.trigger_texts,
        )
        examples.append(
            FewShotExample(
                rank=rank,
                event_id=result.event_id,
                event_text=result.event_text,
                cause_texts=result.cause_texts,
                effect_texts=result.effect_texts,
                trigger_texts=result.trigger_texts,
                tagged_text=tagged,
                label=result.structural_score,
                reconstruction_ok=ok,
                unplaced=tuple(unplaced),
            )
        )
    return examples
