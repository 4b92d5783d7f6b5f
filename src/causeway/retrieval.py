"""Hybrid semantic + structural retrieval over the event graph.

Every candidate event e (with embedding and text) is scored

    H(e) = alpha * cos(e, q) + beta * S(e)

where S(e) is 1 exactly when the event has at least one causal edge.
Events with H(e) >= tau are ranked by descending score (ties broken by
ascending event id) and the top k are returned with their collected
neighbor texts. The scan is exhaustive and exact: desk-scale corpora make
approximate indexes unnecessary. It runs over the store's scoring rows
as whole arrays: a float32 screen of every row in one product, whose
error has a proven bound, then float64 scores for the rows the bound
leaves able to reach the top k, their vectors gathered by node from the
store's one vector array (the refine step of exact re-ranking; Johnson,
Douze and Jegou, arXiv:1702.08734).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from causeway.store import EMBEDDING_DIM, GraphStore, check_embedding, screen_rows

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


# unit roundoffs of float64 and float32
_U64, _U32 = 2.0**-53, 2.0**-24
# norms, of a row and of a query, for which the screen's error bound holds
_TAME = (2.0**-500, 2.0**500)
# the relative error of one entry of a screen, and γ_D in float32
_ENTRY = _U32 + 3 * EMBEDDING_DIM * _U64
_GAMMA = EMBEDDING_DIM * _U32 / (1 - EMBEDDING_DIM * _U32)
# E: the most by which a screened similarity and the float64 one differ
_SCREEN_ERROR = (
    _GAMMA * (1 + _ENTRY) ** 2 + 2 * _ENTRY + _ENTRY**2 + 2.0**-100 + 4 * EMBEDDING_DIM * _U64
) * (1 + 2.0**-20)


def _margin(cfg: HybridConfig) -> float:
    """M, the most by which a row's screened score and the float64 score
    ``query`` gives it can differ, when the row's norm and the query's lie
    in ``_TAME``; any other row always survives the screen.

    Let D = ``EMBEDDING_DIM``, u = 2^-53, v = 2^-24, γ_n(w) = nw/(1 - nw);
    r a stored row, ñ its stored norm, q the query, m̃ its norm, and
    c = r·q/(‖r‖‖q‖) the exact cosine, in [-1, 1]. Clipping to [-1, 1]
    brings no value further from c. Every bound below holds for any order
    of summation (Higham, *Accuracy and Stability of Numerical
    Algorithms*, §3.1), with or without fused multiply-adds.

    The float64 similarity, fl(fl(Σ r_j q_j)/fl(ñm̃)) clipped: the sum is
    within γ_D(u)‖r‖‖q‖ of r·q, and ñ = ‖r‖(1 + θ) with
    |θ| ≤ (D/2 + 1)u, m̃ likewise. Underflow adds at most D·2^-1074 to a
    sum, under 2^-60 of the sum's scale ‖r‖‖q‖ ≥ 2^-1000 for norms in
    ``_TAME``, whose product ≤ 2^1000 keeps every partial sum finite. So it
    is within (2D + 4)u + 2^-58 ≤ 4Du of c.

    The screened similarity: an entry of a screen (``screen_rows``) is
    fl32(fl64(r_j/ñ)) = x_j(1 + ε_j) + η_j with x = r/‖r‖,
    |ε_j| ≤ ε = v + 3Du (θ, the float64 quotient, the float32 rounding)
    and |η_j| < 2^-126 where float32 underflows, gradually or flushed to
    zero; the query's likewise with y = q/‖q‖. The float32 dot product of
    the two screens a and b, by any BLAS kernel, with gradual underflow or
    subnormals flushed to zero, is within γ_D(v)Σ|a_j b_j| + D·2^-125 of
    the exact a·b; Σ|a_j b_j| ≤ (1 + ε)² + 2^-120, and a·b is within
    2ε + ε² + 2^-120 of x·y = c (Σ|x_j| ≤ √D). So it is within
    γ_D(v)(1 + ε)² + 2ε + ε² + 2^-100 of c.

    ``_SCREEN_ERROR``, E, is the sum of the two, raised by 2^-20 of itself
    for its own rounding: 2.30e-5, (D + 2)v to three digits. The scores
    H = fl(fl(αs) + fl(βS)) and Ĥ, the same of the screened similarity,
    then differ by at most α(E + 2u) + 2^-1074 in the products and
    2u(α + β)(1 + u) in the sums: M = αE + 5u(α + β) + 2^-1074. Taking 8u
    and 2^-1070 covers the rounding of the sum below.
    """
    alpha, beta = float(cfg.alpha), float(cfg.beta)
    return alpha * _SCREEN_ERROR + 8 * _U64 * (alpha + beta) + 2.0**-1070


def _make(cls, *values):
    """``cls(*values)`` for a frozen dataclass without ``__post_init__``, its
    fields set by one ``__dict__`` update, not one ``object.__setattr__``
    call each: 4 % of a sweep's time, for 20 results and examples."""
    made = object.__new__(cls)
    made.__dict__.update(zip(cls.__match_args__, values))
    return made


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

    Considers exactly the events with non-null embedding and text,
    screened in float32, rescored in float64, so each result's
    ``hybrid_score`` equals ``hybrid_score(embedding_similarity,
    structural_score, cfg)`` and is the float64 score a scan of every row
    gives. S is the row's linked bit; the top-k's texts and neighbor texts
    are collected in one store call, and the neighbor lists' lengths are
    the counts. The whole query holds one read lock, so it sees a single
    consistent store. ``q`` must pass ``check_embedding``, as every stored
    vector has.

    Each row's screen gives a screened score Ĥ within M (``_margin``) of
    its float64 score H. A row survives if Ĥ ≥ τ - M, and, when more than
    k rows do, Ĥ ≥ K̃ - 2M, K̃ the k-th largest Ĥ of the surviving rows
    that have a margin. Every row of the top k survives, ties with the
    k-th included: a row with H ≥ τ has Ĥ ≥ τ - M; a row with
    Ĥ < K̃ - 2M has H < K̃ - M, and k rows j have Ĥ_j ≥ K̃, so
    H_j ≥ K̃ - M: k rows score strictly more than it, and reach τ if it
    does. Rounding to nearest is monotonic, so a float at least τ - M is
    at least its rounding, and computing the thresholds loosens no test.
    Only the survivors are scored in float64, their vectors gathered
    through their nodes from the store's one vector array, by the
    ``einsum`` of a scan of every row (a gathered row gives the bits it
    gives in the whole array), and the selection on them returns what the
    selection on every row would.
    """
    qv, q_norm = check_embedding(q)
    low, high = _TAME
    tau = float(cfg.tau)

    with store.lock.read():
        rows = store.scoring_rows()
        # any BLAS kernel will do: only the error bound is relied on
        screened = np.matmul(rows.screens, screen_rows(qv, q_norm))
        screened = hybrid_score(np.clip(screened, -1.0, 1.0, out=np.empty(len(screened))),
                                rows.linked, cfg)
        margin = _margin(cfg)
        # the rows the margin holds for; every other row survives
        wild = (rows.norms < low) | (rows.norms > high) | (not low <= q_norm <= high)
        survivors = np.flatnonzero(rows.alive & ((screened >= tau - margin) | wild))
        wild = wild[survivors]
        top = screened[survivors]
        if len(top) - np.count_nonzero(wild) > cfg.k:
            kth = float(np.partition(top[~wild], -cfg.k)[-cfg.k])
            survivors = survivors[(top >= kth - 2 * margin) | wild]
        # einsum, not a BLAS matvec: OpenBLAS gives identical rows
        # last-bit-different dots depending on their position, which would
        # break exact ties and so the ascending-id tie-break
        dots = np.einsum("ij,j->i", rows.vectors[rows.vector_row[rows.nodes[survivors]]], qv)
        sims = np.clip(dots / (rows.norms[survivors] * q_norm), -1.0, 1.0)
        linked = rows.linked[survivors]
        scores = hybrid_score(sims, linked, cfg)
        candidates = np.flatnonzero(scores >= tau)
        if len(candidates) > cfg.k:
            # keep every row tied with the k-th best; the sort below settles ties
            top = scores[candidates]
            candidates = candidates[top >= np.partition(top, -cfg.k)[-cfg.k]]
        # a Python sort on the ids: numpy string arrays drop trailing NULs
        ids = list(map(rows.ids.__getitem__, survivors.tolist()))
        score_list = scores.tolist()
        best = sorted(candidates.tolist(), key=lambda r: (-score_list[r], ids[r]))[: cfg.k]
        texts = store.numbered_texts(rows.nodes[survivors[best]].tolist())
        return [
            _make(RetrievalResult, ids[r], text, score, sim, flag, len(c), len(e), len(t), c, e, t)
            for r, score, sim, flag, (text, c, e, t) in zip(
                best, scores[best].tolist(), sims[best].tolist(),
                linked[best].astype(int).tolist(), texts,
            )
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
    claimed: list[tuple[int, int, str]] = []  # start, end, tag name
    unplaced: list[tuple[str, str]] = []
    for tag, texts in (("cause", cause_texts), ("effect", effect_texts), ("trigger", trigger_texts)):
        for text in texts:
            at = event_text.find(text) if text else -1
            while at != -1:
                end = at + len(text)
                for start, stop, _ in claimed:
                    if at < stop and start < end:
                        break
                else:  # no claimed occurrence overlaps this one
                    break
                at = event_text.find(text, at + 1)
            if at == -1:
                unplaced.append((tag, text))
            else:
                claimed.append((at, end, tag))
    if unplaced:
        return event_text, False, unplaced

    pieces, at = [], 0
    for start, end, tag in sorted(claimed):
        pieces += (event_text[at:start], f"<{tag}>", event_text[start:end], f"</{tag}>")
        at = end
    pieces.append(event_text[at:])
    return "".join(pieces), True, []


def to_fewshot_examples(results: list[RetrievalResult]) -> list[FewShotExample]:
    """One example per result, rank order preserved.

    The exemplar label is the structural score: an event without any causal
    edge serves as a non-causal (label 0) example.
    """
    examples = []
    for rank, r in enumerate(results, start=1):
        tagged, ok, unplaced = reconstruct_tagged(
            r.event_text, r.cause_texts, r.effect_texts, r.trigger_texts
        )
        examples.append(_make(
            FewShotExample, rank, r.event_id, r.event_text, r.cause_texts, r.effect_texts, r.trigger_texts,
            tagged, r.structural_score, ok, tuple(unplaced),
        ))
    return examples
