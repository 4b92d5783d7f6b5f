"""Brute-force retrieval oracle that shares no code with ``retrieval.py``.

Scores every embedded event with exact ``math.fsum`` dot products, takes
the structural score from a raw edge scan, and ranks by (-score, id).
"""

from __future__ import annotations

import math
from operator import mul

from causeway.store import EdgeKind, GraphStore, NodeKind

SCORE_TOLERANCE = 1e-9


class Oracle:
    def __init__(self, store: GraphStore):
        linked = set()
        for edge in store.edges():
            linked.add(edge.dst if edge.kind is EdgeKind.CAUSES else edge.src)
        # vectors stay the store's arrays, converted per query, so the oracle
        # adds little to the peak memory the benchmark reports
        self.rows = []  # (event id, vector, norm, structural score)
        for node in store.nodes(NodeKind.EVENT):
            if node.embedding is None or node.text is None:
                continue
            vec = node.embedding.tolist()
            norm = math.sqrt(math.fsum(map(mul, vec, vec)))
            self.rows.append((node.id, node.embedding, norm, 1 if node.id in linked else 0))

    def query(self, q, cfg) -> list[tuple[str, float]]:
        qv = [float(x) for x in q]
        q_norm = math.sqrt(math.fsum(map(mul, qv, qv)))
        ranked = []
        for event_id, vec, norm, structural in self.rows:
            sim = math.fsum(map(mul, vec.tolist(), qv)) / (norm * q_norm)
            h = cfg.alpha * max(-1.0, min(1.0, sim)) + cfg.beta * structural
            if h >= cfg.tau:
                ranked.append((event_id, h))
        ranked.sort(key=lambda row: (-row[1], row[0]))
        return ranked[: cfg.k]


def matches(got: list[tuple[str, float]], want: list[tuple[str, float]]) -> bool:
    """Same ids in the same order, scores within ``SCORE_TOLERANCE``."""
    return len(got) == len(want) and all(
        g_id == w_id and abs(g_score - w_score) <= SCORE_TOLERANCE
        for (g_id, g_score), (w_id, w_score) in zip(got, want)
    )
