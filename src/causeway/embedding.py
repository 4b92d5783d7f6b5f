"""Embedding lifecycle: clean, batch-embed, verify.

The full cycle mirrors the graph-side embedding update procedure:

    1. clean_embeddings   - null out every stored vector
    2. batch_embed        - embed every node with non-null text, in batches,
                            each distinct text once
    3. verify             - per-kind totals vs embedded counts

The store remembers which provider made its vectors (``embedded_by``), so
a later run with the same provider can skip step 1 and embed only the
nodes that have no vector yet.

An event's vector lives in its store scoring row, any other node's on the
node; there is no separate vector index. Providers must be deterministic,
and their vectors are L2-normalized at ingestion; retrieval still divides
by each row's stored norm, as vectors given to ``upsert_node`` or ``load``
need not be unit.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from causeway.errors import DimensionMismatchError, ProviderFailureError, ZeroVectorError
from causeway.store import EMBEDDING_DIM, GraphStore, Node, NodeKind, check_embedding

logger = logging.getLogger(__name__)

DEFAULT_BATCH_SIZE = 64
EMBED_TIMEOUT_SECONDS = 30.0


class EmbeddingProvider(ABC):
    """Maps text to a deterministic 384-dim vector."""

    name: str = "provider"
    dimension: int = EMBEDDING_DIM

    @abstractmethod
    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        ...

    @property
    def identity(self) -> str:
        """What the store records as having made its vectors: two providers
        with one identity must give every text the same vector."""
        return self.name

    def embed(self, text: str) -> np.ndarray:
        """One text's vector, through the same gate as ``batch_embed``'s."""
        return provider_vector(self.embed_batch([text])[0], f"text {text!r}")[0]


def provider_vector(vector, source: str, report=None) -> tuple[np.ndarray, float]:
    """``check_embedding`` on a vector a provider returned for ``source``;
    a vector it refuses is the provider's fault, a ProviderFailureError."""
    try:
        return check_embedding(vector)
    except (DimensionMismatchError, ZeroVectorError) as exc:
        raise ProviderFailureError(
            f"provider returned an unusable vector for {source}: {exc}", report=report
        ) from exc


class HashEmbeddingProvider(EmbeddingProvider):
    """Deterministic mock: keyed blake2b of the text seeds a unit Gaussian.

    Equal texts map to equal vectors; distinct texts collide with
    negligible probability. Intended for tests and offline runs.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.name = f"mock-hash-{seed}"
        self._key = seed.to_bytes(8, "little", signed=True)

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        out = []
        for text in texts:
            digest = hashlib.blake2b(text.encode("utf-8"), key=self._key).digest()
            rng = np.random.default_rng(int.from_bytes(digest[:16], "little"))
            vec = rng.standard_normal(self.dimension)
            out.append(vec / math.sqrt(np.vdot(vec, vec)))
        return out


def mock_provider(seed: int = 0) -> HashEmbeddingProvider:
    return HashEmbeddingProvider(seed)


def http_session(session=None):
    """``session``, or a new ``requests.Session`` when none is given."""
    if session is None:
        import requests

        session = requests.Session()
    return session


def post_json(session, endpoint: str, api_key_env: str, body: dict, timeout: float):
    """POST ``body`` as JSON, with the bearer key from the environment
    variable ``api_key_env`` if set; raise on an HTTP error, return the reply."""
    headers = {}
    api_key = os.environ.get(api_key_env)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    response = session.post(endpoint, json=body, headers=headers, timeout=timeout)
    response.raise_for_status()
    return response.json()


class HttpEmbeddingProvider(EmbeddingProvider):
    """Client for an OpenAI-style /embeddings endpoint (384-dim models).

    POSTs ``{"model": ..., "input": [texts]}`` and reads
    ``{"data": [{"embedding": [...]}, ...]}``. The API key is read from the
    environment variable named by ``api_key_env``.
    """

    def __init__(
        self,
        endpoint: str,
        model: str = "all-MiniLM-L6-v2",
        api_key_env: str = "CAUSEWAY_EMBED_API_KEY",
        session=None,
    ):
        self.endpoint = endpoint
        self.model = model
        self.api_key_env = api_key_env
        self.session = http_session(session)
        self.name = f"http-{model}"

    @property
    def identity(self) -> str:
        return f"http {self.model} at {self.endpoint}"

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        body = {"model": self.model, "input": list(texts)}
        try:
            payload = post_json(
                self.session, self.endpoint, self.api_key_env, body, EMBED_TIMEOUT_SECONDS
            )
            rows = payload["data"]
            vectors = [np.asarray(row["embedding"], dtype=np.float64) for row in rows]
        except Exception as exc:
            raise ProviderFailureError(f"embedding request failed: {exc}") from exc
        if len(vectors) != len(texts):
            raise ProviderFailureError(
                f"provider returned {len(vectors)} vectors for {len(texts)} texts"
            )
        return vectors


def clean_embeddings(store: GraphStore) -> int:
    """Null every node embedding; returns how many were cleared."""
    embedded = [n.id for n in store.nodes() if n.embedding is not None]
    store.set_embeddings((node_id, None) for node_id in embedded)
    return len(embedded)


def rebuild_indexes(store: GraphStore) -> None:
    """No-op: there are no vector indexes; bench/workloads.py still calls it."""


@dataclass
class EmbedReport:
    """Nodes embedded, per kind; ``texts_sent`` counts the distinct texts
    sent to the provider and ``batches_issued`` the batches they went in."""

    embedded_counts: dict[NodeKind, int] = field(
        default_factory=lambda: {k: 0 for k in NodeKind}
    )
    batches_issued: int = 0
    texts_sent: int = 0
    retries: int = 0

    @property
    def total_embedded(self) -> int:
        return sum(self.embedded_counts.values())

    def as_dict(self) -> dict:
        return {
            "embedded": {k.value: v for k, v in self.embedded_counts.items()},
            "total_embedded": self.total_embedded,
            "batches_issued": self.batches_issued,
            "texts_sent": self.texts_sent,
            "retries": self.retries,
        }


def _eligible_nodes(store: GraphStore) -> list[Node]:
    return [n for n in store.nodes() if n.text is not None and n.embedding is None]


def _embed_texts(provider: EmbeddingProvider, texts: list[str], report: EmbedReport) -> list:
    """The provider's vectors for ``texts``, retried once on failure."""
    try:
        vectors = provider.embed_batch(texts)
    except Exception:
        report.retries += 1
        try:
            vectors = provider.embed_batch(texts)
        except Exception as exc:
            raise ProviderFailureError(
                f"batch {report.batches_issued + 1} failed twice: {exc}",
                report=report,
            ) from exc
    if len(vectors) != len(texts):
        raise ProviderFailureError(
            f"provider returned {len(vectors)} vectors for {len(texts)} texts",
            report=report,
        )
    return vectors


def batch_embed(
    store: GraphStore,
    provider: EmbeddingProvider,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> EmbedReport:
    """Embed every node with non-null text that has no embedding yet.

    Each distinct text goes to the provider once, and its one unit vector
    (read-only) goes to every node that holds it. A batch is the shortest
    run of these nodes, in store order, that holds ``batch_size`` texts
    not embedded by an earlier batch; its nodes are written in that order
    under one writer lock. Each batch is retried once on provider failure;
    a second failure aborts with a ProviderFailureError carrying the
    partial-progress report. Re-running after completion embeds nothing
    (idempotent).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if provider.dimension != EMBEDDING_DIM:
        raise DimensionMismatchError(
            f"provider dimension {provider.dimension} != {EMBEDDING_DIM}"
        )
    eligible = _eligible_nodes(store)
    report = EmbedReport()
    unit: dict[str, np.ndarray] = {}  # text -> its unit vector, once embedded
    start = 0
    while start < len(eligible):
        fresh: dict[str, Node] = {}  # the batch's new texts -> first node holding each
        end = start
        while end < len(eligible) and len(fresh) < batch_size:
            node = eligible[end]
            if node.text not in unit:
                fresh.setdefault(node.text, node)
            end += 1
        batch = eligible[start:end]
        if fresh:
            vectors = _embed_texts(provider, list(fresh), report)
            for (text, node), vec in zip(fresh.items(), vectors):
                arr, norm = provider_vector(vec, f"node {node.id!r}", report)
                vector = arr / norm
                vector.flags.writeable = False  # shared by every node with this text
                unit[text] = vector
            report.batches_issued += 1
            report.texts_sent += len(fresh)
        # one writer-lock hold per batch
        store.set_embeddings(((n.id, unit[n.text]) for n in batch), provider.identity)
        for node in batch:
            report.embedded_counts[node.kind] += 1
        start = end
    logger.info(
        "embedded %d node(s) from %d text(s) in %d batch(es)",
        report.total_embedded,
        report.texts_sent,
        report.batches_issued,
    )
    return report


@dataclass
class VerificationRow:
    kind: NodeKind
    total: int
    with_text: int
    embedded: int

    @property
    def deficit(self) -> int:
        return self.with_text - self.embedded


@dataclass
class VerificationReport:
    rows: list[VerificationRow]

    @property
    def ok(self) -> bool:
        return all(row.deficit == 0 for row in self.rows)

    @property
    def flagged(self) -> list[NodeKind]:
        return [row.kind for row in self.rows if row.deficit > 0]

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "rows": [
                {
                    "kind": row.kind.value,
                    "total": row.total,
                    "with_text": row.with_text,
                    "embedded": row.embedded,
                    "deficit": row.deficit,
                }
                for row in self.rows
            ],
        }


def verify(store: GraphStore) -> VerificationReport:
    """Per-kind totals, text-bearing counts and embedded counts."""
    rows = []
    for kind in NodeKind:
        nodes = store.nodes(kind)
        rows.append(
            VerificationRow(
                kind=kind,
                total=len(nodes),
                with_text=sum(1 for n in nodes if n.text is not None),
                embedded=sum(1 for n in nodes if n.embedding is not None),
            )
        )
    return VerificationReport(rows)
