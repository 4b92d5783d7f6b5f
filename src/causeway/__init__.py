"""causeway: embedded causal-event graph store with hybrid retrieval,
few-shot prompt assembly, LLM verdict parsing and classification metrics."""

from causeway.annotation import (
    AnnotatedSentence,
    TagSpan,
    build_causal_fragment,
    ingest_corpus,
    parse_tagged_sentence,
)
from causeway.embedding import (
    EmbeddingProvider,
    HashEmbeddingProvider,
    batch_embed,
    clean_embeddings,
    mock_provider,
    verify,
)
from causeway.evaluation import Confusion, EvalReport, confusion, metrics, sweep
from causeway.inference import (
    LLMClient,
    MockLLMClient,
    Verdict,
    classify,
    extract_json,
)
from causeway.prompting import PromptSpec, build_prompt, token_budget_trim
from causeway.retrieval import (
    FewShotExample,
    HybridConfig,
    RetrievalResult,
    cosine,
    hybrid_score,
    query,
    structural_score,
    to_fewshot_examples,
)
from causeway.store import (
    EMBEDDING_DIM,
    Edge,
    EdgeKind,
    GraphStore,
    Node,
    NodeKind,
    StoreStats,
)

__version__ = "0.1.0"

__all__ = [
    "AnnotatedSentence",
    "Confusion",
    "EMBEDDING_DIM",
    "Edge",
    "EdgeKind",
    "EmbeddingProvider",
    "EvalReport",
    "FewShotExample",
    "GraphStore",
    "HashEmbeddingProvider",
    "HybridConfig",
    "LLMClient",
    "MockLLMClient",
    "Node",
    "NodeKind",
    "PromptSpec",
    "RetrievalResult",
    "StoreStats",
    "TagSpan",
    "Verdict",
    "batch_embed",
    "build_causal_fragment",
    "build_prompt",
    "classify",
    "clean_embeddings",
    "confusion",
    "cosine",
    "extract_json",
    "hybrid_score",
    "ingest_corpus",
    "metrics",
    "mock_provider",
    "parse_tagged_sentence",
    "query",
    "structural_score",
    "sweep",
    "to_fewshot_examples",
    "token_budget_trim",
    "verify",
]
