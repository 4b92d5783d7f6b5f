"""XML prompt assembly for causal classification and tagging.

Rendered layout (documented contract, see README), two spaces per level,
one element per line, an element without text or children written as
``<tag />``:

    <prompt>
      <instructions>...</instructions>
      <rules>
        <rule n="1">...</rule>
      </rules>
      <examples count="K" zero_shot="false">
        <example rank="1" label="1">
          <text>...</text>
          <causes>
            <cause>...</cause>
          </causes>
          <effects>
            <effect>...</effect>
          </effects>
          <triggers />
          <tagged_sentence>...</tagged_sentence>
        </example>
      </examples>
      <query>...</query>
      <output_format>...</output_format>
    </prompt>

With no examples the block is ``<examples count="0" zero_shot="true" />``.
Text has ``&``, ``<`` and ``>`` escaped; identical specs render
byte-identically. Text holding a character that XML 1.0 cannot carry is
refused.

``render_pieces`` renders each part once; the prompt holding any prefix of
the examples, and its token estimate, are then built from those pieces.
Its check for characters XML 1.0 cannot carry reads only the texts a piece
holds, in render order: markup, indentation, the constant instructions
and output contract, and escapes are valid ASCII.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from itertools import accumulate
from pathlib import Path

from causeway.errors import BudgetTooSmallError, XmlCharacterError
from causeway.retrieval import FewShotExample

INSTRUCTIONS = (
    "You are a careful analyst of causal language in news sentences. "
    "Decide whether the query sentence expresses a causal relation. Apply "
    "every rule below, study the worked examples, then answer for the "
    "query sentence only. Tag the cause span with <cause>...</cause>, the "
    "effect span with <effect>...</effect> and any causal signal word with "
    "<trigger>...</trigger>, leaving the rest of the sentence unchanged."
)

OUTPUT_CONTRACT = (
    "Respond with a single JSON object with exactly two keys: "
    '"tagged_sentence" (the query sentence with inline cause/effect/trigger '
    'tags inserted, or unchanged if non-causal) and "label" (1 if the '
    "sentence is causal, 0 otherwise). Output nothing else."
)

TOKEN_SAFETY_FACTOR = 1.3

# any character outside the XML 1.0 Char production (controls, surrogates,
# U+FFFE/U+FFFF); escaping leaves them as they are and no parser reads them back
_XML_INVALID = re.compile(r"[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def estimate_tokens(text: str) -> int:
    """Whitespace token count scaled by a safety factor."""
    return _tokens(len(text.split()))


def _tokens(words: int) -> int:
    return math.ceil(words * TOKEN_SAFETY_FACTOR)


def default_rules() -> list[str]:
    """The five editable causality tests shipped with the package."""
    return list(_packaged_rules())


@functools.cache
def _packaged_rules() -> tuple[str, ...]:
    """The packaged rules file, read and parsed once per process."""
    path = resources.files("causeway").joinpath("data/causality_rules.txt")
    return tuple(_parse_rules(path.read_text(encoding="utf-8")))


def load_rules(path: str | Path) -> list[str]:
    return _parse_rules(Path(path).read_text(encoding="utf-8"))


def _parse_rules(text: str) -> list[str]:
    rules = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            rules.append(line)
    return rules


@dataclass
class PromptSpec:
    query_sentence: str
    examples: list[FewShotExample] = field(default_factory=list)
    rules: list[str] = field(default_factory=default_rules)


def _leaf(tag: str, text: str, pad: str, attrs: str = "") -> str:
    """An element holding only text, on one line indented by ``pad``."""
    if not text:
        return f"{pad}<{tag}{attrs} />"
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f"{pad}<{tag}{attrs}>{text}</{tag}>"


def _group(tag: str, children: list[str], pad: str, attrs: str = "") -> str:
    """An element around ``children``, each already indented one level in."""
    if not children:
        return f"{pad}<{tag}{attrs} />"
    inner = "\n".join(children)
    return f"{pad}<{tag}{attrs}>\n{inner}\n{pad}</{tag}>"


def _example(example: FewShotExample) -> str:
    """One ``<example>`` element, at its depth inside ``<examples>``."""
    pad, inner = " " * 6, " " * 8
    return _group(
        "example",
        [
            _leaf("text", example.event_text, pad),
            _group("causes", [_leaf("cause", t, inner) for t in example.cause_texts], pad),
            _group("effects", [_leaf("effect", t, inner) for t in example.effect_texts], pad),
            _group("triggers", [_leaf("trigger", t, inner) for t in example.trigger_texts], pad),
            _leaf("tagged_sentence", example.tagged_text, pad),
        ],
        " " * 4,
        f' rank="{example.rank}" label="{example.label}"',
    )


def _texts(example: FewShotExample) -> list[str]:
    """The texts ``_example`` writes, in the order it writes them."""
    return [example.event_text, *example.cause_texts, *example.effect_texts,
            *example.trigger_texts, example.tagged_text]


# the examples block with no examples: 4 words, as many as the open and close
# lines around a block that holds some
_NO_EXAMPLES = '  <examples count="0" zero_shot="true" />'


@dataclass(frozen=True)
class PromptPieces:
    """One spec's prompt, rendered once in pieces that each sit on lines of
    their own: ``head`` (``<prompt>`` through ``</rules>``), one ``<example>``
    element per example, and ``tail`` (``<query>`` through ``</prompt>``).
    The prompt holding the first n examples is a join of these, for any n.

    ``faults`` holds (example index, or -1 for head and tail; the first
    character XML 1.0 cannot carry) for each piece holding one, in prompt
    order.
    """

    head: str
    examples: tuple[str, ...]
    tail: str
    faults: tuple[tuple[int, str], ...]

    @functools.cached_property
    def words(self) -> tuple[int, ...]:
        """``words[n]``: the whitespace word count of the prompt holding the
        first n examples, the zero-shot prompt's plus each example's own (a
        budget needs them; a prompt alone does not)."""
        zero_shot = sum(len(piece.split()) for piece in (self.head, _NO_EXAMPLES, self.tail))
        counts = (len(example.split()) for example in self.examples)
        return tuple(accumulate(counts, initial=zero_shot))

    def prompt(self, n: int) -> str:
        """The prompt holding the first ``n`` examples."""
        self._check(n)
        if not n:
            return f"{self.head}\n{_NO_EXAMPLES}\n{self.tail}"
        return "\n".join([
            self.head,
            f'  <examples count="{n}" zero_shot="false">',
            *self.examples[:n],
            "  </examples>",
            self.tail,
        ])

    def tokens(self, n: int) -> int:
        """``estimate_tokens`` of the prompt holding the first ``n`` examples."""
        return _tokens(self.words[n])

    def fit(self, n: int, max_tokens: int) -> int:
        """How many of the first ``n`` examples the prompt keeps within
        ``max_tokens``: the lowest-ranked go first, and no piece is rendered
        again. Rules, query and output contract are never dropped; if the
        zero-shot prompt still exceeds the budget, raises BudgetTooSmallError.
        """
        if max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        self._check(n)
        while self.tokens(n) > max_tokens:
            if not n:
                raise BudgetTooSmallError(
                    f"zero-shot prompt exceeds budget of {max_tokens} tokens"
                )
            n -= 1
        return n

    def _check(self, n: int) -> None:
        """Refuse the prompt holding the first ``n`` examples if it holds a
        character XML 1.0 cannot carry, naming the first."""
        for at, char in self.faults:
            if at < n:
                raise XmlCharacterError(
                    f"prompt text holds {char!r}, which XML 1.0 cannot carry"
                )


def render_pieces(spec: PromptSpec) -> PromptPieces:
    """Render each part of ``spec``'s prompt once; nothing is refused yet."""
    rules = [_leaf("rule", rule, "    ", f' n="{n}"') for n, rule in enumerate(spec.rules, 1)]
    head = f"<prompt>\n{_leaf('instructions', INSTRUCTIONS, '  ')}\n{_group('rules', rules, '  ')}"
    tail = (
        f"{_leaf('query', spec.query_sentence, '  ')}\n"
        f"{_leaf('output_format', OUTPUT_CONTRACT, '  ')}\n</prompt>"
    )
    examples = tuple(map(_example, spec.examples))
    # markup, indentation, constants and escapes are valid ASCII, so a piece's
    # first character XML cannot carry is its texts' first; printable texts
    # hold no control, surrogate or unassigned character, so none XML refuses
    texts = [spec.rules, *map(_texts, spec.examples), [spec.query_sentence]]
    faults = []
    for at, text in zip([-1, *range(len(examples)), -1], map("".join, texts)):
        bad = None if text.isprintable() else _XML_INVALID.search(text)
        if bad is not None:
            faults.append((at, bad.group()))
    return PromptPieces(head, examples, tail, tuple(faults))


def build_prompt(spec: PromptSpec) -> str:
    """Deterministic well-formed XML string for one classification call."""
    return render_pieces(spec).prompt(len(spec.examples))


def token_budget_trim(spec: PromptSpec, max_tokens: int) -> PromptSpec:
    """``spec`` without the lowest-ranked examples its prompt cannot hold
    within ``max_tokens`` (see ``PromptPieces.fit``)."""
    kept = render_pieces(spec).fit(len(spec.examples), max_tokens)
    return replace(spec, examples=spec.examples[:kept])
