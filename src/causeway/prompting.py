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
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field, replace
from importlib import resources
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
    return math.ceil(len(text.split()) * TOKEN_SAFETY_FACTOR)


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


def build_prompt(spec: PromptSpec) -> str:
    """Deterministic well-formed XML string for one classification call."""
    examples = spec.examples
    rules = [_leaf("rule", rule, "    ", f' n="{n}"') for n, rule in enumerate(spec.rules, 1)]
    prompt = _group(
        "prompt",
        [
            _leaf("instructions", INSTRUCTIONS, "  "),
            _group("rules", rules, "  "),
            _group(
                "examples",
                [_example(example) for example in examples],
                "  ",
                f' count="{len(examples)}" zero_shot="{"false" if examples else "true"}"',
            ),
            _leaf("query", spec.query_sentence, "  "),
            _leaf("output_format", OUTPUT_CONTRACT, "  "),
        ],
        "",
    )
    bad = _XML_INVALID.search(prompt)
    if bad is not None:
        raise XmlCharacterError(
            f"prompt text holds {bad.group()!r}, which XML 1.0 cannot carry"
        )
    return prompt


def token_budget_trim(spec: PromptSpec, max_tokens: int) -> PromptSpec:
    """Drop lowest-ranked examples until the rendered prompt fits.

    Rules, query and output contract are never dropped; if the zero-shot
    prompt still exceeds the budget, raises BudgetTooSmallError.
    """
    if max_tokens <= 0:
        raise ValueError("max_tokens must be positive")
    current = spec
    while estimate_tokens(build_prompt(current)) > max_tokens:
        if not current.examples:
            raise BudgetTooSmallError(
                f"zero-shot prompt exceeds budget of {max_tokens} tokens"
            )
        current = replace(current, examples=current.examples[:-1])
    return current
