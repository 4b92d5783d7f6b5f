"""XML prompt assembly for causal classification and tagging.

Rendered element schema (documented contract, see README):

    <prompt>
      <instructions>...</instructions>
      <rules><rule n="1">...</rule>...</rules>
      <examples count="K" zero_shot="false">
        <example rank="1" label="1">
          <text>...</text>
          <causes><cause>...</cause></causes>
          <effects><effect>...</effect></effects>
          <triggers><trigger>...</trigger></triggers>
          <tagged_sentence>...</tagged_sentence>
        </example>
      </examples>
      <query>...</query>
      <output_format>...</output_format>
    </prompt>

All content is entity-escaped; identical specs render byte-identically.
Text holding a character that XML 1.0 cannot carry is refused.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from xml.etree import ElementTree as ET

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
# U+FFFE/U+FFFF); ElementTree writes them as-is and no parser reads them back
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


def build_prompt(spec: PromptSpec) -> str:
    """Deterministic well-formed XML string for one classification call."""
    root = ET.Element("prompt")
    ET.SubElement(root, "instructions").text = INSTRUCTIONS

    rules_el = ET.SubElement(root, "rules")
    for n, rule in enumerate(spec.rules, start=1):
        rule_el = ET.SubElement(rules_el, "rule", {"n": str(n)})
        rule_el.text = rule

    examples_el = ET.SubElement(
        root,
        "examples",
        {
            "count": str(len(spec.examples)),
            "zero_shot": "true" if not spec.examples else "false",
        },
    )
    for example in spec.examples:
        ex_el = ET.SubElement(
            examples_el,
            "example",
            {"rank": str(example.rank), "label": str(example.label)},
        )
        ET.SubElement(ex_el, "text").text = example.event_text
        causes_el = ET.SubElement(ex_el, "causes")
        for text in example.cause_texts:
            ET.SubElement(causes_el, "cause").text = text
        effects_el = ET.SubElement(ex_el, "effects")
        for text in example.effect_texts:
            ET.SubElement(effects_el, "effect").text = text
        triggers_el = ET.SubElement(ex_el, "triggers")
        for text in example.trigger_texts:
            ET.SubElement(triggers_el, "trigger").text = text
        ET.SubElement(ex_el, "tagged_sentence").text = example.tagged_text

    ET.SubElement(root, "query").text = spec.query_sentence
    ET.SubElement(root, "output_format").text = OUTPUT_CONTRACT

    ET.indent(root)
    prompt = ET.tostring(root, encoding="unicode")
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
