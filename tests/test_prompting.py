from __future__ import annotations

from dataclasses import replace
from xml.etree import ElementTree as ET

import hypothesis
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causeway.errors import BudgetTooSmallError, XmlCharacterError
from causeway.inference import LLMClient, classify_pieces
from causeway.prompting import (
    _XML_INVALID,
    OUTPUT_CONTRACT,
    PromptSpec,
    build_prompt,
    default_rules,
    estimate_tokens,
    load_rules,
    render_pieces,
    token_budget_trim,
)
from causeway.retrieval import FewShotExample
from helpers import REFERENCE_XML_INVALID, reference_build_prompt, reference_token_budget_trim


def example(rank: int, text: str | None = None) -> FewShotExample:
    text = text or f"example sentence number {rank} with several extra words"
    return FewShotExample(
        rank=rank,
        event_id=f"event:{rank}",
        event_text=text,
        cause_texts=(f"cause {rank}",),
        effect_texts=(f"effect {rank}",),
        trigger_texts=("because",),
        tagged_text=text,
        label=1,
        reconstruction_ok=True,
    )


def test_default_rules_ship_five():
    rules = default_rules()
    assert len(rules) == 5
    assert all(isinstance(r, str) and r for r in rules)


def test_load_rules_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("# comment\n\nfirst rule\nsecond rule\n", encoding="utf-8")
    assert load_rules(path) == ["first rule", "second rule"]


def test_zero_shot_prompt_is_wellformed():
    prompt = build_prompt(PromptSpec(query_sentence="is this causal?", examples=[]))
    root = ET.fromstring(prompt)
    examples_el = root.find("examples")
    assert examples_el.get("count") == "0"
    assert examples_el.get("zero_shot") == "true"
    assert list(examples_el) == []
    assert root.findtext("query") == "is this causal?"
    assert root.findtext("output_format") == OUTPUT_CONTRACT


def test_escaping_roundtrips_special_characters():
    nasty = 'x < y & z > "w" <cause>not a real tag</cause>'
    spec = PromptSpec(query_sentence=nasty, examples=[example(1, text=nasty)])
    prompt = build_prompt(spec)
    root = ET.fromstring(prompt)  # must re-parse as XML
    assert root.findtext("query") == nasty
    assert root.find("examples/example/text").text == nasty


@pytest.mark.parametrize("char", ["\x00", "\x01", "\x0b", "\x1f", "\ud800", "\ufffe"])
def test_xml_invalid_characters_refused(char):
    with pytest.raises(XmlCharacterError):
        build_prompt(PromptSpec(query_sentence=f"bad {char} sentence"))
    with pytest.raises(XmlCharacterError):
        build_prompt(PromptSpec(query_sentence="q", examples=[example(1, f"x{char}")]))
    with pytest.raises(XmlCharacterError):
        build_prompt(PromptSpec(query_sentence="q", rules=[f"rule {char}"]))


def test_xml_legal_unusual_characters_render():
    text = "tab\there, line\nbreak, \u00e9, \U0001f600, \ufffd"
    root = ET.fromstring(build_prompt(PromptSpec(query_sentence=text)))
    assert root.findtext("query") == text


def test_examples_rendered_in_rank_order():
    spec = PromptSpec(
        query_sentence="q", examples=[example(i) for i in range(1, 21)]
    )
    root = ET.fromstring(build_prompt(spec))
    ranks = [el.get("rank") for el in root.findall("examples/example")]
    assert ranks == [str(i) for i in range(1, 21)]


def test_example_children_complete():
    root = ET.fromstring(build_prompt(PromptSpec("q", examples=[example(1)])))
    ex = root.find("examples/example")
    assert ex.get("label") == "1"
    assert ex.findtext("text")
    assert [c.text for c in ex.findall("causes/cause")] == ["cause 1"]
    assert [c.text for c in ex.findall("effects/effect")] == ["effect 1"]
    assert [c.text for c in ex.findall("triggers/trigger")] == ["because"]
    assert ex.findtext("tagged_sentence")


def test_rules_rendered_in_order():
    spec = PromptSpec("q", rules=["alpha rule", "beta rule"])
    root = ET.fromstring(build_prompt(spec))
    rules = root.findall("rules/rule")
    assert [r.text for r in rules] == ["alpha rule", "beta rule"]
    assert [r.get("n") for r in rules] == ["1", "2"]


def test_prompt_determinism():
    spec = PromptSpec("q", examples=[example(1), example(2)])
    assert build_prompt(spec) == build_prompt(spec)


def test_estimator_scales_whitespace_tokens():
    assert estimate_tokens("one two three") == 4  # ceil(3 * 1.3)
    assert estimate_tokens("") == 0


def test_trim_noop_when_budget_large():
    spec = PromptSpec("q", examples=[example(i) for i in range(1, 6)])
    trimmed = token_budget_trim(spec, max_tokens=10_000)
    assert trimmed.examples == spec.examples


def test_trim_keeps_exactly_the_top_examples():
    spec = PromptSpec("q", examples=[example(i) for i in range(1, 21)])
    # independent recomputation over suffix-trimmed specs: find the budget
    # that admits exactly the top five examples
    def cost(n):
        return estimate_tokens(
            build_prompt(PromptSpec("q", examples=spec.examples[:n]))
        )

    budget = cost(5)
    assert cost(6) > budget  # estimator is strictly increasing here
    trimmed = token_budget_trim(spec, max_tokens=budget)
    assert trimmed.examples == spec.examples[:5]
    assert trimmed.rules == spec.rules
    assert trimmed.query_sentence == spec.query_sentence
    assert OUTPUT_CONTRACT in build_prompt(trimmed)


def test_trim_zero_shot_budget_too_small():
    spec = PromptSpec("q", examples=[example(1)])
    with pytest.raises(BudgetTooSmallError):
        token_budget_trim(spec, max_tokens=3)


def test_trim_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        token_budget_trim(PromptSpec("q"), max_tokens=0)


def rendered(render, spec):
    """The prompt, or the refusal's message when XML cannot carry the text."""
    try:
        return render(spec)
    except XmlCharacterError as exc:
        return ("refused", str(exc))


TEXTS = st.one_of(
    st.just(""),
    st.text(st.sampled_from(" \t\r\n"), min_size=1),  # whitespace only
    st.text(
        st.one_of(
            st.sampled_from(list("&<>\"'\r\t\n ;#x")),
            st.characters(),
            st.characters(min_codepoint=0x10000),  # non-BMP
        ),
        max_size=12,
    ),
)
TUPLES = st.lists(TEXTS, max_size=3).map(tuple)
EXAMPLES = st.builds(
    FewShotExample,
    rank=st.integers(1, 40),
    event_id=st.just("event:1"),
    event_text=TEXTS,
    cause_texts=TUPLES,
    effect_texts=TUPLES,
    trigger_texts=TUPLES,
    tagged_text=TEXTS,
    label=st.integers(0, 1),
    reconstruction_ok=st.booleans(),
)
SPECS = st.builds(
    PromptSpec,
    query_sentence=TEXTS,
    examples=st.lists(EXAMPLES, max_size=4),
    rules=st.lists(TEXTS, max_size=3),
)


@settings(max_examples=400, deadline=None)
@given(spec=SPECS)
@hypothesis.example(spec=PromptSpec("", examples=[], rules=[]))
@hypothesis.example(spec=PromptSpec(" ", examples=[example(1, " ")], rules=["\t"]))
def test_build_prompt_writes_what_elementtree_writes(spec):
    assert rendered(build_prompt, spec) == rendered(reference_build_prompt, spec)


def with_text_at(field: str, text: str) -> PromptSpec:
    """A one-rule, one-example spec holding ``text`` in ``field``."""
    base = example(1)
    if field == "query":
        return PromptSpec(query_sentence=text, examples=[base], rules=["r"])
    if field == "rule":
        return PromptSpec(query_sentence="q", examples=[base], rules=[text])
    if field in ("cause_texts", "effect_texts", "trigger_texts"):
        text = (text,)
    return PromptSpec(query_sentence="q", examples=[replace(base, **{field: text})], rules=["r"])


EVERY_CHARACTER = "".join(map(chr, range(0x110000)))
XML_INVALID_CHARACTERS = sorted(
    set(_XML_INVALID.findall(EVERY_CHARACTER))
    | set(REFERENCE_XML_INVALID.findall(EVERY_CHARACTER))
)


@pytest.mark.parametrize(
    "field",
    ["query", "rule", "event_text", "cause_texts", "effect_texts", "trigger_texts",
     "tagged_text"],
)
def test_every_xml_invalid_character_is_refused_as_elementtree_refuses_it(field):
    assert len(XML_INVALID_CHARACTERS) == 32 - 3 + 2048 + 2  # controls, surrogates, FFFE/F
    for char in XML_INVALID_CHARACTERS:
        spec = with_text_at(field, f"a{char}b")
        message = f"prompt text holds {char!r}, which XML 1.0 cannot carry"
        assert rendered(build_prompt, spec) == ("refused", message)
        assert rendered(reference_build_prompt, spec) == ("refused", message)


def test_no_character_xml_refuses_is_printable():
    # render_pieces searches a piece's texts only when they are not all printable
    assert not any(char.isprintable() for char in XML_INVALID_CHARACTERS)


def test_both_examples_blocks_are_four_words():
    # so a prompt's word count is the zero-shot prompt's plus its examples'
    for n in (0, 1, 12):
        prompt = build_prompt(PromptSpec("q", examples=[example(i) for i in range(1, n + 1)]))
        block = [
            line for line in prompt.splitlines() if line.startswith(("  <examples", "  </examples"))
        ]
        assert block == (
            ['  <examples count="0" zero_shot="true" />'] if not n
            else [f'  <examples count="{n}" zero_shot="false">', "  </examples>"]
        )
        assert sum(len(line.split()) for line in block) == 4


def with_fields(rank: int, **texts) -> FewShotExample:
    return replace(example(rank), **texts)


@settings(max_examples=200, deadline=None)
@given(spec=SPECS)
# a bad character only in an example's last text, its tagged sentence
@hypothesis.example(spec=PromptSpec("q", examples=[
    example(1), with_fields(2, tagged_text="tagged \x01"),
], rules=["r"]))
# the first example's bad character is in its tagged sentence, the second's
# in its text, which comes earlier in an example; the query holds a third
@hypothesis.example(spec=PromptSpec("query \x02", examples=[
    with_fields(1, tagged_text="tagged \x03"), with_fields(2, event_text="text \ufffe"),
], rules=["r"]))
# one example's trigger and tagged sentence each hold one: the trigger's is first
@hypothesis.example(spec=PromptSpec("q", examples=[
    with_fields(1, trigger_texts=("because \x05",), tagged_text="tagged \x06"),
], rules=["r"]))
@hypothesis.example(spec=PromptSpec("q", examples=[example(1)], rules=["r", "bad \ud800 rule"]))
def test_every_prefix_prompt_counts_the_words_its_pieces_sum_to(spec):
    pieces = render_pieces(spec)
    for n in range(len(spec.examples) + 1):
        prefix = replace(spec, examples=spec.examples[:n])
        want = rendered(reference_build_prompt, prefix)
        assert rendered(pieces.prompt, n) == want
        if isinstance(want, str):
            assert pieces.words[n] == len(want.split())
            assert pieces.tokens(n) == estimate_tokens(want)


class RecordingClient(LLMClient):
    def __init__(self):
        self.prompts = []

    def complete(self, prompt: str) -> str:
        self.prompts.append(prompt)
        return '{"tagged_sentence": "", "label": 0}'


def outcome(call):
    """What ``call`` returns, or the class and message of what it raises."""
    try:
        return call()
    except (ValueError, BudgetTooSmallError, XmlCharacterError) as exc:
        return (type(exc), str(exc))


# the zero-shot prompts of SPECS estimate at 137 tokens and up
BUDGETS = st.integers(-2, 260)


THREE = PromptSpec("q", examples=[example(1), example(2), example(3)], rules=[])


@settings(max_examples=400, deadline=None)
@given(spec=SPECS, budget=BUDGETS)
@hypothesis.example(spec=THREE, budget=136)  # tokens 137, 177, 218, 258 for 0-3 examples
@hypothesis.example(spec=THREE, budget=137)
@hypothesis.example(spec=THREE, budget=217)
@hypothesis.example(spec=THREE, budget=258)
@hypothesis.example(spec=PromptSpec("q", examples=[example(1, "\x01")], rules=[]), budget=0)
@hypothesis.example(spec=PromptSpec("q", examples=[example(1, "\x01")], rules=[]), budget=1)
def test_a_budget_keeps_and_sends_what_the_reference_trim_loop_keeps(spec, budget):
    want = outcome(lambda: reference_token_budget_trim(spec, budget))
    assert outcome(lambda: token_budget_trim(spec, budget)) == want

    client = RecordingClient()
    n = len(spec.examples)
    sent = outcome(lambda: classify_pieces(n, render_pieces(spec), client, budget, None))
    if isinstance(want, PromptSpec):
        assert client.prompts == [reference_build_prompt(want)]
        assert sent[1:3] == (len(want.examples), client.prompts[0])
    else:
        assert (client.prompts, sent) == ([], want)
