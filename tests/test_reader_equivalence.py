"""Randomized equivalence: the token-free reader vs a tokenize oracle.

:func:`repro.format.sexpr.parse_all` scans straight into nested lists.
The oracle below is the reader it replaced — a tree builder driven by
the public positional lexer :func:`tokenize` — kept here so every
generated or mutated input must give the same tree (with the same atom
types), or the same :class:`FormatError` message, line and column.
"""

from __future__ import annotations

import random

import pytest

from repro.core.errors import FormatError
from repro.corpus.generate import make_media_document
from repro.format.sexpr import Symbol, dump, parse_all, tokenize
from repro.format.writer import write_document


def oracle_parse_all(text: str) -> list[object]:
    """The tokenize-driven tree builder (the retained reference)."""
    stack: list[list[object]] = [[]]
    opens = []
    for token in tokenize(text):
        if token.kind == "open":
            stack.append([])
            opens.append(token)
        elif token.kind == "close":
            if len(stack) == 1:
                raise FormatError("unbalanced ')'", token.line, token.column)
            finished = stack.pop()
            opens.pop()
            stack[-1].append(finished)
        else:
            stack[-1].append(token.value)
    if len(stack) != 1:
        raise FormatError("unbalanced '('", opens[-1].line, opens[-1].column)
    return stack[0]


def typed(expression: object) -> object:
    """A comparison key that tells 1, 1.0, "a" and Symbol("a") apart."""
    if isinstance(expression, list):
        return ["list", [typed(item) for item in expression]]
    return [type(expression).__name__, repr(expression)]


def outcome(reader, text: str) -> tuple:
    try:
        return ("tree", typed(reader(text)))
    except FormatError as error:
        return ("error", str(error), error.line, error.column)


ATOMS = ["a", "seq", "par", "x-1", "inf", "-inf", "nan", "Infinity",
         "0", "-5", "+7", "2.5", "-0.25", "1e3", "1e", ".", "-", "+",
         "true", "false", "ab\"cd", "é", "a\\b"]
STRINGS = ["", "plain", "two words", "line\nbreak", 'quote"inside',
           "back\\slash", "tab\there", "semi;colon", "(paren)"]


def random_expression(rng: random.Random, depth: int = 0) -> object:
    roll = rng.random()
    if depth < 4 and roll < 0.35:
        return [random_expression(rng, depth + 1)
                for _ in range(rng.randrange(0, 5))]
    if roll < 0.6:
        return Symbol(rng.choice([a for a in ATOMS if '"' not in a]))
    if roll < 0.75:
        return rng.choice(STRINGS)
    if roll < 0.9:
        return rng.randrange(-1000, 1000)
    return rng.uniform(-1e6, 1e6)


def random_source(rng: random.Random) -> str:
    """Dumped expressions with comments, raw atoms and odd spacing."""
    pieces = []
    for _ in range(rng.randrange(1, 4)):
        pieces.append(dump(random_expression(rng), width=rng.choice(
            [10, 40, 76])))
        if rng.random() < 0.3:
            pieces.append("; a comment (with \"quotes\"\n")
        if rng.random() < 0.3:
            pieces.append(rng.choice(ATOMS))
    return rng.choice([" ", "\n", "\t", "  \r\n"]).join(pieces)


MUTATIONS = ["(", ")", '"', "\\", ";", "\n", " ", "\\q", "\\n", "\\",
             "inf", "nan", "1.5", "-", '"a\\', "\t", "\x0c", "\r\n",
             "\u00a0", "\u2028"]


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randrange(1, 4)):
        at = rng.randrange(0, len(text) + 1)
        roll = rng.random()
        if roll < 0.5:
            text = text[:at] + rng.choice(MUTATIONS) + text[at:]
        elif roll < 0.8 and text:
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at]
    return text


class TestReaderEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_generated_sources(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            text = random_source(rng)
            assert outcome(parse_all, text) == outcome(oracle_parse_all,
                                                       text)

    @pytest.mark.parametrize("seed", range(8))
    def test_mutated_sources(self, seed):
        rng = random.Random(1000 + seed)
        errors = 0
        for _ in range(150):
            text = mutate(rng, random_source(rng))
            expected = outcome(oracle_parse_all, text)
            assert outcome(parse_all, text) == expected, text
            errors += expected[0] == "error"
        assert errors > 0   # the mutations do reach the error paths

    @pytest.mark.parametrize("seed", [3, 11])
    def test_real_documents_and_their_mutations(self, seed):
        text = write_document(make_media_document(seed, events=30,
                                                  rich=True, links=2))
        assert outcome(parse_all, text) == outcome(oracle_parse_all, text)
        rng = random.Random(seed)
        for _ in range(25):
            mutated = mutate(rng, text)
            assert (outcome(parse_all, mutated)
                    == outcome(oracle_parse_all, mutated))

    @pytest.mark.parametrize("text", [
        '"no closing quote', '(a "b\\q" c)', '(a\n "x\ny\\z")',
        '"ends in backslash\\', "(a))", "((a)", "(\n (b\n", "",
        "; only a comment", "x ; trailing", '"a\\\nb"', "(a\x0cb)",
    ])
    def test_edge_cases(self, text):
        assert outcome(parse_all, text) == outcome(oracle_parse_all, text)

    def test_symbols_are_shared_within_one_parse(self):
        first, second = parse_all("(name x) (name y)")
        assert first[0] is second[0]
