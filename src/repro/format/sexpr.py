"""S-expression substrate for the concrete CMIF syntax.

The paper states that "we have created CMIF documents to be
human-readable"; the reference report's concrete grammar [Rossum91] is
not available, so this reproduction defines a parenthesized concrete
syntax directly from the abstract structures of figures 6, 7 and 9 (the
substitution is recorded in DESIGN.md).  This module supplies the
reader/printer for the underlying s-expressions; the CMIF-specific
grammar lives in :mod:`repro.format.parser` and
:mod:`repro.format.writer`.

Data model: an expression is a :class:`Symbol`, a ``str`` (quoted
string), an ``int``/``float``, or a ``list`` of expressions.  Comments
run from ``;`` to end of line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, NoReturn

from repro.core.errors import FormatError


@dataclass(frozen=True)
class Symbol:
    """A bare (unquoted) token, the concrete form of the paper's ID values."""

    text: str

    def __post_init__(self) -> None:
        if not self.text or any(ch.isspace() for ch in self.text):
            raise FormatError(f"symbol cannot be empty or contain "
                              f"whitespace: {self.text!r}")

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (for error messages)."""

    kind: str        # 'open' | 'close' | 'string' | 'number' | 'symbol'
    value: object
    line: int
    column: int


_DELIMITERS = set("()\";")
#: The string escapes: ``\\``, ``\"``, ``\n``, ``\t``.
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}

#: One master scanner instead of the seed's char-by-char loop: every
#: position matches exactly one alternative (atoms swallow anything that
#: is not whitespace or a delimiter), except a ``"`` opening a string
#: with escapes/newlines, which falls through to :func:`_read_string`.
#: The parse stage is the corpus-ingest pipeline's front door, so the
#: tokenizer is the one place in the format layer worth this treatment.
_TOKEN_RE = re.compile(
    r"""[^\S\n]+                  # whitespace except newline: skip
      | \n+                       # newlines: tracked for positions
      | ;[^\n]*                   # comment to end of line
      | (?P<open>\()
      | (?P<close>\))
      | (?P<string>"[^"\\\n]*")   # fast path: no escapes, single line
      | (?P<atom>[^\s()";]+)
    """, re.VERBOSE)


def tokenize(text: str) -> Iterator[Token]:
    """Tokenize s-expression source text, tracking line/column."""
    line = 1
    line_start = 0   # offset of the current line's first character
    position = 0
    length = len(text)
    match = _TOKEN_RE.match
    while position < length:
        found = match(text, position)
        if found is None:
            # Only a quote can fail the master pattern: a string with
            # escapes, embedded newlines, or no terminator.
            column = position - line_start + 1
            value, consumed, newlines, end_column = _read_string(
                text, position, line, column)
            yield Token("string", value, line, column)
            position += consumed
            if newlines:
                line += newlines
                line_start = position - (end_column - 1)
            continue
        kind = found.lastgroup
        start = found.start()
        end = found.end()
        if kind is None:            # whitespace, newlines or a comment
            if text[start] == "\n":
                line += end - start
                line_start = end
            position = end
            continue
        column = start - line_start + 1
        if kind == "atom":
            word = found.group("atom")
            number = _try_number(word)
            if number is not None:
                yield Token("number", number, line, column)
            else:
                yield Token("symbol", Symbol(word), line, column)
        elif kind == "string":
            yield Token("string", text[start + 1:end - 1], line, column)
        elif kind == "open":
            yield Token("open", "(", line, column)
        else:
            yield Token("close", ")", line, column)
        position = end


def _read_string(text: str, start: int, line: int,
                 column: int) -> tuple[str, int, int, int]:
    """Read a quoted string starting at ``text[start]`` (a ``\"``).

    Returns (value, characters consumed, newlines inside, column after).
    Supports the escapes ``\\\\``, ``\\\"``, ``\\n``, ``\\t``.
    """
    out: list[str] = []
    i = start + 1
    newlines = 0
    current_column = column + 1
    while i < len(text):
        ch = text[i]
        if ch == '"':
            return "".join(out), i - start + 1, newlines, current_column + 1
        if ch == "\\":
            if i + 1 >= len(text):
                break
            escape = text[i + 1]
            if escape not in _ESCAPES:
                raise FormatError(f"unknown string escape \\{escape}",
                                  line, current_column)
            out.append(_ESCAPES[escape])
            i += 2
            current_column += 2
            continue
        if ch == "\n":
            newlines += 1
            current_column = 1
        else:
            current_column += 1
        out.append(ch)
        i += 1
    raise FormatError("unterminated string literal", line, column)


def _try_number(word: str) -> int | float | None:
    """Parse ``word`` as a number, or None when it is a symbol."""
    # Cheap reject before the exception-priced parses: every numeric
    # token starts with a digit, sign or dot; most atoms are names.
    if word[0] not in "+-.0123456789":
        return None
    try:
        return int(word)
    except ValueError:
        pass
    try:
        value = float(word)
    except ValueError:
        return None
    # Reject words like 'inf'/'nan' as numbers; they read as symbols so
    # the CMIF grammar can give 'inf' its own meaning (unbounded delay).
    if word.lower() in ("inf", "-inf", "nan", "infinity", "-infinity"):
        return None
    return value


#: The reader's scanner.  Each match is one token with the whitespace
#: and comments before it folded in, so trivia never reaches Python.
#: Strings with escapes or newlines get their own alternative, and a
#: lone ``"`` (an unterminated string) matches ``bad`` so no position
#: is ever skipped.  A match with no group is trailing trivia.
_READ_RE = re.compile(
    r"""(?:\s|;[^\n]*)*
      (?: (?P<atom>[^\s()";]+)
        | (?P<open>\()
        | (?P<close>\))
        | "(?P<string>[^"\\\n]*)"
        | (?P<escaped>"(?:[^"\\]|\\[\s\S])*")
        | (?P<bad>")
      )?""", re.VERBOSE)

_ESCAPE_RE = re.compile(r"\\([\s\S])")
_MISSING = object()


def parse_all(text: str) -> list[object]:
    """Parse the source text into a list of top-level expressions.

    Scans straight into nested lists: no :class:`Token` objects, and
    line/column are derived from the offset only when raising.  Atoms
    are decoded once per distinct text per parse, so each distinct
    :class:`Symbol` is built (and validated) once and then shared.
    """
    current: list[object] = []
    stack: list[list[object]] = []
    atoms: dict[str, object] = {}
    for found in _READ_RE.finditer(text):
        kind = found.lastgroup
        if kind == "atom":
            word = found.group(kind)
            value = atoms.get(word, _MISSING)
            if value is _MISSING:
                value = _try_number(word)
                if value is None:
                    value = Symbol(word)
                atoms[word] = value
            current.append(value)
        elif kind == "open":
            stack.append(current)
            current = []
        elif kind == "close":
            if not stack:
                line, column = _position(text, found.start(kind))
                raise FormatError("unbalanced ')'", line, column)
            finished = current
            current = stack.pop()
            current.append(finished)
        elif kind == "string":
            current.append(found.group(kind))
        elif kind == "escaped":
            current.append(_unescape(text, found.start(kind),
                                     found.group(kind)))
        elif kind == "bad":
            _raise_string_error(text, found.start(kind))
    if stack:
        line, column = _position(text, _unclosed_open(text))
        raise FormatError("unbalanced '('", line, column)
    return current


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, column) of ``text[offset]``."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


def _unescape(text: str, start: int, literal: str) -> str:
    """Decode a quoted string with escapes (``literal`` keeps quotes)."""
    def replace(escape: re.Match) -> str:
        value = _ESCAPES.get(escape.group(1))
        if value is None:
            _raise_string_error(text, start)
        return value
    return _ESCAPE_RE.sub(replace, literal[1:-1])


def _raise_string_error(text: str, start: int) -> NoReturn:
    """Raise the positional error for the bad string at ``text[start]``.

    Reuses the lexer's string reader so the message, line and column
    are exactly those :func:`tokenize` reports.  The scanner sends only
    unterminated strings and strings with an unknown escape here, and
    the reader raises on both.
    """
    line, column = _position(text, start)
    _read_string(text, start, line, column)
    raise AssertionError(f"the string at offset {start} is well formed")


def _unclosed_open(text: str) -> int:
    """Offset of the innermost ``(`` still open at the end of ``text``."""
    opens: list[int] = []
    for found in _READ_RE.finditer(text):
        kind = found.lastgroup
        if kind == "open":
            opens.append(found.start(kind))
        elif kind == "close":
            opens.pop()
    return opens[-1]


def parse_one(text: str) -> object:
    """Parse exactly one expression from the source text."""
    expressions = parse_all(text)
    if len(expressions) != 1:
        raise FormatError(
            f"expected exactly one expression, found {len(expressions)}")
    return expressions[0]


def dump(expression: object, indent: int = 0, width: int = 76) -> str:
    """Pretty-print an expression with indentation.

    Short lists are kept on one line; long ones break after the head so
    documents stay readable — the property the paper wants from the
    interchange form.
    """
    flat = _dump_flat(expression)
    if len(flat) + indent <= width or not isinstance(expression, list):
        return flat
    if not expression:
        return "()"
    head = _dump_flat(expression[0])
    lines = ["(" + head]
    pad = " " * (indent + 2)
    for item in expression[1:]:
        lines.append(pad + dump(item, indent + 2, width))
    return "\n".join(lines) + ")"


def _dump_flat(expression: object) -> str:
    """Single-line rendering of an expression."""
    if isinstance(expression, list):
        return "(" + " ".join(_dump_flat(item) for item in expression) + ")"
    if isinstance(expression, Symbol):
        return expression.text
    if isinstance(expression, str):
        escaped = (expression.replace("\\", "\\\\").replace('"', '\\"')
                   .replace("\n", "\\n").replace("\t", "\\t"))
        return f'"{escaped}"'
    if isinstance(expression, bool):
        return "true" if expression else "false"
    if isinstance(expression, float):
        # repr() is the shortest representation that round-trips exactly;
        # integral floats drop the trailing ".0" for readability.
        if expression.is_integer() and abs(expression) < 1e16:
            return str(int(expression))
        return repr(expression)
    if isinstance(expression, int):
        return str(expression)
    raise FormatError(f"cannot serialize {expression!r} as an s-expression")


def head_symbol(expression: object) -> str | None:
    """The head symbol text of a list expression, or None."""
    if (isinstance(expression, list) and expression
            and isinstance(expression[0], Symbol)):
        return expression[0].text
    return None
