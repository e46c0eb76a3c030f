"""The one scanner (term_core.scan) against reference copies of the three
per-token scanners it replaced: tokens, kinds, positions and the first
"unexpected character" error agree on seeded random strings, and the
parsers built on the scanner raise that error wherever it comes.

    PYTHONPATH=src python tests/test_scanner.py 200000

runs the comparison on more strings per grammar than the suite does.
"""

import random
import re
import sys

import pytest

from coinfer.cosld_engine import _QTOKEN, EngineError, _query_kind, parse_query
from coinfer.horn_compiler import _PTOKEN, ProgramError, _program_kind, parse_program
from coinfer.term_core import (
    _TYPE_TOKENS,
    ParseError,
    _kind,
    parse_type,
    parse_value,
    scan,
    token_position,
    token_spans,
)

# ---------------------------------------------------------------------------
# reference scanners, verbatim

_TOKEN = re.compile(r"""
    (?P<space>[ \t\r]+)
  | (?P<newline>\n)
  | (?P<comment>\#[^\n]*)
  | (?P<symbol>->|\\/|[=;()\[\],:])
  | (?P<word>[^\W\d]\w*)
  | (?P<int>-?\d+)
""", re.VERBOSE)


def _scan(src):
    """Tokens (kind, text, line, col) of src, ending with an EOF token."""
    tokens = []
    line, line_start, col_end = 1, 0, 0
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        kind = m.lastgroup if m else None
        # \w also matches numerals such as "½" and "²", which start no token
        if kind is None or (kind == "word" and not (src[pos].isalpha() or src[pos] == "_")):
            raise ParseError("unexpected character %r" % src[pos], line, pos - line_start + 1)
        text = m.group()
        col = pos - line_start + 1
        pos = m.end()
        if kind == "comment":
            continue
        col_end = pos
        if kind == "newline":
            line += 1
            line_start = pos
        elif kind == "symbol":
            tokens.append((text, text, line, col))
        elif kind == "word":
            tokens.append(("VAR" if text[0].isupper() else "IDENT", text, line, col))
        elif kind == "int":
            tokens.append(("INT", text, line, col))
    tokens.append(("EOF", "", line, col_end - line_start + 1))
    return tokens


_KEYWORDS = ("class", "extends", "this", "new", "return")

# One alternative per token class.  Comments do not advance the column,
# which only shows in the position of a final EOF token.
_PTOKEN_REF = re.compile(r"""
    (?P<space>[ \t\r]+)
  | (?P<newline>\n)
  | (?P<comment>(?:\#|//)[^\n]*)
  | (?P<symbol>[{}();,.=])
  | (?P<word>[^\W\d]\w*)
  | (?P<int>[0-9]+)
""", re.VERBOSE)


def _scan_program(src):
    """Tokens (kind, text, line, col) of src, ending with an EOF token."""
    toks = []
    line, line_start, col_end = 1, 0, 0
    pos = 0
    while pos < len(src):
        m = _PTOKEN_REF.match(src, pos)
        kind = m.lastgroup if m else None
        # \w also matches numerals such as "½" and "²", which start no token
        if kind is None or (kind == "word" and not (src[pos].isalpha() or src[pos] == "_")):
            raise ProgramError("line %d, col %d: unexpected character %r"
                               % (line, pos - line_start + 1, src[pos]))
        text = m.group()
        col = pos - line_start + 1
        pos = m.end()
        if kind == "comment":
            continue
        col_end = pos
        if kind == "newline":
            line += 1
            line_start = pos
        elif kind == "symbol":
            toks.append((text, text, line, col))
        elif kind == "word":
            toks.append((text if text in _KEYWORDS else "IDENT", text, line, col))
        elif kind == "int":
            toks.append(("INT", text, line, col))
    toks.append(("EOF", "", line, col_end - line_start + 1))
    return toks


# One alternative per token class.  Comments do not advance the column,
# which only shows in the position of a final EOF token.
_QTOKEN_REF = re.compile(r"""
    (?P<space>[ \t\r]+)
  | (?P<newline>\n)
  | (?P<comment>\#[^\n]*)
  | (?P<symbol>\\/|:-|[()\[\],:;=|.])
  | (?P<word>[^\W\d]\w*)
  | (?P<int>[0-9]+)
""", re.VERBOSE)


def _scan_query(src):
    """Tokens (kind, text, line, col, start, end) of src, ending with an
    EOF token."""
    toks = []
    line, line_start, col_end = 1, 0, 0
    pos = 0
    while pos < len(src):
        m = _QTOKEN_REF.match(src, pos)
        kind = m.lastgroup if m else None
        # \w also matches numerals such as "½" and "²", which start no token
        if kind is None or (kind == "word" and not (src[pos].isalpha() or src[pos] == "_")):
            raise EngineError("line %d, col %d: unexpected character %r"
                              % (line, pos - line_start + 1, src[pos]))
        text = m.group()
        col = pos - line_start + 1
        start, pos = pos, m.end()
        if kind == "comment":
            continue
        col_end = pos
        if kind == "newline":
            line += 1
            line_start = pos
        elif kind == "symbol":
            toks.append((text, text, line, col, start, pos))
        elif kind == "word":
            word_kind = "VAR" if (text[0].isupper() or text[0] == "_") else "IDENT"
            toks.append((word_kind, text, line, col, start, pos))
        elif kind == "int":
            toks.append(("INT", text, line, col, start, pos))
    toks.append(("EOF", "", line, col_end - line_start + 1, len(src), len(src)))
    return toks


# ---------------------------------------------------------------------------
# the comparison

# grammar -> (reference scanner, pattern, kind, parsers that must raise
# the reference's scanner error, the exception they raise)
GRAMMARS = {
    "type": (_scan, _TYPE_TOKENS, _kind, (parse_type, parse_value), ParseError),
    "program": (_scan_program, _PTOKEN, _program_kind, (parse_program,), ProgramError),
    "query": (_scan_query, _QTOKEN, _query_kind, (parse_query,), EngineError),
}

# fragments of every token class and of comments, and characters that
# start no token in some grammar: "²" and "½" are \w but no letter, "٣" a
# non-ASCII digit, "Ⓐ" and "Ⅻ" are upper case but no letter
PIECES = (
    "X", "Nat", "_", "_x", "a", "root", "obj", "int", "class", "this", "new",
    "extends", "return", "é", "Ω", "ǅ", "0", "42", "-3", "->", "\\/", ":-",
    "=", ";", "(", ")", "[", "]", ",", ":", "{", "}", ".", "|", " ", "  ",
    "\t", "\r", "\n", "\n\n", "# note", "#", "// c",
)
ODD = ("-", ">", "\\", "/", "²", "½", "a²", "٣", "x٣", "Ⓐ", "Ⅻ", "\x0c", "\u00a0", "$")


def random_source(rng):
    parts = [rng.choice(ODD if rng.random() < 0.06 else PIECES)
             for _ in range(rng.randrange(13))]
    if rng.random() < 0.2:
        parts.append(rng.choice(("# tail", "// tail", "#", " # x\n# y")))
    return "".join(parts)


def _unexpected(exc):
    """(message, line, col) of a reference scanner error."""
    m = re.fullmatch(r"line (\d+), col (\d+): (.*)", str(exc), re.S)
    return m.group(3), int(m.group(1)), int(m.group(2))


def compare(grammar, src):
    """Assert that scan() and its helpers read src as the reference does."""
    ref_scan, pattern, kind, parsers, error = GRAMMARS[grammar]
    texts = scan(src, pattern)
    bad = next((k for k, t in enumerate(texts) if kind(t) is None), None)
    try:
        ref = ref_scan(src)
    except error as exc:
        expected = _unexpected(exc)
        assert bad is not None, (grammar, src)
        got = ("unexpected character %r" % texts[bad][0],) + token_position(src, pattern, bad)
        assert got == expected, (grammar, src)
        for parse in parsers:
            with pytest.raises(error) as info:
                parse(src)
            assert str(info.value) == str(exc), (grammar, src, parse.__name__)
        return
    assert bad is None, (grammar, src)
    assert texts[-1] == "" and "" not in texts[:-1], (grammar, src)
    spans = token_spans(src, pattern)
    got = [(kind(t), t) + token_position(src, pattern, k) + spans[k]
           for k, t in enumerate(texts)]
    assert [g[:len(r)] for g, r in zip(got, ref)] == ref and len(got) == len(ref), (grammar, src)


def run(count, seed=0):
    rng = random.Random(seed)
    for _ in range(count):
        src = random_source(rng)
        for grammar in GRAMMARS:
            compare(grammar, src)


@pytest.mark.parametrize("src", [
    "", "X = int; # c", "X = int;\n# c", "X = int; # c\n", "#", " \t#a\n  ",
    "X = a²", "X = ٣", "x->y", "x -> -3", "x-3", "->-", "Ⓐ", "a\r\nb", "//", "p(X).",
])
@pytest.mark.parametrize("grammar", sorted(GRAMMARS))
def test_fixed_sources(grammar, src):
    compare(grammar, src)


def test_random_sources_agree_with_reference_scanners():
    run(3000, seed=20261019)


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 200000
    run(n, seed=int(sys.argv[2]) if len(sys.argv) > 2 else 1)
    print("%d strings per grammar: scanner and reference agree" % n)
