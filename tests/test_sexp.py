"""The s-expression reader against the character-at-a-time reference reader:
the same forms, or the same `ParseError` at the same line and column."""

from __future__ import annotations

import glob
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import SCENARIO_DIR
from dicekit import sexp
from dicekit.errors import ParseError

SCN_FILES = sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.scn"))
                   + glob.glob(os.path.join(os.path.dirname(__file__), "data", "*.scn")))

SYMBOLS = st.sampled_from(["?f:doing", "->", "a1", "that-way", "x"])
BLANKS = st.sampled_from([" ", "\t", "\n", "\r\n", "\u00a0"])
COMMENTS = st.sampled_from([";", "; a (comment)\n", ";no newline", ";;)\r\n"])
PARENS = st.sampled_from(["(", ")", "((", "))"])
BALANCED = st.recursive(
    SYMBOLS,
    lambda inner: st.lists(st.one_of(inner, BLANKS, COMMENTS), max_size=4).map(lambda xs: "(" + " ".join(xs) + ")"),
    max_leaves=8,
)
TEXTS = st.lists(st.one_of(SYMBOLS, BLANKS, COMMENTS, PARENS, BALANCED), max_size=10).map("".join)


def outcome(reader, text):
    try:
        return reader(text)
    except ParseError as e:
        return ("ParseError", str(e), e.line, e.column)


@settings(max_examples=300)
@given(TEXTS)
@example("")
@example(" ;only a comment")
@example("(a (b\r\n  c)")
@example("a ) b")
@example("(a)\n\t(b ; c)\n d")
def test_read_all_agrees_with_the_reference(text):
    assert outcome(sexp.read_all, text) == outcome(reference.read_all_sexp, text)


@settings(max_examples=300)
@given(TEXTS)
@example("")
@example("\n  ; nothing here\n")
@example("(a (b\r\n  c)")
@example("(a) )")
@example("a\r\n b")
@example(") (")
def test_read_agrees_with_the_reference(text):
    assert outcome(sexp.read, text) == outcome(reference.read_sexp, text)


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("", "unexpected end of input", 1, 1),
        ("  ; x\n ", "unexpected end of input", 2, 2),
        ("(a\n (b c)", "unclosed '('", 2, 7),
        ("\n  )", "unexpected ')'", 2, 3),
        ("(a) ; x\n\tb", "trailing input after form", 2, 2),
    ],
)
def test_each_error_names_the_line_and_column_of_its_token(text, message, line, column):
    with pytest.raises(ParseError) as e:
        sexp.read(text)
    assert (str(e.value), e.value.line, e.value.column) == (f"{message} (line {line}, column {column})", line, column)


@pytest.mark.parametrize("path", SCN_FILES, ids=os.path.basename)
def test_every_scenario_file_reads_as_the_reference_reads_it(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    forms = sexp.read_all(text)
    assert forms and forms == reference.read_all_sexp(text)


def test_write_prints_what_read_reads():
    text = "(forall x (> (and (bill x) (bad x)) (veto bush x)))"
    assert sexp.write(sexp.read(text)) == text
