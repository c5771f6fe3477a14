"""Minimal s-expression reader.

Forms are parenthesized lists of symbols; `;` starts a comment that runs to
end of line.  Symbols are bare tokens (no string or numeric literals -- the
formula language treats everything as a symbol).  The reader returns nested
``list`` / ``str`` structures.

One regular expression splits the text into `(`, `)` and symbols, skipping
blanks and comments, and a stack of open lists builds the forms.  A
`ParseError` carries the line and column of the offending token (or of the
end of input), worked out from its offset when the error is raised.
"""

from __future__ import annotations

import re

from .errors import ParseError

# Each match skips any blanks and comments, then takes one token; it takes
# none (group 1 is None) only at the end of the text.  Since the token is
# optional, the first way the pattern matches is the greedy one, so no
# comment is ever cut short to make a symbol of its tail.
_TOKEN = re.compile(r"(?:\s+|;[^\n]*)*([()]|[^\s();]+)?")


def _error(text: str, offset: int, message: str) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _forms(text: str, one: bool) -> list:
    """The top-level forms of `text`; with `one`, any token after the first
    complete form is an error."""
    forms: list = []
    items = forms  # the innermost open list
    open_lists: list = []  # the lists that enclose it
    for m in _TOKEN.finditer(text):
        token = m.group(1)
        if token is None:
            break
        if one and forms:
            raise _error(text, m.start(1), "trailing input after form")
        if token == "(":
            open_lists.append(items)
            items = []
        elif token == ")":
            if not open_lists:
                raise _error(text, m.start(1), "unexpected ')'")
            done, items = items, open_lists.pop()
            items.append(done)
        else:
            items.append(token)
    if open_lists:
        raise _error(text, len(text), "unclosed '('")
    return forms


def read(text: str):
    """Read exactly one form; trailing non-blank input is an error."""
    forms = _forms(text, one=True)
    if not forms:
        raise _error(text, len(text), "unexpected end of input")
    return forms[0]


def read_all(text: str) -> list:
    return _forms(text, one=False)


def write(form) -> str:
    if isinstance(form, str):
        return form
    return "(" + " ".join(write(f) for f in form) + ")"
