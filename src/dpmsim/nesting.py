"""How deep a YAML text nests flow collections, read as PyYAML's pure scanner reads it.

PyYAML's pure-Python scanner takes time quadratic in the flow nesting
before its composer, which recurses per level, gives up. flow_nested_past
answers the same question in one pass that does not recurse, so that
scenario.py can refuse such a text before the pure loader reads it.
"""

from __future__ import annotations

import re

import yaml

# A block scalar's header after its | or >: indicators, then a comment at most.
_BLOCK_HEADER = re.compile(r"(?:[+-]([1-9]?)|([1-9])[+-]?)?(?: +(?:#.*)?)?(?:\n|\Z)")
_QUOTED_STOP = {"'": re.compile("'"), '"': re.compile(r'["\\]')}
# The line breaks other than \n, which this pass does not follow.
_UNFOLLOWED = re.compile("[\r\x85\u2028\u2029]")
_BLANK = ("", " ", "\t", "\n")  # what follows an indicator or a document marker


def flow_nested_past(text: str, limit: int) -> bool:
    """Whether the pure scanner would open more than limit flow collections.

    One pass by that scanner's rules: it skips comments and quoted, block
    and plain scalars, counts a bracket only where a token starts, and
    keeps the block indentation only as far as it decides where a
    multi-line plain or block scalar ends. It answers False at what it
    does not follow: a tab between tokens, a tag, an anchor, an alias, a
    directive, a document marker, an explicit key, a line break other
    than \\n, mismatched brackets; the loader then reads the text. It
    checks no other syntax, so a text nested past the limit is refused
    for that even where a syntax error comes first.
    """
    if text.count("[") + text.count("{") <= limit:
        return False
    if _UNFOLLOWED.search(text) or yaml.reader.Reader.NON_PRINTABLE.search(text):
        return False
    n = len(text)
    i = 0
    closers: list[str] = []  # one per open flow collection
    indents = [-1]  # the block collections' columns, innermost last
    key_col = -1  # the column of the node that a block ":" would make a key
    while i < n:
        ch = text[i]
        if ch == " " or ch == "\n":
            if ch == "\n" and not closers:
                key_col = -1
            i += 1
            continue
        if ch == "#":
            i = text.find("\n", i)
            if i < 0:
                break
            continue
        if text.startswith(("---", "..."), i) and text[i - 1:i] in ("", "\n") and text[i + 3:i + 4] in _BLANK:
            return False  # a document marker
        flow = bool(closers)
        blank_next = text[i + 1:i + 2] in _BLANK
        if not flow:
            col = i - text.rfind("\n", 0, i) - 1
            while indents[-1] > col:
                indents.pop()
            if not (ch in "-?:" and blank_next):
                key_col = col  # a node starts here
        if ch in "[{":
            closers.append("]" if ch == "[" else "}")
            if len(closers) > limit:
                return True
            i += 1
        elif ch in "]}":
            if not closers or closers.pop() != ch:
                return False
            i += 1
        elif flow and ch in ",:":
            i += 1
        elif ch == ":" and blank_next:
            if key_col < 0:
                return False
            if key_col > indents[-1]:
                indents.append(key_col)
            key_col = -1
            i += 1
        elif ch == "-" and blank_next and not flow:
            if col > indents[-1]:
                indents.append(col)
            key_col = -1
            i += 1
        elif ch in "'\"":
            i = _skip_quoted(text, i)
        elif ch in "|>" and not flow:
            i = _skip_block_scalar(text, i + 1, indents[-1])
        elif ch in ",?\t&*!|>%@`" and (flow or ch != "?" or blank_next):
            return False
        else:
            end = _skip_plain(text, i, flow, indents[-1] + 1)
            i = end if end > i else -1
        if i < 0:
            return False
    return False


def _skip_quoted(text: str, i: int) -> int:
    """The end of the quoted scalar at i, or -1 when it is not closed."""
    stop = _QUOTED_STOP[text[i]]
    i += 1
    while m := stop.search(text, i):
        i = m.end()
        if m.group() == "\\":
            i += 1  # the escaped character
        elif not text.startswith("''", m.start()):
            return i
        else:
            i += 1  # '' stands for one quote
    return -1


def _skip_plain(text: str, i: int, flow: bool, indent: int) -> int:
    """The end of the plain scalar at i, as the pure scanner finds it."""
    n = len(text)
    stops = " \t\n,?[]{}" if flow else " \t\n"
    ends_after_colon = _BLANK + tuple(",[]{}") if flow else _BLANK
    while i < n and text[i] != "#":
        start = i
        while i < n and text[i] not in stops and not (text[i] == ":" and text[i + 1:i + 2] in ends_after_colon):
            i += 1
        if i == start:
            break
        j = i
        while j < n and text[j] == " ":
            j += 1
        if not text.startswith("\n", j):
            if j == i:
                break  # neither a space nor a line break follows the chunk
        else:
            while j < n and text[j] in " \n":
                if text[j] == "\n" and text.startswith(("---", "..."), j + 1) and text[j + 4:j + 5] in _BLANK:
                    return j + 1
                j += 1
            if not flow and j - text.rfind("\n", 0, j) - 1 < indent:
                return j
        i = j
    return i


def _skip_block_scalar(text: str, i: int, parent_indent: int) -> int:
    """The end of the block scalar whose header starts at i, or -1 on a bad header."""
    header = _BLOCK_HEADER.match(text, i)
    if not header:
        return -1
    i = header.end()
    n = len(text)
    indent = max(parent_indent + 1, 1)
    increment = header.group(1) or header.group(2)
    col = 0
    if increment:
        indent += int(increment) - 1
    else:
        # The deepest run of leading spaces before the first content line.
        while i < n and text[i] in " \n":
            col = col + 1 if text[i] == " " else 0
            indent = max(indent, col)
            i += 1
    while True:
        # A line may spend up to indent spaces; one that reaches it holds content.
        while col < indent and text.startswith(" ", i):
            i, col = i + 1, col + 1
        if text.startswith("\n", i):
            i, col = i + 1, 0
        elif col == indent and i < n:
            i = text.find("\n", i)
            if i < 0:
                return n
        else:
            return i
