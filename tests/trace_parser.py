"""Parser of the trace text format: the oracle of the serializer's round-trip
and fuzz tests."""

from __future__ import annotations

import re

from orion.trace import (
    TAG_QUERY,
    TAG_THINK,
    TAG_TOPK,
    TAG_USER,
    RetrievedDoc,
    SearchState,
    TraceError,
    Turn,
)


class TraceParseError(TraceError):
    """Text does not parse as a trace (unbalanced, nested, or missing tags)."""


class TagOrderError(TraceParseError):
    """Tags present but out of the think -> search_query -> top_k_response order."""


_TAG_TOKEN_RE = re.compile(r"</?(?:%s|%s|%s|%s)>" % (TAG_USER, TAG_THINK, TAG_QUERY, TAG_TOPK))
_RESULT_LINE_RE = re.compile(r"(\d+)\. (.*)$")


class _TagStream:
    def __init__(self, text: str):
        self.text = text
        self.tokens = list(_TAG_TOKEN_RE.finditer(text))
        self.pos = 0
        self.cursor = 0  # char offset after the last consumed tag

    def exhausted(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek_name(self) -> str:
        return self.tokens[self.pos].group(0)

    def take_span(self, tag: str) -> str:
        """Consume `<tag>content</tag>`, returning the verbatim content."""
        if self.exhausted():
            raise TraceParseError(f"expected <{tag}>, found end of text")
        opener = self.tokens[self.pos]
        if opener.group(0) != f"<{tag}>":
            got = opener.group(0)
            if got in (f"<{TAG_THINK}>", f"<{TAG_QUERY}>", f"<{TAG_TOPK}>", f"<{TAG_USER}>"):
                raise TagOrderError(f"expected <{tag}>, found {got}")
            raise TraceParseError(f"expected <{tag}>, found {got}")
        gap = self.text[self.cursor : opener.start()]
        if gap.strip():
            raise TraceParseError(f"unexpected content between spans: {gap.strip()[:40]!r}")
        if self.pos + 1 >= len(self.tokens):
            raise TraceParseError(f"unclosed <{tag}>")
        closer = self.tokens[self.pos + 1]
        if closer.group(0) != f"</{tag}>":
            raise TraceParseError(
                f"unclosed <{tag}>: found {closer.group(0)} before </{tag}>"
            )
        content = self.text[opener.end() : closer.start()]
        self.pos += 2
        self.cursor = closer.end()
        return content

    def finish(self) -> None:
        tail = self.text[self.cursor :]
        if tail.strip():
            raise TraceParseError(f"trailing content after trace: {tail.strip()[:40]!r}")


def _parse_results(content: str) -> tuple[RetrievedDoc, ...]:
    if content == "\n":
        return ()
    if not content.startswith("\n") or not content.endswith("\n"):
        raise TraceParseError("top_k_response must wrap a numbered list in newlines")
    docs: list[RetrievedDoc] = []
    for i, line in enumerate(content[1:-1].split("\n"), 1):
        m = _RESULT_LINE_RE.fullmatch(line)
        # compared as text: int() of a digit string past CPython's length
        # limit raises a bare ValueError, and "01" or non-ASCII digits are not
        # what the serializer writes
        if not m or m.group(1) != str(i):
            raise TraceParseError(f"malformed result line {i}: {line[:40]!r}")
        docs.append(RetrievedDoc(text=m.group(2)))
    return tuple(docs)


def parse_trace(text: str) -> SearchState:
    """Parse the canonical text form back into a trace.

    Contents are recovered verbatim (including inner whitespace). Because the
    text form carries neither scores nor the terminal reason, parsed results
    have id/score None and terminal_reason is None.
    """
    stream = _TagStream(text)
    if stream.exhausted():
        raise TraceParseError(f"missing <{TAG_USER}> span")
    if stream.peek_name() != f"<{TAG_USER}>":
        raise TraceParseError(f"trace must start with <{TAG_USER}>, found {stream.peek_name()}")
    q0 = stream.take_span(TAG_USER)
    turns: list[Turn] = []
    while not stream.exhausted():
        think = stream.take_span(TAG_THINK)
        query = stream.take_span(TAG_QUERY)
        results = _parse_results(stream.take_span(TAG_TOPK))
        turns.append(Turn(think=think, query=query, results=results))
    stream.finish()
    return SearchState(original_query=q0, history=tuple(turns))
