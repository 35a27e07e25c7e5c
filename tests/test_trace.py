from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orion.policy import PolicyError, RemotePolicy
from orion.trace import (
    _ALL_TAG_LITERALS,
    BudgetExceededError,
    RetrievedDoc,
    SearchState,
    TraceError,
    Turn,
    append_turn,
    clean_snippet,
    render_prompt,
    reserved_literal,
    serialize_spans,
    serialize_trace,
    trace_from_dict,
    trace_to_dict,
)

from trace_parser import TagOrderError, TraceParseError, parse_trace


def make_turn(think="考virtual reasoning", query="refined query", n_results=2, **kw):
    results = tuple(RetrievedDoc(text=f"result text {i}") for i in range(n_results))
    return Turn(think=think, query=query, results=results, **kw)


def make_trace(n_turns=1, q0="what is adaptive search", reason=None):
    turns = tuple(
        make_turn(think=f"thinking step {i}", query=f"query {i}") for i in range(n_turns)
    )
    return SearchState(original_query=q0, history=turns, terminal_reason=reason)


class TestSerialize:
    def test_empty_history_is_only_user_query(self):
        text = serialize_trace(make_trace(0))
        assert text == "<user_query>what is adaptive search</user_query>"

    def test_one_turn_layout(self):
        trace = SearchState(
            original_query="Q",
            history=(
                Turn(
                    think="T",
                    query="S",
                    results=(RetrievedDoc(text="aaa"), RetrievedDoc(text="bbb")),
                ),
            ),
        )
        assert serialize_trace(trace) == (
            "<user_query>Q</user_query>\n\n"
            "<think>T</think>\n\n"
            "<search_query>S</search_query>\n\n"
            "<top_k_response>\n1. aaa\n2. bbb\n</top_k_response>"
        )

    def test_tag_order_within_turn(self):
        text = serialize_trace(make_trace(2))
        for a, b in [
            ("<think>", "<search_query>"),
            ("<search_query>", "<top_k_response>"),
        ]:
            assert text.index(a) < text.index(b)

    def test_each_tag_once_per_span(self):
        text = serialize_trace(make_trace(3))
        assert text.count("<think>") == text.count("</think>") == 3
        assert text.count("<search_query>") == 3
        assert text.count("<top_k_response>") == 3
        assert text.count("<user_query>") == 1


class TestParse:
    def test_round_trip_two_turns(self):
        trace = make_trace(2)
        assert parse_trace(serialize_trace(trace)) == trace

    def test_query_before_think_is_order_error(self):
        text = (
            "<user_query>Q</user_query>\n\n"
            "<search_query>S</search_query>\n\n"
            "<think>T</think>"
        )
        with pytest.raises(TagOrderError):
            parse_trace(text)

    def test_unclosed_think(self):
        text = "<user_query>Q</user_query>\n\n<think>T\n\n<search_query>S</search_query>"
        with pytest.raises(TraceParseError, match="unclosed"):
            parse_trace(text)

    def test_missing_user_query(self):
        with pytest.raises(TraceParseError, match="user_query"):
            parse_trace("<think>T</think>")

    def test_incomplete_turn_rejected(self):
        text = "<user_query>Q</user_query>\n\n<think>T</think>"
        with pytest.raises(TraceParseError):
            parse_trace(text)

    def test_content_between_spans_rejected(self):
        text = "<user_query>Q</user_query>\n\nstray words\n\n<think>T</think>"
        with pytest.raises(TraceParseError, match="unexpected content"):
            parse_trace(text)

    def test_misnumbered_results_rejected(self):
        text = (
            "<user_query>Q</user_query>\n\n<think>T</think>\n\n"
            "<search_query>S</search_query>\n\n"
            "<top_k_response>\n1. a\n3. b\n</top_k_response>"
        )
        with pytest.raises(TraceParseError, match="result line"):
            parse_trace(text)

    @pytest.mark.parametrize("number", ["1" * 5000, "01", "\u0661"], ids=["huge", "zero", "arabic"])
    def test_result_number_not_written_by_the_serializer_rejected(self, number):
        text = (
            "<user_query>Q</user_query>\n\n<think>T</think>\n\n"
            "<search_query>S</search_query>\n\n"
            f"<top_k_response>\n{number}. a\n</top_k_response>"
        )
        with pytest.raises(TraceParseError, match="result line 1"):
            parse_trace(text)

    def test_whitespace_inside_spans_is_verbatim(self):
        trace = SearchState(
            original_query="Q",
            history=(Turn(think="  padded\nthink  ", query=" q ", results=()),),
        )
        parsed = parse_trace(serialize_trace(trace))
        assert parsed.history[0].think == "  padded\nthink  "
        assert parsed.history[0].query == " q "


class BaselineEndpoint:
    """A chat endpoint answering baseline prompts: `query` to the query
    prompt, `think` to the planning prompt."""

    def __init__(self, think: str, query: str):
        self.think, self.query = think, query
        self.prompts: list[str] = []

    def __call__(self, payload: dict) -> dict:
        prompt = payload["messages"][0]["content"]
        self.prompts.append(prompt)
        text = self.query if "Output ONLY the search query" in prompt else self.think
        return {"choices": [{"message": {"content": text}}]}


class TestContentValidation:
    def test_tag_literal_in_think_rejected(self):
        with pytest.raises(TraceError, match="reserved tag"):
            Turn(think="evil </think> inside", query="q", results=())

    def test_tag_literal_in_query_rejected(self):
        with pytest.raises(TraceError, match="reserved tag"):
            Turn(think="t", query="<search_query>", results=())

    @settings(max_examples=300, deadline=None)
    @given(
        text=st.lists(
            st.sampled_from(
                [*_ALL_TAG_LITERALS, "<", ">", "/", "<think", "think>", "</", "a", " ", "考"]
            )
        ).map("".join)
    )
    def test_the_fast_check_agrees_with_the_eight_literal_loop(self, text):
        found = [lit for lit in _ALL_TAG_LITERALS if lit in text]
        checks = [
            lambda: RetrievedDoc(text=text),
            lambda: Turn(think=f"t{text}", query=f"q{text}", results=()),
            lambda: SearchState(original_query=f"Q{text}"),
            lambda: render_prompt(SearchState(original_query="Q"), "search_query", f"t{text}"),
            lambda: trace_from_dict(
                {"original_query": "Q", "terminal_reason": None,
                 "turns": [{"think": "t", "query": "q", "results": [{"text": text}]}]}
            ),
        ]
        for check in checks:
            if found:
                with pytest.raises(TraceError, match=f"reserved tag literal {found[0]!r}"):
                    check()
            else:
                check()
        assert reserved_literal(text) == (found[0] if found else None)
        # a remote policy whose think or query holds a literal retries once, then fails
        # (2 prompts when the think is refused, 4 when the query is)
        for think, query, prompts in ((f"t{text}", "q", 2), ("t", f"q{text}", 4)):
            endpoint = BaselineEndpoint(think, query)
            policy = RemotePolicy("http://e", "m", mode="baseline", post=endpoint, api_key="k")
            if found:
                with pytest.raises(PolicyError, match="after retry"):
                    policy.propose(SearchState(original_query="Q"), 1)
                assert len(endpoint.prompts) == prompts
            else:
                assert len(policy.propose(SearchState(original_query="Q"), 1)) == 1

    def test_multiline_result_text_rejected(self):
        with pytest.raises(TraceError, match="single line"):
            RetrievedDoc(text="two\nlines")

    def test_empty_think_rejected(self):
        with pytest.raises(TraceError, match="think"):
            Turn(think="", query="q", results=())

    def test_clean_snippet_flattens_and_truncates(self):
        assert clean_snippet("a\nb\t c   d", budget=5) == "a b c"

    def test_unknown_terminal_reason_rejected(self):
        with pytest.raises(TraceError, match="terminal"):
            SearchState(original_query="q", terminal_reason="gave_up")


class TestAppendTurn:
    def test_append_grows_history(self):
        state = SearchState(original_query="q")
        state2 = append_turn(state, make_turn())
        assert len(state2.history) == 1
        assert len(state.history) == 0  # original untouched

    def test_budget_error_at_max_turns(self):
        state = SearchState(original_query="q")
        for _ in range(5):
            state = append_turn(state, make_turn(), max_turns=5)
        with pytest.raises(BudgetExceededError):
            append_turn(state, make_turn(), max_turns=5)

    def test_read_back_last_turn(self):
        turn = make_turn(think="specific", query="specific q")
        state = append_turn(SearchState(original_query="q"), turn)
        assert state.last_turn() == turn

    @pytest.mark.parametrize("reason", ["success", "budget_exhausted", "policy_error"])
    def test_an_ended_state_takes_no_turn(self, reason):
        ended = SearchState(original_query="q", history=(make_turn(),), terminal_reason=reason)
        with pytest.raises(TraceError, match="ended"):
            append_turn(ended, make_turn())


class TestBestScore:
    def test_highest_score_of_the_scored_results(self):
        docs = (RetrievedDoc("a", "d1", 0.25), RetrievedDoc("b", None, None), RetrievedDoc("c", "d3", 0.5))
        assert Turn("t", "q", docs).best_score() == 0.5

    @pytest.mark.parametrize("docs", [(), (RetrievedDoc("a"),)], ids=["no-results", "unscored"])
    def test_zero_without_a_scored_result(self, docs):
        assert Turn("t", "q", docs).best_score() == 0.0


class TestRenderPrompt:
    def test_fresh_state_elicits_think(self):
        state = SearchState(original_query="Q")
        assert render_prompt(state) == "<user_query>Q</user_query>\n\n<think>"

    def test_after_turn_elicits_think(self):
        state = append_turn(SearchState(original_query="Q"), make_turn())
        prompt = render_prompt(state, "think")
        assert prompt == serialize_trace(state) + "\n\n<think>"

    def test_eliciting_query_embeds_closed_think(self):
        state = SearchState(original_query="Q")
        prompt = render_prompt(state, "search_query", think="PHI")
        assert prompt.endswith("<think>PHI</think>\n\n<search_query>")

    def test_prompt_is_strict_prefix_of_completion(self):
        state = SearchState(original_query="Q")
        think_prompt = render_prompt(state, "think")
        completed = append_turn(state, make_turn(think="PHI", query="S"))
        full = serialize_trace(completed)
        assert full.startswith(think_prompt) and full != think_prompt
        query_prompt = render_prompt(state, "search_query", think="PHI")
        assert full.startswith(query_prompt) and full != query_prompt


# --- property tests -------------------------------------------------------------

# text that never collides with the grammar: no '<' (tag literals) and, for
# result lines, no newlines
content = st.text(
    alphabet=st.characters(blacklist_characters="<", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=40,
)
line_content = content.map(lambda s: " ".join(s.split()) or "x")

turns = st.builds(
    Turn,
    think=content,
    query=content,
    results=st.lists(
        st.builds(RetrievedDoc, text=line_content), min_size=0, max_size=4
    ).map(tuple),
)

text_traces = st.builds(
    SearchState,
    original_query=content,
    history=st.lists(turns, min_size=0, max_size=4).map(tuple),
)


@given(text_traces)
@settings(max_examples=200, deadline=None)
def test_parse_serialize_round_trip(trace):
    assert parse_trace(serialize_trace(trace)) == trace


@given(text_traces)
@settings(max_examples=200, deadline=None)
def test_spans_partition_serialized_text(trace):
    text = serialize_trace(trace)
    spans = serialize_spans(trace)
    assert "".join(s.text for s in spans) == text
    offset = 0
    for span in spans:
        assert len(span.text) > 0
        offset += len(span.text)
    assert offset == len(text)


@given(text_traces)
@settings(max_examples=100, deadline=None)
def test_json_codec_is_lossless(trace):
    assert trace_from_dict(trace_to_dict(trace)) == trace


def test_json_codec_keeps_metadata():
    turn = Turn(
        think="t",
        query="q",
        results=(RetrievedDoc(text="r", doc_id="d9", score=0.75),),
        sim_to_target=0.5,
        target_rank=3,
    )
    trace = SearchState(original_query="Q", history=(turn,), terminal_reason="success")
    back = trace_from_dict(trace_to_dict(trace))
    assert back == trace
    assert back.history[0].results[0].score == 0.75


# --- parser fuzzing: any text either parses or raises TraceError ------------------


def _parses_or_raises_trace_error(text: str) -> None:
    try:
        parse_trace(text)
    except TraceError:
        pass


# pieces of the grammar, spliced into mutated traces
_grammar_pieces = st.sampled_from(
    [f"<{t}>" for t in ("user_query", "think", "search_query", "top_k_response")]
    + [f"</{t}>" for t in ("user_query", "think", "search_query", "top_k_response")]
    + ["\n\n", "\n", " ", "1. ", "01. ", "\u0662. ", "1" * 4400 + ". "]
)
_result_numbers = st.integers(0, 4).map(str) | st.sampled_from(["01", "\u0661", "1" * 4400])
_span_text = st.text(max_size=8) | _grammar_pieces


@st.composite
def trace_shaped_text(draw) -> str:
    """Spans in grammar order with arbitrary contents, result numbers and separators."""
    spans = [f"<user_query>{draw(_span_text)}</user_query>"]
    for _ in range(draw(st.integers(0, 3))):
        lines = draw(st.lists(st.tuples(_result_numbers, _span_text), max_size=3))
        spans += [
            f"<think>{draw(_span_text)}</think>",
            f"<search_query>{draw(_span_text)}</search_query>",
            "<top_k_response>\n" + "".join(f"{n}. {t}\n" for n, t in lines) + "</top_k_response>",
        ]
    return draw(st.sampled_from(["\n\n", "\n", ""])).join(spans)


@given(st.text() | trace_shaped_text())
@settings(max_examples=500, deadline=None)
def test_fuzzed_text_parses_or_raises_trace_error(text):
    _parses_or_raises_trace_error(text)


@given(trace=text_traces, data=st.data())
@settings(max_examples=500, deadline=None)
def test_byte_mutated_traces_parse_or_raise_trace_error(trace, data):
    raw = bytearray(serialize_trace(trace).encode("utf-8"))
    for _ in range(data.draw(st.integers(1, 4), label="mutations")):
        at = data.draw(st.integers(0, len(raw)), label="at")
        op = data.draw(st.sampled_from(["flip", "delete", "insert", "truncate"]), label="op")
        if op == "flip" and at < len(raw):
            raw[at] ^= data.draw(st.integers(1, 255), label="xor")
        elif op == "delete":
            del raw[at : at + data.draw(st.integers(1, 8), label="span")]
        elif op == "insert":
            piece = st.binary(min_size=1, max_size=8) | _grammar_pieces.map(str.encode)
            raw[at:at] = data.draw(piece, label="bytes")
        elif op == "truncate":
            del raw[at:]
    _parses_or_raises_trace_error(raw.decode("utf-8", errors="replace"))
