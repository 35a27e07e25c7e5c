"""The ten scripted search behaviors.

Each behavior is a pure function of (config, state, resources): every decision
is recomputed from the episode history, so repeated calls agree byte-for-byte
and beam-search forks stay consistent. The source material sketches each
behavior in a line; the exact rules implemented here are the ones documented
on each step function, and the tests hand-simulate those rules.

The `variant` argument shifts ranked choices (take the i-th best instead of
the best) so that a beam expansion of width M gets M distinct continuations.

`BEHAVIORS` is the one list of behaviors: each kind's step function, knobs
(each with its default and, for a count, its lowest value) and opening.
Seven kinds open by issuing the user's query with a fixed think, which
`archetype_step` renders from the table on turn 1, so their step functions
decide only the later turns; the other three (opening None) make their own
first move. A new behavior is one step function plus one row.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

from .trace import Action, SearchState, Turn
from .vocab import TfidfTable, head_phrase, tokenize

FAILURE_MARKER = "getting worse"


@dataclass(frozen=True)
class PolicyResources:
    """Corpus-derived context the behaviors draw on.

    `probe` maps a candidate query to its best retrieval similarity; only
    greedy_hill requires it.
    """

    vocab: TfidfTable
    probe: Callable[[str], float] | None = None


def _fallback(q0: str, reason: str) -> Action:
    return Action(
        think=f"Hit a dead end ({reason}); restarting from the original question.",
        query=q0,
    )


def _best_sims(state: SearchState) -> list[float]:
    return [t.best_score() or 0.0 for t in state.history]


def _used_terms(state: SearchState) -> set[str]:
    used: set[str] = set(tokenize(state.original_query))
    for t in state.history:
        used.update(tokenize(t.query))
    return used


def _best_turn(state: SearchState) -> Turn:
    """The earliest turn with the highest best similarity."""
    sims = _best_sims(state)
    return state.history[sims.index(max(sims))]


def _result_texts(turn: Turn) -> tuple[str, ...]:
    return tuple(d.text for d in turn.results)


def _pick(items: list[str], variant: int) -> str | None:
    return items[variant % len(items)] if items else None


def _top_term(res: PolicyResources, texts: Sequence[str], variant: int, exclude) -> str | None:
    return _pick(res.vocab.top_terms(texts, 1 + variant, exclude=exclude), variant)


def _expansion(res: PolicyResources, query: str, variant: int, exclude=()) -> str | None:
    return _pick(res.vocab.expansions(query, 1 + variant, exclude=exclude), variant)


def _refinement(res: PolicyResources, state: SearchState, turn: Turn, variant: int) -> str | None:
    """A keyword of `turn`'s top result that no query of the episode has used."""
    top_text = turn.results[0].text if turn.results else ""
    return _top_term(res, [top_text], variant, _used_terms(state))


def step_adaptive_context(
    cfg, state: SearchState, res: PolicyResources, rng: random.Random, variant: int
) -> Action:
    """Adopt the top tf*idf keywords of the last results into the query.

    Each later turn appends the `adopt_terms` best new terms of the previous
    turn's result texts (variant shifts the window down the ranking).
    """
    j = cfg.params["adopt_terms"]
    last = state.history[-1]
    ranked = res.vocab.top_terms(_result_texts(last), j + variant, exclude=tokenize(last.query))
    terms = ranked[variant : variant + j] or ranked[-j:]
    if not terms:
        return _fallback(state.original_query, "no new keywords in the results")
    return Action(
        think=f"The retrieved passages emphasize {', '.join(repr(t) for t in terms)}; "
        "adding those keywords to steer closer.",
        query=f"{last.query} {' '.join(terms)}",
    )


def step_random_walk(
    cfg, state: SearchState, res: PolicyResources, rng: random.Random, variant: int
) -> Action:
    """Swap one random query token for a corpus-vocabulary neighbor.

    Each later turn rebuilds the last query from its content tokens; the
    replaced position and the neighbor are drawn from the per-call seeded
    generator.
    """
    tokens = tokenize(state.history[-1].query)
    if not tokens:
        return _fallback(state.original_query, "query has no content tokens")
    idx = rng.randrange(len(tokens))
    pool = cfg.params["neighbor_pool"]
    cands = res.vocab.neighbors(tokens[idx], pool, exclude=tokens)
    if not cands:
        return _fallback(state.original_query, f"no neighbors for '{tokens[idx]}'")
    new = rng.choice(cands)
    old, tokens[idx] = tokens[idx], new
    return Action(
        think=f"Wandering: swapping '{old}' for the related term '{new}' to see "
        "where that leads.",
        query=" ".join(tokens),
    )


def step_breadth_first(
    cfg, state: SearchState, res: PolicyResources, rng: random.Random, variant: int
) -> Action:
    """Survey sibling subtopics of the original query before deepening.

    Siblings are the top `fanout` expansions of q0. The turns after the
    opening visit one sibling each, and once all are visited the best-scoring
    sibling turn is deepened with its own first expansion.
    """
    fanout = cfg.params["fanout"]
    q0 = state.original_query
    siblings = res.vocab.expansions(q0, fanout)
    if not siblings:
        return _fallback(q0, "no sibling subtopics found")
    t = len(state.history) + 1
    if t - 2 < len(siblings):
        sib = siblings[(t - 2 + variant) % len(siblings)]
        return Action(
            think=f"Still covering breadth: sibling subtopic '{sib}' comes next.",
            query=f"{q0} {sib}",
        )
    sims = _best_sims(state)
    best_i = max(range(1, len(sims)), key=lambda i: sims[i], default=0)
    base = state.history[best_i].query
    term = _expansion(res, base, variant, _used_terms(state))
    if term is None:
        return _fallback(q0, "no deeper term under the best branch")
    return Action(
        think=f"All branches visited; '{base}' scored best, so deepening it with '{term}'.",
        query=f"{base} {term}",
    )


def step_depth_first(
    cfg, state: SearchState, res: PolicyResources, rng: random.Random, variant: int
) -> Action:
    """Drill one specialization deeper per turn; back up one level on a drop.

    Turn 1 issues the head phrase of q0 plus its first corpus expansion. While
    the best similarity does not fall, the next expansion of the current query
    is appended; when it falls, the last specialization is removed and the
    parent gets its next untried expansion instead.
    """
    q0 = state.original_query
    if not state.history:
        head = head_phrase(q0) or tokenize(q0)
        if not head:
            return _fallback(q0, "query has no content tokens")
        base = " ".join(head)
        exp = _expansion(res, base, variant)
        if exp is None:
            return _fallback(q0, "no expansion for the head phrase")
        return Action(
            think=f"Commit to one line of attack: start from '{base}' and keep "
            f"specializing, first with '{exp}'.",
            query=f"{base} {exp}",
        )
    sims = _best_sims(state)
    prev = state.history[-1].query
    used = _used_terms(state)
    dropped = len(sims) >= 2 and sims[-1] < sims[-2]
    if not dropped:
        exp = _expansion(res, prev, variant, used)
        if exp is None:
            return _fallback(q0, "branch exhausted")
        return Action(
            think=f"Similarity held up; drilling further down with '{exp}'.",
            query=f"{prev} {exp}",
        )
    tokens = tokenize(prev)
    if len(tokens) < 2:
        return _fallback(q0, "nothing left to backtrack")
    parent = " ".join(tokens[:-1])
    exp = _expansion(res, parent, variant, used)
    if exp is None:
        return _fallback(q0, "no sibling branch after backtracking")
    return Action(
        think=f"That branch lost ground; backing up one level to '{parent}' and "
        f"taking the '{exp}' branch instead.",
        query=f"{parent} {exp}",
    )


def step_wrong_direction(
    cfg, state: SearchState, res: PolicyResources, rng: random.Random, variant: int
) -> Action:
    """Drift onto tangents, then diagnose the failure when similarity falls.

    After the opening, while scores are not falling the query chases a weak
    expansion (the `drift_rank`-th candidate); after a drop the think span
    names the failure and the query re-anchors to q0 plus the best turn's
    strongest keyword.
    """
    q0 = state.original_query
    sims = _best_sims(state)
    prev = state.history[-1].query
    if len(sims) >= 2 and sims[-1] < sims[-2]:
        term = _top_term(res, _result_texts(_best_turn(state)), variant, tokenize(q0))
        return Action(
            think=f"These results are {FAILURE_MARKER}: '{prev}' drifted away from what "
            f"'{q0}' is actually asking, so the last reformulation was a wrong turn. "
            "Re-anchoring to the original question.",
            query=f"{q0} {term}" if term else q0,
        )
    drift_rank = cfg.params["drift_rank"]
    exps = res.vocab.expansions(prev, drift_rank + variant, exclude=_used_terms(state))
    if not exps:
        return _fallback(q0, "no tangent available")
    term = exps[-1]
    return Action(
        think=f"Curious about the side thread '{term}'; chasing it even though it may "
        "not serve the original question.",
        query=f"{prev} {term}",
    )


def step_early_success(
    cfg, state: SearchState, res: PolicyResources, rng: random.Random, variant: int
) -> Action:
    """Recognize when results already work and refine only minimally.

    After the opening validates q0 as-is, if the best similarity is rising
    (or above `good_sim` on turn 2) the previous query gains one keyword from
    its top result; otherwise the best query so far is re-taken and lightly
    refined the same way.
    """
    q0 = state.original_query
    sims = _best_sims(state)
    good = cfg.params["good_sim"]
    rising = sims[-1] >= sims[-2] if len(sims) >= 2 else sims[-1] >= good
    base_turn = state.history[-1] if rising else _best_turn(state)
    term = _refinement(res, state, base_turn, variant)
    if term is None:
        return _fallback(q0, "nothing left to refine with")
    if rising:
        think = (
            f"This direction is already successful; keeping '{base_turn.query}' and "
            f"refining it minimally with '{term}'."
        )
    else:
        think = (
            f"The detour underperformed; returning to the successful query "
            f"'{base_turn.query}' and nudging it with '{term}'."
        )
    return Action(think=think, query=f"{base_turn.query} {term}")


def step_exploitation_heavy(
    cfg, state: SearchState, res: PolicyResources, rng: random.Random, variant: int
) -> Action:
    """Never explore: always re-optimize the best-scoring query so far.

    Each later turn takes the highest-similarity query from the history and
    appends one fresh keyword from that turn's top result.
    """
    q0 = state.original_query
    base_turn = _best_turn(state)
    term = _refinement(res, state, base_turn, variant)
    if term is None:
        term = _expansion(res, base_turn.query, variant, _used_terms(state))
    if term is None:
        return _fallback(q0, "best query cannot be refined further")
    return Action(
        think=f"'{base_turn.query}' remains the best performer; squeezing more out of "
        f"it with '{term}'.",
        query=f"{base_turn.query} {term}",
    )


def step_greedy_hill(
    cfg, state: SearchState, res: PolicyResources, rng: random.Random, variant: int
) -> Action:
    """Probe `candidates` edits against the index and keep the argmax.

    Candidate edits append each top expansion of the current query; each is
    scored by its best retrieval similarity and the highest scorer wins (ties
    by candidate order; variant takes the next-ranked edit).
    """
    q0 = state.original_query
    base = state.history[-1].query if state.history else q0
    edits = res.vocab.expansions(base, cfg.params["candidates"], exclude=_used_terms(state))
    if not edits:
        return _fallback(q0, "no candidate edits")
    scored = sorted(
        ((res.probe(f"{base} {e}"), i) for i, e in enumerate(edits)),
        key=lambda pair: (-pair[0], pair[1]),
    )
    sim, idx = scored[variant % len(scored)]
    chosen = edits[idx]
    return Action(
        think=f"Tested {len(edits)} candidate refinements of '{base}'; "
        f"'{chosen}' retrieved best (similarity {sim:.3f}), so climbing that way.",
        query=f"{base} {chosen}",
    )


def step_best_first(
    cfg, state: SearchState, res: PolicyResources, rng: random.Random, variant: int
) -> Action:
    """Keep a pool of hypothesis queries and pursue the most promising.

    The pool is q0 plus its top `pool_size` expansions. When the last turn
    scored under `try_threshold` and unissued hypotheses remain, the next one
    is tried; otherwise the best-scoring issued query is refined with one
    keyword from its top result.
    """
    q0 = state.original_query
    pool = [q0] + [f"{q0} {e}" for e in res.vocab.expansions(q0, cfg.params["pool_size"])]
    if not state.history:
        return Action(
            think=f"Holding {len(pool)} candidate directions; starting with the most "
            "direct one and ranking the rest as evidence arrives.",
            query=pool[variant % len(pool)],
        )
    issued = {t.query for t in state.history}
    unissued = [h for h in pool if h not in issued]
    sims = _best_sims(state)
    if sims[-1] < cfg.params["try_threshold"] and unissued:
        nxt = unissued[variant % len(unissued)]
        return Action(
            think=f"The last hypothesis underperformed; promoting the next one in the "
            f"pool: '{nxt}'.",
            query=nxt,
        )
    base_turn = _best_turn(state)
    term = _refinement(res, state, base_turn, variant)
    if term is None:
        return _fallback(q0, "leading hypothesis cannot be extended")
    return Action(
        think=f"Hypothesis '{base_turn.query}' leads the pool; pursuing it with '{term}'.",
        query=f"{base_turn.query} {term}",
    )


def step_multi_beam(
    cfg, state: SearchState, res: PolicyResources, rng: random.Random, variant: int
) -> Action:
    """Round-robin three fixed sub-strategies as parallel search lanes.

    Lane 0 reads keywords out of the last results (q0 plus the top result
    term), lane 1 specializes q0 with its first expansion, lane 2 runs the
    second expansion as an independent thread. Turn t advances lane (t-1) mod 3;
    lane 0's first turn is the opening.
    """
    q0 = state.original_query
    lane = len(state.history) % 3
    if lane == 0:
        term = _top_term(res, _result_texts(state.history[-1]), variant, tokenize(q0))
        if term is None:
            return _fallback(q0, "lane one found no fresh keyword")
        return Action(
            think=f"Advancing lane one: folding the observed keyword '{term}' back "
            "into the original query.",
            query=f"{q0} {term}",
        )
    exps = res.vocab.expansions(q0, 2 + variant)
    if len(exps) < lane:
        return _fallback(q0, "not enough branches for the parallel lanes")
    term = exps[(lane - 1 + variant) % len(exps)]
    return Action(
        think=f"Advancing lane {lane + 1}: an independent thread on '{q0} {term}'.",
        query=f"{q0} {term}",
    )


class Knob(NamedTuple):
    """A behavior's knob: its default, and for an int knob its lowest
    meaningful value (a float knob takes any finite number)."""

    default: float
    floor: int | None = None


# (step, knobs, opening): knobs are engine-chosen, as the source material never
# parameterizes the behaviors; an opening is the turn-1 think that goes with q0,
# where "{q0}" stands for q0, and None leaves turn 1 to the step. A count knob
# at 0 would leave its step nothing to choose from, so it starts at 1; a pool
# of q0 alone is a pool, so pool_size starts at 0
BEHAVIORS: dict[str, tuple[Callable[..., Action], dict[str, Knob], str | None]] = {
    "adaptive_context": (step_adaptive_context, {"adopt_terms": Knob(2, floor=1)},
        "Probe the corpus with the user's own wording for '{q0}' and learn keywords from "
        "whatever comes back."),
    "random_walk": (step_random_walk, {"neighbor_pool": Knob(5, floor=1)},
        "No firm plan; start from the given query and wander from there."),
    "breadth_first": (step_breadth_first, {"fanout": Knob(3, floor=1)},
        "Map the territory first: issue the original query, then cover each sibling "
        "subtopic before drilling into any of them."),
    "depth_first": (step_depth_first, {}, None),
    "wrong_direction": (step_wrong_direction, {"drift_rank": Knob(4, floor=1)},
        "Follow whatever looks interesting and stay alert for signs the search is going wrong."),
    "early_success": (step_early_success, {"good_sim": Knob(0.5)},
        "Try the original query first; if the results already look successful there is no "
        "reason to change course, only to refine lightly."),
    "exploitation_heavy": (step_exploitation_heavy, {},
        "Find one query that works and keep optimizing it rather than exploring alternatives."),
    "greedy_hill": (step_greedy_hill, {"candidates": Knob(3, floor=1)}, None),
    "best_first": (step_best_first, {"pool_size": Knob(3, floor=0), "try_threshold": Knob(0.4)}, None),
    "multi_beam": (step_multi_beam, {},
        "Running parallel lanes over this topic; lane one starts from the original query."),
}

KINDS = tuple(BEHAVIORS)


def _fits_knob(knob: Knob, value: object) -> bool:
    """Whether `value` may set a knob: an int knob takes an int >= its
    floor, a float knob a finite int or float; a bool is neither."""
    if isinstance(value, bool):
        return False
    if isinstance(knob.default, int):
        return isinstance(value, int) and value >= knob.floor
    return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))


@dataclass(frozen=True)
class ArchetypeConfig:
    """Scripted-backend configuration: behavior kind, seed, per-kind knobs."""

    kind: str
    seed: int = 0
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in BEHAVIORS:
            raise ValueError(f"unknown archetype {self.kind!r}; expected one of {KINDS}")
        _, knobs, _ = BEHAVIORS[self.kind]
        unknown = set(self.params) - set(knobs)
        if unknown:
            raise ValueError(f"unknown params for {self.kind}: {sorted(unknown)}")
        for name, value in self.params.items():
            knob = knobs[name]
            if not _fits_knob(knob, value):
                want = f"an int >= {knob.floor}" if isinstance(knob.default, int) else "a finite number"
                raise ValueError(f"{self.kind} param {name!r} must be {want}, got {value!r}")
        defaults = {name: knob.default for name, knob in knobs.items()}
        object.__setattr__(self, "params", {**defaults, **self.params})


def archetype_step(
    config: ArchetypeConfig,
    state: SearchState,
    resources: PolicyResources,
    rng: random.Random,
    variant: int = 0,
) -> Action:
    """Run one behavior step: on turn 1 a kind with an opening issues q0 with
    it, whatever the variant; otherwise the kind's step function decides (see
    the step functions for the per-kind rules)."""
    step, _, opening = BEHAVIORS[config.kind]
    if opening is not None and not state.history:
        q0 = state.original_query
        return Action(think=opening.format(q0=q0), query=q0)
    return step(config, state, resources, rng, variant)
