"""Random instance generators used by the verification suites and tests."""
from __future__ import annotations

import random

from .core import SLG, _dyadic_split, is_admissible
from .rna import MatchedAlphabet
from .symbols import Symbol, SymbolTable

_LETTERS = "abcdefghijklmnop"


def terminal_alphabet(table: SymbolTable, size: int) -> list[Symbol]:
    if not 1 <= size <= len(_LETTERS):
        raise ValueError("alphabet size out of range")
    return [table.terminal(ch) for ch in _LETTERS[:size]]


def random_string(rng: random.Random, length: int, alphabet_size: int,
                  table: SymbolTable) -> tuple[Symbol, ...]:
    alpha = terminal_alphabet(table, alphabet_size)
    return tuple(rng.choice(alpha) for _ in range(length))


def random_admissible_slg(
    rng: random.Random,
    num_nonterminals: int,
    alphabet_size: int,
    max_total_expansion: int,
    table: SymbolTable,
) -> SLG:
    """Admissible SLG with the given nonterminal count.

    Built top-down: the start is created first and every later nonterminal is
    created to fill a child slot, so reachability and the length-2 rule shape
    hold by construction.  Slots may also reuse a strictly later-created
    nonterminal (never an ancestor, so the rule graph stays acyclic) or take
    a terminal.  Grammars whose total expansion exceeds the cap are redrawn.
    A slot holds the index of its head in creation order, so the strictly
    later nonterminals are the ones after that index.  A cap below 2|V| is
    refused before any draw: every nonterminal expands to two symbols or
    more.
    """
    if num_nonterminals < 1:
        raise ValueError("need at least one nonterminal")
    if max_total_expansion < 2 * num_nonterminals:
        raise ValueError(
            f"no grammar with |V| = {num_nonterminals} fits under the expansion "
            f"cap {max_total_expansion}: it needs at least {2 * num_nonterminals}"
        )
    alpha = terminal_alphabet(table, alphabet_size)

    for _ in range(200):
        nodes: list[Symbol] = [table.fresh_nonterminal("G")]
        bodies: list[list] = [[None, None]]
        slots: list[tuple[int, int]] = [(0, 0), (0, 1)]
        qi = 0
        while qi < len(slots):
            at, child = slots[qi]
            qi += 1
            deficit = num_nonterminals - len(nodes)
            remaining_slots = len(slots) - qi + 1
            force_fresh = deficit > 0 and remaining_slots <= deficit
            roll = rng.random()
            if force_fresh or (deficit > 0 and roll < 0.45):
                fresh = table.fresh_nonterminal("G")
                slots += [(len(nodes), 0), (len(nodes), 1)]
                nodes.append(fresh)
                bodies.append([None, None])
                bodies[at][child] = fresh
            elif at + 1 < len(nodes) and roll < 0.60:
                bodies[at][child] = rng.choice(nodes[at + 1:])
            else:
                bodies[at][child] = rng.choice(alpha)
        g = SLG(
            {h: tuple(b) for h, b in zip(nodes, bodies)},  # type: ignore[arg-type]
            nodes[0],
            table,
        )
        total = sum(g.expansion_lengths().values())
        if total <= max_total_expansion:
            assert is_admissible(g)
            return g
    raise ValueError(
        f"could not draw a grammar with |V| = {num_nonterminals} under the "
        f"expansion cap {max_total_expansion}"
    )


def random_slg(
    rng: random.Random,
    num_nonterminals: int,
    alphabet_size: int,
    table: SymbolTable,
) -> SLG:
    """General SLG (bodies of length 1..4, possibly unreachable rules)."""
    if num_nonterminals < 1:
        raise ValueError("need at least one nonterminal")
    alpha = terminal_alphabet(table, alphabet_size)
    for _ in range(100):
        heads = [table.fresh_nonterminal("H") for _ in range(num_nonterminals)]
        rules: dict[Symbol, tuple[Symbol, ...]] = {}
        for i, head in enumerate(heads):
            pool = list(alpha) + heads[:i]
            body = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
            rules[head] = body
        g = SLG(rules, heads[-1], table)
        if g.expansion_lengths()[g.start] >= 2:
            return g
    raise ValueError(
        f"could not draw a grammar with |V| = {num_nonterminals} and expansion >= 2"
    )


def random_dyadic_slg(
    rng: random.Random,
    length: int,
    alphabet_size: int,
    table: SymbolTable,
) -> SLG:
    """Dyadic SLG for a random (often periodic) string of the given length.

    Identical substrings reuse a nonterminal only with some probability, so
    the result usually carries duplicated expansions and is strictly larger
    than the Bisection parse of its expansion.
    """
    if length < 2:
        raise ValueError("length must be at least 2")
    # the string is drawn as terminal ids, which hash faster than symbols
    # when substrings key the memo
    alpha = [x.id for x in terminal_alphabet(table, alphabet_size)]
    if rng.random() < 0.5:
        period = rng.randint(1, 4)
        pat = [rng.choice(alpha) for _ in range(period)]
        content = [pat[i % period] for i in range(length)]
    else:
        content = [rng.choice(alpha) for _ in range(length)]

    rules: dict[Symbol, tuple[Symbol, ...]] = {}
    memo: dict[tuple[int, ...], list[Symbol]] = {}

    def node(s: tuple[int, ...]) -> Symbol:
        if len(s) == 1:
            return table.by_id(s[0])
        known = memo.get(s)
        if known and rng.random() < 0.6:
            return rng.choice(known)
        k = _dyadic_split(len(s))
        head = table.fresh_nonterminal("Y")
        rules[head] = (node(s[:k]), node(s[k:]))
        memo.setdefault(s, []).append(head)
        return head

    start = node(tuple(content))
    return SLG(rules, start, table)


def random_matched_alphabet(
    rng: random.Random,
    pairs: int,
    max_weight: int,
    table: SymbolTable,
) -> MatchedAlphabet:
    """Alphabet of `pairs` matched letter pairs with weights in 1..max_weight."""
    symbols: list[Symbol] = []
    match: dict[Symbol, Symbol] = {}
    weight: dict[Symbol, int] = {}
    for i in range(pairs):
        a = table.terminal(_LETTERS[i])
        b = table.terminal(_LETTERS[i] + "~")
        w = rng.randint(1, max_weight)
        symbols += [a, b]
        match[a], match[b] = b, a
        weight[a] = weight[b] = w
    return MatchedAlphabet(tuple(symbols), match, weight)


def random_point_set(rng: random.Random, m: int) -> set[tuple[int, int]]:
    """m distinct points on the m x m grid."""
    points: set[tuple[int, int]] = set()
    while len(points) < m:
        points.add((rng.randint(1, m), rng.randint(1, m)))
    return points


def random_run_length_profile(
    rng: random.Random, k: int
) -> list[tuple[str, int]]:
    """k binary runs with positive lengths summing to k*k."""
    total = k * k
    cuts = sorted(rng.sample(range(1, total), k - 1)) if k > 1 else []
    bounds = [0] + cuts + [total]
    runs = []
    for i in range(k):
        runs.append((rng.choice("01"), bounds[i + 1] - bounds[i]))
    return runs
