"""Grammar compression algorithms producing SLGs over the input's alphabet.

The global engine (`run_global`) repeatedly replaces a maximal string; the
nonglobal algorithms process the input online.  Inputs may be plain
strings (characters become terminals of the given table) or sequences of
terminals interned in that table.  A symbol of another table or a
nonterminal is refused before anything is minted.  Every
compressor reads its input through `_input_ids` and works on integer ids;
`_slg` turns the finished id rules back into symbols once.

Each global strategy picks its strings directly, without listing the
maximal strings.  Let f(s) be the greedy non-overlapping count of s over
the rule bodies and M(L) the largest f among strings of length L.  M never
increases with L, and a string s with f(s) >= 2 is maximal exactly when
f(s) > M(|s| + 1).  So, with ties going to the shorter string and then to
the smaller id sequence:

- RePair takes the longest string of count M(2), grown from the pairs of
  that count.  RePair over pairs only always takes the same string.
- LongestMatch takes the longest string with two non-overlapping
  occurrences, found by a galloping search over its length.
- Greedy takes the largest f(L - 1) - L over all repeated strings of
  length L, grown level by level from the pairs.  A string of length L
  occurs at most total / L times without overlap in the `total` ids of the
  bodies, so its score is at most total - total / L - L.  That bound falls
  once L * L >= total, and the walk stops at the first such length whose
  bound is no better than the best score found.

A pick returns a plateau: the strings to take in order, each with every
start it has in the separator-joined bodies the pick searched and the
count it must still reach.  For RePair and LongestMatch that is every
string tied at the winning key, sorted by ids.  For Greedy it is the best
string and, when the walk can certify it, the runner-up by Greedy's key.
`_take` takes a whole plateau in one pass over those starts.  It marks
each replaced span dead, takes a string at its greedy left-to-right
starts whose span holds no dead position if there are still enough of
them, and skips it otherwise; then it rebuilds the bodies it touched.
The engine picks again only when the plateau is spent.  This is exact:
after a replacement, the string the strategy would take next is the next
one on the plateau that still has its count.  `_pick_repair`,
`_pick_longest` and `_pick_greedy` prove this for their keys, and `_take`
that its starts are the occurrences left.

Sequential and Sequitur share one driver and Sequitur's three reductions
(Nevill-Manning and Witten, JAIR 1997), applied to quiescence after each
append to the start rule.  They differ only in what they append.  Sequitur
appends the next input symbol.  Sequential appends the longest live
secondary whose expansion the rest of the input starts with (Kieffer and
Yang, IEEE Trans. IT 2000), or the next symbol if there is none.  No
reduction rescans the grammar.  An index lists the host rule of each
occurrence of every adjacent pair and of each use of every secondary, and
the secondaries used at most once; each change updates it where it touched
a body.  Each reduction is one lookup, and secondary ids grow in creation
order:

1. A suffix digram that is the body of a secondary becomes the smallest
   such secondary: a host of the digram whose body has two symbols.
2. A suffix digram that repeats gets a new rule: an occurrence is left
   after leaving out the suffix itself, and the one that overlaps the
   suffix when the last three symbols are equal.  Only the hosts the
   index lists are rewritten, left to right without overlap.
3. The smallest secondary used at most once is dropped if unused, or
   spliced into its one host.

Sequential's grammar is irreducible before each append, and an append adds
one digram, at the suffix, so the suffix digram is the only one that can
repeat.  The first reduction does not fire there: a rule whose body is the
suffix would already have been taken by the parse.
"""
from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain, pairwise, repeat, starmap

from .core import SLG, GrammarError, _dyadic_split, _uses, expand_all
from .symbols import Symbol, SymbolTable


class CompressorError(ValueError):
    pass


def _as_symbols(u, table: SymbolTable) -> tuple[Symbol, ...]:
    if isinstance(u, str):
        return table.chars(u)
    return tuple(u)


def _input_ids(u, table: SymbolTable) -> tuple[int, ...]:
    """The ids of a nonempty input of terminals all interned in `table`."""
    u = _as_symbols(u, table)
    if not u:
        raise CompressorError("empty input")
    # One check per distinct object: a table interns each symbol once.
    for s in {id(s): s for s in u}.values():
        if not table.owns(s):
            raise GrammarError(f"symbol {s.display} is not interned in this table")
        if not s.is_terminal():
            raise CompressorError(f"input symbol {s.display} is a nonterminal")
    return tuple(s.id for s in u)


def _slg(rules: dict[int, Sequence[int]], start: int, table: SymbolTable) -> SLG:
    """The SLG over `table` whose rules are given by ids, in that order."""
    by_id = table.by_id
    return SLG(
        {by_id(h): tuple(map(by_id, body)) for h, body in rules.items()},
        by_id(start),
        table,
    )


def _concat(seqs) -> list[int]:
    """The id sequences joined by distinct negative separators, so that no
    repeat found in the result crosses from one sequence into the next."""
    concat: list[int] = []
    for sep, s in enumerate(seqs, start=1):
        concat.extend(s)
        concat.append(-sep)
    return concat


# ---------------------------------------------------------------------------
# Factorizations (LZ78 / LZD)


@dataclass(frozen=True)
class Phrase:
    """One phrase of a factorization; its rule in the grammar holds the
    parts it is made of."""

    start: int  # 1-based position in the input
    length: int


@dataclass(frozen=True)
class Factorization:
    phrases: tuple[Phrase, ...]

    def __len__(self) -> int:
        return len(self.phrases)

    def check_concat(self, u: tuple[Symbol, ...]) -> bool:
        pos = 1
        for ph in self.phrases:
            if ph.start != pos or ph.length < 1:
                return False
            pos += ph.length
        return pos == len(u) + 1


# ---------------------------------------------------------------------------
# Non-overlapping occurrence counting and maximal strings


def _greedy_disjoint(positions: list[int], length: int) -> int:
    count = 0
    last = -length
    for p in positions:
        if p >= last + length:
            count += 1
            last = p
    return count


def _nonoverlapping(body, s):
    """The starts of the greedy left-to-right non-overlapping occurrences of
    the nonempty `s` in `body`, a sequence of the same type."""
    first, m = s[0], len(s)
    end = len(body) - m + 1  # past the last start that fits
    i = 0
    while i < end:
        try:
            i = body.index(first, i, end)
        except ValueError:
            return
        if body[i : i + m] == s:
            yield i
            i += m
        else:
            i += 1


def _pattern(s, table: SymbolTable) -> tuple[Symbol, ...] | None:
    """The symbols of the pattern `s`, or None when `s` is a string with a
    character that `table` lacks: such a pattern cannot occur.  Unlike an
    input, a pattern interns nothing."""
    if isinstance(s, str) and not all(map(table.get, s)):
        return None
    return _as_symbols(s, table)


def count_nonoverlapping(s, g: SLG) -> int:
    """Greedy left-to-right non-overlapping occurrences of `s` on the
    right-hand sides of `g`."""
    s = _pattern(s, g.table)
    if s is None:
        return 0
    if not s:
        raise CompressorError("pattern must be nonempty")
    return sum(1 for body in g.rules.values() for _ in _nonoverlapping(body, s))


def _rule_id_seqs(g: SLG) -> list[list[int]]:
    return [[s.id for s in body] for body in g.rules.values()]


# The level growth.  A group is (positions, f): every start of one distinct
# string in a `_concat` sequence, and f, the string's greedy non-overlapping
# count.  A prefix occurs wherever its extensions do and is shorter, so its
# count is at least theirs: growing every group with f >= 2 from the pairs
# reaches every string with f >= 2.


def _pair_groups(concat: list[int]) -> list[tuple[list[int], int]]:
    """The groups of the pairs with f >= 2, in order of first position.

    Each separator is unique, so a pair that touches one has a single
    position and drops out with the other pairs seen once.  Occurrences of
    a pair (a, b) with a != b cannot overlap, so its f is its number of
    positions; only a pair (a, a) needs the greedy count."""
    groups: dict[tuple[int, int], list[int]] = {}
    for p, pair in enumerate(zip(concat, concat[1:])):
        groups.setdefault(pair, []).append(p)
    out = []
    for (a, b), positions in groups.items():
        if len(positions) >= 2:
            f = _greedy_disjoint(positions, 2) if a == b else len(positions)
            if f >= 2:
                out.append((positions, f))
    return out


def _extend(concat: list[int], groups, length: int, least: int):
    """The groups one symbol longer than the given groups of strings of
    `length`, keeping those with f >= `least` (at least 2)."""
    out = []
    for positions, _ in groups:
        buckets: dict[int, list[int]] = {}
        for p in positions:
            # concat ends with a separator, so p + length is in range
            b = concat[p + length]
            if b >= 0:
                buckets.setdefault(b, []).append(p)
        for ext in buckets.values():
            if len(ext) >= least:
                f = _greedy_disjoint(ext, length + 1)
                if f >= least:
                    out.append((ext, f))
    return out


def _levels(concat: list[int], groups, least: int):
    """(length, groups) for the given groups of pairs and for each longer
    level `_extend` grows from them with `least`, while groups remain."""
    length = 2
    while groups:
        yield length, groups
        groups = _extend(concat, groups, length, least)
        length += 1


def _plateau(concat: list[int], groups, length: int,
             want: int) -> list[tuple[list[int], int, int]]:
    """The strings of `length` with the given lists of starts, sorted by
    ids, each as (starts, length, want)."""
    groups = sorted(groups, key=lambda ps: concat[ps[0] : ps[0] + length])
    return [(starts, length, want) for starts in groups]


def maximal_strings(g: SLG) -> set[tuple[Symbol, ...]]:
    """Strings of length >= 2 with >= 2 greedy non-overlapping occurrences
    on the right-hand sides, not dominated by any longer such string.

    A string s with f(s) >= 2 is maximal exactly when f(s) > M(|s| + 1),
    where M(L) is the largest count among strings of length L (0 if none).
    """
    concat = _concat(_rule_id_seqs(g))
    by_id = g.table.by_id
    out = set()
    levels = chain(_levels(concat, _pair_groups(concat), 2), [(0, [])])
    for (length, groups), (_, longer) in pairwise(levels):
        bound = max((f for _, f in longer), default=0)  # M(length + 1)
        for positions, f in groups:
            if f > bound:
                p = positions[0]
                out.add(tuple(map(by_id, concat[p : p + length])))
    return out


# ---------------------------------------------------------------------------
# Global algorithms


class GlobalStrategy(Enum):
    """The rule by which a global algorithm picks among the maximal strings
    of the current grammar: the most frequent (REPAIR), the most frequent
    pair if a pair is maximal and else RePair's pick (REPAIR_PAIRS_ONLY),
    the one of largest f(L - 1) - L (GREEDY) or the longest
    (LONGEST_MATCH).  Ties break by shorter length, then by the smaller id
    sequence.

    REPAIR_PAIRS_ONLY always picks what REPAIR picks.  If M(2) > M(3),
    RePair's pick is a pair of count M(2), which is also the most frequent
    maximal pair.  Otherwise no pair has a count above M(3) = M(2), so no
    pair is maximal and the fallback is RePair's pick itself.
    """

    REPAIR = "repair"
    REPAIR_PAIRS_ONLY = "repair2"
    GREEDY = "greedy"
    LONGEST_MATCH = "longest"


# A pick returns None when no string repeats, and otherwise a plateau: the
# `_concat` sequence of the bodies it searched, and the strings to take in
# order, each as (starts, length, want).  `starts` is every start of the
# string in that sequence, overlapping ones included, and `want` the count
# the string must still have when `_take` comes to it.
Plateau = tuple[list[int], list[tuple[list[int], int, int]]]


def _pick_repair(bodies: list[list[int]], bound: int | None) -> Plateau | None:
    """The most frequent maximal strings.  F = M(2) is the largest count of
    any string, and a string of count F is maximal exactly when no string
    one longer has count F: it is a longest string of count F.  Its
    prefixes all have count F, so only groups of count F are grown.

    The plateau is every string of count F and that longest length L.
    Replacing one of them, s, by R gives count F to no string off the
    plateau.  Take a string t of count F afterwards.  If t holds R, its F
    occurrences expand to F non-overlapping occurrences, before the
    replacement, of a string that holds s x, x s or s s.  Each of these is
    longer than s, which contradicts M(L + 1) < F.  A substring w of s had
    count F, and all F of its occurrences lay inside the F replaced
    occurrences of s: one apart from them would raise its count above F.
    So w is left with at most its one occurrence in R's body.  Any other
    string without R only loses occurrences.  So t is a plateau string
    that kept count F, the next most frequent maximal string is the next
    such string by ids, and when none is left M(2) < F."""
    concat = _concat(bodies)
    groups = _pair_groups(concat)
    if not groups:
        return None
    top = max(f for _, f in groups)
    groups = [grp for grp in groups if grp[1] == top]
    for length, groups in _levels(concat, groups, top):
        pass
    return concat, _plateau(concat, [ps for ps, _ in groups], length, top)


def _pick_greedy(bodies: list[list[int]], bound: int | None) -> Plateau | None:
    """The maximal string s of largest score f(L - 1) - L, then the
    runner-up r when the walk can certify it: the second-best repeated
    string by Greedy's full key (higher score, then shorter, then smaller
    ids).  A string w that is not maximal has an extension t with
    f(t) >= f(w), which scores at least f(w) - 1 > 0 more, so the largest
    score over all repeated strings is only reached by maximal ones.

    Once s, of length L, is replaced by R, r is the next pick if it kept
    its count f(r), so `run_global` takes it with `want` = f(r).  A string
    with k non-overlapping occurrences in s, and no R, keeps at most
    f - k * (f(s) - 1) of its count f: the k * f(s) it had inside the
    replaced occurrences of s go, and only the k in R's body come.  So no
    string without R gains count, and one inside s loses count.  A string
    t that holds R c times expands to a string t' of length
    |t| + c(L - 1), so t' != s, with f(t') >= f(t).  Then
    score(t') - score(t) >= (f(t) - 1) c (L - 1) > 0, and t scores below
    t', which scores no more than r.  Every other string without R keeps a
    key no better than before, below r's.  So r, if it kept its count, is
    the one best string and the next pick.

    The level walk stops once no longer string can beat the best score.
    Let `total` be the number of ids in the bodies.  A string of length L
    with f non-overlapping occurrences has f * L <= total, so its score is
    at most h(L) = total - total / L - L, and h does not increase once
    L * L >= total.  So when the next length n has n * n >= total and
    h(n) <= best, that is total * (n - 1) - n * n <= best * n, no string of
    length n or more scores above the best, and ties already go to the
    shorter string.  r is certified only when the walk ran out of strings
    or h(n) <= score(r); otherwise the plateau is s alone."""
    concat = _concat(bodies)
    total = len(concat) - len(bodies)
    top: list = []  # the best two so far, as (-score, length, ids, starts, f)
    for length, groups in _levels(concat, _pair_groups(concat), 2):
        # Only the two largest counts of a level can place it in the top
        # two, and a longer string must score more than the runner-up.
        least = sorted({f for _, f in groups})[-2:][0]
        if len(top) == 2:
            least = max(least, (length - top[1][0]) // (length - 1) + 1)
        new = [(length - f * (length - 1), length, concat[ps[0] : ps[0] + length], ps, f)
               for ps, f in groups if f >= least]
        if new:
            top = sorted(top + new)[:2]
        nxt = length + 1
        if nxt * nxt >= total:
            over = total * (nxt - 1) - nxt * nxt  # n * h(n) with n = nxt
            if over <= -top[0][0] * nxt:
                if over > -top[-1][0] * nxt:
                    del top[1:]
                break
    if not top:
        return None
    return concat, [(ps, length, f) for _, length, _, ps, f in top]


def _pick_longest(bodies: list[list[int]], bound: int | None) -> Plateau | None:
    """The longest strings with two non-overlapping occurrences.

    A string of length L has two exactly when its last start minus its
    first is at least L.  If some string of length L + 1 passes, so does its
    prefix, so a galloping search over L is exact.  `bound`, when given,
    bounds the answer.

    The plateau is every string of that length L with two occurrences.
    Replacing one of them, s, by R leaves no other string of length L or
    more with two, apart from the rest of the plateau.  Take two
    non-overlapping occurrences of a string t afterwards.  If both lie in
    R's body, 2|t| <= L.  Otherwise expanding R maps them to two
    non-overlapping occurrences of a string at least as long as t before,
    and longer than L if t holds R.  The one new window of length L is
    R's body, s itself, and every other occurrence of s overlapped a
    replaced one.  So once the plateau is spent the answer is at most
    L - 1, and `run_global` passes that bound to the next pick.
    """
    # Two occurrences fit in one body of length 2L or in two of length L.
    lens = sorted(map(len, bodies), reverse=True) + [0]
    limit = max(lens[0] // 2, lens[1])
    if bound is not None:
        limit = min(limit, bound)
    if limit < 2:
        return None
    concat = _concat(bodies)
    # Equal runs of ids are equal aligned runs of bytes.  Ids and
    # separators fit in 32 bits: sentinel ids, the largest, stay below 2**30.
    arr = array("i", concat)
    packed, width = arr.tobytes(), arr.itemsize

    def repeated(length: int) -> list[tuple[int, int]]:
        # First and last starts of the strings that pass.  A window holding
        # one of the distinct separators occurs once, so it never passes.
        k = len(concat) - length + 1
        span = width * length
        keys = [packed[a : a + span] for a in range(0, width * k, width)]
        first = dict(zip(reversed(keys), range(k - 1, -1, -1)))
        last = dict(zip(keys, range(k)))
        return [(p, q) for key, p in first.items() if (q := last[key]) - p >= length]

    # Gallop from the start until the test flips, then bisect.  A string of
    # length lo passes and none of length hi does.
    lo, hi, best = 1, limit + 1, None
    length, step = (2, 1) if bound is None else (limit, -1)
    while lo < length < hi:
        found = repeated(length)
        if found:
            lo, best = length, found
        else:
            hi = length
        if (step > 0) != bool(found):
            break
        length += step
        step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        found = repeated(mid)
        if found:
            lo, best = mid, found
        else:
            hi = mid
    if best is None:
        return None

    def starts(p: int, q: int) -> list[int]:
        # Every start of the string whose first and last starts are p and
        # q: the aligned hits of its bytes from p to q.
        key = packed[width * p : width * (p + lo)]
        out, a = [], width * p
        while a >= 0:
            if a % width == 0:
                out.append(a // width)
            a = packed.find(key, a + 1, width * q + len(key))
        return out

    return concat, _plateau(concat, starmap(starts, best), lo, 2)


_PICKS = {
    GlobalStrategy.REPAIR: _pick_repair,
    GlobalStrategy.REPAIR_PAIRS_ONLY: _pick_repair,
    GlobalStrategy.GREEDY: _pick_greedy,
    GlobalStrategy.LONGEST_MATCH: _pick_longest,
}


def _take(heads: list[int], bodies: list[list[int]], concat: list[int],
          plateau: list[tuple[list[int], int, int]], table: SymbolTable,
          ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Global steps on the rules `zip(heads, bodies)`, in place, for the
    plateau's strings in order; `concat` is the `_concat` sequence of the
    bodies.  A string's occurrences are its greedy left-to-right starts
    whose span meets no span replaced before.  If there are at least
    `want` of them, a new rule `R -> s` comes after replacing them all by
    `R`; otherwise the string is skipped.  Returns the strings taken and
    the strings skipped, as tuples of ids.

    A plateau string s holds no new nonterminal, so after earlier takes its
    occurrences outside the new rule bodies are exactly its starts that
    meet no replaced span, and two of them overlap exactly when they did
    before.  None lies in a new rule body: plateau strings of one length
    are distinct, and Greedy's runner-up is taken only with its whole
    count, which it keeps only when it does not occur in s."""
    dead = bytearray(len(concat))
    view = memoryview(dead)  # its slice assignment is the faster one
    taken, skipped, spans = [], [], []
    for k, (starts, length, want) in enumerate(plateau, 1):
        s = concat[starts[0] : starts[0] + length]
        # Each start that is no hit leaves one fewer: stop when too few are
        # left.  Nothing is dead before the first take.
        hits, end, spare = [], 0, len(starts) - want
        for p in starts:
            if p >= end and not (spans and dead.find(1, p, p + length) >= 0):
                hits.append(p)
                end = p + length
            elif (spare := spare - 1) < 0:
                break
        if len(hits) < want:
            skipped.append(tuple(s))
            continue
        fresh = table.fresh_nonterminal("R").id
        spans += zip(hits, repeat(length), repeat(fresh))
        taken.append((fresh, s))
        if k < len(plateau):  # only later strings read the marks
            mark = b"\1" * length
            for p in hits:
                view[p : p + length] = mark
    # Rebuild only the bodies that hold a replaced span.
    offsets = list(accumulate((len(body) + 1 for body in bodies), initial=0))
    touched: dict[int, list[tuple[int, int, int]]] = {}
    for span in sorted(spans):
        touched.setdefault(bisect_right(offsets, span[0]) - 1, []).append(span)
    for i, reps in touched.items():
        out, j = [], offsets[i]
        for p, length, fresh in reps:
            out += concat[j:p]
            out.append(fresh)
            j = p + length
        out += concat[j : offsets[i + 1] - 1]
        bodies[i] = out
    for fresh, s in taken:
        heads.append(fresh)
        bodies.append(s)
    return [tuple(s) for _, s in taken], skipped


def global_step(g: SLG, s) -> SLG:
    """One global-algorithm step: a new rule for `s` plus greedy replacement
    of all its non-overlapping occurrences."""
    s = _pattern(s, g.table)
    if s is None or len(s) < 2 or s not in maximal_strings(g):
        raise CompressorError("not a maximal string")
    heads, bodies = [head.id for head in g.rules], _rule_id_seqs(g)
    concat, s, m = _concat(bodies), [sym.id for sym in s], len(s)
    starts = [p for p in range(len(concat) - m + 1) if concat[p : p + m] == s]
    # A maximal string has at least two occurrences.
    _take(heads, bodies, concat, [(starts, m, 2)], g.table)
    return _slg(dict(zip(heads, bodies)), g.start.id, g.table)


def run_global(u, strategy: GlobalStrategy, table: SymbolTable) -> SLG:
    """Iterate maximal-string replacement from the single-rule grammar,
    taking each pick's plateau in one `_take` and picking again once it is
    spent."""
    pick = _PICKS[strategy]
    bodies = [list(_input_ids(u, table))]
    heads = [table.fresh_nonterminal("S").id]
    bound = None
    while (plateau := pick(bodies, bound)) is not None:
        concat, strings = plateau
        _take(heads, bodies, concat, strings, table)
        # Only LongestMatch reads it: no string of the spent length repeats.
        bound = strings[0][1] - 1
    return _slg(dict(zip(heads, bodies)), heads[0], table)


def repair(u, table: SymbolTable) -> SLG:
    return run_global(u, GlobalStrategy.REPAIR, table)


def repair_pairs_only(u, table: SymbolTable) -> SLG:
    return run_global(u, GlobalStrategy.REPAIR_PAIRS_ONLY, table)


def greedy(u, table: SymbolTable) -> SLG:
    return run_global(u, GlobalStrategy.GREEDY, table)


def longest_match(u, table: SymbolTable) -> SLG:
    return run_global(u, GlobalStrategy.LONGEST_MATCH, table)


# ---------------------------------------------------------------------------
# Sequential and Sequitur


class _OnlineGrammar:
    """Mutable working state of an online compressor, on ids, and the index
    its reductions look up.

    `rules` holds the start rule and then the secondaries in creation
    order.  The index lists one host per occurrence: `pairs` maps each
    adjacent pair of every body, overlapping pairs included, to the rule
    that holds each of its occurrences, and `uses` maps each live secondary
    to the rule that holds each of its uses.  `rare` holds the secondaries
    with fewer than two uses.  Every change to a body is a `splice`, which
    updates the index only where the body changed.  A trie of the
    secondaries' expansions is fed with each new rule when `feed` is set."""

    def __init__(self, table: SymbolTable, prefix: str, feed: bool):
        self.table = table
        self.start = table.fresh_nonterminal("S").id
        self.start_body: list[int] = []
        self.rules: dict[int, list[int]] = {self.start: self.start_body}
        self.prefix = prefix
        self.pairs: dict[tuple[int, int], list[int]] = {}
        self.uses: dict[int, list[int]] = {}
        self.rare: set[int] = set()
        self.exps: dict[int, tuple[int, ...]] | None = {} if feed else None
        self.children: dict[tuple[int, int], int] = {}
        self.ref: list[int | None] = [None]

    def splice(self, host: int, i: int, j: int, seq) -> None:
        """Replace body[i:j] of `host` by `seq`: the pairs of the window
        around the change and the uses that leave it go, the new ones come."""
        body = self.rules[host]
        lo = max(i - 1, 0)
        old, gone = body[lo : j + 1], body[i:j]
        body[i:j] = seq
        new = body[lo : i + len(seq) + 1]
        pairs, uses, rare = self.pairs, self.uses, self.rare
        for d in zip(old, old[1:]):
            hosts = pairs[d]
            hosts.remove(host)
            if not hosts:
                del pairs[d]
        for d in zip(new, new[1:]):
            pairs.setdefault(d, []).append(host)
        # Every removal before every addition, so that the last `rare` update
        # of a secondary that both leaves and comes back sees its final count.
        for x in gone:
            hosts = uses.get(x)
            if hosts is not None:  # else a symbol of the input
                hosts.remove(host)
                if len(hosts) < 2:
                    rare.add(x)
        for x in seq:
            hosts = uses.get(x)
            if hosts is not None:
                hosts.append(host)
                if len(hosts) > 1:
                    rare.discard(x)

    def new_rule(self, body: tuple[int, int]) -> int:
        head = self.table.fresh_nonterminal(self.prefix).id
        self.rules[head] = []
        self.uses[head] = []
        self.rare.add(head)
        self.splice(head, 0, 0, body)
        if self.exps is not None:
            # Now, while the body is the digram: a later rule can rewrite it.
            exps = self.exps
            exp = exps[head] = tuple(x for s in body for x in exps.get(s, (s,)))
            _trie_insert(self.children, self.ref, exp, head)
        return head

    def replace_digram(self, d: tuple[int, int], new: int) -> None:
        """Replace the greedy left-to-right non-overlapping occurrences of
        `d` by `new` in every body that holds `d`, except `new`'s own."""
        pattern = list(d)
        # Each host is rewritten on its own, so their order changes no body.
        for host in dict.fromkeys(self.pairs[d]):
            if host == new:
                continue
            # From the right: a splice shortens the body past its start.
            starts = list(_nonoverlapping(self.rules[host], pattern))
            for i in reversed(starts):
                self.splice(host, i, i + 2, (new,))

    def inline(self, head: int) -> None:
        """Drop the secondary `head`, used at most once, splicing its body
        into its one use if it has one."""
        definition = self.rules[head]
        hosts = self.uses[head]
        if hosts:
            (host,) = hosts
            i = self.rules[host].index(head)
            self.splice(host, i, i + 1, definition)
        self.splice(head, 0, len(definition), ())
        del self.rules[head], self.uses[head]
        self.rare.discard(head)


def _online(u, table: SymbolTable, prefix: str, feed: bool) -> SLG:
    """Append the longest live secondary in the trie that the rest of the
    input starts with, or its next symbol, to the start rule; then apply
    the three reductions to quiescence."""
    u = _input_ids(u, table)
    st = _OnlineGrammar(table, prefix, feed)
    pos, n = 0, len(u)
    while pos < n:
        # An irreducible grammar has no two secondaries of one expansion, so
        # the longest live match is the only match of its length.
        best, length = _trie_longest(st.children, st.ref, u, pos, st.uses)
        if best is None:
            best, length = u[pos], 1
        end = len(st.start_body)
        st.splice(st.start, end, end, (best,))
        pos += length
        while _reduce(st):
            pass
    return _slg(st.rules, st.start, table)


def _reduce(st: _OnlineGrammar) -> bool:
    """Apply the first reduction that applies; True if one did."""
    body = st.start_body
    if len(body) >= 2:
        d = (body[-2], body[-1])
        hosts = st.pairs[d]
        # 1. The suffix equals the body of a secondary: the first created.
        heads = [h for h in hosts if h != st.start and len(st.rules[h]) == 2]
        if heads:
            st.splice(st.start, len(body) - 2, len(body), (min(heads),))
            return True
        # 2. The suffix repeats: another occurrence that does not overlap it.
        others = len(hosts) - 1
        if len(body) >= 3 and body[-3] == d[0] == d[1]:
            others -= 1
        if others > 0:
            st.replace_digram(d, st.new_rule(d))
            return True
    # 3. The first secondary used at most once is dropped or inlined.
    if st.rare:
        st.inline(min(st.rare))
        return True
    return False


def sequential(u, table: SymbolTable) -> SLG:
    """Online longest-known-prefix parsing, keeping the grammar irreducible
    with Sequitur's reductions after every appended secondary or symbol."""
    return _online(u, table, "Q", True)


def sequitur(u, table: SymbolTable) -> SLG:
    """Symbol-by-symbol processing with three prioritized reductions keyed
    to the length-2 suffix of the start rule, applied to quiescence."""
    return _online(u, table, "U", False)


# ---------------------------------------------------------------------------
# Bisection


def bisection(u, table: SymbolTable) -> SLG:
    """Recursive split at the largest power of two below the length; one
    nonterminal per distinct generated substring of length > 1."""
    u = _input_ids(u, table)
    rules: dict[int, tuple[int, ...]] = {}
    memo: dict[tuple[int, ...], int] = {}

    def node(s: tuple[int, ...]) -> int:
        if len(s) == 1:
            return s[0]
        have = memo.get(s)
        if have is not None:
            return have
        k = _dyadic_split(len(s))
        head = table.fresh_nonterminal("B").id
        memo[s] = head
        rules[head] = (node(s[:k]), node(s[k:]))
        return head

    if len(u) == 1:
        start = table.fresh_nonterminal("B").id
        rules[start] = u
        return _slg(rules, start, table)
    return _slg(rules, node(u), table)


# ---------------------------------------------------------------------------
# One trie for the parsers (LZ78, LZD, Sequential)
#
# `children[(node, id)]` is the child of `node` along `id`; node 0 is the
# root and spells the empty string.  `ref[node]` is the grammar id whose
# expansion the node spells, or None.


def _trie_insert(children: dict, ref: list, ids: Sequence[int], head: int) -> None:
    """Make the node spelling `ids` refer to `head`."""
    node = 0
    for i in ids:
        nxt = children.get((node, i))
        if nxt is None:
            nxt = children[(node, i)] = len(ref)
            ref.append(None)
        node = nxt
    ref[node] = head


def _trie_longest(children: dict, ref: list, u: Sequence[int], pos: int,
                  live=None) -> tuple[int | None, int]:
    """The id and length of the longest string in the trie that `u` has at
    `pos`, counting only ids in `live` when it is given; (None, 0) if none."""
    node, best, best_len = 0, None, 0
    for i in range(pos, len(u)):
        node = children.get((node, u[i]))
        if node is None:
            break
        head = ref[node]
        if head is not None and (live is None or head in live):
            best, best_len = head, i + 1 - pos
    return best, best_len


def _factorization(starts: list[int], n: int) -> Factorization:
    """The phrases that start at the 0-based `starts` of an input of length n."""
    ends = starts[1:] + [n]
    return Factorization(tuple(Phrase(a + 1, b - a) for a, b in zip(starts, ends)))


def lz78(u, table: SymbolTable) -> tuple[Factorization, SLG]:
    """Classic LZ78 parse plus its straight-line encoding.

    The grammar uses one nonterminal per phrase, a shared empty nonterminal
    standing for the missing predecessor of first-occurrence symbols, and a
    start rule listing the phrases, which makes its size exactly three times
    the phrase count (one less when the input ends on a bare repeat).
    """
    u = _input_ids(u, table)
    n = len(u)
    children: dict[tuple[int, int], int] = {}
    # The root spells the empty phrase; the first phrase always extends it,
    # so E is always used.
    ref = [table.fresh_nonterminal("E").id]
    rules: dict[int, tuple[int, ...]] = {}
    starts: list[int] = []
    i = 0
    while i < n:
        starts.append(i)
        cur = 0
        while i < n and (cur, u[i]) in children:
            cur = children[(cur, u[i])]
            i += 1
        head = table.fresh_nonterminal("F").id
        if i < n:
            children[(cur, u[i])] = len(ref)
            ref.append(head)
            rules[head] = (ref[cur], u[i])
            i += 1
        else:
            rules[head] = (ref[cur],)  # bare repeat at end of input
    start = table.fresh_nonterminal("S").id
    rules = {start: tuple(rules), ref[0]: (), **rules}
    return _factorization(starts, n), _slg(rules, start, table)


def lzd(u, table: SymbolTable) -> tuple[Factorization, SLG]:
    """LZD parse: each phrase is the concatenation of the two longest
    prefixes drawn from earlier phrases and single symbols."""
    u = _input_ids(u, table)
    n = len(u)
    children: dict[tuple[int, int], int] = {}
    ref: list[int | None] = [None]
    for i in set(u):
        _trie_insert(children, ref, (i,), i)
    rules: dict[int, tuple[int, ...]] = {}
    starts: list[int] = []
    pos = 0
    while pos < n:
        starts.append(pos)
        # Every symbol is in the trie, so each part is at least one long.
        first, length = _trie_longest(children, ref, u, pos)
        end = pos + length
        if end < n:
            second, length = _trie_longest(children, ref, u, end)
            body = (first, second)
            end += length
        else:
            body = (first,)
        head = table.fresh_nonterminal("D").id
        _trie_insert(children, ref, u[pos:end], head)
        rules[head] = body
        pos = end
    start = table.fresh_nonterminal("S").id
    rules = {start: tuple(rules), **rules}
    return _factorization(starts, n), _slg(rules, start, table)


# ---------------------------------------------------------------------------
# Irreducibility (the invariant Sequential maintains)


def is_irreducible(g: SLG) -> bool:
    """No repeated non-overlapping digram, no single-use secondary, and no
    two nonterminals sharing an expansion."""
    if _pair_groups(_concat(_rule_id_seqs(g))):
        return False

    uses = _uses(g)
    if any(uses[head] < 2 for head in g.rules if head != g.start):
        return False

    exps = expand_all(g)
    return len(set(exps.values())) == len(exps)
