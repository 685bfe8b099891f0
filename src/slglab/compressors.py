"""Grammar compression algorithms producing SLGs over the input's alphabet.

The global engine (RePair and friends) repeatedly replaces a maximal string;
the nonglobal algorithms process the input online.  Inputs may be plain
strings (characters become terminals of the given table) or sequences of
symbols interned in that table; any other symbol is refused.  Every
compressor reads its input through `_input_ids` and works on integer ids;
`_slg` turns the finished id rules back into symbols once.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .core import SLG, GrammarError, expand_all
from .symbols import Symbol, SymbolTable


class CompressorError(ValueError):
    pass


def _as_symbols(u, table: SymbolTable) -> tuple[Symbol, ...]:
    if isinstance(u, str):
        return table.chars(u)
    return tuple(u)


def _input_ids(u, table: SymbolTable) -> tuple[int, ...]:
    """The ids of a nonempty input whose symbols are all interned in `table`."""
    u = _as_symbols(u, table)
    if not u:
        raise CompressorError("empty input")
    # One check per distinct object: a table interns each symbol once.
    for s in {id(s): s for s in u}.values():
        if table.get(s.display) is not s:
            raise GrammarError(f"symbol {s.display} is not interned in this table")
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
    """One phrase of a factorization.

    `refs` records provenance: ("prev", i, ext) for LZ78 (i = 0 means no
    previous phrase; ext is None for a bare final repeat), ("parts", a, b)
    for LZD where each part is ("phrase", i) or ("sym", symbol) and b may be
    None when the input ends mid-phrase.
    """

    start: int  # 1-based position in the input
    length: int
    refs: tuple


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


def count_nonoverlapping(s, g: SLG) -> int:
    """Greedy left-to-right non-overlapping occurrences of `s` on the
    right-hand sides of `g`."""
    s = _as_symbols(s, g.table)
    if len(s) < 1:
        raise CompressorError("pattern must be nonempty")
    total = 0
    for body in g.rules.values():
        i = 0
        n, m = len(body), len(s)
        while i + m <= n:
            if body[i : i + m] == s:
                total += 1
                i += m
            else:
                i += 1
    return total


def _rule_id_seqs(g: SLG) -> list[list[int]]:
    return [[s.id for s in body] for body in g.rules.values()]


def _maximal_candidates(seqs: list[list[int]]):
    """All maximal strings over the given rule bodies.

    Returns (candidates, concat) where each candidate is (pos, length, f):
    the string is concat[pos:pos+length] and f is its greedy non-overlapping
    occurrence count.  Distinct repeated substrings are grown level by level;
    a string survives a level only while its disjoint count stays >= 2, and
    it is maximal exactly when no longer survivor matches its count.
    """
    concat = _concat(seqs)
    n = len(concat)

    groups: dict[tuple[int, int], list[int]] = {}
    for p in range(n - 1):
        a = concat[p]
        if a < 0 or concat[p + 1] < 0:
            continue
        groups.setdefault((a, concat[p + 1]), []).append(p)
    cur: list[tuple[list[int], int]] = []
    for positions in groups.values():
        if len(positions) >= 2:
            f = _greedy_disjoint(positions, 2)
            if f >= 2:
                cur.append((positions, f))

    candidates: list[tuple[int, int, int]] = []
    length = 2
    while cur:
        nxt: list[tuple[list[int], int]] = []
        best_next = 0
        for positions, _ in cur:
            buckets: dict[int, list[int]] = {}
            for p in positions:
                q = p + length
                if q < n and concat[q] >= 0:
                    buckets.setdefault(concat[q], []).append(p)
            for ext in buckets.values():
                if len(ext) >= 2:
                    f = _greedy_disjoint(ext, length + 1)
                    if f >= 2:
                        nxt.append((ext, f))
                        if f > best_next:
                            best_next = f
        for positions, f in cur:
            if f > best_next:
                candidates.append((positions[0], length, f))
        cur = nxt
        length += 1
    return candidates, concat


def maximal_strings(g: SLG) -> set[tuple[Symbol, ...]]:
    """Strings of length >= 2 with >= 2 greedy non-overlapping occurrences
    on the right-hand sides, not dominated by any longer such string."""
    candidates, concat = _maximal_candidates(_rule_id_seqs(g))
    table = g.table
    out = set()
    for pos, length, _ in candidates:
        out.add(tuple(table.by_id(i) for i in concat[pos : pos + length]))
    return out


# ---------------------------------------------------------------------------
# Global algorithms


class GlobalStrategy(Enum):
    """Selector over the maximal-string candidates of the current grammar."""

    REPAIR = "repair"
    REPAIR_PAIRS_ONLY = "repair2"
    GREEDY = "greedy"
    LONGEST_MATCH = "longest"

    def choose(self, candidates, concat):
        # Ties break by shortest length, then lexicographically by ids.
        def ids(c):
            pos, length, _ = c
            return tuple(concat[pos : pos + length])

        if self is GlobalStrategy.LONGEST_MATCH:
            return min(candidates, key=lambda c: (-c[1], ids(c)))
        if self is GlobalStrategy.GREEDY:
            return min(
                candidates,
                key=lambda c: (-(c[2] * (c[1] - 1) - c[1]), c[1], ids(c)),
            )
        if self is GlobalStrategy.REPAIR_PAIRS_ONLY:
            pairs = [c for c in candidates if c[1] == 2]
            if pairs:
                return min(pairs, key=lambda c: (-c[2], ids(c)))
            # No length-2 maximal string exists; fall back to RePair's pick.
        return min(candidates, key=lambda c: (-c[2], c[1], ids(c)))


def _replace_all(body: list[int], s: tuple[int, ...], new_id: int) -> list[int]:
    m = len(s)
    first = s[0]
    out: list[int] = []
    i = 0
    n = len(body)
    while i < n:
        if body[i] == first and i + m <= n and tuple(body[i : i + m]) == s:
            out.append(new_id)
            i += m
        else:
            out.append(body[i])
            i += 1
    return out


def global_step(g: SLG, s) -> SLG:
    """One global-algorithm step: a new rule for `s` plus greedy replacement
    of all its non-overlapping occurrences."""
    s = _as_symbols(s, g.table)
    if len(s) < 2 or s not in maximal_strings(g):
        raise CompressorError("not a maximal string")
    fresh = g.table.fresh_nonterminal("R").id
    sid = tuple(sym.id for sym in s)
    rules = {
        head.id: _replace_all([x.id for x in body], sid, fresh)
        for head, body in g.rules.items()
    }
    rules[fresh] = sid
    return _slg(rules, g.start.id, g.table)


def run_global(u, strategy: GlobalStrategy, table: SymbolTable) -> SLG:
    """Iterate maximal-string replacement from the single-rule grammar."""
    bodies = [list(_input_ids(u, table))]
    heads = [table.fresh_nonterminal("S").id]
    while True:
        candidates, concat = _maximal_candidates(bodies)
        if not candidates:
            break
        pos, length, _ = strategy.choose(candidates, concat)
        sid = tuple(concat[pos : pos + length])
        fresh = table.fresh_nonterminal("R").id
        bodies = [_replace_all(b, sid, fresh) for b in bodies]
        heads.append(fresh)
        bodies.append(list(sid))
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
# Sequential


class _OnlineGrammar:
    """Mutable working state shared by Sequential and Sequitur, on ids."""

    def __init__(self, table: SymbolTable, prefix: str):
        self.table = table
        self.start = table.fresh_nonterminal("S").id
        self.start_body: list[int] = []
        self.sec: dict[int, list[int]] = {}  # secondary rules, in creation order
        self.prefix = prefix

    def new_rule(self, body: list[int]) -> int:
        head = self.table.fresh_nonterminal(self.prefix).id
        self.sec[head] = body
        return head

    def all_bodies(self):
        yield self.start_body
        yield from self.sec.values()

    def find_repeated_digram(self) -> tuple[int, int] | None:
        """First digram (in scan order) with two non-overlapping occurrences."""
        counts: dict[tuple[int, int], int] = {}
        last: dict[tuple[int, int], tuple[int, int]] = {}
        for ridx, body in enumerate(self.all_bodies()):
            for i in range(len(body) - 1):
                d = (body[i], body[i + 1])
                prev = last.get(d)
                if prev is not None and prev[0] == ridx and i < prev[1] + 2:
                    continue  # overlaps the occurrence already counted
                last[d] = (ridx, i)
                counts[d] = counts.get(d, 0) + 1
                if counts[d] == 2:
                    return d
        return None

    def replace_digram(self, d: tuple[int, int], new: int) -> None:
        self.start_body[:] = _replace_all(self.start_body, d, new)
        for head, body in self.sec.items():
            if head != new:
                self.sec[head] = _replace_all(body, d, new)

    def inline_single_uses(self) -> bool:
        """Inline one single-use secondary (drop zero-use ones); True if any."""
        counts = dict.fromkeys(self.sec, 0)
        for body in self.all_bodies():
            for s in body:
                if s in counts:
                    counts[s] += 1
        for head in list(self.sec):
            if counts[head] == 0:
                del self.sec[head]
                return True
            if counts[head] == 1:
                definition = self.sec.pop(head)
                for body in self.all_bodies():
                    for i, s in enumerate(body):
                        if s == head:
                            body[i : i + 1] = definition
                            return True
        return False

    def to_slg(self) -> SLG:
        return _slg({self.start: self.start_body, **self.sec}, self.start, self.table)


def sequential(u, table: SymbolTable) -> SLG:
    """Online longest-known-prefix parsing with repeated-pair elimination
    and single-use inlining after every appended symbol."""
    u = _input_ids(u, table)
    st = _OnlineGrammar(table, "Q")
    exps: dict[int, tuple[int, ...]] = {}  # secondary expansions
    by_len: list[int] = []  # secondaries sorted by decreasing expansion length
    pos, n = 0, len(u)
    while pos < n:
        best: int | None = None
        for head in by_len:
            e = exps[head]
            if pos + len(e) <= n and u[pos] == e[0] and u[pos : pos + len(e)] == e:
                best = head
                break
        if best is not None:
            st.start_body.append(best)
            pos += len(exps[best])
        else:
            st.start_body.append(u[pos])
            pos += 1
        # Normalize: at most one repeated pair can exist, then at most one
        # single-use nonterminal; loop defensively until quiescent.
        while True:
            d = st.find_repeated_digram()
            if d is not None:
                head = st.new_rule(list(d))
                exps[head] = _online_expansion(d, exps)
                st.replace_digram(d, head)
                by_len.append(head)
                by_len.sort(key=lambda h: -len(exps[h]))
                continue
            if st.inline_single_uses():
                continue
            break
        for head in list(exps):
            if head not in st.sec:
                del exps[head]
        by_len = [h for h in by_len if h in exps]
    return st.to_slg()


def _online_expansion(body, exps) -> tuple[int, ...]:
    out: list[int] = []
    for s in body:
        if s in exps:
            out.extend(exps[s])
        else:
            out.append(s)
    return tuple(out)


# ---------------------------------------------------------------------------
# Sequitur


def sequitur(u, table: SymbolTable) -> SLG:
    """Symbol-by-symbol processing with three prioritized reductions keyed
    to the length-2 suffix of the start rule, applied to quiescence."""
    u = _input_ids(u, table)
    st = _OnlineGrammar(table, "U")
    for sym in u:
        st.start_body.append(sym)
        while _sequitur_reduce(st):
            pass
    return st.to_slg()


def _sequitur_reduce(st: _OnlineGrammar) -> bool:
    body = st.start_body
    if len(body) >= 2:
        suffix = (body[-2], body[-1])
        # 1. The suffix equals the definition of an existing rule.
        for head, definition in st.sec.items():
            if len(definition) == 2 and definition[0] == suffix[0] and definition[1] == suffix[1]:
                body[-2:] = [head]
                return True
        # 2. The suffix digram repeats non-overlappingly somewhere.
        if _sequitur_suffix_repeats(st, suffix):
            head = st.new_rule(list(suffix))
            st.replace_digram(suffix, head)
            return True
    # 3. Single-use rule inlining.
    return st.inline_single_uses()


def _sequitur_suffix_repeats(st: _OnlineGrammar, suffix) -> bool:
    body = st.start_body
    suffix_at = len(body) - 2
    for ridx, b in enumerate(st.all_bodies()):
        for i in range(len(b) - 1):
            if ridx == 0 and i >= suffix_at - 1:
                break  # would overlap (or be) the suffix occurrence
            if b[i] == suffix[0] and b[i + 1] == suffix[1]:
                return True
    return False


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
        k = 1
        while k * 2 < len(s):
            k *= 2
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
# LZ78


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
    phrases: list[tuple[int, int | None]] = []  # (previous phrase index, ext id)
    starts: list[int] = []
    i = 0
    while i < n:
        starts.append(i + 1)
        cur = 0
        while i < n and (cur, u[i]) in children:
            cur = children[(cur, u[i])]
            i += 1
        if i < n:
            children[(cur, u[i])] = len(phrases) + 1
            phrases.append((cur, u[i]))
            i += 1
        else:
            phrases.append((cur, None))  # bare repeat at end of input

    starts.append(n + 1)
    fact = Factorization(tuple(
        Phrase(starts[k], starts[k + 1] - starts[k],
               ("prev", prev, None if ext is None else table.by_id(ext)))
        for k, (prev, ext) in enumerate(phrases)
    ))

    # The first phrase always extends the empty phrase, so E is always used.
    empty = table.fresh_nonterminal("E").id
    heads = [table.fresh_nonterminal("F").id for _ in phrases]
    start = table.fresh_nonterminal("S").id
    rules: dict[int, tuple[int, ...]] = {start: tuple(heads), empty: ()}
    for head, (prev, ext) in zip(heads, phrases):
        left = heads[prev - 1] if prev > 0 else empty
        rules[head] = (left,) if ext is None else (left, ext)
    return fact, _slg(rules, start, table)


# ---------------------------------------------------------------------------
# LZD


class _Trie:
    __slots__ = ("children", "ref")

    def __init__(self):
        self.children: dict[int, _Trie] = {}
        self.ref = None  # ("sym", Symbol) or ("phrase", index)


def lzd(u, table: SymbolTable) -> tuple[Factorization, SLG]:
    """LZD parse: each phrase is the concatenation of the two longest
    prefixes drawn from earlier phrases and single symbols."""
    u = _input_ids(u, table)
    n = len(u)
    root = _Trie()

    def insert(ids, ref) -> None:
        node = root
        for i in ids:
            nxt = node.children.get(i)
            if nxt is None:
                nxt = _Trie()
                node.children[i] = nxt
            node = nxt
        node.ref = ref

    for i in set(u):
        insert((i,), ("sym", table.by_id(i)))

    def longest(pos: int):
        node = root
        best_ref, best_len = None, 0
        i = pos
        while i < n:
            node = node.children.get(u[i])
            if node is None:
                break
            i += 1
            if node.ref is not None:
                best_ref, best_len = node.ref, i - pos
        return best_ref, best_len

    phrases: list[tuple] = []  # (start, length, ref1, ref2)
    pos = 0
    while pos < n:
        ref1, len1 = longest(pos)
        if ref1 is None:
            raise CompressorError("unmatched symbol")  # unreachable by construction
        ref2, len2 = (None, 0)
        if pos + len1 < n:
            ref2, len2 = longest(pos + len1)
        total = len1 + len2
        idx = len(phrases) + 1
        insert(u[pos : pos + total], ("phrase", idx))
        phrases.append((pos + 1, total, ref1, ref2))
        pos += total

    fact = Factorization(
        tuple(Phrase(st, ln, ("parts", r1, r2)) for st, ln, r1, r2 in phrases)
    )

    heads = [table.fresh_nonterminal("D").id for _ in phrases]

    def resolve(ref) -> int:
        return ref[1].id if ref[0] == "sym" else heads[ref[1] - 1]

    start = table.fresh_nonterminal("S").id
    rules: dict[int, tuple[int, ...]] = {start: tuple(heads)}
    for head, (_, _, r1, r2) in zip(heads, phrases):
        rules[head] = (resolve(r1),) if r2 is None else (resolve(r1), resolve(r2))
    return fact, _slg(rules, start, table)


# ---------------------------------------------------------------------------
# Irreducibility (the invariant Sequential maintains)


def is_irreducible(g: SLG) -> bool:
    """No repeated non-overlapping digram, no single-use secondary, and no
    two nonterminals sharing an expansion."""
    concat = _concat(_rule_id_seqs(g))
    positions: dict[tuple[int, int], list[int]] = {}
    for p in range(len(concat) - 1):
        if concat[p] >= 0 and concat[p + 1] >= 0:
            positions.setdefault((concat[p], concat[p + 1]), []).append(p)
    for plist in positions.values():
        if len(plist) >= 2 and _greedy_disjoint(plist, 2) >= 2:
            return False

    uses = {head: 0 for head in g.rules}
    for body in g.rules.values():
        for s in body:
            if s in uses:
                uses[s] += 1
    for head, count in uses.items():
        if head != g.start and count < 2:
            return False

    exps = expand_all(g)
    return len(set(exps.values())) == len(exps)
