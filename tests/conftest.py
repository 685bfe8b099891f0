"""Shared fixtures, the settings of the property tests, and the independent
oracles the tests check against."""
from __future__ import annotations

import itertools
import os
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from slglab import SLG
from slglab.symbols import SymbolTable

# Set at import: Hypothesis writes its cache while pytest is still collecting,
# and keeps it in the system temporary directory, not in the working tree.
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "slglab-hypothesis"))

# Property tests draw the same cases on every run and keep no example database.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@pytest.fixture()
def table():
    return SymbolTable()


@pytest.fixture()
def g0(table):
    """The two-rule running example: S -> N1 N1, N1 -> a b."""
    a, b = table.terminal("a"), table.terminal("b")
    s, n1 = table.nonterminal("S"), table.nonterminal("N1")
    return SLG({s: (n1, n1), n1: (a, b)}, s, table)


def interned(table):
    """The table's symbols in intern order."""
    return [(s.id, s.kind, s.display) for s in table._by_display.values()]


# -- oracles ------------------------------------------------------------------


def isomorphic_reference(g1, g2):
    """Brute force over every bijection of the heads that maps start to
    start: some bijection maps each body of g1 onto the body of the image."""
    heads1 = [h for h in g1.rules if h != g1.start]
    heads2 = [h for h in g2.rules if h != g2.start]
    if len(heads1) != len(heads2):
        return False
    for image in itertools.permutations(heads2):
        name = dict(zip(heads1, image))
        name[g1.start] = g2.start
        if all(tuple(name.get(s, s) for s in body) == g2.rules[name[h]]
               for h, body in g1.rules.items()):
            return True
    return False


def greedy_count_in_bodies(bodies, s):
    """Greedy left-to-right non-overlapping occurrence count of s."""
    total = 0
    m = len(s)
    for body in bodies:
        i = 0
        while i + m <= len(body):
            if tuple(body[i : i + m]) == tuple(s):
                total += 1
                i += m
            else:
                i += 1
    return total


def brute_maximal_strings(g):
    """Definition-level enumeration over all substrings of all bodies."""
    bodies = [tuple(b) for b in g.rules.values()]
    candidates = {}
    for body in bodies:
        for i in range(len(body)):
            for j in range(i + 2, len(body) + 1):
                s = body[i:j]
                if s not in candidates:
                    candidates[s] = greedy_count_in_bodies(bodies, s)
    out = set()
    for s, f in candidates.items():
        if f < 2:
            continue
        dominated = any(
            len(t) > len(s) and ft >= f for t, ft in candidates.items()
        )
        if not dominated:
            out.add(s)
    return out


def _reference_candidates(bodies):
    """Every maximal string of the bodies as (pos, length, f) into their
    separator-joined concatenation, by growing all repeated strings level
    by level and keeping those no longer survivor matches in count."""
    concat = []
    for sep, body in enumerate(bodies, start=1):
        concat.extend(body)
        concat.append(-sep)
    n = len(concat)

    def disjoint(positions, length):
        count, last = 0, -length
        for p in positions:
            if p >= last + length:
                count, last = count + 1, p
        return count

    groups = {}
    for p in range(n - 1):
        if concat[p] >= 0 and concat[p + 1] >= 0:
            groups.setdefault((concat[p], concat[p + 1]), []).append(p)
    cur = [(ps, disjoint(ps, 2)) for ps in groups.values()]
    cur = [(ps, f) for ps, f in cur if f >= 2]
    candidates, length = [], 2
    while cur:
        nxt = []
        for positions, _ in cur:
            buckets = {}
            for p in positions:
                if concat[p + length] >= 0:
                    buckets.setdefault(concat[p + length], []).append(p)
            for ext in buckets.values():
                f = disjoint(ext, length + 1)
                if f >= 2:
                    nxt.append((ext, f))
        best_next = max((f for _, f in nxt), default=0)
        candidates += [(ps[0], length, f) for ps, f in cur if f > best_next]
        cur, length = nxt, length + 1
    return candidates, concat


def _reference_choose(strategy, candidates, concat):
    """The strategy's key over the maximal strings; ties break by shorter
    length, then by the smaller id sequence."""
    def ids(c):
        pos, length, _ = c
        return tuple(concat[pos : pos + length])

    name = strategy.value
    if name == "longest":
        return min(candidates, key=lambda c: (-c[1], ids(c)))
    if name == "greedy":
        return min(
            candidates, key=lambda c: (-(c[2] * (c[1] - 1) - c[1]), c[1], ids(c))
        )
    if name == "repair2":
        pairs = [c for c in candidates if c[1] == 2]
        if pairs:
            return min(pairs, key=lambda c: (-c[2], ids(c)))
        # No length-2 maximal string exists; fall back to RePair's pick.
    return min(candidates, key=lambda c: (-c[2], c[1], ids(c)))


def _reference_replace(body, s, new):
    out, i, m = [], 0, len(s)
    while i < len(body):
        if tuple(body[i : i + m]) == s:
            out.append(new)
            i += m
        else:
            out.append(body[i])
            i += 1
    return out


def run_global_reference(u, strategy, table):
    """The global algorithm by definition: list every maximal string each
    round, pick one by the strategy's key and replace it everywhere."""
    syms = table.chars(u) if isinstance(u, str) else tuple(u)
    bodies = [[s.id for s in syms]]
    heads = [table.fresh_nonterminal("S").id]
    while True:
        candidates, concat = _reference_candidates(bodies)
        if not candidates:
            break
        pos, length, _ = _reference_choose(strategy, candidates, concat)
        sid = tuple(concat[pos : pos + length])
        fresh = table.fresh_nonterminal("R").id
        bodies = [_reference_replace(b, sid, fresh) for b in bodies]
        heads.append(fresh)
        bodies.append(list(sid))
    by_id = table.by_id
    rules = {by_id(h): tuple(map(by_id, b)) for h, b in zip(heads, bodies)}
    return SLG(rules, by_id(heads[0]), table)


def _first_repeated_digram(bodies):
    """The first digram, in scan order, to reach two non-overlapping
    occurrences in the bodies."""
    counts, last = {}, {}
    for ridx, body in enumerate(bodies):
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


class _ReferenceOnlineGrammar:
    """The working state of the online references, on ids: the start rule
    and the secondary rules in creation order."""

    def __init__(self, table, prefix):
        self.table = table
        self.start = table.fresh_nonterminal("S").id
        self.start_body = []
        self.sec = {}
        self.prefix = prefix

    def new_rule(self, body):
        head = self.table.fresh_nonterminal(self.prefix).id
        self.sec[head] = body
        return head

    def all_bodies(self):
        yield self.start_body
        yield from self.sec.values()

    def replace_digram(self, d, new):
        self.start_body[:] = _reference_replace(self.start_body, d, new)
        for head, body in self.sec.items():
            if head != new:
                self.sec[head] = _reference_replace(body, d, new)

    def inline_single_uses(self):
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

    def to_slg(self):
        by_id = self.table.by_id
        rules = {self.start: self.start_body, **self.sec}
        return SLG({by_id(h): tuple(map(by_id, b)) for h, b in rules.items()},
                   by_id(self.start), self.table)


def _reference_ids(u, table):
    syms = table.chars(u) if isinstance(u, str) else tuple(u)
    return tuple(s.id for s in syms)


def sequential_reference(u, table: SymbolTable) -> SLG:
    """Online longest-known-prefix parsing with repeated-pair elimination
    and single-use inlining after every appended symbol.  The parse tries
    every live secondary's expansion, longest first, and every digram of
    the grammar is scanned for a repeat."""
    u = _reference_ids(u, table)
    st = _ReferenceOnlineGrammar(table, "Q")
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
            d = _first_repeated_digram(st.all_bodies())
            if d is not None:
                head = st.new_rule(list(d))
                exps[head] = tuple(x for s in d for x in exps.get(s, (s,)))
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


def sequitur_reference(u, table: SymbolTable) -> SLG:
    """Symbol-by-symbol processing with three prioritized reductions keyed
    to the length-2 suffix of the start rule, applied to quiescence."""
    u = _reference_ids(u, table)
    st = _ReferenceOnlineGrammar(table, "U")
    for sym in u:
        st.start_body.append(sym)
        while _reference_sequitur_reduce(st):
            pass
    return st.to_slg()


def _reference_sequitur_reduce(st):
    body = st.start_body
    if len(body) >= 2:
        suffix = (body[-2], body[-1])
        # 1. The suffix equals the definition of an existing rule.
        for head, definition in st.sec.items():
            if len(definition) == 2 and definition[0] == suffix[0] and definition[1] == suffix[1]:
                body[-2:] = [head]
                return True
        # 2. The suffix digram repeats non-overlappingly somewhere.
        if _reference_suffix_repeats(st, suffix):
            head = st.new_rule(list(suffix))
            st.replace_digram(suffix, head)
            return True
    # 3. Single-use rule inlining.
    return st.inline_single_uses()


def _reference_suffix_repeats(st, suffix):
    body = st.start_body
    suffix_at = len(body) - 2
    for ridx, b in enumerate(st.all_bodies()):
        for i in range(len(b) - 1):
            if ridx == 0 and i >= suffix_at - 1:
                break  # would overlap (or be) the suffix occurrence
            if b[i] == suffix[0] and b[i + 1] == suffix[1]:
                return True
    return False


def slg_order_reference(rules, start, table):
    """The children-before-parents order of the SLG with these rules, or None
    when they do not form one over `table`: a start, head or body symbol
    that is not the table's own object, a start or rule head that is no
    nonterminal, a start or body nonterminal without a rule, or a cycle.
    The order is the depth-first post-order from each head in rule order,
    children in body order."""
    symbols = [*rules, *(s for body in rules.values() for s in body)]
    if any(table.get(s.display) is not s for s in [start, *symbols]):
        return None
    if not start.is_nonterminal() or start not in rules:
        return None
    if not all(h.is_nonterminal() for h in rules):
        return None
    if any(s.is_nonterminal() and s not in rules for s in symbols):
        return None
    order, done, open_ = [], set(), set()

    def visit(n):  # recursive: small rule maps only
        if n in done:
            return True
        if n in open_:
            return False
        open_.add(n)
        if not all(visit(s) for s in rules[n] if s.is_nonterminal()):
            return False
        done.add(n)
        order.append(n)
        return True

    return tuple(order) if all(visit(h) for h in rules) else None


def lzd_parts_reference(u):
    """The LZD parse by its definition, as the part lengths (first, second)
    of each phrase, second 0 when the input ends after the first part.  A
    part is the longest prefix of the rest that is an earlier phrase or a
    single symbol of the input."""
    u = tuple(u)
    known = {(s,) for s in u}

    def longest(p):
        return max(k for k in range(1, len(u) - p + 1) if u[p : p + k] in known)

    parts, pos = [], 0
    while pos < len(u):
        first = longest(pos)
        second = longest(pos + first) if pos + first < len(u) else 0
        parts.append((first, second))
        known.add(u[pos : pos + first + second])
        pos += first + second
    return parts


def brute_dyadic_distinct(u):
    """Distinct substrings over dyadic intervals of length > 1."""
    u = tuple(u)
    seen = set()
    k = 2
    while k <= len(u):
        for a in range(0, len(u) - k + 1, k):
            seen.add(u[a : a + k])
        k *= 2
    return seen


def _twice_apart(w, s):
    """Whether `s` has two non-overlapping occurrences in `w`."""
    first = w.find(s)
    return first >= 0 and w.find(s, first + len(s)) >= 0


def _shortest_parse(s, pieces):
    """The fewest parts `s` splits into, each a letter or one of `pieces`."""
    cost = [0]
    for j in range(1, len(s) + 1):
        cost.append(1 + min([cost[j - 1]] + [
            cost[j - len(p)] for p in pieces if s.endswith(p, 0, j)
        ]))
    return cost[-1]


def smallest_grammar_size(w):
    """The size of a smallest SLG for the nonempty string `w`, by search.

    A smallest grammar has no rule used once and no rule expanding to fewer
    than two symbols, so every nonterminal but the start expands to a
    constituent: a string of length 2 or more, shorter than `w`, with two
    non-overlapping occurrences in `w`.  A set of k constituents costs the
    shortest parse of `w` and of each constituent into letters and shorter
    constituents of the set.  Each constituent's parse has two parts or
    more, so a set of k costs at least 2k + 1, and the sets are tried in
    order of size until that bound reaches the best cost found."""
    n = len(w)
    substrings = {w[i:j] for i in range(n) for j in range(i + 2, n + 1)}
    constituents = sorted(s for s in substrings if _twice_apart(w, s))
    best = n
    for k in itertools.count(1):
        if 2 * k + 1 >= best:
            return best
        for chosen in itertools.combinations(constituents, k):
            best = min(best, sum(
                _shortest_parse(s, [p for p in chosen if len(p) < len(s)])
                for s in chosen + (w,)
            ))


def wrna_exhaustive(u, alphabet):
    """Plain recursive enumeration of all non-crossing matchings (no memo)."""
    u = tuple(u)

    def best(i, j):
        if i >= j:
            return 0
        top = best(i + 1, j)
        want = alphabet.match[u[i]]
        for k in range(i + 1, j + 1):
            if u[k] == want:
                v = alphabet.weight[u[i]] + best(i + 1, k - 1) + best(k + 1, j)
                if v > top:
                    top = v
        return top

    return best(0, len(u) - 1)


def wrna_table_py(seq, match_of, w_of):
    """Pure-Python interval DP over encoded symbols, filled by increasing
    interval length: the full-table oracle for the numpy folding kernel."""
    n = len(seq)
    dp = [[0] * (n + 1) for _ in range(n + 2)]
    for ln in range(2, n + 1):
        for i in range(n - ln + 1):
            j = i + ln - 1
            best = dp[i + 1][j]
            mi = match_of[seq[i]]
            wi = w_of[seq[i]]
            row_i1 = dp[i + 1]
            for k in range(i + 1, j + 1):
                if seq[k] == mi:
                    v = wi + row_i1[k - 1] + dp[k + 1][j]
                    if v > best:
                        best = v
            dp[i][j] = best
    return dp


def wrna_reference(u, alphabet):
    """Per-pair numpy folding kernel and scanning traceback: one vectorised
    max for each matched pair `(i, k)`, and a traceback that tries every
    `k` in `(i, j]`.  The oracle for the row-gathered kernel.  Returns
    `(table, value, pairs)`, with the `(n+2) x (n+1)` int64 table."""
    import numpy as np

    codes = {}
    for s in alphabet.symbols:
        codes.setdefault(s, len(codes))
    seq = [codes[s] for s in u]
    match_of = [codes[alphabet.match[s]] for s in codes]
    w_of = [alphabet.weight[s] for s in codes]
    n = len(seq)
    dp = np.zeros((n + 2, n + 1), dtype=np.int64)
    occurrences = [[] for _ in match_of]
    for k, c in enumerate(seq):
        occurrences[c].append(k)
    for i in range(n - 1, -1, -1):
        row, below = dp[i], dp[i + 1]
        row[i:n] = below[i:n]
        w = w_of[seq[i]]
        for k in occurrences[match_of[seq[i]]]:
            if k > i:
                np.maximum(row[k:n], w + below[k - 1] + dp[k + 1, k:n], out=row[k:n])
    if n == 0:
        return dp, 0, ()
    pairs = []
    stack = [(0, n - 1)]
    while stack:
        i, j = stack.pop()
        if i >= j:
            continue
        if dp[i, j] == dp[i + 1, j]:
            stack.append((i + 1, j))
            continue
        mi = match_of[seq[i]]
        wi = w_of[seq[i]]
        for k in range(i + 1, j + 1):
            if seq[k] == mi and dp[i, j] == wi + dp[i + 1, k - 1] + dp[k + 1, j]:
                pairs.append((i + 1, k + 1))
                stack.append((i + 1, k - 1))
                stack.append((k + 1, j))
                break
    return dp, int(dp[0, n - 1]), tuple(sorted(pairs))


def cyk_member_table(g, u, length_cap=5000):
    """Table CYK over the compiled normal form: every cell of every span,
    every split point.  The cubic oracle for the bit-vector recogniser."""
    from slglab.cfg import CfgError, _compile

    u = tuple(u)
    if len(u) > length_cap:
        raise CfgError(f"input length {len(u)} exceeds the cap {length_cap}")
    terms = g.terminals()
    for s in u:
        if s not in terms:
            raise CfgError(f"symbol {s.display} not in the terminal set")
    comp = _compile(g)
    n = len(u)
    if n == 0:
        return comp.nullable_start
    start = comp.start
    # cell[i][j] = heads deriving u[i..i+j]
    cells = [[set() for _ in range(n - i)] for i in range(n)]
    for i, s in enumerate(u):
        cells[i][0] = set(comp.unary.get(s.id, ()))
    bleft = comp.binary_left
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            acc = cells[i][span - 1]
            for k in range(1, span):
                left_cell = cells[i][k - 1]
                right_cell = cells[i + k][span - k - 1]
                if not left_cell or not right_cell:
                    continue
                for l in left_cell:
                    for right, head in bleft[l]:
                        if right in right_cell:
                            acc.add(head)
    return start in cells[0][n - 1]


def cfg_language_upto(g, max_len):
    """All members of L(g) up to the length bound, built length by length
    (an oracle independent of the CYK tables).  `lang[l][X]` holds the
    words of length l that X derives.  A body's words of length l join
    words of its symbols whose lengths sum to l.  A part of length l itself
    (unit rules, cycles, nullable siblings) is read from `lang[l]` as it
    grows, so each length is iterated to a fixpoint."""
    from slglab.cfg import CFG

    assert isinstance(g, CFG)
    lang = []

    def words(sym, n):
        if sym.is_terminal():
            return {(sym,)} if n == 1 else set()
        return lang[n][sym]

    def body_words(body, n):
        if not body:
            return {()} if n == 0 else set()
        out = set()
        for k in range(n + 1):
            if lefts := words(body[0], k):
                rights = body_words(body[1:], n - k)
                out |= {x + y for x in lefts for y in rights}
        return out

    for n in range(max_len + 1):
        lang.append({head: set() for head, _ in g.rules})
        grew = True
        while grew:
            grew = False
            for head, body in g.rules:
                new = body_words(body, n) - lang[n][head]
                if new:
                    lang[n][head] |= new
                    grew = True
    return {w for level in lang for w in level[g.start]}


def all_strings_upto(alphabet, max_len):
    for n in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=n):
            yield tup
