"""General context-free grammars: membership and the language-preserving
transformations that re-target a CFG at boosted strings.

Membership runs a bit-vector CYK recogniser on the binary normal form 2NF of
Lange and Leiss ("To CNF or not to CNF?", Informatica Didactica 2009): long
bodies are binarized, and epsilon and unit rules stay, closed once into the
heads each symbol stands for.  The transformations are size-linear rewrites:
interposing a wildcard between symbols, prepending a fixed-length block, and
closing the language under sentinel insertion.  `serialize_cfg` refuses a
symbol whose display would read back as something else.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import count

from .boost import alpha_sentinel_counts, beta_sentinel_counts
from .core import SLG, _content_lines, _terminals
from .symbols import SentinelFamily, Symbol, SymbolError, SymbolTable

DEFAULT_CYK_CAP = 5000


class CfgError(ValueError):
    pass


@dataclass(frozen=True)
class CFG:
    """Context-free grammar; multiple rules per head and epsilon bodies are
    allowed.  Size is the total body length over all rules."""

    rules: tuple[tuple[Symbol, tuple[Symbol, ...]], ...]
    start: Symbol

    def __post_init__(self):
        heads = {h for h, _ in self.rules}
        if not self.start.is_nonterminal():
            raise CfgError("start symbol must be a nonterminal")
        if self.start not in heads:
            raise CfgError("start symbol has no rule")
        for head, body in self.rules:
            if not head.is_nonterminal():
                raise CfgError(f"rule head {head.display} is not a nonterminal")
            for s in body:
                if s.is_nonterminal() and s not in heads:
                    raise CfgError(f"nonterminal {s.display} has no rule")

    @property
    def size(self) -> int:
        return sum(len(body) for _, body in self.rules)

    def terminals(self) -> frozenset[Symbol]:
        return _terminals(body for _, body in self.rules)

    @cached_property
    def _compiled(self) -> _Compiled:
        """The 2NF recogniser tables, compiled on first use."""
        return _compile(self)


# -- text format: `HEAD -> tok tok | tok | _` (`_` is epsilon) ---------------


def serialize_cfg(g: CFG) -> str:
    """The text form that `parse_cfg` reads back.  Raises `CfgError` for a
    symbol that would read back as something else: a display `_` (epsilon)
    or holding `|` (an alternative), or a head holding `->` or displayed `#`
    (a comment line)."""
    by_head: dict[Symbol, list[tuple[Symbol, ...]]] = {}
    order: list[Symbol] = []
    for head, body in g.rules:
        for s in (head, *body):
            d = s.display
            if d == "_" or "|" in d or s == head and ("->" in d or d == "#"):
                raise CfgError(f"symbol {d} has no text form that reads back")
        if head not in by_head:
            by_head[head] = []
            order.append(head)
        by_head[head].append(body)
    if order[0] != g.start:
        order.remove(g.start)
        order.insert(0, g.start)
    lines = []
    for head in order:
        alts = " | ".join(
            " ".join(s.display for s in body) if body else "_"
            for body in by_head[head]
        )
        lines.append(f"{head.display} -> {alts}")
    return "\n".join(lines) + "\n"


def parse_cfg(text: str, table: SymbolTable) -> CFG:
    raw: list[tuple[int, str, list[list[str]]]] = []
    heads: set[str] = set()
    for line_no, line in _content_lines(text):
        if "->" not in line:
            raise CfgError(f"line {line_no}: missing '->'")
        head, rest = line.split("->", 1)
        head = head.strip()
        if len(head.split()) != 1:
            raise CfgError(f"line {line_no}: bad head {head!r}")
        alts = [alt.split() for alt in rest.split("|")]
        heads.add(head)
        raw.append((line_no, head, alts))
    if not raw:
        raise CfgError("no rules")
    rules: list[tuple[Symbol, tuple[Symbol, ...]]] = []
    for line_no, head, alts in raw:
        try:
            head_sym = table.nonterminal(head)
            for alt in alts:
                body = tuple(
                    table.nonterminal(t) if t in heads else table.terminal(t)
                    for t in alt
                    if t != "_"
                )
                rules.append((head_sym, body))
        except SymbolError as exc:
            raise CfgError(f"line {line_no}: {exc}") from exc
    return CFG(tuple(rules), table.nonterminal(raw[0][1]))


# -- membership ---------------------------------------------------------------


class _Compiled:
    """2NF of a CFG (Lange and Leiss 2009) over dense indices
    `0..len(binary_left)-1`, one per nonterminal and helper and one per
    terminal that occurs on a binary side.  `unary[t]` holds heads(t), the
    nonterminals and helpers t stands for, and holds t itself only when t is
    on a binary side.  A rule A -> X C puts (C, h) under X once for every h in
    heads(A) (see `_compile`), so each rule joins two nonempty spans.
    `nullable_start` records whether the empty string is in the language."""

    __slots__ = ("term_ids", "unary", "binary_left", "start", "nullable_start")

    def __init__(self, term_ids, unary, binary_left, start, nullable_start):
        self.term_ids = term_ids        # frozenset of terminal ids
        self.unary = unary              # each terminal id -> tuple of head indices
        self.binary_left = binary_left  # left index -> tuple of (right, head)
        self.start = start              # start index, None if no compiled rule mentions it
        self.nullable_start = nullable_start


def _compile(g: CFG) -> _Compiled:
    # Work over integer ids; negative ids for helper nonterminals.
    fresh = count(-1, -1).__next__
    start = g.start.id
    term_ids: frozenset[int] = frozenset(t.id for t in g.terminals())

    # 1. binarize long bodies
    binned: list[tuple[int, tuple[int, ...]]] = []
    for head_sym, body_syms in g.rules:
        head, body = head_sym.id, tuple(s.id for s in body_syms)
        while len(body) > 2:
            helper = fresh()
            binned.append((head, (body[0], helper)))
            head, body = helper, body[1:]
        binned.append((head, body))

    # 2. nullable closure; only heads join, so terminals never do
    nullable: set[int] = set()
    size = -1
    while size != len(nullable):
        size = len(nullable)
        nullable.update(head for head, body in binned if nullable.issuperset(body))

    # 3. X stands for A alone when the rest of a body of A is nullable;
    #    heads(X) is X and everything it stands for, in turn
    up: dict[int, list[int]] = {}
    for head, body in binned:
        for i, x in enumerate(body):
            if nullable.issuperset(body[:i] + body[i + 1:]):
                up.setdefault(x, []).append(head)

    # 4. dense indices over nonterminals, helpers and the terminals on a
    #    binary side; a rule A -> X C joins X and C into every head of A
    index: dict[int, int] = {}

    def dense(x: int) -> int:
        return index.setdefault(x, len(index))

    @cache
    def heads(x: int) -> tuple[int, ...]:
        found, seen = [x], {x}
        for y in found:
            for a in up.get(y, ()):
                if a not in seen:
                    seen.add(a)
                    found.append(a)
        return tuple(found)

    binary_left: dict[int, dict[tuple[int, int], None]] = {}
    for head, body in binned:
        if len(body) == 2:
            left, right = map(dense, body)
            row = binary_left.setdefault(left, {})
            row.update(dict.fromkeys((right, dense(h)) for h in heads(head)))
    unary = {
        t: tuple(dense(a) for a in heads(t) if a != t or t in index) for t in term_ids
    }

    return _Compiled(
        term_ids,
        unary,
        tuple(tuple(binary_left.get(x, ())) for x in range(len(index))),
        index.get(start),
        start in nullable,
    )


def _check_length(n: int, length_cap: int) -> None:
    if n > length_cap:
        raise CfgError(f"input length {n} exceeds the cap {length_cap}")


def _row(comp: _Compiled, terminal_id: int, i: int, rows: list[list[int]]) -> list[int]:
    """The CYK row of a suffix of length `i` that starts with `terminal_id`.

    Row-wise bit-vector recognition (Graham, Harrison and Ruzzo, ACM TOPLAS
    1980) over suffixes: for every k < i, `rows[k]` is the complete row of
    the suffix of length k, and `row[X]` has bit b set when X derives the
    span that starts at this suffix's first symbol and leaves b symbols
    after it.  Each derived item `(X, b)` meets row b once per rule
    `A -> X C`, in one big-int operation, and each newly set bit of a head
    that is the left side of some rule becomes an item (any other head's
    item would meet no rule), so every span of every head is derived once
    and the cost follows the derived items, not `n^3`.  A row depends on
    its suffix alone, not on what precedes it."""
    bleft = comp.binary_left
    row = [0] * len(bleft)
    bit = 1 << (i - 1)
    work = []
    for h in comp.unary[terminal_id]:
        row[h] = bit
        if bleft[h]:
            work.append((h, i - 1))
    while work:
        x, b = work.pop()
        nxt = rows[b]
        for right, head in bleft[x]:
            c = nxt[right]
            if not c:
                continue
            new = c & ~row[head]
            if new:
                row[head] |= new
                if bleft[head]:
                    while new:
                        low = new & -new
                        work.append((head, low.bit_length() - 1))
                        new ^= low
    return row


def cyk_member(g: CFG, u, length_cap: int = DEFAULT_CYK_CAP) -> bool:
    """Whether `u` belongs to the grammar's language: one `_row` per
    suffix, shortest first; `u` is a member when the start derives all of
    it, leaving no symbol after it."""
    u = tuple(u)
    _check_length(len(u), length_cap)
    comp = g._compiled
    term_ids = comp.term_ids
    for s in u:
        if s.id not in term_ids:
            raise CfgError(f"symbol {s.display} not in the terminal set")
    n = len(u)
    if n == 0:
        return comp.nullable_start
    if comp.start is None:
        return False
    # rows[0], the empty suffix's row, stays all zero
    rows = [[0] * len(comp.binary_left)]
    for i in range(1, n + 1):
        rows.append(_row(comp, u[n - i].id, i, rows))
    return bool(rows[n][comp.start] & 1)


def language_upto(g: CFG, alphabet, max_len: int) -> set[tuple[int, ...]]:
    """The words of L(g) over `alphabet` up to length `max_len`, as a set of
    tuples of terminal ids (not of symbols).

    A depth-first walk builds the words right to left, so each distinct
    suffix's `_row` is computed once and shared by every word that ends
    with it.  A letter that is no terminal of g occurs in no word: such
    words are outside L(g), where `cyk_member` refuses them.  A `max_len`
    above the default length cap raises `CfgError` as `cyk_member` does, and
    so does a negative one: no word is that short, the empty one included."""
    if max_len < 0:
        raise CfgError("word length bound must be nonnegative")
    _check_length(max_len, DEFAULT_CYK_CAP)
    comp = g._compiled
    words = {()} if comp.nullable_start else set()
    if comp.start is None:
        return words
    start = comp.start
    ids = sorted({s.id for s in alphabet} & comp.term_ids)
    # rows[k] and tails[k] are the row and the word of the current suffix of
    # length k; the empty suffix's row stays all zero
    rows, tails = [[0] * len(comp.binary_left)], [()]
    todo = [(1, t) for t in ids] if max_len >= 1 else []
    while todo:
        i, t = todo.pop()
        del rows[i:], tails[i:]
        row = _row(comp, t, i, rows)
        word = (t, *tails[-1])
        if row[start] & 1:
            words.add(word)
        if i < max_len:
            rows.append(row)
            tails.append(word)
            todo.extend((i + 1, t2) for t2 in ids)
    return words


# -- transformations ----------------------------------------------------------


def interleave(g: CFG, num_dollars: int, num_hashes: int, table: SymbolTable) -> CFG:
    """Accepts even-length strings whose odd-position subsequence lies in
    the input language; even positions are wildcards over the enlarged
    alphabet (terminals plus the two sentinel families)."""
    if num_dollars < 0 or num_hashes < 0:
        raise CfgError("sentinel budget must be nonnegative")
    sentinels = [table.sentinel(SentinelFamily.DOLLAR, i) for i in range(1, num_dollars + 1)]
    sentinels += [table.sentinel(SentinelFamily.HASH, i) for i in range(1, num_hashes + 1)]
    terms = g.terminals()
    if terms & set(sentinels):
        raise CfgError("sentinel families overlap the grammar alphabet")
    sigma = sorted(terms, key=lambda s: s.id) + sentinels
    x = table.fresh_nonterminal("X")
    rules: list[tuple[Symbol, tuple[Symbol, ...]]] = []
    for head, body in g.rules:
        # The wildcard follows every terminal occurrence; nonterminals carry
        # their own interleaving, so tagging them too would inject extra
        # even-position symbols.
        inter: list[Symbol] = []
        for s in body:
            inter.append(s)
            if s.is_terminal():
                inter.append(x)
        rules.append((head, tuple(inter)))
    for c in sigma:
        rules.append((x, (c,)))
    return CFG(tuple(rules), g.start)


def add_prefix(g: CFG, k: int, alphabet, table: SymbolTable) -> CFG:
    """Accepts exactly (alphabet^k) . L(input), via a doubling chain."""
    if k < 1:
        raise CfgError("prefix length must be at least 1")
    sigma = sorted(alphabet, key=lambda s: s.id)
    m = k.bit_length() - 1
    xs = [table.fresh_nonterminal("X") for _ in range(m + 1)]
    rules: list[tuple[Symbol, tuple[Symbol, ...]]] = list(g.rules)
    for c in sigma:
        rules.append((xs[0], (c,)))
    for i in range(1, m + 1):
        rules.append((xs[i], (xs[i - 1], xs[i - 1])))
    prefix = [xs[b] for b in range(m + 1) if (k >> b) & 1]
    new_start = table.fresh_nonterminal("SP")
    rules.append((new_start, tuple(prefix) + (g.start,)))
    return CFG(tuple(rules), new_start)


def erase_closure(g: CFG, sentinels, table: SymbolTable) -> CFG:
    """Accepts every string that lands in the input language after erasing
    all occurrences of the given sentinel symbols."""
    sentinels = list(sentinels)
    if g.terminals() & set(sentinels):
        raise CfgError("sentinel set overlaps the grammar alphabet")
    nd = table.fresh_nonterminal("ND")
    rules: list[tuple[Symbol, tuple[Symbol, ...]]] = []
    for head, body in g.rules:
        inter: list[Symbol] = [nd]
        for s in body:
            inter += [s, nd]
        rules.append((head, tuple(inter)))
    rules.append((nd, (nd, nd)))
    rules.append((nd, ()))
    for c in sentinels:
        rules.append((nd, (c,)))
    return CFG(tuple(rules), g.start)


# -- composed re-targeting at boosted strings --------------------------------


def gamma_prime_alpha(g_cfg: CFG, g: SLG) -> CFG:
    """CFG accepting exactly the alpha-boosted strings of members of the
    input language; sizes derive from length arithmetic, never expansion."""
    nv, k = alpha_sentinel_counts(g)
    g2 = interleave(g_cfg, nv, 2 * nv, g.table)
    sigma = set(g2.terminals()) | set(g.terminals())
    return add_prefix(g2, k, sorted(sigma, key=lambda s: s.id), g.table)


def gamma_prime_beta(g_cfg: CFG, g: SLG) -> CFG:
    """CFG accepting exactly the beta-boosted strings of members of the
    input language."""
    nv, k = beta_sentinel_counts(g)
    dollars = [g.table.sentinel(SentinelFamily.DOLLAR, i) for i in range(1, 2 * nv + 1)]
    g2 = erase_closure(g_cfg, dollars, g.table)
    sigma = set(g2.terminals()) | set(g.terminals()) | set(dollars)
    return add_prefix(g2, k, sorted(sigma, key=lambda s: s.id), g.table)
