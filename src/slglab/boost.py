"""Hard-instance constructions: answer strings and their grammars, the
string boosters that force every studied compressor down to grammar size,
their folding-weighted variants, and the run-length predecessor string.

A booster takes an admissible grammar, orders its nonterminals by expansion
length (ties broken canonically), and computes every nonterminal's expansion
with per-nonterminal dollar sentinels inside, in one bottom-up pass.  It then
concatenates doubled copies of those expansions, and for the folding boosters
of their matched reverses, so that the original text stays readable at a
fixed stride while every compressor provably collapses the repetitions.  The
same pass, with chosen nonterminals cut to markers, gives the bounded
expansions and intermediate grammars the global algorithms visit.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import SLG, is_admissible, reachable_nonterminals
from .rna import MatchedAlphabet
from .symbols import SentinelFamily, Symbol, SymbolTable

D = SentinelFamily.DOLLAR
DP = SentinelFamily.DOLLAR_PRIME
H = SentinelFamily.HASH
HP = SentinelFamily.HASH_PRIME
HL = SentinelFamily.HASH_L
HR = SentinelFamily.HASH_R
HPL = SentinelFamily.HASH_PRIME_L
HPR = SentinelFamily.HASH_PRIME_R


class BoostError(ValueError):
    pass


@dataclass(frozen=True)
class BoostResult:
    """Boosted string plus the canonical order that indexes its sentinels.

    `ordering` is the canonical order of the input's nonterminals: index i
    names `ordering[i - 1]`, whose dollars and hashes carry index i (2i - 1
    and 2i where a booster pairs them).
    """

    text: tuple[Symbol, ...]
    ordering: tuple[Symbol, ...]


@dataclass(frozen=True)
class AlphaBoost(BoostResult):
    """`alpha`'s output.  `offset` is the stride offset delta: the j-th
    symbol of the input's text sits at 1-based position delta + 2j - 1 of
    `text`.  `alphabet` is the input's terminals, then $_1..$_|V| and
    #_1..#_2|V|."""

    offset: int
    alphabet: tuple[Symbol, ...]


@dataclass(frozen=True)
class BetaBoost(BoostResult):
    """`beta`'s output.  `position_map[i]` holds the 1-based positions in
    `text` of the symbols of exp(N_i) in the first copy of block i.
    `alphabet` is the input's terminals, then $_1..$_2|V|."""

    position_map: dict[int, tuple[int, ...]]
    alphabet: tuple[Symbol, ...]


@dataclass(frozen=True)
class FoldingBoost(BoostResult):
    """The output of a folding booster.  `offset` is delta for `rna_alpha`
    and `rna_beta`: the folding value of `text` minus twice (four times for
    `rna_beta`) the input's.  For `gamma` it is c0: half the folding value
    of `text` minus the input's.  `alphabet` is the input's matched alphabet
    extended by the dollar and hash sentinels of `text`."""

    offset: int
    alphabet: MatchedAlphabet


@dataclass(frozen=True)
class GIGrammar:
    index_set: frozenset[int]
    grammar: SLG


def canonical_order(g: SLG) -> tuple[Symbol, ...]:
    """Nonterminals by nondecreasing expansion length; ties resolved by
    first appearance in a preorder walk of the parse tree."""
    lens = g.expansion_lengths()
    first_seen = reachable_nonterminals(g)
    return tuple(sorted(g.rules, key=lambda n: (lens[n], first_seen[n])))


def _require_admissible(g: SLG) -> None:
    if not is_admissible(g):
        raise BoostError("grammar is not admissible")


def _checked_order(g: SLG, families, a: MatchedAlphabet | None = None):
    """Refuse a grammar that is not admissible or whose terminals use a
    sentinel prefix of `families`, and a matched alphabet `a` that does not
    fit it; return the canonical order.

    The order ends on the start, as the folding boosters need: in an
    admissible grammar every other nonterminal expands to a proper part of
    the start's expansion.
    """
    _require_admissible(g)
    terms = g.terminals()
    sources = [("grammar alphabet", terms)]
    if a is not None:
        if not a.covers(terms):
            raise BoostError("matched alphabet does not cover the grammar terminals")
        if any(a.weight[s] < 1 for s in a.symbols):
            raise BoostError("weights must be positive")
        # The booster extends the alphabet with these families; a user pair
        # of theirs would be silently re-matched or re-weighted.
        sources.append(("matched alphabet", a.symbols))
    for source, symbols in sources:
        for fam in families:
            if any(t.display.startswith(fam.prefix) for t in symbols):
                raise BoostError(f"{source} collides with sentinel family {fam.prefix!r}")
    return canonical_order(g)


# ---------------------------------------------------------------------------
# The shared layout: dollar-interleaved expansions, doubled blocks, mirrors


def _interleaved(g: SLG, order, paired=False, marked=()):
    """Every nonterminal's expansion with dollars inside, built bottom-up
    in one pass over `order`: for the i-th rule X -> a b, exp(a) $_i exp(b),
    or exp(a) $_2i-1 exp(b) $_2i when `paired`.  The nonterminals whose
    indices are in `marked` expand to their marker M_i alone."""
    table = g.table
    exps: dict[Symbol, tuple[Symbol, ...]] = {}
    # The order is by nondecreasing expansion length, so both children of a
    # rule precede it.
    for i, n in enumerate(order, start=1):
        if i in marked:
            exps[n] = (_marker(table, i),)
            continue
        a, b = g.rules[n]
        if paired:
            exps[n] = (exps.get(a, (a,)) + (table.sentinel(D, 2 * i - 1),)
                       + exps.get(b, (b,)) + (table.sentinel(D, 2 * i),))
        else:
            exps[n] = exps.get(a, (a,)) + (table.sentinel(D, i),) + exps.get(b, (b,))
    return exps


def _mirror(e, match) -> tuple[Symbol, ...]:
    """`e` reversed, every symbol replaced by its match."""
    return tuple(map(match.__getitem__, reversed(e)))


def _doubled(exps, order, table: SymbolTable, fam, indices, mirrored=False):
    """The blocks e fam_{2i-1} e fam_{2i} of e = exps[order[i - 1]], or
    fam_{2i} e fam_{2i-1} e when `mirrored`, for each i in `indices`."""
    w: list[Symbol] = []
    for i in indices:
        e = exps[order[i - 1]]
        odd, even = table.sentinel(fam, 2 * i - 1), table.sentinel(fam, 2 * i)
        if mirrored:
            w.append(even)
            w += e
            w.append(odd)
            w += e
        else:
            w += e
            w.append(odd)
            w += e
            w.append(even)
    return w


# ---------------------------------------------------------------------------
# Alpha: doubled sentinel-interleaved expansions


def alpha(g: SLG) -> AlphaBoost:
    order = _checked_order(g, [D, H])
    table = g.table
    nv = len(order)
    w = _doubled(_interleaved(g, order), order, table, H, range(1, nv + 1))
    u_len = g.expansion_lengths()[g.start]
    delta = len(w) - 4 * u_len
    sigma = tuple(sorted(g.terminals(), key=lambda s: s.id)) + tuple(
        table.sentinel(D, i) for i in range(1, nv + 1)
    ) + tuple(table.sentinel(H, i) for i in range(1, 2 * nv + 1))
    return AlphaBoost(text=tuple(w), ordering=order, offset=delta, alphabet=sigma)


def _bexp_all(g: SLG, index_set):
    """Validate an index set; return it with the canonical order and the
    bounded expansion of every nonterminal."""
    order = _checked_order(g, [D, H])
    nv = len(order)
    index_set = frozenset(index_set)
    for i in index_set:
        if not 1 <= i <= nv:
            raise BoostError(f"index {i} out of range")
    # A marker may reuse a nonterminal of the table that the grammar does
    # not use, but neither a rule head nor a terminal.
    table = g.table
    clash = [f"M{i}" for i in range(1, nv + 1)
             if (s := table.get(f"M{i}")) is not None and (s in g.rules or s.is_terminal())]
    if clash:
        raise BoostError(f"grammar uses reserved marker names: {clash}")
    return order, index_set, _interleaved(g, order, marked=index_set)


def bexp(g: SLG, index_set, x: Symbol) -> tuple[Symbol, ...]:
    """Bounded expansion of `x`: expand until only terminals, dollars, and
    the marker symbols of the chosen indices remain."""
    _, _, exps = _bexp_all(g, index_set)
    if x.is_nonterminal() and x not in exps:
        raise BoostError(f"symbol not in grammar: {x.display}")
    return exps.get(x, (x,))


def _marker(table: SymbolTable, i: int) -> Symbol:
    return table.nonterminal(f"M{i}")


def build_gi(g: SLG, index_set) -> GIGrammar:
    """The intermediate grammar every global algorithm visits on an alpha
    string, for one subset of replaced indices."""
    order, index_set, exps = _bexp_all(g, index_set)
    table = g.table
    rules = {g.start: tuple(_doubled(exps, order, table, H, range(1, len(order) + 1)))}
    for i in sorted(index_set):
        n = order[i - 1]
        a, b = g.rules[n]
        rules[_marker(table, i)] = (
            exps.get(a, (a,)) + (table.sentinel(D, i),) + exps.get(b, (b,))
        )
    return GIGrammar(index_set, SLG(rules, g.start, table))


# ---------------------------------------------------------------------------
# Beta: doubled expansions with paired dollars


def beta(g: SLG) -> BetaBoost:
    order = _checked_order(g, [D])
    table = g.table
    exps = _interleaved(g, order, paired=True)
    terms = g.terminals()
    w: list[Symbol] = []
    position_map: dict[int, tuple[int, ...]] = {}
    for i, n in enumerate(order, start=1):
        e = exps[n]
        # exp(N_i)[j] sits at the j-th of the input's own terminals in the
        # first copy of its block: the sentinels around them are fresh.
        position_map[i] = tuple(len(w) + p for p, s in enumerate(e, start=1) if s in terms)
        w += e
        w += e
    sigma = tuple(sorted(terms, key=lambda s: s.id)) + tuple(
        table.sentinel(D, i) for i in range(1, 2 * len(order) + 1))
    return BetaBoost(text=tuple(w), ordering=order,
                     position_map=position_map, alphabet=sigma)


# ---------------------------------------------------------------------------
# Folding-weighted boosters


def _extend(a: MatchedAlphabet, table: SymbolTable, dollars: int, rows, pairs):
    """`a` plus $_1, $'_1, ..., $_k, $'_k for k = `dollars` ($_i ~ $'_i, of
    weight one), then the hash sentinels of `rows` row by row, matched and
    weighted by `pairs` of (symbol, partner, weight)."""
    dollar_pairs = [
        (table.sentinel(D, i), table.sentinel(DP, i), 1) for i in range(1, dollars + 1)
    ]
    match: dict[Symbol, Symbol] = {}
    weight: dict[Symbol, int] = {}
    for s, t, w in dollar_pairs + pairs:
        match[s], match[t] = t, s
        weight[s] = weight[t] = w
    symbols = [s for d, dp, _ in dollar_pairs for s in (d, dp)]
    symbols += [s for row in rows for s in row]
    return a.extended(symbols, match, weight)


def _hash_pairs(rows, weight: int):
    """Match pairs of per-index hash rows: the k-th sentinel of a row with
    its k-th from the end, except in the last two rows, which are matched
    with each other position by position."""
    pairs = [(r[k], r[-1 - k], weight) for r in rows[:-2] for k in range(len(r) // 2)]
    return pairs + [(s, t, weight) for s, t in zip(*rows[-2:])]


def _q_values(g: SLG, a: MatchedAlphabet):
    """q_X = |exp(X)| - 1 + total weight of exp(X), per nonterminal."""
    lens = g.expansion_lengths()
    wsum: dict[Symbol, int] = {}
    for head in g.topological():
        t = 0
        for s in g.rules[head]:
            t += wsum[s] if s.is_nonterminal() else a.weight[s]
        wsum[head] = t
    return {n: lens[n] - 1 + wsum[n] for n in g.rules}


def _mirrored_parts(g: SLG, a: MatchedAlphabet, row):
    """What `rna_alpha` (k = 2) and `rna_beta` (k = 4) share, for the k
    hash families of `row`: the canonical order; the offset delta =
    k|V|(k q_S + 1) + (k/2) q_S + k * (sum of q_X over X != S); `a` extended
    by the dollars and the hash rows of `row`, matched with weight
    k q_S + 1; and every expansion with its mirror."""
    order = _checked_order(g, [D, DP, *row], a)
    table = g.table
    nv, k = len(order), len(row)
    q = _q_values(g, a)
    qs = q[g.start]
    delta = k * nv * (k * qs + 1) + k // 2 * qs + k * sum(q[n] for n in order[:-1])
    rows = [tuple(table.sentinel(f, i) for f in row) for i in range(1, 2 * nv + 1)]
    extended = _extend(a, table, nv, rows, _hash_pairs(rows, k * qs + 1))
    expa = _interleaved(g, order)
    expp = {n: _mirror(e, extended.match) for n, e in expa.items()}
    return order, delta, extended, expa, expp


def rna_alpha(g: SLG, a: MatchedAlphabet) -> FoldingBoost:
    """Mirrored-and-matched alpha booster: the folding value of the output
    equals twice the input's plus a closed-form offset."""
    order, delta, extended, expa, expp = _mirrored_parts(g, a, (H, HP))
    table, nv = g.table, len(order)
    v = _doubled(expp, order, table, HP, range(nv, 0, -1), mirrored=True)
    v += _doubled(expa, order, table, H, range(1, nv + 1))
    return FoldingBoost(text=tuple(v), ordering=order, offset=delta, alphabet=extended)


def rna_beta(g: SLG, a: MatchedAlphabet) -> FoldingBoost:
    """Four-quarter booster targeted at the online parser; the folding value
    equals four times the input's plus a closed-form offset."""
    order, delta, extended, expa, expp = _mirrored_parts(g, a, (HL, HR, HPL, HPR))
    table, nv = g.table, len(order)
    forward, backward = range(1, nv + 1), range(nv, 0, -1)
    v = _doubled(expa, order, table, HL, forward)
    v += _doubled(expa, order, table, HR, backward)
    v += _doubled(expp, order, table, HPL, forward, mirrored=True)
    v += _doubled(expp, order, table, HPR, backward, mirrored=True)
    return FoldingBoost(text=tuple(v), ordering=order, offset=delta, alphabet=extended)


def gamma(g: SLG, a: MatchedAlphabet) -> FoldingBoost:
    """Doubled-block booster aimed at the two-part dictionary parser; the
    folding value of the output is the input's plus twice the block weight."""
    order = _checked_order(g, [D, DP, H], a)
    nv = len(order)
    if nv < 2:
        raise BoostError("construction needs at least two nonterminals")
    table = g.table
    # c0 = 1 + twice the weight of one x_i block over i < |V|, where dollars
    # weigh one.  x_i holds the |exp(N_i)| letters of N_i and two dollars for
    # each of its |exp(N_i)| - 1 internal parse-tree nodes, so its weight is
    # q + |exp(N_i)| - 1; computed from the q values, never from the text.
    q = _q_values(g, a)
    lens = g.expansion_lengths()
    c0 = 1 + sum(2 * (q[n] + lens[n] - 1) for n in order[:-1])
    h1, h2, h3, h4 = (table.sentinel(H, i) for i in range(1, 5))
    extended = _extend(a, table, 2 * nv, [(h1, h2, h3, h4)], [(h1, h4, 1), (h2, h3, c0)])

    exps = _interleaved(g, order, paired=True)
    v: list[Symbol] = [h1, h2]
    for n in order[:-1]:
        x, y = exps[n], _mirror(exps[n], extended.match)
        v += x
        v += x
        v += y
        v += y
    v += [h3, h4]
    v += exps[order[-1]]
    return FoldingBoost(text=tuple(v), ordering=order, offset=c0, alphabet=extended)


def alpha_sentinel_counts(g: SLG) -> tuple[int, int]:
    """(|V|, boosted length minus twice the text length) for the alpha
    booster, from length arithmetic alone."""
    _require_admissible(g)
    lens = g.expansion_lengths()
    total = sum(lens.values())
    return len(g.rules), 4 * total - 2 * lens[g.start]


def beta_sentinel_counts(g: SLG) -> tuple[int, int]:
    """(|V|, prefix length) for re-targeting a CFG at the beta booster."""
    _require_admissible(g)
    lens = g.expansion_lengths()
    total = sum(lens.values())
    nv = len(g.rules)
    return nv, (6 * total - 4 * nv) - 3 * lens[g.start] + 2


# ---------------------------------------------------------------------------
# Answer strings and their grammars


@dataclass(frozen=True)
class PointSet:
    """Exactly m points on an m x m grid, m a power of two."""

    m: int
    points: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.m < 2 or self.m & (self.m - 1):
            raise BoostError("grid side must be a power of two (>= 2)")
        if len(self.points) != self.m:
            raise BoostError(
                f"need exactly {self.m} points, got {len(self.points)}"
            )
        for x, y in self.points:
            if not (1 <= x <= self.m and 1 <= y <= self.m):
                raise BoostError(f"point ({x}, {y}) outside the grid")

    @staticmethod
    def normalized(m: int, points) -> "PointSet":
        """Pad to the next power of two with fresh diagonal points."""
        pts = set(points)
        if len(pts) != m:
            raise BoostError(f"need exactly {m} distinct points, got {len(pts)}")
        if m < 1:
            raise BoostError("need at least one point")
        for x, y in sorted(pts):
            if not (1 <= x <= m and 1 <= y <= m):
                raise BoostError(f"point ({x}, {y}) outside the {m} x {m} grid")
        side = max(2, 1 << (m - 1).bit_length())
        pts.update((p, p) for p in range(m + 1, side + 1))
        return PointSet(side, frozenset(pts))


def answer_string(p: PointSet) -> str:
    """Parity of the dominated-point count for every grid cell, row-major."""
    m = p.m
    grid = [[0] * (m + 1) for _ in range(m + 1)]
    for x, y in p.points:
        grid[y][x] += 1
    # 2-D prefix sums over the counts
    for y in range(1, m + 1):
        for x in range(1, m + 1):
            grid[y][x] += grid[y - 1][x] + grid[y][x - 1] - grid[y - 1][x - 1]
    bits = []
    for y in range(1, m + 1):
        for x in range(1, m + 1):
            bits.append(str(grid[y][x] & 1))
    return "".join(bits)


def answer_grammar(p: PointSet) -> SLG:
    """Admissible grammar expanding to the answer string.

    Each row is the root of a perfect binary tree over its m cells; row y is
    row y - 1 with the suffix from each of its points negated.  A point
    rewrites one root-to-leaf path, read from the rules: it flips the leaf,
    swaps each right sibling on the path for its negation and re-pairs on
    the way up.  Pairs are made as head and partner, children and their
    negations together, so every node's negation is one lookup.  Row roots
    are combined by a second perfect tree.  Each call interns into a fresh
    table of its own.
    """
    table = SymbolTable()
    levels = p.m.bit_length() - 1
    zero, one = table.terminal("0"), table.terminal("1")

    rules: dict[Symbol, tuple[Symbol, ...]] = {}
    pair_nt: dict[tuple[int, int], Symbol] = {}
    neg_of: dict[int, Symbol] = {zero.id: one, one.id: zero}

    def intern(aa: Symbol, bb: Symbol) -> Symbol:
        head = table.fresh_nonterminal("V")
        rules[head] = (aa, bb)
        pair_nt[aa.id, bb.id] = head
        return head

    def ensure(aa: Symbol, bb: Symbol) -> Symbol:
        # a pair and its negation are made together, and negation has no
        # fixed point, so a new head always comes with a new partner
        head = pair_nt.get((aa.id, bb.id))
        if head is None:
            head = intern(aa, bb)
            partner = intern(neg_of[aa.id], neg_of[bb.id])
            neg_of[head.id], neg_of[partner.id] = partner, head
        return head

    def negate_from(node: Symbol, h: int, x: int) -> Symbol:
        """`node` of height h with its cells from 0-based offset x negated."""
        if h == 0:
            return neg_of[node.id]
        aa, bb = rules[node]
        half = 1 << (h - 1)
        if x < half:
            return ensure(negate_from(aa, h - 1, x), neg_of[bb.id])
        return ensure(aa, negate_from(bb, h - 1, x - half))

    row = zero
    for _ in range(levels):
        row = ensure(row, row)
    by_row: dict[int, list[int]] = {}
    for x, y in p.points:
        by_row.setdefault(y, []).append(x)
    combined: list[Symbol] = []
    for y in range(1, p.m + 1):
        for x in sorted(by_row.get(y, ())):
            row = negate_from(row, levels, x - 1)
        combined.append(row)

    while len(combined) > 1:
        combined = [
            ensure(combined[2 * j], combined[2 * j + 1])
            for j in range(len(combined) // 2)
        ]
    start = combined[0]

    # Unreachable negation partners would break admissibility; trim them.
    g = SLG(rules, start, table)
    keep = reachable_nonterminals(g)
    return SLG({h: rules[h] for h in rules if h in keep}, start, table)


# ---------------------------------------------------------------------------
# Colored-predecessor run-length string


def lz78_hard_string(entries, universe: int | None = None) -> str:
    """Run-length string whose x-th cell reads off the color of the
    predecessor of x; entries are sorted (position, color) pairs with the
    first position 0 and colors in {0, 1}."""
    entries = list(entries)
    if not entries:
        raise BoostError("need at least one entry")
    m = len(entries)
    size = universe if universe is not None else m * m
    xs = [x for x, _ in entries]
    if xs[0] != 0:
        raise BoostError("first position must be 0")
    if any(xs[i] >= xs[i + 1] for i in range(m - 1)):
        raise BoostError("positions must be strictly increasing")
    if xs[-1] >= size:
        raise BoostError("positions must lie below the universe size")
    out = []
    for i, (x, c) in enumerate(entries):
        if c not in ("0", "1"):
            raise BoostError("colors must be '0' or '1'")
        nxt = xs[i + 1] if i + 1 < m else size
        out.append(c * (nxt - x))
    return "".join(out)
