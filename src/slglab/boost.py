"""Hard-instance constructions: answer strings and their grammars, the
string boosters that force every studied compressor down to grammar size,
their folding-weighted variants, and the run-length predecessor string.

A booster takes an admissible grammar, orders its nonterminals by expansion
length (ties broken canonically), interleaves per-nonterminal sentinels, and
concatenates doubled expansions so that the original text stays readable at
a fixed stride while every compressor provably collapses the repetitions.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import SLG, expand_all, is_admissible, reachable_nonterminals
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
    """Boosted string plus the scaffolding needed to audit it.

    `offset` carries the stride offset for the alpha family and the folding
    constant for the gamma construction; the beta family instead fills
    `position_map` (nonterminal index -> 1-based positions of its expansion
    symbols inside `text`).  `alphabet` is the enlarged plain symbol set, or
    the extended matched alphabet for the folding constructions.
    """

    text: tuple[Symbol, ...]
    ordering: tuple[Symbol, ...]
    offset: int | None
    aux_grammar: SLG
    aux_grammar2: SLG | None = None
    position_map: dict[int, tuple[int, ...]] | None = None
    alphabet: object | None = None


@dataclass(frozen=True)
class GIGrammar:
    index_set: frozenset[int]
    grammar: SLG


def canonical_order(g: SLG) -> tuple[Symbol, ...]:
    """Nonterminals by nondecreasing expansion length; ties resolved by
    first appearance in a preorder walk of the parse tree."""
    lens = g.expansion_lengths()
    first_seen: dict[Symbol, int] = {}
    stack = [g.start]
    while stack:
        node = stack.pop()
        if node in first_seen:
            continue
        first_seen[node] = len(first_seen)
        for sym in reversed(g.rules[node]):
            if sym.is_nonterminal() and sym not in first_seen:
                stack.append(sym)
    return tuple(sorted(g.rules, key=lambda n: (lens[n], first_seen[n])))


def _require_admissible(g: SLG) -> None:
    if not is_admissible(g):
        raise BoostError("grammar is not admissible")


def _require_fresh_sentinels(g: SLG, families) -> None:
    used = g.terminals()
    for fam in families:
        for t in used:
            if t.display.startswith(fam.prefix):
                raise BoostError(
                    f"grammar alphabet collides with sentinel family {fam.prefix!r}"
                )


# ---------------------------------------------------------------------------
# Alpha: doubled sentinel-interleaved expansions


def _dollar_grammar(g: SLG, order, table: SymbolTable) -> SLG:
    """The auxiliary grammar with one unique dollar inside each definition."""
    rules: dict[Symbol, tuple[Symbol, ...]] = {}
    for i, n in enumerate(order, start=1):
        a, b = g.rules[n]
        rules[n] = (a, table.sentinel(D, i), b)
    return SLG(rules, g.start, table)


def alpha(g: SLG) -> BoostResult:
    _require_admissible(g)
    _require_fresh_sentinels(g, [D, H])
    table = g.table
    order = canonical_order(g)
    nv = len(order)
    gp = _dollar_grammar(g, order, table)
    exp = expand_all(gp)
    w: list[Symbol] = []
    for i, n in enumerate(order, start=1):
        w += exp[n]
        w.append(table.sentinel(H, 2 * i - 1))
        w += exp[n]
        w.append(table.sentinel(H, 2 * i))
    u_len = g.expansion_lengths()[g.start]
    delta = len(w) - 4 * u_len
    sigma = tuple(sorted(g.terminals(), key=lambda s: s.id)) + tuple(
        table.sentinel(D, i) for i in range(1, nv + 1)
    ) + tuple(table.sentinel(H, i) for i in range(1, 2 * nv + 1))
    return BoostResult(
        text=tuple(w),
        ordering=order,
        offset=delta,
        aux_grammar=gp,
        alphabet=sigma,
    )


def _bexp_all(g: SLG, index_set):
    """Validate an index set; return it with the canonical order and the
    bounded expansion of every nonterminal, built bottom-up in one pass."""
    _require_admissible(g)
    order = canonical_order(g)
    nv = len(order)
    index_set = frozenset(index_set)
    for i in index_set:
        if not 1 <= i <= nv:
            raise BoostError(f"index {i} out of range")
    table = g.table
    _require_marker_names_free(g, nv)
    # The order is by nondecreasing expansion length, so both children of a
    # rule precede it.
    exps: dict[Symbol, tuple[Symbol, ...]] = {}
    for i, n in enumerate(order, start=1):
        if i in index_set:
            exps[n] = (_marker(table, i),)
        else:
            a, b = g.rules[n]
            exps[n] = exps.get(a, (a,)) + (table.sentinel(D, i),) + exps.get(b, (b,))
    return order, index_set, exps


def bexp(g: SLG, index_set, x: Symbol) -> tuple[Symbol, ...]:
    """Bounded expansion of `x`: expand until only terminals, dollars, and
    the marker symbols of the chosen indices remain."""
    _, _, exps = _bexp_all(g, index_set)
    if x.is_nonterminal() and x not in exps:
        raise BoostError(f"symbol not in grammar: {x.display}")
    return exps.get(x, (x,))


def _marker(table: SymbolTable, i: int) -> Symbol:
    return table.nonterminal(f"M{i}")


def _require_marker_names_free(g: SLG, nv: int) -> None:
    taken = {n.display for n in g.rules}
    clash = [f"M{i}" for i in range(1, nv + 1) if f"M{i}" in taken]
    if clash:
        raise BoostError(f"grammar uses reserved marker names: {clash}")


def build_gi(g: SLG, index_set) -> GIGrammar:
    """The intermediate grammar every global algorithm visits on an alpha
    string, for one subset of replaced indices."""
    order, index_set, exps = _bexp_all(g, index_set)
    table = g.table
    rules: dict[Symbol, tuple[Symbol, ...]] = {}
    body: list[Symbol] = []
    for i, n in enumerate(order, start=1):
        be = exps[n]
        body += be
        body.append(table.sentinel(H, 2 * i - 1))
        body += be
        body.append(table.sentinel(H, 2 * i))
    rules[g.start] = tuple(body)
    for i in sorted(index_set):
        n = order[i - 1]
        a, b = g.rules[n]
        rules[_marker(table, i)] = (
            exps.get(a, (a,)) + (table.sentinel(D, i),) + exps.get(b, (b,))
        )
    return GIGrammar(index_set, SLG(rules, g.start, table))


# ---------------------------------------------------------------------------
# Beta: per-nonterminal triple rules with doubled expansions


def _beta_grammar(g: SLG, order, table: SymbolTable):
    """Triple-rule auxiliary grammar; returns (grammar, part nonterminals)."""
    nv = len(order)
    idx_of = {n: i for i, n in enumerate(order, start=1)}
    n0 = [table.fresh_nonterminal("P") for _ in range(nv)]
    n1 = [table.fresh_nonterminal("P") for _ in range(nv)]
    n2 = [table.fresh_nonterminal("P") for _ in range(nv)]

    def ref(sym: Symbol) -> Symbol:
        return n0[idx_of[sym] - 1] if sym.is_nonterminal() else sym

    rules: dict[Symbol, tuple[Symbol, ...]] = {}
    for i, n in enumerate(order, start=1):
        a, b = g.rules[n]
        rules[n1[i - 1]] = (ref(a), table.sentinel(D, 2 * i - 1))
        rules[n2[i - 1]] = (ref(b), table.sentinel(D, 2 * i))
        rules[n0[i - 1]] = (n1[i - 1], n2[i - 1])
    sp = table.fresh_nonterminal("P")
    body: list[Symbol] = []
    for i in range(nv):
        body += [n1[i], n2[i], n0[i]]
    rules[sp] = tuple(body)
    return SLG(rules, sp, table), n0


def beta(g: SLG) -> BoostResult:
    _require_admissible(g)
    table = g.table
    order = canonical_order(g)
    _require_fresh_sentinels(g, [D])
    gp, n0 = _beta_grammar(g, order, table)
    _full = expand_all(gp)
    exp0 = {i: _full[n0[i - 1]] for i in range(1, len(order) + 1)}
    w: list[Symbol] = []
    offsets: dict[int, int] = {}
    for i in range(1, len(order) + 1):
        offsets[i] = len(w)
        w += exp0[i]
        w += exp0[i]

    # Positions of exp(N_i)[j] inside the first copy of its beta block.
    lens = g.expansion_lengths()
    idx_of = {n: i for i, n in enumerate(order, start=1)}
    local: dict[int, list[int]] = {}
    for i, n in enumerate(order, start=1):
        a, b = g.rules[n]
        left = local[idx_of[a]] if a.is_nonterminal() else [1]
        shift = (3 * (lens[a] if a.is_nonterminal() else 1) - 2) + 1
        right = local[idx_of[b]] if b.is_nonterminal() else [1]
        local[i] = left + [shift + p for p in right]
    position_map = {
        i: tuple(offsets[i] + p for p in local[i]) for i in local
    }
    return BoostResult(
        text=tuple(w),
        ordering=order,
        offset=None,
        aux_grammar=gp,
        position_map=position_map,
        alphabet=tuple(sorted(g.terminals(), key=lambda s: s.id))
        + tuple(table.sentinel(D, i) for i in range(1, 2 * len(order) + 1)),
    )


# ---------------------------------------------------------------------------
# Folding-weighted boosters


def _check_matched(g: SLG, a: MatchedAlphabet) -> None:
    if not a.covers(g.terminals()):
        raise BoostError("matched alphabet does not cover the grammar terminals")
    for s in a.symbols:
        if a.weight[s] < 1:
            raise BoostError("weights must be positive")


def _q_values(g: SLG, a: MatchedAlphabet):
    """q_X = |exp(X)| - 1 + total weight of exp(X), per nonterminal."""
    lens = g.expansion_lengths()
    wsum: dict[Symbol, int] = {}
    for head in g.topological():
        t = 0
        for s in g.rules[head]:
            t += wsum[s] if s.is_nonterminal() else a.weight[s]
        wsum[head] = t
    return {n: lens[n] - 1 + wsum[n] for n in g.rules}, wsum


def _matched_rule(g: SLG, a: MatchedAlphabet, n: Symbol):
    x, y = g.rules[n]
    mx = a.match[x] if x.is_terminal() else x
    my = a.match[y] if y.is_terminal() else y
    return mx, my


def rna_alpha(g: SLG, a: MatchedAlphabet) -> BoostResult:
    """Mirrored-and-matched alpha booster: the folding value of the output
    equals twice the input's plus a closed-form offset."""
    _require_admissible(g)
    _check_matched(g, a)
    _require_fresh_sentinels(g, [D, DP, H, HP])
    table = g.table
    order = canonical_order(g)
    nv = len(order)
    if order[-1] != g.start:
        raise BoostError("start must be the unique longest nonterminal")

    gauxr: dict[Symbol, tuple[Symbol, ...]] = {}
    gpauxr: dict[Symbol, tuple[Symbol, ...]] = {}
    for i, n in enumerate(order, start=1):
        x, y = g.rules[n]
        mx, my = _matched_rule(g, a, n)
        gauxr[n] = (x, table.sentinel(D, i), y)
        gpauxr[n] = (my, table.sentinel(DP, i), mx)
    gaux = SLG(gauxr, g.start, table)
    gpaux = SLG(gpauxr, g.start, table)
    expa = expand_all(gaux)
    expp = expand_all(gpaux)

    v: list[Symbol] = []
    for i in range(nv, 0, -1):
        n = order[i - 1]
        v.append(table.sentinel(HP, 2 * i))
        v += expp[n]
        v.append(table.sentinel(HP, 2 * i - 1))
        v += expp[n]
    for i, n in enumerate(order, start=1):
        v += expa[n]
        v.append(table.sentinel(H, 2 * i - 1))
        v += expa[n]
        v.append(table.sentinel(H, 2 * i))

    q, wsum = _q_values(g, a)
    qs = q[g.start]
    delta = 2 * nv * (2 * qs + 1) + qs + 2 * sum(
        q[n] for n in order if n != g.start
    )
    hash_weight = 2 * qs + 1

    new_syms, new_match, new_weight = [], {}, {}
    for i in range(1, nv + 1):
        di, dpi = table.sentinel(D, i), table.sentinel(DP, i)
        new_syms += [di, dpi]
        new_match[di], new_match[dpi] = dpi, di
        new_weight[di] = new_weight[dpi] = 1
    for i in range(1, 2 * nv + 1):
        hi, hpi = table.sentinel(H, i), table.sentinel(HP, i)
        new_syms += [hi, hpi]
        new_weight[hi] = new_weight[hpi] = hash_weight
    for i in range(1, 2 * nv - 1):
        hi, hpi = table.sentinel(H, i), table.sentinel(HP, i)
        new_match[hi], new_match[hpi] = hpi, hi
    h_a, h_b = table.sentinel(H, 2 * nv - 1), table.sentinel(H, 2 * nv)
    hp_a, hp_b = table.sentinel(HP, 2 * nv - 1), table.sentinel(HP, 2 * nv)
    new_match[h_a], new_match[h_b] = h_b, h_a
    new_match[hp_a], new_match[hp_b] = hp_b, hp_a
    extended = a.extended(new_syms, new_match, new_weight)

    return BoostResult(
        text=tuple(v),
        ordering=order,
        offset=delta,
        aux_grammar=gaux,
        aux_grammar2=gpaux,
        alphabet=extended,
    )


def rna_beta(g: SLG, a: MatchedAlphabet) -> BoostResult:
    """Four-quarter booster targeted at the online parser; the folding value
    equals four times the input's plus a closed-form offset."""
    _require_admissible(g)
    _check_matched(g, a)
    _require_fresh_sentinels(g, [D, DP, HL, HR, HPL, HPR])
    table = g.table
    order = canonical_order(g)
    nv = len(order)
    if order[-1] != g.start:
        raise BoostError("start must be the unique longest nonterminal")

    gauxr: dict[Symbol, tuple[Symbol, ...]] = {}
    gpauxr: dict[Symbol, tuple[Symbol, ...]] = {}
    for i, n in enumerate(order, start=1):
        x, y = g.rules[n]
        mx, my = _matched_rule(g, a, n)
        gauxr[n] = (x, table.sentinel(D, i), y)
        gpauxr[n] = (my, table.sentinel(DP, i), mx)
    gaux = SLG(gauxr, g.start, table)
    gpaux = SLG(gpauxr, g.start, table)
    expa = expand_all(gaux)
    expp = expand_all(gpaux)

    v: list[Symbol] = []
    for i, n in enumerate(order, start=1):  # left quarter
        v += expa[n]
        v.append(table.sentinel(HL, 2 * i - 1))
        v += expa[n]
        v.append(table.sentinel(HL, 2 * i))
    for i in range(nv, 0, -1):  # right quarter
        n = order[i - 1]
        v += expa[n]
        v.append(table.sentinel(HR, 2 * i - 1))
        v += expa[n]
        v.append(table.sentinel(HR, 2 * i))
    for i, n in enumerate(order, start=1):  # mirrored left quarter
        v.append(table.sentinel(HPL, 2 * i))
        v += expp[n]
        v.append(table.sentinel(HPL, 2 * i - 1))
        v += expp[n]
    for i in range(nv, 0, -1):  # mirrored right quarter
        n = order[i - 1]
        v.append(table.sentinel(HPR, 2 * i))
        v += expp[n]
        v.append(table.sentinel(HPR, 2 * i - 1))
        v += expp[n]

    q, _ = _q_values(g, a)
    qs = q[g.start]
    delta = 4 * nv * (4 * qs + 1) + 2 * qs + 4 * sum(
        q[n] for n in order if n != g.start
    )
    hash_weight = 4 * qs + 1

    new_syms, new_match, new_weight = [], {}, {}
    for i in range(1, nv + 1):
        di, dpi = table.sentinel(D, i), table.sentinel(DP, i)
        new_syms += [di, dpi]
        new_match[di], new_match[dpi] = dpi, di
        new_weight[di] = new_weight[dpi] = 1
    fams = (HL, HR, HPL, HPR)
    for i in range(1, 2 * nv + 1):
        quartet = [table.sentinel(f, i) for f in fams]
        new_syms += quartet
        for s in quartet:
            new_weight[s] = hash_weight
    for i in range(1, 2 * nv - 1):
        li, ri = table.sentinel(HL, i), table.sentinel(HR, i)
        pli, pri = table.sentinel(HPL, i), table.sentinel(HPR, i)
        new_match[li], new_match[pri] = pri, li
        new_match[ri], new_match[pli] = pli, ri
    for fam in fams:
        s1, s2 = table.sentinel(fam, 2 * nv - 1), table.sentinel(fam, 2 * nv)
        new_match[s1], new_match[s2] = s2, s1
    extended = a.extended(new_syms, new_match, new_weight)

    return BoostResult(
        text=tuple(v),
        ordering=order,
        offset=delta,
        aux_grammar=gaux,
        aux_grammar2=gpaux,
        alphabet=extended,
    )


def gamma(g: SLG, a: MatchedAlphabet) -> BoostResult:
    """Doubled-block booster aimed at the two-part dictionary parser; the
    folding value of the output is the input's plus twice the block weight."""
    _require_admissible(g)
    _check_matched(g, a)
    _require_fresh_sentinels(g, [D, DP, H])
    table = g.table
    order = canonical_order(g)
    nv = len(order)
    if nv < 2:
        raise BoostError("construction needs at least two nonterminals")
    if order[-1] != g.start:
        raise BoostError("start must be the unique longest nonterminal")
    idx_of = {n: i for i, n in enumerate(order, start=1)}

    gp, n0 = _beta_grammar(g, order, table)

    # The mirrored grammar: reversed, matched copies of the triple rules.
    m0 = [table.fresh_nonterminal("P") for _ in range(nv)]
    m1 = [table.fresh_nonterminal("P") for _ in range(nv)]
    m2 = [table.fresh_nonterminal("P") for _ in range(nv)]
    rules2: dict[Symbol, tuple[Symbol, ...]] = {}

    def mref(sym: Symbol) -> Symbol:
        return m0[idx_of[sym] - 1] if sym.is_nonterminal() else a.match[sym]

    for i, n in enumerate(order, start=1):
        x, y = g.rules[n]
        rules2[m1[i - 1]] = (table.sentinel(DP, 2 * i - 1), mref(x))
        rules2[m2[i - 1]] = (table.sentinel(DP, 2 * i), mref(y))
        rules2[m0[i - 1]] = (m2[i - 1], m1[i - 1])
    sp2 = table.fresh_nonterminal("P")
    rules2[sp2] = tuple(s for i in range(nv) for s in (m2[i], m1[i], m0[i]))
    gpp = SLG(rules2, sp2, table)

    _fx = expand_all(gp)
    _fy = expand_all(gpp)
    x_exp = {i: _fx[n0[i - 1]] for i in range(1, nv + 1)}
    y_exp = {i: _fy[m0[i - 1]] for i in range(1, nv + 1)}

    v: list[Symbol] = [table.sentinel(H, 1), table.sentinel(H, 2)]
    for i in range(1, nv):
        v += x_exp[i]
        v += x_exp[i]
        v += y_exp[i]
        v += y_exp[i]
    v += [table.sentinel(H, 3), table.sentinel(H, 4)]
    v += x_exp[nv]

    # c0 = 1 + twice the weight of one x_i block over i < |V|, where dollars
    # weigh one; computed by the q recurrence, never from the text.
    qx: dict[int, int] = {}
    for i, n in enumerate(order, start=1):
        x, y = g.rules[n]
        qa = qx[idx_of[x]] if x.is_nonterminal() else a.weight[x]
        qb = qx[idx_of[y]] if y.is_nonterminal() else a.weight[y]
        qx[i] = qa + qb + 2
    c0 = 1 + sum(2 * qx[i] for i in range(1, nv))

    new_syms, new_match, new_weight = [], {}, {}
    for i in range(1, 2 * nv + 1):
        di, dpi = table.sentinel(D, i), table.sentinel(DP, i)
        new_syms += [di, dpi]
        new_match[di], new_match[dpi] = dpi, di
        new_weight[di] = new_weight[dpi] = 1
    h1, h2 = table.sentinel(H, 1), table.sentinel(H, 2)
    h3, h4 = table.sentinel(H, 3), table.sentinel(H, 4)
    new_syms += [h1, h2, h3, h4]
    new_match[h1], new_match[h4] = h4, h1
    new_match[h2], new_match[h3] = h3, h2
    new_weight[h1] = new_weight[h4] = 1
    new_weight[h2] = new_weight[h3] = c0
    extended = a.extended(new_syms, new_match, new_weight)

    return BoostResult(
        text=tuple(v),
        ordering=order,
        offset=c0,
        aux_grammar=gp,
        aux_grammar2=gpp,
        alphabet=extended,
    )


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
        side = max(2, m)
        while side & (side - 1):
            side += 1
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

    Rows are processed bottom-up over a persistent perfect binary tree whose
    nodes carry nonterminals for their substring and its bitwise negation; a
    point negates its row suffix by flipping one leaf and swapping right
    siblings along the root path.  Row roots are then combined by a second
    perfect tree.
    """
    table = default_answer_table()
    m = p.m
    levels = m.bit_length() - 1
    zero, one = table.terminal("0"), table.terminal("1")

    rules: dict[Symbol, tuple[Symbol, ...]] = {}
    pair_nt: dict[tuple[int, int], Symbol] = {}
    neg_of: dict[int, Symbol] = {zero.id: one, one.id: zero}

    def ensure(aa: Symbol, bb: Symbol) -> Symbol:
        key = (aa.id, bb.id)
        have = pair_nt.get(key)
        if have is not None:
            return have
        head = table.fresh_nonterminal("V")
        rules[head] = (aa, bb)
        pair_nt[key] = head
        na, nb = neg_of[aa.id], neg_of[bb.id]
        nkey = (na.id, nb.id)
        partner = pair_nt.get(nkey)
        if partner is None:
            partner = table.fresh_nonterminal("V")
            rules[partner] = (na, nb)
            pair_nt[nkey] = partner
            neg_of[partner.id] = head
        neg_of[head.id] = partner
        return head

    # level h holds m >> h node symbols; start from the all-zeros row
    tree: list[list[Symbol]] = [[zero] * m]
    for h in range(1, levels + 1):
        below = tree[h - 1]
        tree.append([ensure(below[2 * j], below[2 * j + 1]) for j in range(m >> h)])

    by_row: dict[int, list[int]] = {}
    for x, y in p.points:
        by_row.setdefault(y, []).append(x)

    row_roots: list[Symbol] = []
    for y in range(1, m + 1):
        for x in sorted(by_row.get(y, ())):
            # Swapping in a negation symbol higher up leaves the arrays below
            # stale, so refresh the root-to-leaf path from the rules first.
            for h in range(levels, 0, -1):
                idx = (x - 1) >> h
                aa, bb = rules[tree[h][idx]]
                tree[h - 1][2 * idx] = aa
                tree[h - 1][2 * idx + 1] = bb
            j = x - 1
            tree[0][j] = neg_of[tree[0][j].id]
            for h in range(1, levels + 1):
                if j % 2 == 0:  # arrived from the left child: negate the sibling
                    tree[h - 1][j + 1] = neg_of[tree[h - 1][j + 1].id]
                j //= 2
                tree[h][j] = ensure(tree[h - 1][2 * j], tree[h - 1][2 * j + 1])
        row_roots.append(tree[levels][0])

    combined = row_roots
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


_ANSWER_TABLE: SymbolTable | None = None


def default_answer_table() -> SymbolTable:
    """Answer grammars get a dedicated table: they mint many nonterminals."""
    global _ANSWER_TABLE
    if _ANSWER_TABLE is None:
        _ANSWER_TABLE = SymbolTable()
    return _ANSWER_TABLE


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
