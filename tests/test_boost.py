"""Boosting constructions: length and offset identities, the intermediate
grammar family, answer strings, and the run-length predecessor string."""
import dataclasses
import hashlib
import math
import random
import re
import sys

import pytest

from slglab import (
    AlphaBoost,
    BetaBoost,
    BoostError,
    BoostResult,
    FoldingBoost,
    MatchedAlphabet,
    PointSet,
    SLG,
    alpha,
    answer_grammar,
    answer_string,
    beta,
    bexp,
    build_gi,
    canonical_order,
    expand,
    expand_text,
    gamma,
    is_admissible,
    is_dyadic,
    lz78,
    lz78_hard_string,
    lzd,
    make_admissible,
    rna_alpha,
    rna_beta,
    run_global,
    sequential,
    serialize,
    stats,
    GlobalStrategy,
)
from slglab.boost import alpha_sentinel_counts, beta_sentinel_counts
from slglab.generate import (
    random_admissible_slg,
    random_matched_alphabet,
    random_point_set,
    random_run_length_profile,
    random_slg,
)
from slglab.rna import wrna
from slglab.symbols import SentinelFamily, SymbolTable, parse_sentinel_display

from conftest import interned


def _unit_alphabet(table):
    a, b = table.terminal("a"), table.terminal("b")
    am, bm = table.terminal("a~"), table.terminal("b~")
    return MatchedAlphabet(
        (a, am, b, bm),
        {a: am, am: a, b: bm, bm: b},
        {a: 1, am: 1, b: 1, bm: 1},
    )


# -- alpha --------------------------------------------------------------------


def test_alpha_g0(table, g0):
    r = alpha(g0)
    assert len(r.text) == 24
    assert r.offset == 8
    prefix = " ".join(s.display for s in r.text[:8])
    assert prefix == "a $_1 b #_1 a $_1 b #_2"
    u = expand(g0, g0.start)
    assert all(u[j - 1] == r.text[r.offset + 2 * j - 2] for j in range(1, 5))


def test_alpha_single_rule(table):
    a, b = table.terminal("a"), table.terminal("b")
    s = table.nonterminal("S1")
    g = SLG({s: (a, b)}, s, table)
    r = alpha(g)
    assert " ".join(x.display for x in r.text) == "a $_1 b #_1 a $_1 b #_2"
    assert len(r.text) == 8
    # both 0 and 4 satisfy the stride identity here; the block form gives 0
    assert r.offset == 0
    u = expand(g, s)
    assert all(u[j - 1] == r.text[r.offset + 2 * j - 2] for j in range(1, 3))


def test_alpha_length_identity_random():
    rng = random.Random(61)
    for _ in range(25):
        t = SymbolTable()
        g = random_admissible_slg(rng, rng.randint(1, 12), 3, 250, t)
        r = alpha(g)
        assert len(r.text) == 4 * stats(g).total_expansion
        u = expand(g, g.start)
        assert all(
            u[j - 1] == r.text[r.offset + 2 * j - 2] for j in range(1, len(u) + 1)
        )
        # the text is the definitional concatenation of doubled expansions
        # with the i-th rule's dollar between its two children, rebuilt here
        # from the rules and the ordering alone
        index = {n: i for i, n in enumerate(r.ordering, start=1)}
        exp = {}

        def interleaved(x):
            if x.is_terminal():
                return (x,)
            if x not in exp:
                left, right = g.rules[x]
                dollar = t.sentinel(SentinelFamily.DOLLAR, index[x])
                exp[x] = interleaved(left) + (dollar,) + interleaved(right)
            return exp[x]

        rebuilt = []
        for i, n in enumerate(r.ordering, start=1):
            rebuilt += interleaved(n)
            rebuilt.append(t.sentinel(SentinelFamily.HASH, 2 * i - 1))
            rebuilt += interleaved(n)
            rebuilt.append(t.sentinel(SentinelFamily.HASH, 2 * i))
        assert tuple(rebuilt) == r.text


def test_alpha_requires_admissible(table):
    a, b = table.terminal("a"), table.terminal("b")
    s = table.nonterminal("S2")
    g = SLG({s: (a, b, a)}, s, table)
    with pytest.raises(BoostError, match="not admissible"):
        alpha(g)


def test_canonical_order_puts_start_last(table, g0):
    order = canonical_order(g0)
    assert order[-1] == g0.start
    assert [n.display for n in order] == ["N1", "S"]


# -- bexp / intermediate grammars ---------------------------------------------


def test_bexp_examples(table, g0):
    n1, s = table.nonterminal("N1"), table.nonterminal("S")
    assert " ".join(x.display for x in bexp(g0, frozenset(), n1)) == "a $_1 b"
    assert [x.display for x in bexp(g0, frozenset({1, 2}), n1)] == ["M1"]
    assert [x.display for x in bexp(g0, frozenset({1, 2}), s)] == ["M2"]
    got = " ".join(x.display for x in bexp(g0, frozenset({1}), s))
    assert got == "M1 $_2 M1"


def test_bexp_and_build_gi_on_a_chain_deeper_than_the_recursion_limit(table):
    a, b = table.terminal("a"), table.terminal("b")
    height, cut = 1500, 1200
    assert cut - 1 > sys.getrecursionlimit()
    ns = [table.nonterminal(f"N{k}") for k in range(1, height + 1)]
    rules = {ns[0]: (a, b)}
    for k in range(1, height):
        rules[ns[k]] = (ns[k - 1], a)
    g = SLG(rules, ns[-1], table)
    # N_k expands to k + 1 symbols, so it is the k-th in canonical order
    dollar = [None] + [table.sentinel(SentinelFamily.DOLLAR, k) for k in range(1, height + 1)]
    tail = [x for k in range(2, height + 1) for x in (dollar[k], a)]
    assert bexp(g, frozenset(), ns[-1]) == (a, dollar[1], b, *tail)
    # only N_cut is marked, so N_1 .. N_(cut-1) stay a plain chain below it
    gi = build_gi(g, frozenset({cut}))
    marker = table.get(f"M{cut}")
    assert gi.grammar.rules[marker] == (a, dollar[1], b, *tail[: 2 * (cut - 2)], dollar[cut], a)
    top = (marker, *tail[2 * (cut - 1) :])
    hashes = [table.sentinel(SentinelFamily.HASH, i) for i in (2 * height - 1, 2 * height)]
    body = gi.grammar.rules[g.start]
    assert body[-2 * len(top) - 2 :] == (*top, hashes[0], *top, hashes[1])
    # block k holds two copies of bexp(N_k): 2k + 1 symbols below the cut,
    # 2(k - cut) + 1 from the cut up
    blocks = [2 * k + 1 if k < cut else 2 * (k - cut) + 1 for k in range(1, height + 1)]
    assert len(body) == sum(2 * x + 2 for x in blocks)
    # alpha and beta (its paired dollars) on the chain's lowest rules, a
    # chain just deeper than the limit: the full one would take seconds
    low = sys.getrecursionlimit() + 2
    chain = SLG({n: rules[n] for n in ns[:low]}, ns[low - 1], table)
    u = (a, b) + (a,) * (low - 1)
    total = sum(k + 1 for k in range(1, low + 1))
    r = alpha(chain)
    assert len(r.text) == 4 * total
    assert all(r.text[r.offset + 2 * j] == x for j, x in enumerate(u))
    r = beta(chain)
    assert len(r.text) == 6 * total - 4 * low
    last = r.position_map[low]
    assert tuple(r.text[p - 1] for p in last) == u
    assert r.text[last[-1]] == table.sentinel(SentinelFamily.DOLLAR, 2 * low)


@pytest.mark.parametrize("sentinel", ["$_1", "#_1"])
def test_bexp_and_build_gi_refuse_what_alpha_refuses(table, sentinel):
    # S -> $_1 b once came out of build_gi as $_1 $_1 b #_1 $_1 $_1 b #_2
    x, b = table.terminal(sentinel), table.terminal("b")
    s = table.nonterminal("S")
    g = SLG({s: (x, b)}, s, table)
    message = re.escape(f"collides with sentinel family '{sentinel[:2]}'")
    for boost in (alpha, lambda g: build_gi(g, frozenset()),
                  lambda g: bexp(g, frozenset({1}), s)):
        with pytest.raises(BoostError, match=message):
            boost(g)


def test_boosters_add_no_nonterminal_to_the_callers_table():
    rng = random.Random(79)
    t = SymbolTable()
    alphabet = random_matched_alphabet(rng, 2, 4, t)
    g = random_admissible_slg(rng, 10, 2, 200, t)
    assert len(g.rules) == 10

    def nonterminals():
        return [x for x in interned(t) if x[1] == "nonterminal"]

    before = nonterminals()
    for build in (alpha, beta):
        build(g)
    for build in (rna_alpha, rna_beta, gamma):
        build(g, alphabet)
    bexp(g, frozenset(), g.start)
    assert nonterminals() == before
    # build_gi interns exactly the markers M_i of its index set
    build_gi(g, frozenset({2, 7}))
    assert [x[2] for x in nonterminals()[len(before):]] == ["M2", "M7"]


def test_bexp_index_out_of_range(table, g0):
    with pytest.raises(BoostError, match="out of range"):
        bexp(g0, frozenset({3}), g0.start)


@pytest.mark.parametrize("call, message", [
    (lambda g: bexp(g, frozenset(), g.table.nonterminal("Z")), "symbol not in grammar: Z"),
    (lambda g: PointSet(3, frozenset({(1, 1), (2, 2), (3, 3)})),
     "grid side must be a power of two (>= 2)"),
    (lambda g: PointSet(2, frozenset({(1, 1), (3, 2)})), "point (3, 2) outside the grid"),
    (lambda g: lz78_hard_string([]), "need at least one entry"),
    (lambda g: lz78_hard_string([(0, "0"), (4, "1")], 4),
     "positions must lie below the universe size"),
    (lambda g: lz78_hard_string([(0, "0"), (1, "2")]), "colors must be '0' or '1'"),
], ids=["bexp-foreign-symbol", "side-not-power-of-two", "point-off-grid",
        "no-entries", "past-universe", "bad-color"])
def test_boost_refusals(g0, call, message):
    with pytest.raises(BoostError) as e:
        call(g0)
    assert type(e.value) is BoostError and str(e.value) == message


def test_build_gi_expands_to_boosted_text():
    rng = random.Random(67)
    for _ in range(10):
        t = SymbolTable()
        g = random_admissible_slg(rng, rng.randint(1, 10), 3, 200, t)
        w = alpha(g).text
        nv = len(g.rules)
        for _ in range(20):
            subset = frozenset(
                i for i in range(1, nv + 1) if rng.random() < 0.5
            )
            gi = build_gi(g, subset)
            assert expand(gi.grammar, gi.grammar.start) == w


def test_global_runs_reach_the_full_replacement_grammar(table, g0):
    w = alpha(g0).text
    full = build_gi(g0, frozenset({1, 2})).grammar
    for strategy in GlobalStrategy:
        out = run_global(w, strategy, table)
        assert out.size == 14
        from slglab import is_isomorphic

        assert is_isomorphic(out, full)


# -- beta ---------------------------------------------------------------------


def test_beta_g0(table, g0):
    r = beta(g0)
    assert len(r.text) == 28 == 6 * 6 - 4 * 2
    exp10 = r.text[:4]
    assert " ".join(s.display for s in exp10) == "a $_1 b $_2"
    # position map reads the original symbols out of the boosted text
    for i, positions in r.position_map.items():
        e = expand(g0, r.ordering[i - 1])
        assert len(positions) == len(e)
        for j, p in enumerate(positions):
            assert r.text[p - 1] == e[j]


def test_beta_per_nonterminal_lengths():
    rng = random.Random(71)
    for _ in range(15):
        t = SymbolTable()
        g = random_admissible_slg(rng, rng.randint(1, 10), 3, 220, t)
        r = beta(g)
        lens = g.expansion_lengths()
        total = stats(g).total_expansion
        assert len(r.text) == 6 * total - 4 * len(g.rules)
        # block of index i spans twice 3|exp(N_i)| - 2 symbols
        offset = 0
        for i, n in enumerate(r.ordering, start=1):
            block = 3 * lens[n] - 2
            assert r.position_map[i][0] == offset + 1
            offset += 2 * block
        assert offset == len(r.text)


def test_beta_position_map_reads_every_expansion():
    """`position_map[i]` reads `exp(ordering[i - 1])` out of the text, for
    every index, on seeded grammars; in every other grammar two terminals
    are renamed to displays that share a sentinel family's prefix without
    naming one of its sentinels (beta refuses only its own family's)."""
    lookalikes = [x for x in _SENTINEL_LOOKALIKES if parse_sentinel_display(x) is None
                  and not x.startswith(SentinelFamily.DOLLAR.prefix)]
    rng = random.Random(73)
    renamed = 0
    for trial in range(30):
        t = SymbolTable()
        g = random_admissible_slg(rng, rng.randint(1, 12), 3, 240, t)
        if trial % 2:
            old = sorted(g.terminals(), key=lambda s: s.id)[:2]
            rename = dict(zip(old, (t.terminal(x) for x in rng.sample(lookalikes, 2))))
            g = SLG({h: tuple(rename.get(s, s) for s in body) for h, body in g.rules.items()},
                    g.start, t)
            renamed += bool(set(rename.values()) & g.terminals())
        r = beta(g)
        assert sorted(r.position_map) == list(range(1, len(r.ordering) + 1))
        for i, n in enumerate(r.ordering, start=1):
            assert tuple(r.text[p - 1] for p in r.position_map[i]) == expand(g, n)
    assert renamed == 15


# -- folding boosters -----------------------------------------------------------


def test_each_booster_returns_its_own_frozen_type(table, g0):
    alphabet = _unit_alphabet(table)
    results = [alpha(g0), beta(g0), rna_alpha(g0, alphabet),
               rna_beta(g0, alphabet), gamma(g0, alphabet)]
    assert [type(r) for r in results] == [AlphaBoost, BetaBoost] + [FoldingBoost] * 3
    for r in results:
        assert isinstance(r, BoostResult)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.text = ()


def test_rna_alpha_g0(table, g0):
    alphabet = _unit_alphabet(table)
    r = rna_alpha(g0, alphabet)
    assert len(r.text) == 48 == 8 * 6
    # q(N1) = 3, q(S) = 7, offset = 2*2*15 + 7 + 2*3 = 73
    assert r.offset == 73
    u = expand(g0, g0.start)
    wu = wrna(u, alphabet).value
    wv = wrna(r.text, r.alphabet).value
    assert wv == 2 * wu + r.offset
    for strategy in GlobalStrategy:
        assert run_global(r.text, strategy, table).size <= 7 * g0.size


def test_rna_beta_g0(table, g0):
    alphabet = _unit_alphabet(table)
    r = rna_beta(g0, alphabet)
    assert len(r.text) == 96 == 16 * 6
    assert r.offset == 258 == 4 * 2 * 29 + 14 + 4 * 3
    u = expand(g0, g0.start)
    wv = wrna(r.text, r.alphabet).value
    assert wv == 4 * wrna(u, alphabet).value + r.offset
    # exactly 11|G| by the half-by-half accounting
    assert sequential(r.text, table).size == 22 * len(g0.rules)


def test_gamma_g0(table, g0):
    alphabet = _unit_alphabet(table)
    r = gamma(g0, alphabet)
    assert r.offset == 9  # 1 + 2 * (1+1+1+1)
    x1 = r.text[2:6]
    assert " ".join(s.display for s in x1) == "a $_1 b $_2"
    y1 = r.text[10:14]
    assert " ".join(s.display for s in y1) == "$'_2 b~ $'_1 a~"
    u = expand(g0, g0.start)
    assert wrna(r.text, r.alphabet).value == 2 * r.offset + wrna(u, alphabet).value
    fact, slg = lzd(r.text, table)
    assert slg.size == 18 * 2 - 6 <= 9 * g0.size
    total = stats(g0).total_expansion
    assert len(r.text) <= 12 * total + 5


def test_gamma_needs_two_nonterminals(table):
    a, b = table.terminal("a"), table.terminal("b")
    s = table.nonterminal("S3")
    g = SLG({s: (a, b)}, s, table)
    with pytest.raises(BoostError, match="two nonterminals"):
        gamma(g, _unit_alphabet(table))


def test_gamma_exact_length_law():
    rng = random.Random(137)
    for _ in range(10):
        t = SymbolTable()
        alphabet = random_matched_alphabet(rng, 2, 4, t)
        g = random_admissible_slg(rng, rng.randint(2, 8), 2, 80, t)
        r = gamma(g, alphabet)
        lens = g.expansion_lengths()
        blocks = sum(4 * (3 * lens[n] - 2) for n in r.ordering[:-1])
        tail = 3 * lens[r.ordering[-1]] - 2
        assert len(r.text) == 4 + blocks + tail


def test_bexp_rejects_reserved_marker_names(table):
    a, b = table.terminal("a"), table.terminal("b")
    m1 = table.nonterminal("M1")
    g = SLG({m1: (a, b)}, m1, table)
    with pytest.raises(BoostError, match="reserved marker names"):
        bexp(g, frozenset({1}), m1)


def test_marker_named_terminal_is_refused_as_a_reserved_name(table):
    # S -> M1 b: the terminal M1 is not a rule head, so the check must read
    # the terminals too; the marker's interning would otherwise fail with
    # a SymbolError.  Alpha builds no marker and accepts the grammar.
    s, m1 = table.nonterminal("S"), table.terminal("M1")
    g = SLG({s: (m1, table.terminal("b"))}, s, table)
    assert len(alpha(g).text) == 4 * 2
    for call in (lambda: bexp(g, frozenset({1}), s), lambda: build_gi(g, frozenset({1})),
                 lambda: build_gi(g, frozenset())):
        with pytest.raises(BoostError) as e:
            call()
        assert type(e.value) is BoostError
        assert str(e.value) == "grammar uses reserved marker names: ['M1']"


def test_folding_boosters_extend_match_involutively():
    rng = random.Random(73)
    for _ in range(10):
        t = SymbolTable()
        alphabet = random_matched_alphabet(rng, 2, 4, t)
        g = random_admissible_slg(rng, rng.randint(2, 6), 2, 60, t)
        for build in (rna_alpha, rna_beta, gamma):
            r = build(g, alphabet)
            ext = r.alphabet
            for s in ext.symbols:
                assert ext.match[ext.match[s]] == s
                assert ext.match[s] != s
                assert ext.weight[s] == ext.weight[ext.match[s]]


_PRIMED = {
    SentinelFamily.DOLLAR: SentinelFamily.DOLLAR_PRIME,
    SentinelFamily.HASH: SentinelFamily.HASH_PRIME,
    SentinelFamily.HASH_L: SentinelFamily.HASH_PRIME_R,
    SentinelFamily.HASH_R: SentinelFamily.HASH_PRIME_L,
}


def _primed_reverse(seq, match, table):
    """The mirror image of a forward stretch: reversed, letters mapped to
    their match, $_i to $'_i, #_i to #'_i, #L_i to #'R_i and #R_i to #'L_i."""
    out = []
    for sym in reversed(seq):
        sentinel = parse_sentinel_display(sym.display)
        if sentinel is None:
            out.append(match[sym])
        else:
            fam, i = sentinel
            out.append(table.sentinel(_PRIMED[fam], i))
    return tuple(out)


def test_mirrored_halves_are_primed_reverses_of_forward_halves():
    rng = random.Random(89)
    for _ in range(30):
        t = SymbolTable()
        pairs = rng.randint(1, 4)
        alphabet = random_matched_alphabet(rng, pairs, 5, t)
        g = random_admissible_slg(rng, rng.randint(2, 12), pairs, 300, t)
        match = alphabet.match

        text = rna_alpha(g, alphabet).text
        half = len(text) // 2
        assert text[:half] == _primed_reverse(text[half:], match, t)

        text = rna_beta(g, alphabet).text
        q = len(text) // 4
        quarters = [text[k * q : (k + 1) * q] for k in range(4)]
        assert quarters[2] == _primed_reverse(quarters[1], match, t)
        assert quarters[3] == _primed_reverse(quarters[0], match, t)

        r = gamma(g, alphabet)
        lens = g.expansion_lengths()
        pos = 2  # after #_1 #_2; then x_i x_i y_i y_i for each i < |V|
        for n in r.ordering[:-1]:
            size = 3 * lens[n] - 2
            x, x2, y, y2 = (r.text[pos + k * size : pos + (k + 1) * size] for k in range(4))
            assert x == x2 and y == y2
            assert y == _primed_reverse(x, match, t)
            pos += 4 * size
        assert r.text[pos : pos + 2] == (
            t.sentinel(SentinelFamily.HASH, 3),
            t.sentinel(SentinelFamily.HASH, 4),
        )


def test_rna_alpha_rejects_zero_weight(table, g0):
    a, b = table.terminal("a"), table.terminal("b")
    am, bm = table.terminal("a~"), table.terminal("b~")
    alphabet = MatchedAlphabet(
        (a, am, b, bm),
        {a: am, am: a, b: bm, bm: b},
        {a: 0, am: 0, b: 1, bm: 1},
    )
    with pytest.raises(BoostError, match="positive"):
        rna_alpha(g0, alphabet)


def test_mirrored_booster_outputs_are_pinned():
    # rna_alpha and rna_beta over seeded grammars of 1 to 12 nonterminals
    # and matched alphabets of 2 or 3 pairs: the text, the order, the
    # offset and the extended alphabet of each result, or the message of
    # each refusal (a third letter that a two-pair alphabet lacks).  A
    # change that keeps every output keeps this digest.
    rng = random.Random(251)
    digest = hashlib.sha256()
    for _ in range(60):
        t = SymbolTable()
        alphabet = random_matched_alphabet(rng, rng.randint(2, 3), 4, t)
        g = random_admissible_slg(rng, rng.randint(1, 12), rng.randint(2, 3), 200, t)
        for build in (rna_alpha, rna_beta):
            try:
                r = build(g, alphabet)
            except BoostError as e:
                digest.update(f"refused: {e}\n".encode())
                continue
            for part in (r.text, r.ordering):
                digest.update((" ".join(s.display for s in part) + "\n").encode())
            digest.update(f"{r.offset}\n{r.alphabet.serialize()}".encode())
    assert digest.hexdigest() == (
        "4e501ab1f8080ab9890b8b9d31fd17ba10344d5de19a4f6cf19e6b3330446407")


# Terminals that share a prefix with a sentinel family without naming one of
# its sentinels, and two that are sentinels.
_SENTINEL_LOOKALIKES = ["$_x", "#'R_w", "$'_y", "#L_z", "$_1", "#_2"]


def _faulty_case(rng):
    """A grammar and the (symbol, partner, weight) pairs of a matched
    alphabet, each with some of the faults the boosters refuse, an index set
    that may hold 0 or |V| + 1, and a symbol to expand."""
    t = SymbolTable()
    if rng.random() < 0.6:
        g = random_admissible_slg(rng, rng.randint(1, 6), rng.randint(2, 3), 200, t)
    else:
        g = random_slg(rng, rng.randint(1, 4), rng.randint(2, 3), t)
    rename = {}
    if rng.random() < 0.3:
        rename[t.terminal("a")] = t.terminal(rng.choice(_SENTINEL_LOOKALIKES))
    if rng.random() < 0.3:
        rename[rng.choice(list(g.rules))] = t.nonterminal("M1")
    if rename:
        g = SLG({rename.get(h, h): tuple(rename.get(s, s) for s in body)
                 for h, body in g.rules.items()}, rename.get(g.start, g.start), t)
    pairs = [(t.terminal(x), t.terminal(x + "~"), rng.randint(1, 3))
             for x in "abc"[:rng.randint(1, 3)]]
    if rng.random() < 0.3:
        # cover the grammar's other terminals, sentinel lookalikes included
        have = {s for p in pairs for s in p[:2]}
        pairs += [(s, t.terminal(s.display + "~"), 1)
                  for s in sorted(g.terminals(), key=lambda s: s.display) if s not in have]
    if rng.random() < 0.2:
        pairs[0] = pairs[0][:2] + (0,)
    if rng.random() < 0.2:
        pairs.append((t.sentinel(SentinelFamily.DOLLAR, 1),
                      t.sentinel(SentinelFamily.DOLLAR_PRIME, 1), 1))
    nv = len(g.rules)
    index_set = frozenset(i for i in range(nv + 2) if rng.random() < 0.3)
    x = rng.choice([*g.rules, *sorted(g.terminals(), key=lambda s: s.display),
                    t.nonterminal("Z")])
    return g, pairs, index_set, x


def _shown(symbols):
    return " ".join(s.display for s in symbols)


def _boosted(r):
    alphabet = r.alphabet.serialize() if isinstance(r, FoldingBoost) else _shown(r.alphabet)
    layout = r.position_map if isinstance(r, BetaBoost) else r.offset
    return f"{_shown(r.text)} | {_shown(r.ordering)} | {layout} | {alphabet}"


def test_booster_refusals_are_pinned():
    # Seeded draws with several faults at once: sentinel lookalike terminals,
    # a nonterminal named M1, zero weights, a sentinel pair in the matched
    # alphabet, grammars that are not admissible, and index sets holding 0
    # or |V| + 1.  Each call's output, or the class and message of its
    # refusal, goes into the digest, so it pins which check fires first.
    def run(name, call, show):
        try:
            out = call()
        except ValueError as e:
            digest.update(f"{name} refused: {type(e).__name__}: {e}\n".encode())
            return None
        digest.update(f"{name}: {show(out)}\n".encode())
        return out

    rng = random.Random(2307)
    digest = hashlib.sha256()
    for _ in range(400):
        g, pairs, index_set, x = _faulty_case(rng)
        alphabet = run("alphabet", lambda: MatchedAlphabet(
            tuple(s for p in pairs for s in p[:2]),
            {**{a: b for a, b, _ in pairs}, **{b: a for a, b, _ in pairs}},
            {s: w for a, b, w in pairs for s in (a, b)}), MatchedAlphabet.serialize)
        grammars = [g]
        if not is_admissible(g):
            fixed = run("make_admissible", lambda: make_admissible(g), serialize)
            if fixed is not None:
                grammars.append(fixed)
        for h in grammars:
            for build in (alpha, beta):
                run(build.__name__, lambda: build(h), _boosted)
            for build in (gamma, rna_alpha, rna_beta) if alphabet else ():
                run(build.__name__, lambda: build(h, alphabet), _boosted)
            run("bexp", lambda: bexp(h, index_set, x), _shown)
            run("build_gi", lambda: build_gi(h, index_set),
                lambda r: f"{sorted(r.index_set)} | {serialize(r.grammar)}")
            run("alpha_counts", lambda: alpha_sentinel_counts(h), str)
            run("beta_counts", lambda: beta_sentinel_counts(h), str)
    assert digest.hexdigest() == (
        "0c1e79106571bba9194e2ae8260b377f56a8f8f8c7add7c993e68de8ee029a67")


# -- answer strings -------------------------------------------------------------


def test_answer_string_examples():
    p = PointSet(2, frozenset({(1, 1), (2, 2)}))
    assert answer_string(p) == "1110"
    # definitional brute force for the all-in-one-column case: both points
    # dominate only cells with x = 2, and (2,2) sees both, so parity 0
    p2 = PointSet(2, frozenset({(2, 1), (2, 2)}))
    brute = []
    for y in (1, 2):
        for x in (1, 2):
            cnt = sum(1 for (px, py) in p2.points if px <= x and py <= y)
            brute.append(str(cnt % 2))
    assert answer_string(p2) == "".join(brute) == "0100"
    with pytest.raises(BoostError, match="exactly 2 points"):
        PointSet(2, frozenset())


def test_point_set_normalization_pads_to_power_of_two():
    ps = PointSet.normalized(3, {(1, 1), (2, 3), (3, 2)})
    assert ps.m == 4
    assert (4, 4) in ps.points and len(ps.points) == 4


def test_point_set_normalization_rejects_no_points():
    with pytest.raises(BoostError, match="at least one point"):
        PointSet.normalized(0, set())


def test_answer_grammar_matches_answer_string():
    rng = random.Random(79)
    for m in (2, 4, 8, 16):
        logm = int(math.log2(m))
        for _ in range(6):
            ps = PointSet(m, frozenset(random_point_set(rng, m)))
            g = answer_grammar(ps)
            assert is_admissible(g)
            assert is_dyadic(g)
            assert expand_text(g) == answer_string(ps)
            s = stats(g)
            assert s.height <= 2 * logm + 1
            assert s.size <= 2 * m * logm + 4 * m


def test_answer_grammar_calls_share_no_table():
    ps = PointSet(8, frozenset(random_point_set(random.Random(97), 8)))
    first, second = answer_grammar(ps), answer_grammar(ps)
    assert first.table is not second.table
    assert serialize(first) == serialize(second)


def test_answer_grammar_single_column():
    ps = PointSet(2, frozenset({(1, 1), (1, 2)}))
    g = answer_grammar(ps)
    assert expand_text(g) == answer_string(ps)


def test_answer_grammar_names_are_pinned():
    # The fresh names V1, V2, ... follow the order in which head/partner
    # pairs are made: a change to that order, or to the rules, fails here.
    # The padded draws put several points in some rows; the permutations
    # reach the sizes the acceptance chain uses.
    rng = random.Random(101)
    digest = hashlib.sha256()
    for m in range(1, 34):
        ps = PointSet.normalized(m, random_point_set(rng, m))
        digest.update(serialize(answer_grammar(ps)).encode())
    for m in (64, 128):
        ys = list(range(1, m + 1))
        rng.shuffle(ys)
        ps = PointSet(m, frozenset(zip(range(1, m + 1), ys)))
        digest.update(serialize(answer_grammar(ps)).encode())
    assert digest.hexdigest() == (
        "cc2f5cea0487eddd125cf14ff35eb2a3dca4eb9deb5d1743424fda7ca6991787"
    )


# -- run-length predecessor string ---------------------------------------------


def test_lz78_hard_string_examples():
    assert lz78_hard_string([(0, "0"), (2, "1")], 4) == "0011"
    assert lz78_hard_string([(0, "1"), (1, "1")], 4) == "1111"
    with pytest.raises(BoostError, match="strictly increasing"):
        lz78_hard_string([(0, "0"), (0, "1")], 4)
    with pytest.raises(BoostError, match="first position"):
        lz78_hard_string([(1, "0"), (2, "1")], 4)


def test_lz78_hard_string_bound_and_readout():
    rng = random.Random(83)
    t = SymbolTable()
    for _ in range(60):
        k = rng.randint(1, 64)
        entries, pos = [], 0
        for color, length in random_run_length_profile(rng, k):
            entries.append((pos, color))
            pos += length
        w = lz78_hard_string(entries, k * k)
        assert len(w) == k * k
        for _ in range(10):
            x = rng.randrange(k * k)
            predecessor_color = [c for p, c in entries if p <= x][-1]
            assert w[x] == predecessor_color  # w[x+1] in 1-based indexing
        fact, _ = lz78(w, t)
        assert len(fact) <= 6 * k
