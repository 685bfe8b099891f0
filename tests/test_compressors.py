"""Compressor behavior: definitional examples, oracle agreement, round
trips, and the concatenation laws."""
import hashlib
import itertools
import random

import pytest

from slglab import (
    SLG,
    CompressorError,
    PointSet,
    GlobalStrategy,
    GrammarError,
    alpha,
    answer_grammar,
    beta,
    bisection,
    count_nonoverlapping,
    expand,
    expand_text,
    global_step,
    greedy,
    is_irreducible,
    longest_match,
    lz78,
    lzd,
    maximal_strings,
    repair,
    repair_pairs_only,
    rna_beta,
    run_global,
    sequential,
    sequitur,
    serialize,
)
from slglab import compressors
from slglab.cli import _ALGORITHMS
from slglab.generate import random_admissible_slg, random_matched_alphabet, random_string
from slglab.symbols import SymbolTable

from conftest import (
    brute_dyadic_distinct,
    brute_maximal_strings,
    greedy_count_in_bodies,
    interned,
    lzd_parts_reference,
    run_global_reference,
    sequential_reference,
    sequitur_reference,
    smallest_grammar_size,
)


def _single_rule(table, text):
    head = table.fresh_nonterminal("W")
    return SLG({head: table.chars(text)}, head, table)


def test_count_nonoverlapping_refuses_an_empty_pattern(table):
    with pytest.raises(CompressorError) as e:
        count_nonoverlapping("", _single_rule(table, "ab"))
    assert type(e.value) is CompressorError and str(e.value) == "pattern must be nonempty"


@pytest.mark.parametrize("phrases, tiles", [
    (((1, 2), (3, 1)), True),
    (((1, 1), (3, 1)), False),  # a gap at position 2
    (((1, 2), (2, 2)), False),  # an overlap
    (((1, 3), (4, 0)), False),  # an empty phrase
    (((1, 2),), False),  # too short
    (((1, 2), (3, 2)), False),  # too long
], ids=["tiling", "gap", "overlap", "empty-phrase", "short", "long"])
def test_check_concat_wants_an_exact_tiling(table, phrases, tiles):
    fact = compressors.Factorization(tuple(compressors.Phrase(*p) for p in phrases))
    assert fact.check_concat(table.chars("abc")) is tiles


def test_count_nonoverlapping(table):
    g = _single_rule(table, "aaaa")
    assert count_nonoverlapping("aa", g) == 2
    g = _single_rule(table, "ab")
    assert count_nonoverlapping("ab", g) == 1
    g = _single_rule(table, "ababa")
    assert count_nonoverlapping("aba", g) == 1
    g = _single_rule(table, "aaaaaaa")
    assert count_nonoverlapping("aaa", g) == 2
    # Multi-rule grammars, with patterns longer than some of the bodies.
    rng = random.Random(41)
    for _ in range(200):
        t = SymbolTable()
        heads = [t.fresh_nonterminal("W") for _ in range(rng.randint(1, 4))]
        bodies = [
            list(random_string(rng, rng.randint(1, 12), rng.randint(1, 3), t))
            for _ in heads
        ]
        for head in heads[1:]:
            bodies[0].insert(rng.randint(0, len(bodies[0])), head)
        g = SLG(dict(zip(heads, bodies)), heads[0], t)
        present = sorted({x for b in g.rules.values() for x in b}, key=lambda x: x.id)
        absent = t.terminal("z")
        for _ in range(12):
            body = rng.choice(list(g.rules.values()))
            i = rng.randrange(len(body))
            s = body[i : i + rng.randint(1, 8)]
            patterns = [
                s,
                s + (absent,),  # its first symbol occurs, it never matches
                tuple(rng.choice(present) for _ in range(rng.randint(1, 14))),
                (body[i],) * rng.randint(2, 4),  # overlaps itself
            ]
            for p in patterns:
                want = greedy_count_in_bodies(g.rules.values(), p)
                assert count_nonoverlapping(p, g) == want


def test_maximal_strings_examples(table):
    g = _single_rule(table, "abab")
    assert maximal_strings(g) == {table.chars("ab")}
    g = _single_rule(table, "abcd")
    assert maximal_strings(g) == set()


def test_maximal_strings_on_boosted_start(table, g0):
    # Both doubled-expansion strings are maximal: the short one repeats six
    # times and nothing longer reaches that count.
    w = alpha(g0).text
    head = table.fresh_nonterminal("W")
    g = SLG({head: w}, head, table)
    got = {tuple(s.display for s in m) for m in maximal_strings(g)}
    assert got == {
        ("a", "$_1", "b"),
        ("a", "$_1", "b", "$_2", "a", "$_1", "b"),
    }


def test_maximal_strings_match_bruteforce():
    rng = random.Random(23)
    for _ in range(120):
        t = SymbolTable()
        n = rng.randint(2, 40)
        u = random_string(rng, n, rng.randint(1, 4), t)
        head = t.fresh_nonterminal("W")
        g = SLG({head: u}, head, t)
        assert maximal_strings(g) == brute_maximal_strings(g)
    # multi-rule grammars too
    for _ in range(40):
        t = SymbolTable()
        g = random_admissible_slg(rng, rng.randint(2, 6), 3, 120, t)
        assert maximal_strings(g) == brute_maximal_strings(g)


def test_global_step_examples(table):
    g = _single_rule(table, "abab")
    out = global_step(g, "ab")
    assert out.size == 4 and expand_text(out) == "abab"
    g = _single_rule(table, "aaaa")
    out = global_step(g, "aa")
    assert out.size == 4 and expand_text(out) == "aaaa"
    out = global_step(_single_rule(table, "abababa"), "aba")
    assert out.size == 6 and expand_text(out) == "abababa"
    out = global_step(_single_rule(table, "aaaaa"), "aa")
    assert out.size == 5 and expand_text(out) == "aaaaa"
    with pytest.raises(CompressorError, match="not a maximal string"):
        global_step(g, "a")
    with pytest.raises(CompressorError, match="not a maximal string"):
        global_step(_single_rule(table, "abab"), "ba")


def test_refused_patterns_intern_nothing(table):
    g = repair("abab", table)
    before = interned(table)
    with pytest.raises(CompressorError, match="not a maximal string"):
        global_step(g, "zq")
    assert count_nonoverlapping("xy", g) == 0
    assert interned(table) == before


def test_run_global_small(table):
    for strategy in GlobalStrategy:
        assert run_global("ab", strategy, table).size == 2
        assert run_global("abab", strategy, table).size == 4


def test_run_global_terminates_and_roundtrips():
    rng = random.Random(31)
    strategies = list(GlobalStrategy)
    for i in range(120):
        t = SymbolTable()
        n = rng.randint(1, 300)
        u = random_string(rng, n, rng.randint(1, 16), t)
        g = run_global(u, strategies[i % 4], t)
        assert expand(g, g.start) == u
        assert len(g.rules) <= n + 1


def _global_corpus():
    """(label, input maker) pairs; each maker interns into the table given.
    Random texts, periodic texts with and without one mutated symbol, and
    the boosted strings of random admissible grammars."""
    rng = random.Random(61)
    for i in range(60):
        n, sigma, seed = rng.randint(1, 300), rng.randint(1, 16), rng.random()
        yield f"random-{i}", lambda t, n=n, sigma=sigma, seed=seed: random_string(
            random.Random(seed), n, sigma, t)
    for i in range(40):
        period, sigma, n = rng.randint(1, 12), rng.randint(1, 4), rng.randint(1, 300)
        seed, mutate = rng.random(), (rng.randrange(n) if i % 2 else None)

        def periodic(t, period=period, sigma=sigma, n=n, seed=seed, mutate=mutate):
            word = random_string(random.Random(seed), period, sigma, t)
            u = list((word * (n // period + 1))[:n])
            if mutate is not None:
                u[mutate] = t.terminal("z")
            return tuple(u)

        yield f"periodic-{i}", periodic
    for i in range(40):
        seed, boost = rng.random(), (alpha, beta)[i % 2]

        def boosted(t, seed=seed, boost=boost):
            r = random.Random(seed)
            return boost(random_admissible_slg(r, r.randint(1, 8), 3, 60, t)).text

        yield f"{boost.__name__}-{i}", boosted


def _global_run(compress, make, strategy):
    """The serialized grammar and every symbol of the table, in intern order."""
    t = SymbolTable()
    g = compress(make(t), strategy, t)
    return serialize(g), list(t._by_id.values())


def test_run_global_matches_reference():
    for label, make in _global_corpus():
        for strategy in GlobalStrategy:
            assert _global_run(run_global, make, strategy) == _global_run(
                run_global_reference, make, strategy), (label, strategy)


def _law_texts():
    """Small seeded texts: random, periodic, and `alpha` strings of random
    admissible grammars; each maker interns into the table given."""
    rng = random.Random(73)
    for _ in range(20):
        n, sigma, seed = rng.randint(1, 120), rng.randint(1, 8), rng.random()
        yield lambda t, n=n, sigma=sigma, seed=seed: random_string(
            random.Random(seed), n, sigma, t)
        period, n, seed = rng.randint(1, 9), rng.randint(1, 120), rng.random()
        yield lambda t, period=period, n=n, seed=seed: (
            random_string(random.Random(seed), period, 3, t) * (n // period + 1))[:n]

        def boosted(t, seed=rng.random()):
            r = random.Random(seed)
            return alpha(random_admissible_slg(r, r.randint(1, 5), 3, 40, t)).text

        yield boosted


@pytest.mark.parametrize("strategy", list(GlobalStrategy), ids=lambda s: s.name.lower())
def test_run_global_is_a_sequence_of_global_steps(monkeypatch, strategy):
    """Every string `run_global` replaces is a maximal string of the grammar
    so far: replaying the replaced strings with `global_step` from the
    single-rule grammar rebuilds the same grammar and the same table."""
    taken = []
    take = compressors._take

    def recording(heads, bodies, s, want, table):
        if took := take(heads, bodies, s, want, table):
            taken.append(tuple(s))
        return took

    monkeypatch.setattr(compressors, "_take", recording)
    for make in _law_texts():
        taken.clear()
        t1, t2 = SymbolTable(), SymbolTable()
        g = run_global(make(t1), strategy, t1)
        steps = list(taken)
        u = make(t2)
        h = SLG({(head := t2.fresh_nonterminal("S")): tuple(u)}, head, t2)
        for s in steps:
            h = global_step(h, [t2.by_id(x) for x in s])
        assert serialize(h) == serialize(g)
        assert list(t2._by_id.values()) == list(t1._by_id.values())
        assert not maximal_strings(g)
    assert len(steps) > 1


def test_repair_pairs_only_equals_repair():
    for label, make in _global_corpus():
        t1, t2 = SymbolTable(), SymbolTable()
        assert serialize(repair_pairs_only(make(t1), t1)) == serialize(
            repair(make(t2), t2)), label


def _benchmark_texts():
    """Three seeded 1,024-symbol texts: random over 2 and over 16 letters,
    and a primitive word of length 8 repeated."""
    t = SymbolTable()
    rng = random.Random(1)
    texts = [random_string(rng, 1024, 2, t), random_string(rng, 1024, 16, t)]
    word = random_string(rng, 8, 4, t)
    while any(word == word[p:] + word[:p] for p in range(1, 8)):
        word = random_string(rng, 8, 4, t)
    texts.append(word * 128)
    return ["".join(s.display for s in u) for u in texts]


_GLOBAL_DIGESTS = {
    "repair": (
        "b4eecf47389ac0a97671fd695c8ee58ef5954bbb6d87d05b0ded7dc95ac6f8fd",
        "0f7b2d496d8e1da8732f73bf3fae25a838f026ff658c8391769d32ec82b79eff",
        "32c9d2ea8c90a417700a0e5c035feed738177ae00a29741b5c1c1d646c57d54e",
    ),
    "greedy": (
        "db78b745eac19a8f94d0056b2367db811303229fd7f845e3dd7f545fc57bab89",
        "ca0fffdb718d9ee0195798721062c56e8f8038b61f8b5f7b462ed70a17ad4766",
        "45d698ee34b224550d6ab97fed73abae97691b5eddaa083352b1df118184a6db",
    ),
    "longest_match": (
        "5e4f836793d7f557bff80735a9eb33096d349680a7f0f6fc88f221508137e3f3",
        "f6da9b3ad30268e25ca047b32ab7334d7387a9bc2c2623767af217cca01b624a",
        "1f6b9ff92f3535d130489a185d40b409e7eeeafe7bbfafb04cda70254c27f5bb",
    ),
}


@pytest.mark.parametrize(
    "compress, digests",
    [(repair, _GLOBAL_DIGESTS["repair"]),
     (repair_pairs_only, _GLOBAL_DIGESTS["repair"]),
     (greedy, _GLOBAL_DIGESTS["greedy"]),
     (longest_match, _GLOBAL_DIGESTS["longest_match"])],
    ids=["repair", "repair2", "greedy", "longest"],
)
def test_global_outputs_are_pinned(compress, digests):
    for text, digest in zip(_benchmark_texts(), digests):
        out = serialize(compress(text, SymbolTable()))
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_greedy_stops_at_score_bound(monkeypatch):
    # Growing every repeated string of the periodic text to its full length
    # takes 548 levels over its rounds.
    calls = []
    extend = compressors._extend

    def counting(*args):
        calls.append(args)
        return extend(*args)

    monkeypatch.setattr(compressors, "_extend", counting)
    text = _benchmark_texts()[2]
    t1, t2 = SymbolTable(), SymbolTable()
    got = greedy(text, t1)
    assert len(calls) <= 100
    assert serialize(got) == serialize(
        run_global_reference(text, GlobalStrategy.GREEDY, t2))


# Texts on which RePair and LongestMatch skip a plateau string: a string
# tied with an earlier one of its plateau lost its count to that one's
# replacement (on "ababa", "ab" leaves no "ba").  Found by a seeded search
# over short texts.
_SKIP_TEXTS = ("ababa", "acbcbcac", "aabaabaa", "cabcabca")


@pytest.mark.parametrize("strategy", [GlobalStrategy.REPAIR, GlobalStrategy.LONGEST_MATCH],
                         ids=["repair", "longest"])
def test_plateau_skips_strings_an_earlier_one_spent(monkeypatch, strategy):
    skipped = []
    take = compressors._take

    def counting(heads, bodies, s, want, table):
        if not (took := take(heads, bodies, s, want, table)):
            skipped.append(s)
        return took

    monkeypatch.setattr(compressors, "_take", counting)
    for text in _SKIP_TEXTS:
        skipped.clear()
        t1, t2 = SymbolTable(), SymbolTable()
        got = run_global(text, strategy, t1)
        assert skipped, text
        assert serialize(got) == serialize(run_global_reference(text, strategy, t2)), text
        assert interned(t1) == interned(t2), text


@pytest.mark.parametrize("compress, digest", [
    (repair, "13060553282f0bc9a374a3343884bd99157149a96f484238c5093bc38f32ce0a"),
    (longest_match, "ebcda878efcd849c5ebc6b7b82bd39534b510e41b99bd5faa2ecb5e9ba591a9c"),
], ids=["repair", "longest"])
def test_global_outputs_on_boosted_answer_string_are_pinned(compress, digest):
    """The paper's reduction at m = 16: both reach 7|V| on the alpha string
    of 6,032 symbols, where plateaus are long."""
    g, text = _boosted_answer_string(16)
    out = compress(text, g.table)
    assert out.size == 7 * len(g.rules) == 490
    assert hashlib.sha256(serialize(out).encode()).hexdigest() == digest


def _plain_pair_groups(concat):
    """Every pair of non-negative ids with two non-overlapping occurrences,
    as (positions, f), in order of first position."""
    groups = {}
    for p in range(len(concat) - 1):
        if concat[p] >= 0 and concat[p + 1] >= 0:
            groups.setdefault((concat[p], concat[p + 1]), []).append(p)
    out = []
    for positions in groups.values():
        f, last = 0, -2
        for p in positions:
            if p >= last + 2:
                f, last = f + 1, p
        if f >= 2:
            out.append((positions, f))
    return out


def test_pair_groups_match_plain_grouping():
    a, b, c = 0, 1, 2
    cases = [
        [[a, a, a, a]],
        [[a, b, a, b]],
        [[a, a, a], [a, a, a, a, b, a, b, a, b], [b], [a, b, a, b], [a, a]],
        [[a, a], [a], [a, a]],
        [[a, b, c]],
    ]
    rng = random.Random(67)
    for _ in range(300):
        cases.append([[rng.randrange(rng.randint(1, 3)) for _ in range(rng.randint(0, 12))]
                      for _ in range(rng.randint(1, 5))])
    for bodies in cases:
        concat = compressors._concat(bodies)
        assert compressors._pair_groups(concat) == _plain_pair_groups(concat), bodies


def test_sequential_examples(table):
    g = sequential("ab", table)
    assert g.size == 2
    g = sequential("abab", table)
    assert g.size == 4 and len(g.rules) == 2
    assert expand_text(g) == "abab"


def _sequential_input(kind, seed, t):
    """A seeded random text, or the alpha, beta or rna-beta string of a
    seeded random grammar, over table t."""
    rng = random.Random(seed)
    if kind == "random":
        return random_string(rng, rng.randint(1, 300), rng.randint(1, 16), t)
    g = random_admissible_slg(rng, rng.randint(1, 5), 2, 30, t)
    if kind == "alpha":
        return alpha(g).text
    if kind == "beta":
        return beta(g).text
    return rna_beta(g, random_matched_alphabet(rng, 2, 3, t)).text


@pytest.mark.parametrize(
    "kind, cases", [("random", 100), ("alpha", 50), ("beta", 50), ("rna-beta", 50)])
def test_sequential_matches_reference(kind, cases):
    for seed in range(cases):
        t1, t2 = SymbolTable(), SymbolTable()
        got = serialize(sequential(_sequential_input(kind, seed, t1), t1))
        want = serialize(sequential_reference(_sequential_input(kind, seed, t2), t2))
        assert got == want, seed
        assert interned(t1) == interned(t2), seed


@pytest.mark.parametrize(
    "kind, cases", [("random", 100), ("alpha", 50), ("beta", 50), ("rna-beta", 50)])
def test_sequitur_matches_reference(kind, cases):
    for seed in range(cases):
        t1, t2 = SymbolTable(), SymbolTable()
        got = serialize(sequitur(_sequential_input(kind, seed, t1), t1))
        want = serialize(sequitur_reference(_sequential_input(kind, seed, t2), t2))
        assert got == want, seed
        assert interned(t1) == interned(t2), seed


@pytest.mark.parametrize("unit", ["a", "ab", "aab", "abcab"])
def test_online_match_reference_on_powers(unit):
    """Powers of short words: overlapping occurrences of the suffix and
    bodies that shrink to two symbols."""
    for online, reference in ((sequential, sequential_reference),
                              (sequitur, sequitur_reference)):
        for n in range(1, 81):
            t1, t2 = SymbolTable(), SymbolTable()
            got = serialize(online(unit * n, t1))
            want = serialize(reference(unit * n, t2))
            assert got == want, (online.__name__, n)
            assert interned(t1) == interned(t2), (online.__name__, n)


def _boosted_answer_string(m):
    """The answer grammar of a seeded permutation point set on the m x m
    grid, and its alpha string."""
    rng = random.Random(m)
    column = list(range(1, m + 1))
    rng.shuffle(column)
    g = answer_grammar(PointSet(m, frozenset(zip(range(1, m + 1), column))))
    return g, alpha(g).text


def test_online_match_reference_on_boosted_answer_string():
    for online, reference in ((sequential, sequential_reference),
                              (sequitur, sequitur_reference)):
        g1, v1 = _boosted_answer_string(16)
        g2, v2 = _boosted_answer_string(16)
        got = online(v1, g1.table)
        assert got.size == 7 * len(g1.rules) == 490
        assert serialize(got) == serialize(reference(v2, g2.table)), online.__name__
        assert interned(g1.table) == interned(g2.table), online.__name__


def test_sequitur_examples(table):
    g = sequitur("ab", table)
    assert g.size == 2
    g = sequitur("abab", table)
    assert g.size == 4 and len(g.rules) == 2
    # hand-run of the three reductions on abcabc: one rule for abc, used twice
    g = sequitur("abcabc", table)
    assert expand_text(g) == "abcabc"
    assert g.size == 5 and len(g.rules) == 2
    bodies = sorted(len(b) for b in g.rules.values())
    assert bodies == [2, 3]


def test_bisection_examples(table):
    assert bisection("abab", table).size == 4
    assert bisection("aaaa", table).size == 4
    assert bisection("a", table).size == 1


def test_bisection_matches_dyadic_count():
    rng = random.Random(37)
    for _ in range(60):
        t = SymbolTable()
        n = 2 ** rng.randint(0, 9)
        u = random_string(rng, n, rng.randint(1, 4), t)
        g = bisection(u, t)
        assert expand(g, g.start) == u
        if n > 1:
            assert g.size == 2 * len(brute_dyadic_distinct(u))


def test_lz78_examples(table):
    fact, g = lz78("0111", table)
    assert len(fact) == 3 and g.size == 9
    assert expand_text(g) == "0111"

    fact, g = lz78("a", table)
    assert len(fact) == 1 and expand_text(g) == "a"

    fact, g = lz78("aaaaa", table)
    assert [(p.start, p.length) for p in fact.phrases] == [(1, 1), (2, 2), (4, 2)]
    assert expand_text(g) == "aaaaa"
    assert g.size == 3 * 3 - 1  # final phrase is a bare repeat


def test_lzd_examples(table):
    fact, g = lzd("ab", table)
    assert len(fact) == 1 and expand_text(g) == "ab"

    fact, g = lzd("abab", table)
    assert [(p.start, p.length) for p in fact.phrases] == [(1, 2), (3, 2)]
    assert expand_text(g) == "abab"


def test_lzd_on_beta_string(g0, table):
    w = beta(g0).text
    fact, g = lzd(w, table)
    assert len(fact) == 6
    assert g.size == 18
    assert expand(g, g.start) == w


def test_lzd_matches_definition():
    rng = random.Random(67)
    for _ in range(200):
        t = SymbolTable()
        u = random_string(rng, rng.randint(1, 40), rng.randint(1, 4), t)
        fact, g = lzd(u, t)
        parts = lzd_parts_reference(u)
        assert fact.check_concat(u)
        assert [p.length for p in fact.phrases] == [a + b for a, b in parts]
        got = [tuple(len(expand(g, s)) for s in g.rules[h]) for h in g.rules[g.start]]
        assert got == [(a,) if b == 0 else (a, b) for a, b in parts]


def test_factorizations_concatenate():
    rng = random.Random(41)
    for _ in range(60):
        t = SymbolTable()
        u = random_string(rng, rng.randint(1, 500), rng.randint(1, 8), t)
        f78, _ = lz78(u, t)
        assert f78.check_concat(u)
        fzd, _ = lzd(u, t)
        assert fzd.check_concat(u)


def test_is_irreducible(table):
    a, b = table.terminal("a"), table.terminal("b")
    s, n, m = (table.nonterminal(x) for x in ("X1", "X2", "X3"))
    good = SLG({s: (n, n), n: (a, b)}, s, table)
    assert is_irreducible(good)
    dup = SLG({s: (n, n), n: (a, b), m: (a, b)}, s, table)
    assert not is_irreducible(dup)  # duplicate expansion
    single = SLG({s: (n, b), n: (a, b)}, s, table)
    assert not is_irreducible(single)  # a secondary used once
    s2 = table.nonterminal("X4")
    assert not is_irreducible(SLG({s2: table.chars("abab")}, s2, table))


def test_sequential_outputs_are_irreducible():
    rng = random.Random(43)
    for _ in range(60):
        t = SymbolTable()
        u = random_string(rng, rng.randint(1, 250), rng.randint(1, 6), t)
        g = sequential(u, t)
        assert expand(g, g.start) == u
        assert is_irreducible(g)


def test_round_trip_all_compressors():
    """Round-trip over 500 random strings, alphabet sizes 1..16.

    The linear parsers take the full lengths; the online and global ones get
    capped lengths to keep their scans inside the time budget.
    """
    rng = random.Random(47)
    strategies = list(GlobalStrategy)
    for i in range(500):
        t = SymbolTable()
        sigma = rng.randint(1, 16)
        n = rng.randint(1, 2000)
        u = random_string(rng, n, sigma, t)
        for algo in (bisection, lambda v, tt: lz78(v, tt)[1], lambda v, tt: lzd(v, tt)[1]):
            g = algo(u, t)
            assert expand(g, g.start) == u
        if n <= 1200:
            for online in (sequitur, sequential):
                g = online(u, t)
                assert expand(g, g.start) == u
        if n <= 400:
            g = run_global(u, strategies[i % 4], t)
            assert expand(g, g.start) == u


def test_global_concat_law_on_boosted_halves():
    rng = random.Random(53)
    for _ in range(8):
        t = SymbolTable()
        alphabet = random_matched_alphabet(rng, 2, 3, t)
        g = random_admissible_slg(rng, rng.randint(1, 4), 2, 40, t)
        v = rna_beta(g, alphabet).text
        x, y = v[: len(v) // 2], v[len(v) // 2 :]
        for strat in GlobalStrategy:
            whole = run_global(v, strat, t).size
            parts = run_global(x, strat, t).size + run_global(y, strat, t).size
            assert whole <= parts


def test_sequential_concat_law_on_boosted_halves():
    rng = random.Random(59)
    for _ in range(8):
        t = SymbolTable()
        alphabet = random_matched_alphabet(rng, 2, 3, t)
        g = random_admissible_slg(rng, rng.randint(1, 4), 2, 40, t)
        v = rna_beta(g, alphabet).text
        x, y = v[: len(v) // 2], v[len(v) // 2 :]
        assert (
            sequential(v, t).size
            == sequential(x, t).size + sequential(y, t).size
        )


def test_empty_input_rejected(table):
    for fn in (sequential, sequitur, bisection):
        with pytest.raises(CompressorError, match="empty input"):
            fn("", table)
    with pytest.raises(CompressorError, match="empty input"):
        run_global("", GlobalStrategy.REPAIR, table)
    for fn in (lz78, lzd):
        with pytest.raises(CompressorError, match="empty input"):
            fn("", table)


@pytest.mark.parametrize(
    "compress",
    [repair, repair_pairs_only, greedy, longest_match, sequential, sequitur,
     bisection, lz78, lzd],
)
def test_symbols_of_another_table_rejected(compress):
    # Table b holds other letters at the ids table a gave to "a" and "b", so
    # an id-only reading would compress "abababab" as "xyxyxyxy".
    a, b = SymbolTable(), SymbolTable()
    u = a.chars("abababab")
    assert b.chars("xy") == (b.by_id(u[0].id), b.by_id(u[1].id))
    with pytest.raises(GrammarError, match="^symbol a is not interned in this table$"):
        compress(u, b)
    # a nonterminal of the table is refused before any name is minted
    x, y = b.nonterminal("X"), b.terminal("y")
    before = interned(b)
    with pytest.raises(CompressorError) as e:
        compress((y, x, y, x), b)
    assert type(e.value) is CompressorError and str(e.value) == "input symbol X is a nonterminal"
    assert interned(b) == before
    # a string is always interned into the given table
    assert expand_text(sequential("abab", b)) == "abab"


def test_smallest_grammar_size_by_hand():
    words = ["a", "ab", "aaaa", "aaaaaaaa", "abcabcabc"]
    assert [smallest_grammar_size(w) for w in words] == [1, 2, 4, 6, 6]


def test_no_compressor_beats_the_smallest_grammar():
    rng = random.Random(16)
    words = ["".join(t) for n in range(1, 11) for t in itertools.product("01", repeat=n)]
    words += ["".join(rng.choices("abc", k=rng.randint(1, 9))) for _ in range(200)]
    for w in words:
        least = smallest_grammar_size(w)
        for name, compress in _ALGORITHMS.items():
            assert compress(w, SymbolTable()).size >= least, (name, w)
