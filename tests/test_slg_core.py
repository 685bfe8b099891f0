"""Grammar model: expansion, measurements, conversions, and the text format,
with the refusals of the symbol table and the random generators."""
import hashlib
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import slglab
from slglab import (
    SLG,
    GrammarError,
    bisection,
    GrammarParseError,
    deserialize,
    expand,
    expand_text,
    is_admissible,
    is_dyadic,
    is_isomorphic,
    make_admissible,
    random_access,
    serialize,
    stats,
)
from slglab.core import _dyadic_split
from slglab.generate import (
    random_admissible_slg,
    random_dyadic_slg,
    random_slg,
    terminal_alphabet,
)
from slglab.symbols import (
    SentinelFamily,
    SymbolError,
    SymbolTable,
    parse_sentinel_display,
)

from conftest import PROPERTY, interned, isomorphic_reference, slg_order_reference


def test_expand_examples(table, g0):
    n1 = table.nonterminal("N1")
    a = table.terminal("a")
    assert expand_text(g0, n1) == "ab"
    assert expand_text(g0) == "abab"
    assert expand(g0, a) == (a,)


def test_expand_unknown_symbol(table, g0):
    with pytest.raises(GrammarError, match="symbol not in grammar"):
        expand(g0, table.nonterminal("Zq"))


def test_stats_examples(table, g0):
    s = stats(g0)
    assert (s.size, s.num_nonterminals, s.expansion_length, s.total_expansion,
            s.height) == (4, 2, 4, 6, 2)

    a, b = table.terminal("a"), table.terminal("b")
    s1 = table.nonterminal("T1")
    g1 = SLG({s1: (a, b)}, s1, table)
    s = stats(g1)
    assert (s.size, s.total_expansion, s.height) == (2, 2, 1)

    s2, a2, b2 = (table.nonterminal(x) for x in ("S2", "A2", "B2"))
    chain = SLG({s2: (a2, a2), a2: (b2, b2), b2: (a, b)}, s2, table)
    assert stats(chain).total_expansion == 8 + 4 + 2


def test_is_admissible(table, g0):
    assert is_admissible(g0)
    a, b, c = (table.terminal(x) for x in "abc")
    s = table.nonterminal("T3")
    assert not is_admissible(SLG({s: (a, b, c)}, s, table))
    u = table.nonterminal("U3")
    assert not is_admissible(SLG({s: (a, b), u: (a, a)}, s, table))


def test_make_admissible_idempotent_languages(table, g0):
    out = make_admissible(g0)
    assert is_admissible(out)
    assert expand(out, out.start) == expand(g0, g0.start)
    assert out.size <= 2 * g0.size


def test_make_admissible_prunes_unit_chain(table):
    a, b = table.terminal("a"), table.terminal("b")
    s, a1 = table.nonterminal("S4"), table.nonterminal("A4")
    g = SLG({s: (a1,), a1: (a, b)}, s, table)
    out = make_admissible(g)
    assert is_admissible(out)
    assert len(out.rules) == 1 and out.size == 2
    assert expand_text(out) == "ab"


def test_make_admissible_binarizes(table):
    a, b = table.terminal("a"), table.terminal("b")
    s = table.nonterminal("S5")
    g = SLG({s: (a, b, a, b, a)}, s, table)
    out = make_admissible(g)
    assert is_admissible(out)
    assert len(out.rules) == 4 and out.size == 8 <= 2 * 5
    assert expand_text(out) == "ababa"


def test_make_admissible_rejects_short(table):
    a = table.terminal("a")
    s = table.nonterminal("S6")
    with pytest.raises(GrammarError, match="expansion too short"):
        make_admissible(SLG({s: (a,)}, s, table))


def test_make_admissible_does_not_depend_on_the_hash_seed():
    # Symbols hash their display strings, so set order changes between
    # processes; fresh names and rule order must not.
    src = os.path.dirname(os.path.dirname(slglab.__file__))
    code = (
        "import sys\n"
        "from slglab import deserialize, make_admissible, serialize\n"
        "from slglab.symbols import SymbolTable\n"
        "g = deserialize(sys.stdin.read(), SymbolTable())\n"
        "print(serialize(make_admissible(g)), end='')\n"
    )
    outs = []
    for seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             input="S -> A B c\nA -> a b a\nB -> A A\n",
                             capture_output=True, text=True)
        outs.append(run.stdout)
    assert outs[0] == outs[1]
    assert outs[0].startswith("S -> ")


def test_make_admissible_random(table):
    import math

    rng = random.Random(42)
    for _ in range(60):
        t = SymbolTable()
        g = random_slg(rng, rng.randint(1, 7), 3, t)
        out = make_admissible(g)
        assert is_admissible(out)
        assert expand(out, out.start) == expand(g, g.start)
        assert out.size <= 2 * g.size
        # total expansion grows by at most a log factor (pairing rounds)
        factor = 1 + math.ceil(math.log2(max(2, g.size)))
        assert stats(out).total_expansion <= factor * stats(g).total_expansion


@pytest.mark.parametrize("draw", [random_slg, random_admissible_slg])
def test_random_grammars_refuse_zero_nonterminals(draw):
    args = (2, SymbolTable()) if draw is random_slg else (2, 10, SymbolTable())
    with pytest.raises(ValueError, match="^need at least one nonterminal$"):
        draw(random.Random(1), 0, *args)


def test_isomorphic_rename(table, g0):
    a, b = table.terminal("a"), table.terminal("b")
    s, m = table.nonterminal("S7"), table.nonterminal("M7")
    other = SLG({s: (m, m), m: (a, b)}, s, table)
    assert is_isomorphic(g0, other)
    assert is_isomorphic(other, g0)

    swapped = SLG({s: (m, m), m: (b, a)}, s, table)
    assert not is_isomorphic(g0, swapped)


def test_isomorphic_needs_matching_shape(table):
    # equal expansions, different rule shapes
    a, b = table.terminal("a"), table.terminal("b")
    s1, a1 = table.nonterminal("I1"), table.nonterminal("I2")
    g1 = SLG({s1: (a1, b), a1: (a, a)}, s1, table)
    s2, b2 = table.nonterminal("I3"), table.nonterminal("I4")
    g2 = SLG({s2: (a, b2), b2: (a, b)}, s2, table)
    assert expand(g1, s1) == expand(g2, s2)
    assert not is_isomorphic(g1, g2)


def test_isomorphic_terminal_sets_must_agree(table):
    a, b, c = (table.terminal(x) for x in "abc")
    s1, s2 = table.nonterminal("J1"), table.nonterminal("J2")
    g1 = SLG({s1: (a, b)}, s1, table)
    g2 = SLG({s2: (a, c)}, s2, table)
    assert not is_isomorphic(g1, g2)


def test_isomorphic_is_equivalence_on_random_grammars():
    rng = random.Random(5)
    for _ in range(20):
        t = SymbolTable()
        g = random_slg(rng, rng.randint(1, 8), 3, t)
        assert is_isomorphic(g, g)  # reflexive, incl. with unreachable parts
    # symmetric + stats equality spot check
    rng = random.Random(6)
    t = SymbolTable()
    g = random_admissible_slg(rng, 6, 3, 200, t)
    h = deserialize(serialize(g).replace("G", "K"), t)
    assert is_isomorphic(g, h) and is_isomorphic(h, g)
    assert stats(g) == stats(h)
    assert expand(g, g.start) == expand(h, h.start)


_UNUSED = "S -> a b; X1 -> a b; X2 -> a b; "
_SHARED = "S -> a b; A -> a b; B -> a b; "


@pytest.mark.parametrize("first, second, same", [
    # Z uses one of two equal rules: X1 and X2 swap, or Z uses the start
    (_UNUSED + "Z -> X2 c", _UNUSED + "Z -> X1 c", True),
    (_UNUSED + "Z -> X2 c", _UNUSED + "Z -> S c", False),
    # roots share children with equal bodies: R2 and R3 swap, or A has
    # three users instead of two
    (_SHARED + "R1 -> A; R2 -> A; R3 -> B; R4 -> B",
     _SHARED + "R1 -> A; R2 -> B; R3 -> A; R4 -> B", True),
    (_SHARED + "R1 -> A; R2 -> A; R3 -> B; R4 -> B",
     _SHARED + "R1 -> A; R2 -> A; R3 -> A; R4 -> B", False),
], ids=["swapped", "start-used", "shared", "shared-uneven"])
def test_isomorphic_pairs_unused_rules(table, first, second, same):
    g1 = deserialize(first.replace("; ", "\n"), table)
    g2 = deserialize(second.replace("; ", "\n"), table)
    assert isomorphic_reference(g1, g2) == same
    assert is_isomorphic(g1, g2) == same and is_isomorphic(g2, g1) == same


def test_isomorphic_agrees_with_reference_on_renamed_random_grammars():
    rng = random.Random(1)
    for _ in range(300):
        t = SymbolTable()
        g = random_slg(rng, rng.randint(1, 6), 3, t)
        heads = list(g.rules)
        rng.shuffle(heads)
        new = {x: t.fresh_nonterminal("R") for x in heads}
        h = SLG({new[x]: tuple(new.get(s, s) for s in g.rules[x]) for x in heads},
                new[g.start], t)
        assert isomorphic_reference(g, h)
        assert is_isomorphic(g, h) and is_isomorphic(h, g)


# |V| from 1 to 200; odd draws get a cap near the median total expansion of
# their size, so some are redrawn, and even draws a cap that never binds.
_PINNED_SIZES = (1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12, 15, 18, 22, 27, 33, 40, 48,
                 58, 70, 84, 100, 115, 130, 145, 160, 170, 180, 190, 200)


def test_random_admissible_slg_draws_are_pinned():
    # The verify suites and the benchmark's inputs are these draws: a change
    # to the generator that alters a grammar, or the number of RNG calls a
    # draw makes, fails here.
    rng = random.Random(13)
    digest = hashlib.sha256()
    for i, nv in enumerate(_PINNED_SIZES):
        cap = max(260, 25 * nv) if i % 2 else 10**9
        g = random_admissible_slg(rng, nv, 1 + i % 4, cap, SymbolTable())
        assert len(g.rules) == nv and is_admissible(g)
        digest.update(serialize(g).encode())
        digest.update(repr(rng.random()).encode())
    assert digest.hexdigest() == (
        "314f66ab325d349ae0ea8da66fecc66b44f5efc3d55a756abe67892bab554a72"
    )


def test_random_admissible_slg_refuses_a_cap_below_two_per_nonterminal():
    # Every nonterminal expands to two symbols or more, so 200 of them never
    # fit under 260: the generator says so before its first draw.
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match=r"\|V\| = 200 .* cap 260"):
        random_admissible_slg(rng, 200, 4, 260, SymbolTable())
    assert rng.getstate() == state


def test_random_access_examples(table, g0):
    assert random_access(g0, 3).display == "a"
    assert random_access(g0, 1).display == "a"
    with pytest.raises(GrammarError, match="out of range"):
        random_access(g0, 5)


def test_random_access_agrees_with_expand():
    rng = random.Random(17)
    for _ in range(15):
        t = SymbolTable()
        g = random_admissible_slg(rng, rng.randint(1, 10), 4, 300, t)
        e = expand(g, g.start)
        assert stats(g).expansion_length == len(e)
        for i in range(1, len(e) + 1):
            assert random_access(g, i) == e[i - 1]


def test_is_dyadic(table, g0):
    assert is_dyadic(g0)
    a, b = table.terminal("a"), table.terminal("b")
    s, a1 = table.nonterminal("D1"), table.nonterminal("D2")
    lopsided = SLG({s: (a, a1), a1: (a, b)}, s, table)
    assert not is_dyadic(lopsided)  # left length 1 < right length 2
    s3 = table.nonterminal("D3")
    assert not is_dyadic(SLG({s3: (a, b, a)}, s3, table))  # not admissible


def test_dyadic_split_is_the_largest_power_of_two_below_the_length():
    for n in range(2, 5001):
        k = 1
        while k * 2 < n:
            k *= 2
        assert _dyadic_split(n) == k, n


def test_dyadic_draws_parses_and_verdicts_are_pinned():
    # Seeded `random_dyadic_slg` draws, the Bisection parse of each
    # expansion, and `is_dyadic` on both and on a random admissible grammar
    # (most of which are not dyadic): the three users of the dyadic split.
    rng = random.Random(71)
    digest = hashlib.sha256()
    verdicts = [0, 0]
    for _ in range(200):
        t = SymbolTable()
        g = random_dyadic_slg(rng, rng.randint(2, 300), rng.randint(1, 4), t)
        b = bisection(expand(g, g.start), t)
        r = random_admissible_slg(rng, rng.randint(1, 8), 3, 60, t)
        for x in (g, b, r):
            verdicts[is_dyadic(x)] += 1
            digest.update(f"{serialize(x)}{is_dyadic(x)}\n".encode())
    assert verdicts[0] > 100 and verdicts[1] > 400
    assert digest.hexdigest() == (
        "caa0c708256afaf765268b7d9867341fad92988364023e6079c7f5074712473e"
    )


def test_serialize_roundtrip(table, g0):
    text = serialize(g0)
    assert text == "S -> N1 N1\nN1 -> a b\n"
    again = deserialize(text, table)
    assert serialize(again) == text
    assert is_isomorphic(again, g0)


def test_serialize_sentinels_roundtrip(table):
    d3 = table.sentinel(SentinelFamily.DOLLAR, 3)
    a = table.terminal("a")
    s = table.nonterminal("Z1")
    g = SLG({s: (a, d3)}, s, table)
    text = serialize(g)
    assert "$_3" in text
    back = deserialize(text, table)
    assert back.rules[s] == (a, d3)


def test_only_canonical_sentinel_displays_name_sentinels(table):
    # $_01 used to name $_1 as well, and came back out as a second $_1.
    text = "S -> $_01 $_1 a\n"
    g = deserialize(text, table)
    assert serialize(g) == text
    assert len(set(g.rules[g.start])) == 3
    for fam in SentinelFamily:
        for i in (1, 9, 10, 999_999):
            assert parse_sentinel_display(fam.display(i)) == (fam, i)
        assert parse_sentinel_display(f"{fam.prefix}0") is None
        assert parse_sentinel_display(f"{fam.prefix}01") is None


def test_parse_errors(table):
    with pytest.raises(GrammarParseError, match="line 2.*duplicate"):
        deserialize("A -> a\nA -> b\n", table)
    with pytest.raises(GrammarParseError, match="cycle"):
        deserialize("A -> B\nB -> A\n", table)
    with pytest.raises(GrammarParseError, match="missing '->'"):
        deserialize("A a b\n", table)
    with pytest.raises(GrammarParseError, match="sentinel"):
        deserialize("#_1 -> a\n", table)


def test_comments_and_blank_lines(table):
    g = deserialize("# a comment\n\nQ9 -> a b\n", table)
    assert expand_text(g) == "ab"


def test_rhs_nonterminal_must_have_rule(table):
    a = table.terminal("a")
    s, ghost = table.nonterminal("W1"), table.nonterminal("W2")
    with pytest.raises(GrammarError, match="has no rule"):
        SLG({s: (a, ghost)}, s, table)


def test_symbols_must_come_from_the_grammar_table(table):
    other = SymbolTable()
    a_foreign = other.terminal("a")
    s = table.nonterminal("W3")
    with pytest.raises(GrammarError, match="not interned in this table"):
        SLG({s: (a_foreign, a_foreign)}, s, table)


def test_terminal_head_met_first_in_a_body_is_refused(table):
    # The walk meets `a` in W4's body before it reaches a's rule.
    a, b = table.terminal("a"), table.terminal("b")
    s = table.nonterminal("W4")
    with pytest.raises(GrammarError, match="rule head a is not a nonterminal"):
        SLG({s: (a, b), a: (b, b)}, s, table)


def test_foreign_symbol_in_an_unreachable_rule_is_refused(table):
    a = table.terminal("a")
    s, u = table.nonterminal("W5"), table.nonterminal("W6")
    c_foreign = SymbolTable().terminal("c")
    with pytest.raises(GrammarError, match="symbol c is not interned"):
        SLG({s: (a, a), u: (a, c_foreign)}, s, table)


def test_value_equal_symbol_of_another_table_is_refused():
    # Same names interned in the same order: equal by value, not the same
    # objects.  The owned `a` is met first, then its twin.
    t1, t2 = SymbolTable(), SymbolTable()
    a1, s1 = t1.terminal("a"), t1.nonterminal("S")
    a2, s2 = t2.terminal("a"), t2.nonterminal("S")
    assert (a1, s1) == (a2, s2) and a1 is not a2
    assert t1.owns(a1) and not t1.owns(a2)
    with pytest.raises(GrammarError, match="symbol a is not interned"):
        SLG({s1: (a1, a2)}, s1, t1)
    with pytest.raises(GrammarError, match="symbol S is not interned"):
        SLG({s2: (a1, a1)}, s1, t1)
    # `start in rules` holds by value; the start is still not t1's object
    with pytest.raises(GrammarError, match="^symbol S is not interned in this table$"):
        SLG({s1: (a1, a1)}, s2, t1)


@st.composite
def rule_maps(draw):
    """Rules over a table, mostly acyclic and closed, with terminal heads,
    missing rules, cycles and value-equal twins from another table mixed in
    now and then."""
    own, other = SymbolTable(), SymbolTable()
    names = ["a", "b", "N0", "N1", "N2", "N3", "N4"]
    mine = [own.terminal(x) if x.islower() else own.nonterminal(x) for x in names]
    twins = [other.terminal(x) if x.islower() else other.nonterminal(x) for x in names]
    rare = mine + twins
    heads = draw(st.lists(st.sampled_from(mine[2:] * 20 + rare),
                          min_size=1, max_size=5, unique_by=id))
    rules = {}
    for i, head in enumerate(heads):
        later = mine[:2] + heads[i + 1:]  # no cycle through these
        body = draw(st.lists(st.sampled_from(later * 20 + rare), max_size=4))
        rules[head] = tuple(body)
    order = draw(st.permutations(list(rules.items())))
    return dict(order), draw(st.sampled_from(heads * 20 + rare)), own


@PROPERTY
@given(rule_maps())
def test_walk_matches_reference(case):
    rules, start, table = case
    want = slg_order_reference(rules, start, table)
    if want is None:
        with pytest.raises(GrammarError):
            SLG(rules, start, table)
    else:
        assert SLG(rules, start, table).topological() == want


def test_chars_interns_in_order_of_first_appearance():
    t = SymbolTable()
    b, a, a2, b2 = t.chars("baab")
    assert (a, b) == (a2, b2) and a is a2 and b is b2
    assert interned(t) == [(0, "terminal", "b"), (1, "terminal", "a")]
    with pytest.raises(SymbolError, match="bad symbol display ' '"):
        t.chars("a b")


def test_expansion_length_overflow_is_an_error(table):
    a = table.terminal("a")
    heads = [table.nonterminal(f"O{i}") for i in range(66)]
    rules = {heads[0]: (a, a)}
    for i in range(1, 66):
        rules[heads[i]] = (heads[i - 1], heads[i - 1])
    g = SLG(rules, heads[65], table)
    with pytest.raises(OverflowError, match="64-bit"):
        stats(g)


def _total_past_64_bits(t):
    """Every expansion fits in 63 bits, their sum does not: O_k doubles
    O_(k-1) up to 2^62 symbols, and the start adds 2^62 + 1 more."""
    a = t.terminal("a")
    heads = [t.nonterminal(f"O{i}") for i in range(62)]
    rules = {heads[0]: (a, a)}
    for i in range(1, 62):
        rules[heads[i]] = (heads[i - 1], heads[i - 1])
    rules[t.nonterminal("S")] = (heads[61], a)
    return SLG(rules, t.nonterminal("S"), t)


def _serialized_with_head(t, display):
    """`serialize` of `S -> H a` and `H -> a b`, with H displayed `display`."""
    a, b, h, s = t.terminal("a"), t.terminal("b"), t.nonterminal(display), t.nonterminal("S")
    return serialize(SLG({s: (h, a), h: (a, b)}, s, t))


@pytest.mark.parametrize("call, error, message", [
    (lambda t: stats(_total_past_64_bits(t)), OverflowError, "total expansion exceeds 64-bit range"),
    (lambda t: deserialize("S -> a\n -> a b\n", t), GrammarParseError, "line 2: empty rule head"),
    (lambda t: deserialize("# nothing\n\n", t), GrammarParseError, "line 1: no rules"),
    (lambda t: (t.nonterminal("x"), deserialize("S -> x y\n", t)), GrammarParseError,
     "line 1: symbol 'x' already interned as nonterminal"),
    # `X->Y -> a b` would read back as the head X, and `# -> a b` as a comment
    (lambda t: _serialized_with_head(t, "X->Y"), GrammarError,
     "rule head X->Y has no text form that reads back"),
    (lambda t: _serialized_with_head(t, "#"), GrammarError,
     "rule head # has no text form that reads back"),
    (lambda t: (t.terminal("S"), deserialize("S -> a", t)), GrammarParseError,
     "line 1: symbol 'S' already interned as terminal"),
], ids=["total-overflow", "empty-head", "no-rules", "kind-clash", "arrow-head", "comment-head",
        "head-kind-clash"])
def test_core_refusals(table, call, error, message):
    with pytest.raises(error) as e:
        call(table)
    assert type(e.value) is error and str(e.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda t: t.nonterminal("$_1"), "sentinel '$_1' cannot be a nonterminal"),
    (lambda t: (t.terminal("x"), t.nonterminal("x")), "symbol 'x' already interned as terminal"),
    (lambda t: t.sentinel(SentinelFamily.HASH, 0), "sentinel index 0 out of range"),
    (lambda t: t.sentinel(SentinelFamily.HASH, 10**6), "sentinel index 1000000 out of range"),
    (lambda t: t.fresh_nonterminal("a b"), "bad symbol display 'a b1'"),
    (lambda t: t.fresh_nonterminal("$_"), "sentinel '$_1' cannot be a nonterminal"),
    (lambda t: (t.terminal("#_1"), t.terminal("#_11"), t.fresh_nonterminal("#_1")),
     "sentinel '#_12' cannot be a nonterminal"),
], ids=["sentinel-nonterminal", "kind-clash", "index-0", "index-past-span",
        "fresh-whitespace", "fresh-sentinel", "fresh-sentinel-past-taken"])
def test_symbol_table_refusals(table, call, message):
    with pytest.raises(SymbolError) as e:
        call(table)
    assert type(e.value) is SymbolError and str(e.value) == message


# Every code point for which `str.isspace()` is true, tab through U+3000.
_SPACES = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680" + "".join(
    map(chr, [*range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000])
)


def test_display_whitespace_rule_on_every_space():
    assert len(_SPACES) == 29 and all(ch.isspace() for ch in _SPACES)
    for ch in _SPACES:
        t = SymbolTable()
        for call, arg, display in [(t.terminal, f"a{ch}", f"a{ch}"),
                                   (t.nonterminal, f"{ch}b", f"{ch}b"),
                                   (t.fresh_nonterminal, f"a{ch}b", f"a{ch}b1")]:
            with pytest.raises(SymbolError) as e:
                call(arg)
            assert type(e.value) is SymbolError
            assert str(e.value) == f"bad symbol display {display!r}"
        assert interned(t) == []
    # zero-width space, byte order mark and soft hyphen are not spaces
    t = SymbolTable()
    for ch in "\u200b\ufeff\xad":
        assert t.terminal(f"a{ch}").display == f"a{ch}"
        assert t.nonterminal(f"N{ch}").display == f"N{ch}"
        assert t.fresh_nonterminal(f"F{ch}").display == f"F{ch}1"


def test_fresh_nonterminal_matches_interning_the_first_free_name():
    # Minted names skip every name already interned, of either kind, and
    # take the ids `nonterminal` would give them.
    rng = random.Random(281)
    for _ in range(40):
        fresh, ref = SymbolTable(), SymbolTable()
        counters = {}
        for _ in range(60):
            prefix = rng.choice(["N", "R", "S1", ""])
            if rng.random() < 0.3:
                name = f"{prefix}{rng.randint(1, 12)}"
                intern = rng.choice([SymbolTable.terminal, SymbolTable.nonterminal])
                try:
                    got = intern(fresh, name)
                except SymbolError as e:
                    with pytest.raises(SymbolError, match=re.escape(str(e))):
                        intern(ref, name)
                    continue
                assert got == intern(ref, name)
                continue
            n = counters.get(prefix, 0) + 1
            while ref.get(f"{prefix}{n}") is not None:
                n += 1
            counters[prefix] = n
            assert fresh.fresh_nonterminal(prefix) == ref.nonterminal(f"{prefix}{n}")
        assert interned(fresh) == interned(ref)


class _LowestRandom(random.Random):
    """Every `randint` draw is its lower bound."""

    def randint(self, a, b):
        return a


@pytest.mark.parametrize("call, message", [
    (lambda t: terminal_alphabet(t, 0), "alphabet size out of range"),
    (lambda t: terminal_alphabet(t, 17), "alphabet size out of range"),
    (lambda t: random_dyadic_slg(random.Random(1), 1, 2, t), "length must be at least 2"),
    # every body has one symbol, so one nonterminal never expands to two
    (lambda t: random_slg(_LowestRandom(1), 1, 2, t),
     "could not draw a grammar with |V| = 1 and expansion >= 2"),
], ids=["alphabet-0", "alphabet-17", "dyadic-length-1", "no-long-draw"])
def test_generator_refusals(table, call, message):
    with pytest.raises(ValueError) as e:
        call(table)
    assert type(e.value) is ValueError and str(e.value) == message


def test_empty_body_rules_roundtrip_and_convert(table):
    # grammars with an empty-expanding helper (the trie encoder emits one)
    from slglab import lz78

    fact, g = lz78("0111", table)
    assert any(len(body) == 0 for body in g.rules.values())
    text = serialize(g)
    back = deserialize(text, table)
    assert serialize(back) == text
    conv = make_admissible(g)
    assert is_admissible(conv)
    assert expand_text(conv) == "0111"
    assert conv.size <= 2 * g.size
