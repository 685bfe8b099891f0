"""CFG membership against a derivation-search oracle, the three primitive
transformations on exhaustive string sets, and end-to-end re-targeting."""
import dataclasses
import random
import re

import pytest

import slglab.cfg
from slglab import (
    CFG,
    CfgError,
    add_prefix,
    alpha,
    beta,
    cyk_member,
    erase_closure,
    expand,
    gamma_prime_alpha,
    gamma_prime_beta,
    interleave,
    language_upto,
    parse_cfg,
    serialize_cfg,
)
from slglab.boost import alpha_sentinel_counts, beta_sentinel_counts
from slglab.cfg import DEFAULT_CYK_CAP, _compile
from slglab.generate import random_admissible_slg
from slglab.symbols import SentinelFamily, SymbolTable
from slglab.verify import suite_cfg

from conftest import all_strings_upto, cfg_language_upto, cyk_member_table


def _cfg(table, text):
    return parse_cfg(text, table)


def _start_rule(t, body="a"):
    return (t.nonterminal("S"), tuple(map(t.terminal, body)))


@pytest.mark.parametrize("call, message", [
    (lambda t: CFG((_start_rule(t),), t.terminal("a")), "start symbol must be a nonterminal"),
    (lambda t: CFG((_start_rule(t),), t.nonterminal("T")), "start symbol has no rule"),
    (lambda t: CFG((_start_rule(t), (t.terminal("a"), ())), t.nonterminal("S")),
     "rule head a is not a nonterminal"),
    (lambda t: CFG(((t.nonterminal("S"), (t.nonterminal("T"),)),), t.nonterminal("S")),
     "nonterminal T has no rule"),
    (lambda t: parse_cfg("S a b\n", t), "line 1: missing '->'"),
    (lambda t: parse_cfg("# heads\nS T -> a\n", t), "line 2: bad head 'S T'"),
    (lambda t: parse_cfg("# nothing\n", t), "no rules"),
    (lambda t: interleave(parse_cfg("S -> a", t), 0, -1, t), "sentinel budget must be nonnegative"),
    (lambda t: erase_closure(parse_cfg("S -> a $_1", t), [t.sentinel(SentinelFamily.DOLLAR, 1)], t),
     "sentinel set overlaps the grammar alphabet"),
    (lambda t: (t.terminal("S"), parse_cfg("S -> a", t)),
     "line 1: symbol 'S' already interned as terminal"),
    (lambda t: (t.nonterminal("x"), parse_cfg("S -> T\nT -> a | x", t)),
     "line 2: symbol 'x' already interned as nonterminal"),
    (lambda t: parse_cfg("S -> a\n$_1 -> b", t), "line 2: sentinel '$_1' cannot be a nonterminal"),
], ids=["start-terminal", "start-no-rule", "terminal-head", "body-no-rule", "no-arrow",
        "bad-head", "no-rules", "negative-budget", "erase-overlap", "head-kind-clash",
        "token-kind-clash", "sentinel-head"])
def test_cfg_refusals(table, call, message):
    with pytest.raises(CfgError) as e:
        call(table)
    assert type(e.value) is CfgError and str(e.value) == message


def test_cyk_basics(table):
    g = _cfg(table, "S -> A B\nA -> a\nB -> b\n")
    a, b = table.terminal("a"), table.terminal("b")
    assert cyk_member(g, (a, b))
    assert not cyk_member(g, (b, a))
    assert not cyk_member(g, ())


def test_cyk_epsilon_language(table):
    g = _cfg(table, "S -> _ | a S\n")
    a = table.terminal("a")
    assert cyk_member(g, ())
    assert cyk_member(g, (a, a, a))


def test_cyk_empty_and_dead_starts(table):
    # nullable start whose only other body never terminates
    g = _cfg(table, "S -> _ | A\nA -> A a\n")
    a = table.terminal("a")
    assert cyk_member(g, ())
    assert not cyk_member(g, (a,))
    # a start with no nonempty rule keeps no index in the normal form
    eps = _cfg(table, "E -> _\nB -> a\n")
    assert _compile(eps).start is None
    assert cyk_member(eps, ()) and cyk_member_table(eps, ())
    assert not cyk_member(eps, (a,)) and not cyk_member_table(eps, (a,))
    # a start that derives nothing at all
    dead = _cfg(table, "T -> T a | a T\n")
    for w in ((), (a,), (a, a), (a,) * 7):
        assert not cyk_member(dead, w)
        assert not cyk_member_table(dead, w)


def test_cyk_rejects_foreign_symbols(table):
    g = _cfg(table, "S -> a\n")
    z = table.terminal("z")
    with pytest.raises(CfgError, match="^symbol z not in the terminal set$"):
        cyk_member(g, (z,))
    # a nonterminal of the grammar is not a terminal either
    with pytest.raises(CfgError, match="^symbol S not in the terminal set$"):
        cyk_member(g, (table.terminal("a"), g.start))


def test_cyk_length_cap(table):
    g = _cfg(table, "S -> a\n")
    a = table.terminal("a")
    with pytest.raises(CfgError, match="^input length 10 exceeds the cap 5$"):
        cyk_member(g, (a,) * 10, length_cap=5)
    assert not cyk_member(g, (a,) * 5, length_cap=5)


def test_cyk_compiles_once_per_grammar(table, monkeypatch):
    g = _cfg(table, "S -> A B | _\nA -> a | a A\nB -> b\n")
    a, b = table.terminal("a"), table.terminal("b")
    calls = []

    def counted(grammar):
        calls.append(grammar)
        return _compile(grammar)

    monkeypatch.setattr(slglab.cfg, "_compile", counted)
    for w in ((), (a, b), (a, a, b), (b, a)):
        cyk_member(g, w)
    language_upto(g, (a, b), 4)
    assert calls == [g]
    comp = g._compiled
    assert [f.name for f in dataclasses.fields(g)] == ["rules", "start"]
    m = len(comp.binary_left)
    assert 0 <= comp.start < m
    heads = [h for hs in comp.unary.values() for h in hs]
    pairs = [x for rules in comp.binary_left for pair in rules for x in pair]
    assert all(0 <= x < m for x in heads + pairs)


def _ids(words):
    return {tuple(s.id for s in w) for w in words}


def test_language_upto_edges(table):
    a, b, z = (table.terminal(c) for c in "abz")
    # a nullable start yields the empty word, as id tuples throughout
    g = _cfg(table, "S -> _ | a S b\n")
    assert language_upto(g, (a, b), 4) == _ids([(), (a, b), (a, a, b, b)])
    assert language_upto(g, (a, b), 0) == {()}
    # a dead start yields nothing; a start whose one rule is epsilon yields
    # the empty word alone
    dead = _cfg(table, "T -> T a | a T\n")
    assert language_upto(dead, (a,), 5) == set()
    eps = _cfg(table, "E -> _\nB -> a\n")
    assert language_upto(eps, (a,), 3) == {()}
    # a letter outside the grammar's terminals occurs in no word, as in
    # verify's recogniser, where cyk_member would refuse it
    star = _cfg(table, "A -> _ | a A\n")
    assert language_upto(star, (a, z), 3) == _ids([(), (a,), (a, a), (a, a, a)])
    assert language_upto(star, (z,), 3) == {()}
    one = _cfg(table, "C -> a\n")
    assert language_upto(one, (a,), 0) == set()
    # the length cap is cyk_member's, with its message
    over = DEFAULT_CYK_CAP + 1
    message = f"^input length {over} exceeds the cap {DEFAULT_CYK_CAP}$"
    with pytest.raises(CfgError, match=message):
        language_upto(star, (a,), over)
    with pytest.raises(CfgError, match=message):
        cyk_member(star, (a,) * over)
    # one letter: a walk as deep as the cap needs no recursion
    assert language_upto(one, (a,), DEFAULT_CYK_CAP) == _ids([(a,)])
    # a negative bound is refused, though the start is nullable: the empty
    # word is longer than it
    for bound in (-1, -5):
        with pytest.raises(CfgError, match="^word length bound must be nonnegative$"):
            language_upto(_cfg(table, "S -> a S | _\n"), (a,), bound)


def test_cyk_on_a_head_that_derives_every_span(table):
    # A and its helper derive spans of every suffix but are the left side of
    # no binary rule, so their bits make no work items; with one item per
    # bit, 4,000 symbols took seconds.
    g = _cfg(table, "A -> _ | a a A\n")
    a = table.terminal("a")
    assert cyk_member(g, (a,) * 4000)
    assert not cyk_member(g, (a,) * 3999)
    words = language_upto(g, (a,), 30)
    assert words == {(a.id,) * k for k in range(0, 31, 2)}
    assert all(cyk_member(g, (a,) * k) == ((a.id,) * k in words) for k in range(31))


def test_2nf_has_nodes_only_on_binary_sides_and_no_repeated_entries(table):
    # N mirrors erase_closure's ND: d occurs only in the unit body N -> d,
    # and b only in B -> b, so neither needs a node of its own.  T stands
    # for S, so S -> A B and T -> A B both give (B, S) under A.
    g = _cfg(table, "S -> A B | T\nT -> A B\nA -> a N\nN -> N N | _ | d\nB -> b\n")
    a, b, d = (table.terminal(c) for c in "abd")
    comp = _compile(g)
    assert len(comp.binary_left) == 6  # S, T, A, N, B and a
    assert len(comp.unary[d.id]) == 1  # N alone
    assert len(comp.unary[b.id]) == 1  # B alone
    assert len(comp.unary[a.id]) == 2  # a and A
    for row in comp.binary_left:
        assert len(set(row)) == len(row)
    # the language is a d* b
    for w, member in (((a, b), True), ((a, d, d, b), True), ((a, d), False),
                      ((d,), False), ((b,), False), ((a, b, b), False)):
        assert cyk_member(g, w) == cyk_member_table(g, w) == member


def test_cfg_text_roundtrip(table):
    text = "S -> A B | _\nA -> a | a A\nB -> b\n"
    g = _cfg(table, text)
    assert serialize_cfg(parse_cfg(serialize_cfg(g), table)) == serialize_cfg(g)


@pytest.mark.parametrize(
    "display, as_head",
    [("_", False), ("a|b", False), ("x->y", True), ("#", True)],
    ids=["epsilon", "alternatives", "arrow-head", "comment-head"],
)
def test_serialize_cfg_refuses_symbols_that_do_not_read_back(table, display, as_head):
    """`_` would read back as epsilon, `a|b` as two alternatives, a head
    `x->y` as the head `x`, and the line `# -> a` as a comment."""
    a = table.terminal("a")
    if as_head:
        head = table.nonterminal(display)
        g = CFG(((head, (a,)),), head)
    else:
        head = table.nonterminal("S")
        g = CFG(((head, (a, table.terminal(display))),), head)
    with pytest.raises(CfgError, match=f"^symbol {re.escape(display)} has no text form"):
        serialize_cfg(g)


def _random_cfg(rng, table, terminals, eps_bodies=1, cyclic=False, max_body=3):
    """Up to `eps_bodies` epsilon bodies; a body names only its own head and
    later nonterminals unless `cyclic`, so unit cycles need `cyclic`."""
    nts = [table.fresh_nonterminal("C") for _ in range(rng.randint(1, 3))]
    rules = []
    for i, head in enumerate(nts):
        for _ in range(rng.randint(1, 3)):
            ln = rng.randint(0 if eps_bodies else 1, max_body)
            if ln == 0:
                eps_bodies -= 1
            pool = list(terminals) + (nts if cyclic else nts[i:])
            rules.append((head, tuple(rng.choice(pool) for _ in range(ln))))
    rules.append((nts[-1], (rng.choice(list(terminals)),)))
    return CFG(tuple(rules), nts[0])


def _shapes(g):
    """Tags for the rule shapes in `g` that a normal form must handle:
    body lengths other than 1, "unit", "epsilons" (two or more epsilon
    bodies), "unit cycle" (through two or more nonterminals) and "nullable
    pair" (a two-symbol body with a nullable side)."""
    shapes = {len(body) for _, body in g.rules if len(body) != 1}
    if sum(1 for _, body in g.rules if not body) > 1:
        shapes.add("epsilons")
    units: dict = {}
    for head, body in g.rules:
        if len(body) == 1 and body[0].is_nonterminal():
            shapes.add("unit")
            if body[0] != head:
                units.setdefault(head, set()).add(body[0])
    for origin, targets in units.items():
        seen, stack = set(), list(targets)
        while stack:
            x = stack.pop()
            if x == origin:
                shapes.add("unit cycle")
            elif x not in seen:
                seen.add(x)
                stack.extend(units.get(x, ()))
    nullable: set = set()
    grew = True
    while grew:
        grew = False
        for head, body in g.rules:
            if head not in nullable and all(s in nullable for s in body):
                nullable.add(head)
                grew = True
    if any(len(body) == 2 and nullable & set(body) for _, body in g.rules):
        shapes.add("nullable pair")
    return shapes


@pytest.mark.parametrize(
    "grammars, max_len, setting, min_checked, must_occur",
    [
        (100, 6, {}, 5000, {0, "unit", 3}),
        (
            150, 5, {"eps_bodies": 3, "cyclic": True, "max_body": 2}, 6000,
            {"epsilons", "unit cycle", "nullable pair"},
        ),
        (
            150, 6, {"eps_bodies": 3, "cyclic": True, "max_body": 3}, 14000,
            {"epsilons", "unit cycle", "nullable pair", 3},
        ),
    ],
    ids=["one-epsilon", "nullable-cycles", "nullable-cycles-triples"],
)
def test_cyk_agrees_with_derivation_search(grammars, max_len, setting, min_checked, must_occur):
    """The recogniser, the table CYK and the language by length agree on
    every string up to `max_len`.  The first setting has at most one
    epsilon body per grammar, unit rules and bodies of length 3; the second
    has several epsilon bodies, unit cycles and pairs with a nullable side;
    the third adds bodies of length 3 to the second."""
    rng = random.Random(89)
    checked = 0
    shapes = set()
    for _ in range(grammars):
        t = SymbolTable()
        terminals = [t.terminal(c) for c in "ab"]
        g = _random_cfg(rng, t, terminals, **setting)
        shapes |= _shapes(g)
        used = sorted(g.terminals(), key=lambda s: s.id)
        members = cfg_language_upto(g, max_len)
        for w in all_strings_upto(used, max_len):
            assert cyk_member(g, w) == cyk_member_table(g, w) == (w in members)
            checked += 1
        assert language_upto(g, used, max_len) == _ids(members)
    assert checked > min_checked
    assert must_occur <= shapes


def test_interleave_examples(table):
    g = _cfg(table, "S -> a\n")
    a = table.terminal("a")
    d1 = table.sentinel(SentinelFamily.DOLLAR, 1)
    out = interleave(g, 1, 0, table)
    assert cyk_member(out, (a, d1))
    assert cyk_member(out, (a, a))
    assert not cyk_member(out, (d1, a))
    assert not cyk_member(out, ())
    # measured size: doubled terminal occurrences plus the wildcard rules
    assert out.size == 2 * g.size + 2


def test_interleave_rejects_overlap(table):
    d1 = table.sentinel(SentinelFamily.DOLLAR, 1)
    head = table.nonterminal("OV")
    g = CFG(((head, (d1,)),), head)
    with pytest.raises(CfgError, match="overlap"):
        interleave(g, 1, 0, table)


def test_interleave_language_equation_exhaustive(table):
    g = _cfg(table, "T0 -> a b | b T0 c | U0\nU0 -> a | U0 c\n")
    a, b, c = (table.terminal(x) for x in "abc")
    d1 = table.sentinel(SentinelFamily.DOLLAR, 1)
    out = interleave(g, 1, 0, table)
    plain = (a, b, c)
    for w in all_strings_upto((a, b, c, d1), 6):
        odd = w[0::2]
        want = (
            len(w) % 2 == 0
            and len(w) > 0
            and all(x in plain for x in odd)
            and cyk_member(g, odd)
        )
        assert cyk_member(out, w) == want


def test_add_prefix_examples(table):
    g = _cfg(table, "S -> a\n")
    a, b = table.terminal("a"), table.terminal("b")
    out = add_prefix(g, 2, (a, b), table)
    assert cyk_member(out, (b, b, a))
    assert not cyk_member(out, (b, a))
    assert not cyk_member(out, (a, a, b))
    with pytest.raises(CfgError, match="at least 1"):
        add_prefix(g, 0, (a, b), table)


def test_add_prefix_binary_decomposition(table):
    g = _cfg(table, "S -> a\n")
    a, b = table.terminal("a"), table.terminal("b")
    out = add_prefix(g, 5, (a, b), table)
    start_bodies = [body for head, body in out.rules if head == out.start]
    assert len(start_bodies) == 1
    body = start_bodies[0]
    # 5 = 1 + 4 : doubling-chain entries X0 and X2 precede the old start
    assert len(body) == 3
    assert body[0].display.startswith("X") and body[1].display.startswith("X")
    for w in all_strings_upto((a, b), 6):
        want = len(w) == 6 and w[5] == a
        assert cyk_member(out, w) == want


def test_add_prefix_language_equation_exhaustive(table):
    g = _cfg(table, "V0 -> a b | b V0 c | a\n")
    a, b, c = (table.terminal(x) for x in "abc")
    out = add_prefix(g, 2, (a, b, c), table)
    for w in all_strings_upto((a, b, c), 6):
        want = len(w) >= 2 and cyk_member(g, w[2:])
        assert cyk_member(out, w) == want


def test_erase_closure_examples(table):
    g = _cfg(table, "S -> a b\n")
    a, b = table.terminal("a"), table.terminal("b")
    d1 = table.sentinel(SentinelFamily.DOLLAR, 1)
    d2 = table.sentinel(SentinelFamily.DOLLAR, 2)
    out = erase_closure(g, [d1, d2], table)
    assert cyk_member(out, (d1, a, d1, d1, b))
    assert cyk_member(out, (a, b))
    assert not cyk_member(out, (b, a, d1))


def test_erase_closure_language_equation_exhaustive(table):
    g = _cfg(table, "W0 -> a b | b W0 c | b\n")
    a, b, c = (table.terminal(x) for x in "abc")
    d1 = table.sentinel(SentinelFamily.DOLLAR, 1)
    out = erase_closure(g, [d1], table)
    for w in all_strings_upto((a, b, c, d1), 6):
        erased = tuple(x for x in w if x != d1)
        assert cyk_member(out, w) == cyk_member(g, erased)


def _exact_cfg(table, u):
    head = table.fresh_nonterminal("C")
    return CFG(((head, tuple(u)),), head)


def test_retarget_alpha_g0(table, g0):
    u = expand(g0, g0.start)
    w = alpha(g0).text
    nv, k = alpha_sentinel_counts(g0)
    assert (nv, k) == (2, 24 - 8)
    yes = gamma_prime_alpha(_exact_cfg(table, u), g0)
    assert cyk_member(yes, w)
    other = _exact_cfg(table, (u[0], u[0], u[2], u[1]))  # abba-like
    no = gamma_prime_alpha(other, g0)
    assert not cyk_member(no, w)


def test_retarget_beta_g0(table, g0):
    u = expand(g0, g0.start)
    w = beta(g0).text
    nv, k = beta_sentinel_counts(g0)
    assert k == 28 - 12 + 2
    yes = gamma_prime_beta(_exact_cfg(table, u), g0)
    assert cyk_member(yes, w)
    empty = CFG(((table.nonterminal("NEV"), (table.terminal("z"),)),),
                table.nonterminal("NEV"))
    # a grammar accepting nothing of the right shape keeps rejecting
    no = gamma_prime_beta(_exact_cfg(table, tuple(reversed(u))), g0)
    assert not cyk_member(no, w) or u == tuple(reversed(u))


def test_cyk_matches_table_on_boosted_strings():
    """Re-targeted CFGs on alpha and beta strings of 100 to 220 symbols,
    for the exact source CFG (accepted) and a one-symbol mutant (rejected)."""
    rng = random.Random(211)
    done = 0
    while done < 2:
        t = SymbolTable()
        g = random_admissible_slg(rng, rng.randint(3, 6), 2, 60, t)
        wa, wb = alpha(g).text, beta(g).text
        if not (100 <= len(wa) <= 220 and 100 <= len(wb) <= 220):
            continue
        done += 1
        u = expand(g, g.start)
        mutant = list(u)
        i = rng.randrange(len(u))
        mutant[i] = next(x for x in sorted(g.terminals(), key=lambda s: s.id) if x != u[i])
        for source, want in ((u, True), (mutant, False)):
            cfg_in = _exact_cfg(t, source)
            for retarget, w in ((gamma_prime_alpha, wa), (gamma_prime_beta, wb)):
                out = retarget(cfg_in, g)
                assert cyk_member(out, w) == cyk_member_table(out, w) == want


def test_retarget_iff_random():
    rng = random.Random(97)
    for trial in range(12):
        t = SymbolTable()
        g = random_admissible_slg(rng, rng.randint(1, 4), 2, 36, t)
        u = expand(g, g.start)
        terminals = sorted(g.terminals(), key=lambda s: s.id)
        if trial % 2 == 0:
            cfg_in = _exact_cfg(t, u)
        else:
            cfg_in = _random_cfg(rng, t, terminals)
        want = all(x in cfg_in.terminals() for x in u) and cyk_member(cfg_in, u)
        wa = alpha(g).text
        assert cyk_member(gamma_prime_alpha(cfg_in, g), wa) == want
        wb = beta(g).text
        assert cyk_member(gamma_prime_beta(cfg_in, g), wb) == want


def test_size_envelope():
    rng = random.Random(101)
    import math

    for _ in range(20):
        t = SymbolTable()
        g = random_admissible_slg(rng, rng.randint(1, 4), 2, 36, t)
        terminals = sorted(g.terminals(), key=lambda s: s.id)
        cfg_in = _random_cfg(rng, t, terminals)
        nv, ka = alpha_sentinel_counts(g)
        sigma2 = len(terminals) + 3 * nv
        out = gamma_prime_alpha(cfg_in, g)
        assert out.size <= 3 * cfg_in.size + 2 * sigma2 + 2 * math.log2(ka) + 16
        nv, kb = beta_sentinel_counts(g)
        sigma1 = len(terminals) + 2 * nv
        out = gamma_prime_beta(cfg_in, g)
        assert out.size <= 3 * cfg_in.size + 2 * sigma1 + 2 * math.log2(kb) + 16


_EQUATIONS = {
    "interleave": "interleave-language-equation",
    "add_prefix": "add-prefix-language-equation",
    "erase_closure": "erase-closure-language-equation",
}


def _without_first_wildcard(real):
    """`interleave` that leaves out the wildcard after one terminal: the
    first terminal of the first rule that holds one."""
    def broken(g, dollars, hashes, table):
        out = real(g, dollars, hashes, table)
        rules = list(out.rules)
        k, j = next((k, j) for k, (_, body) in enumerate(rules)
                    for j, x in enumerate(body) if x.is_terminal())
        head, body = rules[k]
        rules[k] = (head, body[: j + 1] + body[j + 2:])
        return CFG(tuple(rules), out.start)
    return broken


# Each broken variant, by case, names the rewrite it replaces and wraps the
# real one: no `$` sentinels, one prefix letter too many, no sentinels to
# erase (the real rules without `ND -> $_1`), one wildcard left out.
_BROKEN = {
    "interleave": ("interleave", lambda real: lambda g, dollars, hashes, table:
                   real(g, 0, hashes, table)),
    "add_prefix": ("add_prefix", lambda real: lambda g, k, alphabet, table:
                   real(g, k + 1, alphabet, table)),
    "erase_closure": ("erase_closure", lambda real: lambda g, sentinels, table:
                      real(g, [], table)),
    "interleave-one-wildcard": ("interleave", _without_first_wildcard),
}


@pytest.mark.parametrize("case", list(_BROKEN))
def test_cfg_suite_catches_broken_rewrites(monkeypatch, case):
    # The exhaustive equations of `verify --suite cfg` fail exactly on the
    # broken rewrite, so the set lookups behind them do not pass vacuously.
    # The re-targeting verdicts use the rewrites too, so they are not
    # checked here.
    name, breaker = _BROKEN[case]
    monkeypatch.setattr(slglab.cfg, name, breaker(getattr(slglab.cfg, name)))
    verdicts = {v.check: v.ok for v in suite_cfg(0, 1, 4)
                if v.check in _EQUATIONS.values()}
    assert verdicts == {check: fn != name for fn, check in _EQUATIONS.items()}
