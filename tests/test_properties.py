"""Property tests: text-format round trips of grammars, CFGs and matched
alphabets, the laws of `make_admissible` and `is_isomorphic`, the start's
place at the end of the canonical order, and the global compressors,
Sequential and Sequitur against their references.  Examples are
derandomized and no example database is kept, so every run draws the same
cases (`PROPERTY` in `conftest.py`)."""
from hypothesis import given
from hypothesis import strategies as st

from slglab import (
    SLG,
    GlobalStrategy,
    canonical_order,
    deserialize,
    expand,
    is_admissible,
    is_isomorphic,
    make_admissible,
    run_global,
    sequential,
    sequitur,
    serialize,
)
from slglab.cfg import CFG, parse_cfg, serialize_cfg
from slglab.rna import MatchedAlphabet, parse_matched_alphabet
from slglab.symbols import SymbolTable

from conftest import (
    PROPERTY,
    interned,
    isomorphic_reference,
    run_global_reference,
    sequential_reference,
    sequitur_reference,
)

_LETTERS = ["a", "b", "c", "x1", "$_1", "#'R_2"]


@st.composite
def grammars(draw):
    """An SLG over a fresh table: head i's body draws from the letters and
    the heads before it, and the last head is the start."""
    table = SymbolTable()
    letters = [table.terminal(x) for x in draw(st.lists(
        st.sampled_from(_LETTERS), min_size=1, max_size=4, unique=True))]
    heads = [table.nonterminal(f"N{i}") for i in range(draw(st.integers(1, 6)))]
    rules = {}
    for i, head in enumerate(heads):
        pool = letters + heads[:i]
        rules[head] = tuple(draw(st.lists(st.sampled_from(pool), max_size=4)))
    return SLG(rules, heads[-1], table)


@st.composite
def cfgs(draw):
    """A CFG over a fresh table with one to three alternatives per head,
    among them epsilon bodies and unit rules; the first head is the start."""
    table = SymbolTable()
    letters = [table.terminal(x) for x in _LETTERS]
    heads = [table.nonterminal(f"N{i}") for i in range(draw(st.integers(1, 4)))]
    body = st.one_of(
        st.just(()),
        st.tuples(st.sampled_from(heads)),
        st.lists(st.sampled_from(letters + heads), min_size=1, max_size=4).map(tuple),
    )
    rules = [(head, b) for head in heads
             for b in draw(st.lists(body, min_size=1, max_size=3))]
    return CFG(tuple(draw(st.permutations(rules))), heads[0])


@st.composite
def matched_alphabets(draw):
    table = SymbolTable()
    names = draw(st.lists(
        st.text("abxyz'", min_size=1, max_size=3), min_size=2, max_size=8, unique=True))
    names = names[: len(names) // 2 * 2]
    symbols, match, weight = [], {}, {}
    for a, b in zip(names[::2], names[1::2]):
        sa, sb = table.terminal(a), table.terminal(b)
        symbols += [sa, sb]
        match[sa], match[sb] = sb, sa
        weight[sa] = weight[sb] = draw(st.integers(0, 9))
    return MatchedAlphabet(tuple(symbols), match, weight)


def _text(g: SLG):
    return [s.display for s in expand(g, g.start)]


def _displays(a: MatchedAlphabet):
    return (
        [s.display for s in a.symbols],
        {s.display: a.match[s].display for s in a.symbols},
        {s.display: a.weight[s] for s in a.symbols},
    )


@PROPERTY
@given(grammars())
def test_grammar_text_round_trip(g):
    text = serialize(g)
    back = deserialize(text, SymbolTable())
    assert serialize(back) == text
    assert back.start.display == g.start.display
    assert _text(back) == _text(g)


@PROPERTY
@given(matched_alphabets())
def test_matched_alphabet_text_round_trip(a):
    back = parse_matched_alphabet(a.serialize(), SymbolTable())
    assert back.serialize() == a.serialize()
    assert _displays(back) == _displays(a)


@PROPERTY
@given(grammars())
def test_make_admissible_laws(g):
    if len(_text(g)) < 2:
        return
    out = make_admissible(g)
    assert is_admissible(out)
    assert _text(out) == _text(g)
    assert out.size <= 2 * g.size
    # an admissible grammar is already in normal form
    assert is_isomorphic(make_admissible(out), out)


@PROPERTY
@given(grammars())
def test_canonical_order_of_an_admissible_grammar_ends_on_its_start(g):
    # The folding boosters read the start off the end of this order and do
    # not check it: every other nonterminal expands to a proper part of the
    # start's expansion.
    if len(_text(g)) < 2:
        return
    out = make_admissible(g)
    assert canonical_order(out)[-1] is out.start


def _cfg_rules(g: CFG):
    return sorted((h.display, tuple(s.display for s in b)) for h, b in g.rules)


@PROPERTY
@given(cfgs())
def test_cfg_text_round_trip(g):
    text = serialize_cfg(g)
    back = parse_cfg(text, SymbolTable())
    assert serialize_cfg(back) == text
    assert back.start.display == g.start.display
    assert _cfg_rules(back) == _cfg_rules(g)


@PROPERTY
@given(grammars(), grammars(), st.data())
def test_is_isomorphic_laws(g, other, data):
    assert is_isomorphic(g, g)
    same = isomorphic_reference(g, other)
    assert is_isomorphic(g, other) == is_isomorphic(other, g) == same
    # rename every nonterminal within the same table, rules in a new order
    heads = list(g.rules)
    order = data.draw(st.permutations(range(len(heads))))
    new = {x: g.table.nonterminal(f"M{k}") for x, k in zip(heads, order)}
    renamed = SLG(
        {new[x]: tuple(new.get(s, s) for s in g.rules[x])
         for x in sorted(heads, key=lambda x: new[x].display)},
        new[g.start],
        g.table,
    )
    assert is_isomorphic(g, renamed) and is_isomorphic(renamed, g)
    # change one terminal occurrence
    spots = [(x, i) for x in heads for i, s in enumerate(g.rules[x]) if s.is_terminal()]
    if not spots:
        return
    x, i = data.draw(st.sampled_from(spots))
    body = g.rules[x]
    others = sorted(g.terminals() - {body[i]}, key=lambda s: s.id)
    t = data.draw(st.sampled_from(others or [g.table.terminal("z")]))
    rules = dict(renamed.rules)
    rules[new[x]] = tuple(new.get(s, s) for s in body[:i] + (t,) + body[i + 1:])
    changed = SLG(rules, renamed.start, g.table)
    assert not is_isomorphic(g, changed) and not is_isomorphic(changed, g)


@PROPERTY
@given(st.text("abc", min_size=1, max_size=40), st.sampled_from(list(GlobalStrategy)))
def test_run_global_matches_reference(text, strategy):
    t1, t2 = SymbolTable(), SymbolTable()
    assert serialize(run_global(text, strategy, t1)) == serialize(
        run_global_reference(text, strategy, t2))


@PROPERTY
@given(st.integers(1, 16).flatmap(
    lambda k: st.text("abcdefghijklmnop"[:k], min_size=1, max_size=300)))
def test_sequential_matches_reference(text):
    t1, t2 = SymbolTable(), SymbolTable()
    assert serialize(sequential(text, t1)) == serialize(sequential_reference(text, t2))
    assert interned(t1) == interned(t2)


@PROPERTY
@given(st.integers(1, 16).flatmap(
    lambda k: st.text("abcdefghijklmnop"[:k], min_size=1, max_size=300)))
def test_sequitur_matches_reference(text):
    t1, t2 = SymbolTable(), SymbolTable()
    assert serialize(sequitur(text, t1)) == serialize(sequitur_reference(text, t2))
    assert interned(t1) == interned(t2)
