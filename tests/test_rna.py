"""Non-crossing matching: DP against exhaustive search, the weight-to-copies
reduction, reversal and match invariance, and the decomposition identity."""
import hashlib
import random

import pytest

from slglab import (
    FoldResult,
    MatchedAlphabet,
    RnaError,
    check_decomposition,
    check_reverse_and_match,
    parse_matched_alphabet,
    weighted_to_unweighted,
    wrna,
)
from slglab.boost import gamma, rna_alpha, rna_beta
from slglab.rna import rna
from slglab.generate import random_admissible_slg, random_matched_alphabet
from slglab.symbols import SymbolTable

from conftest import wrna_exhaustive, wrna_reference, wrna_table_py


def _pairs(table, pair_defs):
    """pair_defs like [('a', 'A', 2), ...] -> MatchedAlphabet."""
    symbols, match, weight = [], {}, {}
    for x, y, w in pair_defs:
        sx, sy = table.terminal(x), table.terminal(y)
        symbols += [sx, sy]
        match[sx], match[sy] = sy, sx
        weight[sx] = weight[sy] = w
    return MatchedAlphabet(tuple(symbols), match, weight)


def _s(table, text):
    return table.chars(text)


def test_wrna_examples(table):
    al = _pairs(table, [("a", "A", 2)])
    assert wrna(_s(table, "aA"), al).value == 2
    assert wrna(_s(table, "aa"), al).value == 0
    al2 = _pairs(table, [("a", "A", 1), ("b", "B", 1)])
    # crossing forbidden: a b A B keeps only one pair at unit weights
    assert wrna(_s(table, "abAB"), al2).value == 1
    assert wrna((), al2).value == 0
    assert wrna((), al2, want_pairs=True) == rna((), al2, want_pairs=True) == FoldResult(0, ())
    assert wrna((), al2) == rna((), al2) == FoldResult(0, None)
    assert wrna(_s(table, "aB"), al2).value == 0


def test_rna_examples(table):
    al = _pairs(table, [("a", "A", 7)])
    assert rna(_s(table, "aAaA"), al).value == 2


def test_wrna_rejects_foreign_symbols(table):
    al = _pairs(table, [("a", "A", 1)])
    with pytest.raises(RnaError, match="outside the matched alphabet"):
        wrna(_s(table, "az"), al)


def test_wrna_length_cap(table):
    al = _pairs(table, [("a", "A", 1)])
    with pytest.raises(RnaError, match="exceeds the cap"):
        wrna(_s(table, "aA" * 10), al, length_cap=4)


def test_alphabet_validation(table):
    a, b = table.terminal("q1"), table.terminal("q2")
    with pytest.raises(RnaError, match="involution"):
        MatchedAlphabet((a, b), {a: a, b: b}, {a: 1, b: 1})
    with pytest.raises(RnaError, match="differ across match"):
        MatchedAlphabet((a, b), {a: b, b: a}, {a: 1, b: 2})
    with pytest.raises(RnaError, match="differ across match"):
        MatchedAlphabet((a, b), {a: b, b: a}, {a: 1})


@pytest.mark.parametrize("weight", [{"q1": 1, "q2": 1}, {"q1": 1}])
def test_alphabet_refuses_a_partner_outside_symbols(table, weight):
    a, b = table.terminal("q1"), table.terminal("q2")
    weight = {table.terminal(x): w for x, w in weight.items()}
    with pytest.raises(RnaError, match="^q1 is matched with q2, outside the alphabet$"):
        MatchedAlphabet((a,), {a: b, b: a}, weight)


def test_extended_adds_checked_pairs(table):
    al = _pairs(table, [("a", "A", 2)])
    x, y = table.terminal("x"), table.terminal("y")
    out = al.extended([x, y], {x: y, y: x}, {x: 3, y: 3})
    assert out.symbols == al.symbols + (x, y)
    assert out.match[x] is y and out.match[al.symbols[0]] is al.symbols[1]
    assert out.weight[y] == 3
    assert len(al.symbols) == 2 and x not in al.match  # the original is untouched
    with pytest.raises(RnaError, match="differ across match"):
        al.extended([x, y], {x: y, y: x}, {x: 3, y: 4})
    with pytest.raises(RnaError, match="involution"):
        al.extended([x], {x: x}, {x: 1})


def test_extended_refuses_a_symbol_already_in_the_alphabet(table):
    al = _pairs(table, [("a", "A", 2)])
    a, big_a = al.symbols
    with pytest.raises(RnaError, match="a is already in the alphabet"):
        al.extended([a, big_a], {a: big_a, big_a: a}, {a: 2, big_a: 2})
    x = table.terminal("x")
    with pytest.raises(RnaError, match="x is already in the alphabet"):
        al.extended([x, x], {x: x}, {x: 1})


def test_extended_refuses_rebinding_an_existing_symbol(table):
    al = _pairs(table, [("a", "A", 2)])
    a = al.symbols[0]
    x, y = table.terminal("x"), table.terminal("y")
    # x pairs with y, but the added match also sends a to x.
    with pytest.raises(RnaError, match="bind a, which is not added"):
        al.extended([x, y], {x: y, y: x, a: x}, {x: 2, y: 2})
    # x pairs with a, which stays paired with A.
    with pytest.raises(RnaError, match="bind a, which is not added"):
        al.extended([x], {x: a, a: x}, {x: 2})
    with pytest.raises(RnaError, match="involution at x"):
        al.extended([x], {x: a}, {x: 2})


def test_alphabet_text_roundtrip(table):
    al = _pairs(table, [("a", "A", 2), ("b", "B", 5), ("#", "c", 3)])
    text = al.serialize()
    back = parse_matched_alphabet(text, table)
    assert back.serialize() == text
    assert back.weight[table.terminal("b")] == 5
    # `# ~ c : 3` would be a comment line; the pair is written from c's side
    assert text.endswith("c ~ # : 3\n") and back.match == al.match


def test_generated_alphabets_round_trip():
    # Generated partners end in '~' (`a ~ a~ : 2`); the joined form `a~b`
    # still parses.
    rng = random.Random(139)
    for pairs in range(1, 17):
        al = random_matched_alphabet(rng, pairs, 9, SymbolTable())
        text = al.serialize()
        t = SymbolTable()
        back = parse_matched_alphabet(text, t)
        assert back.serialize() == text
        assert [s.display for s in back.symbols] == [s.display for s in al.symbols]
        assert all(back.match[t.get(s.display)].display == al.match[s].display
                   and back.weight[t.get(s.display)] == al.weight[s] for s in al.symbols)
    joined = parse_matched_alphabet("a~b : 1\n", SymbolTable())
    assert joined.serialize() == "a ~ b : 1\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("a ~ b : 1\n# c\na ~ b : 1\n", "line 3: a is already paired on line 1"),
        ("a ~ b : 1\nc ~ b : 1\n", "line 2: b is already paired on line 1"),
        ("a ~ b~ ~ : 1\n", "line 1: bad alphabet line 'a ~ b~ ~ : 1'"),
        # a symbol refusal keeps its own message, with the line
        ("a ~ b : 1\nc ~ A : 2\n", "line 2: symbol 'A' already interned as nonterminal"),
        ("a b ~ c : 1\n", "line 1: bad symbol display 'a b'"),
    ],
)
def test_alphabet_parse_errors(text, message):
    table = SymbolTable()
    table.nonterminal("A")
    with pytest.raises(RnaError) as exc:
        parse_matched_alphabet(text, table)
    assert type(exc.value) is RnaError and str(exc.value) == message


def test_dp_matches_exhaustive_search():
    rng = random.Random(103)
    for _ in range(300):
        t = SymbolTable()
        al = random_matched_alphabet(rng, rng.randint(1, 3), 4, t)
        n = rng.randint(0, 12)
        u = tuple(rng.choice(al.symbols) for _ in range(n))
        assert wrna(u, al).value == wrna_exhaustive(u, al)


def test_numpy_kernel_matches_python_dp():
    """The numpy folding kernel fills the same full table as the
    pure-Python DP for lengths 2 to 120, and the witness read back from
    that table is valid."""
    rng = random.Random(107)
    from slglab.rna import _encode, _wrna_table

    for _ in range(20):
        t = SymbolTable()
        al = random_matched_alphabet(rng, rng.randint(1, 3), 4, t)
        n = rng.randint(2, 120)
        u = tuple(rng.choice(al.symbols) for _ in range(n))
        seq, match_of, w_of, positions = _encode(u, al)
        dp = _wrna_table(seq, match_of, w_of, positions)
        assert dp.shape == (n + 2, n + 1)
        assert dp.tolist() == wrna_table_py(seq, match_of, w_of)
        res = wrna(u, al, want_pairs=True)
        assert res.value == dp[0, n - 1]
        assert res.validate(u, al)


def _reaches_chunks(u, al):
    """Whether some row's block of partners after it spans more cells than
    one gather takes: the rows that the kernel prunes."""
    from slglab.rna import _GATHER_CELLS

    n = len(u)
    for i, s in enumerate(u):
        ks = [k for k in range(i + 1, n) if u[k] == al.match[s]]
        if ks and len(ks) * (n - ks[0]) > _GATHER_CELLS:
            return True
    return False


def test_wrna_matches_reference():
    """The row-gathered kernel and the partner-only traceback give the
    per-pair kernel's full table, value and witness pairs: lengths up to
    800, 1, 2 and 8 pairs, weights 1, 4, 10**6 and 10**9, so the table
    takes each of its three widths."""
    from slglab.rna import _encode, _wrna_table

    rng = random.Random(137)
    cases = [(800, 1, 1), (800, 2, 4), (600, 8, 10**6)]
    cases += [(rng.randint(0, 200), rng.choice([1, 2, 8]), rng.choice([1, 4, 10**6]))
              for _ in range(12)]
    cases.append((300, 2, 10**9))
    chunked, dtypes = 0, set()
    for n, pairs, max_weight in cases:
        t = SymbolTable()
        al = random_matched_alphabet(rng, pairs, max_weight, t)
        u = tuple(rng.choice(al.symbols) for _ in range(n))
        table, value, witness = wrna_reference(u, al)
        if n:
            dp = _wrna_table(*_encode(u, al))
            assert dp.tolist() == table.tolist()
            dtypes.add(dp.dtype.name)
        res = wrna(u, al, want_pairs=True)
        assert (res.value, res.pairs) == (value, witness)
        chunked += _reaches_chunks(u, al)
    assert chunked >= 2 and dtypes == {"uint16", "int32", "int64"}


def test_wrna_unsigned_rows_match_reference():
    """A uint16 table whose values pass 2**15 builds its top rows
    unsigned, with masked blocks; table, value and witness are the per-pair
    kernel's, with rows that take more than one gather."""
    from slglab.rna import _encode, _wrna_table

    rng = random.Random(139)
    t = SymbolTable()
    al = _pairs(t, [("a", "A", 150), ("b", "B", 170)])
    u = tuple(rng.choice(al.symbols) for _ in range(600))
    table, value, witness = wrna_reference(u, al)
    dp = _wrna_table(*_encode(u, al))
    assert dp.dtype.name == "uint16" and value > 2**15 and _reaches_chunks(u, al)
    assert dp.tolist() == table.tolist()
    res = wrna(u, al, want_pairs=True)
    assert (res.value, res.pairs) == (value, witness)


def _dominance_drops(table, u, al):
    """Partners that the below rule and the chain rule each drop, read off
    the full int64 table: `(below, chain)` counts over all rows."""
    below_drops = chain_drops = 0
    n = len(u)
    for i, s in enumerate(u):
        ks = [k for k in range(i + 1, n) if u[k] == al.match[s]]
        const = [al.weight[s] + int(table[i + 1, k - 1]) for k in ks]
        below_drops += sum(c <= table[i + 1, k] for c, k in zip(const, ks))
        chain_drops += sum(const[m] <= const[m - 1] + table[ks[m - 1] + 1, ks[m]]
                           for m in range(1, len(ks)))
    return below_drops, chain_drops


def test_pruned_kernel_matches_reference_on_boosted_strings(monkeypatch):
    """With one-cell gathers every row with a partner past the next column
    is pruned by the two dominance rules; on boosted strings of 100-400
    symbols the table, value and witness are still the per-pair kernel's,
    on uint16 tables with signed rows only and with unsigned rows, int32
    and int64."""
    import slglab.rna as rna_module

    monkeypatch.setattr(rna_module, "_GATHER_CELLS", 1)
    rng = random.Random(271)
    kinds, drops = set(), [0, 0]
    for nonterms, sigma, max_weight in [(4, 12, 3), (5, 14, 40), (4, 12, 400),
                                        (5, 14, 10**5), (5, 14, 10**9)]:
        t = SymbolTable()
        alphabet = random_matched_alphabet(rng, 3, max_weight, t)
        g = random_admissible_slg(rng, nonterms, 3, 2 * sigma, t)
        for build in (rna_alpha, rna_beta, gamma):
            r = build(g, alphabet)
            assert 100 <= len(r.text) <= 400
            table, value, witness = wrna_reference(r.text, r.alphabet)
            dp = rna_module._wrna_table(*rna_module._encode(r.text, r.alphabet))
            assert dp.dtype == _width(r.alphabet, r.text)
            assert dp.tolist() == table.tolist()
            res = wrna(r.text, r.alphabet, want_pairs=True)
            assert (res.value, res.pairs) == (value, witness)
            # a value past 2**15 - 1 makes the top rows of a uint16 table unsigned
            unsigned = dp.dtype.name == "uint16" and value >= 2**15
            kinds.add(dp.dtype.name + " with unsigned rows" * unsigned)
            for m, d in enumerate(_dominance_drops(table, r.text, r.alphabet)):
                drops[m] += d
    assert kinds == {"uint16", "uint16 with unsigned rows", "int32", "int64"}
    assert min(drops) > 0


@pytest.mark.parametrize("text, w, value, pairs", [
    # Positions 0-based, witness pairs 1-based; every row is pruned.
    # Partners 1 and 2 of row 0 tie, c_2 = 1 = c_1 + dp[2, 2]: the chain
    # rule drops 2, and the witness still pairs the first.
    ("aAA", 1, 1, ((1, 2),)),
    # adjacent partners 2 and 3 = n - 1 of row 0: the chain rule drops 3
    ("abAA", 1, 1, ((1, 3),)),
    # the below rule drops partner 2 = n - 1 of row 0: c_2 = 1 <= dp[1, 2]
    ("aaA", 1, 1, ((2, 3),)),
    # the below rule drops row 0's first partner, 2; partner 3 wins
    ("aaAA", 1, 2, ((1, 4), (2, 3))),
    # the chain rule reads dp[k' + 1, k]: for row 0, k' = 2 and k = 6,
    # dp[k', k] would also count the pair (3, 4), which starts at k', and
    # drop k = 6, which wins
    ("abAaaBA", 1, 3, ((1, 7), (2, 6), (3, 4))),
    ("aA", 1, 1, ((1, 2),)),  # n = 2
    ("aa", 1, 0, ()),
    # the chain rule drops partners 3 and 5 of row 0
    ("aAaAaA", 3, 9, ((1, 2), (3, 4), (5, 6))),
    # rows built unsigned, with their values past 2**15
    ("aAaAaA", 16384, 49152, ((1, 2), (3, 4), (5, 6))),
    ("aAAaA", 20000, 40000, ((1, 2), (4, 5))),
])
def test_dominance_rules_edge_cases(table, monkeypatch, text, w, value, pairs):
    import slglab.rna as rna_module

    monkeypatch.setattr(rna_module, "_GATHER_CELLS", 1)
    al = _pairs(table, [("a", "A", w), ("b", "B", 1)])
    u = _s(table, text)
    ref, ref_value, ref_pairs = wrna_reference(u, al)
    dp = rna_module._wrna_table(*rna_module._encode(u, al))
    assert dp.tolist() == ref.tolist()
    res = wrna(u, al, want_pairs=True)
    assert (res.value, res.pairs) == (ref_value, ref_pairs) == (value, pairs)


@pytest.mark.parametrize("text, wa, wb, width, value", [
    ("aA", 32767, 1, "uint16", 32767),  # the largest value of a signed row
    ("aA", 32768, 1, "uint16", 32768),  # row 0 built unsigned
    ("aAb", 32767, 2, "uint16", 32767),
    ("aAbB", 32766, 2, "uint16", 32768),
    ("aAaA", 16384, 1, "uint16", 32768),  # rows 0 and 1 built unsigned
    ("abAB", 16384, 16384, "uint16", 16384),
    ("a", 65536, 1, "uint16", 0),  # an unpaired weight past uint16
    ("aA", 65535, 1, "uint16", 65535),
    ("aAbB", 65534, 1, "uint16", 65535),
    ("aA", 65536, 1, "int32", 65536),
    ("aAbB", 65534, 2, "int32", 65536),
    ("aA", 2**61, 1, "int64", 2**61),  # refused by a looser rule before
    ("aA", 2**63 - 1, 1, "int64", 2**63 - 1),  # the largest B of any table
])
def test_wrna_table_width_at_the_16_bit_bounds(table, text, wa, wb, width, value):
    """The bound B, half the total weight, is 65,535 (uint16) or 65,536
    (int32); the folds of value B reach it exactly, in uint16 at 65,535,
    and in int64 up to its maximum.  Rows whose values may pass 32,767 are
    built unsigned.  A weight above B belongs to a symbol without a
    partner."""
    from slglab.rna import _encode, _wrna_table

    al = _pairs(table, [("a", "A", wa), ("b", "B", wb)])
    u = _s(table, text)
    dp = _wrna_table(*_encode(u, al))
    ref, ref_value, ref_pairs = wrna_reference(u, al)
    assert dp.dtype.name == width and dp.tolist() == ref.tolist()
    res = wrna(u, al, want_pairs=True)
    assert (res.value, res.pairs) == (ref_value, ref_pairs) and res.value == value


def test_traceback_refuses_a_table_no_partner_explains(table, monkeypatch):
    import slglab.rna as rna_module

    build = rna_module._wrna_table

    def raised_corner(*args):
        dp = build(*args)
        dp[0, dp.shape[1] - 2] += 1
        return dp

    monkeypatch.setattr(rna_module, "_wrna_table", raised_corner)
    al = _pairs(table, [("a", "A", 2)])
    with pytest.raises(RuntimeError, match="^folding traceback found no partner for position 1$"):
        wrna(_s(table, "aAa"), al, want_pairs=True)


def test_witness_pairs_validate():
    rng = random.Random(109)
    for _ in range(60):
        t = SymbolTable()
        al = random_matched_alphabet(rng, 2, 4, t)
        n = rng.randint(0, 40)
        u = tuple(rng.choice(al.symbols) for _ in range(n))
        res = wrna(u, al, want_pairs=True)
        assert res.pairs is not None
        assert res.validate(u, al)
        total = sum(al.weight[u[i - 1]] for i, _ in res.pairs)
        assert total == res.value


def test_fold_result_validate_rejects_crossings(table):
    al = _pairs(table, [("a", "A", 1), ("b", "B", 1)])
    u = _s(table, "abAB")
    bad = FoldResult(2, ((1, 3), (2, 4)))
    assert not bad.validate(u, al)


@pytest.mark.parametrize("value, pairs, ok", [
    (0, None, True),  # no witness to check
    (3, ((5, 6), (2, 3), (1, 4)), True),  # nested and disjoint, any order
    (1, ((0, 2),), False),  # out of range
    (1, ((2, 7),), False),
    (1, ((2, 2),), False),
    (1, ((3, 4),), False),  # b and a do not match
    (2, ((1, 4), (4, 5)), False),  # a shared endpoint
    (2, ((1, 4), (1, 6)), False),
    (2, ((2, 3), (2, 3)), False),  # a duplicate pair
    (2, ((2, 3),), False),  # a wrong total
])
def test_fold_result_validate_cases(table, value, pairs, ok):
    al = _pairs(table, [("a", "A", 1), ("b", "B", 1)])
    assert FoldResult(value, pairs).validate(_s(table, "abBAaA"), al) is ok


def test_fold_result_validate_rejects_a_symbol_outside_the_alphabet(table):
    al = _pairs(table, [("a", "A", 1)])
    assert FoldResult(1, ((1, 2),)).validate(_s(table, "zA"), al) is False
    assert FoldResult(1, ((1, 2),)).validate(_s(table, "aA"), al) is True


def test_fold_result_validate_matches_a_pairwise_check():
    # every two pairs must nest or be disjoint, endpoints not shared
    rng = random.Random(131)
    t = SymbolTable()
    al = _pairs(t, [("a", "A", 1)])
    for _ in range(400):
        u = _s(t, "".join(rng.choice("aA") for _ in range(rng.randint(2, 10))))
        spots = [(i, j) for i in range(1, len(u) + 1) for j in range(i + 1, len(u) + 1)
                 if u[i - 1] != u[j - 1]]
        pairs = tuple(rng.choice(spots) for _ in range(rng.randint(0, 4)) if spots)
        fits = all(j < k or l < i or (i < k and l < j) or (k < i and j < l)
                   for n, (i, j) in enumerate(pairs) for k, l in pairs[n + 1:])
        value = len(pairs) + (rng.random() < 0.1)
        assert FoldResult(value, pairs).validate(u, al) is (fits and value == len(pairs))


def test_weighted_to_unweighted(table):
    al = _pairs(table, [("a", "A", 2)])
    u = _s(table, "aA")
    u2 = weighted_to_unweighted(u, al)
    assert len(u2) == 4
    assert rna(u2, al).value == 2 == wrna(u, al).value

    al31 = _pairs(table, [("a", "A", 3), ("b", "B", 1)])
    u = _s(table, "abA")
    u2 = weighted_to_unweighted(u, al31)
    assert len(u2) == 7
    assert rna(u2, al31).value == 3 == wrna(u, al31).value


def test_weighted_to_unweighted_random():
    rng = random.Random(113)
    for _ in range(80):
        t = SymbolTable()
        al = random_matched_alphabet(rng, rng.randint(1, 2), 3, t)
        n = rng.randint(0, 9)
        u = tuple(rng.choice(al.symbols) for _ in range(n))
        assert rna(weighted_to_unweighted(u, al), al).value == wrna(u, al).value


def test_check_decomposition(table):
    al = _pairs(table, [("a", "A", 10), ("c", "C", 1), ("d", "D", 1)])
    a, big = table.terminal("a"), table.terminal("A")
    x = _s(table, "cC")
    y = _s(table, "d")
    assert check_decomposition(x, a, y, big, (), al)
    assert check_decomposition((), a, (), big, (), al)
    with pytest.raises(RnaError, match="dominate"):
        weak = _pairs(table, [("a", "A", 1), ("d", "D", 5)])
        check_decomposition((), table.terminal("a"), _s(table, "d"),
                            table.terminal("A"), (), weak)
    with pytest.raises(RnaError, match="occurs in"):
        check_decomposition(_s(table, "a"), a, (), big, (), al)


def _qq(t, weight):
    q, qq = t.terminal("q"), t.terminal("Q")
    return MatchedAlphabet((q, qq), {q: qq, qq: q}, weight(q, qq))


@pytest.mark.parametrize("call, message", [
    (lambda t: _qq(t, lambda q, qq: {q: -1, qq: -1}), "negative or missing weight for q"),
    (lambda t: _qq(t, lambda q, qq: {qq: 1}), "negative or missing weight for q"),
    (lambda t: wrna(_s(t, "qQ"), _qq(t, lambda q, qq: {q: 2**63, qq: 2**63})),
     "weights too large for 64-bit accumulation"),
    (lambda t: wrna(_s(t, "q"), _qq(t, lambda q, qq: {q: 2**64, qq: 2**64})),
     "weights too large for 64-bit accumulation"),
    (lambda t: check_decomposition((), t.terminal("a"), (), t.terminal("b"), (),
                                   _pairs(t, [("a", "A", 2), ("b", "B", 1)])),
     "precondition failed: match(a) != b"),
], ids=["negative-weight", "missing-weight", "weights-past-64-bits",
        "unpaired-weight-past-64-bits", "unmatched-pair"])
def test_rna_refusals(table, call, message):
    with pytest.raises(RnaError) as e:
        call(table)
    assert type(e.value) is RnaError and str(e.value) == message


def test_reverse_and_match_invariance():
    rng = random.Random(127)
    for _ in range(200):
        t = SymbolTable()
        al = random_matched_alphabet(rng, rng.randint(1, 3), 4, t)
        n = rng.randint(0, 14)
        u = tuple(rng.choice(al.symbols) for _ in range(n))
        assert check_reverse_and_match(u, al)


def test_superadditivity_under_concatenation():
    rng = random.Random(131)
    for _ in range(100):
        t = SymbolTable()
        al = random_matched_alphabet(rng, 2, 4, t)
        u = tuple(rng.choice(al.symbols) for _ in range(rng.randint(0, 20)))
        v = tuple(rng.choice(al.symbols) for _ in range(rng.randint(0, 20)))
        assert wrna(u + v, al).value >= wrna(u, al).value + wrna(v, al).value


def _width(alphabet, u):
    """The narrowest of uint16, int32 and int64 that holds half the weight
    of `u`, a bound on every folding value of its intervals."""
    bound = sum(alphabet.weight[s] for s in u) // 2
    return next(name for name, bits in (("uint16", 16), ("int32", 31), ("int64", 63))
                if bound < 2**bits)


def test_fold_outputs_are_pinned():
    # wrna values and witness pairs of the rna_alpha, rna_beta and gamma
    # strings of seeded grammars: strings of 131 to 1,920 symbols, four
    # of them over 1,000, and weights whose half-total bound needs each of
    # uint16, int32 and int64; one uint16 fold, of value 57,652, builds its
    # top rows unsigned.  The two rna_beta strings over 1,000 symbols have
    # rows whose partners span more than one gather, so the digest covers
    # the pruned rows.  A change that keeps every output keeps this digest.
    rng = random.Random(263)
    digest = hashlib.sha256()
    widths, long_strings, pruned = set(), 0, set()
    for nonterms, sigma, max_weight in [(4, 30, 3), (8, 80, 4), (12, 80, 40),
                                        (16, 150, 4), (10, 70, 10**6), (6, 40, 10**8)]:
        t = SymbolTable()
        alphabet = random_matched_alphabet(rng, 3, max_weight, t)
        g = random_admissible_slg(rng, nonterms, 3, 2 * sigma, t)
        for build in (rna_alpha, rna_beta, gamma):
            r = build(g, alphabet)
            res = wrna(r.text, r.alphabet, want_pairs=True)
            digest.update(f"{len(r.text)} {res.value} {res.pairs}\n".encode())
            widths.add(_width(r.alphabet, r.text))
            long_strings += len(r.text) > 1000
            if build is rna_beta and len(r.text) > 1000 and _reaches_chunks(r.text, r.alphabet):
                pruned.add(len(r.text))
    assert widths == {"uint16", "int32", "int64"} and long_strings >= 4
    # the two long rna_beta strings have rows that the dominance rules prune
    assert pruned == {1920, 1456}
    assert digest.hexdigest() == (
        "1a05504a9d1b12e92c42ae5b9e62f95de6d2a4b1c3f673c8dbb461ff379784fc")
