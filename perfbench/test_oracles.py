"""Hand-checked cases for the benchmark's reference checks (perfbench/oracles.py).

Run with `python -m pytest -q perfbench`; every expected value below was
worked out by hand.
"""
import pytest

from oracles import (
    distinct_dyadic_blocks,
    expansion,
    expansion_lengths,
    fold_value,
    repeated_digram,
    underused_rules,
    witness_error,
)

# S -> A A b ; A -> B a ; B -> a b ; E -> ()   (E expands to nothing)
RULES = {"S": ("A", "A", "b"), "A": ("B", "a"), "B": ("a", "b"), "E": ()}

# Matched pairs a~a' (weight 2) and b~b' (weight 5).
MATCH = {"a": "a'", "a'": "a", "b": "b'", "b'": "b"}
WEIGHT = {"a": 2, "a'": 2, "b": 5, "b'": 5}


def test_expansion_and_lengths():
    assert expansion(RULES, "S") == tuple("abaabab")
    assert expansion(RULES, "A") == tuple("aba")
    assert expansion(RULES, "E") == ()
    assert expansion(RULES, "b") == ("b",)
    assert expansion_lengths(RULES) == {"S": 7, "A": 3, "B": 2, "E": 0}


def test_expansion_is_iterative_on_a_deep_chain():
    depth = 5000
    chain = {f"N{i}": (f"N{i - 1}", "a") for i in range(1, depth + 1)}
    chain["N0"] = ("b",)
    assert expansion(chain, f"N{depth}") == ("b",) + ("a",) * depth
    assert expansion_lengths(chain)[f"N{depth}"] == depth + 1


def test_expansion_lengths_rejects_a_cycle():
    with pytest.raises(ValueError):
        expansion_lengths({"X": ("Y", "a"), "Y": ("X", "b")})


def test_distinct_dyadic_blocks():
    # abab: blocks ab, ab (k=2) and abab (k=4) -> {ab, abab}
    assert distinct_dyadic_blocks("abab") == 2
    # aabb: aa, bb, aabb
    assert distinct_dyadic_blocks("aabb") == 3
    # aaaaaaaa: aa, aaaa, aaaaaaaa
    assert distinct_dyadic_blocks("a" * 8) == 3
    # abcdabce: ab cd ab ce | abcd abce | abcdabce
    assert distinct_dyadic_blocks("abcdabce") == 6
    assert distinct_dyadic_blocks("a") == 0


def test_witness_error_accepts_a_valid_witness():
    u = ("a", "b", "b'", "a'", "a")
    assert witness_error(u, [(1, 4), (2, 3)], MATCH, WEIGHT, 7) is None
    assert witness_error(u, [], MATCH, WEIGHT, 0) is None


def test_witness_error_rejects_each_fault():
    u = ("a", "b", "a'", "b'")
    # the two pairs interleave: a..a' and b..b' cross
    assert "crosses" in witness_error(u, [(1, 3), (2, 4)], MATCH, WEIGHT, 7)
    assert "does not match" in witness_error(u, [(1, 2)], MATCH, WEIGHT, 2)
    assert "out of range" in witness_error(u, [(3, 5)], MATCH, WEIGHT, 2)
    assert "out of range" in witness_error(u, [(3, 1)], MATCH, WEIGHT, 2)
    assert "reused" in witness_error(("a", "a'", "a'"), [(1, 2), (1, 3)], MATCH, WEIGHT, 4)
    assert "weigh" in witness_error(u, [(1, 3)], MATCH, WEIGHT, 5)


def test_fold_value():
    assert fold_value((), MATCH, WEIGHT) == 0
    assert fold_value(("a",), MATCH, WEIGHT) == 0
    assert fold_value(("a", "a'"), MATCH, WEIGHT) == 2
    assert fold_value(("a", "a"), MATCH, WEIGHT) == 0
    # a b a' b': the two pairs cross, keep the heavier b..b'
    assert fold_value(("a", "b", "a'", "b'"), MATCH, WEIGHT) == 5
    # a b b' a': nested, both count
    assert fold_value(("a", "b", "b'", "a'"), MATCH, WEIGHT) == 7
    # a a' b b' a a': three side-by-side pairs
    assert fold_value(("a", "a'", "b", "b'", "a", "a'"), MATCH, WEIGHT) == 9
    # a' a a': the a can pair left or right, only one pair fits
    assert fold_value(("a'", "a", "a'"), MATCH, WEIGHT) == 2


def test_repeated_digram():
    assert repeated_digram({"S": ("a", "b", "a", "b")}) == ("a", "b")
    # aaa holds two overlapping occurrences of aa, which do not count
    assert repeated_digram({"S": ("a", "a", "a")}) is None
    assert repeated_digram({"S": ("a", "a", "a", "a")}) == ("a", "a")
    # occurrences in two different bodies never overlap
    assert repeated_digram({"S": ("X", "a", "b"), "X": ("a", "b")}) == ("a", "b")
    assert repeated_digram(RULES) is None


def test_underused_rules():
    assert underused_rules(RULES, "S") == ["B", "E"]
    assert underused_rules({"S": ("X", "X"), "X": ("a", "b")}, "S") == []
