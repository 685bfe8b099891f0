"""Reference checks the benchmark applies to slglab's outputs.

Nothing here imports slglab.  A grammar is a plain mapping from each
nonterminal to its right-hand side; any symbol that is not a key is a
terminal.  Symbols are compared by equality only, so the checks work on
slglab's interned symbols as well as on the strings used in the tests.
"""
from __future__ import annotations


def expansion(rules, x):
    """The terminal string derived from `x`, by an explicit-stack walk
    (no recursion, no memo shared with the code under test)."""
    out = []
    stack = [x]
    while stack:
        sym = stack.pop()
        if sym in rules:
            stack.extend(reversed(rules[sym]))
        else:
            out.append(sym)
    return tuple(out)


def expansion_lengths(rules):
    """Length of every nonterminal's expansion, by an iterative post-order
    walk.  Raises ValueError on a rule cycle."""
    lengths = {}
    for root in rules:
        if root in lengths:
            continue
        stack = [(root, False)]
        open_ = set()
        while stack:
            head, children_done = stack.pop()
            if head in lengths:
                continue
            if children_done:
                open_.discard(head)
                lengths[head] = sum(
                    lengths[s] if s in rules else 1 for s in rules[head]
                )
                continue
            if head in open_:
                raise ValueError("rule cycle")
            open_.add(head)
            stack.append((head, True))
            for s in rules[head]:
                if s in rules and s not in lengths:
                    stack.append((s, False))
    return lengths


def distinct_dyadic_blocks(u):
    """Number of distinct aligned blocks u[a:a+k] with k = 2, 4, 8, ...
    up to len(u) and a a multiple of k."""
    u = tuple(u)
    seen = set()
    k = 2
    while k <= len(u):
        for a in range(0, len(u) - k + 1, k):
            seen.add(u[a : a + k])
        k *= 2
    return len(seen)


def witness_error(u, pairs, match, weight, value):
    """Why `pairs` (1-based, i < j) is not a non-crossing matching of `u`
    worth `value`; None when it is one."""
    n = len(u)
    used = set()
    total = 0
    for i, j in pairs:
        if not 1 <= i < j <= n:
            return f"pair ({i}, {j}) out of range"
        if i in used or j in used:
            return f"position reused in pair ({i}, {j})"
        used.update((i, j))
        if match.get(u[i - 1]) != u[j - 1]:
            return f"pair ({i}, {j}) does not match"
        total += weight[u[i - 1]]
    # Sorted by left end, a matching is non-crossing exactly when each pair
    # closes before every pair still open around it.
    open_ends = []
    for i, j in sorted(pairs):
        while open_ends and open_ends[-1] < i:
            open_ends.pop()
        if open_ends and j > open_ends[-1]:
            return f"pair ({i}, {j}) crosses a pair ending at {open_ends[-1]}"
        open_ends.append(j)
    if total != value:
        return f"pairs weigh {total}, value is {value}"
    return None


def fold_value(u, match, weight):
    """Maximum total weight of a non-crossing matching of `u`: the textbook
    interval DP, W[i][j] over u[i..j] (0-based, inclusive)."""
    n = len(u)
    if n < 2:
        return 0
    W = [[0] * (n + 1) for _ in range(n + 2)]
    for i in range(n - 2, -1, -1):
        for j in range(i + 1, n):
            best = W[i + 1][j]
            for k in range(i + 1, j + 1):
                if match.get(u[i]) == u[k]:
                    cand = weight[u[i]] + W[i + 1][k - 1] + W[k + 1][j]
                    if cand > best:
                        best = cand
            W[i][j] = best
    return W[0][n - 1]


def repeated_digram(rules):
    """A digram with two non-overlapping occurrences on the right-hand
    sides, or None.  Within one body occurrences are taken greedily left to
    right, which maximises the non-overlapping count."""
    counts = {}
    for body in rules.values():
        last = {}
        for i in range(len(body) - 1):
            d = (body[i], body[i + 1])
            if d in last and i < last[d] + 2:
                continue
            last[d] = i
            counts[d] = counts.get(d, 0) + 1
            if counts[d] >= 2:
                return d
    return None


def underused_rules(rules, start):
    """Nonterminals other than `start` used fewer than twice on the
    right-hand sides."""
    uses = {head: 0 for head in rules}
    for body in rules.values():
        for s in body:
            if s in uses:
                uses[s] += 1
    return [h for h, c in uses.items() if h != start and c < 2]
