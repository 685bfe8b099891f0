"""Weighted and unweighted non-crossing matching (RNA folding) over matched
alphabets, plus the structural identities used by the boosting checks.

One numpy interval-DP kernel (cubic, Nussinov-style), `_wrna_table`, fills
the table that both the folding value and the witness traceback read; its
docstring gives the row scheme.  Before a row's gathered max, the kernel
drops the partners that two exact dominance rules show can win no column
(as in sparse RNA folding; the proof is in its docstring), on rows whose
partners fill more than one gather block.  The table is the narrowest of
uint16, int32 and int64 that holds `B`, half the total weight of the
positions, and an input whose `B` none of them holds is refused: that is
the one weight rule.  The traceback finds the partners of a symbol inside an
interval by bisection and tests them together in numpy.  Both read, per
symbol, its positions as a list and the arrays of the positions plus one
and minus one, built once per input, so no row or interval allocates them.
Inputs beyond a configurable length cap are refused.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core import _content_lines
from .symbols import Symbol, SymbolError, SymbolTable

DEFAULT_LENGTH_CAP = 3000


class RnaError(ValueError):
    pass


@dataclass(frozen=True)
class MatchedAlphabet:
    """Alphabet with an involutive, fixed-point-free match and weights.

    Weights of matched symbols must agree.  Zero weights are tolerated here
    (they never help a folding); the boosting constructions insist on
    strictly positive ones.
    """

    symbols: tuple[Symbol, ...]
    match: dict[Symbol, Symbol]
    weight: dict[Symbol, int]

    def __post_init__(self):
        """Refuse unless `match` pairs each symbol with another symbol,
        both ways, and both have one nonnegative weight."""
        match, weight = self.match, self.weight
        members = set(self.symbols)
        for a in self.symbols:
            b = match.get(a)
            if b is None or b == a or match.get(b) != a:
                raise RnaError(f"match is not a fixed-point-free involution at {a.display}")
            if b not in members:
                raise RnaError(f"{a.display} is matched with {b.display}, outside the alphabet")
            if weight.get(a) is None or weight[a] < 0:
                raise RnaError(f"negative or missing weight for {a.display}")
            if weight.get(b) != weight[a]:
                raise RnaError(f"weights differ across match pair {a.display}")

    def covers(self, symbols) -> bool:
        have = set(self.symbols)
        return all(s in have for s in symbols)

    def extended(self, new_symbols, new_match, new_weight) -> "MatchedAlphabet":
        """This alphabet plus the pairs of `new_symbols`.  Each added symbol
        must be new to the alphabet, and the added match and weights must
        bind added symbols only; the constructor then checks every pair."""
        new_symbols = tuple(new_symbols)
        added = set(new_symbols)
        have = set(self.symbols)
        for s in new_symbols:
            if s in have:
                raise RnaError(f"{s.display} is already in the alphabet")
            have.add(s)
        for s in (*new_match, *new_weight):
            if s not in added:
                raise RnaError(f"the added pairs bind {s.display}, which is not added")
        return MatchedAlphabet(tuple(self.symbols) + new_symbols,
                               {**self.match, **new_match},
                               {**self.weight, **new_weight})

    def serialize(self) -> str:
        """One line per pair, `a ~ b : w`.  A line `# ~ b : w` would read
        back as a comment, so a symbol displayed `#` (one per table at
        most) is written second."""
        lines = []
        done = set()
        for a in self.symbols:
            if a in done:
                continue
            b = self.match[a]
            done.add(a)
            done.add(b)
            if a.display == "#":
                a, b = b, a
            lines.append(f"{a.display} ~ {b.display} : {self.weight[a]}")
        return "\n".join(lines) + "\n"


def parse_matched_alphabet(text: str, table: SymbolTable) -> MatchedAlphabet:
    """One pair per line, `a ~ b : w`.  The `~` may stand alone between
    spaces, so a display may end in `~` (`a ~ a~ : 2`), or join the two
    sides (`a~b : 1`).  A symbol may be paired on one line only."""
    paired_on: dict[Symbol, int] = {}
    match: dict[Symbol, Symbol] = {}
    weight: dict[Symbol, int] = {}
    for line_no, line in _content_lines(text):
        try:
            pair_part, w_part = line.rsplit(":", 1)
            tokens = pair_part.split()
            if len(tokens) == 3 and tokens[1] == "~":
                left, right = tokens[0], tokens[2]
            else:
                left, right = pair_part.split("~")
            a = table.terminal(left.strip())
            b = table.terminal(right.strip())
            w = int(w_part.strip())
        except SymbolError as exc:
            raise RnaError(f"line {line_no}: {exc}") from exc
        except ValueError as exc:
            raise RnaError(f"line {line_no}: bad alphabet line {line!r}") from exc
        for s in (a, b):
            if s in paired_on:
                raise RnaError(
                    f"line {line_no}: {s.display} is already paired on line {paired_on[s]}"
                )
        paired_on[a] = paired_on[b] = line_no
        match[a], match[b] = b, a
        weight[a] = weight[b] = w
    return MatchedAlphabet(tuple(paired_on), match, weight)


@dataclass(frozen=True)
class FoldResult:
    value: int
    pairs: tuple[tuple[int, int], ...] | None = None

    def validate(self, u, alphabet: MatchedAlphabet) -> bool:
        """Witness pairs match, do not cross, and sum to the value.  Taken by
        start, a pair must end inside the innermost open pair: ending at or
        past that pair's end crosses it, shares an endpoint or repeats it.
        A pair that starts on a symbol outside the alphabet matches nothing."""
        if self.pairs is None:
            return True
        total = 0
        open_ends: list[int] = []
        for i, j in sorted(self.pairs):
            if not (1 <= i < j <= len(u)) or alphabet.match.get(u[i - 1]) != u[j - 1]:
                return False
            while open_ends and open_ends[-1] < i:
                open_ends.pop()
            if open_ends and open_ends[-1] <= j:
                return False
            open_ends.append(j)
            total += alphabet.weight[u[i - 1]]
        return total == self.value


def _encode(u, alphabet: MatchedAlphabet):
    """The codes of `u`, the partner code and weight of each code, and per
    code its increasing positions in `u`: as a list, as an array, and as
    the arrays `positions + 1` and `positions - 1` (views of three arrays
    sorted by code, so built once per table)."""
    codes = {}
    for s in alphabet.symbols:
        codes.setdefault(s, len(codes))
    # A symbol is looked up by id, and by value (hashing all three fields)
    # only when it is not the very symbol that has the code of its id.
    symbol_of = list(codes)
    by_id = {s.id: c for c, s in enumerate(symbol_of)}
    seq = []
    for s in u:
        c = by_id.get(s.id)
        if c is None or symbol_of[c] is not s:
            c = codes.get(s)
            if c is None:
                raise RnaError(f"symbol {s.display} outside the matched alphabet")
        seq.append(c)
    match_of = [codes[alphabet.match[s]] for s in codes]
    w_of = [alphabet.weight[s] for s in codes]
    coded = np.asarray(seq, dtype=np.intp)
    order = np.argsort(coded, kind="stable")
    ends = np.cumsum(np.bincount(coded, minlength=len(codes))).tolist()
    flat, plus, minus = order.tolist(), order + 1, order - 1
    return seq, match_of, w_of, [(flat[a:b], order[a:b], plus[a:b], minus[a:b])
                                 for a, b in zip([0, *ends], ends)]


# Cells of one partner block gathered at once; bounds the scratch memory of
# a row whatever the number of partners.  A row whose partners fill more than
# one block is pruned before it is gathered.
_GATHER_CELLS = 1 << 16


def _wrna_table(seq, match_of, w_of, positions):
    """Interval DP table: `dp[i, j]` is the best folding value of
    `seq[i..j]`.  The table is `(n+2) x (n+1)`; the cells with `j <= i`,
    column `n` and rows `n` and `n+1` are zero.

    Its dtype is the narrowest of uint16, int32 and int64 whose maximum is
    at least `B = (sum of w_of[c] over c in seq) // 2`, and the input is
    refused when none is.  Matched symbols have equal weights, so a pair
    (i, k) weighs (w_i + w_k) / 2, and a folding weighs at most half the
    positions it pairs: every cell, and every sum of cells over disjoint
    intervals, is at most `B`.  So is each per-partner constant
    `w + dp[i+1, k-1]`, the value of a folding of `seq[i..k]`; the
    constants are computed in the table's dtype, so no result depends on
    numpy's promotion rules.

    Rows are filled from `n-1` down to `0`.  Row `i` is row `i+1`
    (position `i` left unpaired), with the columns `j >= K[0]` raised by
    one gathered max over the occurrences `K` of `match(seq[i])` after `i`
    to `w + dp[i+1, k-1] + dp[k+1, j]`, the best over `k` in `K`, in
    blocks of at most `_GATHER_CELLS` cells.  The cells `dp[i+1, k-1]` and
    the rows `k+1` are read through the per-code arrays `positions - 1` and
    `positions + 1` (see `_encode`), sliced from the first partner after
    `i`.  A row under one block copies the columns `j < K[0]` of row `i+1`
    and writes the others as the larger of row `i+1` and the gathered max.

    A row whose partners fill more than one block first drops each partner
    that wins no column.  Let `c_k = w + dp[i+1, k-1]`, and `k' < k` be
    consecutive in `K`.  The below rule drops `k` if `c_k <= dp[i+1, k]`,
    the chain rule if `c_k <= c_k' + dp[k'+1, k]`.  By superadditivity,
    `dp[a, b] + dp[b+1, c] <= dp[a, c]`, in every column `j >= k` the
    candidate `c_k + dp[k+1, j]` is then at most `dp[i+1, j]`, or at most
    the candidate of `k'`, itself kept or dropped by the same argument: so
    the row, and every witness read from the table, is unchanged.  Each sum
    is the value of a folding of `seq[i..k]`, so it fits the table's dtype
    as the constants do.  The chain rule reads the cells `dp[k'+1, k]` of
    consecutive positions of one code, which every row above `k'` reads
    alike, through their flat indices, made once per code on its first
    pruned row.  Rows under one block are not pruned: on the short
    strings of the verify suites the extra numpy calls per row cost more
    than the cells they save.

    A partner `k > j` reads `dp[k+1, j]`, below the diagonal `j = r-1` of
    empty intervals.  While the table is built those cells hold minus the
    maximum of the signed view of the dtype (int16 for uint16); a constant
    is between 0 and that maximum, so such a candidate is never positive
    and never overflows.  A row of a uint16 table whose values may pass
    that maximum -- it has a partner and `dp[i+1, n-1] + w` does -- is
    built unsigned, and so is every row above it: there a fill would
    collide with a value, so the cells `j < k` of each partner `k` are
    zeroed in the gathered block instead.  The final clamp of the signed rows and the zeroing of
    the unsigned rows' lower triangle set the cells below the diagonal
    back to zero.
    """
    n = len(seq)
    bound = sum(map(w_of.__getitem__, seq)) // 2
    for dtype in (np.uint16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            break
    else:
        raise RnaError("weights too large for 64-bit accumulation")
    dp = np.zeros((n + 2, n + 1), dtype=dtype)
    signed = dp.view(np.int16) if dtype is np.uint16 else dp
    top = np.iinfo(signed.dtype).max
    for r in range(2, n + 2):
        signed[r, : r - 1] = -top
    cols = np.arange(n + 1)

    def best(table, k0, plus, const, masked):
        """The best candidate `const + dp[k+1, j]` in each column `j >= k0`
        over the partners `k` of `plus = k + 1`, `k0` the first; `masked`
        zeroes the cells `j < k`."""
        cand = table[plus, k0:n]
        cand += const[:, None]
        if masked:
            span = int(plus[-1]) - 1 - k0
            cand[:, :span] *= cols[:span] >= (plus - (k0 + 1))[:, None]
        return cand.max(axis=0)

    # after[c]: the occurrences of code c after the current row
    after = [0] * len(match_of)
    # the rows below `unsigned_to` are built unsigned; 0 while none is
    unsigned_to = 0
    # chain[c]: the flat indices of the cells dp[k'+1, k] of the consecutive
    # positions k' < k of code c, made on its first pruned row
    chain = [None] * len(match_of)
    for i in range(n - 1, -1, -1):
        c = match_of[seq[i]]
        ks, pos, plus, minus = positions[c]
        t = len(ks) - after[c]
        after[seq[i]] += 1
        w = w_of[seq[i]]
        if not unsigned_to and bound > top and t < len(ks) and signed.item(i + 1, n - 1) + w > top:
            unsigned_to = i + 1
        table = dp if unsigned_to else signed
        row, below = table[i], table[i + 1]
        if t == len(ks):
            row[i:n] = below[i:n]
            continue
        k0 = ks[t]
        # In place, so in the table's dtype; w <= B, as i has a partner,
        # and a signed row has w <= top.
        const = below[minus[t:]]
        const += w
        if (len(ks) - t) * (n - k0) <= _GATHER_CELLS:
            row[i:k0] = below[i:k0]
            np.maximum(below[k0:n], best(table, k0, plus[t:], const, unsigned_to), out=row[k0:n])
            continue
        row[i:n] = below[i:n]
        # Each sum is a folding of seq[i..k]: at most B, and at most top in
        # a signed row.
        keep = const > below[pos[t:]]
        if chain[c] is None:
            chain[c] = plus[:-1] * (n + 1) + pos[1:]
        keep[1:] &= const[1:] > const[:-1] + table.reshape(-1)[chain[c][t:]]
        plus, const = plus[t:][keep], const[keep]
        t = 0
        while t < len(plus):
            k0 = int(plus[t]) - 1
            size = max(1, _GATHER_CELLS // (n - k0))
            tail = row[k0:n]
            np.maximum(tail, best(table, k0, plus[t : t + size], const[t : t + size], unsigned_to),
                       out=tail)
            t += size
    np.maximum(signed[unsigned_to:], 0, out=signed[unsigned_to:])
    for r in range(2, unsigned_to):
        dp[r, : r - 1] = 0
    return dp


def wrna(
    u,
    alphabet: MatchedAlphabet,
    want_pairs: bool = False,
    length_cap: int = DEFAULT_LENGTH_CAP,
) -> FoldResult:
    """Maximum-weight non-crossing matching value of `u`.

    With `want_pairs`, the witness is traced back through the table: an
    interval `[i, j]` whose value differs from `[i+1, j]` pairs `i` with the
    first partner `k` in `(i, j]`, in increasing order, whose split
    reproduces the value.  Two bisections of the partners' position list
    bound those in `(i, j]`, and the same slice of the views `k - 1` and
    `k + 1` tests them all in numpy.

    Refuses, in this order, an input longer than `length_cap`, a symbol
    outside the alphabet, and a bound `B` (half the total weight of `u`)
    past 2**63 - 1, which no table width holds.
    """
    u = tuple(u)
    if len(u) > length_cap:
        raise RnaError(f"input length {len(u)} exceeds the cap {length_cap}")
    seq, match_of, w_of, positions = _encode(u, alphabet)
    dp = _wrna_table(seq, match_of, w_of, positions)
    n = len(u)
    value = int(dp[0, n - 1])
    if not want_pairs:
        return FoldResult(value)
    at = dp.item
    pairs: list[tuple[int, int]] = []
    stack = [(0, n - 1)]
    while stack:
        i, j = stack.pop()
        if i >= j:
            continue
        best = at(i, j)
        if best == at(i + 1, j):
            stack.append((i + 1, j))
            continue
        ks, _, plus, minus = positions[match_of[seq[i]]]
        lo = bisect_right(ks, i)
        hi = bisect_right(ks, j, lo)
        # Two disjoint intervals fold to at most B together: no overflow.
        # A row and a column, each indexed in one dimension: cheaper than a
        # gather by a pair of indices.
        hits = (dp[i + 1][minus[lo:hi]] + dp[:, j][plus[lo:hi]] == best - w_of[seq[i]]).nonzero()[0]
        if not hits.size:
            raise RuntimeError(f"folding traceback found no partner for position {i + 1}")
        k = ks[lo + int(hits[0])]
        pairs.append((i + 1, k + 1))
        stack.append((i + 1, k - 1))
        stack.append((k + 1, j))
    return FoldResult(value, tuple(sorted(pairs)))


def rna(u, alphabet: MatchedAlphabet, want_pairs: bool = False,
        length_cap: int = DEFAULT_LENGTH_CAP) -> FoldResult:
    """Unweighted variant: every symbol weighs one."""
    unit = MatchedAlphabet(
        alphabet.symbols, alphabet.match, {s: 1 for s in alphabet.symbols}
    )
    return wrna(u, unit, want_pairs, length_cap)


def weighted_to_unweighted(u, alphabet: MatchedAlphabet) -> tuple[Symbol, ...]:
    """Repeat each symbol by its weight; the unit-weight folding value of the
    result equals the weighted value of the original."""
    out: list[Symbol] = []
    for s in u:
        out.extend([s] * alphabet.weight[s])
    return tuple(out)


def check_decomposition(x, a: Symbol, y, b: Symbol, z, alphabet: MatchedAlphabet) -> bool:
    """Splitting identity for a dominant matched pair around an infix.

    Requires match(a) = b, neither occurring in x, y, z, and w(a) larger than
    the total weight of y; evaluates both sides by DP.
    """
    x, y, z = tuple(x), tuple(y), tuple(z)
    if alphabet.match[a] != b:
        raise RnaError("precondition failed: match(a) != b")
    for part, name in ((x, "x"), (y, "y"), (z, "z")):
        if a in part or b in part:
            raise RnaError(f"precondition failed: pair symbol occurs in {name}")
    if alphabet.weight[a] <= sum(alphabet.weight[s] for s in y):
        raise RnaError("precondition failed: w(a) must dominate y's weight")
    u = x + (a,) + y + (b,) + z
    lhs = wrna(u, alphabet).value
    rhs = (
        alphabet.weight[a]
        + wrna(x + z, alphabet).value
        + wrna(y, alphabet).value
    )
    return lhs == rhs


def check_reverse_and_match(u, alphabet: MatchedAlphabet) -> bool:
    """Folding value is invariant under reversal and under symbol-wise match."""
    u = tuple(u)
    base = wrna(u, alphabet).value
    rev = wrna(tuple(reversed(u)), alphabet).value
    mapped = wrna(tuple(alphabet.match[s] for s in u), alphabet).value
    return base == rev == mapped
