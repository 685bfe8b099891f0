"""Straight-line grammar model: measurements, conversions, and text format.

An SLG maps every nonterminal to exactly one right-hand side and its rule
dependencies are acyclic, so each symbol expands to a unique terminal string.
All operations here are pure; grammar values are never mutated after
construction.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .symbols import Symbol, SymbolError, SymbolTable, parse_sentinel_display

# Expansion lengths are tracked with 64-bit semantics; exceeding this is a
# hard error instead of silent wraparound.
MAX_EXPANSION = 2**63 - 1


class GrammarError(ValueError):
    pass


class GrammarParseError(GrammarError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class GrammarStats:
    size: int
    num_nonterminals: int
    expansion_length: int
    total_expansion: int
    height: int


class SLG:
    """Straight-line grammar over a SymbolTable.

    `rules` maps each nonterminal to its definition (a tuple of symbols) and
    `start` names the starting nonterminal.  Construction validates the SLG
    shape: every symbol is interned in `table`, every nonterminal on a
    right-hand side has a rule, and the rule dependencies admit a
    topological order.
    """

    __slots__ = ("table", "rules", "start", "_topo", "_lens", "_heights")

    def __init__(
        self,
        rules: dict[Symbol, tuple[Symbol, ...]],
        start: Symbol,
        table: SymbolTable,
    ):
        self.table = table
        self.rules = {head: tuple(body) for head, body in rules.items()}
        self.start = start
        self._lens: dict[Symbol, int] | None = None
        self._heights: dict[Symbol, int] | None = None
        self._topo = self._walk()

    def _walk(self) -> tuple[Symbol, ...]:
        """Check the SLG shape; return the children-before-parents order.

        One depth-first walk from every rule, in rule order, meets each
        distinct symbol object once.  Its state is keyed by `id()`, so a
        symbol of another table that equals an owned one by value is met
        and refused too; the ids stay valid because the rules hold every
        symbol.
        """
        rules, owns, start = self.rules, self.table.owns, self.start
        if not start.is_nonterminal():
            raise GrammarError("start symbol must be a nonterminal")
        if start not in rules:
            raise GrammarError(f"start symbol {start.display} has no rule")
        if not owns(start):
            raise GrammarError(f"symbol {start.display} is not interned in this table")
        seen: dict[int, bool] = {}  # False while on the stack, True once done
        order: list[Symbol] = []
        for root in rules:
            if not root.is_nonterminal():
                raise GrammarError(f"rule head {root.display} is not a nonterminal")
            if id(root) in seen:
                continue
            if not owns(root):
                raise GrammarError(f"symbol {root.display} is not interned in this table")
            seen[id(root)] = False
            stack = [(root, iter(rules[root]))]
            while stack:
                node, rest = stack[-1]
                for sym in rest:
                    done = seen.get(id(sym))
                    if done:
                        continue
                    if done is not None:
                        raise GrammarError(f"cycle through nonterminal {sym.display}")
                    nonterminal = sym.is_nonterminal()
                    if nonterminal and sym not in rules:
                        # name its first user in rule order, not in walk order
                        user = next(h for h, body in rules.items() if sym in body)
                        raise GrammarError(
                            f"nonterminal {sym.display} used in rhs({user.display}) "
                            "has no rule"
                        )
                    if not owns(sym):
                        raise GrammarError(
                            f"symbol {sym.display} is not interned in this table"
                        )
                    seen[id(sym)] = not nonterminal
                    if nonterminal:
                        stack.append((sym, iter(rules[sym])))
                        break
                else:
                    stack.pop()
                    seen[id(node)] = True
                    order.append(node)
        return tuple(order)

    # -- derived measurements, cached lazily ------------------------------

    def topological(self) -> tuple[Symbol, ...]:
        return self._topo

    def expansion_lengths(self) -> dict[Symbol, int]:
        if self._lens is None:
            lens: dict[Symbol, int] = {}
            for head in self.topological():
                total = 0
                for sym in self.rules[head]:
                    total += lens[sym] if sym.is_nonterminal() else 1
                    if total > MAX_EXPANSION:
                        raise OverflowError(
                            f"expansion length of {head.display} exceeds 64-bit range"
                        )
                lens[head] = total
            self._lens = lens
        return self._lens

    def heights(self) -> dict[Symbol, int]:
        if self._heights is None:
            hts: dict[Symbol, int] = {}
            for head in self.topological():
                best = -1
                for sym in self.rules[head]:
                    best = max(best, hts[sym] if sym.is_nonterminal() else 0)
                hts[head] = best + 1 if best >= 0 else 0
            self._heights = hts
        return self._heights

    @property
    def size(self) -> int:
        return sum(len(body) for body in self.rules.values())

    def terminals(self) -> frozenset[Symbol]:
        return _terminals(self.rules.values())

    def __repr__(self) -> str:  # pragma: no cover
        return f"SLG(start={self.start.display}, rules={len(self.rules)})"


def _terminals(bodies) -> frozenset[Symbol]:
    """The terminals that occur in `bodies`, of an SLG or a CFG."""
    return frozenset(sym for body in bodies for sym in body if sym.is_terminal())


def reachable_nonterminals(g: SLG) -> dict[Symbol, int]:
    """Each nonterminal reachable from the start, with its rank in a
    preorder walk that reads every body left to right."""
    rank: dict[Symbol, int] = {}
    stack = [g.start]
    while stack:
        node = stack.pop()
        if node in rank:
            continue
        rank[node] = len(rank)
        for sym in reversed(g.rules[node]):
            if sym.is_nonterminal() and sym not in rank:
                stack.append(sym)
    return rank


def expand(g: SLG, x: Symbol) -> tuple[Symbol, ...]:
    """The unique terminal string derived from `x`."""
    if x.is_terminal():
        return (x,)
    if x not in g.rules:
        raise GrammarError(f"symbol not in grammar: {x.display}")
    return expand_all(g)[x]


def expand_all(g: SLG) -> dict[Symbol, tuple[Symbol, ...]]:
    """Expansions of every nonterminal, in one bottom-up pass."""
    g.expansion_lengths()  # overflow guard before materializing
    memo: dict[Symbol, tuple[Symbol, ...]] = {}
    for head in g.topological():
        parts: list[Symbol] = []
        for sym in g.rules[head]:
            if sym.is_terminal():
                parts.append(sym)
            else:
                parts.extend(memo[sym])
        memo[head] = tuple(parts)
    return memo


def expand_text(g: SLG, x: Symbol | None = None) -> str:
    """Expansion joined into a plain string of terminal displays."""
    return "".join(s.display for s in expand(g, x if x is not None else g.start))


def stats(g: SLG) -> GrammarStats:
    lens = g.expansion_lengths()
    total = sum(lens.values())
    if total > MAX_EXPANSION:
        raise OverflowError("total expansion exceeds 64-bit range")
    return GrammarStats(
        size=g.size,
        num_nonterminals=len(g.rules),
        expansion_length=lens[g.start],
        total_expansion=total,
        height=g.heights()[g.start],
    )


def is_admissible(g: SLG) -> bool:
    """Every definition has length 2 and every nonterminal is reachable."""
    if any(len(body) != 2 for body in g.rules.values()):
        return False
    return len(reachable_nonterminals(g)) == len(g.rules)


def _dyadic_split(n: int) -> int:
    """The largest power of two below `n` (for n >= 2): the length of the
    left half in Bisection's split of a string of length `n`."""
    return 1 << (n - 1).bit_length() - 1


def is_dyadic(g: SLG) -> bool:
    """Admissible, and each rule splits its expansion as Bisection does:
    the left child expands to the largest power of two below the rule's
    expansion length."""
    if not is_admissible(g):
        return False
    lens = g.expansion_lengths()

    def ln(sym: Symbol) -> int:
        return lens[sym] if sym.is_nonterminal() else 1

    for body in g.rules.values():
        left, right = ln(body[0]), ln(body[1])
        if left != _dyadic_split(left + right):
            return False
    return True


def make_admissible(g: SLG) -> SLG:
    """Equivalent admissible grammar of size at most twice the input's.

    Empty-expanding nonterminals are dropped from all definitions, the rule
    graph is pruned of single-successor vertices (inlining them), and every
    surviving definition is binarized by repeated left-to-right pairing.

    Past the length check the start's redirect chain ends in `bodies`: each
    link expands to the start's expansion, which no terminal does, and the
    chain stops at a nonterminal whose body keeps two symbols or more.
    """
    lens = g.expansion_lengths()
    if lens[g.start] < 2:
        raise GrammarError("expansion too short")

    # Definitions without zero-length symbols, restricted to the reachable
    # part.  Nonterminals expanding to the empty string disappear entirely.
    # Rule order, not set order, so that fresh names do not depend on hashing.
    reach = reachable_nonterminals(g)
    bodies: dict[Symbol, list[Symbol]] = {}
    for head in g.rules:
        if head not in reach or lens[head] == 0:
            continue
        bodies[head] = [
            s for s in g.rules[head] if s.is_terminal() or lens[s] > 0
        ]

    # Prune vertices with exactly one outgoing edge, deepest-first.  The
    # redirect map sends a pruned nonterminal to the symbol it stood for;
    # children are pruned before their parents, so that symbol is final.
    redirect: dict[Symbol, Symbol] = {}
    for head in g.topological():
        if head not in bodies:
            continue
        if len(bodies[head]) == 1:
            sym = bodies[head][0]
            redirect[head] = redirect.get(sym, sym)
            del bodies[head]

    start = redirect.get(g.start, g.start)
    table = g.table
    out: dict[Symbol, tuple[Symbol, ...]] = {}
    for head, body in bodies.items():
        u = [redirect.get(s, s) for s in body]
        while len(u) > 2:
            k = len(u) // 2
            packed: list[Symbol] = []
            for i in range(k):
                fresh = table.fresh_nonterminal("A")
                out[fresh] = (u[2 * i], u[2 * i + 1])
                packed.append(fresh)
            u = packed + u[2 * k :]
        out[head] = tuple(u)
    return SLG(out, start, table)


def is_isomorphic(g1: SLG, g2: SLG) -> bool:
    """Structural equality up to nonterminal renaming, terminals fixed.

    A renaming is fixed by the images of its roots: the start and every
    nonterminal that no body uses.  The start goes to the start; the other
    roots are paired by a backtracking search that tries `bind`, a parallel
    walk, on copies of the maps.  A nonterminal and its image have equally
    many uses, which prunes the search.
    """
    if g1.terminals() != g2.terminals() or len(g1.rules) != len(g2.rules):
        return False
    uses1, uses2 = _uses(g1), _uses(g2)
    if sorted(uses1.values()) != sorted(uses2.values()):
        return False

    def bind(fwd, bwd, a, b) -> bool:
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            if a in fwd or b in bwd:
                if fwd.get(a) != b or bwd.get(b) != a:
                    return False
                continue
            fwd[a] = b
            bwd[b] = a
            ra, rb = g1.rules[a], g2.rules[b]
            if len(ra) != len(rb) or uses1[a] != uses2[b]:
                return False
            for x, y in zip(ra, rb):
                if x.is_terminal() or y.is_terminal():
                    if x != y:
                        return False
                else:
                    stack.append((x, y))
        return True

    fwd: dict[Symbol, Symbol] = {}
    bwd: dict[Symbol, Symbol] = {}
    if not bind(fwd, bwd, g1.start, g2.start):
        return False
    roots1 = [x for x in g1.rules if not uses1[x] and x != g1.start]
    roots2 = [x for x in g2.rules if not uses2[x] and x != g2.start]
    # Frame i holds the maps before roots1[i] is bound and its untried
    # images; an explicit stack keeps off the recursion limit.
    frames = [(fwd, bwd, iter(roots2))]
    while frames and len(frames) <= len(roots1):
        fwd, bwd, candidates = frames[-1]
        for b in candidates:
            if b in bwd:
                continue
            f, w = dict(fwd), dict(bwd)
            if bind(f, w, roots1[len(frames) - 1], b):
                frames.append((f, w, iter(roots2)))
                break
        else:
            frames.pop()
    return bool(frames)


def _uses(g: SLG) -> Counter:
    """How often each nonterminal occurs on the right-hand sides."""
    return Counter(s for body in g.rules.values() for s in body if s.is_nonterminal())


def random_access(g: SLG, i: int) -> Symbol:
    """The i-th terminal (1-based) of exp(start), by length-guided descent."""
    lens = g.expansion_lengths()
    if i < 1 or i > lens[g.start]:
        raise GrammarError(f"position {i} out of range")
    node = g.start
    while True:
        for sym in g.rules[node]:
            span = lens[sym] if sym.is_nonterminal() else 1
            if i <= span:
                if sym.is_terminal():
                    return sym
                node = sym
                break
            i -= span


# -- text format -------------------------------------------------------------
#
#   HEAD -> tok tok ...
#
# The first line's head is the start symbol.  A token is a terminal unless it
# appears as some head; sentinel tokens use their rendered display.  Blank
# lines and full-line comments introduced by a lone '#' are ignored.


def serialize(g: SLG) -> str:
    """The text form that `deserialize` reads back.  Raises `GrammarError`
    for a head that would read back as something else: one holding `->`
    (a shorter head) or displayed `#` (a comment line)."""
    lines = []
    heads = [g.start] + [h for h in g.rules if h != g.start]
    for head in heads:
        if "->" in head.display or head.display == "#":
            raise GrammarError(f"rule head {head.display} has no text form that reads back")
        body = " ".join(s.display for s in g.rules[head])
        lines.append(f"{head.display} -> {body}".rstrip())
    return "\n".join(lines) + "\n"


def _content_lines(text: str):
    """`(line_no, stripped)` for every line of `text` that is neither blank
    nor a comment, with lines split by `str.splitlines`.  The comment rule of
    the grammar, CFG, alphabet and point formats: a stripped line that is '#'
    alone or '# ' and text.  A sentinel such as '#_1' starts with '#' but is
    no comment."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and line != "#" and not line.startswith("# "):
            yield line_no, line


def deserialize(text: str, table: SymbolTable) -> SLG:
    parsed: list[tuple[int, str, list[str]]] = []
    heads: dict[str, int] = {}
    for line_no, line in _content_lines(text):
        if "->" not in line:
            raise GrammarParseError("missing '->'", line_no)
        head_part, body_part = line.split("->", 1)
        head = head_part.strip()
        if not head:
            raise GrammarParseError("empty rule head", line_no)
        if len(head.split()) != 1:
            raise GrammarParseError(f"bad rule head {head!r}", line_no)
        if parse_sentinel_display(head) is not None:
            raise GrammarParseError(f"sentinel {head!r} cannot be a rule head", line_no)
        if head in heads:
            raise GrammarParseError(f"duplicate head {head!r}", line_no)
        heads[head] = line_no
        parsed.append((line_no, head, body_part.split()))
    if not parsed:
        raise GrammarParseError("no rules", 1)

    rules: dict[Symbol, tuple[Symbol, ...]] = {}
    for line_no, head, tokens in parsed:
        try:
            rules[table.nonterminal(head)] = tuple(
                table.nonterminal(tok) if tok in heads else table.terminal(tok)
                for tok in tokens
            )
        except SymbolError as exc:
            raise GrammarParseError(str(exc), line_no) from exc
    start = table.nonterminal(parsed[0][1])
    try:
        return SLG(rules, start, table)
    except GrammarError as exc:
        raise GrammarParseError(str(exc), parsed[0][0]) from exc
