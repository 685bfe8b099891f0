"""Interned symbol universe shared by grammars, compressors, and boosters.

Every grammar value refers to symbols interned in one SymbolTable.  Ids are
dense small integers for ordinary symbols; the sentinel families used by the
boosting constructions live in reserved id ranges so that symbols produced by
independent constructions never collide.  Every ordinary symbol, a fresh
nonterminal included, is minted on one path, `SymbolTable._intern`, which
refuses an empty display, one holding whitespace and a sentinel's display
as a nonterminal.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

TERMINAL = "terminal"
NONTERMINAL = "nonterminal"

_SENTINEL_BASE = 1_000_000_000
_FAMILY_SPAN = 1_000_000


class SentinelFamily(Enum):
    """Terminal families with a rendered prefix and an integer index."""

    DOLLAR = (0, "$_")
    DOLLAR_PRIME = (1, "$'_")
    HASH = (2, "#_")
    HASH_PRIME = (3, "#'_")
    HASH_L = (4, "#L_")
    HASH_R = (5, "#R_")
    HASH_PRIME_L = (6, "#'L_")
    HASH_PRIME_R = (7, "#'R_")

    @property
    def prefix(self) -> str:
        return self.value[1]

    def display(self, index: int) -> str:
        return f"{self.prefix}{index}"

    def reserved_id(self, index: int) -> int:
        return _SENTINEL_BASE + self.value[0] * _FAMILY_SPAN + index


_PREFIX_TO_FAMILY = {fam.prefix: fam for fam in SentinelFamily}
# Only a family's own display of an index names a sentinel; any other token,
# such as $_01 or $_0, is an ordinary symbol.
_SENTINEL_RE = re.compile(
    "(" + "|".join(map(re.escape, _PREFIX_TO_FAMILY)) + ")([1-9][0-9]*)"
)


def parse_sentinel_display(display: str) -> tuple[SentinelFamily, int] | None:
    """Return (family, index) when `display` renders a sentinel, else None."""
    m = _SENTINEL_RE.fullmatch(display)
    if m is None:
        return None
    return _PREFIX_TO_FAMILY[m.group(1)], int(m.group(2))


@dataclass(frozen=True, slots=True)
class Symbol:
    """One interned symbol.  Identity is the id; kind never changes."""

    id: int
    kind: str
    display: str

    def is_terminal(self) -> bool:
        return self.kind == TERMINAL

    def is_nonterminal(self) -> bool:
        return self.kind == NONTERMINAL

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.display}>"


class SymbolError(ValueError):
    pass


class SymbolTable:
    """Per-run symbol universe.  Interning is idempotent per display name."""

    def __init__(self) -> None:
        self._by_display: dict[str, Symbol] = {}
        self._by_id: dict[int, Symbol] = {}
        self._next_id = 0
        self._fresh_counters: dict[str, int] = {}

    def _register(self, sym: Symbol) -> Symbol:
        self._by_display[sym.display] = sym
        self._by_id[sym.id] = sym
        return sym

    def _intern(self, display: str, kind: str) -> Symbol:
        if display.split() != [display]:
            raise SymbolError(f"bad symbol display {display!r}")
        sent = parse_sentinel_display(display)
        if sent is not None:
            if kind == NONTERMINAL:
                raise SymbolError(f"sentinel {display!r} cannot be a nonterminal")
            return self.sentinel(*sent)
        existing = self._by_display.get(display)
        if existing is not None:
            if existing.kind != kind:
                raise SymbolError(
                    f"symbol {display!r} already interned as {existing.kind}"
                )
            return existing
        sym = Symbol(self._next_id, kind, display)
        self._next_id += 1
        return self._register(sym)

    def terminal(self, display: str) -> Symbol:
        return self._intern(display, TERMINAL)

    def nonterminal(self, display: str) -> Symbol:
        return self._intern(display, NONTERMINAL)

    def sentinel(self, family: SentinelFamily, index: int) -> Symbol:
        """Terminal from a reserved family; index is 1-based."""
        if index < 1 or index >= _FAMILY_SPAN:
            raise SymbolError(f"sentinel index {index} out of range")
        display = family.display(index)
        existing = self._by_display.get(display)
        if existing is not None:
            return existing
        sym = Symbol(family.reserved_id(index), TERMINAL, display)
        return self._register(sym)

    def fresh_nonterminal(self, prefix: str = "N") -> Symbol:
        """A new nonterminal named `prefix` and the first number, past the
        last one minted for `prefix`, whose name is free, minted on the one
        path `nonterminal` takes and refused as it would refuse the name."""
        n = self._fresh_counters.get(prefix, 0)
        while True:
            n += 1
            display = f"{prefix}{n}"
            if display not in self._by_display:
                break
        self._fresh_counters[prefix] = n
        return self._intern(display, NONTERMINAL)

    def by_id(self, symbol_id: int) -> Symbol:
        return self._by_id[symbol_id]

    def get(self, display: str) -> Symbol | None:
        return self._by_display.get(display)

    def owns(self, sym: Symbol) -> bool:
        """Whether `sym` is this table's own symbol object, not one equal
        to it by value from another table."""
        return self._by_id.get(sym.id) is sym

    def chars(self, text: str) -> tuple[Symbol, ...]:
        """Intern every character of `text` as a terminal, each distinct
        one once and in order of first appearance."""
        syms = {ch: self.terminal(ch) for ch in dict.fromkeys(text)}
        return tuple(map(syms.__getitem__, text))
