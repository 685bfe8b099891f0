"""Verification suites: randomized end-to-end checks of the exact size and
value identities, shared by the command-line `verify` command and by the
acceptance tests.

Each suite generates its instances from a seeded RNG and emits one verdict
line per check per trial.  Lines carry stable check identifiers and expected
versus actual values; output is a pure function of the seed.

The suites of one instance family share one trial loop (`_boosted` for the
boosted strings, `_folded` for folding); a new law is a verdict in that loop.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from . import boost
from . import cfg as cfgmod
from . import compressors as comp
from . import generate as gen
from . import rna as rnamod
from .core import expand, is_dyadic, is_isomorphic
from .symbols import SymbolTable


@dataclass(frozen=True)
class Verdict:
    trial: int
    check: str
    detail: str
    ok: bool

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{self.trial:03d}] {self.check}: {self.detail} {status}"


class _Suite:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.rng = random.Random(f"{seed}:{name}")
        self.verdicts: list[Verdict] = []

    def record(self, trial: int, check: str, expected, actual) -> None:
        ok = expected == actual
        self.verdicts.append(
            Verdict(trial, check, f"expected={expected} actual={actual}", ok)
        )

    def record_le(self, trial: int, check: str, actual, bound) -> None:
        ok = actual <= bound
        self.verdicts.append(
            Verdict(trial, check, f"actual={actual} bound={bound}", ok)
        )

    def record_bool(self, trial: int, check: str, ok: bool, detail: str = "") -> None:
        self.verdicts.append(Verdict(trial, check, detail or "holds", bool(ok)))


def _boosted(s: _Suite, trials: int, max_nonterms: int, booster):
    """Each trial's number, fresh admissible grammar, |V| and `booster` result."""
    for trial in range(1, trials + 1):
        nv = s.rng.randint(1, max_nonterms)
        try:
            g = gen.random_admissible_slg(s.rng, nv, 4, 260, SymbolTable())
        except ValueError as exc:
            raise ValueError(f"{exc} (|V| is drawn from 1 to --max-nonterms {max_nonterms})") from exc
        yield trial, g, len(g.rules), booster(g)


# ---------------------------------------------------------------------------


def suite_global(seed: int, trials: int, max_nonterms: int) -> list[Verdict]:
    """Alpha identities plus the 7/2|G| law for all four global strategies."""
    s = _Suite("global", seed)
    for trial, g, nv, r in _boosted(s, trials, max_nonterms, boost.alpha):
        total = sum(g.expansion_lengths().values())
        w = r.text
        s.record(trial, "alpha-length-4x", 4 * total, len(w))
        u = expand(g, g.start)
        ok = all(u[j] == w[r.offset + 2 * j] for j in range(len(u)))
        s.record_bool(trial, "alpha-stride-offset", ok, f"offset={r.offset}")
        idx = list(range(1, nv + 1))
        sub = frozenset(s.rng.sample(idx, s.rng.randint(0, nv)))
        gi = boost.build_gi(g, sub)
        s.record_bool(
            trial,
            "alpha-subset-grammar-expansion",
            expand(gi.grammar, gi.grammar.start) == w,
            f"indices={sorted(sub)}",
        )
        g_full = boost.build_gi(g, frozenset(idx)).grammar
        for strat in comp.GlobalStrategy:
            out = comp.run_global(w, strat, g.table)
            s.record(trial, f"global-size-7/2|G|-{strat.value}", 7 * nv, out.size)
            s.record_bool(
                trial,
                f"global-final-grammar-{strat.value}",
                is_isomorphic(out, g_full),
                "isomorphic to the full-replacement grammar",
            )
    return s.verdicts


def suite_sequential(seed: int, trials: int, max_nonterms: int) -> list[Verdict]:
    s = _Suite("sequential", seed)
    for trial, g, nv, r in _boosted(s, trials, max_nonterms, boost.alpha):
        out = comp.sequential(r.text, g.table)
        s.record(trial, "sequential-size-7/2|G|", 7 * nv, out.size)
        s.record_bool(
            trial, "sequential-irreducible", comp.is_irreducible(out)
        )
    return s.verdicts


def suite_sequitur(seed: int, trials: int, max_nonterms: int) -> list[Verdict]:
    s = _Suite("sequitur", seed)
    for trial, g, nv, r in _boosted(s, trials, max_nonterms, boost.alpha):
        out = comp.sequitur(r.text, g.table)
        s.record(trial, "sequitur-size-7/2|G|", 7 * nv, out.size)
    return s.verdicts


def suite_lzd(seed: int, trials: int, max_nonterms: int) -> list[Verdict]:
    s = _Suite("lzd", seed)
    for trial, g, nv, r in _boosted(s, trials, max_nonterms, boost.beta):
        total = sum(g.expansion_lengths().values())
        s.record(trial, "beta-length-6x-4V", 6 * total - 4 * nv, len(r.text))
        fact, slg = comp.lzd(r.text, g.table)
        s.record(trial, "lzd-phrases-3V", 3 * nv, len(fact))
        s.record(trial, "lzd-size-9/2|G|", 9 * nv, slg.size)
    return s.verdicts


def suite_bisection(seed: int, trials: int, max_nonterms: int) -> list[Verdict]:
    s = _Suite("bisection", seed)

    def distinct_dyadic(u):
        ids = tuple(x.id for x in u)  # id tuples hash faster than symbol tuples
        seen, k = set(), 2
        while k <= len(ids):
            for a in range(0, len(ids) - k + 1, k):
                seen.add(ids[a : a + k])
            k *= 2
        return len(seen)

    for trial in range(1, trials + 1):
        table = SymbolTable()
        n = 2 ** s.rng.randint(1, 10)
        u = gen.random_string(s.rng, n, s.rng.randint(1, 4), table)
        out = comp.bisection(u, table)
        s.record(trial, "bisection-size-2x-dyadic", 2 * distinct_dyadic(u), out.size)
        gd = gen.random_dyadic_slg(s.rng, s.rng.randint(2, 600), 2, SymbolTable())
        ok = is_dyadic(gd)
        b = comp.bisection(expand(gd, gd.start), gd.table)
        s.record_bool(
            trial,
            "bisection-at-most-dyadic-grammar",
            ok and b.size <= gd.size,
            f"bisection={b.size} grammar={gd.size}",
        )
    return s.verdicts


def suite_lz78(seed: int, trials: int, max_nonterms: int) -> list[Verdict]:
    s = _Suite("lz78", seed)
    table = SymbolTable()
    for trial in range(1, trials + 1):
        k = s.rng.randint(1, 64)
        runs = gen.random_run_length_profile(s.rng, k)
        entries, pos = [], 0
        for color, ln in runs:
            entries.append((pos, color))
            pos += ln
        w = boost.lz78_hard_string(entries, k * k)
        fact, _ = comp.lz78(w, table)
        s.record_le(trial, "lz78-phrases-at-most-6k", len(fact), 6 * k)
        ok = True
        for _ in range(25):
            x = s.rng.randrange(k * k)
            color = [c for p, c in entries if p <= x][-1]
            ok = ok and w[x] == color
        s.record_bool(trial, "predecessor-readout", ok)
    return s.verdicts


def _random_cfg(rng, terminals, table) -> cfgmod.CFG:
    nts = [table.fresh_nonterminal("C") for _ in range(rng.randint(1, 3))]
    rules = []
    for i, head in enumerate(nts):
        for _ in range(rng.randint(1, 3)):
            pool = list(terminals) + nts[i:]
            body = tuple(rng.choice(pool) for _ in range(rng.randint(0, 3)))
            rules.append((head, body))
    # guarantee some terminal production so the language is often nonempty
    rules.append((nts[-1], (rng.choice(list(terminals)),)))
    return cfgmod.CFG(tuple(rules), nts[0])


def _recogniser(g: cfgmod.CFG):
    """Membership in L(g) as a function; a string with a symbol that is no
    terminal of g is not in L(g), where `cyk_member` refuses it."""
    terms = g.terminals()
    return lambda w: set(w) <= terms and cfgmod.cyk_member(g, w)


def _cfg_for_exact(u, table) -> cfgmod.CFG:
    head = table.fresh_nonterminal("C")
    return cfgmod.CFG(((head, tuple(u)),), head)


def suite_cfg(seed: int, trials: int, max_nonterms: int) -> list[Verdict]:
    """Primitive transformations exhaustively, then end-to-end re-targeting."""
    s = _Suite("cfg", seed)
    table = SymbolTable()
    a, b, c = (table.terminal(ch) for ch in "abc")
    d1 = table.sentinel(boost.D, 1)

    # Includes a unit rule and a nonterminal-bearing body so that malformed
    # interleaving would surface within the exhaustive length bound.
    e0, f0 = table.nonterminal("E0"), table.nonterminal("F0")
    base = cfgmod.CFG(
        (
            (e0, (a, b)),
            (e0, (b, e0, c)),
            (e0, (f0,)),
            (f0, (a,)),
            (f0, (f0, c)),
        ),
        e0,
    )

    # Each language up to length 6 is walked once, as tuples of terminal ids;
    # every equation is then a set lookup.  A string holding d1 is never in
    # the base language, nor in the prefixed one.
    sigma = (a, b, c, d1)
    ids = [x.id for x in sigma]
    words = [w for n in range(7) for w in product(ids, repeat=n)]
    lang, inter, pref, erased = (
        cfgmod.language_upto(g, sigma, 6)
        for g in (
            base,
            cfgmod.interleave(base, 1, 0, table),
            cfgmod.add_prefix(base, 2, (a, b, c), table),
            cfgmod.erase_closure(base, [d1], table),
        )
    )
    ok_i = all(
        (w in inter) == (bool(w) and len(w) % 2 == 0 and w[0::2] in lang)
        for w in words
    )
    ok_e = all(
        (w in erased) == (tuple(x for x in w if x != d1.id) in lang) for w in words
    )
    ok_p = all(
        (w in pref) == (len(w) >= 2 and w[2:] in lang) for w in words if d1.id not in w
    )
    s.record_bool(1, "interleave-language-equation", ok_i, "all strings up to length 6")
    s.record_bool(1, "add-prefix-language-equation", ok_p, "all strings up to length 6")
    s.record_bool(1, "erase-closure-language-equation", ok_e, "all strings up to length 6")

    for trial in range(1, trials + 1):
        tt = SymbolTable()
        g = gen.random_admissible_slg(s.rng, s.rng.randint(1, 4), 2, 36, tt)
        u = expand(g, g.start)
        kind = trial % 3
        if kind == 0:
            gamma_cfg = _cfg_for_exact(u, tt)
        elif kind == 1:
            other = list(u)
            i = s.rng.randrange(len(other))
            alpha_syms = sorted(g.terminals(), key=lambda x: x.id)
            other[i] = alpha_syms[(alpha_syms.index(other[i]) + 1) % len(alpha_syms)]
            gamma_cfg = _cfg_for_exact(other, tt)
        else:
            gamma_cfg = _random_cfg(s.rng, sorted(g.terminals(), key=lambda x: x.id), tt)
        in_lang = _recogniser(gamma_cfg)(u)
        wa = boost.alpha(g).text
        ga = _recogniser(cfgmod.gamma_prime_alpha(gamma_cfg, g))
        s.record(trial, "retarget-alpha-iff", in_lang, ga(wa))
        wb = boost.beta(g).text
        gb = _recogniser(cfgmod.gamma_prime_beta(gamma_cfg, g))
        s.record(trial, "retarget-beta-iff", in_lang, gb(wb))
    return s.verdicts


def _folded(s: _Suite, trials: int, cap: int, booster, min_rules: int = 1):
    """Each trial's number, grammar of 1 to cap // 7 rules under `cap`
    (redrawn at |V| = 2 below `min_rules`), `booster` result on a fresh
    matched alphabet, total expansion, and the folding values of the plain
    and boosted strings."""
    for trial in range(1, trials + 1):
        table = SymbolTable()
        alphabet = gen.random_matched_alphabet(s.rng, s.rng.randint(2, 3), 4, table)
        g = gen.random_admissible_slg(s.rng, s.rng.randint(1, max(1, cap // 7)), 2, cap, table)
        if len(g.rules) < min_rules:
            g = gen.random_admissible_slg(s.rng, 2, 2, cap, table)
        r = booster(g, alphabet)
        total = sum(g.expansion_lengths().values())
        wu = rnamod.wrna(expand(g, g.start), alphabet).value
        wv = rnamod.wrna(r.text, r.alphabet).value
        yield trial, g, r, total, wu, wv


def suite_rna_alpha(seed: int, trials: int, max_nonterms: int, cap: int = 40) -> list[Verdict]:
    s = _Suite("rna-alpha", seed)
    for trial, g, r, total, wu, wv in _folded(s, trials, cap, boost.rna_alpha):
        s.record(trial, "fold-alpha-length-8x", 8 * total, len(r.text))
        s.record(trial, "fold-alpha-value-2x-plus-offset", 2 * wu + r.offset, wv)
    return s.verdicts


def suite_rna_beta(seed: int, trials: int, max_nonterms: int, cap: int = 40) -> list[Verdict]:
    s = _Suite("rna-beta", seed)
    for trial, g, r, total, wu, wv in _folded(s, trials, cap, boost.rna_beta):
        s.record(trial, "fold-beta-length-16x", 16 * total, len(r.text))
        s.record(trial, "fold-beta-value-4x-plus-offset", 4 * wu + r.offset, wv)
        out = comp.sequential(r.text, g.table)
        s.record(
            trial, "fold-beta-sequential-11|G|", 22 * len(g.rules), out.size
        )
    return s.verdicts


def suite_gamma(seed: int, trials: int, max_nonterms: int, cap: int = 40) -> list[Verdict]:
    s = _Suite("gamma", seed)
    for trial, g, r, total, wu, wv in _folded(s, trials, cap, boost.gamma, min_rules=2):
        nv = len(g.rules)
        s.record_le(trial, "fold-gamma-length-12x-plus-5", len(r.text), 12 * total + 5)
        s.record(trial, "fold-gamma-value-2c0-plus-base", 2 * r.offset + wu, wv)
        fact, slg = comp.lzd(r.text, g.table)
        s.record(trial, "fold-gamma-lzd-18V-6", 18 * nv - 6, slg.size)
        s.record_le(trial, "fold-gamma-lzd-at-most-9|G|", slg.size, 9 * (2 * nv))
    return s.verdicts


SUITES = {
    "global": suite_global,
    "sequential": suite_sequential,
    "sequitur": suite_sequitur,
    "lzd": suite_lzd,
    "bisection": suite_bisection,
    "lz78": suite_lz78,
    "cfg": suite_cfg,
    "rna-alpha": suite_rna_alpha,
    "rna-beta": suite_rna_beta,
    "gamma": suite_gamma,
}


def run_suite(name: str, seed: int, trials: int, max_nonterms: int) -> list[Verdict]:
    if name == "all":
        out: list[Verdict] = []
        for key in SUITES:
            out.extend(SUITES[key](seed, trials, max_nonterms))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](seed, trials, max_nonterms)
