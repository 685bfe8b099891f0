"""The benchmark's four workloads.

Each workload has these parts, all given the namespace `sl` that holds the
slglab package and its nine modules:

* `setup(sl, rng)` builds the seeded inputs and warms up; it returns the
  state the passes share.
* `operations(sl, state)` lists the operations of one pass.  Each is a
  function of the list of the pass's earlier outputs (a fold reads the
  string the booster before it made) and returns its own output.  The
  runner times every operation on its own.
* `check(sl, state, outputs)` returns a list of problems with one pass's
  outputs, found by properties the methods must have and by the reference
  code in `oracles.py`; it never compares against stored output.
* `count(state, outputs)` returns the operations attempted and failed in
  the pass.  Only verify-all can fail an operation short of raising: a
  FAIL verdict.

Functions are looked up on their module at call time, so the tracer's
wrappers are the ones that run in a traced pass.
"""
from __future__ import annotations

import contextlib
import io
from collections import Counter

import oracles

# -- verify-all ------------------------------------------------------------------

# The suites of `slglab verify --suite all`, in the order it runs them, with
# the verdicts each prints per trial and regardless of the trial count.  A
# pass runs them as one `slglab verify --suite <name>` call each, so that
# each suite is timed on its own; the set-up runs `--suite all` once.
SUITES = (
    ("global", 11, 0),  # 3 + 2 per strategy, 4 strategies
    ("sequential", 2, 0),
    ("sequitur", 1, 0),
    ("lzd", 3, 0),
    ("bisection", 2, 0),
    ("lz78", 2, 0),
    ("cfg", 2, 3),  # plus three trial-independent language checks
    ("rna-alpha", 2, 0),
    ("rna-beta", 3, 0),
    ("gamma", 4, 0),
)
# The suites draw instance sizes from the seed, with a heavy tail: at most
# 10 nonterminals and 60 trials, one seed's run of the ten suites varied by
# 14% (IQR over median, 12 seeds; CYK and folding vary most).  A pass
# therefore runs the ten suites for VERIFY_SEEDS seeds drawn from the
# benchmark seed: five times as many instances, and a spread of about 8%.
# At the default of 30 nonterminals the spread was wider still.
VERIFY_SEEDS = 5
VERIFY_TRIALS = 60
VERIFY_MAX_NONTERMS = 10


def _verify(sl, suite, seed, trials):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sl.cli.main([
            "verify", "--suite", suite, "--trials", str(trials),
            "--max-nonterms", str(VERIFY_MAX_NONTERMS), "--seed", str(seed),
        ])
    return code, buf.getvalue().splitlines()


def _verdicts(lines):
    return [ln for ln in lines if ln.startswith("[")]


def verify_setup(sl, rng):
    seeds = [rng.randrange(2**31) for _ in range(VERIFY_SEEDS)]
    # A one-trial `--suite all` run of the first seed: it must print exactly
    # the [001] lines of that seed's per-suite runs, in suite order.
    _, warm = _verify(sl, "all", seeds[0], 1)
    return {"seeds": seeds, "warm": _verdicts(warm)}


def _verify_runs(state):
    """(seed, suite, verdicts per trial, trial-independent verdicts) in pass order."""
    return [(seed, *suite) for seed in state["seeds"] for suite in SUITES]


def verify_operations(sl, state):
    return [lambda out, seed=seed, suite=suite: _verify(sl, suite, seed, VERIFY_TRIALS)
            for seed, suite, _, _ in _verify_runs(state)]


def verify_count(state, outputs):
    attempted = failed = 0
    for (_, _, per_trial, fixed), (_, lines) in zip(_verify_runs(state), outputs):
        expected = per_trial * VERIFY_TRIALS + fixed
        verdicts = _verdicts(lines)
        attempted += expected
        failed += sum(ln.endswith(" FAIL") for ln in verdicts) + max(0, expected - len(verdicts))
    return attempted, failed


def verify_check(sl, state, outputs):
    problems = []
    first_trial = []
    for (seed, suite, per_trial, fixed), (code, lines) in zip(_verify_runs(state), outputs):
        expected = per_trial * VERIFY_TRIALS + fixed
        verdicts = _verdicts(lines)
        summary = f"suite={suite} seed={seed} checks={expected} failed=0"
        if code != 0:
            problems.append(f"verify {suite} seed {seed}: exit code {code}")
        if len(verdicts) != expected:
            problems.append(f"verify {suite} seed {seed}: {len(verdicts)} verdicts, expected {expected}")
        if not lines or lines[-1] != summary:
            problems.append(f"verify {suite} seed {seed}: last line {lines[-1:]!r}, expected {summary!r}")
        if seed == state["seeds"][0]:
            first_trial += [ln for ln in verdicts if ln.startswith("[001]")]
    if first_trial != state["warm"]:
        problems.append("verify: trial 1 of the per-suite runs differs from a 1-trial --suite all run")
    # Every pass runs the same seeds, so every pass must print the same stream.
    if state.setdefault("stream", outputs) != outputs:
        problems.append("verify: the verdict stream changed between passes of one seed")
    return problems


# -- compress-text ---------------------------------------------------------------

# Nine compressors, named as `slglab compress --alg` names them.
COMPRESSORS = (
    ("repair", "repair"),
    ("repair2", "repair_pairs_only"),
    ("greedy", "greedy"),
    ("longest", "longest_match"),
    ("sequential", "sequential"),
    ("sequitur", "sequitur"),
    ("bisection", "bisection"),
    ("lz78", "lz78"),
    ("lzd", "lzd"),
)
GLOBAL = ("repair", "repair2", "greedy", "longest")
# (kind, length, alphabet size); every length is a power of two so that the
# Bisection law applies.  Sequential is quadratic on 16 letters, so that text
# is the shortest.
TEXTS = (("random-2", 1024, 2), ("random-16", 512, 16), ("periodic", 1024, 4))
PERIOD = 8


def _is_primitive(word):
    return all(word != word[p:] + word[:p] for p in range(1, len(word)))


def compress_setup(sl, rng):
    table = sl.symbols.SymbolTable()
    texts = {}
    for kind, n, letters in TEXTS:
        if kind == "periodic":
            word = sl.generate.random_string(rng, PERIOD, letters, table)
            while not _is_primitive(word):
                word = sl.generate.random_string(rng, PERIOD, letters, table)
            syms = word * (n // PERIOD)
        else:
            syms = sl.generate.random_string(rng, n, letters, table)
        texts[kind] = "".join(s.display for s in syms)
    for text in texts.values():
        for _, fn in COMPRESSORS:
            getattr(sl.compressors, fn)(text[:64], sl.symbols.SymbolTable())
    return {"texts": texts}


def compress_operations(sl, state):
    # a fresh table per call, as `slglab compress` does
    return [lambda out, text=text, fn=fn: getattr(sl.compressors, fn)(text, sl.symbols.SymbolTable())
            for text in state["texts"].values() for _, fn in COMPRESSORS]


def _lz78_problem(g, fact):
    phrases = g.rules[g.start]
    earlier = set()
    pos = 1
    for j, (head, ph) in enumerate(zip(phrases, fact.phrases)):
        exp = oracles.expansion(g.rules, head)
        last = j == len(phrases) - 1
        if ph.start != pos or ph.length != len(exp) or not exp:
            return f"phrase {j + 1} does not tile the input"
        pos += len(exp)
        if exp[:-1] and exp[:-1] not in earlier and not (last and exp in earlier):
            return f"phrase {j + 1} extends no earlier phrase"
        if exp in earlier and not last:
            return f"phrase {j + 1} repeats an earlier phrase"
        earlier.add(exp)
    if len(phrases) != len(fact.phrases):
        return "factorization and grammar disagree on the phrase count"
    return None


def compress_check(sl, state, outputs):
    problems = []
    runs = [(kind, alg) for kind in state["texts"] for alg, _ in COMPRESSORS]
    for (kind, alg), out in zip(runs, outputs):
        fact, g = out if isinstance(out, tuple) else (None, out)
        where = f"{alg} on {kind}"
        text = state["texts"][kind]
        got = "".join(s.display for s in oracles.expansion(g.rules, g.start))
        if got != text:
            problems.append(f"{where}: grammar does not expand to the input")
            continue
        if alg in GLOBAL + ("sequential", "sequitur"):
            d = oracles.repeated_digram(g.rules)
            if d is not None:
                problems.append(f"{where}: digram {d} occurs twice without overlap")
        if alg in ("sequential", "sequitur"):
            under = oracles.underused_rules(g.rules, g.start)
            if under:
                problems.append(f"{where}: {len(under)} secondary rules used fewer than twice")
        if alg == "lz78":
            why = _lz78_problem(g, fact)
            if why:
                problems.append(f"{where}: {why}")
        if alg == "bisection":
            want = 2 * oracles.distinct_dyadic_blocks(text)
            if g.size != want:
                problems.append(f"{where}: size {g.size}, twice the dyadic blocks is {want}")
    return problems


# -- boost-fold-parse --------------------------------------------------------------

# Each grammar is drawn to a target total expansion (sigma), so that a
# pass's work hardly moves with the seed: the DPs are cubic in the length.
# (count, nonterminals, letters, sigma, tolerance, draws)
# Alpha, beta and build_gi: 200 nonterminals, where the verify suites draw at
# most 30; their cost is near linear in sigma, so 5% is close enough.
BIG = (2, 200, 4, 4500, 225, 10)
# Folding: the rna-beta string (16 sigma) has about 2400 symbols, near the
# 3000-symbol cap of the folding DP.  At a fixed length the DP's cost follows
# the number of matched position pairs, which the draw moved by up to twofold
# (fold times 0.58 to 0.84 s at sigma 150), so the fold grammar is drawn to a
# target of that count as well (`FOLD_PAIRS`).
FOLD = (1, 16, 3, 150, 2, 600)
FOLD_PAIRS = (100_000, 0.03)  # on the rna-alpha string; target, relative tolerance
# CYK: pure-Python CYK is cubic; the beta string has 6 * 30 - 4 * 6 = 156
# symbols.
CYK = (2, 6, 2, 30, 0, 400)


def _matched_pairs(boosted):
    """Ordered position pairs (i, k) of a boosted string whose letters match."""
    counts = Counter(boosted.text)
    match = boosted.alphabet.match
    return sum(n * counts[match[a]] for a, n in counts.items() if a in match)


def _draw_near(sl, rng, spec, matched=False, pairs=None):
    """The first of `draws` grammars whose total expansion is within
    `tolerance` of `sigma`, else the closest; with its matched alphabet of
    one pair per letter when `matched`.  With `pairs` = (target, relative
    tolerance), the rna-alpha string of the grammar must also have that
    many matched pairs.  All `draws` are made whatever the outcome, so that
    the set-up's cost does not move with the seed."""
    _, nonterms, letters, sigma, tolerance, draws = spec
    best = None
    for _ in range(draws):
        table = sl.symbols.SymbolTable()
        alphabet = sl.generate.random_matched_alphabet(rng, letters, 4, table) if matched else None
        g = sl.generate.random_admissible_slg(rng, nonterms, letters, 2 * sigma, table)
        gap = (max(0, abs(sum(oracles.expansion_lengths(g.rules).values()) - sigma) - tolerance), 0.0)
        if pairs is not None and gap[0] == 0:
            target, within = pairs
            off = abs(_matched_pairs(sl.boost.rna_alpha(g, alphabet)) / target - 1)
            gap = (0, max(0.0, off - within))
        if best is None or gap < best[0]:
            best = (gap, g, alphabet)
    return best[1], best[2]


def _exact_cfg(sl, g, word):
    head = g.table.fresh_nonterminal("C")
    return sl.cfg.CFG(((head, tuple(word)),), head)


def boost_setup(sl, rng):
    big = []
    for _ in range(BIG[0]):
        g, _ = _draw_near(sl, rng, BIG)
        subset = frozenset(i for i in range(1, len(g.rules) + 1) if rng.random() < 0.5)
        big.append((g, subset))
    fold = [_draw_near(sl, rng, FOLD, matched=True, pairs=FOLD_PAIRS) for _ in range(FOLD[0])]
    cyk = []
    for _ in range(CYK[0]):
        g, _ = _draw_near(sl, rng, CYK)
        u = list(oracles.expansion(g.rules, g.start))
        letters = sl.generate.terminal_alphabet(g.table, 2)
        i = rng.randrange(len(u))
        mutant = u[:i] + [letters[(letters.index(u[i]) + 1) % len(letters)]] + u[i + 1:]
        cyk.append((g, mutant))
    state = {"big": big, "fold": fold, "cyk": cyk}
    # Warm up on the smallest inputs: one of each operation.
    g, alphabet = _draw_near(sl, rng, (1, 3, 3, 12, 3, 40), matched=True)
    r = sl.boost.rna_beta(g, alphabet)
    sl.rna.wrna(r.text, r.alphabet, want_pairs=True)
    sl.boost.build_gi(g, frozenset({1}))
    _parse(sl, g, None, sl.boost.beta(g).text, "gamma_prime_beta")
    return state


def _parse(sl, g, word, boosted, retarget):
    """CYK on a boosted string of `g` against the CFG of `word` (the source
    text when None), re-targeted by `retarget`; building the CFG is part of
    the operation."""
    word = sl.core.expand(g, g.start) if word is None else word
    return sl.cfg.cyk_member(getattr(sl.cfg, retarget)(_exact_cfg(sl, g, word), g), boosted)


def boost_operations(sl, state):
    bo, rna, core = sl.boost, sl.rna, sl.core
    ops = []
    for g, subset in state["big"]:
        ops += [lambda out, g=g: bo.alpha(g), lambda out, g=g: bo.beta(g),
                lambda out, g=g, s=subset: bo.build_gi(g, s)]
    for g, alphabet in state["fold"]:
        for booster in ("rna_alpha", "rna_beta", "gamma"):
            ops += [lambda out, g=g, a=alphabet, b=booster: getattr(bo, b)(g, a),
                    lambda out: rna.wrna(out[-1].text, out[-1].alphabet, want_pairs=True)]
        ops.append(lambda out, g=g, a=alphabet: rna.wrna(core.expand(g, g.start), a, want_pairs=True))
    for g, mutant in state["cyk"]:
        at = len(ops)  # out[at] and out[at + 1] hold the alpha and beta strings
        ops += [lambda out, g=g: bo.alpha(g).text, lambda out, g=g: bo.beta(g).text]
        for word in (None, mutant):
            ops += [lambda out, g=g, w=word, i=at: _parse(sl, g, w, out[i], "gamma_prime_alpha"),
                    lambda out, g=g, w=word, i=at + 1: _parse(sl, g, w, out[i], "gamma_prime_beta")]
    return ops


def _boost_problems(g, a, b, where):
    """Length laws and stride readouts of the alpha and beta boosters."""
    problems = []
    sigma = sum(oracles.expansion_lengths(g.rules).values())
    nv = len(g.rules)
    u = oracles.expansion(g.rules, g.start)
    if len(a.text) != 4 * sigma:
        problems.append(f"{where}: alpha length {len(a.text)}, 4 sigma is {4 * sigma}")
    if any(u[j] != a.text[a.offset + 2 * j] for j in range(len(u))):
        problems.append(f"{where}: alpha stride readout fails")
    if len(b.text) != 6 * sigma - 4 * nv:
        problems.append(f"{where}: beta length {len(b.text)}, 6 sigma - 4|V| is {6 * sigma - 4 * nv}")
    if tuple(b.text[p - 1] for p in b.position_map[nv]) != u:
        problems.append(f"{where}: beta position map does not read out the text")
    return problems


def boost_check(sl, state, out):
    problems = []
    out = iter(out)  # in the order of boost_operations
    for k, (g, _) in enumerate(state["big"]):
        where = f"big grammar {k}"
        a, b, gi = next(out), next(out), next(out)
        problems += _boost_problems(g, a, b, where)
        if oracles.expansion(gi.grammar.rules, gi.grammar.start) != a.text:
            problems.append(f"{where}: build_gi does not expand to the alpha string")
    for k, (g, alphabet) in enumerate(state["fold"]):
        where = f"fold grammar {k}"
        boosted, folds = [], []
        for _ in range(3):
            boosted.append(next(out))
            folds.append(next(out))
        fu = next(out)
        sigma = sum(oracles.expansion_lengths(g.rules).values())
        u = oracles.expansion(g.rules, g.start)
        wu = oracles.fold_value(u, alphabet.match, alphabet.weight)
        if fu.value != wu:
            problems.append(f"{where}: W(u) is {fu.value}, the reference DP gives {wu}")
        ra, rb, rg = boosted
        laws = (
            ("rna-alpha", len(ra.text) == 8 * sigma, 2 * wu + ra.offset),
            ("rna-beta", len(rb.text) == 16 * sigma, 4 * wu + rb.offset),
            ("gamma", len(rg.text) <= 12 * sigma + 5, 2 * rg.offset + wu),
        )
        for (name, length_ok, want), r, f in zip(laws, boosted, folds):
            if not length_ok:
                problems.append(f"{where}: {name} length {len(r.text)} breaks its law")
            if f.value != want:
                problems.append(f"{where}: {name} folds to {f.value}, the law gives {want}")
            why = oracles.witness_error(r.text, f.pairs, r.alphabet.match, r.alphabet.weight, f.value)
            if why:
                problems.append(f"{where}: {name} witness: {why}")
        why = oracles.witness_error(u, fu.pairs, alphabet.match, alphabet.weight, fu.value)
        if why:
            problems.append(f"{where}: source witness: {why}")
    for k in range(len(state["cyk"])):
        next(out), next(out)  # the alpha and beta strings the parses read
        answers = [next(out) for _ in range(4)]
        # The exact-source language holds u, the mutant's does not.
        if answers != [True, True, False, False]:
            problems.append(f"cyk grammar {k}: answers (exact alpha, exact beta, mutant alpha, "
                            f"mutant beta) are {answers}, expected [True, True, False, False]")
    return problems


# -- random-access -----------------------------------------------------------------

ACCESS_LENGTH = 8192
ACCESS_QUERIES = 2500  # per grammar and pass
# LZ78 and LZD give flat start rules with many phrases, Bisection a balanced
# grammar, RePair a global one.
ACCESS_BUILDERS = (
    ("lz78", lambda c, u, t: c.lz78(u, t)[1]),
    ("lzd", lambda c, u, t: c.lzd(u, t)[1]),
    ("bisection", lambda c, u, t: c.bisection(u, t)),
    ("repair", lambda c, u, t: c.repair(u, t)),
)


def access_setup(sl, rng):
    table = sl.symbols.SymbolTable()
    u = sl.generate.random_string(rng, ACCESS_LENGTH, 2, table)
    grammars = [(name, build(sl.compressors, u, table)) for name, build in ACCESS_BUILDERS]
    positions = [rng.randint(1, ACCESS_LENGTH) for _ in range(ACCESS_QUERIES)]
    for _, g in grammars:  # fills each grammar's expansion-length cache
        for i in positions[:50]:
            sl.core.random_access(g, i)
    return {"text": u, "grammars": grammars, "positions": positions}


def access_operations(sl, state):
    core = sl.core
    ops = []
    for _, g in state["grammars"]:
        ops += [lambda out, g=g, i=i: core.random_access(g, i) for i in state["positions"]]
        ops.append(lambda out, g=g: core.expand(g, g.start))
    return ops


def access_check(sl, state, out):
    problems = []
    u = state["text"]
    want = [u[i - 1] for i in state["positions"]]
    step = len(want) + 1  # the queries of one grammar, then its expansion
    for k, (name, _) in enumerate(state["grammars"]):
        answers, full = out[k * step:k * step + len(want)], out[k * step + len(want)]
        wrong = sum(a != b for a, b in zip(answers, want))
        if wrong:
            problems.append(f"random_access on {name}: {wrong} wrong answers")
        if tuple(full) != tuple(u):
            problems.append(f"expand on {name}: expansion differs from the input")
    return problems


def _count_outputs(state, outputs):
    return len(outputs), 0


# name -> (setup, operations, check, count)
WORKLOADS = {
    "verify-all": (verify_setup, verify_operations, verify_check, verify_count),
    "compress-text": (compress_setup, compress_operations, compress_check, _count_outputs),
    "boost-fold-parse": (boost_setup, boost_operations, boost_check, _count_outputs),
    "random-access": (access_setup, access_operations, access_check, _count_outputs),
}
