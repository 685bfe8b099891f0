"""Command-line front end: compression runs, boosting, and the verification
suites.

Exit codes: 0 success, 1 verification failure, 2 usage or I/O error.  The
environment variable SLGLAB_SEED overrides --seed for `verify`.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

from . import boost, verify
from . import compressors as comp
from .rna import parse_matched_alphabet
from .core import (
    SLG,
    _content_lines,
    deserialize,
    is_admissible,
    make_admissible,
    serialize,
    stats,
)
from .symbols import SymbolTable

_ALGORITHMS = {
    "repair": comp.repair,
    "repair2": comp.repair_pairs_only,
    "greedy": comp.greedy,
    "longest": comp.longest_match,
    "sequitur": comp.sequitur,
    "sequential": comp.sequential,
    "bisection": comp.bisection,
    "lz78": lambda u, t: comp.lz78(u, t)[1],
    "lzd": lambda u, t: comp.lzd(u, t)[1],
}

# Each booster with the name of its offset in `.meta`, if it has one, and
# whether it folds, taking the matched alphabet of --alphabet.
_BOOSTERS = {
    "alpha": (boost.alpha, "delta", False),
    "beta": (boost.beta, None, False),
    "gamma": (boost.gamma, "c0", True),
    "rna-alpha": (boost.rna_alpha, "delta", True),
    "rna-beta": (boost.rna_beta, "delta", True),
}


class CliError(Exception):
    pass


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _read_input(path: str) -> str:
    data = sys.stdin.read() if path == "-" else _read_file(path)
    if data.endswith("\n"):
        data = data[:-1]
    if not data:
        raise CliError("empty input")
    return data


def _write_output(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def cmd_compress(args) -> int:
    table = SymbolTable()
    text = _read_input(args.infile)
    started = time.perf_counter()
    g = _ALGORITHMS[args.alg](text, table)
    elapsed = time.perf_counter() - started
    _write_output(args.out, serialize(g))
    if args.stats:
        s = stats(g)
        print(
            f"alg={args.alg} size={s.size} nonterms={s.num_nonterminals} "
            f"explen={s.expansion_length} totalexp={s.total_expansion} "
            f"height={s.height} elapsed={elapsed:.3f}s"
        )
    return 0


def _load_grammar(path: str, table: SymbolTable, admissify: bool) -> SLG:
    g = deserialize(_read_file(path), table)
    if not is_admissible(g):
        if not admissify:
            raise CliError(
                "grammar is not admissible; pass --admissify to convert it first"
            )
        g = make_admissible(g)
    return g


def _load_points(path: str):
    m = None
    points = []
    for line_no, ln in _content_lines(_read_file(path)):
        try:
            if ln.startswith("m "):
                if m is not None:
                    raise CliError(f"line {line_no}: repeated m header")
                _, value = ln.split()
                m = int(value)
                if m < 1:
                    raise CliError(f"line {line_no}: m must be at least 1, got {m}")
                continue
            x, y = ln.split()
            points.append((int(x), int(y)))
        except ValueError as exc:
            raise CliError(f"line {line_no}: bad point line {ln!r}") from exc
    if m is None:
        m = len(points)
    return boost.PointSet.normalized(m, points)


def cmd_boost(args) -> int:
    table = SymbolTable()
    meta_lines = [f"kind={args.kind}"]
    if args.kind == "answer":
        if not args.points:
            raise CliError("--kind answer needs --points")
        ps = _load_points(args.points)
        text = boost.answer_string(ps)
        g = boost.answer_grammar(ps)
        _write_output(f"{args.out}.text", text + "\n")
        _write_output(f"{args.out}.grammar", serialize(g))
        meta_lines += [f"m={ps.m}", f"len={len(text)}", f"grammar_size={g.size}"]
        _write_output(f"{args.out}.meta", "\n".join(meta_lines) + "\n")
        return 0

    if not args.grammar:
        raise CliError("--grammar is required for this kind")
    g = _load_grammar(args.grammar, table, args.admissify)
    booster, offset_name, folds = _BOOSTERS[args.kind]
    if folds:
        if not args.alphabet:
            raise CliError(f"--kind {args.kind} needs --alphabet")
        result = booster(g, parse_matched_alphabet(_read_file(args.alphabet), table))
    else:
        result = booster(g)

    _write_output(f"{args.out}.text", " ".join(s.display for s in result.text) + "\n")
    meta_lines.append(f"len={len(result.text)}")
    if offset_name is not None:
        meta_lines.append(f"{offset_name}={result.offset}")
    meta_lines.append(
        "ordering=" + " ".join(n.display for n in result.ordering)
    )
    if offset_name is None:  # beta places the input's text by a position map
        for i in sorted(result.position_map):
            positions = " ".join(str(p) for p in result.position_map[i])
            meta_lines.append(f"positions[{i}]={positions}")
    if folds:
        meta_lines.append("alphabet:")
        meta_lines.append(result.alphabet.serialize().rstrip("\n"))
    else:
        meta_lines.append(
            "alphabet=" + " ".join(s.display for s in result.alphabet)
        )
    _write_output(f"{args.out}.meta", "\n".join(meta_lines) + "\n")
    return 0


def cmd_verify(args) -> int:
    for flag, value in (("--trials", args.trials), ("--max-nonterms", args.max_nonterms)):
        if value < 1:
            raise CliError(f"{flag} must be at least 1, got {value}")
    seed = args.seed
    env = os.environ.get("SLGLAB_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise CliError(f"bad SLGLAB_SEED {env!r}") from exc
    verdicts = verify.run_suite(args.suite, seed, args.trials, args.max_nonterms)
    for v in verdicts:
        print(v.line())
    failed = sum(1 for v in verdicts if not v.ok)
    print(
        f"suite={args.suite} seed={seed} checks={len(verdicts)} failed={failed}"
    )
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slglab",
        description="Grammar-compression laboratory: compressors, boosters, "
        "and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a string into a grammar")
    p.add_argument("--alg", required=True, choices=sorted(_ALGORITHMS))
    p.add_argument("--in", dest="infile", required=True, help="input file or -")
    p.add_argument("--out", default=None, help="output grammar file (default stdout)")
    p.add_argument("--stats", action="store_true", help="print a stats line")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("boost", help="build a boosted string from a grammar")
    p.add_argument(
        "--kind",
        required=True,
        choices=[*_BOOSTERS, "answer"],
    )
    p.add_argument("--grammar", default=None)
    p.add_argument("--alphabet", default=None, help="matched alphabet file")
    p.add_argument("--points", default=None, help="point set file")
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument("--admissify", action="store_true")
    p.set_defaults(func=cmd_boost)

    p = sub.add_parser("verify", help="run a randomized verification suite")
    p.add_argument(
        "--suite",
        required=True,
        choices=sorted(verify.SUITES) + ["all"],
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--max-nonterms", type=int, default=30)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    # Every error class of the library subclasses ValueError.
    except (CliError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
