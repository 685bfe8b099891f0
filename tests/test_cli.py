"""Command-line behavior: flag routing, file formats, exit codes, and the
byte-determinism of verification reports."""
import hashlib
import importlib
import io
import os
import pkgutil
import random
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slglab
from slglab import verify
from slglab.cli import _ALGORITHMS, CliError, main
from slglab.core import serialize
from slglab.generate import random_admissible_slg
from slglab.rna import parse_matched_alphabet
from slglab.symbols import SymbolTable

from conftest import PROPERTY

G0_TEXT = "S -> N1 N1\nN1 -> a b\n"


@pytest.fixture()
def g0_file(tmp_path):
    path = tmp_path / "g0.slg"
    path.write_text(G0_TEXT)
    return str(path)


def test_compress_lz78_stats(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("0111\n")
    out = tmp_path / "out.slg"
    code = main(["compress", "--alg", "lz78", "--in", str(src),
                 "--out", str(out), "--stats"])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert re.fullmatch(r"alg=lz78 size=9 nonterms=5 explen=4 totalexp=8 "
                        r"height=3 elapsed=\d+\.\d{3}s", line)
    assert "->" in out.read_text()


def test_compress_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("abab\n"))
    assert main(["compress", "--alg", "bisection", "--in", "-", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "size=4" in out and "B1 ->" in out


def _stdin_bytes(monkeypatch, data: bytes) -> None:
    """Feed `data` to a stdin made as the interpreter makes its own on POSIX."""
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape", newline="\n")
    monkeypatch.setattr("sys.stdin", stream)


def test_stdin_and_file_read_the_same_text(tmp_path, capsys, monkeypatch):
    # Universal newlines on both paths: a CRLF text compresses as an LF one.
    src = tmp_path / "in.txt"
    outs = []
    for data in (b"abab\n", b"abab\r\n"):
        src.write_bytes(data)
        assert main(["compress", "--alg", "repair", "--in", str(src)]) == 0
        outs.append(capsys.readouterr().out)
        _stdin_bytes(monkeypatch, data)
        assert main(["compress", "--alg", "repair", "--in", "-"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs == [outs[0]] * 4 and "R1 -> a b" in outs[0]


@pytest.mark.parametrize("argv, content", [
    (["compress", "--alg", "repair", "--in", "{bad}"], b"\xff\xfeab"),
    (["compress", "--alg", "repair", "--in", "{bad}"], b"ab\xc3"),
    (["boost", "--kind", "alpha", "--grammar", "{bad}", "--out", "{tmp}/o"], b"S -> a \xff\n"),
    (["boost", "--kind", "gamma", "--grammar", "{g0}", "--alphabet", "{bad}", "--out", "{tmp}/o"],
     b"a a~ 1\n\x80"),
    (["boost", "--kind", "answer", "--points", "{bad}", "--out", "{tmp}/o"], b"m 2\n1 \xe9\n"),
], ids=["in-first-byte", "in-cut-sequence", "grammar", "alphabet", "points"])
def test_invalid_utf8_names_the_file_and_the_byte(tmp_path, g0_file, capsys, argv, content):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    start = next(i for i in range(len(content)) if content[i] >= 0x80)
    argv = [a.format(bad=bad, tmp=tmp_path, g0=g0_file) for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: cannot read {bad}: not UTF-8 at byte {start}\n"


@pytest.mark.parametrize("content, start", [(b"\xff\xfeab", 0), (b"ab\xc3\n", 2)])
def test_invalid_utf8_on_stdin_is_refused(capsys, monkeypatch, content, start):
    _stdin_bytes(monkeypatch, content)
    assert main(["compress", "--alg", "repair", "--in", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: cannot read standard input: not UTF-8 at byte {start}\n"


@pytest.mark.parametrize("alg", sorted(_ALGORITHMS))
def test_compress_empty_input(tmp_path, capsys, alg):
    src = tmp_path / "in.txt"
    src.write_text("\n")
    code = main(["compress", "--alg", alg, "--in", str(src)])
    assert code == 2
    assert capsys.readouterr() == ("", "error: empty input\n")


def test_compress_unknown_algorithm(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("abc\n")
    assert main(["compress", "--alg", "nosuch", "--in", str(src)]) == 2


def test_compress_repair2_flag_routing(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("abab\n")
    code = main(["compress", "--alg", "repair2", "--in", str(src), "--stats"])
    assert code == 0
    assert "size=4" in capsys.readouterr().out


def test_boost_alpha_meta(tmp_path, g0_file):
    prefix = str(tmp_path / "boosted")
    assert main(["boost", "--kind", "alpha", "--grammar", g0_file,
                 "--out", prefix]) == 0
    meta = (tmp_path / "boosted.meta").read_text()
    assert "delta=8" in meta and "len=24" in meta
    text = (tmp_path / "boosted.text").read_text().split()
    assert len(text) == 24 and text[:4] == ["a", "$_1", "b", "#_1"]


def test_boost_requires_admissible_unless_flagged(tmp_path, capsys):
    bad = tmp_path / "bad.slg"
    bad.write_text("S -> a b a\n")
    prefix = str(tmp_path / "x")
    assert main(["boost", "--kind", "alpha", "--grammar", str(bad),
                 "--out", prefix]) == 2
    assert "--admissify" in capsys.readouterr().err
    assert main(["boost", "--kind", "alpha", "--grammar", str(bad),
                 "--out", prefix, "--admissify"]) == 0


def test_boost_answer_points(tmp_path):
    pts = tmp_path / "p.txt"
    pts.write_text("1 1\n2 2\n")
    prefix = str(tmp_path / "ans")
    assert main(["boost", "--kind", "answer", "--points", str(pts),
                 "--out", prefix]) == 0
    assert (tmp_path / "ans.text").read_text().strip() == "1110"
    assert "m=2" in (tmp_path / "ans.meta").read_text()


@pytest.mark.parametrize(
    "content, message",
    [
        ("", "need at least one point"),
        ("# no points\n\n", "need at least one point"),
        ("x y\n", "line 1: bad point line 'x y'"),
        ("1 1\n1 1 1\n", "line 2: bad point line '1 1 1'"),
        ("m four\n1 1\n", "line 1: bad point line 'm four'"),
        ("m 2 junk\n1 1\n2 2\n", "line 1: bad point line 'm 2 junk'"),
        ("m -1\n", "line 1: m must be at least 1, got -1"),
        ("m 0\n1 1\n", "line 1: m must be at least 1, got 0"),
        ("m 3\n1 1\n2 2\n3 3\nm 2\n", "line 5: repeated m header"),
        # a form feed ends a line, as in the other file formats
        ("1\x0c1\n", "line 1: bad point line '1'"),
        # checked before padding to 4 x 4, which would add (4, 4) again
        ("1 1\n2 2\n4 4\n", "point (4, 4) outside the 3 x 3 grid"),
    ],
)
def test_boost_answer_rejects_bad_points(tmp_path, capsys, content, message):
    pts = tmp_path / "p.txt"
    pts.write_text(content)
    prefix = str(tmp_path / "ans")
    assert main(["boost", "--kind", "answer", "--points", str(pts),
                 "--out", prefix]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "ans.text").exists()


def test_point_file_comments(tmp_path, capsys):
    # The comment rule of grammar files: '#' alone or '# ' and text, after
    # stripping the line.
    pts = tmp_path / "p.txt"
    pts.write_text("m 2\n  # indented\n#\n1 1\n2 2\n")
    prefix = str(tmp_path / "ans")
    assert main(["boost", "--kind", "answer", "--points", str(pts),
                 "--out", prefix]) == 0
    assert (tmp_path / "ans.text").read_text().strip() == "1110"
    pts.write_text("m 2\n1 1\n#x\n2 2\n")
    assert main(["boost", "--kind", "answer", "--points", str(pts),
                 "--out", prefix]) == 2
    assert capsys.readouterr().err == "error: line 3: bad point line '#x'\n"


@pytest.mark.parametrize("kind", ["alpha", "beta"])
def test_boost_expansion_overflow_exits_2(tmp_path, capsys, kind):
    # A70 expands to 2**70 symbols; A63 is the first past the 64-bit range.
    rules = [f"A{k} -> A{k - 1} A{k - 1}" for k in range(70, 1, -1)]
    deep = tmp_path / "deep.slg"
    deep.write_text("\n".join(rules + ["A1 -> a b"]) + "\n")
    prefix = str(tmp_path / "x")
    assert main(["boost", "--kind", kind, "--grammar", str(deep),
                 "--out", prefix]) == 2
    err = capsys.readouterr().err
    assert err == "error: expansion length of A63 exceeds 64-bit range\n"
    assert not (tmp_path / "x.text").exists()


def test_boost_gamma_needs_alphabet(tmp_path, g0_file, capsys):
    prefix = str(tmp_path / "x")
    assert main(["boost", "--kind", "gamma", "--grammar", g0_file,
                 "--out", prefix]) == 2
    assert "--alphabet" in capsys.readouterr().err


def test_boost_gamma_with_alphabet(tmp_path, g0_file):
    alpha_file = tmp_path / "al.txt"
    alpha_file.write_text("a ~ a' : 1\nb ~ b' : 1\n")
    prefix = str(tmp_path / "gam")
    assert main(["boost", "--kind", "gamma", "--grammar", g0_file,
                 "--alphabet", str(alpha_file), "--out", prefix]) == 0
    assert "c0=9" in (tmp_path / "gam.meta").read_text()


def test_boost_alphabet_file_comments(tmp_path, g0_file):
    # '#' alone and '# text' are comments, as in grammar files.
    alpha_file = tmp_path / "al.txt"
    alpha_file.write_text("#\n# pairs\na ~ a' : 2\n#\nb ~ b' : 1\n")
    prefix = str(tmp_path / "ra")
    assert main(["boost", "--kind", "rna-alpha", "--grammar", g0_file,
                 "--alphabet", str(alpha_file), "--out", prefix]) == 0
    meta = (tmp_path / "ra.meta").read_text()
    assert "alphabet:\na ~ a' : 2\nb ~ b' : 1\n" in meta
    # a sentinel line starts with '#' and is still a pair
    al = parse_matched_alphabet("#\n#_1 ~ #'_1 : 3\n", SymbolTable())
    assert [(s.display, al.weight[s]) for s in al.symbols] == [("#_1", 3), ("#'_1", 3)]


@pytest.mark.parametrize("kind", ["rna-alpha", "rna-beta", "gamma"])
@pytest.mark.parametrize(
    "content, message",
    [
        # a later line used to replace the earlier pair silently
        ("a ~ b : 1\na ~ b : 2\n", "line 2: a is already paired on line 1"),
        ("a ~ b : 1\na ~ b : 1\n", "line 2: a is already paired on line 1"),
        # the booster's own pairs used to re-weight this one to 1 ...
        ("a ~ b : 1\n$_1 ~ $'_1 : 5\n",
         "matched alphabet collides with sentinel family '$_'"),
        # ... or re-match $_1, reported as a broken involution at b
        ("a ~ a' : 1\n$_1 ~ b : 1\n",
         "matched alphabet collides with sentinel family '$_'"),
    ],
)
def test_boost_rejects_bad_alphabets(tmp_path, g0_file, capsys, kind, content, message):
    alpha_file = tmp_path / "al.txt"
    alpha_file.write_text(content)
    prefix = str(tmp_path / "x")
    assert main(["boost", "--kind", kind, "--grammar", g0_file,
                 "--alphabet", str(alpha_file), "--out", prefix]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.text").exists()


def test_boost_alphabet_naming_a_nonterminal_exits_2(tmp_path, capsys):
    grammar = tmp_path / "g.txt"
    grammar.write_text("S -> A b\nA -> a b\n")
    alpha_file = tmp_path / "al.txt"
    alpha_file.write_text("# b pairs with the nonterminal A\nb ~ A : 2\n")
    prefix = str(tmp_path / "x")
    assert main(["boost", "--kind", "rna-alpha", "--grammar", str(grammar),
                 "--alphabet", str(alpha_file), "--out", prefix]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: symbol 'A' already interned as nonterminal\n"
    assert not (tmp_path / "x.text").exists()


def test_boost_rna_kinds_and_raw(tmp_path, g0_file, capsys):
    alpha_file = tmp_path / "al.txt"
    alpha_file.write_text("a ~ a' : 2\nb ~ b' : 1\n")
    prefix = str(tmp_path / "ra")
    assert main(["boost", "--kind", "rna-alpha", "--grammar", g0_file,
                 "--alphabet", str(alpha_file), "--out", prefix]) == 0
    meta = (tmp_path / "ra.meta").read_text()
    assert "delta=" in meta and "alphabet:" in meta
    assert main(["boost", "--kind", "rna-beta", "--grammar", g0_file,
                 "--alphabet", str(alpha_file), "--out",
                 str(tmp_path / "rb")]) == 0
    # there is no raw mode: every booster writes sentinels such as $_1,
    # which no single byte renders
    assert main(["boost", "--kind", "alpha", "--grammar", g0_file,
                 "--out", str(tmp_path / "rw"), "--raw"]) == 2
    assert "unrecognized arguments: --raw" in capsys.readouterr().err
    assert not (tmp_path / "rw.text").exists()


def test_boost_outputs_are_pinned(tmp_path, g0_file, capsys):
    # Every `boost` kind over g0 and six seeded admissible grammars with one
    # alphabet file, plus `--kind answer`: a change that keeps every output
    # keeps this digest.  Refusals count too, through the exit code and the
    # message.
    grammars = [g0_file]
    for seed in range(6):
        path = tmp_path / f"r{seed}.slg"
        path.write_text(serialize(random_admissible_slg(
            random.Random(seed), 2 + seed, 3, 260, SymbolTable())))
        grammars.append(str(path))
    alpha_file = tmp_path / "al.txt"
    alpha_file.write_text("a ~ a' : 2\nb ~ b' : 1\nc ~ c' : 3\n")
    pts = tmp_path / "p.txt"
    pts.write_text("m 3\n1 2\n2 3\n3 1\n")
    runs = [["--kind", kind, "--grammar", g, "--alphabet", str(alpha_file)]
            for g in grammars
            for kind in ("alpha", "beta", "gamma", "rna-alpha", "rna-beta")]
    runs.append(["--kind", "answer", "--points", str(pts)])
    digest = hashlib.sha256()
    for i, run in enumerate(runs):
        prefix = tmp_path / f"o{i}"
        code = main(["boost", *run, "--out", str(prefix)])
        digest.update(f"{code}\n{capsys.readouterr().err}".encode())
        for suffix in (".text", ".meta"):
            out = Path(f"{prefix}{suffix}")
            digest.update(out.read_bytes() if out.exists() else b"<none>")
    assert digest.hexdigest() == (
        "a0cb4cacd4672c3b7ab4d41985fc1b606ad8166220efc899a64d4c254185c24a")


def test_verify_suite_passes(capsys):
    assert main(["verify", "--suite", "lz78", "--trials", "3",
                 "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "lz78-phrases-at-most-6k" in out


def test_verify_deterministic_output(capsys):
    main(["verify", "--suite", "lzd", "--trials", "4", "--seed", "5"])
    first = capsys.readouterr().out
    main(["verify", "--suite", "lzd", "--trials", "4", "--seed", "5"])
    second = capsys.readouterr().out
    assert first == second
    main(["verify", "--suite", "lzd", "--trials", "4", "--seed", "6"])
    assert capsys.readouterr().out != first


@pytest.mark.parametrize("seed, digest", [
    ("0", "02233521eae011f14a1b83388b56b4ff2c140adc15a16db377982ced5eaf5a4c"),
    ("3", "23cf993ebdf541d5dd809668bd3edddf8ab6f63252673c4250bbc6870da2e74f"),
    # Seed 4 reaches suite_gamma's redraw of a one-rule grammar (trials 2 and
    # 5), which seeds 0 and 3 never do within five trials.
    ("4", "f8f3fece75442c00a7da837b1da12812d1477dfc9b42685b054d6ed18a06bc18"),
], ids=["seed0", "seed3", "seed4"])
def test_verify_all_stream_is_pinned(capsys, monkeypatch, seed, digest):
    # The verdict stream is a pure function of the seed.  A change that keeps
    # every output keeps these digests; one that changes the stream on
    # purpose updates them.
    monkeypatch.delenv("SLGLAB_SEED", raising=False)
    assert main(["verify", "--suite", "all", "--trials", "5", "--seed", seed]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_all_stream_does_not_depend_on_the_hash_seed():
    # Symbols hash their display strings, so set order changes between
    # processes; the verdicts must not.
    src = os.path.dirname(os.path.dirname(slglab.__file__))
    argv = [sys.executable, "-m", "slglab.cli", "verify", "--suite", "all", "--seed", "0", "--trials", "3"]
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        env.pop("SLGLAB_SEED", None)
        outs.append(subprocess.run(argv, env=env, check=True, capture_output=True).stdout)
    assert outs[0] == outs[1]
    assert outs[0].endswith(b" failed=0\n")


def test_verify_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("SLGLAB_SEED", "5")
    main(["verify", "--suite", "lzd", "--trials", "4", "--seed", "99"])
    with_env = capsys.readouterr().out
    monkeypatch.delenv("SLGLAB_SEED")
    main(["verify", "--suite", "lzd", "--trials", "4", "--seed", "5"])
    assert capsys.readouterr().out == with_env


def test_verify_failure_exit_code(capsys, monkeypatch):
    from slglab.verify import Verdict

    def broken(seed, trials, max_nonterms):
        return [Verdict(1, "forced", "expected=1 actual=2", False)]

    monkeypatch.setitem(verify.SUITES, "lzd", broken)
    assert main(["verify", "--suite", "lzd", "--trials", "1"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag, value", [("--trials", "0"), ("--trials", "-1"), ("--max-nonterms", "0")]
)
def test_verify_rejects_counts_below_one(capsys, flag, value):
    assert main(["verify", "--suite", "lzd", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be at least 1, got {value}\n"


def test_verify_with_too_many_nonterminals_exits_2(capsys):
    # No grammar of 57 nonterminals was drawn under the suites' 260-symbol
    # cap, and the generator's error used to end in a traceback.  The
    # message names the flag the count was drawn from.
    assert main(["verify", "--suite", "sequential", "--trials", "3",
                 "--max-nonterms", "60", "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: could not draw a grammar with |V| = 57 under the expansion cap 260"
        " (|V| is drawn from 1 to --max-nonterms 60)\n"
    )


def test_usage_error_exit_code():
    assert main(["verify", "--suite", "nosuch"]) == 2
    assert main(["compress"]) == 2


_NO_FILE = "[Errno 2] No such file or directory: '{path}'"


@pytest.mark.parametrize("argv, seed, message", [
    (["compress", "--alg", "lz78", "--in", "{tmp}/missing.txt"], None,
     "cannot read {tmp}/missing.txt: " + _NO_FILE.format(path="{tmp}/missing.txt")),
    (["compress", "--alg", "lz78", "--in", "{tmp}/in.txt", "--out", "{tmp}/no/out.slg"], None,
     "cannot write {tmp}/no/out.slg: " + _NO_FILE.format(path="{tmp}/no/out.slg")),
    (["boost", "--kind", "answer", "--out", "{tmp}/ans"], None, "--kind answer needs --points"),
    (["boost", "--kind", "beta", "--out", "{tmp}/b"], None, "--grammar is required for this kind"),
    (["verify", "--suite", "lzd", "--trials", "1"], "0x10", "bad SLGLAB_SEED '0x10'"),
], ids=["cannot-read", "cannot-write", "answer-needs-points", "grammar-required", "bad-seed"])
def test_cli_refusals_exit_2_with_one_error_line(tmp_path, capsys, monkeypatch, argv, seed, message):
    (tmp_path / "in.txt").write_text("0111\n")
    if seed is None:
        monkeypatch.delenv("SLGLAB_SEED", raising=False)
    else:
        monkeypatch.setenv("SLGLAB_SEED", seed)
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message.format(tmp=tmp_path)}\n"


def test_run_suite_refuses_an_unknown_suite():
    with pytest.raises(ValueError) as e:
        verify.run_suite("nosuch", 0, 1, 1)
    assert type(e.value) is ValueError and str(e.value) == "unknown suite 'nosuch'"


def _library_errors():
    """Every exception class defined in a library module, the CLI's own
    `CliError` aside."""
    found = []
    for info in pkgutil.iter_modules(slglab.__path__):
        mod = importlib.import_module(f"slglab.{info.name}")
        found += [
            obj for obj in vars(mod).values()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == mod.__name__ and obj is not CliError
        ]
    return found


def test_library_errors_are_found():
    assert {c.__name__ for c in _library_errors()} >= {
        "BoostError", "CfgError", "CompressorError", "GrammarError",
        "GrammarParseError", "RnaError", "SymbolError",
    }


@pytest.mark.parametrize("error", _library_errors(), ids=lambda c: c.__name__)
def test_library_errors_are_value_errors(error):
    # `main` turns a ValueError into exit code 2; any other class would end
    # in a traceback.
    assert issubclass(error, ValueError)


_HEADS = ["S", "A", "B", "N1"]
_LETTERS = ["a", "b", "c'", "$_1", "#_2", "#'L_1"]
_NUMBERS = ["0", "1", "2", "3", "-1"]
_TOKENS = _HEADS + _LETTERS + _NUMBERS + ["->", "~", ":", "#", "# c", "m"]


def _line(*parts):
    return st.tuples(*parts).map(" ".join)


@st.composite
def _file(draw, lines):
    """The drawn lines, each indented or not, one in seven swapped for loose
    tokens from the whole pool (comments among them)."""
    out = []
    for text in draw(lines):
        if draw(st.sampled_from([False] * 6 + [True])):
            text = " ".join(draw(st.lists(st.sampled_from(_TOKENS), max_size=5)))
        out.append(draw(st.sampled_from(["", "", "  ", "\t"])) + text + "\n")
    return "".join(out)


def _some(items, line):
    """`line(item, rest)` for each item of a prefix of a permutation of
    `items`, with `rest` the items of the prefix after it."""
    def lines(perm, k):
        return st.tuples(*(line(x, perm[i + 1 : k]) for i, x in enumerate(perm[:k])))
    return st.tuples(st.permutations(items), st.integers(1, len(items))).flatmap(
        lambda pk: lines(*pk).map(list))


# Rule bodies mostly use the heads defined after theirs, so most grammars
# are acyclic; a head may still name any head, or none be defined at all.
_GRAMMARS = _file(_some(_HEADS, lambda h, rest: _line(
    st.just(h), st.just("->"), st.lists(st.sampled_from(
        _LETTERS + list(rest) * 3 + _HEADS), min_size=2, max_size=3).map(" ".join))))
_ALPHABETS = _file(_some(range(3), lambda i, _: _line(
    st.just(_LETTERS[2 * i]), st.just("~"),
    st.sampled_from([_LETTERS[2 * i + 1]] * 6 + _LETTERS), st.just(":"),
    st.sampled_from(["1", "2"] * 4 + _NUMBERS))))
_POINTS = _file(st.tuples(
    st.lists(_line(st.just("m"), st.sampled_from(_NUMBERS)), max_size=1),
    _some(["1", "2", "3"], lambda y, _: _line(st.sampled_from(["1", "2", "3"]), st.just(y))),
).map(lambda parts: parts[0] + parts[1]))


@settings(PROPERTY, max_examples=100)
@given(_GRAMMARS, _ALPHABETS, _POINTS, st.sampled_from(sorted(_ALGORITHMS)))
def test_cli_fuzz_exits_0_or_2(grammar, alphabet, points, alg):
    with tempfile.TemporaryDirectory() as tmp, \
            redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        paths = {}
        for name, text in (("g", grammar), ("al", alphabet), ("p", points),
                           ("in", "".join(grammar.split()))):
            paths[name] = str(Path(tmp) / name)
            Path(paths[name]).write_text(text)
        out = str(Path(tmp) / "out")
        for kind in ("alpha", "beta", "gamma", "rna-alpha", "rna-beta", "answer"):
            for extra in ([], ["--admissify"]):
                assert main(["boost", "--kind", kind, "--grammar", paths["g"],
                             "--alphabet", paths["al"], "--points", paths["p"],
                             "--out", out, *extra]) in (0, 2)
        assert main(["compress", "--alg", alg, "--in", paths["in"],
                     "--out", out]) in (0, 2)


def test_readme_lists_every_algorithm_and_suite():
    readme = (Path(__file__).parent.parent / "README.md").read_text()

    def listed(label):
        sentence = re.search(rf"^{label}: (.*?)\.(?:\s|$)", readme, re.M | re.S).group(1)
        return set(re.findall(r"`([^`]+)`", sentence))

    assert listed("Algorithms") == set(_ALGORITHMS)
    assert listed("Suites") == set(verify.SUITES) | {"all"}
