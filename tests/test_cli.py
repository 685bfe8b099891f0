"""Command-line behavior: flag routing, file formats, exit codes, and the
byte-determinism of verification reports."""
import re

import pytest

from slglab.cli import main
from slglab.rna import parse_matched_alphabet
from slglab.symbols import SymbolTable

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


def test_compress_empty_input(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("\n")
    code = main(["compress", "--alg", "lz78", "--in", str(src)])
    assert code == 2
    assert "empty input" in capsys.readouterr().err


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
    # raw mode refuses multi-character renderings like $_1
    assert main(["boost", "--kind", "alpha", "--grammar", g0_file,
                 "--out", str(tmp_path / "rw"), "--raw"]) == 2
    assert "one byte" in capsys.readouterr().err


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


def test_verify_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("SLGLAB_SEED", "5")
    main(["verify", "--suite", "lzd", "--trials", "4", "--seed", "99"])
    with_env = capsys.readouterr().out
    monkeypatch.delenv("SLGLAB_SEED")
    main(["verify", "--suite", "lzd", "--trials", "4", "--seed", "5"])
    assert capsys.readouterr().out == with_env


def test_verify_failure_exit_code(capsys, monkeypatch):
    from slglab import verify
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


def test_usage_error_exit_code():
    assert main(["verify", "--suite", "nosuch"]) == 2
    assert main(["compress"]) == 2
