"""End-to-end tests of the command line, run in-process."""

from __future__ import annotations

import ast
import contextlib
import io
import json
import subprocess
import sys

import pytest

import fib2d
from fib2d import cli, oracle, word1d, word2d
from fib2d.errors import EXIT_CODES

import rotation
from reference import PACKAGE_ENV, argparse_parser, run_optimized
from tables import OCC_BLOCK, OCC_BLOCK_AXIS, WORDS_2_2
from test_word2d import _owners


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- generation --

def test_gen1d(capsys):
    code, out, err = run(capsys, "gen1d", "--alphabet", "ba", "--len", "8")
    assert (code, out, err) == (0, "babbabab\n", "")


def test_gen2d(capsys):
    code, out, err = run(capsys, "gen2d", "--rows", "3", "--cols", "3")
    assert (code, out, err) == (0, "dcd\nbab\ndcd\n", "")


# ------------------------------------------------------------ enumeration --

def test_enum_prints_canonical_blocks(capsys):
    code, out, _ = run(capsys, "enum", "--k", "2", "--l", "2")
    assert code == 0
    assert out == "\n".join(word2d.to_text(w) for w in WORDS_2_2)


def test_enum_json(capsys):
    code, out, _ = run(capsys, "enum", "--k", "2", "--l", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data[0] == {"rows": 2, "cols": 2, "data": ["ab", "cd"]}
    assert [tuple(item["data"]) for item in data] == list(WORDS_2_2)


@pytest.mark.parametrize("method", sorted(oracle.METHODS))
@pytest.mark.parametrize("k, l", [(3, 3), (10, 1), (1, 10), (2, 2)])
def test_enum_bytes_equal_whole_output(capsys, method, k, l):
    # the streamed writer must print exactly what rendering the whole list
    # of the rotation texts at once would
    argv = ("enum", "--method", method, "--k", str(k), "--l", str(l))
    if method == "prefix" and min(k, l) < 2:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (11, "") and err.startswith("error:")
        return
    texts = list(rotation.texts(k, l))
    assert run(capsys, *argv) == (0, "\n".join(texts), "")
    assert run(capsys, *argv, "--json") == (
        0, json.dumps([{"rows": k, "cols": l, "data": text.splitlines()}
                       for text in texts]) + "\n", "")


# thin and transposed shapes, and wide and tall ones: together they reach
# each of the three ways word2d.stream_windows cuts a text, and
# word2d.stream_fills at thin shapes; prefix conjugates start at (2,2)
@pytest.mark.parametrize("method, k, l", [
    (method, k, l) for method in sorted(oracle.METHODS)
    for k, l in [(1, 130), (130, 1), (2, 200), (200, 2), (30, 70), (70, 30)]
    if method != "prefix" or min(k, l) > 1])
def test_enum_json_bytes_equal_json_dumps_of_plain_texts(capsys, method, k,
                                                         l):
    argv = ("enum", "--method", method, "--k", str(k), "--l", str(l))
    code, out, err = run(capsys, *argv)
    grids = [text.split("\n") for text in out[:-1].split("\n\n")]
    assert (code, err, len(grids)) == (0, "", (k + 1) * (l + 1))
    assert run(capsys, *argv, "--json") == (
        0, json.dumps([{"rows": k, "cols": l, "data": rows}
                       for rows in grids]) + "\n", "")


# ----------------------------------------------------------------- locate --

def test_locate_from_file(capsys, tmp_path):
    path = tmp_path / "block.txt"
    path.write_text(word2d.to_text(OCC_BLOCK))
    code, out, _ = run(capsys, "locate", "--file", str(path),
                       "--row-bound", "21", "--col-bound", "21")
    assert code == 0
    data = json.loads(out)
    assert data["first"] == [2, 2]
    assert data["row_bound"] == 21 and data["col_bound"] == 21
    expected = [[x, y] for x in OCC_BLOCK_AXIS for y in OCC_BLOCK_AXIS]
    assert data["occurrences"] == expected


def test_locate_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("cd\nab\n"))
    code, out, _ = run(capsys, "locate", "--file", "-",
                       "--row-bound", "5", "--col-bound", "5")
    assert code == 0
    assert json.loads(out)["first"] == [0, 1]


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("bounds", [(21, 21), (3, 3), (0, 21), (21, 0)])
def test_locate_bytes_equal_json_dumps(capsys, monkeypatch, tmp_path,
                                       source, bounds):
    # the streamed writer must print exactly what json.dumps would
    rb, cb = bounds
    text = word2d.to_text(OCC_BLOCK)
    if source == "file":
        path = tmp_path / "block.txt"
        path.write_text(text)
        source = str(path)
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        source = "-"
    code, out, err = run(capsys, "locate", "--file", source,
                         "--row-bound", str(rb), "--col-bound", str(cb))
    hits = [[x, y] for x in OCC_BLOCK_AXIS if x < rb
            for y in OCC_BLOCK_AXIS if y < cb]
    assert (code, err) == (0, "")
    assert out == json.dumps({"first": [2, 2], "occurrences": hits,
                              "row_bound": rb, "col_bound": cb}) + "\n"


def test_locate_searches_each_frame_word_once(capsys, monkeypatch):
    # the first occurrence and both axes come from one search per frame word
    calls = []
    search = word1d.shortest_truncated_index
    monkeypatch.setattr(word1d, "shortest_truncated_index",
                        lambda u, alph: calls.append(u) or search(u, alph))
    monkeypatch.setattr("sys.stdin", io.StringIO(word2d.to_text(OCC_BLOCK)))
    code, out, _ = run(capsys, "locate", "--file", "-",
                       "--row-bound", "21", "--col-bound", "21")
    assert code == 0 and json.loads(out)["first"] == [2, 2]
    assert sorted(calls) == sorted([OCC_BLOCK[0], "".join(r[0] for r in OCC_BLOCK)])


@pytest.mark.parametrize("text, bounds, exit_code", [
    ("cc\naa\n", ("21", "21"), 3),                     # NotAFactor
    (word2d.to_text(OCC_BLOCK), ("-1", "21"), 2),       # negative bound
    (word2d.to_text(OCC_BLOCK), ("21", "-1"), 2),
    # a zero bound on the other axis does not hide a negative one
    (word2d.to_text(OCC_BLOCK), ("-1", "0"), 2),
    (word2d.to_text(OCC_BLOCK), ("0", "-1"), 2),
])
def test_locate_errors_leave_stdout_empty(capsys, tmp_path, text, bounds,
                                          exit_code):
    path = tmp_path / "block.txt"
    path.write_text(text)
    code, out, err = run(capsys, "locate", "--file", str(path),
                         "--row-bound", bounds[0], "--col-bound", bounds[1])
    assert (code, out) == (exit_code, "")
    assert err.startswith("error:")


# ------------------------------------------------------------- conjugates --

def test_conjugates_special(capsys):
    code, out, _ = run(capsys, "conjugates", "--m", "3", "--n", "3", "--special")
    assert (code, out) == (0, "abb\ncdd\ncdd\n")


def test_conjugates_class(capsys):
    code, out, _ = run(capsys, "conjugates", "--m", "2", "--n", "2")
    assert code == 0
    assert out == "ab\ncd\n\nba\ndc\n\ncd\nab\n\ndc\nba\n"


# --------------------------------------------------------------- dawg-dot --

def test_dawg_dot(capsys):
    code, out, _ = run(capsys, "dawg-dot", "--orientation", "rows",
                       "--max-len", "2")
    assert code == 0
    assert out.startswith("digraph {")
    assert '"0" -> "1" [label="d,b"];' in out
    assert '"0" -> "2" [label="c,a"];' in out
    again = run(capsys, "dawg-dot", "--orientation", "rows", "--max-len", "2")
    assert again[1] == out


def test_dawg_dot_product(capsys):
    code, out, _ = run(capsys, "dawg-dot", "--orientation", "product",
                       "--max-len", "2")
    assert code == 0
    assert out.startswith("digraph {")
    assert '"(0,0)"' in out


# ----------------------------------------------------------------- verify --

def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--k", "2", "--l", "2")
    assert code == 0
    assert out.endswith("PASS\n")


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--k", "3", "--l", "3", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["sizes"]["oracle"] == 16


def test_enum_methods_are_the_methods_verify_runs():
    choices, _ = cli._COMMANDS["enum"][2]["--method"]
    assert list(choices) == list(oracle.verify(2, 2)["sizes"])


def test_verify_reports_failure_with_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(cli.oracle, "verify", lambda k, l: {
        "k": k, "l": l, "expected": 9, "sizes": {"dawg": 8},
        "methods_agree": False, "oracle_stable": True, "ok": False})
    code, out, _ = run(capsys, "verify", "--k", "2", "--l", "2")
    assert code == 1
    assert out.endswith("FAIL\n")


# ------------------------------------------------------------- exit codes --

def test_data_errors_map_to_distinct_codes(capsys, tmp_path):
    code, _, err = run(capsys, "enum", "--k", "1", "--l", "1",
                       "--method", "prefix")
    assert code == 11  # OutOfRange
    assert err.startswith("error:")

    path = tmp_path / "foreign.txt"
    path.write_text("cc\naa\n")
    code, _, err = run(capsys, "locate", "--file", str(path),
                       "--row-bound", "5", "--col-bound", "5")
    assert code == 3  # NotAFactor
    assert err.startswith("error:")


def test_memory_error_exits_14(capsys, monkeypatch):
    # a request too large for memory ends in its documented code, not a
    # traceback; raised by a patch, so nothing large is allocated
    def exhausted(rows, cols):
        raise MemoryError

    monkeypatch.setattr(word2d, "mu_prefix", exhausted)
    code, out, err = run(capsys, "gen2d", "--rows", "3", "--cols", "3")
    assert (code, out) == (14, "")
    assert err == "error: out of memory\n"
    assert len(set(EXIT_CODES.values())) == len(EXIT_CODES)


def _names_stdout(node) -> bool:
    return isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout"


def _writes_stdout(node) -> bool:
    # a method of sys.stdout other than flush and fileno
    return (isinstance(node, ast.Attribute) and _names_stdout(node.value)
            and node.attr not in ("flush", "fileno"))


def _prints_to_stdout(node) -> bool:
    return (isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "print"
            and not any(kw.arg == "file" for kw in node.keywords))


def test_one_writer_frames_stdout():
    # every command's stdout goes through _write_joined, which writes
    # nothing before the command's first piece exists; verify's report too,
    # once it is whole, so nothing prints to stdout
    assert _owners(_writes_stdout) == ["cli._write_joined"]
    assert _owners(_prints_to_stdout) == []
    # elsewhere sys.stdout is only flushed or asked for its descriptor
    assert set(_owners(_names_stdout)) == {
        "cli._write_joined", "cli._drop_stdout", "cli.main"}


# one broken invariant per case: the patch applied, the request, and the
# complaint expected on stderr; a broken count law gives word2d.count_law's
# whole message
INVARIANT_BREAKS = {
    "dawg-count": ("dawg._line_words = lambda *a, words=dawg._line_words: "
                   "words(*a)[:1]",
                   "dawg", 2, 2, "size (2,2) has 9 subwords, dawg gave 1"),
    "dawg-label": ("dawg._LETTER = {alph: dict.fromkeys(letters, alph[0]) "
                   "for alph, letters in dawg._LETTER.items()}",
                   "dawg", 2, 2, "size (2,2) has 9 subwords, dawg gave 1"),
    # every row of a lane is its top, so no lane has its span as a column
    "dawg-corner": ("word2d.fill_text = lambda top, side: "
                    "(top + '\\n') * len(side)",
                    "dawg", 2, 2, "does not have 'bd' as its column 2"),
    "extend-lane": ("word2d.fill_text = lambda top, side: "
                    "(top + '\\n') * len(side)",
                    "extend", 2, 2, "does not have 'ac' as its column 1"),
    # the column word's prefix holds no side, so no side is found in it
    "dawg-side": ("word2d.factor_prefix = lambda alphabet, k: ''",
                  "dawg", 2, 2, "is not a factor of the column word"),
    "extend-side": ("word2d.factor_prefix = lambda alphabet, k: ''",
                    "extend", 2, 2, "is not a factor of the column word"),
    "extend-count": ("frames._extend_block = lambda words, alphabet: []",
                     "extend", 2, 2,
                     "size (2,2) has 9 subwords, extension gave 0"),
    "extend-duplicate": ("frames._extend_block = lambda words, alphabet: "
                         "[u + alphabet[0] for u in words for _ in 'xx']",
                         "extend", 2, 2,
                         "size (2,2) has 9 subwords, extension gave 4"),
    "one-line-count": ("frames.factors1d = lambda k, alph: ()",
                       "extend", 1, 3,
                       "size (1,3) has 8 subwords, extension gave 0"),
    "conjugate": ("conjugacy.special_conjugate2d = lambda m, n: ('d',)",
                  "conjugate", 2, 2,
                  "size (2,2) has 9 subwords, conjugation gave 1"),
    "prefix": ("conjugacy._cover_index = lambda k: 3",
               "prefix", 5, 5, "4 rotation exponents for length 5"),
    # each two row windows next to each other in sorted order share one
    # name, so the corners dc/dc and dd/dd are told apart no more
    "conjugate-name": ("word2d._rank = (lambda rank: lambda *a: ''.join("
                       "chr(ord(c) // 2) for c in rank(*a)))(word2d._rank)",
                       "conjugate", 2, 2,
                       "size (2,2) has 9 subwords, conjugation gave 8"),
    "prefix-name": ("word2d._rank = (lambda rank: lambda *a: ''.join("
                    "chr(ord(c) // 2) for c in rank(*a)))(word2d._rank)",
                    "prefix", 2, 2,
                    "size (2,2) has 9 subwords, prefix conjugates gave 8"),
}


@pytest.mark.parametrize("case", sorted(INVARIANT_BREAKS))
def test_invariant_checks_survive_optimize(case):
    # python -O strips assert statements; the count laws and the corner
    # check must still end the run with InternalError's exit code 13, and
    # with --json too, nothing may reach stdout before the check fails
    patch, method, k, l, complaint = INVARIANT_BREAKS[case]
    # a patch of a name the code no longer has would break nothing
    module, name = patch.split(" = ")[0].split(".")
    assert hasattr(getattr(fib2d, module), name), f"{module}.{name} is gone"
    script = ("from fib2d import cli, conjugacy, dawg, frames, word2d\n"
              f"{patch}\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    for form in ([], ["--json"]):
        proc = run_optimized(script, "enum", "--method", method,
                             "--k", str(k), "--l", str(l), *form)
        assert proc.returncode == 13, (form, proc.stderr)
        assert proc.stderr.startswith("error:")
        assert complaint in proc.stderr
        assert proc.stdout == "", form


def _run_with_d_tops_ascending(*argv):
    # python -O, with the side order reversed under the tops that start
    # with d, which breaks the order of dawg and extend under the first
    assert word2d._ASCENDING["d"] is False
    return run_optimized("from fib2d import cli, word2d\n"
                         "word2d._ASCENDING = dict(word2d._ASCENDING, d=True)\n"
                         "sys.exit(cli.main(sys.argv[1:]))\n", *argv)


@pytest.mark.parametrize("method", ["dawg", "extend"])
def test_order_check_survives_optimize(method):
    # the one check that fires mid-stream: dawg and extend fill their texts
    # in sorted order and check each against the one before, and the stream
    # stops before either text of the broken pair, so stdout is the correct
    # output up to the first top that starts with d
    proc = _run_with_d_tops_ascending("enum", "--method", method,
                                      "--k", "3", "--l", "3")
    assert proc.returncode == 13, proc.stderr
    assert proc.stderr.startswith("error:")
    assert "out of sorted order" in proc.stderr
    correct = "\n".join(rotation.texts(3, 3))
    assert proc.stdout and correct.startswith(proc.stdout)
    assert proc.stdout != correct


def test_order_check_survives_optimize_in_verify():
    # verify reads the streams side by side, so the break comes in the
    # middle of the comparison, and no report is printed
    proc = _run_with_d_tops_ascending("verify", "--k", "3", "--l", "3")
    assert proc.returncode == 13, proc.stderr
    assert proc.stderr.startswith("error:")
    assert "out of sorted order" in proc.stderr
    assert proc.stdout == ""


def test_usage_errors_exit_2(capsys, tmp_path):
    for alphabet in ("bb", "a", "bac"):
        code, _, err = run(capsys, "gen1d", "--alphabet", alphabet,
                           "--len", "3")
        assert code == 2
        assert err == ("error: alphabet must be two distinct letters "
                       "from 'abcd'\n")

    code, _, err = run(capsys, "gen2d", "--rows", "0", "--cols", "3")
    assert code == 2

    missing = tmp_path / "nowhere.txt"
    code, _, err = run(capsys, "locate", "--file", str(missing),
                       "--row-bound", "5", "--col-bound", "5")
    assert code == 2

    with pytest.raises(SystemExit) as excinfo:
        cli.main(["no-such-command"])
    assert excinfo.value.code == 2


def test_repeated_runs_are_byte_identical(capsys):
    first = run(capsys, "enum", "--k", "3", "--l", "2", "--method", "conjugate")
    second = run(capsys, "enum", "--k", "3", "--l", "2", "--method", "conjugate")
    assert first == second


# one command of each kind whose output could follow the order of a set
HASH_SEED_CATALOG = [
    *(["enum", "--method", method, "--k", "7", "--l", "6"]
      for method in sorted(oracle.METHODS)),
    ["enum", "--k", "6", "--l", "7", "--json"],
    ["conjugates", "--m", "5", "--n", "6"],
    ["dawg-dot", "--orientation", "product", "--max-len", "6"],
    ["dawg-dot", "--orientation", "cols", "--max-len", "12"],
    ["verify", "--k", "7", "--l", "7", "--json"],
    ["gen2d", "--rows", "13", "--cols", "21"],
]


def test_output_is_the_same_under_every_hash_seed():
    # string hashes, and so the order of sets of strings, change with
    # PYTHONHASHSEED; each seed's child runs the whole catalog, writing a
    # NUL-framed exit code after each command's stdout
    script = ("import sys\n"
              "from fib2d import cli\n"
              f"for argv in {HASH_SEED_CATALOG!r}:\n"
              "    sys.stdout.write(f'\\0{cli.main(argv)}\\0')\n")
    outs = []
    for seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-c", script],
                              env=dict(PACKAGE_ENV, PYTHONHASHSEED=seed),
                              capture_output=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b""), seed
        outs.append(proc.stdout)
    assert outs[0].split(b"\0")[1::2] == [b"0"] * len(HASH_SEED_CATALOG)
    assert outs[0] == outs[1]


# ----------------------------------------------------------------- parser --

# argv the table parser must read as the argparse parser did
VALID = [
    ("gen1d", "--len", "8"),
    ("gen1d", "--alphabet", "dc", "--len", "8"),
    ("gen1d", "--alphabet=db", "--len=0"),
    ("gen2d", "--rows", "3", "--cols", "5"),
    ("gen2d", "--cols=5", "--rows=3"),
    ("enum", "--k", "2", "--l", "3"),
    ("enum", "--k=2", "--l=3", "--method=oracle", "--json"),
    *(("enum", "--method", method, "--k", "1", "--l", "1")
      for method in sorted(oracle.METHODS)),
    ("locate", "--file", "-", "--row-bound", "21", "--col-bound", "21"),
    ("locate", "--file=block.txt", "--row-bound=0", "--col-bound", "5"),
    ("conjugates", "--m", "3", "--n", "3"),
    ("conjugates", "--special", "--m", "3", "--n", "3"),
    *(("dawg-dot", "--orientation", orientation, "--max-len", "5")
      for orientation in ("rows", "cols", "product")),
    ("dawg-dot", "--orientation=product", "--max-len=-1"),
    ("verify", "--k", "2", "--l", "2"),
    ("verify", "--k", "2", "--l", "2", "--json"),
    # unique prefixes
    ("gen1d", "--le", "5"),
    ("gen1d", "--l", "5", "--al", "ba"),
    ("gen1d", "--le=5", "--alph=dc"),
    ("enum", "--k", "2", "--l", "2", "--meth", "conjugate", "--j"),
    ("locate", "--f", "-", "--r", "1", "--c=2"),
    ("dawg-dot", "--o", "rows", "--max", "3"),
    ("conjugates", "--m", "2", "--n", "2", "--sp"),
    ("verify", "--k", "1", "--l", "1", "--js"),
    # "-", negative numbers and words with a space are values
    ("gen1d", "--len", "-1"),
    ("gen1d", "--len=-1"),
    ("gen2d", "--rows", "-3", "--cols", "-0"),
    ("gen1d", "--alphabet", "-", "--len", "2"),
    ("locate", "--file", "-1.5", "--row-bound", "-1", "--col-bound", "1"),
    ("locate", "--file", "-.5", "--row-bound", "1", "--col-bound", "1"),
    ("locate", "--file", "--x y", "--row-bound", "1", "--col-bound", "1"),
    ("gen1d", "--alphabet", "-x y", "--len", "1"),
    ("gen1d", "--len", "-5\n"),
    # the last occurrence wins
    ("gen1d", "--len", "3", "--len", "5"),
    ("gen1d", "--len", "-3", "--len", "2"),
    ("enum", "--k", "1", "--l", "1", "--json", "--json", "--method", "dawg",
     "--method", "prefix"),
    # values int() reads, and values that are words
    ("gen1d", "--alphabet", "", "--len", " 5 "),
    ("gen1d", "--alphabet", "a=b", "--len", "+1_0"),
    ("gen1d", "--alphabet=--len", "--len", "2"),
    ("gen1d", "--alphabet=", "--len", "2"),
]

USAGE_ERRORS = [
    # a missing or unknown command
    (), ("nope",), ("gen",), ("GEN1D", "--len", "3"), ("--len", "3"),
    ("-x",), ("--", "gen1d", "--len", "3"), ("--bogus", "gen1d", "--len", "3"),
    # an unknown option
    ("gen1d", "--len", "3", "--bogus"),
    ("gen1d", "--len", "3", "--bogus=1"),
    ("gen1d", "-len", "3"),
    ("enum", "--k", "1", "--l", "1", "-j"),
    ("gen1d", "--=3"),
    ("gen1d", "--", "-h"),
    # a missing value
    ("gen1d", "--len"),
    ("gen1d", "--len", "--alphabet", "ba"),
    ("gen1d", "--alphabet", "--l", "3"),
    ("gen1d", "--alphabet", "-x", "--len", "1"),
    ("gen1d", "--len", "--"),
    ("gen1d", "--len", "-h"),
    ("locate", "--file", "--row-bound", "1", "--col-bound", "1"),
    # a value given to a flag
    ("enum", "--k", "1", "--l", "1", "--json=yes"),
    ("enum", "--k", "1", "--l", "1", "--json="),
    ("verify", "--k", "1", "--l", "1", "--js=1"),
    ("gen1d", "--len", "3", "--help=1"),
    ("--help=x",),
    # a bad int
    ("gen1d", "--len", "x"),
    ("gen1d", "--len", "1.5"),
    ("gen1d", "--len", "-1.5"),
    ("gen1d", "--len", "-"),
    ("gen1d", "--len="),
    ("gen1d", "--len=3=4"),
    ("gen2d", "--rows", "3", "--cols", "three"),
    ("gen1d", "--len", "x", "-h"),
    # a bad choice
    ("enum", "--k", "1", "--l", "1", "--method", "DAWG"),
    ("enum", "--k", "1", "--l", "1", "--method", "da"),
    ("dawg-dot", "--orientation", "diag", "--max-len", "3"),
    ("dawg-dot", "--orientation=", "--max-len", "3"),
    # a missing required option
    ("gen1d",), ("gen1d", "--alphabet", "ba"), ("gen2d", "--rows", "3"),
    ("locate", "--row-bound", "1", "--col-bound", "1"),
    ("dawg-dot", "--max-len", "3"), ("verify", "--k", "1"),
    # a stray positional
    ("gen1d", "--len", "3", "x"),
    ("gen1d", "x", "--len", "3"),
    ("gen1d", "--len", "3", "5"),
    ("gen1d", "--len", "3", "-"),
    ("gen1d", "--len", "3", "--"),
    ("gen1d", "--len", "3", "--", "x"),
    ("gen1d", "gen2d", "--len", "3"),
]

HELP = [
    ("-h",), ("--help",), ("--he",), ("-h", "bogus"), ("--help", "gen1d"),
    *((command, flag) for command in cli._COMMANDS for flag in ("-h", "--help")),
    ("gen1d", "--len", "3", "-h"),
    ("gen1d", "-h", "--len"),
    ("gen1d", "-h", "--bogus"),
    ("enum", "--k", "1", "--hel"),
    ("locate", "--h"),
]

# argparse read an unknown option or a stray word, then -h, as a request
# for help; the table parser stops at the first unknown argument
STOPS_BEFORE_HELP = [
    ("gen1d", "--bogus", "-h"),
    ("--bogus", "gen1d", "-h"),
    ("gen1d", "x", "--help"),
]


def parse_with(parse, argv):
    """What parse made of argv: (command, function, options), or the exit
    code, stdout and stderr of the SystemExit it raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parse(list(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def by_argparse(argv):
    options = vars(argparse_parser().parse_args(argv))
    return options.pop("command"), options.pop("func"), options


def by_table(argv):
    command, options = cli._parse(argv)
    return command, cli._COMMANDS[command][0], vars(options)


@pytest.mark.parametrize("argv", VALID)
def test_parser_reads_valid_argv_as_argparse(argv):
    assert parse_with(by_table, argv) == parse_with(by_argparse, argv)


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_parser_usage_errors_exit_2_as_argparse(argv):
    assert parse_with(by_argparse, argv)[:2] == (2, "")
    code, out, err = parse_with(by_table, argv)
    assert (code, out) == (2, "")
    usage, error = err.splitlines()
    prog = ("fib2d " + argv[0] if argv and argv[0] in cli._COMMANDS
            else "fib2d")
    assert usage.startswith(f"usage: {prog} [-h]")
    assert error.startswith(f"{prog}: error: ")


@pytest.mark.parametrize("argv", HELP)
def test_parser_help_exits_0_as_argparse(argv):
    code, out, err = parse_with(by_argparse, argv)
    assert (code, err) == (0, "") and out
    code, out, err = parse_with(by_table, argv)
    assert (code, err) == (0, "") and out.startswith("usage: fib2d")


@pytest.mark.parametrize("argv", STOPS_BEFORE_HELP)
def test_parser_stops_at_the_first_unknown_argument(argv):
    code, out, _ = parse_with(by_argparse, argv)
    assert code == 0 and out
    assert parse_with(by_table, argv)[:2] == (2, "")
