"""End-to-end tests of the command line, run in-process."""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys

import pytest

import fib2d
from fib2d import cli, oracle, word1d, word2d

from tables import OCC_BLOCK, OCC_BLOCK_AXIS, WORDS_2_2


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


def test_enum_methods_print_identical_bytes(capsys):
    outputs = set()
    for method in ("dawg", "extend", "conjugate", "prefix", "oracle"):
        code, out, _ = run(capsys, "enum", "--k", "2", "--l", "2",
                           "--method", method)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_enum_json(capsys):
    code, out, _ = run(capsys, "enum", "--k", "2", "--l", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data[0] == {"rows": 2, "cols": 2, "data": ["ab", "cd"]}
    assert [tuple(item["data"]) for item in data] == list(WORDS_2_2)


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
    commands = next(a for a in cli._parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    method = next(a for a in commands.choices["enum"]._actions
                  if a.dest == "method")
    assert method.choices == list(oracle.verify(2, 2)["sizes"])


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


# one broken invariant per case: the patch applied, the request, and the
# complaint expected on stderr
INVARIANT_BREAKS = {
    "dawg-count": ("dawg.subword_from_path = lambda h, v: ('d',)",
                   "dawg", 2, 2, "path pairs gave 1 subwords"),
    "dawg-corner": ("dawg.fill = lambda top, side: (top,) * len(side)",
                    "dawg", 2, 2, "does not end in column"),
    "extend-count": ("frames.extensions_of = lambda w: ()",
                     "extend", 2, 2, "extension gave 0"),
    "one-line-count": ("frames.factors1d = lambda k, alph: ()",
                       "extend", 1, 3, "extension gave 0"),
    "conjugate": ("conjugacy.special_conjugate2d = lambda m, n: ('d',)",
                  "conjugate", 2, 2, "conjugation gave 1"),
    "prefix": ("conjugacy._cover_index = lambda k: 3",
               "prefix", 5, 5, "4 rotation exponents for length 5"),
}


@pytest.mark.parametrize("case", sorted(INVARIANT_BREAKS))
def test_invariant_checks_survive_optimize(case):
    # python -O strips assert statements; the count laws and the corner
    # check must still end the run with InternalError's exit code 13
    patch, method, k, l, complaint = INVARIANT_BREAKS[case]
    # a patch of a name the code no longer has would break nothing
    module, name = patch.split(" = ")[0].split(".")
    assert hasattr(getattr(fib2d, module), name), f"{module}.{name} is gone"
    script = ("import sys\n"
              "if __debug__:\n"
              "    sys.exit('not optimized')\n"
              "from fib2d import cli, conjugacy, dawg, frames\n"
              f"{patch}\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(fib2d.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, "enum", "--method", method,
         "--k", str(k), "--l", str(l)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 13, proc.stderr
    assert proc.stderr.startswith("error:")
    assert complaint in proc.stderr
    assert proc.stdout == ""


def test_usage_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "gen1d", "--alphabet", "bb", "--len", "3")
    assert code == 2
    assert err.startswith("error:")

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
