"""The CLI writes its output as it makes it.

gen1d, gen2d, conjugates, dawg-dot and enum write their output in pieces,
never encoding it in one.  Their bytes are pinned against the
whole-text forms they replaced, their memory against bounds measured in
a fresh interpreter with a stdout that only counts, and a reader that
closes stdout early gets one documented exit code.
"""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fib2d import cli, conjugacy, dawg, word1d, word2d

from reference import (PACKAGE_ENV, conjugacy_class_rotations, dot_graph,
                       export_dot_text, fresh_peak)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ bytes --

@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 500), (500, 1), (37, 61),
                                        (2000, 2000)])
def test_gen2d_prints_the_text_of_the_prefix(capsys, rows, cols):
    assert run(capsys, "gen2d", "--rows", str(rows), "--cols", str(cols)) == (
        0, word2d.to_text(word2d.mu_prefix(rows, cols)), "")


# from _PIECE letters on, the image size no longer grows with the length,
# so 2^16 and 10^6 letters take many pieces; F12 numbers, 46 368, 75 025
# and 121 393, are words w_n, which end where an image ends
@pytest.mark.parametrize("length", [
    0, 1, word1d._PIECE, word1d._PIECE + 1, 1 << 16, (1 << 16) + 1, 10**6,
    *(n + d for n in (46368, 75025, 121393) for d in (-1, 0, 1))])
def test_gen1d_prints_the_word_and_a_newline(capsys, length):
    for alphabet in (x + y for x in "abcd" for y in "abcd" if x != y):
        assert run(capsys, "gen1d", "--alphabet", alphabet,
                   "--len", str(length)) == (
            0, word1d.fib_prefix(alphabet, length) + "\n", ""), alphabet


def test_conjugates_special_prints_the_text_of_the_conjugate(capsys):
    for m in range(7):
        for n in range(7):
            argv = ("conjugates", "--m", str(m), "--n", str(n), "--special")
            if m < 2 or n < 2:
                code, out, err = run(capsys, *argv)
                assert (code, out) == (2, "") and err.startswith("error:")
                continue
            assert run(capsys, *argv) == (
                0, word2d.to_text(conjugacy.special_conjugate2d(m, n)), "")


def test_conjugates_prints_the_rotation_class(capsys):
    # the class read as cyclic windows against the set of every rotation;
    # ("dc", "dc") is imprimitive
    for w in (("d",), ("dc", "ba"), ("dc", "dc"), ("ab", "ab", "cd"),
              *(word2d.fib_array(m, n) for m in range(8) for n in range(8))):
        assert conjugacy.conjugacy_class(w) == conjugacy_class_rotations(w)
    for m, n in [(m, n) for m in range(8) for n in range(8)] + [(2, 12),
                                                                (12, 2)]:
        rotations = conjugacy_class_rotations(word2d.fib_array(m, n))
        assert run(capsys, "conjugates", "--m", str(m), "--n", str(n)) == (
            0, "\n".join(map(word2d.to_text, rotations)), ""), (m, n)


@pytest.mark.parametrize("orientation", ["rows", "cols", "product"])
def test_dawg_dot_prints_the_whole_text_reference(capsys, orientation):
    for max_len in (*range(1, 13), 40, 80):
        assert run(capsys, "dawg-dot", "--orientation", orientation,
                   "--max-len", str(max_len)) == (
            0, export_dot_text(dot_graph(orientation, max_len)), "")


@pytest.mark.parametrize("argv", [
    ("gen2d", "--rows", "0", "--cols", "3"),
    ("gen2d", "--rows", "3", "--cols", "0"),
    ("dawg-dot", "--orientation", "product", "--max-len", "0"),
    ("dawg-dot", "--orientation", "rows", "--max-len", "0"),
    ("gen1d", "--alphabet", "bx", "--len", "3"),
    ("gen1d", "--len", "-1"),
])
def test_errors_come_before_the_first_byte(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


# ----------------------------------------------------------------- memory --
#
# Every peak is read by reference.fresh_peak: one request in a fresh
# interpreter, its stdout only counted.  Each measured peak below is
# Python 3.11's there, within 56 B under PYTHONHASHSEED 0, 1 and random,
# with the package loaded from its .pyc files, which reads up to 4.4 KB
# more than a package compiled from its sources.

# 37 936 B at 2000x2000 and 338 506 B at 20000x200, the prefix's tuple of
# row references, each substitution step built as one tuple of cropped
# rows; holding the text took 4.3 and 4.6 MB, and building the whole
# image, slicing it and cropping it again 0.62 MB at 20000x200
GEN2D_PEAK_PINS = {(2000, 2000): 43_700, (20000, 200): 400_000}


@pytest.mark.parametrize("rows, cols", sorted(GEN2D_PEAK_PINS))
def test_gen2d_holds_rows_not_text(rows, cols):
    code, chars, peak = fresh_peak("gen2d", "--rows", str(rows),
                                   "--cols", str(cols))
    assert (code, chars) == (0, rows * (cols + 1))
    assert peak < GEN2D_PEAK_PINS[rows, cols]


# the ceiling at each shape: holding the sorted texts took 5.3-21.6 MB at
# the thin shapes and 104-113 MB at (100,100)
SHAPE_BOUNDS = [((1100, 2), 6_000_000), ((2, 1100), 6_000_000),
                ((1100, 1), 6_000_000), ((1, 1100), 6_000_000),
                ((100, 100), 8_000_000)]

# 0.39-0.64 MB at the thin shapes, where the window reader holds its
# lanes of window names, the names of their blocks and the sorted places
# of the windows, and 2.43-2.45 MB at (100,100), whose windows are keyed
# by their k names; each pin sits ~15% above its peak.  Keying every
# window by its k names took 3.0-4.7 MB at the thin shapes, and holding
# each distinct row window twice up to 6 MB; with a second copy of the
# block names, rearranged into runs h apart, the oracle's (1100,1) and
# (1100,2) read 0.60 and 0.81 MB, and before _rank dropped its keys
# before its rank table, and the reader its lanes' names before keying
# the windows, the wide shapes read 0.72-0.76 MB
ENUM_BOUNDS = {
    ("conjugate", 1100, 2): 735_000, ("conjugate", 2, 1100): 690_000,
    ("conjugate", 1100, 1): 502_000, ("conjugate", 1, 1100): 565_000,
    ("conjugate", 100, 100): 2_800_000,
    ("oracle", 1100, 2): 690_000, ("oracle", 2, 1100): 700_000,
    ("oracle", 1100, 1): 450_000, ("oracle", 1, 1100): 540_000,
    ("oracle", 100, 100): 2_810_000,
    ("prefix", 1100, 2): 715_000, ("prefix", 2, 1100): 680_000,
    ("prefix", 100, 100): 2_800_000,
}


# prefix conjugates exist only from size (2,2) on
@pytest.mark.parametrize("method, k, l, bound", [
    (method, k, l, bound) for method in ("conjugate", "oracle", "prefix")
    for (k, l), bound in SHAPE_BOUNDS if method != "prefix" or min(k, l) > 1])
def test_enum_holds_names_not_text(method, k, l, bound):
    code, chars, peak = fresh_peak("enum", "--method", method,
                                   "--k", str(k), "--l", str(l))
    n = (k + 1) * (l + 1)
    assert (code, chars) == (0, n * k * (l + 1) + n - 1)
    assert peak < ENUM_BOUNDS[method, k, l] <= bound


def test_dawg_dot_product_holds_graph_not_text(monkeypatch, capsys):
    # the product is listed from the two line DAWGs, never built, and its
    # text written as it is made; the next test pins its memory
    def built(base, hung):
        raise AssertionError("the product was built")

    monkeypatch.setattr(dawg, "rooted_product", built)
    result = run(capsys, "dawg-dot", "--orientation", "product",
                 "--max-len", "40")
    monkeypatch.undo()
    g = dot_graph("product", 40)
    assert (len(g.nodes), len(g.edges)) == (8931, 9690)
    assert result == (0, export_dot_text(g), "")


def test_dawg_dot_product_holds_neither_product_nor_text():
    # 15 244 B at --max-len 40, the two line DAWGs' spines and shortcuts
    # and one hung copy's edge lines; the pin sits 12% above.  With both
    # line DAWGs' edges, node sets and adjacencies stored it took 0.077
    # MB, building the product and sorting its 8 931 nodes and 9 690 edges
    # 3.2 MB, and with its adjacency and the whole text 7.2 MB
    code, chars, peak = fresh_peak("dawg-dot", "--orientation", "product",
                                   "--max-len", "40")
    assert (code, chars) == (0, len(export_dot_text(dot_graph("product",
                                                              40))))
    assert peak < 17_000


def test_dawg_dot_product_holds_one_copy_template():
    # 32 485 B at --max-len 200, the two line DAWGs and one hung copy's
    # edge lines, formatted once with a hole for the copy's base node, the
    # node lines dropped before the edges; listing the hung DAWG's
    # out-edges and formatting every line took 57 853 B.  The pin sits 8%
    # above
    code, chars, peak = fresh_peak("dawg-dot", "--orientation", "product",
                                   "--max-len", "200")
    assert (code, chars) == (0, 13_755_244)
    assert peak < 35_000


def test_line_dawg_dot_holds_no_edge_list():
    # 0.64 MB at --max-len 100 000 (17.5 MB max RSS), reached while the
    # line DAWG's spine is built, and the listing adds nothing to it.
    # Listing every edge and sorting the nodes and the edges took 57.3 MB
    # (69.3 MB max RSS).  The pin sits ~15% above.  cols differs only in
    # its two classes, so only rows is pinned: a run takes ~3 s under
    # tracemalloc
    code, chars, peak = fresh_peak("dawg-dot", "--orientation", "rows",
                                   "--max-len", "100000")
    assert (code, chars) == (0, 14_057_995)
    assert peak < 740_000


def test_gen1d_holds_one_piece():
    # 10 510 B, the one image of at most one slice that every piece is cut
    # from, cached, and the 35 letters it replaces; holding the word took
    # 2.7 MB.  The pin sits ~15% above
    code, chars, peak = fresh_peak("gen1d", "--len", "1000000")
    assert (code, chars) == (0, 10**6 + 1)
    assert peak < 12_100


# 26 949 B each, most of it the ascii codec that reads the factor file,
# and the pin sits ~15% above; listing the axis of the nonzero bound took
# 10.1 and 12.7 MB, and 50 MB at 10^6
@pytest.mark.parametrize("row_bound, col_bound", [(200_000, 0), (0, 200_000)])
def test_locate_lists_no_axis_beside_an_empty_one(capsys, tmp_path,
                                                  row_bound, col_bound):
    path = tmp_path / "d.txt"
    path.write_text("d\n")
    argv = ("locate", "--file", str(path), "--row-bound", str(row_bound),
            "--col-bound", str(col_bound))
    out = json.dumps({"first": [0, 0], "occurrences": [],
                      "row_bound": row_bound, "col_bound": col_bound}) + "\n"
    code, chars, peak = fresh_peak(*argv)
    assert (code, chars) == (0, len(out))
    assert run(capsys, *argv) == (0, out, "")
    assert peak < 31_000


# dawg 1.39 and 1.40 MB at (1100,1) and (1100,2), 1.32 MB at (1,1100) and
# (2,1100) and 0.32-0.33 MB at (500,1) and (1,500), its line DAWG walk's
# paths; extend 1.39, 1.40, 1.33 and 1.33 MB at the thin shapes, its last
# diagonal step's list of words; and at (40,40) and (100,100) dawg 30 and
# 130 KB and extend 33 and 135 KB, the corner-letter blocks, one lane and
# one text.  Each pin sits ~15% above its peak.  Sorting every text first
# took 3.5 and 3.0 MB at (40,40) and 106 and 104 MB at (100,100), and
# holding dawg's corner-check texts 0.17 and 2.2 MB.  At the thin shapes,
# filling each text on its own took dawg 7.8-10.3 MB; growing each extend
# block through a cached table of the longer factors extend 10.5-10.7
# MB; caching the one-line class's factors 3.9-5.5 MB; growing four
# corner-letter blocks, not one list of tops over dc and one of sides
# over db, 2.7-5.2 MB; swapping every top ahead of the stream dawg 2.2-3.0
# MB; storing the line DAWG's edges, node set and adjacency dawg 2.23 MB,
# and 0.65 MB at (500,1) and (1,500); and keeping each word of extend's
# block step as it grew extend 2.56 MB at (1100,2) and (2,1100)
FRAME_PEAK_PINS = {
    ("dawg", 1100, 1): 1_600_000, ("dawg", 1100, 2): 1_610_000,
    ("dawg", 1, 1100): 1_520_000, ("dawg", 2, 1100): 1_520_000,
    ("dawg", 500, 1): 378_000, ("dawg", 1, 500): 373_000,
    ("dawg", 40, 40): 34_000, ("dawg", 100, 100): 147_000,
    ("extend", 1100, 1): 1_600_000, ("extend", 1100, 2): 1_610_000,
    ("extend", 1, 1100): 1_530_000, ("extend", 2, 1100): 1_530_000,
    ("extend", 40, 40): 37_900, ("extend", 100, 100): 154_000,
}


@pytest.mark.parametrize("method, k, l", sorted(FRAME_PEAK_PINS))
def test_enum_holds_one_lane_not_texts(method, k, l):
    code, chars, peak = fresh_peak("enum", "--method", method,
                                   "--k", str(k), "--l", str(l))
    n = (k + 1) * (l + 1)
    assert (code, chars) == (0, n * k * (l + 1) + n - 1)
    assert peak < FRAME_PEAK_PINS[method, k, l]


# 3.58 MB at (11,11), 0.22 MB at (2,14) and 0.19 MB at (14,2), the keys of
# the class's windows and one text; each pin sits ~15% above its peak.
# Holding the whole class as a sorted set of rotations took 27.2, 0.91
# and 6.1 MB
CONJUGATES_PEAK_PINS = {(11, 11): 4_150_000, (2, 14): 255_000,
                        (14, 2): 220_000}


@pytest.mark.parametrize("m, n", sorted(CONJUGATES_PEAK_PINS))
def test_conjugates_holds_window_keys_not_the_class(m, n):
    code, chars, peak = fresh_peak("conjugates", "--m", str(m),
                                   "--n", str(n))
    rows, cols = word2d.dims(word2d.fib_array(m, n))
    size = rows * cols  # every Fibonacci grid is primitive
    assert (code, chars) == (0, size * rows * (cols + 1) + size - 1)
    assert peak < CONJUGATES_PEAK_PINS[m, n]


def test_verify_holds_only_the_truth():
    # 1.52 MB at (60,60), the streams' window tables and sorted window
    # positions, and the pin sits ~15% above; keeping the window reader's
    # name table for the whole stream took 6.8 MB, holding the oracle's
    # texts 16.3 MB, and a sorted dawg or extend output beside them 28.9 MB
    code, chars, peak = fresh_peak("verify", "--k", "60", "--l", "60")
    assert code == 0 and chars > 0
    assert peak < 1_745_000


# 4.59 MB at (100,100), and 3.70 and 3.76 MB at (1100,2) and (2,1100),
# where the window tables of every stream live side by side.  The
# parametrized ceilings sit above what earlier designs took: holding the
# oracle's texts 110.5 MB at (100,100), and beside one stream at a time
# 23.4 and 19.2 MB at (1100,2) and (2,1100); keeping the window reader's
# name table for the whole stream 20.3, 38.8 and 27.8 MB; and keying every
# window by its k names 14.9, 27.2 and 26.8 MB.  Each later design step
# lowered the peaks, (100,100) and (1100,2) from 9.0 and 21.7 MB to 4.6
# and 4.0 MB.  The (100,100) pin sits 18% above its peak; the last step,
# extend's block step dropping each word as it grew, took (1100,2) and
# (2,1100) from 4.01 and 4.03 MB to their peaks, and their pins sit
# between the two, 4% above the new
VERIFY_PEAK_PINS = {(100, 100): 5_400_000, (1100, 2): 3_850_000,
                    (2, 1100): 3_900_000}


@pytest.mark.parametrize("k, l, ceiling", [(100, 100, 25_000_000),
                                           (1100, 2, 45_000_000),
                                           (2, 1100, 32_000_000)])
def test_verify_holds_no_output(k, l, ceiling):
    code, chars, peak = fresh_peak("verify", "--k", str(k), "--l", str(l))
    assert code == 0 and chars > 0
    assert peak < VERIFY_PEAK_PINS[k, l] <= ceiling


def _tracers() -> list[str]:
    """module.name of each top-level statement of the test modules whose
    text starts tracemalloc."""
    found, starts = [], re.compile(r"tracemalloc\.start\(").search
    for path in sorted(Path(__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if not starts(text):
            continue
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if starts("\n".join(lines[node.lineno - 1:node.end_lineno])):
                name = (ast.unparse(node.targets[0])
                        if isinstance(node, ast.Assign)
                        else getattr(node, "name", "<module>"))
                found.append(f"{path.stem}.{name}")
    return found


def test_peaks_are_read_in_a_fresh_interpreter():
    # one yardstick: a peak traced in the test process also reads what
    # earlier tests left behind.  factors1d's test measures what one call
    # keeps, not a peak, so it traces in this process
    assert _tracers() == ["reference._FRESH_PEAK",
                          "test_word1d.test_factors1d_keeps_nothing"]


# ----------------------------------------------------------- closed stdout --

# command -> (argv, bytes read before the read end is closed); all but the
# last print well over a pipe buffer, and the last is closed before its
# three short rows, which then wait in stdout's buffer
CLOSED_EARLY = {
    "gen1d": (["gen1d", "--len", "2000000"], 10),
    "gen2d": (["gen2d", "--rows", "1000", "--cols", "1000"], 10),
    "dawg-dot": (["dawg-dot", "--orientation", "product", "--max-len", "40"],
                 10),
    "enum": (["enum", "--method", "conjugate", "--k", "40", "--l", "40"], 10),
    "locate": (["locate", "--file", "{file}", "--row-bound", "500",
                "--col-bound", "500"], 10),
    "gen2d-unread": (["gen2d", "--rows", "3", "--cols", "3"], 0),
}


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", sorted(CLOSED_EARLY))
def test_closed_stdout_exits_2(tmp_path, command, unbuffered):
    # a reader that stops early must not read as success, and the exit
    # must not add a traceback or a failed flush
    factor = tmp_path / "d.txt"
    factor.write_text("d\n")
    argv, head = CLOSED_EARLY[command]
    argv = [a.replace("{file}", str(factor)) for a in argv]
    env = {k: v for k, v in PACKAGE_ENV.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "fib2d.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    try:
        assert len(proc.stdout.read(head)) == head
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert code == 2, err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


# ----------------------------------------------------------------- import --

def test_importing_the_cli_does_not_import_json():
    # json is imported by the one command that prints through it; argparse,
    # gettext and locale would add ~3 ms to the start of every request
    script = ("import sys, fib2d.cli\n"
              "print('json' in sys.modules)\n"
              "fib2d.cli.main(['gen1d', '--len', '3'])\n"
              "print(sorted({'argparse', 'gettext', 'json', 'locale'}"
              " & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=PACKAGE_ENV,
                          capture_output=True, text=True, timeout=60)
    assert (proc.stdout, proc.stderr) == ("False\nbab\n[]\n", "")
