"""The CLI writes its output as it makes it.

gen1d, gen2d, conjugates, dawg-dot and enum write their output in pieces,
never encoding it in one.  Their bytes are pinned against the
whole-text forms they replaced, their memory against bounds measured with a stdout
that only counts, and a reader that closes stdout early gets one
documented exit code.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import fib2d
from fib2d import cli, conjugacy, dawg, word1d, word2d

from reference import (conjugacy_class_rotations, dot_graph, export_dot_text,
                       fresh_peak)

ENV = dict(os.environ,
           PYTHONPATH=os.path.dirname(os.path.dirname(fib2d.__file__)))


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

class CountingStdout:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, s):
        self.chars += len(s)
        return len(s)

    def flush(self):
        pass


def traced_peak(monkeypatch, *argv):
    """(exit code, characters written, tracemalloc peak in bytes)."""
    sink = CountingStdout()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = cli.main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, sink.chars, peak


# measured peaks, Python 3.11: 0.04 MB at 2000x2000, 0.34 MB at 20000x200
# (the prefix's tuple of row references, not its text); holding the text
# took 4.3 and 4.6 MB
@pytest.mark.parametrize("rows, cols", [(2000, 2000), (20000, 200)])
def test_gen2d_holds_rows_not_text(monkeypatch, rows, cols):
    code, chars, peak = traced_peak(monkeypatch, "gen2d", "--rows", str(rows),
                                    "--cols", str(cols))
    assert (code, chars) == (0, rows * (cols + 1))
    assert peak < 1_000_000


def test_gen2d_builds_each_step_cropped(monkeypatch):
    # each substitution step builds one tuple of cropped rows; building the
    # whole image, slicing it and cropping it again took 0.62 MB
    code, chars, peak = traced_peak(monkeypatch, "gen2d", "--rows", "20000",
                                    "--cols", "200")
    assert (code, chars) == (0, 20000 * 201)
    assert peak < 400_000


# the ceiling at each shape: holding the sorted texts took 5.3-21.6 MB at
# the thin shapes and 104-113 MB at (100,100)
SHAPE_BOUNDS = [((1100, 2), 6_000_000), ((2, 1100), 6_000_000),
                ((1100, 1), 6_000_000), ((1, 1100), 6_000_000),
                ((100, 100), 8_000_000)]

# each case's measured peak, Python 3.11: 0.39-0.76 MB at the thin
# shapes, where the window reader holds its lanes of window names, the
# names of their blocks and the sorted places of the windows, and 2.4 MB
# at (100,100), whose windows are keyed by their k names.  Each bound sat
# ~15% above the peak when it was set; the oracle's (1100,1) and (1100,2)
# read 0.60 and 0.81 MB while a second copy of the block names, rearranged
# into runs h apart, was held.  Keying every window by its k names took
# 3.0-4.7 MB at the thin shapes, and holding each distinct row window
# twice up to 6 MB.  Once _rank dropped its keys before its rank table,
# and the reader its lanes' names before keying the windows, the wide
# shapes read, in a fresh process, conjugate 0.76 -> 0.49 MB at (1,1100)
# and 0.76 -> 0.60 MB at (2,1100), oracle 0.72 -> 0.47 and 0.72 -> 0.61
# MB, and prefix 0.74 -> 0.59 MB at (2,1100), each pin ~15% above
ENUM_BOUNDS = {
    ("conjugate", 1100, 2): 880_000, ("conjugate", 2, 1100): 690_000,
    ("conjugate", 1100, 1): 580_000, ("conjugate", 1, 1100): 565_000,
    ("conjugate", 100, 100): 3_300_000,
    ("oracle", 1100, 2): 690_000, ("oracle", 2, 1100): 700_000,
    ("oracle", 1100, 1): 450_000, ("oracle", 1, 1100): 540_000,
    ("oracle", 100, 100): 4_200_000,
    ("prefix", 1100, 2): 860_000, ("prefix", 2, 1100): 680_000,
    ("prefix", 100, 100): 3_300_000,
}


# prefix conjugates exist only from size (2,2) on
@pytest.mark.parametrize("method, k, l, bound", [
    (method, k, l, bound) for method in ("conjugate", "oracle", "prefix")
    for (k, l), bound in SHAPE_BOUNDS if method != "prefix" or min(k, l) > 1])
def test_enum_holds_names_not_text(monkeypatch, method, k, l, bound):
    code, chars, peak = traced_peak(monkeypatch, "enum", "--method", method,
                                    "--k", str(k), "--l", str(l))
    n = (k + 1) * (l + 1)
    assert (code, chars) == (0, n * k * (l + 1) + n - 1)
    assert peak < ENUM_BOUNDS[method, k, l] <= bound


def test_dawg_dot_product_holds_graph_not_text(monkeypatch):
    # the product is listed from the two line DAWGs, never built: building
    # its 8 931 nodes and 9 690 edges and sorting them took 3.3 MB, and
    # with its adjacency and the whole text 7.2 MB
    def built(base, hung):
        raise AssertionError("the product was built")

    monkeypatch.setattr(dawg, "rooted_product", built)
    code, chars, peak = traced_peak(monkeypatch, "dawg-dot", "--orientation",
                                    "product", "--max-len", "40")
    monkeypatch.undo()
    g = dot_graph("product", 40)
    assert (len(g.nodes), len(g.edges)) == (8931, 9690)
    assert (code, chars) == (0, len(export_dot_text(g)))
    assert peak < 4_000_000


def test_dawg_dot_product_holds_neither_product_nor_text(monkeypatch):
    # measured peak, Python 3.11: 0.011 MB in a fresh process and up to
    # 0.015 MB here, the two line DAWGs' spines and shortcuts and the hung
    # one's out-edges, and the bound sits ~15% above the second; with both
    # line DAWGs' edges, node sets and adjacencies stored it was 0.077 MB
    # (0.058-0.073 here), and building the product and sorting its 8 931
    # nodes and 9 690 edges took 3.2 MB.  Once each copy was written from
    # one template of its lines, it read 0.014 MB both here and in a fresh
    # process: the copy's edge lines outweigh the hung DAWG's out-edges
    code, chars, peak = traced_peak(monkeypatch, "dawg-dot", "--orientation",
                                    "product", "--max-len", "40")
    assert (code, chars) == (0, len(export_dot_text(dot_graph("product",
                                                              40))))
    assert peak < 17_000


def test_dawg_dot_product_holds_one_copy_template():
    # measured peak in a fresh interpreter, Python 3.11: 30 469 B at
    # --max-len 200, the two line DAWGs and one hung copy's edge lines,
    # formatted once with a hole for the copy's base node, the node lines
    # dropped before the edges; listing the hung DAWG's out-edges and
    # formatting every line took 57 853 B.  The pin sits ~15% above
    code, chars, peak = fresh_peak("dawg-dot", "--orientation", "product",
                                   "--max-len", "200")
    assert (code, chars) == (0, 13_755_244)
    assert peak < 35_000


def test_line_dawg_dot_holds_no_edge_list():
    # measured peak in a fresh interpreter, Python 3.11: 0.64 MB at
    # --max-len 100 000 (17.5 MB max RSS), reached while the line DAWG's
    # spine is built, and the listing adds nothing to it.  Listing every
    # edge and sorting the nodes and the edges took 57.3 MB (69.3 MB max
    # RSS).  The pin sits ~15% above.  cols differs only in its two
    # classes, so only rows is pinned: a run takes ~3 s under tracemalloc
    code, chars, peak = fresh_peak("dawg-dot", "--orientation", "rows",
                                   "--max-len", "100000")
    assert (code, chars) == (0, 14_057_995)
    assert peak < 740_000


def test_gen1d_holds_one_piece(monkeypatch):
    # measured peak, Python 3.11: 0.10 MB, the one image of at most one
    # slice that every piece is cut from, cached, and the 35 letters it
    # replaces; holding the word took 2.7 MB
    code, chars, peak = traced_peak(monkeypatch, "gen1d", "--len", "1000000")
    assert (code, chars) == (0, 10**6 + 1)
    assert peak < 500_000


# measured peaks, Python 3.11: 0.03 and 0.01 MB; listing the axis of the
# nonzero bound took 10.1 and 12.7 MB, and 50 MB at 10^6
@pytest.mark.parametrize("row_bound, col_bound", [(200_000, 0), (0, 200_000)])
def test_locate_lists_no_axis_beside_an_empty_one(monkeypatch, capsys,
                                                  tmp_path, row_bound,
                                                  col_bound):
    path = tmp_path / "d.txt"
    path.write_text("d\n")
    argv = ("locate", "--file", str(path), "--row-bound", str(row_bound),
            "--col-bound", str(col_bound))
    out = json.dumps({"first": [0, 0], "occurrences": [],
                      "row_bound": row_bound, "col_bound": col_bound}) + "\n"
    code, chars, peak = traced_peak(monkeypatch, *argv)
    monkeypatch.undo()
    assert (code, chars) == (0, len(out))
    assert run(capsys, *argv) == (0, out, "")
    assert peak < 500_000


# measured peaks, Python 3.11: 0.59 MB (extend) and 0.05 MB (dawg) at
# (40,40), 2.4 and 0.20 MB at (100,100): the corner-letter blocks, one
# lane and one text; holding dawg's corner-check texts took 0.17 and
# 2.2 MB, and sorting every text first 3.5 and 3.0 MB, and 106 and 104 MB
@pytest.mark.parametrize("method", ["dawg", "extend"])
@pytest.mark.parametrize("k, bound", [(40, 1_000_000), (100, 8_000_000)])
def test_enum_holds_blocks_not_texts(monkeypatch, method, k, bound):
    code, chars, peak = traced_peak(monkeypatch, "enum", "--method", method,
                                    "--k", str(k), "--l", str(k))
    n = (k + 1) * (k + 1)
    assert (code, chars) == (0, n * k * (k + 1) + n - 1)
    assert peak < bound


# each case's peak ~15% above its measured one in a fresh process, Python
# 3.11: dawg 3.0 MB at (1100,1) and (1100,2), 2.8 MB at (1,1100) and
# (2,1100), its paths, and 0.20 MB at (100,100), its blocks, one lane and
# one text; extend 2.9, 2.9, 2.6 and 2.6 MB at the thin shapes, where the
# one-line class's factors take the most, and 0.18 MB at (100,100).
# Filling each text on its own, with dawg's corner-check texts held until
# their top came, took dawg 7.8, 10.3, 2.8, 2.8 and 2.2 MB; growing each
# extend block through a cached table of the longer factors took extend
# 10.7 and 10.5 MB at (1100,2) and (2,1100) and 2.4 MB at (100,100), and
# caching the one-line class's factors 3.9, 5.5, 3.9 and 5.3 MB, and
# growing four corner-letter blocks, not one list of tops over dc and one
# of sides over db, 2.9, 5.2, 2.7 and 5.2 MB.  Once stream_fills made each
# swap as its turn came and held no cut tuples, the peaks read dawg
# 3.0 -> 2.2 MB at (1100,1) and (1100,2), 2.8 -> 2.2 MB at (1,1100) and
# (2,1100), 0.79 -> 0.65 MB at (500,1), 0.70 -> 0.65 MB at (1,500) and
# 0.19 -> 0.15 MB at (100,100); extend 2.9 -> 1.4 MB at (1100,1), 2.6 ->
# 1.3 MB at (1,1100), 2.9 -> 2.6 MB at (1100,2), 2.6 -> 2.6 MB at (2,1100)
# and 0.18 -> 0.13 MB at (100,100).  Each pin sits ~15% above its new
# peak and below its old one, but dawg's (100,100) and extend's (1100,2)
# sit 11% and 13% above, and dawg's (1,500) and extend's (2,1100) are not
# below: dawg's peak at (1,n) is now its line DAWG walk's, and extend's
# at (1100,2) and (2,1100) its last diagonal step's.  Once the line DAWG
# was computed from its spine and shortcuts, not stored with its edges,
# node set and adjacency, dawg read 2.23 -> 1.39 MB at (1100,1), 2.23 ->
# 1.32 MB at (1,1100), 2.23 -> 1.40 MB at (1100,2), 2.23 -> 1.32 MB at
# (2,1100), 0.65 -> 0.33 MB at (500,1) and (1,500) and 0.148 -> 0.128 MB
# at (100,100).  Each dawg pin sits ~15% above its new peak and fails at
# the old code but (100,100)'s: here, after the tests before it, both
# read 0.125-0.128 MB there, and only a fresh process shows the gain.
# Once extend's block step dropped each word as it grew, extend read
# 2.56 -> 1.40 MB at (1100,2) and 2.56 -> 1.33 MB at (2,1100), its last
# diagonal step holding one list, not two; these two pins sit ~15% above
# and are measured in a fresh interpreter (FRESH_PINS)
FRAME_PEAK_PINS = {
    ("dawg", 1100, 1): 1_600_000, ("dawg", 1100, 2): 1_610_000,
    ("dawg", 1, 1100): 1_520_000, ("dawg", 2, 1100): 1_520_000,
    ("dawg", 500, 1): 378_000, ("dawg", 1, 500): 373_000,
    ("dawg", 100, 100): 147_000,
    ("extend", 1100, 1): 1_600_000, ("extend", 1100, 2): 1_610_000,
    ("extend", 1, 1100): 1_530_000, ("extend", 2, 1100): 1_530_000,
    ("extend", 100, 100): 154_000,
}

# the pins measured by reference.fresh_peak, which reads the same in any
# test order; the others are traced in this process
FRESH_PINS = {("extend", 1100, 2), ("extend", 2, 1100), ("verify", 1100, 2),
              ("verify", 2, 1100)}


def peak_of(monkeypatch, pin, *argv):
    """(exit code, characters written, peak) of the request argv, traced
    as the pin named `pin` is."""
    if pin in FRESH_PINS:
        return fresh_peak(*argv)
    return traced_peak(monkeypatch, *argv)


@pytest.mark.parametrize("method, k, l", sorted(FRAME_PEAK_PINS))
def test_enum_holds_one_lane_not_texts(monkeypatch, method, k, l):
    code, chars, peak = peak_of(monkeypatch, (method, k, l), "enum",
                                "--method", method, "--k", str(k),
                                "--l", str(l))
    n = (k + 1) * (l + 1)
    assert (code, chars) == (0, n * k * (l + 1) + n - 1)
    assert peak < FRAME_PEAK_PINS[method, k, l]


# each case's peak ~15% above its measured one in a fresh process, Python
# 3.11: 3.6 MB at (11,11), 0.35 MB at (2,14) and 0.19 MB at (14,2), the
# keys of the class's windows and one text.  Holding the whole class as a
# sorted set of rotations took 27.2, 0.91 and 6.1 MB
CONJUGATES_PEAK_PINS = {(11, 11): 4_150_000, (2, 14): 410_000,
                        (14, 2): 220_000}


@pytest.mark.parametrize("m, n", sorted(CONJUGATES_PEAK_PINS))
def test_conjugates_holds_window_keys_not_the_class(monkeypatch, m, n):
    code, chars, peak = traced_peak(monkeypatch, "conjugates", "--m", str(m),
                                    "--n", str(n))
    rows, cols = word2d.dims(word2d.fib_array(m, n))
    size = rows * cols  # every Fibonacci grid is primitive
    assert (code, chars) == (0, size * rows * (cols + 1) + size - 1)
    assert peak < CONJUGATES_PEAK_PINS[m, n]


def test_verify_holds_only_the_truth(monkeypatch):
    # measured peak, Python 3.11: 5.3 MB at (60,60), the streams' window
    # tables and sorted window positions; keeping the window reader's name
    # table for the whole stream took 6.8 MB, holding the oracle's texts
    # 16.3 MB, and a sorted dawg or extend output beside them 28.9 MB
    code, chars, peak = traced_peak(monkeypatch, "verify", "--k", "60",
                                    "--l", "60")
    assert code == 0 and chars > 0
    assert peak < 6_000_000


# measured peaks, Python 3.11: 9.3 MB at (100,100), where holding the
# oracle's texts took 110.5 MB; 22.6 and 15.1 MB at (1100,2) and
# (2,1100), where the window tables of every stream live side by side and
# holding the oracle's texts beside one stream at a time took 23.4 and
# 19.2 MB.  Keeping the window reader's name table for the whole stream
# took 20.3, 38.8 and 27.8 MB, and keying every window by its k names
# 14.9, 27.2 and 26.8 MB: the parametrized ceilings sit above the first,
# the (2,1100) pin ~15% above its peak with windows keyed by the names of
# their blocks.  Once dawg and extend cut each text from its top's lane,
# and dawg held no corner-check texts, (100,100) and (1100,2) read 6.9 and
# 14.5 MB in a fresh process (9.0 and 21.7 MB before).  Once extend grew
# its blocks by a prefix search, not a cached table of the longer
# factors, they read 4.7 and 9.2 MB.  Once the one-line class's factors
# were no longer cached, (1100,2) and (2,1100) read 8.1 MB.  Once extend
# grew one list of tops and one of sides, not four corner-letter blocks,
# they read 6.7 and 6.1 MB.  Once stream_fills held no swapped copies and
# the window reader dropped its keys and lanes' names early, they read
# 4.2 and 4.3 MB, and every pin sits ~15% above its peak.  Once the line
# DAWG was computed, not stored, they read 4.0 and 4.0 MB, and (100,100)
# 4.6 MB, too close to the old peaks for a pin ~15% above to fail there.
# Once extend's block step dropped each word as it grew, (1100,2) and
# (2,1100) read 4.01 -> 3.70 and 4.03 -> 3.76 MB in a fresh interpreter,
# the same under every hash seed tried; those two pins are measured there
# (FRESH_PINS) and sit between the two peaks, 4% and 3.7% above the new
VERIFY_PEAK_PINS = {(100, 100): 5_400_000, (1100, 2): 3_850_000,
                    (2, 1100): 3_900_000}


@pytest.mark.parametrize("k, l, ceiling", [(100, 100, 25_000_000),
                                           (1100, 2, 45_000_000),
                                           (2, 1100, 32_000_000)])
def test_verify_holds_no_output(monkeypatch, k, l, ceiling):
    code, chars, peak = peak_of(monkeypatch, ("verify", k, l), "verify",
                                "--k", str(k), "--l", str(l))
    assert code == 0 and chars > 0
    assert peak < VERIFY_PEAK_PINS[k, l] <= ceiling


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
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
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
    proc = subprocess.run([sys.executable, "-c", script], env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert (proc.stdout, proc.stderr) == ("False\nbab\n[]\n", "")
