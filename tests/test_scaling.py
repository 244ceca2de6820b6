"""Every command's memory grows with its input, not with its square.

Each case runs `locate` on a factor of size n and of size 4n, `enum` or
`verify` on a thin shape whose long side is n and 4n, or `gen1d`, `gen2d`
or `dawg-dot` at a size n and 4n, with the 1D word caches cleared, and
measures the tracemalloc peak with a stdout that only counts.  The bound
is linear in the input: from n to 4n the peak may grow by at most 1.5
times the factor the input grows by.  The frame methods, `dawg` and
`extend`, hold blocks of line words by design, and their bound is linear
in those words' letters; at (n,n), where a text outweighs the blocks, it
is linear in one text's letters.  `conjugates` holds a key for each of
its F(m)F(n) windows, and `conjugates --special` its F(n)-letter rows and
the F(m)-letter word that orders them, and each bound is linear in those.
"""

from __future__ import annotations

import pytest

from fib2d import word1d, word2d

from test_output import traced_peak

# one pair of bounds at every size, so the occurrence sets stay small and
# the peak is the search's
BOUNDS = ("--row-bound", "1000", "--col-bound", "1000")


def line(n: int):
    """A 1xn row factor, cut from the first row after its first 7 letters."""
    return (word1d.fib_prefix("dc", n + 7)[7:],)


def cut(n: int):
    """An nxn factor, cut from the prefix at (3, 5)."""
    return tuple(r[5:5 + n] for r in word2d.mu_prefix(n + 3, n + 5)[3:])


def cold_peak(monkeypatch, *argv):
    """(exit code, characters written, peak) of a cold run."""
    word1d.fib_word.cache_clear()
    return traced_peak(monkeypatch, *argv)


def locate_peak(monkeypatch, path):
    return cold_peak(monkeypatch, "locate", "--file", str(path), *BOUNDS)


# measured peaks, Python 3.11: line 0.05 -> 0.07 MB (n = 1000 -> 4000),
# cut 0.03 -> 0.35 MB (n = 100 -> 400, 16 times the letters); a search
# that held every length-|u| window of the frame words took 2.2 -> 32.7 MB
# on the line, 15 times as much for 4 times the letters
@pytest.mark.parametrize("make, n", [(line, 1000), (cut, 100)])
def test_locate_peak_grows_linearly(monkeypatch, tmp_path, make, n):
    peaks, sizes = [], []
    for size in (n, n, 4 * n):  # the first run warms the interpreter
        text = word2d.to_text(make(size))
        path = tmp_path / f"{size}.txt"
        path.write_text(text)
        code, chars, peak = locate_peak(monkeypatch, path)
        assert code == 0 and chars > 0
        peaks.append(peak)
        sizes.append(len(text))
    assert peaks[2] / peaks[1] < 1.5 * sizes[2] / sizes[1]


def test_locate_rejects_a_long_non_factor_in_bounded_memory(
        monkeypatch, capsys, tmp_path):
    # measured peak, Python 3.11: 0.11 MB, the row word's first 32 008
    # letters and the cached word they are cut from; checking the
    # 8 000-letter line against every window of its length took 129.6 MB
    row = word1d.fib_prefix("dc", 8000)
    i = row.index("cd", 4000)
    path = tmp_path / "line.txt"
    path.write_text(row[:i + 1] + "c" + row[i + 2:] + "\n")
    code, chars, peak = locate_peak(monkeypatch, path)
    assert (code, chars) == (3, 0)
    assert capsys.readouterr().err.startswith("error:")
    assert peak < 500_000


# measured peak ratios, Python 3.11, from n = 300 to 1200: 4.2-5.3 (and
# 4.5-5.8 from 1100 to 4400, where the names of the blocks outgrow one
# byte); keying every window by its k names read 10-12 (13 from 1100)
@pytest.mark.parametrize("method, shape", [
    ("conjugate", "1xn"), ("conjugate", "nx1"),
    ("oracle", "1xn"), ("oracle", "nx1"),
    # prefix conjugates exist only from size (2,2) on
    ("prefix", "2xn"), ("prefix", "nx2")])
def test_enum_peak_grows_linearly(monkeypatch, method, shape):
    peaks = []
    for n in (300, 300, 1200):  # the first run warms the interpreter
        k, l = shape.replace("n", str(n)).split("x")
        code, chars, peak = cold_peak(monkeypatch, "enum", "--method", method,
                                      "--k", k, "--l", l)
        assert code == 0 and chars > 0
        peaks.append(peak)
    assert peaks[2] / peaks[1] < 1.5 * 4


# measured peak ratios, Python 3.11, from n = 150 to 600: dawg 6.5-7.3,
# extend 10.2-11.7 and verify 8.0-10.1.  A thin shape's blocks hold its
# n + 1 line words of n letters, so from n to 4n their letters grow
# (4n + 1) 4n / ((n + 1) n), about 16 times, and the peak may grow by at
# most 1.5 times that
@pytest.mark.parametrize("method, shape", [
    (method, shape) for method in ("dawg", "extend")
    for shape in ("1xn", "nx1", "2xn", "nx2")
] + [("verify", shape) for shape in ("1xn", "nx1", "2xn", "nx2")])
def test_frame_peak_grows_with_the_blocks(monkeypatch, method, shape):
    command = ("verify",) if method == "verify" else ("enum", "--method",
                                                      method)
    peaks = []
    for n in (150, 150, 600):  # the first run warms the interpreter
        k, l = shape.replace("n", str(n)).split("x")
        code, chars, peak = cold_peak(monkeypatch, *command, "--k", k,
                                      "--l", l)
        assert code == 0 and chars > 0
        peaks.append(peak)
    assert peaks[2] / peaks[1] < 1.5 * 16


# measured peak ratios, Python 3.11: dawg 3.2 and extend 3.0 from
# (50,50) to (100,100), verify 4.2 from (30,30) to (60,60).  A square
# shape's text holds n (n + 1) letters, which grow about 4 times from n to
# 2n, and the peak may grow by at most 1.5 times that
@pytest.mark.parametrize("method, n", [("dawg", 50), ("extend", 50),
                                       ("verify", 30)])
def test_square_peak_grows_with_one_text(monkeypatch, method, n):
    command = ("verify",) if method == "verify" else ("enum", "--method",
                                                      method)
    peaks = []
    for size in (n, n, 2 * n):  # the first run warms the interpreter
        code, chars, peak = cold_peak(monkeypatch, *command, "--k", str(size),
                                      "--l", str(size))
        assert code == 0 and chars > 0
        peaks.append(peak)
    assert peaks[2] / peaks[1] < 1.5 * 4


# measured peak ratios, Python 3.11: conjugates 6.2 from (9,9) to (11,11),
# 3.2 from (2,12) to (2,14) and 2.8 from (12,2) to (14,2), where its
# F(m)F(n) windows grow 6.86, 2.62 and 2.62 times; holding the whole
# class as a sorted set of rotations read 16.4, 5.1 and 6.5.  conjugates
# --special 3.1 from (10,10) to (13,13), where F(m) + F(n) grows 4.24
# times.  The peak may grow by at most 1.5 times what the command holds
@pytest.mark.parametrize("special, small, large", [
    (False, (9, 9), (11, 11)), (False, (2, 12), (2, 14)),
    (False, (12, 2), (14, 2)), (True, (10, 10), (13, 13))],
    ids=["9x9", "2x12", "12x2", "special-10x10"])
def test_conjugates_peak_grows_with_what_it_holds(monkeypatch, special,
                                                  small, large):
    def held(m, n):
        rows, cols = word1d.fib(m, "F11"), word1d.fib(n, "F11")
        return rows + cols if special else rows * cols

    flag = ("--special",) if special else ()
    peaks = []
    for m, n in (small, small, large):  # the first run warms the interpreter
        code, chars, peak = cold_peak(monkeypatch, "conjugates", "--m", str(m),
                                      "--n", str(n), *flag)
        assert code == 0 and chars > 0
        peaks.append(peak)
    assert peaks[2] / peaks[1] < 1.5 * held(*large) / held(*small)


# measured peak ratios, Python 3.11, from n to 4n: gen1d 0.92, gen2d
# 3.45 (n x n), 4.47 (n x 2) and 3.89 (2 x n), dawg-dot 3.85 (rows) and
# 5.15 (product, which takes ~1 s at 20 and ~3.5 s at 40).  The rows
# graph's peak climbs in the steps of its containers' growth: 3.3 from
# 100 to 400 and 4.5 from 2000 to 8000, but 7.1 from 500 to 2000, since
# the peak at 500 sits below the one at 400
@pytest.mark.parametrize("argv, n", [
    ("gen1d --len {n}", 100_000),
    ("gen2d --rows {n} --cols {n}", 300),
    ("gen2d --rows {n} --cols 2", 5000),
    ("gen2d --rows 2 --cols {n}", 5000),
    ("dawg-dot --orientation rows --max-len {n}", 1000),
    ("dawg-dot --orientation product --max-len {n}", 20),
], ids=["gen1d", "gen2d-nxn", "gen2d-nx2", "gen2d-2xn", "dawg-dot-rows",
        "dawg-dot-product"])
def test_output_peak_grows_linearly(monkeypatch, argv, n):
    peaks = []
    for size in (n, n, 4 * n):  # the first run warms the interpreter
        code, chars, peak = cold_peak(monkeypatch,
                                      *argv.format(n=size).split())
        assert code == 0 and chars > 0
        peaks.append(peak)
    assert peaks[2] / peaks[1] < 1.5 * 4
