"""Every command's memory grows with its input, not with its square.

Each case runs `locate` on a factor of size n and of size 4n, `enum` or
`verify` on a thin shape whose long side is n and 4n, or `gen1d`, `gen2d`
or `dawg-dot` at a size n and 4n, and reads each request's tracemalloc
peak in a fresh interpreter, with a stdout that only counts
(`reference.fresh_peak`), so no run sees what another left behind.  The
bound is linear in the input: from n to 4n the peak may grow by at most
1.5 times the factor the input grows by.  The frame methods, `dawg` and
`extend`, hold blocks of line words by design, and their bound is linear
in those words' letters; at (n,n), where a text outweighs the blocks, it
is linear in one text's letters.  `conjugates` holds a key for each of
its F(m)F(n) windows, and `conjugates --special` its F(n)-letter rows and
the F(m)-letter word that orders them, and each bound is linear in those.
"""

from __future__ import annotations

import pytest

from fib2d import word1d, word2d

from reference import fresh_peak

# one pair of bounds at every size, so the occurrence sets stay small and
# the peak is the search's
BOUNDS = ("--row-bound", "1000", "--col-bound", "1000")


def line(n: int):
    """A 1xn row factor, cut from the first row after its first 7 letters."""
    return (word1d.fib_prefix("dc", n + 7)[7:],)


def cut(n: int):
    """An nxn factor, cut from the prefix at (3, 5)."""
    return tuple(r[5:5 + n] for r in word2d.mu_prefix(n + 3, n + 5)[3:])


def locate_peak(path):
    return fresh_peak("locate", "--file", str(path), *BOUNDS)


# measured peaks, Python 3.11: line 0.07 -> 0.09 MB (n = 1000 -> 4000),
# cut 0.05 -> 0.37 MB (n = 100 -> 400, 16 times the letters); a search
# that held every length-|u| window of the frame words took 2.2 -> 32.7 MB
# on the line, 15 times as much for 4 times the letters
@pytest.mark.parametrize("make, n", [(line, 1000), (cut, 100)])
def test_locate_peak_grows_linearly(tmp_path, make, n):
    peaks, sizes = [], []
    for size in (n, 4 * n):
        text = word2d.to_text(make(size))
        path = tmp_path / f"{size}.txt"
        path.write_text(text)
        code, chars, peak = locate_peak(path)
        assert code == 0 and chars > 0
        peaks.append(peak)
        sizes.append(len(text))
    assert peaks[1] / peaks[0] < 1.5 * sizes[1] / sizes[0]


def test_locate_rejects_a_long_non_factor_in_bounded_memory(capsys,
                                                            tmp_path):
    # measured peak, Python 3.11: 0.134 MB, the row word's first 32 008
    # letters and the cached word they are cut from, and the pin sits ~15%
    # above; checking the 8 000-letter line against every window of its
    # length took 129.6 MB
    row = word1d.fib_prefix("dc", 8000)
    i = row.index("cd", 4000)
    path = tmp_path / "line.txt"
    path.write_text(row[:i + 1] + "c" + row[i + 2:] + "\n")
    code, chars, peak = locate_peak(path)
    assert (code, chars) == (3, 0)
    assert capsys.readouterr().err.startswith("error:")
    assert peak < 154_000


# measured peak ratios, Python 3.11, from n = 300 to 1200: 4.1-5.1;
# keying every window by its k names read 10-12
@pytest.mark.parametrize("method, shape", [
    ("conjugate", "1xn"), ("conjugate", "nx1"),
    ("oracle", "1xn"), ("oracle", "nx1"),
    # prefix conjugates exist only from size (2,2) on
    ("prefix", "2xn"), ("prefix", "nx2")])
def test_enum_peak_grows_linearly(method, shape):
    peaks = []
    for n in (300, 1200):
        k, l = shape.replace("n", str(n)).split("x")
        code, chars, peak = fresh_peak("enum", "--method", method,
                                       "--k", k, "--l", l)
        assert code == 0 and chars > 0
        peaks.append(peak)
    assert peaks[1] / peaks[0] < 1.5 * 4


# measured peak ratios, Python 3.11, from n = 150 to 600: dawg 9.2-10.0,
# extend 9.5-10.0 and verify 6.4-7.8.  A thin shape's blocks hold its
# n + 1 line words of n letters, so from n to 4n their letters grow
# (4n + 1) 4n / ((n + 1) n), about 16 times, and the peak may grow by at
# most 1.5 times that
@pytest.mark.parametrize("method, shape", [
    (method, shape) for method in ("dawg", "extend")
    for shape in ("1xn", "nx1", "2xn", "nx2")
] + [("verify", shape) for shape in ("1xn", "nx1", "2xn", "nx2")])
def test_frame_peak_grows_with_the_blocks(method, shape):
    command = ("verify",) if method == "verify" else ("enum", "--method",
                                                      method)
    peaks = []
    for n in (150, 600):
        k, l = shape.replace("n", str(n)).split("x")
        code, chars, peak = fresh_peak(*command, "--k", k, "--l", l)
        assert code == 0 and chars > 0
        peaks.append(peak)
    assert peaks[1] / peaks[0] < 1.5 * 16


# measured peak ratios, Python 3.11: dawg 3.4 and extend 3.2-3.3 from
# (50,50) to (100,100), verify 4.3 from (30,30) to (60,60).  A square
# shape's text holds n (n + 1) letters, which grow about 4 times from n to
# 2n, and the peak may grow by at most 1.5 times that
@pytest.mark.parametrize("method, n", [("dawg", 50), ("extend", 50),
                                       ("verify", 30)])
def test_square_peak_grows_with_one_text(method, n):
    command = ("verify",) if method == "verify" else ("enum", "--method",
                                                      method)
    peaks = []
    for size in (n, 2 * n):
        code, chars, peak = fresh_peak(*command, "--k", str(size),
                                       "--l", str(size))
        assert code == 0 and chars > 0
        peaks.append(peak)
    assert peaks[1] / peaks[0] < 1.5 * 4


# measured peak ratios, Python 3.11: conjugates 6.3 from (9,9) to (11,11),
# 2.9 from (2,12) to (2,14) and 2.8 from (12,2) to (14,2), where its
# F(m)F(n) windows grow 6.86, 2.62 and 2.62 times; holding the whole
# class as a sorted set of rotations read 16.4, 5.1 and 6.5.  conjugates
# --special 2.9-3.0 from (10,10) to (13,13), where F(m) + F(n) grows 4.24
# times.  The peak may grow by at most 1.5 times what the command holds
@pytest.mark.parametrize("special, small, large", [
    (False, (9, 9), (11, 11)), (False, (2, 12), (2, 14)),
    (False, (12, 2), (14, 2)), (True, (10, 10), (13, 13))],
    ids=["9x9", "2x12", "12x2", "special-10x10"])
def test_conjugates_peak_grows_with_what_it_holds(special, small, large):
    def held(m, n):
        rows, cols = word1d.fib(m, "F11"), word1d.fib(n, "F11")
        return rows + cols if special else rows * cols

    flag = ("--special",) if special else ()
    peaks = []
    for m, n in (small, large):
        code, chars, peak = fresh_peak("conjugates", "--m", str(m),
                                       "--n", str(n), *flag)
        assert code == 0 and chars > 0
        peaks.append(peak)
    assert peaks[1] / peaks[0] < 1.5 * held(*large) / held(*small)


# measured peak ratios, Python 3.11, from n to 4n: gen1d 1.05-1.06, gen2d
# 3.47 (n x n), 4.47 (n x 2) and 3.90 (2 x n), dawg-dot 2.0-2.1 (rows)
# and 1.6-1.7 (product)
@pytest.mark.parametrize("argv, n", [
    ("gen1d --len {n}", 100_000),
    ("gen2d --rows {n} --cols {n}", 300),
    ("gen2d --rows {n} --cols 2", 5000),
    ("gen2d --rows 2 --cols {n}", 5000),
    ("dawg-dot --orientation rows --max-len {n}", 1000),
    ("dawg-dot --orientation product --max-len {n}", 20),
], ids=["gen1d", "gen2d-nxn", "gen2d-nx2", "gen2d-2xn", "dawg-dot-rows",
        "dawg-dot-product"])
def test_output_peak_grows_linearly(argv, n):
    peaks = []
    for size in (n, 4 * n):
        code, chars, peak = fresh_peak(*argv.format(n=size).split())
        assert code == 0 and chars > 0
        peaks.append(peak)
    assert peaks[1] / peaks[0] < 1.5 * 4
