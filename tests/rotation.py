"""The factors of the 2D Fibonacci word read off two rotations of the circle.

A reference that shares nothing with the package: it imports the standard
library only, and uses neither the substitution, the Zeckendorf numbers,
the DAWGs, the extension step nor the conjugates.

1D.  The Fibonacci word over 01, 0 the dominant letter, is the coding of
the rotation x -> x + alpha on the circle [0, 1), alpha = (3 - sqrt 5)/2,
with letter 1 on [1 - alpha, 1) (Lothaire, Algebraic Combinatorics on
Words, ch. 2).  A point x codes a length-k word whose letter j is 1
exactly when x lies on the arc [P(j+1), P(j)), where P(j) = frac(-j alpha).
The k + 1 points P(0..k) cut the circle into k + 1 cells, and the cells
code the k + 1 factors of length k, one each.  The points are compared
as integers: each is floored at 2 bit_length(k) + 40 bits with
math.isqrt, and the floors must be distinct, which makes the ranking
exact.

2D.  The letter at row x, column y is "dcba"[2 r(x) + r(y)], r the 1D
coding (Berthe and Vuillon, "Tilings and rotations on the torus", 2000).
So a (k,l) factor is a pair of a column coding u of length k and a row
coding v of length l, and its row i is v over dc when u[i] is 0, else v
over ba.  Every pair is a factor.
"""

from __future__ import annotations

from math import isqrt

_DC, _BA = str.maketrans("01", "dc"), str.maketrans("01", "ba")


def line_words(k: int) -> list[str]:
    """The k + 1 length-k factors of the Fibonacci word over 01, one per
    cell of the circle, in the cells' order from 0."""
    bits = 2 * k.bit_length() + 40
    one = 1 << bits
    # floor(frac(-j alpha) 2^bits), with -j alpha = j (sqrt 5 - 3) / 2
    points = [(isqrt(5 * j * j << 2 * bits) - 3 * j * one) // 2 % one
              for j in range(k + 1)]
    rank = {p: r for r, p in enumerate(sorted(points))}
    assert len(rank) == k + 1, f"points collide at {bits} bits"
    ranks = [rank[p] for p in points]
    columns = []
    for j in range(k):
        start, end = ranks[j + 1], ranks[j]  # the cells on [P(j+1), P(j))
        if start < end:
            columns.append("0" * start + "1" * (end - start)
                           + "0" * (k + 1 - end))
        else:
            columns.append("1" * end + "0" * (start - end)
                           + "1" * (k + 1 - start))
    return ["".join(cell) for cell in zip(*columns)]


def texts(k: int, l: int):
    """The texts of the (k + 1)(l + 1) factors of size (k,l), as a stream in
    sorted order.

    a < b < c < d, so texts sort by u[0], then v, then u[1:], with 1
    before 0 in each; for words of one length that is descending order."""
    us = sorted(line_words(k), reverse=True)
    vs = sorted(line_words(l), reverse=True)
    for top in "10":
        sides = [u for u in us if u[0] == top]
        for v in vs:
            rows = {ord("0"): v.translate(_DC) + "\n",
                    ord("1"): v.translate(_BA) + "\n"}
            for u in sides:
                yield u.translate(rows)
