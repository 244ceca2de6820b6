"""Transpose symmetry, a cross-check that no method shares.

The letter at (x, y) of the infinite grid is "dcba"[2 [0 in Z(x)] +
[0 in Z(y)]], with Z the F12 Zeckendorf index set, so the grid transposed
is the grid with b and c swapped.  Every method gives rows and columns
different roles, so the law catches a mix-up of the row and column
alphabets that a method consistent with itself can hide.  The law is
checked here only: verify holds no output to check it on.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fib2d import frames, oracle
from fib2d.locator import occ_axes
from fib2d.word1d import zeck_repr
from fib2d.word2d import mu_prefix, parse_text, to_text

_BC = str.maketrans("bc", "cb")


def transposed(w):
    """The grid w transposed, b and c swapped."""
    return tuple("".join(col).translate(_BC) for col in zip(*w))


def test_the_grid_transposed_is_the_grid_b_and_c_swapped():
    # R != C, so a mix-up of the two sides shows as well
    tall = mu_prefix(600, 400)
    z = [0 in zeck_repr(x) for x in range(600)]
    assert tall == tuple("".join("dcba"[2 * zx + zy] for zy in z[:400])
                         for zx in z)
    assert transposed(tall) == mu_prefix(400, 600)


# prefix conjugates exist only from size (2,2) on
@pytest.mark.parametrize("method", sorted(oracle.METHODS))
@settings(max_examples=10, deadline=None)
@given(st.data())
def test_every_method_transposed_is_extend_transposed(method, data):
    low = 2 if method == "prefix" else 1
    k, l = (data.draw(st.integers(low, 20)) for _ in "kl")
    texts = sorted(to_text(transposed(parse_text(t)))
                   for t in oracle.METHODS[method](k, l))
    assert texts == list(frames.stream_extension(l, k))


PREFIX = mu_prefix(160, 160)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 25), st.integers(1, 25), st.integers(0, 135),
       st.integers(0, 135), st.integers(0, 3000), st.integers(0, 3000))
def test_locate_of_a_factor_transposed_swaps_its_axes(k, l, x, y, rows,
                                                      cols):
    w = tuple(row[y:y + l] for row in PREFIX[x:x + k])
    (fx, fy), xs, ys = occ_axes(w, rows, cols)
    assert occ_axes(transposed(w), cols, rows) == ((fy, fx), ys, xs)
