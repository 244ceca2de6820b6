"""Factors of the two-dimensional infinite Fibonacci word.

Generation of 1D/2D Fibonacci words, three independent enumerations of all
size-(k,l) factors (DAWG paths, frame extension, conjugate prefixes), exact
occurrence sets through Fibonacci number system arithmetic, and a
brute-force oracle that cross-checks everything.
"""

from .conjugacy import (conjugacy_class, enumerate_conjugation,
                        enumerate_prefix_conjugates, rotate2d,
                        special_conjugate2d)
from .dawg import (build_line_dawg, enumerate_dawg, export_dot,
                   rooted_product, subword_from_path)
from .errors import (BadBounds, EmptyWord, Fib2DError, IncompleteInput,
                     InconsistentJoint, InternalError, NotAFactor,
                     NotFibStructured, OutOfDomain, OutOfRange,
                     ShapeMismatch, TooShort)
from .frames import (FrameTL, enumerate_extension, extend_diagonal,
                     extensions_of, fill_from_frame, frame_tl)
from .locator import first_occ2d, occ2d, occ_axes
from .oracle import (oracle_occurrences, oracle_subwords, sufficient_bounds,
                     verify)
from .word1d import (factors1d, fib, fib_prefix, fib_word, first_occ1d,
                     occ1d, right_extensions, rotate1d,
                     shortest_truncated_index, special_conjugate1d,
                     truncated, z_stream, zeck_repr)
from .word2d import (Grid, classify_lines, col_alphabet_of, column, dims,
                     fib_array, fill, fill_text, mu_prefix, parse_text,
                     row_alphabet_of, subblock, swap_row_alphabet, to_text)

__version__ = "0.1.0"
