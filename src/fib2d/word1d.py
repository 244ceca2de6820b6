"""One-dimensional Fibonacci words over two-letter alphabets.

Words are plain strings.  An alphabet is a pair of distinct letters from
{a, b, c, d}, given as a 2-tuple or a 2-character string; the first letter is
the one the infinite word starts with (the more frequent letter).

Two Fibonacci numberings are in play and both are exposed through fib():
"F11" has F(0) = F(1) = 1 and sizes the classic words, "F12" has F(0) = 1,
F(1) = 2 and drives the occurrence arithmetic.

The infinite word is the fixed point of first -> first second, second ->
first, so for every n >= 1 it is its own letters, each replaced by its n-th
image: w_n = fib_word(n, first, first + second), of fib(n, "F12") letters,
for the first and w_{n-1} for the second.  prefix_pieces writes a prefix as
these images, and z_stream lists where they start.  The word is standard
Sturmian: of its k + 1 factors of length k, only the reversed length-k
prefix extends on the right by both letters, and all of them occur in its
first 4k + 8 letters, factor_prefix, which every search for a factor reads.
"""

from functools import lru_cache
from itertools import accumulate, chain, takewhile

from .errors import EmptyWord, InternalError, NotAFactor, TooShort

# a tuple, so `in` matches whole one-letter strings, not substrings
LETTERS = tuple("abcd")

# most letters in a piece of prefix_pieces, each cut from one image held whole
_PIECE = 4096


def _pair(alphabet) -> tuple[str, str]:
    # accepts ("b", "a") or "ba"
    if (len(alphabet) != 2 or alphabet[0] == alphabet[1]
            or not all(ch in LETTERS for ch in alphabet)):
        raise ValueError("alphabet must be two distinct letters from 'abcd'")
    first, second = alphabet
    return first, second


# ---------------------------------------------------------------- numbers --

@lru_cache(maxsize=256)
def fib(n: int, numbering: str = "F11") -> int:
    """n-th Fibonacci number; F11: 1,1,2,3,5,...  F12: 1,2,3,5,8,..."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if numbering == "F11":
        a, b = 1, 1
    elif numbering == "F12":
        a, b = 1, 2
    else:
        raise ValueError("numbering must be 'F11' or 'F12'")
    for _ in range(n):
        a, b = b, a + b
    return a


def fib_index(x: int, numbering: str) -> int:
    """The least n with fib(n, numbering) > x."""
    n = 0
    while fib(n, numbering) <= x:
        n += 1
    return n


@lru_cache(maxsize=1024)
def zeck_repr(x: int, numbering: str = "F12") -> tuple[int, ...]:
    """Zeckendorf index set of x, ascending, no two consecutive indices.

    Under F11 the indices start at 1 (F(0) = F(1) would break uniqueness).
    zeck_repr(0) is the empty tuple.
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    out = []
    rem = x
    # take the largest Fibonacci number that fits until none is left (-1)
    while (n := fib_index(rem, numbering) - 1) >= 0:
        out.append(n)
        rem -= fib(n, numbering)
    # after taking fib(n) the remainder is below fib(n+1) - fib(n), which is
    # fib(n-1) only by the recurrence: without it the digits can be adjacent
    if any(i - j < 2 for i, j in zip(out, out[1:])):
        raise InternalError(f"greedy digits {out[::-1]} of {x} are adjacent")
    return tuple(reversed(out))


def z_stream(n: int, bound: int) -> tuple[int, ...]:
    """All x in [0, bound) whose Zeckendorf form (F12) avoids indices < n:
    the places where the n-th images of the letters start, the running
    sums of their lengths.  Each image has at least fib(n - 1) letters,
    so the images of the first bound // fib(n - 1) + 1 letters, at most
    2 hits + 1, reach past bound: the cost is O(hits).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if bound < 0:
        raise ValueError("bound must be >= 0")
    size = {"a": fib(n, "F12"), "b": fib(n - 1, "F12")}
    letters = chain.from_iterable(prefix_pieces("ab", bound // size["b"] + 1))
    return tuple(takewhile(bound.__gt__,
                           accumulate(map(size.get, letters), initial=0)))


# ------------------------------------------------------------------ words --

@lru_cache(maxsize=128)
def fib_word(n: int, f0: str, f1: str) -> str:
    """w_n where w_0 = f0, w_1 = f1 and w_n = w_{n-1} w_{n-2}.

    The two usual seedings are call patterns: fib_word(n, second, first)
    gives the classic words with |w_n| = fib(n, "F11"), and
    fib_word(n, first, first + second) gives |w_n| = fib(n, "F12") with
    every w_n a prefix of the infinite word.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not f0 or not f1:
        raise ValueError("seed words must be non-empty")
    if n == 0:
        return f0
    a, b = f0, f1
    for _ in range(n - 1):
        a, b = b, b + a
    return b


def fib_prefix(alphabet, length: int) -> str:
    """Length-len prefix of the infinite Fibonacci word over the alphabet."""
    first, second = _pair(alphabet)
    if length < 0:
        raise ValueError("length must be >= 0")
    return fib_word(fib_index(length - 1, "F12"), first,
                    first + second)[:length]


def prefix_pieces(alphabet, length: int):
    """fib_prefix(alphabet, length) as the n-th images of its own letters,
    n >= 1 picked from min(length, _PIECE), the last image cut at length:
    pieces of at most _PIECE letters, each a prefix of one word w_n, held
    beside the length // fib(n - 1) + 1 letters the images replace.
    """
    first, second = _pair(alphabet)
    if length < 0:
        raise ValueError("length must be >= 0")
    n = max(1, fib_index(min(length, _PIECE), "F12") - 1)
    word = fib_word(n, first, first + second)
    size = {first: fib(n, "F12"), second: fib(n - 1, "F12")}
    letters = fib_prefix(alphabet, length // size[second] + 1)
    starts = accumulate(map(size.get, letters), initial=0)
    for start, letter in zip(takewhile(length.__gt__, starts), letters):
        yield word[:min(size[letter], length - start)]


def truncated(n: int, alphabet) -> str:
    """The prefix word of length fib(n, "F12") - 2: w_n minus its last two letters."""
    first, second = _pair(alphabet)
    if n < 2:
        raise TooShort("truncated word needs n >= 2")
    return fib_word(n, first, first + second)[:-2]


# ---------------------------------------------------------------- factors --

def factor_prefix(alphabet, k: int) -> str:
    """The first 4k + 8 letters, which hold all k + 1 length-k factors: the
    shortest prefix holding them has at most phi^2 k + 1 letters (a scan
    read at most 2.617k for every k <= 2000)."""
    return fib_prefix(alphabet, 4 * k + 8)


def factors1d(k: int, alphabet) -> tuple[str, ...]:
    """The k+1 length-k factors of the infinite word, first < second lexicographic."""
    first, second = _pair(alphabet)
    if k < 1:
        raise ValueError("k must be >= 1")
    w = factor_prefix(alphabet, k)
    seen = {w[i:i + k] for i in range(len(w) - k + 1)}
    if len(seen) != k + 1:
        raise InternalError(f"{len(seen)} factors of length {k} in the first "
                            f"{len(w)} letters, not the Sturmian count {k + 1}")
    # swapping two letters' order reverses the order of equal-length words
    return tuple(sorted(seen, reverse=first > second))


def _special(p: str, k: int) -> tuple[int, int]:
    """(i, t): the first occurrences in p, a prefix of the infinite word, of
    u, the reversed length-k prefix, and of u + x, x the letter other than
    p[i + k].  u is the one length-k factor with two right extensions; any
    other grows by the letter after its first occurrence, which stays the
    grown word's, so the length-n factors first occur at 0 and at t for
    each k < n.  u ends the shortest palindromic prefix of at least k
    letters, of fib(n, "F12") - 2, and first occurs there: only t is found."""
    i = fib(fib_index(k + 1, "F12"), "F12") - 2 - k
    u, x = p[i:i + k], p[1] if p[i + k] == p[0] else p[0]
    if u != p[:k][::-1]:
        raise InternalError(f"{u!r} at {i} is not the reversed prefix")
    t = p.find(u + x, i + 1)
    if t < 0:
        raise InternalError(f"{u + x!r} is not in the first {len(p)} letters")
    return i, t


def right_extensions(u: str, alphabet) -> tuple[str, ...]:
    """Letters x with u + x a factor, first letter first: the one after u's
    first occurrence, and for the reversed prefix, "" too, the other."""
    k = len(u)
    p = factor_prefix(alphabet, k)
    j = p.find(u)
    if j < 0:
        raise NotAFactor(f"{u!r} does not occur in the infinite word")
    if j + k >= len(p):
        raise InternalError(f"{u!r} ends the first {len(p)} letters")
    i, t = _special(p, k)
    xs = p[j + k] + p[t + k] if j == i else p[j + k]
    return tuple(x for x in p[:2] if x in xs)


# ------------------------------------------------------------- conjugates --

def rotate1d(w: str, p: int) -> str:
    """Cyclic shift sending w[0] to the end, iterated p times (p may be negative)."""
    if not w:
        raise EmptyWord("cannot rotate the empty word")
    p %= len(w)
    return w[p:] + w[:p]


def special_conjugate1d(n: int, alphabet) -> str:
    """The conjugate q_n of the classic word w_n whose backward rotations
    T^0(q_n), ..., T^{-k}(q_n) start with the k+1 length-k factors, k < fib(n, "F11").
    """
    first, second = _pair(alphabet)
    if n < 2:
        raise ValueError("n must be >= 2")
    w = fib_word(n, second, first)
    return rotate1d(w, fib(n - n % 2, "F11") - 1)


# ------------------------------------------------------------ occurrences --

def shortest_truncated_index(u: str, alphabet) -> int:
    """Smallest n >= 2 with u a factor of truncated(n, alphabet), the
    prefix of length fib(n, "F12") - 2: the least n with i + len(u) <=
    fib(n, "F12") - 2, where i is u's first occurrence, found in
    factor_prefix(alphabet, len(u))."""
    if not u:
        raise ValueError("u must be non-empty")
    i = factor_prefix(alphabet, len(u)).find(u)
    if i < 0:
        raise NotAFactor(f"{u!r} does not occur in the infinite word")
    return fib_index(i + len(u) + 1, "F12")


def _first_occ(u: str, alphabet) -> tuple[int, int]:
    """(shortest_truncated_index(u), first occurrence offset of u)."""
    n = shortest_truncated_index(u, alphabet)
    i = truncated(n, alphabet).find(u)
    if i < 0:
        raise InternalError(f"{u!r} not in truncated({n}, {alphabet!r}), "
                            f"the scan bound for truncation index {n}")
    return n, i


def first_occ1d(u: str, alphabet) -> int:
    """0-based offset of the first occurrence of u in the infinite word."""
    return _first_occ(u, alphabet)[1]


def _occ_from(search: tuple[int, int], bound: int) -> tuple[int, ...]:
    """occ1d's offsets below bound, given the factor's _first_occ result."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    n, fo = search
    if bound <= fo:
        return ()
    return tuple(z + fo for z in z_stream(n - 1, bound - fo))


def occ1d(u: str, alphabet, bound: int) -> tuple[int, ...]:
    """Every occurrence offset of the factor u below bound, ascending.

    Computed arithmetically: the occurrence set of u is the occurrence set of
    the shortest truncated word containing u, shifted by first_occ1d(u).
    """
    return _occ_from(_first_occ(u, alphabet), bound)
