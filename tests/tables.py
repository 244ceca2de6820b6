"""Frozen expected values shared by the test modules.

The small catalogs below (every factor of sizes (1,1), (2,2) and (3,3),
their frame types, one-step extensions and rotation prefixes, plus a few
occurrence sets) were worked out by hand from the recurrences and then
cross-checked against the sliding-window oracle before being frozen here.
Tests compare against these literals instead of recomputing them.
"""

# the four 1x1 factors and their frame types
WORDS_1_1 = (("a",), ("b",), ("c",), ("d",))

FRAME_TYPES_1_1 = {
    ("a",): "I",
    ("b",): "III",
    ("c",): "II",
    ("d",): "IV",
}

# size-(2,2) factors keyed by their defining path pair:
# first row spelled left to right, last column spelled top to bottom
PATH_PAIRS_2_2 = (
    (("dc", ("c", "a")), ("dc", "ba")),
    (("dc", ("c", "c")), ("dc", "dc")),
    (("dd", ("d", "b")), ("dd", "bb")),
    (("dd", ("d", "d")), ("dd", "dd")),
    (("cd", ("d", "b")), ("cd", "ab")),
    (("cd", ("d", "d")), ("cd", "cd")),
    (("ba", ("a", "c")), ("ba", "dc")),
    (("bb", ("b", "d")), ("bb", "dd")),
    (("ab", ("b", "d")), ("ab", "cd")),
)

WORDS_2_2 = tuple(sorted(w for _, w in PATH_PAIRS_2_2))

FRAME_TYPES_2_2 = {
    ("dc", "ba"): "I",
    ("dc", "dc"): "I",
    ("dd", "bb"): "I",
    ("dd", "dd"): "I",
    ("cd", "ab"): "III",
    ("cd", "cd"): "III",
    ("ba", "dc"): "II",
    ("bb", "dd"): "II",
    ("ab", "cd"): "IV",
}

# one-step diagonal extensions of each (2,2) factor; type I words have one,
# II and III two, IV four
EXTENSIONS_2_2 = {
    ("dc", "ba"): (("dcd", "bab", "dcd"),),
    ("dc", "dc"): (("dcd", "dcd", "bab"),),
    ("dd", "bb"): (("ddc", "bba", "ddc"),),
    ("dd", "dd"): (("ddc", "ddc", "bba"),),
    ("cd", "ab"): (("cdc", "aba", "cdc"), ("cdd", "abb", "cdd")),
    ("cd", "cd"): (("cdc", "cdc", "aba"), ("cdd", "cdd", "abb")),
    ("ba", "dc"): (("bab", "dcd", "bab"), ("bab", "dcd", "dcd")),
    ("bb", "dd"): (("bba", "ddc", "bba"), ("bba", "ddc", "ddc")),
    ("ab", "cd"): (("aba", "cdc", "aba"), ("aba", "cdc", "cdc"),
                   ("abb", "cdd", "abb"), ("abb", "cdd", "cdd")),
}

WORDS_3_3 = tuple(sorted({w for ws in EXTENSIONS_2_2.values() for w in ws}))

# the distinguished conjugates of the (3,3) and (2,2) Fibonacci grids
Q_3_3 = ("abb", "cdd", "cdd")
Q_2_2 = ("ab", "cd")

# (i, j) -> (rotation of Q_3_3 by (-i, -j), its (2,2) prefix); the prefixes
# range over all nine (2,2) factors
ROTATION_PREFIXES_3_3 = {
    (0, 0): (("abb", "cdd", "cdd"), ("ab", "cd")),
    (0, 1): (("bab", "dcd", "dcd"), ("ba", "dc")),
    (0, 2): (("bba", "ddc", "ddc"), ("bb", "dd")),
    (1, 0): (("cdd", "abb", "cdd"), ("cd", "ab")),
    (1, 1): (("dcd", "bab", "dcd"), ("dc", "ba")),
    (1, 2): (("ddc", "bba", "ddc"), ("dd", "bb")),
    (2, 0): (("cdd", "cdd", "abb"), ("cd", "cd")),
    (2, 1): (("dcd", "dcd", "bab"), ("dc", "dc")),
    (2, 2): (("ddc", "ddc", "bba"), ("dd", "dd")),
}

# the 1D conjugate q_4 over (a, b) and the factor set its rotations spell
Q_4_AB = "babaa"
FACTORS_4_AB = ("aaba", "abaa", "abab", "baab", "baba")

# occurrence constants: occ1d("abab") below 33, and the 3x3 block whose
# occurrence set below (21,21) is a full Cartesian square
OCC_ABAB_BELOW_33 = (3, 11, 16, 24, 32)
OCC_BLOCK = ("ddc", "ddc", "bba")
OCC_BLOCK_AXIS = (2, 7, 10, 15, 20)

# Zeckendorf-restricted integer streams: indices >= n, listed below a bound
Z1_BELOW_6 = (0, 2, 3, 5)
Z2_BELOW_12 = (0, 3, 5, 8, 11)
Z4_BELOW_30 = (0, 8, 13, 21, 29)

# sha256 of each group of test_golden.CATALOG's request records
GOLDEN = {
    "conjugates": "4ed5860c8fef07f5209b0b21f0d765852792dd91b6b2f76e079f29850d384d7c",
    "dawg-dot": "f8d49af811f2dfd83e01eeeca5efe856fa79fe3629477886408ab614998ae0f0",
    "dawg-dot-large": "d4c94403d8c82042c5f9dff7d3856cfb1d4710f6f33bf79d5cd7c9ae9db53fb7",
    "enum": "73a924d0e367dbc59c69959a7887917853fdf88997ddac6c27473b356a6433c9",
    "gen": "e6eab6604b3038f5dff06e0a7fb720cbfecdf300ed95725675ee9b73848548c9",
    "locate": "ee5d214823d9a1dad77ece79578d2fed81148bbb9f9041ad72262759f5d87069",
    "usage": "5af626349620c64dea9f836ba1b180c797f7a7a57909cebaab59fcc412489ecd",
    "verify": "689f4fe372b088cfd85436ec2668d186c151bafc06e1bc5c37d5321b8268db71",
}
