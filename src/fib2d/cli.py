"""Command line surface.

Every command is deterministic: identical flags and input give
byte-identical output, written in pieces as it is made.  Data errors exit
with per-error codes (see errors.EXIT_CODES), argparse usage errors and
I/O errors (a stdout closed early among them) exit 2, a failed verify
exits 1.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import conjugacy, dawg, locator, oracle, word1d, word2d
from .errors import EXIT_CODES, Fib2DError

# the method table verify() runs; perfbench/selftest.py reads it by this name
_ENUM_METHODS = oracle.METHODS


# --------------------------------------------------------------- commands --

# characters per write of a long word
_SLICE = 1 << 16


def _write_rows(grid) -> None:
    # the bytes of to_text(grid), one row at a time
    for row in grid:
        sys.stdout.write(row + "\n")


def _cmd_gen1d(args) -> int:
    word = word1d.fib_prefix(args.alphabet, args.len)
    for i in range(0, len(word), _SLICE):
        sys.stdout.write(word[i:i + _SLICE])
    sys.stdout.write("\n")
    return 0


def _cmd_gen2d(args) -> int:
    _write_rows(word2d.mu_prefix(args.rows, args.cols))
    return 0


def _cmd_enum(args) -> int:
    texts = _ENUM_METHODS[args.method](args.k, args.l)
    # the bytes of print(json.dumps([grid, ...])) or of "\n".join(texts),
    # one factor at a time
    out = sys.stdout
    if args.json:
        # a text holds only letters and newlines, so no row needs escaping
        head = f'{{"rows": {args.k}, "cols": {args.l}, "data": ["'
        out.write("[")
        sep = ""
        for text in texts:
            out.write(sep + head + text[:-1].replace("\n", '", "') + '"]}')
            sep = ", "
        out.write("]\n")
    else:
        sep = ""
        for text in texts:
            out.write(sep + text)
            sep = "\n"
    return 0


def _cmd_locate(args) -> int:
    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file, encoding="ascii") as fh:
            text = fh.read()
    w = word2d.parse_text(text)
    # everything that can fail runs before the first byte is written
    first, xs, ys = locator.occ_axes(w, args.row_bound, args.col_bound)
    # the bytes of json.dumps({"first", "occurrences", "row_bound",
    # "col_bound"}), written one row of the product at a time
    out = sys.stdout
    out.write(f'{{"first": [{first[0]}, {first[1]}], "occurrences": [')
    if ys:
        ystrs = [str(y) for y in ys]
        sep = ""
        for x in xs:
            out.write(sep + f"[{x}, " + f"], [{x}, ".join(ystrs) + "]")
            sep = ", "
    out.write(f'], "row_bound": {args.row_bound}, '
              f'"col_bound": {args.col_bound}}}\n')
    return 0


def _cmd_conjugates(args) -> int:
    if args.special:
        _write_rows(conjugacy.special_conjugate2d(args.m, args.n))
    else:
        # the bytes of "\n".join(map(to_text, grids)), one grid at a time
        sep = ""
        for w in conjugacy.conjugacy_class(word2d.fib_array(args.m, args.n)):
            sys.stdout.write(sep + word2d.to_text(w))
            sep = "\n"
    return 0


def _cmd_dawg_dot(args) -> int:
    if args.orientation == "product":
        g = dawg.rooted_product(dawg.build_line_dawg("rows", args.max_len),
                                dawg.build_line_dawg("cols", args.max_len))
    else:
        g = dawg.build_line_dawg(args.orientation, args.max_len)
    sys.stdout.writelines(dawg.export_dot(g))
    return 0


def _cmd_verify(args) -> int:
    report = oracle.verify(args.k, args.l)
    if args.json:
        import json  # here only: every other request would pay its import

        print(json.dumps(report))
    else:
        print(f"size ({report['k']},{report['l']}): "
              f"expected {report['expected']} subwords")
        for name in sorted(report["sizes"]):
            print(f"  {name:<10} {report['sizes'][name]}")
        print(f"  methods agree: {report['methods_agree']}")
        print(f"  oracle stable: {report['oracle_stable']}")
        print("PASS" if report["ok"] else "FAIL")
    return 0 if report["ok"] else 1


# ----------------------------------------------------------------- parser --

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fib2d",
        description="Factors of the two-dimensional infinite Fibonacci word.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen1d", help="prefix of a 1D infinite Fibonacci word")
    p.add_argument("--alphabet", default="ba",
                   help="two letters, dominant first (default: ba)")
    p.add_argument("--len", type=int, required=True)
    p.set_defaults(func=_cmd_gen1d)

    p = sub.add_parser("gen2d", help="prefix of the infinite grid")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.set_defaults(func=_cmd_gen2d)

    p = sub.add_parser("enum", help="all subwords of a size")
    p.add_argument("--k", type=int, required=True, help="rows of the subwords")
    p.add_argument("--l", type=int, required=True, help="cols of the subwords")
    p.add_argument("--method", choices=sorted(_ENUM_METHODS), default="dawg")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("locate", help="occurrence set of a factor")
    p.add_argument("--file", required=True,
                   help="2D word in text format ('-' for stdin)")
    p.add_argument("--row-bound", type=int, required=True)
    p.add_argument("--col-bound", type=int, required=True)
    p.set_defaults(func=_cmd_locate)

    p = sub.add_parser("conjugates", help="conjugacy class of a Fibonacci grid")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--special", action="store_true",
                   help="print only the distinguished conjugate")
    p.set_defaults(func=_cmd_conjugates)

    p = sub.add_parser("dawg-dot", help="DOT dump of a line DAWG or product")
    p.add_argument("--orientation", choices=["rows", "cols", "product"],
                   required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=_cmd_dawg_dot)

    p = sub.add_parser("verify", help="cross-method agreement report")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def _drop_stdout() -> None:
    """Point stdout's descriptor at the null device, so that the flush at
    exit drops what is still buffered instead of failing again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        # a reader gone early shows here at the latest, not at exit
        sys.stdout.flush()
        return code
    except Fib2DError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[type(exc)]
    except BrokenPipeError as exc:
        _drop_stdout()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_CODES[MemoryError]


if __name__ == "__main__":
    sys.exit(main())
