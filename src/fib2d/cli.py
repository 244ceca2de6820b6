"""Command line surface.

Every command is deterministic: identical flags and input give
byte-identical output, written in pieces as it is made by one writer,
_write_joined, which writes nothing before the first piece exists; verify
writes its report through the same writer, once it is whole.  Data errors
exit with per-error codes (see errors.EXIT_CODES), usage errors and I/O
errors (a stdout closed early among them) exit 2, a failed verify exits 1.
"""

import os
import sys
from types import SimpleNamespace

from . import conjugacy, dawg, locator, oracle, word1d, word2d
from .errors import EXIT_CODES, Fib2DError

# the method table verify() runs; perfbench/selftest.py reads it by this name
_ENUM_METHODS = oracle.METHODS


# --------------------------------------------------------------- commands --

def _write_joined(pieces, sep: str, first: str = "", last: str = "") -> None:
    # the bytes of first + sep.join(pieces) + last, one piece at a time;
    # first goes out with the first piece, or with last if there is none,
    # so nothing is written before the first piece exists
    write, lead = sys.stdout.write, first
    for piece in pieces:
        write(lead + piece)
        lead, first = sep, ""
    write(first + last)


def _cmd_gen1d(args) -> int:
    _write_joined(word1d.prefix_pieces(args.alphabet, args.len), "",
                  last="\n")
    return 0


def _cmd_gen2d(args) -> int:
    _write_joined(word2d.mu_prefix(args.rows, args.cols), "\n", last="\n")
    return 0


def _cmd_enum(args) -> int:
    texts = _ENUM_METHODS[args.method](args.k, args.l)
    # the bytes of print(json.dumps([grid, ...])) or of "\n".join(texts)
    if args.json:
        # a text holds only letters and newlines, so no row needs escaping
        head = f'{{"rows": {args.k}, "cols": {args.l}, "data": ["'
        _write_joined((head + text[:-1].replace("\n", '", "') + '"]}'
                       for text in texts), ", ", "[", "]\n")
    else:
        _write_joined(texts, "\n")
    return 0


def _cmd_locate(args) -> int:
    if args.file == "-":
        w = word2d.parse_text(sys.stdin.read())
    else:
        with open(args.file, encoding="ascii") as fh:
            w = word2d.parse_text(fh.read())
    first, xs, ys = locator.occ_axes(w, args.row_bound, args.col_bound)
    # the bytes of json.dumps({"first", "occurrences", "row_bound",
    # "col_bound"}), written one row of the product at a time
    head = f'{{"first": [{first[0]}, {first[1]}], "occurrences": ['
    tail = (f'], "row_bound": {args.row_bound}, '
            f'"col_bound": {args.col_bound}}}\n')
    ys = [str(y) for y in ys]
    _write_joined((f"[{x}, " + f"], [{x}, ".join(ys) + "]" for x in xs if ys),
                  ", ", head, tail)
    return 0


def _cmd_conjugates(args) -> int:
    if args.special:
        _write_joined(conjugacy.special_conjugate2d(args.m, args.n), "\n",
                      last="\n")
    else:
        _write_joined(conjugacy.stream_class(
            word2d.fib_array(args.m, args.n)), "\n")
    return 0


def _cmd_dawg_dot(args) -> int:
    if args.orientation == "product":
        lines = dawg.export_product_dot(
            dawg.build_line_dawg("rows", args.max_len),
            dawg.build_line_dawg("cols", args.max_len))
    else:
        lines = dawg.export_dot(
            dawg.build_line_dawg(args.orientation, args.max_len))
    _write_joined(lines, "")
    return 0


def _cmd_verify(args) -> int:
    report = oracle.verify(args.k, args.l)
    if args.json:
        import json  # here only: every other request would pay its import

        lines = [json.dumps(report)]
    else:
        lines = [f"size ({report['k']},{report['l']}): "
                 f"expected {report['expected']} subwords",
                 *(f"  {name:<10} {report['sizes'][name]}"
                   for name in sorted(report["sizes"])),
                 f"  methods agree: {report['methods_agree']}",
                 f"  oracle stable: {report['oracle_stable']}",
                 "PASS" if report["ok"] else "FAIL"]
    _write_joined(lines, "\n", last="\n")
    return 0 if report["ok"] else 1


# ----------------------------------------------------------------- parser --

# command -> (function, help, {option: (type, default)}): int, str, bool for a
# flag or a tuple of choices; None if required; "--row-bound" sets row_bound
_COMMANDS = {
    "gen1d": (_cmd_gen1d, "prefix of a 1D infinite Fibonacci word",
              {"--alphabet": (str, "ba"), "--len": (int, None)}),
    "gen2d": (_cmd_gen2d, "prefix of the infinite grid",
              {"--rows": (int, None), "--cols": (int, None)}),
    "enum": (_cmd_enum, "all subwords of a size", {"--k": (int, None),
             "--l": (int, None), "--json": (bool, False),
             "--method": (tuple(sorted(_ENUM_METHODS)), "dawg")}),
    "locate": (_cmd_locate, "occurrence set of a factor ('--file -': stdin)",
               {"--file": (str, None), "--row-bound": (int, None),
                "--col-bound": (int, None)}),
    "conjugates": (_cmd_conjugates, "conjugacy class of a Fibonacci grid",
                   {"--m": (int, None), "--n": (int, None),
                    "--special": (bool, False)}),
    "dawg-dot": (_cmd_dawg_dot, "DOT dump of a line DAWG or product",
                 {"--orientation": (("rows", "cols", "product"), None),
                  "--max-len": (int, None)}),
    "verify": (_cmd_verify, "cross-method agreement report",
               {"--k": (int, None), "--l": (int, None),
                "--json": (bool, False)}),
}


def _usage(cmd) -> str:
    if cmd is None:
        return "usage: fib2d [-h] {" + ",".join(_COMMANDS) + "} ..."
    words = [f"usage: fib2d {cmd} [-h]"]
    for opt, (kind, default) in _COMMANDS[cmd][2].items():
        if kind is not bool:
            opt += " " + ("{" + ",".join(kind) + "}" if isinstance(kind, tuple)
                          else opt[2:].upper().replace("-", "_"))
        words.append(opt if default is None else f"[{opt}]")
    return " ".join(words)


def _fail(cmd, msg: str):
    prog = f"fib2d {cmd}" if cmd else "fib2d"
    sys.stderr.write(f"{_usage(cmd)}\n{prog}: error: {msg}\n")
    raise SystemExit(2)


def _options(arg: str, table) -> list | None:
    # the options arg names, [] for an unknown option, None for a value; as
    # in argparse, "-", negative numbers and words with a space are values
    head, names = arg.partition("=")[0], ("-h", "--help", *table)
    hits = [head] if head in names else [
        name for name in names if head[2:] and name.startswith(head)]
    whole, dot, frac = arg[1:].removesuffix("\n").partition(".")
    number = (whole + frac).isdecimal() and (frac or not dot)
    value = arg[:1] != "-" or arg == "-" or number or " " in arg
    return None if value and not hits else hits


def _parse(argv):
    """(command, options) read from argv as argparse read it.  Help raises
    SystemExit(0), a usage error SystemExit(2) after one error line."""
    cmd = argv[0] if argv and argv[0] in _COMMANDS else None
    table = _COMMANDS[cmd][2] if cmd else {}
    values = {opt: default for opt, (_, default) in table.items()}
    args = iter(argv[1:] if cmd else argv)
    for arg in args:
        hits = _options(arg, table)
        if not hits or len(hits) > 1:
            _fail(cmd, f"unrecognized or ambiguous argument: {arg}")
        opt, eq, value = hits[0], "=" in arg, arg.partition("=")[2]
        kind = table[opt][0] if opt in table else bool
        if kind is bool and eq:
            _fail(cmd, f"argument {opt}: takes no value")
        if opt not in table:  # -h or --help
            lines = [_COMMANDS[cmd][1]] if cmd else [
                f"  {c:<11} {e[1]}" for c, e in _COMMANDS.items()]
            _write_joined([_usage(cmd), "", *lines], "\n", last="\n")
            raise SystemExit(0)
        if kind is not bool and not eq:
            value = next(args, "--")  # "--" is never a value
            if _options(value, table) is not None:
                _fail(cmd, f"argument {opt}: expected one argument")
        try:
            if isinstance(kind, tuple) and value not in kind:
                raise ValueError(value)
            value = int(value) if kind is int else value
        except ValueError:
            _fail(cmd, f"argument {opt}: invalid value {value!r}")
        values[opt] = True if kind is bool else value
    missing = [opt for opt, value in values.items() if value is None]
    if cmd is None or missing:
        _fail(cmd, "missing " + (" ".join(missing) if cmd else "command"))
    return cmd, SimpleNamespace(**{opt[2:].replace("-", "_"): value
                                   for opt, value in values.items()})


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
    cmd, args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        code = _COMMANDS[cmd][0](args)
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
