"""Outside-in tracer: wraps public fib2d functions from the benchmark's side.

Each listed function is replaced by a timing wrapper under every name the
fib2d modules bind to it: module attributes, import aliases such as
`frames.subblock`, re-exports in `fib2d`, and values of module-level
dicts such as the CLI's method table.  A wrapped call records one span
(function, parent span, start, end) and, for some functions, counts read
off its arguments and result.  Spans stay in memory until the request
ends.  Trivially hot helpers (`fib`, `column`, `dims`) stay unwrapped.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array


def _arg(name):
    return lambda bound, result: bound.arguments[name]


def _size(bound, result):
    return len(result)


def _windows(bound, result):
    a = bound.arguments
    return (a["R"] - a["k"] + 1) * (a["C"] - a["l"] + 1)


# "module.function" -> {counter: fn(bound arguments, result)}
TRACED = {
    "cli.main": {},
    "word1d.z_stream": {"scanned": _arg("bound"), "yielded": _size},
    "word1d.occ1d": {},
    "word1d.first_occ1d": {},
    "word1d.shortest_truncated_index": {},
    "word1d.factors1d": {},
    "word1d.right_extensions": {},
    "word1d.fib_prefix": {},
    "word2d.mu_prefix": {},
    "word2d.classify_lines": {},
    "word2d.subblock": {},
    "word2d.fib_array": {},
    "word2d.to_text": {},
    "word2d.parse_text": {},
    "dawg.build_line_dawg": {"nodes": lambda b, g: len(g.nodes)},
    "dawg.rooted_product": {"edges": lambda b, g: len(g.edges)},
    "dawg.subword_from_path": {},
    "dawg.enumerate_dawg": {},
    "dawg.export_dot": {},
    "frames.extend_diagonal": {"grids_out": _size},
    "frames.extensions_of": {},
    "frames.fill_from_frame": {},
    "frames.enumerate_extension": {"returned": _size},
    "frames.frame_tl": {},
    "conjugacy.rotate2d": {},
    "conjugacy.special_conjugate2d": {},
    "conjugacy.enumerate_conjugation": {},
    "conjugacy.enumerate_prefix_conjugates": {},
    "locator.occ2d": {"pairs": _size},
    "locator.first_occ2d": {},
    "oracle.oracle_subwords": {"windows": _windows, "returned": _size},
    "oracle.verify": {},
}

# lru caches whose size is read when the request ends
CACHES = ("word1d.zeck_repr", "word1d.fib_word")


def _resolve(qualname):
    module, name = qualname.split(".")
    return getattr(importlib.import_module(f"fib2d.{module}"), name)


def fib2d_modules():
    return [m for name, m in sorted(sys.modules.items()) if m is not None
            and (name == "fib2d" or name.startswith("fib2d."))]


def aliases(targets):
    """(container, key) of every binding in fib2d to one of the targets:
    module attributes and values of module-level dicts."""
    out = []
    for mod in fib2d_modules():
        for key, val in vars(mod).items():
            if isinstance(val, dict):
                out += [(val, k) for k, v in val.items()
                        if any(v is t for t in targets)]
            elif any(val is t for t in targets):
                out.append((vars(mod), key))
    return out


class Tracer:
    def __init__(self):
        self.names = list(TRACED)
        # four ints per call: name index, parent span or -1, start, end (ns);
        # a flat array, so the cyclic GC has no span objects to traverse
        self.spans = array("q")
        self.counts = {name: {} for name in self.names}
        self._stack = []

    def install(self) -> None:
        """Replace every fib2d binding of each listed function."""
        for i, qualname in enumerate(self.names):
            fn = _resolve(qualname)
            wrapper = self._wrap(i, fn, TRACED[qualname])
            for container, key in aliases([fn]):
                container[key] = wrapper

    def _wrap(self, index, fn, counters):
        spans, stack = self.spans, self._stack
        counts = self.counts[self.names[index]]
        clock = time.perf_counter_ns
        signature = inspect.signature(fn) if counters else None

        def traced(*args, **kwargs):
            at = len(spans)
            spans.extend((index, stack[-1] if stack else -1, 0, 0))
            stack.append(at // 4)
            spans[at + 2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[at + 3] = clock()
                stack.pop()
            if counters:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for name, count in counters.items():
                    counts[name] = counts.get(name, 0) + count(bound, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def report(self) -> dict:
        caches = {q: _resolve(q).cache_info().currsize for q in CACHES}
        return {"names": self.names, "spans": self.spans.tolist(),
                "counts": self.counts, "caches": caches}
