"""Run the ramapoly CLI with spans around the public functions of each layer.

Usage: python3 perfbench/tracer.py TRACE_JSON verify [verify options...]

The wrappers live here, not in the library: the program under test is the
unmodified package on PYTHONPATH.  Every wrapped call (and every resume of a
wrapped generator, such as ``TreeEnumerator.trees``) is a span.  The
``harness.run_suite`` and ``harness.run_identity`` spans are written out one
by one with their parent; the layer spans below them are folded, as each
closes, into per-identity totals of count, inclusive time and self time (its
time minus the time of the spans it encloses), because the census workload
alone opens several million of them.  A few counters (nodes built, trees
streamed, ...) are kept beside the spans.  Nothing is written to stdout, so
the CLI's output is left as it is; the trace goes to TRACE_JSON at exit.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

from ramapoly import bijections, cli, forests, halfmobile, harness, polyring, qpolys, treecore

OUTSIDE = "-"   # identity key for spans outside any harness.run_identity


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []          # open spans: [name, start, child seconds]
        self.totals: dict[str, dict[str, list]] = {OUTSIDE: {}}
        self.current = self.totals[OUTSIDE]  # name -> [count, inclusive s, self s]
        self.counters: dict[str, list[int]] = {}
        self.identity_counters: dict[str, dict[str, int]] = {}
        self.spans: list[dict] = []
        self.open_records: list[int] = []    # ids of the recorded spans now open

    def enter(self, name: str) -> None:
        self.stack.append([name, perf_counter(), 0.0])

    def exit(self) -> float:
        end = perf_counter()
        name, start, child = self.stack.pop()
        seconds = end - start
        if self.stack:
            self.stack[-1][2] += seconds
        total = self.current.get(name)
        if total is None:
            total = self.current[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += seconds
        total[2] += seconds - child
        return end

    def count(self, name: str) -> list[int]:
        """A one-element cell the caller increments in its hot loop."""
        return self.counters.setdefault(name, [0])


TRACER = Tracer()


def _span(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        TRACER.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            TRACER.exit()
    return wrapper


def _generator_span(name: str, fn, yielded: str | None = None):
    """Wrap a function returning an iterator; each resume is its own span."""
    cell = TRACER.count(yielded) if yielded else [0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        TRACER.enter(name)
        try:
            it = iter(fn(*args, **kwargs))
        finally:
            TRACER.exit()
        while True:
            TRACER.enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                TRACER.exit()
            cell[0] += 1
            yield item
    return wrapper


def _counted_init(name: str, init):
    cell = TRACER.count(name)

    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        cell[0] += 1
        init(self, *args, **kwargs)
    return wrapper


def _recorded_span(name: str, fn, per_identity: bool = False):
    """A span written out on its own; per_identity makes it the root span of
    the identity that the call's first argument names."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record = {"id": len(TRACER.spans), "name": name,
                  "parent": TRACER.open_records[-1] if TRACER.open_records else None}
        TRACER.spans.append(record)
        TRACER.open_records.append(record["id"])
        outer = TRACER.current
        if per_identity:
            identity = harness.resolve(args[0] if args else kwargs["name"]).name
            record["identity"] = identity
            TRACER.current = TRACER.totals.setdefault(identity, {})
            before = {k: cell[0] for k, cell in TRACER.counters.items()}
        TRACER.enter(name)
        record["start"] = TRACER.stack[-1][1]
        try:
            return fn(*args, **kwargs)
        finally:
            record["end"] = TRACER.exit()
            TRACER.open_records.pop()
            TRACER.current = outer
            if per_identity:
                TRACER.identity_counters[identity] = {
                    k: cell[0] - before.get(k, 0) for k, cell in TRACER.counters.items()}
    return wrapper


def install() -> None:
    """Replace the layer entry points by traced wrappers, in place."""
    harness.run_suite = _recorded_span("harness.run_suite", harness.run_suite)
    harness.run_identity = _recorded_span("harness.run_identity", harness.run_identity,
                                          per_identity=True)

    Tree, Enum = treecore.PlaneTree, treecore.TreeEnumerator
    Tree.__init__ = _counted_init("treecore.nodes_built", Tree.__init__)
    Enum.trees = _generator_span("treecore.trees", Enum.trees, "treecore.trees_streamed")
    for name in ("weight_census", "generating_poly", "leaf_profile"):
        setattr(treecore, name, _span(f"treecore.{name}", getattr(treecore, name)))
    for name in ("increasing_plane_trees", "increasing_rooted_trees"):
        setattr(treecore, name, _generator_span("treecore.increasing", getattr(treecore, name)))

    halfmobile.theta = _span("halfmobile.theta", halfmobile.theta)
    halfmobile.hm_stats = _span("halfmobile.hm_stats", halfmobile.hm_stats)
    halfmobile.enumerate_hm = _generator_span("halfmobile.enumerate_hm", halfmobile.enumerate_hm)

    Poly = polyring.Poly
    Poly.__init__ = _counted_init("polyring.poly_built", Poly.__init__)
    mul = _span("polyring.mul", Poly.__mul__)
    Poly.__mul__ = Poly.__rmul__ = mul
    Poly.substitute = _span("polyring.substitute", Poly.substitute)

    for name in ("q_n", "q_nk", "verify_identity"):
        setattr(qpolys, name, _span(f"qpolys.{name}", getattr(qpolys, name)))

    for name in ("fixed_root_forests", "plane_forests"):
        setattr(forests, name, _generator_span(f"forests.{name}", getattr(forests, name),
                                               "forests.forests_streamed"))
    for name in ("ij_class", "i_class", "contract"):
        setattr(bijections, name, _span(f"bijections.{name}", getattr(bijections, name)))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py TRACE_JSON verify [options...]", file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[1:]
    install()
    code = cli.main(cli_args)
    trace = {
        "spans": TRACER.spans,
        "totals": {identity: {name: {"count": c, "inclusive_s": inc, "self_s": own}
                              for name, (c, inc, own) in names.items()}
                   for identity, names in TRACER.totals.items()},
        "counters": {name: cell[0] for name, cell in TRACER.counters.items()},
        "identity_counters": TRACER.identity_counters,
    }
    with open(trace_path, "w") as fh:
        json.dump(trace, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
