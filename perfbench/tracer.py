"""Run-time spans and counters around the public ``bht`` layers.

``Tracer.install`` replaces every binding of each traced function object in
the loaded ``bht.*`` modules (``witness`` and ``verify`` hold their own
``compose`` and ``equals`` from ``from .element import ...``), so nested
calls through module globals are caught too.  ``Brick.intersect`` and the
table constructors are wrapped on their classes.  ``remove`` restores every
original binding; no source file is touched.

Spans (name, start, end, parent span, op id) are kept in flat arrays and
written out at the end; self time is a span's duration minus the time its
child spans cover.
"""

import gzip
import math
import sys
import time
from array import array
from collections import defaultdict

from bht import cli, element, space, textio, verify, vembed, witness

WITNESS_FUNCS = (
    "compress", "doubling_witness", "bisection_between", "multisection",
    "vigor_witness", "conjugate_family", "compressibility_witness",
)

# Per-layer metrics a traced run reports, with units.  Counts and self times
# are per op of the traced phase; sizes and ratios are per call.
LAYER_METRICS = {}
for _name, _fields in (
    ("element.compose", ("calls", "self_s", "cells_in", "cells_out")),
    ("element.canonicalize", ("calls", "self_s", "cells_in", "cells_out")),
    ("element.equals", ("calls", "self_s", "true_ratio")),
    ("element.invert", ("self_s",)),
    ("element.table_init", ("calls", "self_s")),
    ("element.closed_support", ("self_s",)),
    ("element.image_clopen", ("self_s",)),
    ("space.canonical_bricks", ("calls", "self_s", "bricks_in", "bricks_out")),
    ("space.brick_subtract", ("calls",)),
    ("space.brick_intersect", ("calls", "hit_ratio")),
) + tuple(("witness." + f, ("self_s",)) for f in WITNESS_FUNCS) + (
    ("vembed.build_v_embedding", ("self_s",)),
    ("vembed.evaluate_embedding", ("self_s",)),
    ("textio.format_witness", ("self_s", "bytes")),
    ("textio.parse_witness", ("self_s", "bytes")),
    ("verify.run_checks", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
):
    for _field in _fields:
        LAYER_METRICS["%s.%s" % (_name, _field)] = {
            "calls": "calls/op", "self_s": "s/op", "cells_in": "cells/call",
            "cells_out": "cells/call", "bricks_in": "bricks/call",
            "bricks_out": "bricks/call", "bytes": "bytes/call",
            "true_ratio": "ratio", "hit_ratio": "ratio",
        }[_field]
# Per-call sizes fixed by the inputs and by the canonical outputs.  A change
# in one of them is a change in behaviour, not a gain, so a traced run
# reports them with the input properties and not as metrics.
LAYER_PROPERTIES = {k: LAYER_METRICS.pop(k) for k in (
    "element.compose.cells_in", "element.compose.cells_out",
    "element.canonicalize.cells_out", "element.equals.true_ratio",
    "space.canonical_bricks.bricks_out",
    "textio.format_witness.bytes", "textio.parse_witness.bytes",
)}
GROWTH_SPANS = ("element.compose", "element.table_init", "space.canonical_bricks")
for _name in GROWTH_SPANS:
    LAYER_METRICS[_name + ".growth"] = "log2"
LAYER_METRICS["trace.overhead.throughput_ratio"] = "ratio"
LAYER_METRICS["trace.overhead.latency_p50_ratio"] = "ratio"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.op = array("l")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: defaultdict = defaultdict(int)
        self._undo: list = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, after=None):
        """Wrap fn in a span; a call made directly inside a span of the same
        name (TableElement.__init__ calling PrefixBijection.__init__) is part
        of that span.  ``after(args, result)`` records counts inside the span."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self.stack, time.perf_counter
        starts, ends, parents, names, ops = self.start, self.end, self.parent, self.name, self.op

        def traced(*args, **kwargs):
            if stack and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            i = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(nid)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(args, out)
                return out
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _counted(self, name, fn, hit=False):
        counts = self.counts
        calls, hits = name + ".calls", name + ".hits"

        def counted(*args):
            out = fn(*args)
            counts[calls] += 1
            if hit and out is not None:
                counts[hits] += 1
            return out

        counted.__wrapped__ = fn
        return counted

    def _add(self, key, value):
        self.counts[key] += value

    def _wrappers(self):
        add = self._add
        compose_counts = lambda a, out: (
            add("element.compose.cells_in", len(a[0].cells) + len(a[1].cells)),
            add("element.compose.cells_out", len(out.cells)))
        canon_counts = lambda a, out: (
            add("element.canonicalize.cells_in", len(a[0].cells)),
            add("element.canonicalize.cells_out", len(out.cells)))
        equals_counts = lambda a, out: add("element.equals.true", bool(out))
        bricks_counts = lambda a, out: (
            add("space.canonical_bricks.bricks_in", len(a[1])),
            add("space.canonical_bricks.bricks_out", len(out)))
        canonical_bricks = self._span("space.canonical_bricks", space.canonical_bricks, bricks_counts)
        funcs = {
            element.compose: self._span("element.compose", element.compose, compose_counts),
            element.canonicalize: self._span("element.canonicalize", element.canonicalize, canon_counts),
            element.equals: self._span("element.equals", element.equals, equals_counts),
            element.invert: self._span("element.invert", element.invert),
            element.closed_support: self._span("element.closed_support", element.closed_support),
            element.image_clopen: self._span("element.image_clopen", element.image_clopen),
            # the brick list may be a one-shot iterator, so count a copy
            space.canonical_bricks: lambda sp, bricks: canonical_bricks(sp, list(bricks)),
            space.brick_subtract: self._counted("space.brick_subtract", space.brick_subtract),
            vembed.build_v_embedding: self._span("vembed.build_v_embedding", vembed.build_v_embedding),
            vembed.evaluate_embedding: self._span("vembed.evaluate_embedding", vembed.evaluate_embedding),
            textio.format_witness: self._span(
                "textio.format_witness", textio.format_witness,
                lambda a, out: add("textio.format_witness.bytes", len(out.encode()))),
            textio.parse_witness: self._span(
                "textio.parse_witness", textio.parse_witness,
                lambda a, out: add("textio.parse_witness.bytes", len(a[0].encode()))),
            verify.run_checks: self._span("verify.run_checks", verify.run_checks),
            cli.main: self._span("cli.main", cli.main),
        }
        for f in WITNESS_FUNCS:
            orig = getattr(witness, f)
            funcs[orig] = self._span("witness." + f, orig)
        methods = [
            (space.Brick, "intersect", self._counted("space.brick_intersect", space.Brick.intersect, hit=True)),
            (element.PrefixBijection, "__init__",
             self._span("element.table_init", element.PrefixBijection.__init__)),
            (element.TableElement, "__init__",
             self._span("element.table_init", element.TableElement.__init__)),
        ]
        return funcs, methods

    def install(self):
        funcs, methods = self._wrappers()
        by_id = {id(f): w for f, w in funcs.items()}
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "bht" or name.startswith("bht.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for cls, attr, wrapper in methods:
            self._undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapper)

    def remove(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = dur[:]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def invalid_spans(self) -> int:
        """Spans whose parent does not exist, comes later, or does not
        enclose them in time."""
        bad = 0
        for i, p in enumerate(self.parent):
            if p >= i or (p >= 0 and not (
                self.start[p] <= self.start[i] <= self.end[i] <= self.end[p]
                and self.op[p] == self.op[i]
            )) or self.end[i] < self.start[i]:
                bad += 1
        return bad

    def layer_metrics(self, n_ops: int, op_size) -> dict:
        """Per-layer values for a traced phase of ``n_ops`` ops; ``op_size``
        maps an op id to its input size (or None).  Holds the properties
        in ``LAYER_PROPERTIES`` too."""
        own = self.self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        by_size = defaultdict(float)
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += own[i]
            if name in GROWTH_SPANS:
                by_size[name, op_size(self.op[i])] += own[i]
        ops_by_size = defaultdict(int)
        for op in range(n_ops):
            ops_by_size[op_size(op)] += 1
        c = self.counts
        ops = max(1, n_ops)
        out = {}
        for metric in {**LAYER_METRICS, **LAYER_PROPERTIES}:
            layer, _, field = metric.rpartition(".")
            if field == "calls":
                value = (c[metric] if layer in ("space.brick_subtract", "space.brick_intersect")
                         else calls[layer]) / ops
            elif field == "self_s":
                value = self_s[layer] / ops
            elif field in ("cells_in", "cells_out", "bricks_in", "bricks_out", "bytes"):
                value = c[metric] / max(1, calls[layer])
            elif field == "true_ratio":
                value = c["element.equals.true"] / max(1, calls[layer])
            elif field == "hit_ratio":
                value = c[layer + ".hits"] / max(1, c[layer + ".calls"])
            elif field == "growth":
                value = _growth(layer, by_size, ops_by_size)
            else:
                continue  # trace.overhead.* is filled in by the runner
            out[metric] = value
        return out

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    self.names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.op[i]))


def _growth(layer, by_size, ops_by_size) -> float:
    """log2 of the mean self time per op at the largest size over the next
    largest; 0.0 when the workload has no sizes."""
    sizes = sorted(s for s in ops_by_size if s is not None)
    if len(sizes) < 2:
        return 0.0
    hi, lo = sizes[-1], sizes[-2]
    t_hi = by_size[layer, hi] / ops_by_size[hi]
    t_lo = by_size[layer, lo] / ops_by_size[lo]
    if t_hi <= 0 or t_lo <= 0:
        return 0.0
    return math.log2(t_hi / t_lo)
