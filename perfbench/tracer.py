"""Outside-in tracer for the fatpoints package.

The tracer replaces public functions of the package's modules with timing
wrappers for the length of a ``with`` block and puts the originals back
afterwards.  Nothing inside the package changes: the wrappers only see the
arguments and the return values.

Several modules bind functions of another module by name
(``from .cones import h0, reduce``), so a wrapper installed only on the
defining module would miss those calls.  Every module of the package is
therefore scanned and every name bound to a wrapped function object is
replaced, and restored on exit.

Each benchmark item gets a root span.  A call of a wrapped function opens
a child span of the innermost open span; its self time is its duration
minus the durations of the wrapped calls made inside it.  The hot leaf
functions (``HOT``) are called hundreds of thousands of times per pass, so
their calls are only aggregated by (name, parent name) into count, total
and self time; every other call is kept as a span record and written out
when the run ends.

``lattice`` is deliberately not wrapped: its ``dot`` and ``DivisorClass``
construction run millions of times per pass and a wrapper would multiply
the cost it measures.  Its time shows up in the self time of the callers.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

#: (module, function) pairs that are wrapped, by package module.
TARGETS = (
    ("weyl", "orbit"),
    ("config", "neg_from_nodal"),
    ("cones", "h0"),
    ("cones", "reduce"),
    ("cones", "is_nef"),
    ("cones", "nef_generators"),
    ("cones", "gamma"),
    ("murank", "s_chain"),
    ("murank", "deficient"),
    ("murank", "ql_bounds"),
    ("murank", "certify"),
    ("murank", "verify_stabilization"),
    ("murank", "verify_configuration"),
    ("murank", "verify_all_markings"),
    ("resolution", "hilbert"),
    ("resolution", "betti"),
    ("resolution", "mu_cokernel"),
    ("oracle", "conditions_matrix"),
    ("oracle", "ideal_dim"),
    ("oracle", "mu_rank_direct"),
)

#: Calls too frequent to keep one span each; aggregated by (name, parent).
HOT = frozenset({"cones.h0", "cones.reduce", "cones.is_nef",
                 "murank.deficient", "murank.ql_bounds"})

PACKAGE = "fatpoints"


def _counter_hooks():
    """Per-function readers of return values: name -> fn(counters, result)."""

    def reduce_steps(c, red):
        c["cones.reduce.steps"] = c.get("cones.reduce.steps", 0) + len(red.trace)

    def level_members(c, chain):
        c["murank.s_chain.level_members"] = (
            c.get("murank.s_chain.level_members", 0)
            + sum(len(lv) for lv in chain.levels))

    def inconclusive(c, cert):
        if cert.status.value == "inconclusive":
            c["murank.certify.inconclusive"] = c.get("murank.certify.inconclusive", 0) + 1

    def degrees(c, prof):
        c["resolution.hilbert.degrees"] = (
            c.get("resolution.hilbert.degrees", 0) + len(prof.values))

    def cells(c, rows):
        n = len(rows) * (len(rows[0]) if rows else 0)
        c["oracle.conditions_matrix.cells"] = c.get("oracle.conditions_matrix.cells", 0) + n

    return {"cones.reduce": reduce_steps, "murank.s_chain": level_members,
            "murank.certify": inconclusive, "resolution.hilbert": degrees,
            "oracle.conditions_matrix": cells}


class Tracer:
    """Wraps the package's public functions while active; see module doc.

    Use as ``with Tracer() as tr:`` and open one ``tr.item(i)`` per
    benchmark item.  After the block, ``stats`` maps a function name to
    [calls, total_s, self_s], ``edges`` maps (name, parent) to the same
    triple for every call, ``counters`` holds values read from results and
    ``spans`` holds (id, item, name, parent_id, start_s, end_s, self_s) for
    every non-hot call and every item.
    """

    def __init__(self):
        self.stats: dict = {}
        self.edges: dict = {}
        self.counters: dict = {}
        self.spans: list = []
        self._stack: list = []  # open frames: [name, span_id, start, child_s]
        self._next_id = 1
        self._item = None
        self._patched: list = []  # (module, attribute, original)
        self._t0 = time.perf_counter()

    # -- patching -----------------------------------------------------------

    def __enter__(self):
        self._stack[:] = [["run", 0, time.perf_counter(), 0.0]]
        hooks = _counter_hooks()
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, attr in TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            orig = getattr(mod, attr)
            name = f"{mod_name}.{attr}"
            wrapper = self._wrap(name, orig, hooks.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patched.append((m, key, orig))
                        setattr(m, key, wrapper)
        return self

    def __exit__(self, *exc):
        for m, key, orig in reversed(self._patched):
            setattr(m, key, orig)
        self._patched.clear()
        return False

    def _wrap(self, name, fn, hook):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        stack = self._stack
        stats = self.stats
        edges = self.edges
        counters = self.counters
        spans = self.spans
        hot = name in HOT
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0, 0.0, 0.0]
            if not hot:
                frame[1] = self._new_id()
            stack.append(frame)
            start = frame[2] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                own = dur - frame[3]
                parent[3] += dur
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += own
                key = (name, parent[0])
                ed = edges.get(key)
                if ed is None:
                    ed = edges[key] = [0, 0.0, 0.0]
                ed[0] += 1
                ed[1] += dur
                ed[2] += own
                if not hot:
                    spans.append((frame[1], self._item, name, parent[1],
                                  start - self._t0, end - self._t0, own))
            if hook is not None:
                hook(counters, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name, fn):
        """Each resumption of the generator is one span of ``name``."""
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += 1
            gen = fn(*args, **kwargs)
            while True:
                parent = tracer._stack[-1]
                frame = [name, tracer._new_id(), time.perf_counter(), 0.0]
                tracer._stack.append(frame)
                try:
                    value = next(gen)
                except StopIteration:
                    return
                finally:
                    end = time.perf_counter()
                    tracer._stack.pop()
                    dur = end - frame[2]
                    own = dur - frame[3]
                    parent[3] += dur
                    st[1] += dur
                    st[2] += own
                    ed = tracer.edges.setdefault((name, parent[0]), [0, 0.0, 0.0])
                    ed[0] += 1
                    ed[1] += dur
                    ed[2] += own
                    tracer.spans.append((frame[1], tracer._item, name, parent[1],
                                         frame[2] - tracer._t0, end - tracer._t0, own))
                yield value

        wrapper.__wrapped__ = fn
        return wrapper

    def _new_id(self) -> int:
        i = self._next_id
        self._next_id += 1
        return i

    # -- item root spans ------------------------------------------------------

    def item(self, item_id):
        return _ItemSpan(self, item_id)

    # -- results --------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def edge_calls(self, name: str, parent: str) -> int:
        return self.edges.get((name, parent), (0, 0.0, 0.0))[0]


class _ItemSpan:
    def __init__(self, tracer: Tracer, item_id):
        self.tracer = tracer
        self.item_id = item_id

    def __enter__(self):
        tr = self.tracer
        tr._item = self.item_id
        self.frame = ["item", tr._new_id(), time.perf_counter(), 0.0]
        tr._stack.append(self.frame)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        end = time.perf_counter()
        tr._stack.pop()
        f = self.frame
        tr.spans.append((f[1], self.item_id, "item", 0, f[2] - tr._t0,
                         end - tr._t0, end - f[2] - f[3]))
        tr._item = None
        return False
