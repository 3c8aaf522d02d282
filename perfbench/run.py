"""Benchmark of the fatpoints package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``sweep`` (maximal-rank verification of
all (type, marking) pairs), ``oracle`` (coordinate oracle against the cone
pipeline) and ``resolve`` (Hilbert functions and Betti numbers at large
multiplicities).  A run repeats whole timed passes over the seeded inputs
while the next pass still fits in ``--seconds`` (at least one pass) and
checks every item of every pass.

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s``,
``items_per_s``, ``item_p50_ms``, ``item_p95_ms``, ``peak_rss_mb`` and
``ok_frac`` (printed also as its complement ``failed_frac``).  The three
item timings are calibrated for the host's drifting speed (``meter.py``);
the uncalibrated figures are printed after them.  With
``--trace 1`` it runs untraced passes, then the same passes under the
outside-in tracer (``tracer.py``), and reports the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON
object; the lines before it print each metric with its unit and the
machine it ran on.  A full record, with the trace spans of a traced run,
is written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from meter import Meter

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench"

#: Fresh interpreters started per run to time set-up; one extra is
#: started first and discarded, so compiled bytecode is in place.
SETUP_PROBES = 5

#: Set-up probe: import the package as the command line does, then build
#: the workload's one-time tables; report the import time.
_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fatpoints.cli
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import workloads
workloads.WORKLOADS[sys.argv[3]]().setup_tables()
print("ready", repr(t1 - t0), flush=True)
"""

SPEC = "BENCHMARK.json"


def declared_units() -> tuple:
    """name -> unit of the end-to-end and of the per-layer metrics, as
    declared in the checkout's BENCHMARK.json."""
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep", "oracle", "resolve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; 'tiny' is for the benchmark's own tests")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Machine and source record


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": _commit(), "src_sha256": _src_digest()}


def _commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """Digest of the package sources, which identifies the code measured
    also where the checkout is not a git work tree."""
    h = hashlib.sha256()
    root = os.path.join("src", "fatpoints")
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Measurement


def setup_probes(src: str, workload: str):
    """Median wall time from spawning a fresh interpreter until the workload
    is ready, and median in-interpreter import time of ``fatpoints.cli``."""
    walls, imports = [], []
    for k in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _PROBE, src, HERE, workload],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        fields = line.split()
        if code != 0 or len(fields) != 2 or fields[0] != "ready":
            raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
        if k:
            walls.append(ready - start)
            imports.append(float(fields[1]))
    return statistics.median(walls), statistics.median(imports)


@dataclass
class Phase:
    """Passes of one phase of a run (untraced or traced) and their checks.

    Outputs are dropped once checked, so that memory held by the benchmark
    does not grow with the number of passes; numeric extras are summed."""

    timings: list = field(default_factory=list)
    failed: list = field(default_factory=list)
    extras: collections.Counter = field(default_factory=collections.Counter)

    def items_per_s(self, raw: bool = False) -> float:
        if raw:
            return (sum(len(t.raw_latencies) for t in self.timings)
                    / sum(t.raw_seconds for t in self.timings))
        return sum(len(t.latencies) for t in self.timings) / sum(t.seconds for t in self.timings)

    def latencies(self, raw: bool = False) -> list:
        return [x for t in self.timings for x in (t.raw_latencies if raw else t.latencies)]


def run_passes(wl, inputs, seconds: float, tracer=None) -> Phase:
    """Whole passes while the next one still fits in ``seconds`` of wall
    time (at least one); checks every item of every pass."""
    meter = Meter(tracer)
    phase = Phase()
    wall = 0.0
    while True:
        meter.start()
        if tracer is None:
            res = wl.run_pass(inputs, meter.item)
        else:
            with tracer:
                res = wl.run_pass(inputs, meter.item)
        timing = meter.stop()
        phase.timings.append(timing)
        phase.failed.extend(wl.check(inputs, res))
        phase.extras.update({k: v for k, v in res.extra.items() if isinstance(v, int)})
        del res
        wall += timing.raw_seconds
        if wall + timing.raw_seconds > seconds:
            return phase


def _p95(values) -> float:
    return statistics.quantiles(values, n=20)[18]


def end_to_end(phase: Phase, setup_s: float) -> dict:
    lat = phase.latencies()
    return {
        "setup_s": setup_s,
        "items_per_s": phase.items_per_s(),
        "item_p50_ms": statistics.median(lat) * 1e3,
        "item_p95_ms": _p95(lat) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - sum(phase.failed) / len(phase.failed),
    }


def per_layer(names, tr, phase: Phase, plain_ips: float, import_s: float) -> dict:
    """Per-layer metrics from the tracer, summed over the traced passes."""
    out = {}
    for name in names:
        fn, _, what = name.rpartition(".")
        if what == "calls":
            out[name] = tr.calls(fn)
        elif what == "self_s":
            out[name] = tr.self_s(fn)
    h0 = tr.calls("cones.h0")
    red = tr.calls("cones.reduce")
    steps = tr.counters.get("cones.reduce.steps", 0)
    out["cones.h0.hit_ratio"] = 1 - tr.edge_calls("cones.reduce", "cones.h0") / h0 if h0 else 0.0
    out["cones.reduce.steps"] = steps
    out["cones.reduce.steps_per_call"] = steps / red if red else 0.0
    for name in ("murank.s_chain.level_members", "murank.certify.inconclusive",
                 "resolution.hilbert.degrees", "oracle.conditions_matrix.cells"):
        out[name] = tr.counters.get(name, 0)
    pairs = phase.extras["pairs"]
    out["murank.dedupe_ratio"] = phase.extras["distinct"] / pairs if pairs else 0.0
    out["cli.import_s"] = import_s
    traced_ips = phase.items_per_s()
    out["trace.items_per_s_drop"] = plain_ips - traced_ips
    out["trace.overhead_frac"] = 1 - traced_ips / plain_ips
    return out


def write_record(args, env, metrics, raw, attempted, failed, tr=None) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-{args.size}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    record = {"workload": args.workload, "size": args.size, "seed": args.seed,
              "seconds": args.seconds, "machine": env, "attempted": attempted,
              "failed": failed, "metrics": metrics, "uncalibrated": raw}
    if tr is not None:
        record["aggregates"] = [[name, parent, *v] for (name, parent), v
                                in sorted(tr.edges.items())]
        record["span_fields"] = ["id", "item", "name", "parent", "start_s",
                                 "end_s", "self_s"]
        record["spans"] = tr.spans
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "fatpoints", "__init__.py")):
        print("error: run from the root of a fatpoints checkout "
              "(src/fatpoints not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import fatpoints
    import workloads
    from tracer import Tracer
    if os.path.dirname(os.path.abspath(fatpoints.__file__)) != os.path.join(src, "fatpoints"):
        print(f"error: imported fatpoints from {fatpoints.__file__}, not {src}",
              file=sys.stderr)
        return 2

    e2e_units, layer_units = declared_units()
    setup_s, import_s = setup_probes(src, args.workload)
    wl = workloads.WORKLOADS[args.workload](args.size)
    wl.setup_tables()
    inputs = wl.generate(args.seed)

    plain = run_passes(wl, inputs, args.seconds)
    failed = list(plain.failed)
    e2e = end_to_end(plain, setup_s)
    tr = traced = None
    if args.trace:
        tr = Tracer()
        traced = run_passes(wl, inputs, args.seconds, tracer=tr)
        failed += traced.failed
        metrics = per_layer(layer_units, tr, traced, e2e["items_per_s"], import_s)
        units = layer_units
    else:
        metrics = e2e
        units = e2e_units
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from {SPEC}: {sorted(units)}")
    raw = {"items_per_s": plain.items_per_s(raw=True),
           "item_p50_ms": statistics.median(plain.latencies(raw=True)) * 1e3,
           "item_p95_ms": _p95(plain.latencies(raw=True)) * 1e3,
           "host_speed": statistics.median(t.speed for t in plain.timings)}

    env = machine()
    attempted, n_failed = len(failed), sum(failed)
    path = write_record(args, env, metrics, raw, attempted, n_failed, tr)
    print("machine " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} size {args.size} seed {args.seed}: "
          f"{len(plain.timings)} untraced pass(es) of "
          f"{len(plain.timings[0].latencies)} items"
          + (f", {len(traced.timings)} traced" if traced else "") + f"; record {path}")
    for name in units:
        print(f"{name} = {metrics[name]!r} {units[name]}")
    print(f"failed_frac = {n_failed / attempted!r} fraction "
          f"({n_failed} of {attempted} items)")
    print("uncalibrated: " + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    print(json.dumps({
        "correct": n_failed == 0, "attempted": attempted, "failed": n_failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
