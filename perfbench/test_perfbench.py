"""Tests of the benchmark itself, at tiny input size.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

from fatpoints import murank, oracle, resolution  # noqa: E402

WORKLOADS = ("sweep", "oracle", "resolve")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert any(ln.startswith("failed_frac = 0.0 fraction") for ln in lines)
    assert any(ln.startswith("machine ") and '"nproc"' in ln for ln in lines)


def _corrupt_first_call(monkeypatch, module, name, spoil):
    """Make the first call of module.name return a spoiled result."""
    orig = getattr(module, name)
    calls = []

    def fake(*args, **kwargs):
        result = orig(*args, **kwargs)
        calls.append(1)
        return spoil(result) if len(calls) == 1 else result

    monkeypatch.setattr(module, name, fake)


SPOILERS = {
    "sweep": (murank, "verify_configuration",
              lambda rep: dataclasses.replace(rep, ok=False)),
    "oracle": (oracle, "ideal_dim", lambda dim: dim + 1),
    "resolve": (resolution, "betti",
                lambda table: resolution.BettiTable(
                    t={**table.t, 99: 1}, s={**table.s, 100: 1})),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_result_is_counted_as_failed(workload, monkeypatch):
    wl = workloads.WORKLOADS[workload]("tiny")
    wl.setup_tables()
    inputs = wl.generate(5)
    assert sum(run.run_passes(wl, inputs, 0.0).failed) == 0
    _corrupt_first_call(monkeypatch, *SPOILERS[workload])
    phase = run.run_passes(wl, inputs, 0.0)
    metrics = run.end_to_end(phase, setup_s=1.0)
    assert sum(phase.failed) >= 1
    assert metrics["ok_frac"] == 1 - sum(phase.failed) / len(phase.failed) < 1


def test_raising_item_is_counted_as_failed(monkeypatch):
    wl = workloads.WORKLOADS["resolve"]("tiny")
    inputs = wl.generate(5)

    def spoil(_table):
        raise ArithmeticError("deliberate")

    _corrupt_first_call(monkeypatch, resolution, "betti", spoil)
    phase = run.run_passes(wl, inputs, 0.0)
    assert sum(phase.failed) >= 1
    assert len(phase.failed) == len(inputs)


def test_tracer_patches_every_binding_and_restores_it():
    import fatpoints
    from fatpoints import cones
    originals = {name: getattr(sys.modules[f"fatpoints.{mod}"], name)
                 for mod, name in TARGETS}
    with Tracer():
        assert murank.h0.__wrapped__ is originals["h0"]
        assert resolution.reduce.__wrapped__ is originals["reduce"]
        assert fatpoints.hilbert.__wrapped__ is originals["hilbert"]
        for m in [v for k, v in sys.modules.items() if k.startswith("fatpoints")]:
            for value in vars(m).values():
                assert not any(value is f for f in originals.values())
    assert murank.h0 is cones.h0 is originals["h0"]
    assert fatpoints.hilbert is resolution.hilbert is originals["hilbert"]


def test_traced_counts_add_up():
    wl = workloads.WORKLOADS["resolve"]("tiny")
    inputs = wl.generate(2)
    tr = Tracer()
    phase = run.run_passes(wl, inputs, 0.0, tracer=tr)
    assert sum(phase.failed) == 0
    assert len(phase.timings[0].latencies) == len(inputs)
    assert tr.calls("resolution.betti") == len(inputs)
    assert tr.edge_calls("resolution.hilbert", "item") == len(inputs)
    items = [s for s in tr.spans if s[2] == "item"]
    assert len(items) == len(inputs)
    for _id, _item, _name, _parent, start, end, own in tr.spans:
        assert 0 <= own <= end - start + 1e-9


def test_inputs_follow_the_seed():
    for name in WORKLOADS:
        wl = workloads.WORKLOADS[name]("tiny")
        assert wl.generate(7) == wl.generate(7)
        assert wl.generate(7) != wl.generate(8)


def test_refuses_to_run_without_the_package(tmp_path):
    proc = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
