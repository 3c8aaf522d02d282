"""Byte-identical command-line output, pinned by sha256 digests of stdout.

``golden_cli.json`` holds the exit code and the sha256 of stdout of
``verify`` and ``verify --json``, each with and without ``--all-e0``, and of
``neg`` and ``neg --json``, on the six fixture cases and the 20 catalog
types, of ``nefgens`` and ``nefgens --raw``, text and ``--json``, on the
six fixture cases, of three ``verify --depth 13`` runs (levels past 6; on
some A1 markings their entries leave the int64 key packing range), and of
``hilbert`` and ``resolve``, text and ``--json``, at the large
multiplicities ``LARGE_MULT`` on cases iv and general and the types E6, D5
and A5, and at ``ASCENDING_MULT`` on E6 and D4, where
``proximity_normalize`` changes the multiplicities; one ``hilbert --deg``
run reaches past twice sigma.  ``oracle --compare``, text and ``--json``,
is pinned on the six fixture cases at the vectors and degrees of
``ORACLE_RUNS``, which include rank-deficient multiplication maps and
degrees below, at and above each vector's largest multiplicity; an
``oracle`` key names its fixture case where the others name a
configuration.  A change that means to alter this output
rewrites the file with ``PYTHONPATH=src python
tests/test_golden_cli.py`` and says why.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from fatpoints.cli import main
from fatpoints.config import FIXTURE_SPECS, dynkin_catalog

#: Multiplicities of the pinned ``hilbert`` and ``resolve`` runs.
LARGE_MULT = "200,199,198,100,66,1"
#: The same values in ascending order: on E6 and D4 the infinitely-near
#: points get larger multiplicities than the points they lie near, so
#: normalization rewrites them (E6: 128,128,127,127,127,127).
ASCENDING_MULT = "1,66,100,198,199,200"
#: (case, multiplicities, degrees) of the pinned ``oracle --compare`` runs.
ORACLE_RUNS = (
    ("i", "3,3,3,1,0,3", (2, 5, 7)),
    ("ii", "0,3,0,6,3,3", (4, 5, 6, 8)),
    ("iii", "5,4,3,2,1,0", (3, 4, 9)),
    ("iii", "0,0,5,0,0,5", (4, 5, 9)),
    ("iv", "2,2,6,2,2,2", (0, 4, 5, 6, 8, 11)),
    ("iv", "20,0,0,0,0,0", (19, 20, 40)),
    ("iv", "1,1,1,1,1,1", (0, 1, 2, 60000)),
    ("conic", "6,1,4,0,2,0", (3, 5, 6, 7, 9)),
    ("conic", "7,4,4,3,2,1", (6, 7, 12)),
    ("general", "4,4,4,4,4,4", (3, 4, 10)),
    ("general", "2,0,7,1,0,3", (6, 7, 8, 13)),
)

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")
NOTE = ("exit code and sha256 of the stdout of `fatpoints <arguments> --config "
        "<configuration>.json`, keyed '<configuration> <arguments>', or of `fatpoints "
        "oracle <arguments> --case <case>`, keyed '<case> oracle <arguments>'; written by "
        "tests/test_golden_cli.py")


def commands() -> list:
    """Keys '<configuration> <arguments>' of every pinned command."""
    out = []
    for name in tuple(FIXTURE_SPECS) + tuple(sorted(dynkin_catalog())):
        for marking in ("", " --all-e0"):
            for fmt in ("", " --json"):
                out.append(f"{name} verify{marking}{fmt}")
    for name in tuple(FIXTURE_SPECS) + tuple(sorted(dynkin_catalog())):
        for fmt in ("", " --json"):
            out.append(f"{name} neg{fmt}")
    for name in FIXTURE_SPECS:
        for which in ("", " --raw"):
            for fmt in ("", " --json"):
                out.append(f"{name} nefgens{which}{fmt}")
    out += ["A1 verify --all-e0 --depth 13", "A1 verify --all-e0 --depth 13 --json",
            "i verify --depth 13"]
    for name in ("iv", "general", "E6", "D5", "A5"):
        for command in ("hilbert", "resolve"):
            for fmt in ("", " --json"):
                out.append(f"{name} {command} --mult {LARGE_MULT}{fmt}")
    for name in ("E6", "D4"):
        for command in ("hilbert", "resolve"):
            for fmt in ("", " --json"):
                out.append(f"{name} {command} --mult {ASCENDING_MULT}{fmt}")
    out.append(f"E6 hilbert --mult {ASCENDING_MULT} --deg 800")  # sigma is 383
    for case, mult, degrees in ORACLE_RUNS:
        for deg in degrees:
            for fmt in ("", " --json"):
                out.append(f"{case} oracle --mult {mult} --deg {deg} --compare{fmt}")
    return out


def config_json(name: str) -> dict:
    if name in FIXTURE_SPECS:
        spec = FIXTURE_SPECS[name]
        return {"kind": "distinct", "collinear": [sorted(s) for s in spec.collinear],
                "six_on_conic": spec.six_on_conic}
    return {"kind": "dynkin", "type": name}


def run_command(key: str, directory: pathlib.Path) -> dict:
    name, *argv = key.split()
    if argv[0] == "oracle":
        argv += ["--case", name]
    else:
        path = directory / f"{name}.json"
        path.write_text(json.dumps(config_json(name)))
        argv += ["--config", str(path)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return {"exit": code,
            "stdout_sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


def golden() -> dict:
    return json.loads(GOLDEN.read_text())["commands"]


def test_golden_covers_every_command():
    assert sorted(golden()) == sorted(commands())


@pytest.mark.parametrize("key", commands())
def test_cli_stdout_matches_golden_digest(key, tmp_path):
    assert run_command(key, tmp_path) == golden()[key]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {key: run_command(key, pathlib.Path(tmp)) for key in commands()}
    data = {"note": NOTE, "commands": table}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}", file=sys.stderr)
