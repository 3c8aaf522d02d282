"""Command-line front end with stable, diffable output.

Classes print as 7-integer display rows matching the stored tables, point
indices are 1-based, and every list is emitted in sorted order so repeated
runs are byte-identical.  Exit codes: 0 success, 1 validation or usage
error, 2 a verification left something inconclusive.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import murank, oracle, resolution
from .config import FIXTURE_SPECS, ConfigError, PointConfiguration, dynkin_catalog
from .cones import h0, nef_generators
from .lattice import DivisorClass
from .weyl import orbit


def _row(cls: DivisorClass) -> str:
    return " ".join(f"{v:2d}" for v in cls.display_row())


def _parse_class(text: str) -> DivisorClass:
    parts = text.replace(",", " ").split()
    if len(parts) != 7:
        raise ConfigError(f"expected 7 integers for a class, got {len(parts)}")
    try:
        row = [int(x) for x in parts]
    except ValueError as exc:
        raise ConfigError(f"bad class entry: {exc}") from exc
    return DivisorClass.from_display_row(row)


def _parse_mult(text: str) -> tuple:
    parts = text.replace(",", " ").split()
    if len(parts) != 6:
        raise ConfigError(f"expected 6 multiplicities, got {len(parts)}")
    try:
        m = tuple(int(x) for x in parts)
    except ValueError as exc:
        raise ConfigError(f"bad multiplicity: {exc}") from exc
    return m


def _emit(payload: dict, rows: list, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in rows:
            print(line)


def _classes(args, command: str, classes, **extra) -> int:
    """Classes as display rows, or as the ``classes`` of a JSON payload."""
    _emit({"command": command, **extra,
           "classes": [list(c.display_row()) for c in classes]},
          [_row(c) for c in classes], args.json)
    return 0


def _cmd_neg(args) -> int:
    return _classes(args, "neg", PointConfiguration.load(args.config).neg.classes)


def _cmd_nefgens(args) -> int:
    gens = nef_generators(PointConfiguration.load(args.config).neg)
    return _classes(args, "nefgens", gens.raw if args.raw else gens.pared, raw=args.raw)


def _cmd_orbit(args) -> int:
    seed = _parse_class(args.seed)
    elements = orbit(seed).sorted()
    return _classes(args, "orbit", elements, seed=list(seed.display_row()),
                    size=len(elements))


def _cmd_catalog(args) -> int:
    cat = dynkin_catalog()
    rows = []
    payload = {}
    for name in sorted(cat):
        payload[name] = [list(c.display_row()) for c in cat[name]]
        rows.append(f"{name}: " + "; ".join(_row(c) for c in cat[name]))
    _emit({"command": "catalog", "types": payload}, rows, args.json)
    return 0


def _cmd_hilbert(args) -> int:
    if args.deg is not None and args.deg < 0:
        raise ConfigError(f"--deg must be at least 0, got {args.deg}")
    cfg = PointConfiguration.load(args.config)
    z = resolution.FatPointScheme(neg=cfg.neg, multiplicities=_parse_mult(args.mult))
    prof = resolution.hilbert(z, t_max=args.deg)
    tmax = args.deg if args.deg is not None else prof.sigma + 1
    rows = [f"{t} {prof(t)}" for t in range(tmax + 1)]
    rows.append(f"alpha {prof.alpha}")
    rows.append(f"tau {prof.tau}")
    rows.append(f"sigma {prof.sigma}")
    _emit({"command": "hilbert", "values": {str(t): prof(t) for t in range(tmax + 1)},
           "alpha": prof.alpha, "tau": prof.tau, "sigma": prof.sigma},
          rows, args.json)
    return 0


def _cmd_resolve(args) -> int:
    cfg = PointConfiguration.load(args.config)
    z = resolution.FatPointScheme(neg=cfg.neg, multiplicities=_parse_mult(args.mult))
    prof = resolution.hilbert(z)
    table = resolution.betti(z)
    rows = ["degree h t s"]
    for t in range(prof.sigma + 2):
        rows.append(f"{t} {prof(t)} {table.t.get(t, 0)} {table.s.get(t, 0)}")
    rows.append("F0 = " + table.generator_summary())
    rows.append("F1 = " + table.syzygy_summary())
    _emit({"command": "resolve",
           "hilbert": {str(t): prof(t) for t in range(prof.sigma + 2)},
           "alpha": prof.alpha, "sigma": prof.sigma,
           "t": {str(k): v for k, v in sorted(table.t.items())},
           "s": {str(k): v for k, v in sorted(table.s.items())},
           "F0": table.generator_summary(), "F1": table.syzygy_summary()},
          rows, args.json)
    return 0


def _marking_lines(report: murank.MarkingReport) -> list:
    rows = [f"marking {_row(report.marking)} method {report.method} "
            f"{'ok' if report.ok else 'INCONCLUSIVE'}"]
    if report.report is not None:
        sub = report.report
        if sub.j is not None:
            rows.append(f"  stabilization j={sub.j} k={sub.k}")
        for cls in sorted(sub.certificates):
            cert = sub.certificates[cls]
            rows.append(f"  {_row(cls)}  {cert.status.value}  {cert.reason}")
        for tail in sub.tails:
            rows.append(f"  ray {_row(tail.base)} + i*({_row(tail.step)}): "
                        f"{tail.kind} from {tail.start} ({tail.detail})")
    return rows


def _cmd_verify(args) -> int:
    if args.depth < 1:
        raise ConfigError(f"--depth must be at least 1, got {args.depth}")
    cfg = PointConfiguration.load(args.config)
    reports = (list(murank.verify_all_markings(cfg.neg, depth=args.depth)) if args.all_e0
               else [murank.verify_configuration(cfg.neg, depth=args.depth)])
    all_ok = all(rep.ok for rep in reports)
    for rep in reports:  # why a marking is inconclusive, off stdout (only chains fail)
        for note in () if rep.ok else rep.report.notes:
            print(f"note: marking {_row(rep.marking)}: {note}", file=sys.stderr)
    rows = [line for rep in reports for line in _marking_lines(rep)]
    rows.append("RESULT " + ("ok" if all_ok else "INCONCLUSIVE"))
    payload = {"command": "verify", "ok": all_ok,
               "markings": [{"marking": list(r.marking.display_row()),
                             "method": r.method, "ok": r.ok}
                            for r in reports]}
    _emit(payload, rows, args.json)
    return 0 if all_ok else 2


def _cmd_oracle(args) -> int:
    pts = oracle.fixture_points(args.case)
    mults = _parse_mult(args.mult)
    dim = oracle.ideal_dim(pts, mults, args.deg)
    ker, cok = oracle.mu_rank_direct(pts, mults, args.deg)
    rows = [f"dim {dim}", f"ker {ker}", f"cok {cok}"]
    payload = {"command": "oracle", "case": args.case, "deg": args.deg,
               "dim": dim, "ker": ker, "cok": cok}
    status = 0
    if args.compare:
        cfg = PointConfiguration.from_distinct(FIXTURE_SPECS[args.case])
        z = resolution.FatPointScheme(neg=cfg.neg, multiplicities=mults)
        predicted = h0(z.class_for_degree(args.deg), cfg.neg)
        match = predicted == dim
        rows.append(f"pipeline dim {predicted} {'MATCH' if match else 'MISMATCH'}")
        payload["pipeline_dim"] = predicted
        payload["match"] = match
        if not match:
            status = 1
    _emit(payload, rows, args.json)
    return status


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one line, like every other invalid input."""

    def error(self, message):
        # argparse reads a value such as -1,2,3,0,0,0 as an option
        if message == "argument --mult: expected one argument":
            message += " (attach a value that starts with '-': --mult=-1,2,...)"
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fatpoints",
        description="Hilbert functions, graded Betti numbers and maximal-rank "
                    "verification for fat point ideals on six points")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", required=True, help="configuration JSON file")

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("neg", help="list the negative curves")
    add_config(p)
    add_json(p)
    p.set_defaults(func=_cmd_neg)

    p = sub.add_parser("nefgens", help="list the nef cone generators")
    add_config(p)
    p.add_argument("--raw", action="store_true", help="pre-paring list")
    add_json(p)
    p.set_defaults(func=_cmd_nefgens)

    p = sub.add_parser("orbit", help="reflection orbit of a class")
    p.add_argument("seed", help="7 integers, e.g. '3 -1 -1 -1 0 0 0'")
    add_json(p)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("catalog", help="the 20 nodal-root configurations")
    add_json(p)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("hilbert", help="Hilbert function of a fat point scheme")
    add_config(p)
    p.add_argument("--mult", required=True, help="m1,...,m6")
    p.add_argument("--deg", type=int, default=None, help="top degree to print")
    add_json(p)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("resolve", help="graded Betti numbers of the resolution")
    add_config(p)
    p.add_argument("--mult", required=True, help="m1,...,m6")
    add_json(p)
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("verify", help="maximal-rank verification sweep")
    add_config(p)
    p.add_argument("--all-e0", action="store_true", dest="all_e0",
                   help="verify under every marking")
    p.add_argument("--depth", type=int, default=6,
                   help="chain depth; the stabilization search reads levels up "
                        "to 6 only (j <= 3, k <= 2), but every level up to the "
                        "depth is certified member by member, so a large depth "
                        "can run for minutes")
    add_json(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="explicit-coordinate dimension check")
    p.add_argument("--case", required=True, choices=oracle.FIXTURE_CASES)
    p.add_argument("--mult", required=True, help="m1,...,m6")
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--compare", action="store_true",
                   help="also run the cone pipeline and diff")
    add_json(p)
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. the oracle's matrices at large multiplicities
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
