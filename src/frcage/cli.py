"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or validation
error.  All payload output is deterministic for fixed arguments.

`main` pauses the cyclic garbage collector while a command runs and
restores the caller's setting when it returns.  A command allocates
hundreds of thousands of lists and tuples (JSON rows, the location
index, pair-check masks) that cannot form a cycle; reference counting
frees them, and collections that rescan them only cost time (about a
third of loading the (2,8) design).  The cyclic garbage a command does
make is a fixed handful of objects whatever the design size;
tests/test_cli.py::test_commands_make_no_cyclic_garbage_that_grows
guards that.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from . import design as design_mod
from . import verify as verify_mod
from .cage import _decimal, _resolve_max_edges, build_scaled_cage, to_dot
from .errors import FrcageError, ResourceLimit
from .gf import field_new
from .mols import generate_mols

__all__ = ["main"]


def _write(text: str, path: str | None) -> None:
    """Write to stdout, or replace the file at `path` atomically: a
    failed write leaves any existing file as it was and no temporary
    file behind.  A symlink is followed; a device or pipe such as
    /dev/stdout cannot be replaced and is written in place."""
    if path is None:
        sys.stdout.write(text)
        return
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            fh.write(text)
        return
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _load(path: str) -> design_mod.StorageDesign:
    with open(path, "rb") as fh:  # from_json decodes: JSON text is UTF-8 whatever the locale
        return design_mod.from_json(fh.read())


def _cmd_construct(args) -> int:
    sd = build_scaled_cage(args.q, args.n, max_edges=args.max_edges)
    _write(design_mod.to_json(sd), args.output)
    return 0


def _cmd_verify(args) -> int:
    sd = _load(args.input)
    if sd.is_complete:
        report = verify_mod.verify_design(sd).as_dict()
        report["complete"] = True
        ok = report["all_ok"]
    else:
        ok, detail = design_mod.check_partial_invariants(sd)
        report = {
            "complete": False,
            "partial_invariants_ok": ok,
            "witnesses": {k: list(v) for k, v in detail.items()},
        }
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if ok else 1


def _cmd_expand(args) -> int:
    with open(args.input, "rb") as fh:
        new = design_mod.expand(design_mod._parse(fh.read()), max_edges=args.max_edges)
    _write(design_mod.to_json(new), args.output)
    return 0


def _cmd_fill(args) -> int:
    _write(design_mod.to_json(design_mod.partial_fill(_load(args.input), args.chunks)), args.output)
    return 0


def _cmd_repair(args) -> int:
    sd = _load(args.input)
    plan = design_mod.repair_plan(sd, args.node)
    payload = {
        "failed_node": plan.failed_node,
        "assignments": [[c, h] for c, h in plan.assignments],
    }
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_bounds(args) -> int:
    bp = verify_mod.moore_bounds(args.k, args.l)
    try:  # str() refuses an int past Python's int-to-str digit limit
        text = json.dumps({"k": args.k, "l": args.l, "v_min": bp.v_min, "u_min": str(bp.u_min),
                           "u_min_ceil": bp.u_min_ceil}, sort_keys=True, indent=2)
    except ValueError:
        raise ResourceLimit("the bounds have more digits than Python prints") from None
    sys.stdout.write(text + "\n")
    return 0


def _cmd_mols(args) -> int:
    # q squares of q*q cells; any q that construct accepts has more edges than this
    cap = _resolve_max_edges(None)
    if args.q**3 > cap:
        raise ResourceLimit(f"mols for q={args.q} needs {_decimal(args.q**3)} cells, cap is {cap}")
    squares = generate_mols(field_new(args.q))
    if args.json:
        sys.stdout.write(json.dumps(squares, separators=(",", ":")) + "\n")
        return 0
    out = []
    for m, sq in enumerate(squares):
        out.append(f"L({m}):")
        out.extend(" ".join(str(s) for s in row) for row in sq)
        out.append("")
    sys.stdout.write("\n".join(out))
    return 0


def _cmd_export(args) -> int:
    sd = _load(args.input)
    if args.format == "csv":
        _write(design_mod.to_csv(sd), args.output)
    else:
        _write(to_dot(sd, name=f"design_q{sd.q}_n{sd.n}"), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frcage",
        description="Construct, verify, grow and export replica placement designs "
        "with single-chunk-overlap guarantees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the (q, n) design and emit its JSON")
    p.add_argument("--q", type=int, required=True, help="prime or prime power")
    p.add_argument("--n", type=int, required=True, help="iteration (node size p_n(q))")
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.add_argument("--max-edges", type=int, default=None, help="override the edge cap")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="run the full check suite on a design file")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("expand", help="grow a (q, n) design file to (q, n+1)")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.add_argument("--max-edges", type=int, default=None)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("fill", help="blank chunk ids >= U for staged deployment")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--chunks", type=int, required=True, metavar="U")
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.set_defaults(func=_cmd_fill)

    p = sub.add_parser("repair", help="plan single-node repair: one helper per chunk")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--node", type=int, required=True)
    p.set_defaults(func=_cmd_repair)

    p = sub.add_parser("bounds", help="minimum node/chunk counts for degrees (k, l)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("mols", help="print the q orthogonal squares for GF(q)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mols)

    p = sub.add_parser("export", help="render a design file as DOT or CSV")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--format", choices=["dot", "csv"], required=True)
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except FrcageError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"IOError: {exc}", file=sys.stderr)
        return 2
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
