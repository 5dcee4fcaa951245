"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or validation
error; the script entry exits 130 on SIGINT and 143 on SIGTERM.  All
payload output is deterministic for fixed arguments.

`main` pauses the cyclic garbage collector while a command runs and
restores the caller's setting when it returns.  A command allocates
hundreds of thousands of lists and tuples (JSON rows, the location
index, pair-check masks) that cannot form a cycle; reference counting
frees them, and collections that rescan them only cost time (about a
third of loading the (2,8) design).  The cyclic garbage a command does
make is a fixed handful of objects whatever the design size;
tests/test_cli.py::test_commands_make_no_cyclic_garbage_that_grows
guards that.

The script entry (`python -m frcage.cli` and the installed `frcage`)
is `entry`, which ends the process with `os._exit`.  Interpreter
teardown only frees memory the kernel reclaims anyway, and it took
8.5-13.8 ms after each command against 0.8-2.2 ms for `entry`
(2-vCPU VM, Python 3.11.7).  Nothing is lost: each file a command
writes is closed before `main` returns, `main` flushes stdout inside
its `try` (so a closed stdout is an `IOError`, exit 2), and `entry`
runs the `atexit` callbacks and then flushes both streams.  `main`
itself returns its exit code, for callers in the same process.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import gc
import json
import os
import signal
import sys
from contextlib import suppress

from . import design as design_mod
from . import verify as verify_mod
from .cage import _check_rows, _decimal, _resolve_max_edges, build_scaled_cage, to_dot
from .errors import FrcageError, ResourceLimit
from .gf import field_new
from .mols import generate_mols

__all__ = ["main"]


def _write(text: str, path: str | None = None) -> None:
    """Write to stdout, or replace the file at `path` atomically: a
    failed write leaves any existing file as it was and no temporary
    file behind.  A symlink is followed; a device or pipe such as
    /dev/stdout cannot be replaced and is written in place."""
    if path is None:
        if sys.stdout is None:  # Python started with fd 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF), "<stdout>")
        sys.stdout.write(text)
        return
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            fh.write(text)
        return
    real = os.path.realpath(path)
    tmp = f"{real}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "x")
    except OSError as exc:  # name the path as given, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, real)
    except BaseException:
        os.remove(tmp)
        raise


def _read(path: str, max_edges: int | None = None) -> bytes:
    """The file's bytes, or ResourceLimit past 32 per edge of the cap plus
    64 KiB; read in parts, since read(n) would allocate all n first."""
    with open(path, "rb") as fh:  # opened first, so a missing file is still an IOError
        budget = 32 * _resolve_max_edges(max_edges) + 2**16
        parts, size = [], 0
        while size <= budget and (part := fh.read(2**22)):
            parts.append(part)
            size += len(part)
    if size > budget:
        raise ResourceLimit(f"input is over {budget} bytes, 32 per edge of the cap plus 65536")
    return b"".join(parts)  # from_json decodes: JSON text is UTF-8 whatever the locale


def _load(path: str) -> design_mod.StorageDesign:
    """The design in the file, checked as creation checks it, with no
    location index: the load of fill, repair and the CSV export."""
    sd = design_mod._parse(_read(path))
    _check_rows(sd)
    return sd


def _cmd_construct(args) -> int:
    sd = build_scaled_cage(args.q, args.n, max_edges=args.max_edges)
    _write(design_mod.to_json(sd), args.output)
    return 0


def _cmd_verify(args) -> int:
    sd = design_mod.from_json(_read(args.input))
    if sd.is_complete:
        report = verify_mod.verify_design(sd).as_dict()
        report["complete"] = True
        ok = report["all_ok"]
    else:
        ok, witnesses = design_mod.check_partial_invariants(sd)  # json writes tuples as arrays
        report = {"complete": False, "partial_invariants_ok": ok, "witnesses": witnesses}
    _write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if ok else 1


def _cmd_expand(args) -> int:
    old = design_mod._parse(_read(args.input, args.max_edges))  # the bytes are freed here
    new = design_mod.expand(old, max_edges=args.max_edges)
    _write(design_mod.to_json(new), args.output)
    return 0


def _cmd_fill(args) -> int:
    sd = _load(args.input)
    _write(design_mod.to_json(design_mod.partial_fill(sd, args.chunks)), args.output)
    return 0


def _cmd_repair(args) -> int:
    plan = design_mod.repair_plan(_load(args.input), args.node)
    _write(json.dumps(plan._asdict(), sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_bounds(args) -> int:
    bp = verify_mod.moore_bounds(args.k, args.l)
    try:  # str() refuses an int past Python's int-to-str digit limit
        text = json.dumps({"k": args.k, "l": args.l, "v_min": bp.v_min, "u_min": str(bp.u_min),
                           "u_min_ceil": bp.u_min_ceil}, sort_keys=True, indent=2)
    except ValueError:
        raise ResourceLimit("the bounds have more digits than Python prints") from None
    _write(text + "\n")
    return 0


def _cmd_mols(args) -> int:
    # q squares of q*q cells; any q that construct accepts has more edges than this
    cap = _resolve_max_edges(None)
    if args.q**3 > cap:
        raise ResourceLimit(f"mols for q={args.q} needs {_decimal(args.q**3)} cells, cap is {cap}")
    squares = generate_mols(field_new(args.q))
    if args.json:
        _write(json.dumps(squares, separators=(",", ":")) + "\n")
        return 0
    out = []
    for m, sq in enumerate(squares):
        out.append(f"L({m}):")
        out.extend(" ".join(str(s) for s in row) for row in sq)
        out.append("")
    _write("\n".join(out))
    return 0


def _cmd_export(args) -> int:
    if args.format == "csv":  # to_csv reads no x_neighbors
        _write(design_mod.to_csv(_load(args.input)), args.output)
    else:
        sd = design_mod.from_json(_read(args.input))
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
        code = args.func(args)
        if sys.stdout is not None:  # flushed here, so a write error is reported like any other
            sys.stdout.flush()
        return code
    except (FrcageError, OSError) as exc:
        _report("IOError" if isinstance(exc, OSError) else type(exc).__name__, exc)
        return 2
    finally:
        if gc_was_enabled:
            gc.enable()


def _report(label: str, detail) -> None:
    """One line on stderr, best effort: with fd 2 closed, the exit code alone tells."""
    with suppress(OSError):
        if sys.stderr is not None:  # None where fd 2 was closed at start-up
            print(f"{label}: {detail}", file=sys.stderr)


def _terminate(signum, frame):
    raise KeyboardInterrupt(signum)


def entry() -> None:
    """Run `main` and end the process without teardown (module docstring).
    A usage error or --help still leaves through argparse's SystemExit.
    SIGINT and SIGTERM raise KeyboardInterrupt inside `main`, so the
    file being written is removed (_write); each is reported on one
    stderr line and exits 128 plus its number, 130 and 143."""
    signal.signal(signal.SIGTERM, _terminate)
    try:
        code = main()
    except KeyboardInterrupt as exc:  # SIGINT's own handler raises it with no number
        signum = signal.Signals(exc.args[0] if exc.args else signal.SIGINT)
        _report("Interrupted", signum.name)
        code = 128 + signum
    atexit._run_exitfuncs()
    for stream in sys.stdout, sys.stderr:  # after the hooks, as teardown flushes them
        try:
            if stream is not None:  # None where the fd was closed at start-up
                stream.flush()
        except OSError:  # a closed stdout: main has already reported it
            pass
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    entry()
