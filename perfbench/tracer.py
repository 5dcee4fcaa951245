"""Span tracing for frcage, installed from outside the package.

`install` wraps the public functions of frcage's gf, mols, cage, design,
verify and cli modules at every place a caller looks them up: each
attribute of each loaded frcage module that refers to the original
function is replaced.  So `frcage.design.build_scaled_cage` and
`frcage.cage.build_scaled_cage` both record, and no file of the
program needs a hook.  Each call records a span with its name, start,
end and parent span, plus a work count for the functions in COUNTERS.
Spans stay in memory until the command ends.

Run as a script, this is the benchmark's in-process harness.  It runs
one CLI command through `frcage.cli.main`, with or without tracing,
and writes the exit code, the duration of `main` and the spans as
JSON; the command's own stdout and stderr pass through:

    PYTHONPATH=src python3 perfbench/tracer.py --out r.json --trace -- construct --q 2 --n 3
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import statistics
import sys
import time

LAYERS = ("gf", "mols", "cage", "design", "verify", "cli")


def _pairs(blocks) -> int:
    return sum(len(b) * (len(b) - 1) // 2 for b in blocks)


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


# Work done by one call, read from its arguments and result after the
# span has ended: (args, kwargs, result) -> {counter: int}.
COUNTERS = {
    "mols.generate_mols": lambda a, kw, r: {
        "cells": sum(len(row) for sq in r.squares for row in sq.cells)
    },
    "cage.build_scaled_cage": lambda a, kw, r: {"edges": r.u * r.k},
    "design.to_json": lambda a, kw, r: {"json_bytes": len(r.encode())},
    "verify.girth_at_least_six": lambda a, kw, r: {"pairs": _pairs(_first(a, kw).x_neighbors)},
    "verify.check_steiner_exact": lambda a, kw, r: {"pairs": _pairs(_first(a, kw).blocks)},
    "verify.verify_design": lambda a, kw, r: {
        "pair_space": _first(a, kw).v * (_first(a, kw).v - 1) // 2
    },
}


class Tracer:
    """Records nested spans of wrapped calls, in call order."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["raised"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every public function of the traced layers wherever frcage
    refers to it."""
    import frcage.cli  # noqa: F401  (loads every layer)

    wrapped: dict[int, tuple] = {}
    for layer in LAYERS:
        mod = sys.modules[f"frcage.{layer}"]
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrapped[id(fn)] = (fn, tracer.wrap(f"{layer}.{attr}", fn))
    for name, mod in list(sys.modules.items()):
        if name != "frcage" and not name.startswith("frcage."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and value is hit[0]:
                setattr(mod, attr, hit[1])


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced pass
# ---------------------------------------------------------------------------

# metric -> span whose outermost calls it sums
SPAN_SECONDS = {
    "gf.field_new_s": "gf.field_new",
    "mols.generate_mols_s": "mols.generate_mols",
    "cage.build_scaled_cage_s": "cage.build_scaled_cage",
    "design.to_storage_design_s": "design.to_storage_design",
    "design.to_json_s": "design.to_json",
    "design.from_json_s": "design.from_json",
    "design.chunk_locations_s": "design.chunk_locations",
    "design.incidence_design_s": "design.incidence_design",
    "design.partial_fill_s": "design.partial_fill",
    "design.check_partial_invariants_s": "design.check_partial_invariants",
    "design.expand_s": "design.expand",
    "design.repair_plan_s": "design.repair_plan",
    "verify.verify_design_s": "verify.verify_design",
    "verify.girth_at_least_six_s": "verify.girth_at_least_six",
    "verify.check_steiner_exact_s": "verify.check_steiner_exact",
}
# metric -> span whose calls it counts
SPAN_CALLS = {
    "gf.field_new_calls": "gf.field_new",
    "cage.build_calls": "cage.build_scaled_cage",
    "design.chunk_locations_calls": "design.chunk_locations",
}
# The same calls counted per command, where the command makes them:
# the redundant field builds, cage builds and location indexes that a
# leaner pipeline would remove.
COMMAND_CALLS = {
    "construct": ("gf.field_new_calls", "cage.build_calls"),
    "expand": ("gf.field_new_calls", "cage.build_calls", "design.chunk_locations_calls"),
    "refuse": ("gf.field_new_calls", "cage.build_calls", "design.chunk_locations_calls"),
    "fill": ("design.chunk_locations_calls",),
    "verify": ("design.chunk_locations_calls",),
    "verify_partial": ("design.chunk_locations_calls",),
    "repair": ("design.chunk_locations_calls",),
}


def _outermost(spans: list[dict]):
    """Spans with no ancestor of the same name, so nested repeats are
    not counted twice."""
    for span in spans:
        p = span["parent"]
        while p is not None and spans[p]["name"] != span["name"]:
            p = spans[p]["parent"]
        if p is None:
            yield span


def _self_seconds(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time its child spans cover
    (children of one span run one after another)."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(commands: list[dict], startup_s: float) -> dict[str, float]:
    """Per-layer metrics for one traced pass.

    `commands` holds, per command run: its role, the traced harness
    result ("traced": exit, main_s, spans), the untraced harness
    main_s ("untraced_s") and the traced child's peak RSS ("rss_mib").
    Times and counts are summed over the pass; per-command metrics
    take the median over the commands of one role.
    """
    spans = [s for c in commands for s in c["traced"]["spans"]]
    out: dict[str, float] = {}
    top = [s for c in commands for s in _outermost(c["traced"]["spans"])]
    for metric, name in SPAN_SECONDS.items():
        out[metric] = sum(s["end"] - s["start"] for s in top if s["name"] == name)
    for metric, name in SPAN_CALLS.items():
        out[metric] = sum(1 for s in spans if s["name"] == name)

    def total(name: str, counter: str) -> int:
        return sum(s["counts"][counter] for s in spans if s["name"] == name and "counts" in s)

    out["mols.cells"] = total("mols.generate_mols", "cells")
    out["cage.edges"] = total("cage.build_scaled_cage", "edges")
    built = sum(s["end"] - s["start"] for s in top
                if s["name"] == "cage.build_scaled_cage" and "counts" in s)
    out["design.json_bytes"] = total("design.to_json", "json_bytes")
    pairs = total("verify.girth_at_least_six", "pairs") + total("verify.check_steiner_exact", "pairs")
    out["verify.pairs_examined"] = pairs
    # ratios are left out (and so reported missing) when nothing ran
    ratios = {
        "cage.edges_per_s": (out["cage.edges"], built),
        "verify.scan_redundancy": (pairs, total("verify.verify_design", "pair_space")),
        "verify.pairs_per_s": (
            pairs, out["verify.girth_at_least_six_s"] + out["verify.check_steiner_exact_s"]
        ),
    }
    out.update({name: a / b for name, (a, b) in ratios.items() if b})
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    for c in commands:
        layer_spans = c["traced"]["spans"]
        for s, own in zip(layer_spans, _self_seconds(layer_spans)):
            out[s["name"].split(".")[0] + ".self_s"] += own
    out["cli.startup_s"] = startup_s

    for role in dict.fromkeys(c["role"] for c in commands):
        runs = [c for c in commands if c["role"] == role]
        # cli.main is the outermost call, so it is each command's first span
        out[f"cli.{role}.main_s"] = statistics.median(
            c["traced"]["spans"][0]["end"] - c["traced"]["spans"][0]["start"] for c in runs
        )
        out[f"cli.{role}.self_s"] = statistics.median(
            _self_seconds(c["traced"]["spans"])[0] for c in runs
        )
        out[f"cli.{role}.rss_mib"] = max(c["rss_mib"] for c in runs)
        out[f"trace.{role}.overhead_s"] = statistics.median(
            c["traced"]["main_s"] for c in runs
        ) - statistics.median(c["untraced_s"] for c in runs)
        for metric in COMMAND_CALLS[role]:
            name = SPAN_CALLS[metric]
            calls = [sum(1 for s in c["traced"]["spans"] if s["name"] == name) for c in runs]
            out[f"cli.{role}.{metric.split('.')[1]}"] = statistics.median_low(calls)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one frcage CLI command in-process.")
    parser.add_argument("--out", required=True, help="where to write the JSON result")
    parser.add_argument("--trace", action="store_true", help="record spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import frcage.cli

    tracer = Tracer()
    if args.trace:
        install(tracer)
    start = time.perf_counter()
    code = frcage.cli.main(cli_args)
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    with open(args.out, "w") as fh:
        json.dump({"exit": code, "main_s": main_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
