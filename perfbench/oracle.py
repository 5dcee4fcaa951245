"""The benchmark's correctness checks on frcage CLI outputs.

Each check returns None when the output is right and otherwise a short
description of what is wrong.  They read only JSON text, bytes and exit
codes, and never import frcage, so a defect in the library cannot hide
behind the same defect in its checker.
"""

from __future__ import annotations

import hashlib
import json


def check_digest(data: bytes, expected: str) -> str | None:
    """A design file must match the pinned sha256 of its construction."""
    got = hashlib.sha256(data).hexdigest()
    return None if got == expected else f"sha256 {got[:12]}... != pinned {expected[:12]}..."


def holders_index(rows: list[list]) -> dict[int, set[int]]:
    """Chunk id -> the nodes whose slots hold it."""
    holders: dict[int, set[int]] = {}
    for node, row in enumerate(rows):
        for chunk in row:
            if chunk is not None:
                holders.setdefault(chunk, set()).add(node)
    return holders


def check_fill(reference: dict, filled_text: str, u: int) -> str | None:
    """`fill --chunks u` must keep the header and blank exactly the
    slots holding chunk ids >= u."""
    try:
        filled = json.loads(filled_text)
        header, rows = filled["header"], filled["nodes"]
    except (ValueError, TypeError, KeyError) as exc:
        return f"unreadable fill output: {exc!r}"
    if header != reference["header"]:
        return "fill changed the header"
    if len(rows) != len(reference["nodes"]):
        return f"fill output has {len(rows)} nodes, expected {len(reference['nodes'])}"
    for node, (full, got) in enumerate(zip(reference["nodes"], rows)):
        if got != [c if c < u else None for c in full]:
            return f"node {node}: slots differ from the design blanked at U={u}"
    return None


def check_verify(code: int, stdout: str, complete: bool) -> str | None:
    """`verify` must exit 0 and report all_ok on a complete design, or
    partial_invariants_ok on a partially filled one."""
    if code != 0:
        return f"verify exited {code}"
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return f"unreadable verify report: {exc!r}"
    key = "all_ok" if complete else "partial_invariants_ok"
    if not isinstance(report, dict) or report.get("complete") is not complete or report.get(key) is not True:
        return f"verify report lacks complete={complete} and {key}=true"
    return None


def check_repair(rows: list[list], holders: dict[int, set[int]], node: int,
                 code: int, stdout: str) -> str | None:
    """A repair plan needs one assignment per present slot of the
    failed node, and each helper must hold the chunk, not be the failed
    node, and differ from the other helpers."""
    if code != 0:
        return f"repair exited {code}"
    try:
        plan = json.loads(stdout)
        failed = plan["failed_node"]
        pairs = [(int(c), int(h)) for c, h in plan["assignments"]]
    except (ValueError, TypeError, KeyError) as exc:
        return f"unreadable repair plan: {exc!r}"
    if failed != node:
        return f"plan is for node {failed}, asked for {node}"
    present = sorted(c for c in rows[node] if c is not None)
    if sorted(c for c, _ in pairs) != present:
        return f"node {node}: assignments do not match its present slots one to one"
    for chunk, helper in pairs:
        if helper == node:
            return f"node {node}: chunk {chunk} is fetched from the failed node"
        if helper not in holders.get(chunk, ()):
            return f"node {node}: helper {helper} does not hold chunk {chunk}"
    helpers = [h for _, h in pairs]
    if len(set(helpers)) != len(helpers):
        return f"node {node}: a helper is asked for more than one chunk"
    return None


def check_refusal(code: int, stderr: str, output_written: bool) -> str | None:
    """An over-cap `expand` must exit 2 naming ResourceLimit and leave
    no output file."""
    if code != 2:
        return f"over-cap expand exited {code}, expected 2"
    if "ResourceLimit" not in stderr:
        return "over-cap expand did not report ResourceLimit"
    if output_written:
        return "over-cap expand wrote an output file"
    return None


def check_bounds(code: int, stdout: str, k: int, l: int) -> str | None:
    """`bounds --k k --l l` must exit 0 and give v_min = 1 + l(k-1)."""
    if code != 0:
        return f"bounds exited {code}"
    try:
        v_min = json.loads(stdout)["v_min"]
    except (ValueError, TypeError, KeyError) as exc:
        return f"unreadable bounds output: {exc!r}"
    return None if v_min == 1 + l * (k - 1) else f"bounds gave v_min={v_min}"
