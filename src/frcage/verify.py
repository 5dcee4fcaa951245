"""Independent checks for constructed designs.

One cover walk decides every pair check: each block's bitmask is OR-ed
into a Python-int mask per element (u*k operations on v-bit ints, not
u*C(k,2) pair lookups), and the masks' bit counts tell whether a pair
repeats.  Only on a defect does the one witness walk run, in
itertools.combinations order: its first repeated pair names a 4-cycle
or an overlap, and all its repeats name the first bad Steiner pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import mul

from .cage import BlockCollection, StorageDesign
from .errors import InvalidDegrees, InvalidDesign

__all__ = [
    "BoundPair",
    "VerificationReport",
    "moore_bounds",
    "girth_at_least_six",
    "check_steiner_exact",
    "verify_design",
]


@dataclass(frozen=True)
class BoundPair:
    """Minimum vertex counts for a girth-6 biregular bipartite graph."""

    v_min: int
    u_min: Fraction

    @property
    def u_min_ceil(self) -> int:
        return math.ceil(self.u_min)


def moore_bounds(k: int, l: int) -> BoundPair:
    """v >= 1 + l(k-1) and u >= l + l(l-1)(k-1)/k, exact."""
    if type(k) is not int or type(l) is not int or k < 2 or l < k:
        raise InvalidDegrees(f"need integers l >= k >= 2, got k={k!r}, l={l!r}")
    return BoundPair(v_min=1 + l * (k - 1), u_min=l + Fraction(l * (l - 1) * (k - 1), k))


def _cover_walk(blocks, num_elements: int):
    """(once, pairs) for ids in [0, num_elements) (others raise): pairs
    is the sum of C(|block|, 2), and once says no block repeats an
    element and no pair lies in two blocks.  masks[a] is the union of
    the blocks holding a, so popcount - 1 summed over the elements seen
    is twice the distinct pairs covered: 2*pairs exactly when once holds."""
    masks = [0] * num_elements
    for block in filter(None, blocks):  # a blank chunk's () holds no pair
        m = 0
        for a in block:
            m |= 1 << a
        for a in block:
            masks[a] |= m
    sizes = list(map(len, blocks))
    pairs = (sum(map(mul, sizes, sizes)) - sum(sizes)) // 2
    partners = sum(map(int.bit_count, masks)) - (num_elements - masks.count(0))
    return partners == 2 * pairs, pairs


def _pair_walk(blocks, seen):
    """The witness walk, run only once the cover walk found a defect.

    Walks each sorted block's pairs (a, b), a <= b, in combinations
    order, one row per element a.  For each row of block c whose pairs
    were met before, yields (c, a, hits): hits has bit b for every such
    pair, met in an earlier row (set in seen[a]) or met twice in this
    row (b appears twice after a).  Each row then ORs its partners into
    seen[a], so seen[a] ends with bit b for every b >= a sharing a block
    with a (b == a only where a block repeats a).
    """
    for c, block in enumerate(blocks):
        rows = []
        later = twice = 0  # elements after a in sorted order, and those among them seen twice
        prev = None
        for a in sorted(block, reverse=True):
            rows.append((a, later, twice))
            if a == prev:
                twice |= 1 << a
            later |= 1 << a
            prev = a
        while rows:  # ascending; pop, so each suffix mask is held once, in seen
            a, later, twice = rows.pop()
            hits = seen[a] & later | twice
            if hits:
                yield c, a, hits
            seen[a] |= later


def _first_repeat(blocks, num_elements: int):
    """(c0, a, c, b) for the first pair seen twice, scanning the blocks
    in order and each sorted block's pairs a <= b in combinations
    order: c is the block where (a, b) repeats and c0 <= c the first
    block holding it.  None when no pair repeats."""
    if _cover_walk(blocks, num_elements)[0]:
        return None
    for c, a, hits in _pair_walk(blocks, [0] * num_elements):
        b = (hits & -hits).bit_length() - 1
        c0 = next(
            h for h, other in enumerate(blocks)
            if (other.count(a) > 1 if a == b else a in other and b in other)
        )
        return c0, a, c, b
    return None


def girth_at_least_six(d: StorageDesign):
    """(True, None) when no two X vertices (chunks) share two Y
    neighbors (nodes); otherwise (False, (x, y, x2, y2)) naming one
    4-cycle.

    A Y pair held by two X vertices is a 4-cycle, so this runs the cover
    walk over x_neighbors, and on a defect the witness walk: x2 is the
    first vertex whose pair (y, y2) was seen before, at x.
    """
    w = _first_repeat(d.x_neighbors, d.v)
    return w is None, w


def check_steiner_exact(bc: BlockCollection):
    """(True, None) when every unordered element pair lies in exactly
    one block; otherwise (False, (a, b, count)) for the first bad pair
    in sorted order.  An element that is not an id in [0, num_elements)
    raises InvalidDesign.  Memory follows the largest id, not num_elements."""
    v = bc.num_elements
    try:
        top = max(chain.from_iterable(bc.blocks), default=-1)
        if top >= v:  # before 1 << id, in C
            raise IndexError
        # When n < v, element n - 1 lies in no block, so pair (0, n - 1)
        # is bad and the first bad pair lies below n.
        n = min(v, max(top + 2, 2))
        if _cover_walk(bc.blocks, n) == (True, v * (v - 1) // 2):
            return True, None
    except (IndexError, TypeError, ValueError) as exc:
        raise InvalidDesign(f"a block holds an element that is not an id in [0, {v})") from exc
    # the cover walk went through every element, so none can raise here
    masks, dup = [0] * n, [0] * n
    for _, a, hits in _pair_walk(bc.blocks, masks):
        dup[a] |= hits
    full = (1 << n) - 1
    for a in range(n):
        bad = (dup[a] | ~masks[a]) & (full >> (a + 1) << (a + 1))
        if bad:
            b = (bad & -bad).bit_length() - 1
            return False, (a, b, sum(blk.count(a) * blk.count(b) for blk in bc.blocks))
    # Every pair of distinct elements is covered once; a block that
    # repeats an element still makes the collection no Steiner system.
    for a in range(n):
        if masks[a] >> a & 1:
            return False, (a, a, sum(blk.count(a) * (blk.count(a) - 1) // 2 for blk in bc.blocks))
    raise AssertionError("cover walk and witness walk disagree")  # unreachable


@dataclass(frozen=True)
class VerificationReport:
    girth_ok: bool
    degrees_ok: bool
    steiner_exact: bool
    bounds_tight: bool
    witnesses: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return self.girth_ok and self.degrees_ok and self.steiner_exact and self.bounds_tight

    def as_dict(self) -> dict:
        return {
            "girth_ok": self.girth_ok,
            "degrees_ok": self.degrees_ok,
            "steiner_exact": self.steiner_exact,
            "bounds_tight": self.bounds_tight,
            "all_ok": self.all_ok,
            "witnesses": {k: list(v) for k, v in self.witnesses.items()},
        }


def verify_design(d: StorageDesign) -> VerificationReport:
    """Run degree, girth, Steiner-exactness and bound-tightness checks
    against the design's declared parameters.  Failures are reported,
    never raised; a partially filled table raises InvalidDesign."""
    if not d.is_complete:
        raise InvalidDesign("cannot verify a partially filled design as a complete one")
    witnesses: dict = {}

    degrees_ok = True
    # holders repeat a node exactly where its row repeats the chunk; the loop finds the witness
    if set(map(len, d.x_neighbors)) != {d.k} or any(len(set(r)) != len(r) for r in d.nodes):
        for c, ys in enumerate(d.x_neighbors):
            if len(ys) != d.k or len(set(ys)) != d.k:
                degrees_ok = False
                witnesses["degree"] = ("x", c, len(set(ys)))
                break
    if degrees_ok:
        # a node's degree is its row length, since every slot is filled
        g = next((g for g, deg in enumerate(map(len, d.nodes)) if deg != d.l), None)
        if g is not None:
            degrees_ok = False
            witnesses["degree"] = ("y", g, len(d.nodes[g]))

    girth_ok, w = girth_at_least_six(d)
    if w is not None:
        witnesses["four_cycle"] = w

    steiner_ok, w = check_steiner_exact(BlockCollection(d.v, d.x_neighbors))
    if w is not None:
        witnesses["pair"] = w

    bounds = moore_bounds(d.k, d.l) if d.l >= d.k >= 2 else None
    bounds_tight = (
        bounds is not None and d.v == bounds.v_min and Fraction(d.u) == bounds.u_min
    )
    if not bounds_tight:
        witnesses["bounds"] = (d.v, d.u)

    return VerificationReport(
        girth_ok=girth_ok,
        degrees_ok=degrees_ok,
        steiner_exact=steiner_ok,
        bounds_tight=bounds_tight,
        witnesses=witnesses,
    )
