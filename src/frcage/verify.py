"""Independent checks for constructed designs.

Every pair check runs on one bitset kernel: each element a keeps a
Python-int mask of the elements b > a it has shared a block with, and a
block is walked once, largest element first, so u blocks of k elements
cost u*k operations on v-bit ints instead of u*C(k,2) pair lookups.
Witnesses are reported for the first failure in a deterministic scan
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .cage import BipartiteDesign, BlockCollection
from .errors import InvalidDegrees

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
    if k < 2 or l < k:
        raise InvalidDegrees(f"need l >= k >= 2, got k={k}, l={l}")
    return BoundPair(v_min=1 + l * (k - 1), u_min=l + Fraction(l * (l - 1) * (k - 1), k))


def _pair_scan(blocks, num_elements: int):
    """The pair kernel: one pass over `blocks`, elements in
    [0, num_elements).

    Returns (masks, dup, first).  masks[a] has bit b for every b >= a
    that shares a block with a (b == a only where a block repeats a);
    dup[a] has bit b for every b > a whose pair lies in two blocks, or
    twice in one (its bit a is not meaningful).  first is the index of
    the first block holding a pair already seen, in an earlier block or
    earlier in itself, else None.
    """
    masks = [0] * num_elements
    dup = [0] * num_elements
    first = None
    for c, block in enumerate(blocks):
        above = 0  # elements of this block already walked, all >= a
        for a in sorted(block, reverse=True):
            m = masks[a]
            if m & above:
                dup[a] |= m & above
                if first is None:
                    first = c
            masks[a] = m | above
            above |= 1 << a
        if above.bit_count() != len(block):
            # A repeated element r repeats its pair with every other
            # element; the walk caught (r, b) for b > r, this adds (a, r)
            # for a < r.  Two copies of r alone repeat nothing.
            if first is None and len(block) > 2:
                first = c
            s = sorted(block)
            twice = 0
            for x, y in zip(s, s[1:]):
                if x == y:
                    twice |= 1 << x
            for a in s:
                dup[a] |= twice >> (a + 1) << (a + 1)
    return masks, dup, first


def _first_repeat(blocks, num_elements: int):
    """(c0, a, c, b) for the first pair seen twice, scanning the blocks
    in order and each sorted block's pairs a <= b in combinations
    order: c is the block where (a, b) repeats and c0 <= c the first
    block holding it.  None when no pair repeats."""
    c = _pair_scan(blocks, num_elements)[2]
    if c is None:
        return None
    # Failure path only: replay blocks 0..c restricted to block c's
    # elements, with one partner bitset per element.
    seen = dict.fromkeys(blocks[c], 0)
    for j, block in enumerate(blocks[:c + 1]):
        kept = sorted(e for e in block if e in seen)
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                if seen[a] >> b & 1:
                    c0 = next(
                        h for h, other in enumerate(blocks)
                        if (other.count(a) > 1 if a == b else a in other and b in other)
                    )
                    return c0, a, j, b
                seen[a] |= 1 << b
    raise AssertionError("pair kernel and replay disagree")  # unreachable


def girth_at_least_six(d: BipartiteDesign):
    """(True, None) when no two X vertices share two Y neighbors;
    otherwise (False, (x, y, x2, y2)) naming one 4-cycle.

    A Y pair held by two X vertices is a 4-cycle, so this runs the pair
    kernel over the X vertices' neighbor sets: x2 is the first vertex
    whose pair (y, y2) was seen before, at x.
    """
    w = _first_repeat(d.x_neighbors, d.v)
    return w is None, w


def check_steiner_exact(bc: BlockCollection):
    """(True, None) when every unordered element pair lies in exactly
    one block; otherwise (False, (a, b, count)) for the first bad pair
    in sorted order."""
    v = bc.num_elements
    masks, dup, _ = _pair_scan(bc.blocks, v)
    full = (1 << v) - 1
    for a in range(v):
        bad = (dup[a] | ~masks[a]) & (full >> (a + 1) << (a + 1))
        if bad:
            b = (bad & -bad).bit_length() - 1
            return False, (a, b, sum(blk.count(a) * blk.count(b) for blk in bc.blocks))
    # Every pair of distinct elements is covered once; a block that
    # repeats an element still makes the collection no Steiner system.
    for a in range(v):
        if masks[a] >> a & 1:
            return False, (a, a, sum(blk.count(a) * (blk.count(a) - 1) // 2 for blk in bc.blocks))
    return True, None


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


def verify_design(d: BipartiteDesign) -> VerificationReport:
    """Run degree, girth, Steiner-exactness and bound-tightness checks
    against the design's declared parameters.  Failures are reported,
    never raised."""
    witnesses: dict = {}

    degrees_ok = len(d.x_neighbors) == d.u
    if degrees_ok:
        for c, ys in enumerate(d.x_neighbors):
            if len(ys) != d.k or len(set(ys)) != d.k:
                degrees_ok = False
                witnesses["degree"] = ("x", c, len(set(ys)))
                break
    if degrees_ok:
        y_deg = [0] * d.v
        for ys in d.x_neighbors:
            for g in ys:
                y_deg[g] += 1
        for g, deg in enumerate(y_deg):
            if deg != d.l:
                degrees_ok = False
                witnesses["degree"] = ("y", g, deg)
                break

    girth_ok, w = girth_at_least_six(d)
    if w is not None:
        witnesses["four_cycle"] = w

    steiner_ok, w = check_steiner_exact(BlockCollection(d.v, d.k, d.x_neighbors))
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
