"""Independent checks for constructed designs.

One cover walk decides every pair check: each block's bitmask is OR-ed
into a Python-int mask per element (u*k operations on v-bit ints, not
u*C(k,2) pair lookups), and the masks' bit counts tell whether a pair
repeats.  On at most 2,048 elements a block's bits come from a table
built once per walk, padded so any id outside [0, v) raises; above that
the walk shifts, which timed faster there.  Only on a defect does the
one witness walk run, in itertools.combinations order: its first
repeated pair names a 4-cycle or an overlap, and all its repeats name
the first bad Steiner pair.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain
from operator import mul

from .cage import BlockCollection, StorageDesign, _resolve_max_edges
from .errors import FrcageError, InvalidDegrees, InvalidDesign, InvalidParameter, ResourceLimit

__all__ = [
    "BoundPair",
    "VerificationReport",
    "moore_bounds",
    "girth_at_least_six",
    "check_steiner_exact",
    "verify_design",
]


class BoundPair(namedtuple("BoundPair", "v_min u_min")):
    """Minimum vertex counts for a girth-6 biregular bipartite graph;
    u_min is a fractions.Fraction."""

    __slots__ = ()

    @property
    def u_min_ceil(self) -> int:
        return math.ceil(self.u_min)


def moore_bounds(k: int, l: int) -> BoundPair:
    """v >= 1 + l(k-1) and u >= l + l(l-1)(k-1)/k, exact."""
    from fractions import Fraction  # here, so importing frcage skips fractions and decimal

    if type(k) is not int or type(l) is not int or k < 2 or l < k:
        raise InvalidDegrees(f"need integers l >= k >= 2, got k={k!r}, l={l!r}")
    return BoundPair(v_min=1 + l * (k - 1), u_min=l + Fraction(l * (l - 1) * (k - 1), k))


_BIT_TABLE_MAX = 2048  # the most elements on which _cover_walk reads bits from a table


def _cover_walk(blocks, num_elements: int):
    """(once, pairs) for ids in [0, num_elements) (others raise): pairs
    is the sum of C(|block|, 2), and once says no block repeats an
    element and no pair lies in two blocks.  masks[a] is the union of
    the blocks holding a, so popcount - 1 summed over the elements seen
    is twice the distinct pairs covered: 2*pairs exactly when once holds.

    The masks take about num_elements**2 / 16 bytes, so more than
    cap**(2/3) elements raise ResourceLimit before any mask is built,
    the cap read as _resolve_max_edges reads it.  That refuses no
    canonical table within the cap: there v = 1 + q*l and
    l*(l - q) >= 1, so v <= l**2 and v**3 <= (v*l)**2, the square of
    its edge count.  The default cap admits 10,000 elements, about
    6 MiB of masks.  Blocks with more members in all (edges) than the
    cap raise ResourceLimit too, before the walk, since its time grows
    with edges times elements.

    On at most _BIT_TABLE_MAX elements, bit a comes from a table built
    per walk: timed alone, it beat 1 << a by 11-18% on every design of
    that size, but lost on (61,1), (64,1) and larger.  The table takes
    about v**2/16 bytes more, 0.35 MiB at 2,048 elements.  It is padded
    with num_elements Nones, so any id outside [0, num_elements) raises
    (TypeError from a None, else IndexError), as 1 << a or masks[a] do
    on the shift path; no negative id reads a bit from the other end."""
    cap = _resolve_max_edges(None)
    if num_elements**3 > cap**2:
        raise ResourceLimit(f"pair masks on {num_elements} elements need v**3 <= cap**2, "
                            f"cap is {cap}")
    sizes = list(map(len, blocks))
    edges = sum(sizes)
    if edges > cap:
        raise ResourceLimit(f"pair check needs {edges} edges, cap is {cap}")
    masks = [0] * num_elements
    if num_elements <= _BIT_TABLE_MAX:
        bit = [1 << a for a in range(num_elements)] + [None] * num_elements
        for block in filter(None, blocks):  # a blank chunk's () holds no pair
            m = 0
            for a in block:
                m |= bit[a]
            for a in block:
                masks[a] |= m
    else:
        for block in filter(None, blocks):
            m = 0
            for a in block:
                m |= 1 << a
            for a in block:
                masks[a] |= m
    pairs = (sum(map(mul, sizes, sizes)) - edges) // 2
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
        for a in sorted(block, reverse=True):
            rows.append((a, later, twice))
            twice |= later & 1 << a  # a is already in later exactly when it repeats
            later |= 1 << a
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
    raises InvalidDesign, and a num_elements that is not an int (bool
    included) raises InvalidParameter before any block is read."""
    v = bc.num_elements
    if type(v) is not int:
        raise InvalidParameter(f"num_elements must be an integer, got {v!r}")
    try:
        # off the walk's padded table (0 <= v <= _BIT_TABLE_MAX), a C scan refuses ids >= v first
        if not 0 <= v <= _BIT_TABLE_MAX and max(chain.from_iterable(bc.blocks), default=-1) >= v:
            raise IndexError
        if _cover_walk(bc.blocks, v) == (True, v * (v - 1) // 2):
            return True, None
    except FrcageError:  # an FRC_MAX_EDGES that is no integer, not a bad id
        raise
    except (IndexError, TypeError, ValueError) as exc:
        raise InvalidDesign(f"a block holds an element that is not an id in [0, {v})") from exc
    # the cover walk went through every element, so none can raise here
    masks, dup = [0] * v, [0] * v
    for _, a, hits in _pair_walk(bc.blocks, masks):
        dup[a] |= hits
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
    raise AssertionError("cover walk and witness walk disagree")  # unreachable


class VerificationReport(namedtuple(
    "VerificationReport", "girth_ok degrees_ok steiner_exact bounds_tight witnesses"
)):
    __slots__ = ()

    @property
    def all_ok(self) -> bool:
        return self.girth_ok and self.degrees_ok and self.steiner_exact and self.bounds_tight

    def as_dict(self) -> dict:
        d = self._asdict()
        d["all_ok"] = self.all_ok
        d["witnesses"] = {k: list(v) for k, v in d.pop("witnesses").items()}
        return d


def verify_design(d: StorageDesign) -> VerificationReport:
    """Run degree, girth, Steiner-exactness and bound-tightness checks
    against the design's declared parameters.  Failures are reported,
    never raised; a partially filled table raises InvalidDesign.
    Creation gives every node l slots and every present chunk k holders,
    so the degree witness names the first chunk no node holds: ("x", c, 0)."""
    if not d.is_complete:
        raise InvalidDesign("cannot verify a partially filled design as a complete one")
    witnesses: dict = {}

    if () in d.x_neighbors:  # a C-level scan; a checked complete table's only degree defect
        witnesses["degree"] = ("x", d.x_neighbors.index(()), 0)

    girth_ok, w = girth_at_least_six(d)
    if w is not None:
        witnesses["four_cycle"] = w

    steiner_ok, w = check_steiner_exact(BlockCollection(d.v, d.x_neighbors))
    if w is not None:
        witnesses["pair"] = w

    k, l = d.k, d.l  # v = v_min and u = u_min of moore_bounds, the latter times k in integers
    bounds_tight = l >= k >= 2 and d.v == 1 + l * (k - 1) and k * (d.u - l) == l * (l - 1) * (k - 1)
    if not bounds_tight:
        witnesses["bounds"] = (d.v, d.u)

    degrees_ok = "degree" not in witnesses
    return VerificationReport(girth_ok, degrees_ok, steiner_ok, bounds_tight, witnesses)
