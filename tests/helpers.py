"""Independent oracles used by the tests.

Everything here recomputes properties from first principles, without
touching the library's own scan routines, so a library bug cannot hide
behind a matching bug in its checker.
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations

from frcage import FieldMeta, StorageDesign, field_new, repair_plan


def replace(record, **changes):
    """A copy of a frcage record (a namedtuple) with some fields changed."""
    return record._replace(**changes)


# Every place of a table that must hold exactly one type: the header
# fields, the FieldMeta and its members, the first modulus entry, the
# node tuple and its first row.
TYPED_PLACES = ("q", "n", "k", "l", "v", "u", "version", "construction", "field_meta",
                "p", "m", "modulus", "modulus[0]", "primitive", "nodes", "row")


def value_at(sd: StorageDesign, place: str):
    """What sd holds at one of TYPED_PLACES."""
    fm = sd.field_meta
    return {**sd._asdict(), **fm._asdict(), "modulus[0]": fm.modulus[0], "row": sd.nodes[0]}[place]


def with_value(sd: StorageDesign, place: str, value) -> dict:
    """sd's fields as a dict, with `value` at one of TYPED_PLACES."""
    fields, fm = sd._asdict(), sd.field_meta
    if place in FieldMeta._fields:
        fields["field_meta"] = fm._replace(**{place: value})
    elif place == "modulus[0]":
        fields["field_meta"] = fm._replace(modulus=(value, *fm.modulus[1:]))
    elif place == "row":
        fields["nodes"] = (value, *sd.nodes[1:])
    else:
        fields[place] = value
    return fields


def naive_no_four_cycles(blocks) -> bool:
    """Literal enumeration over all (x, y, x', y') quadruples, where
    blocks[x] lists X vertex x's Y neighbours.  Quadratic in both
    sides; keep to |X| <= 40."""
    nb = [set(ys) for ys in blocks]
    for x1 in range(len(nb)):
        for x2 in range(x1 + 1, len(nb)):
            for y1 in nb[x1]:
                for y2 in nb[x1]:
                    if y1 < y2 and y1 in nb[x2] and y2 in nb[x2]:
                        return False
    return True


def pair_cover_counts(blocks) -> Counter:
    """How often each unordered element pair occurs across the blocks."""
    counts: Counter = Counter()
    for block in blocks:
        for pair in combinations(sorted(block), 2):
            counts[pair] += 1
    return counts


def is_steiner_exact(blocks, num_elements: int) -> bool:
    counts = pair_cover_counts(blocks)
    want = num_elements * (num_elements - 1) // 2
    return len(counts) == want and set(counts.values()) == {1}


def incidence_from_blocks(blocks, num_elements) -> StorageDesign:
    """Hand-built design with one chunk per block: node e holds chunk c
    once for each time block c lists e."""
    rows = [[] for _ in range(num_elements)]
    for c, block in enumerate(blocks):
        for e in block:
            rows[e].append(c)
    return storage_from_rows(rows, num_chunks=len(blocks), k=len(blocks[0]))


def b_h_blocks(d: StorageDesign, h: int) -> list[tuple[int, ...]]:
    """Blocks of the subgraph that driving block h induces in a
    canonical (q, n >= 2) design, for h below the (q, n-1) chunk count:
    the chunks whose holders all lie in {root} + the layer-2 children of
    block h's nodes.  Those are the block's layer-1 chunks and its
    layer-3 group.  The root stays node 0 and child m of the block's
    j-th node becomes 1 + j*q + m, so block 0 = {0, ..., q} is relabelled
    to itself."""
    q, holders = d.q, holders_from_rows(d.nodes, d.u)
    label = {0: 0}
    for j, g in enumerate(holders[h]):
        for m in range(q):
            label[1 + g * q + m] = 1 + j * q + m
    return [tuple(sorted(map(label.get, ys))) for ys in holders if label.keys() >= set(ys)]


def holders_from_rows(rows, num_chunks) -> tuple[tuple[int, ...], ...]:
    """For each chunk id, the ids of the rows containing it, found by
    testing every row for every chunk."""
    sets = [set(row) for row in rows]
    return tuple(
        tuple(g for g, row in enumerate(sets) if c in row) for c in range(num_chunks)
    )


def ring_successor(holders, failed: int) -> int:
    """The holder after `failed` in ascending order, wrapping around to
    the first."""
    ring = sorted(holders)
    return ring[(ring.index(failed) + 1) % len(ring)]


def helper_loads(sd: StorageDesign) -> list[int]:
    """Requests each node serves, summed over the repair plans of all
    v single-node failures."""
    loads = [0] * sd.v
    for failed in range(sd.v):
        for _, helper in repair_plan(sd, failed).assignments:
            loads[helper] += 1
    return loads


def veblen_young_violation(lines, num_points: int):
    """First (p, a, b, c, d) breaking the Veblen-Young axiom, else None.

    Points are nodes and lines are chunks (their holder sets).  For two
    lines through p, a != b on the first and c != d on the second, none
    of them p, the lines through a, c and through b, d must exist and
    meet.  By the Veblen-Young theorem, a Steiner-exact design with
    lines of at least 3 points that passes is a projective space, so
    PG(d, q) when it is not a plane; in a projective plane any two
    lines meet, so a plane passes at once."""
    line_of = {}
    through = [[] for _ in range(num_points)]
    for i, line in enumerate(lines):
        for pair in combinations(sorted(line), 2):
            line_of[pair] = i
        for x in line:
            through[x].append(i)
    sets = [set(line) for line in lines]

    def join(x, y):
        return line_of.get((min(x, y), max(x, y)))

    for p in range(num_points):
        for i, j in combinations(through[p], 2):
            first = [x for x in lines[i] if x != p]
            second = [x for x in lines[j] if x != p]
            for a, b in combinations(first, 2):
                for c, d in permutations(second, 2):
                    ac, bd = join(a, c), join(b, d)
                    if ac is None or bd is None or not sets[ac] & sets[bd]:
                        return p, a, b, c, d
    return None


def bose_sts15():
    """Bose's Steiner triple system of order 15 over Z5 x Z3, with the
    idempotent commutative quasigroup x o y = 3(x + y) mod 5.  It is an
    S(2, 3, 15) but not PG(3, 2).  Point (x, i) is numbered 3x + i."""
    def pt(x, i):
        return 3 * (x % 5) + i % 3

    triples = [(pt(x, 0), pt(x, 1), pt(x, 2)) for x in range(5)]
    triples += [
        (pt(x, i), pt(y, i), pt(3 * (x + y), i + 1))
        for i in range(3) for x, y in combinations(range(5), 2)
    ]
    return [tuple(sorted(t)) for t in triples]


def check_latin(cells) -> bool:
    """True when every row and every column of a q x q grid is a
    permutation of 0..q-1."""
    full = set(range(len(cells)))
    return all(set(row) == full for row in cells) and all(
        set(col) == full for col in zip(*cells)
    )


def check_orthogonal(a, b) -> bool:
    """True when the cellwise pairs of two q x q grids are all q**2
    symbol pairs.  Grids of different orders raise ValueError."""
    if len(a) != len(b):
        raise ValueError(f"orders differ: {len(a)} vs {len(b)}")
    q = len(a)
    pairs = {(a[i][j], b[i][j]) for i in range(q) for j in range(q)}
    return len(pairs) == q * q


def check_zeroth_column_only_overlap(grids) -> bool:
    """True when any two distinct q x q grids agree exactly on column 0."""
    for a, b in combinations(grids, 2):
        for ra, rb in zip(a, b):
            if [x == y for x, y in zip(ra, rb)] != [True] + [False] * (len(ra) - 1):
                return False
    return True


def from_coeffs(cs, p: int) -> int:
    """The field element with polynomial coordinates cs over GF(p),
    low degree first: sum(c_i * p**i)."""
    return sum(c * p**i for i, c in enumerate(cs))


def storage_from_rows(rows, num_chunks, k, q=3, n=1) -> StorageDesign:
    """Hand-built storage table; l is the longest row."""
    return StorageDesign(
        q=q,
        n=n,
        k=k,
        l=max(map(len, rows)),
        v=len(rows),
        u=num_chunks,
        nodes=tuple(tuple(r) for r in rows),
        field_meta=FieldMeta.of(field_new(q)),
        construction="hand-built",
    )


def poly_mod(num, den, p: int) -> list[int]:
    """Remainder of num modulo the monic den over GF(p) by long
    division; coefficient lists run low degree first."""
    num = [c % p for c in num]
    while len(num) >= len(den):
        c = num[-1]
        if c:
            off = len(num) - len(den)
            for t, dc in enumerate(den):
                num[off + t] = (num[off + t] - c * dc) % p
        num.pop()
    return num


def has_monic_factor(poly, p: int) -> bool:
    """True when some monic polynomial of degree 1..deg/2 divides poly."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for enc in range(p**d):
            den = [(enc // p**i) % p for i in range(d)] + [1]
            if not any(poly_mod(poly, den, p)):
                return True
    return False


class FieldOracle:
    """GF(p**m) modulo a given monic polynomial, by schoolbook
    arithmetic on coefficient lists.  Elements use the library's
    integer encoding sum(c_i * p**i)."""

    def __init__(self, p: int, m: int, modulus):
        self.p, self.m, self.modulus = p, m, list(modulus)

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.m):
            a, c = divmod(a, self.p)
            out.append(c)
        return out

    def add(self, a: int, b: int) -> int:
        return from_coeffs(
            ((x + y) % self.p for x, y in zip(self._digits(a), self._digits(b))), self.p
        )

    def mul(self, a: int, b: int) -> int:
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(self._digits(a)):
            for j, y in enumerate(self._digits(b)):
                prod[i + j] += x * y
        return from_coeffs(poly_mod(prod, self.modulus, self.p), self.p)


@lru_cache(maxsize=None)
def reference_group(q: int) -> tuple[tuple[int, ...], ...]:
    """A block's q**2 layer-3 rows (s, i), in ascending order, by
    FieldOracle arithmetic; only the modulus and alpha come from the
    library field.  Row (s, i) lists the child taken from each block
    member in turn: m for g_0, where e_m = e_s - e_i, then
    pos(e_i + e_m * e_j) for g_{j+1}."""
    f = field_new(q)
    oracle = FieldOracle(f.p, f.m, f.modulus)
    e = [0, 1]
    while len(e) < q:
        e.append(oracle.mul(e[-1], f.alpha))
    pos = {a: i for i, a in enumerate(e)}
    group = []
    for s in range(q):
        for i in range(q):
            m = next(m for m in range(q) if oracle.add(e[m], e[i]) == e[s])
            group.append((m, *(pos[oracle.add(e[i], oracle.mul(e[m], ej))] for ej in e)))
    return tuple(group)


def reference_chunk_rows(q: int, n: int) -> list[tuple[int, ...]]:
    """The (q, n) design's chunk rows (x_neighbors), built as the cage
    module docstring states.  Child c of node g is node 1 + g*q + c.
    Iteration t appends the layer-1 chunks first (chunk j on the root
    and node j's children, for p_{t-1} <= j < p_t), then, for each
    block that iteration t-1 added, in sorted block order, its
    reference_group rows."""
    p = [sum(q**t for t in range(i + 1)) for i in range(n + 1)]
    rows = [tuple(range(q + 1))]  # iteration 0: the root and its q children
    new_from = 0
    for t in range(1, n + 1):
        added = len(rows)
        rows += [(0, *(1 + j * q + c for c in range(q))) for j in range(p[t - 1], p[t])]
        for block in sorted(rows[new_from:added]):
            for cells in reference_group(q):
                rows.append(tuple(1 + g * q + c for g, c in zip(block, cells)))
        new_from = added
    return rows


def bipartite_isomorphic(d1: StorageDesign, d2: StorageDesign) -> bool:
    """Backtracking search for a Y-relabeling carrying d1's block
    multiset onto d2's.  Fine for the small designs used in tests."""
    if (d1.u, d1.v, d1.k, d1.l) != (d2.u, d2.v, d2.k, d2.l):
        return False
    blocks1 = [frozenset(b) for b in holders_from_rows(d1.nodes, d1.u)]
    blocks2 = set(frozenset(b) for b in holders_from_rows(d2.nodes, d2.u))
    if len(blocks2) != d2.u:
        return False

    # order d1's Y vertices so consecutive choices share blocks
    order: list[int] = []
    seen = set()
    queue = [0]
    member = [[] for _ in range(d1.v)]
    for bi, b in enumerate(blocks1):
        for e in b:
            member[e].append(bi)
    while queue:
        y = queue.pop(0)
        if y in seen:
            continue
        seen.add(y)
        order.append(y)
        for bi in member[y]:
            for e in sorted(blocks1[bi]):
                if e not in seen:
                    queue.append(e)
    order.extend(y for y in range(d1.v) if y not in seen)

    blocks2_list = list(blocks2)
    mapping: dict[int, int] = {}
    used = set()

    def feasible() -> bool:
        for b in blocks1:
            image = {mapping[e] for e in b if e in mapping}
            if len(image) < sum(1 for e in b if e in mapping):
                return False
            if len(image) == len(b):
                if frozenset(image) not in blocks2:
                    return False
            elif image and not any(image <= b2 for b2 in blocks2_list):
                return False
        return True

    def backtrack(idx: int) -> bool:
        if idx == len(order):
            return True
        y = order[idx]
        for cand in range(d2.v):
            if cand in used:
                continue
            mapping[y] = cand
            used.add(cand)
            if feasible() and backtrack(idx + 1):
                return True
            del mapping[y]
            used.discard(cand)
        return False

    return backtrack(0)
