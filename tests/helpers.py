"""Independent oracles used by the tests.

Everything here recomputes properties from first principles, without
touching the library's own scan routines, so a library bug cannot hide
behind a matching bug in its checker.
"""

from collections import Counter
from itertools import combinations

from frcage import BipartiteDesign, FieldMeta, StorageDesign, field_new, repair_plan


def naive_no_four_cycles(d: BipartiteDesign) -> bool:
    """Literal enumeration over all (x, y, x', y') quadruples.
    Quadratic in both sides; keep to designs with |X| <= 40."""
    nb = [set(ys) for ys in d.x_neighbors]
    for x1 in range(d.u):
        for x2 in range(x1 + 1, d.u):
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


def incidence_from_blocks(blocks, num_elements, q=None, n=None) -> BipartiteDesign:
    """Hand-built bipartite design: one X vertex per block."""
    k = len(blocks[0])
    replicas = Counter(e for b in blocks for e in b)
    l = replicas.most_common(1)[0][1]
    return BipartiteDesign(
        q=q,
        n=n,
        k=k,
        l=l,
        u=len(blocks),
        v=num_elements,
        x_neighbors=tuple(tuple(sorted(b)) for b in blocks),
    )


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


def helper_loads(sd: StorageDesign, policy: str) -> list[int]:
    """Requests each node serves, summed over the repair plans of all
    num_nodes single-node failures."""
    loads = [0] * sd.num_nodes
    for failed in range(sd.num_nodes):
        for _, helper in repair_plan(sd, failed, policy=policy).assignments:
            loads[helper] += 1
    return loads


def storage_from_rows(rows, num_chunks, k, q=3, n=1) -> StorageDesign:
    """Hand-built storage table for repair tests."""
    return StorageDesign(
        q=q,
        n=n,
        k=k,
        l=len(rows[0]),
        num_nodes=len(rows),
        num_chunks=num_chunks,
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

    def _number(self, cs) -> int:
        return sum(c * self.p**i for i, c in enumerate(cs))

    def add(self, a: int, b: int) -> int:
        return self._number(
            (x + y) % self.p for x, y in zip(self._digits(a), self._digits(b))
        )

    def mul(self, a: int, b: int) -> int:
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(self._digits(a)):
            for j, y in enumerate(self._digits(b)):
                prod[i + j] += x * y
        return self._number(poly_mod(prod, self.modulus, self.p))


def bipartite_isomorphic(d1: BipartiteDesign, d2: BipartiteDesign) -> bool:
    """Backtracking search for a Y-relabeling carrying d1's block
    multiset onto d2's.  Fine for the small designs used in tests."""
    if (d1.u, d1.v, d1.k, d1.l) != (d2.u, d2.v, d2.k, d2.l):
        return False
    blocks1 = [frozenset(b) for b in d1.x_neighbors]
    blocks2 = set(frozenset(b) for b in d2.x_neighbors)
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
