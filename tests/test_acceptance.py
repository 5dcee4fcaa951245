"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its elapsed time against the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from fractions import Fraction

from frcage import (
    BlockCollection,
    b_h_subgraph,
    build_scaled_cage,
    check_latin,
    check_orthogonal,
    check_partial_invariants,
    check_steiner_exact,
    check_zeroth_column_only_overlap,
    chunk_locations,
    expand,
    field_new,
    generate_mols,
    girth_at_least_six,
    moore_bounds,
    p_n,
    partial_fill,
    repair_plan,
    to_storage_design,
)
from conftest import (
    GOLDEN_MOLS_Q3,
    GOLDEN_S237,
    GOLDEN_S2315_T,
    X_SIDE_RELABEL_Q2,
    sweep_params,
)
import helpers


def run_criterion(num, desc, budget_s, fn, best_of=1):
    """Execute fn, print one pass/fail line, enforce the time budget."""
    err = None
    elapsed = float("inf")
    for _ in range(best_of):
        t0 = time.perf_counter()
        try:
            fn()
        except BaseException as exc:  # report FAIL before re-raising
            err = exc
            break
        elapsed = min(elapsed, time.perf_counter() - t0)
    ok = err is None and elapsed < budget_s
    status = "PASS" if ok else "FAIL"
    shown = "n/a" if err is not None else f"{elapsed:.4f}s"
    print(f"criterion {num:2d}: {status}  [{desc}] ({shown}, budget {budget_s}s)")
    if err is not None:
        raise err
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.4f}s (budget {budget_s}s)"


def test_criterion_01_mols_golden():
    field_new(3)  # warm the import path before the timed run

    def body():
        mset = generate_mols(field_new(3))
        assert [[list(r) for r in sq.cells] for sq in mset.squares] == GOLDEN_MOLS_Q3

    run_criterion(1, "order-3 square family reproduced exactly", 0.001, body, best_of=3)


def test_criterion_02_regular_cage_golden():
    build_scaled_cage(2, 1)  # warm

    def body():
        d2 = build_scaled_cage(2, 1)
        assert [list(r) for r in to_storage_design(d2).nodes] == GOLDEN_S237
        relabeled = sorted(
            tuple(sorted(X_SIDE_RELABEL_Q2[e] for e in b)) for b in d2.x_neighbors
        )
        assert relabeled == sorted(tuple(b) for b in GOLDEN_S237)
        d3 = build_scaled_cage(3, 1)
        assert d3.u == d3.v == 13

    run_criterion(2, "S(2,3,7) table and 13+13 sizes", 0.010, body, best_of=3)


def test_criterion_03_scaled_cage_golden():
    build_scaled_cage(2, 2)  # warm

    def body():
        d = build_scaled_cage(2, 2)
        assert (d.v, d.u, d.k, d.l) == (15, 35, 3, 7)
        assert [list(r) for r in to_storage_design(d).nodes] == GOLDEN_S2315_T

    run_criterion(3, "15-node/35-chunk table reproduced exactly", 0.010, body, best_of=3)


def test_criterion_04_bound_tightness():
    params = sweep_params()

    def body():
        for q, n in params:
            d = build_scaled_cage(q, n)
            bp = moore_bounds(d.k, d.l)
            assert d.v == bp.v_min == 1 + d.l * (d.k - 1), (q, n)
            assert Fraction(d.u) == bp.u_min == d.l + Fraction(
                d.l * (d.l - 1) * (d.k - 1), d.k
            ), (q, n)
            assert d.l == p_n(q, n) and d.v == p_n(q, n + 1)

    run_criterion(4, f"bounds met with equality on {len(params)} designs", 60.0, body)


def test_criterion_05_girth_and_steiner_oracles():
    params = sweep_params()

    def body():
        for q, n in params:
            d = build_scaled_cage(q, n)
            ok, witness = girth_at_least_six(d)
            assert ok, (q, n, witness)
            ok, witness = check_steiner_exact(BlockCollection(d.v, d.k, d.x_neighbors))
            assert ok, (q, n, witness)

    run_criterion(5, f"no 4-cycles, exact pair cover on {len(params)} designs", 300.0, body)


def test_criterion_06_mols_properties():
    qs = (2, 3, 4, 5, 7, 8, 9, 11, 13)

    def body():
        for q in qs:
            mset = generate_mols(field_new(q))
            for sq in mset.squares[1:]:
                assert check_latin(sq), q
            for a in range(q):
                for b in range(a + 1, q):
                    assert check_orthogonal(mset.squares[a], mset.squares[b]), (q, a, b)
            assert check_zeroth_column_only_overlap(mset), q

    run_criterion(6, f"square families valid for q in {qs}", 10.0, body)


def test_criterion_07_expansion_invariance():
    def body():
        for q, n_max in ((2, 3), (3, 2)):
            sd = to_storage_design(build_scaled_cage(q, 1))
            for _ in range(n_max - 1):
                bigger = expand(sd)
                restricted = tuple(bigger.nodes[g][: sd.l] for g in range(sd.num_nodes))
                assert restricted == sd.nodes, (q, bigger.n)
                sd = bigger

    run_criterion(7, "growth keeps old tables byte-for-byte", 30.0, body)


def test_criterion_08_repair_property():
    params = sweep_params()

    def body():
        for q, n in params:
            sd = to_storage_design(build_scaled_cage(q, n))
            locs = chunk_locations(sd)
            # exhaustive pairwise-overlap check via replica groups
            seen = {}
            for c, holders in enumerate(locs):
                for i in range(len(holders)):
                    for j in range(i + 1, len(holders)):
                        pair = (holders[i], holders[j])
                        assert pair not in seen, (q, n, pair, c, seen[pair])
                        seen[pair] = c
            for g in range(sd.num_nodes):
                plan = repair_plan(sd, g)
                hs = [h for _, h in plan.assignments]
                assert len(plan.assignments) == sd.l, (q, n, g)
                assert len(set(hs)) == len(hs), (q, n, g)
                assert all(h != g for h in hs)
                assert all(h in locs[c] for c, h in plan.assignments)

    run_criterion(8, f"distinct helpers for every node of {len(params)} designs", 60.0, body)


def test_criterion_09_partial_fill():
    def body():
        full = to_storage_design(build_scaled_cage(2, 2))
        for u_tilde in range(8, 36):
            part = partial_fill(full, u_tilde)
            locs = chunk_locations(part)
            for c in range(u_tilde):
                assert len(locs[c]) == part.k, (u_tilde, c)
            for c in range(u_tilde, 35):
                assert locs[c] == ()
            ok, detail = check_partial_invariants(part)
            assert ok, (u_tilde, detail)

    run_criterion(9, "every staged fill keeps replicas and overlap", 10.0, body)


def test_criterion_10_subgraph_isomorphism():
    def body():
        d = build_scaled_cage(2, 2)
        cage = build_scaled_cage(2, 1)
        for h in range(7):
            sub = b_h_subgraph(d, h)
            assert helpers.bipartite_isomorphic(sub, cage), h

    run_criterion(10, "all seven induced subgraphs match the base cage", 10.0, body)
