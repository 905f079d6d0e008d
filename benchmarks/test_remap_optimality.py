"""Is Figure 12's repair level the search or the problem?

One row per remap search of one ``lowend`` pass: 15 MiBench kernels x
the three differential setups x the two adjacency weightings (profile
and static) that ``run_setup``'s remap candidates search, at the grid's
50 restarts and seed 0.  Each edge list comes from the allocation
``run_setup`` actually remaps.  A row holds the greedy descent's cost,
the cheapest permutation the exact model found, the model's dual bound,
whether that permutation is proven optimal, the gap between greedy and
exact, and a two-way triangle floor.

The floor: at RegN 12 / DiffN 8 two registers adjacent in both
directions keep both edges only 5-7 apart on the circle, and three such
distances cannot add up to 12.  So in every triangle of mutually
two-way-adjacent registers one of the six edges pays.  Summing each
triangle's lightest edge over a packing of *edge-disjoint* triangles
bounds every permutation's cost from below; overlapping triangles could
share their one violated edge, so they would over-count.

The table is ``remap_optimality.json``; regenerate it with
``PYTHONPATH=src python benchmarks/test_remap_optimality.py``.  The
tests check ``floor <= bound <= min(best, greedy)`` on every row and
re-solve the rows that proved within seconds, comparing costs, not
permutations: HiGHS may return a different permutation of equal cost.
They re-solve only the IRC-allocated setups (``remapping``,
``select``): ``coalesce`` allocates through the residence ILP, whose
choices may change with the HiGHS version.
"""

import itertools
import json
import time
from pathlib import Path

import pytest

from repro.experiments.lowend import DIFFERENTIAL_SETUPS
from repro.experiments.reporting import Table
from repro.machine.reuse import record_and_profile
from repro.regalloc import pipeline
from repro.regalloc.remap import _WEIGHT_SCALE, _edge_list, _exact_solve
from repro.workloads.mibench import MIBENCH

TABLE = Path(__file__).resolve().parent / "remap_optimality.json"
REG_N, DIFF_N, RESTARTS, SEED = 12, 8, 50, 0
#: the order of ``run_setup``'s two remap searches per setup
WEIGHTINGS = ("profile", "static")
#: rows proven within this many seconds are re-solved by the tests
RESOLVE_S = 1.5


def searches():
    """``(kernel, setup, weighting, edges, greedy cost)`` for every remap
    search of one ``lowend`` pass over the differential setups; edge
    weights and the cost are in scaled integer units."""
    found, out = [], []
    remap = pipeline.differential_remap

    def capture(fn, reg_n, diff_n, **kw):
        result = remap(fn, reg_n, diff_n, **kw)
        found.append((_edge_list(fn, reg_n, kw["order"], kw["freq"]),
                      round(result.cost_after * _WEIGHT_SCALE)))
        return result

    pipeline.differential_remap = capture
    try:
        for w in MIBENCH:
            fn = w.function()
            _, freq = record_and_profile(fn, w.default_args, True)
            for setup in DIFFERENTIAL_SETUPS:
                found.clear()
                pipeline.run_setup(fn, setup, reg_n=REG_N, diff_n=DIFF_N,
                                   remap_restarts=RESTARTS, freq=freq,
                                   remap_seed=SEED)
                assert len(found) == len(WEIGHTINGS)
                out.extend((w.name, setup, weighting, edges, greedy)
                           for weighting, (edges, greedy)
                           in zip(WEIGHTINGS, found))
    finally:
        pipeline.differential_remap = remap
    return out


def triangle_floor(edges):
    """The lightest-edge sum over an edge-disjoint packing of two-way
    triangles, packed heaviest first (scaled units)."""
    # three pairwise gaps of at least REG_N - DIFF_N + 1 cannot fit the
    # circle; at RegN 12 / DiffN 8 they are 5 + 5 + 5 > 12
    assert 3 * (REG_N - DIFF_N + 1) > REG_N
    weight = {(u, v): w for u, v, w in edges if u != v and w > 0}
    light = {frozenset(k): min(w, weight[k[::-1]])
             for k, w in weight.items() if k[::-1] in weight}
    regs = sorted({r for pair in light for r in pair})
    triangles = []
    for a, b, c in itertools.combinations(regs, 3):
        sides = [frozenset(s) for s in ((a, b), (b, c), (a, c))]
        if all(s in light for s in sides):
            triangles.append((min(light[s] for s in sides), sides))
    floor, used = 0, set()
    for cost, sides in sorted(triangles, key=lambda t: -t[0]):
        if used.isdisjoint(sides):
            used.update(sides)
            floor += cost
    return floor


def solve(edges, greedy):
    """The exact model's figures for one search, as a table row's
    measured fields (costs in unscaled units)."""
    start = time.perf_counter()
    _, best, bound = _exact_solve(edges, REG_N, DIFF_N)
    seconds = time.perf_counter() - start
    return {
        "greedy": greedy / _WEIGHT_SCALE,
        "best": best / _WEIGHT_SCALE,
        "bound": bound / _WEIGHT_SCALE,
        "proven": bound == best,
        "gap": greedy / _WEIGHT_SCALE - best / _WEIGHT_SCALE,
        "floor": triangle_floor(edges) / _WEIGHT_SCALE,
        "seconds": round(seconds, 2),
    }


def table_rows():
    """Every search of the pass, solved: the committed table's rows."""
    return [{"kernel": kernel, "setup": setup, "weighting": weighting,
             **solve(edges, greedy)}
            for kernel, setup, weighting, edges, greedy in searches()]


def render(rows):
    """The table as aligned text, one line per search."""
    t = Table(f"Remap optimality at RegN {REG_N} / DiffN {DIFF_N} "
              f"({RESTARTS} restarts, seed {SEED})",
              ["kernel", "setup", "weights", "greedy", "best", "bound",
               "proven", "gap", "floor", "s"])
    for r in rows:
        t.add_row(r["kernel"], r["setup"], r["weighting"], r["greedy"],
                  r["best"], r["bound"], "yes" if r["proven"] else "no",
                  r["gap"], r["floor"], r["seconds"])
    return t.render()


@pytest.fixture(scope="module")
def committed():
    table = json.loads(TABLE.read_text())
    assert (table["reg_n"], table["diff_n"], table["restarts"],
            table["seed"]) == (REG_N, DIFF_N, RESTARTS, SEED)
    return table["rows"]


@pytest.fixture(scope="module")
def live():
    return {(k, s, w): (edges, greedy)
            for k, s, w, edges, greedy in searches()}


def test_table_covers_every_search(committed, live):
    keys = [(r["kernel"], r["setup"], r["weighting"]) for r in committed]
    assert keys == list(live)
    assert len(keys) == len(MIBENCH) * len(DIFFERENTIAL_SETUPS) * 2 == 90


def test_floor_bound_greedy_order(committed):
    print()
    print(render(committed))
    for r in committed:
        # an unproven search may stop at a permutation dearer than the
        # greedy's; its bound still sits below both
        assert r["floor"] <= r["bound"] <= min(r["best"], r["greedy"]), r
        assert r["proven"] == (r["bound"] == r["best"]), r
        assert r["gap"] == r["greedy"] - r["best"], r


def test_fast_rows_resolve_to_the_committed_costs(committed, live):
    resolved = 0
    for r in committed:
        key = (r["kernel"], r["setup"], r["weighting"])
        if r["setup"] == "coalesce":
            continue
        edges, greedy = live[key]
        assert greedy / _WEIGHT_SCALE == r["greedy"], key
        assert triangle_floor(edges) / _WEIGHT_SCALE == r["floor"], key
        if r["proven"] and r["seconds"] <= RESOLVE_S:
            row = solve(edges, greedy)
            assert row["proven"] and row["best"] == r["best"], key
            resolved += 1
    assert resolved >= 10


if __name__ == "__main__":
    rows = table_rows()
    body = ",\n".join(" " + json.dumps(row) for row in rows)
    TABLE.write_text(
        '{"reg_n": %d, "diff_n": %d, "restarts": %d, "seed": %d, '
        '"rows": [\n%s\n]}\n' % (REG_N, DIFF_N, RESTARTS, SEED, body))
    print(render(rows))
