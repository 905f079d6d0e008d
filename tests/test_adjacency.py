"""Adjacency-graph tests, anchored on the paper's Figure 5 example.

The paper's example code has six live ranges L1..L6 and, under access order
``src1, src2, dst``, the access sequence ``L1 L2 L3 L4 L1 L2 L5 L4 L6``:
edge (L1,L2) has weight 2, the six other edges weight 1, and with
``RegN = 3, DiffN = 2`` a zero-cost register assignment exists (Figure 5.e).
The three-instruction program below reproduces that sequence exactly.
"""

import itertools

import pytest

from repro.analysis import build_adjacency
from repro.analysis.adjacency import edge_satisfied
from repro.ir import Function, BasicBlock, Instr, parse_function, vreg

L1, L2, L3, L4, L5, L6 = (vreg(i) for i in range(1, 7))


@pytest.fixture
def figure5_fn():
    code = BasicBlock("code", [
        Instr("add", dst=L3, srcs=(L1, L2)),
        Instr("add", dst=L2, srcs=(L4, L1)),
        Instr("add", dst=L6, srcs=(L5, L4)),
        Instr("ret", srcs=(L6,)),
    ])
    return Function("fig5", [code], params=(L1, L2, L4, L5))


class TestFigure5:
    def test_edge_set_matches_paper(self, figure5_fn):
        g = build_adjacency(figure5_fn)
        expected = {
            (L1, L2): 2.0,
            (L2, L3): 1.0,
            (L3, L4): 1.0,
            (L4, L1): 1.0,
            (L2, L5): 1.0,
            (L5, L4): 1.0,
            (L4, L6): 1.0,
        }
        got = {(u, v): w for u, v, w in g.edges()}
        assert got == expected

    def test_self_edges_not_stored(self, figure5_fn):
        g = build_adjacency(figure5_fn)
        g.add_edge(L1, L1, 5.0)
        assert g.weight(L1, L1) == 0.0

    def test_zero_cost_assignment_exists(self, figure5_fn):
        """Paper Figure 5.e: with RegN=3, DiffN=2 all edges can be satisfied."""
        g = build_adjacency(figure5_fn)
        best = min(
            g.cost(dict(zip([L1, L2, L3, L4, L5, L6], assign)), 3, 2)
            for assign in itertools.product(range(3), repeat=6)
        )
        assert best == 0.0

    def test_total_weight(self, figure5_fn):
        assert build_adjacency(figure5_fn).total_weight() == 8.0


class TestCondition3:
    @pytest.mark.parametrize("n_from, n_to, reg_n, diff_n, ok", [
        (0, 1, 12, 8, True),     # small forward step
        (0, 7, 12, 8, True),     # largest allowed difference
        (0, 8, 12, 8, False),    # just out of range
        (7, 0, 12, 8, True),     # wraps to 5 < 8
        (1, 0, 12, 8, False),    # descending by one wraps to 11
        (5, 5, 12, 8, True),     # same register is difference 0
        (2, 1, 3, 2, False),
        (1, 2, 3, 2, True),
    ])
    def test_edge_satisfied(self, n_from, n_to, reg_n, diff_n, ok):
        assert edge_satisfied(n_from, n_to, reg_n, diff_n) is ok


class TestCostModel:
    def test_unassigned_endpoints_free(self, figure5_fn):
        g = build_adjacency(figure5_fn)
        assert g.cost({L1: 0}, 3, 2) == 0.0

    def test_merge_redirects_and_drops_self(self, figure5_fn):
        g = build_adjacency(figure5_fn)
        g.merge(L1, L2)  # edge L1->L2 (w=2) becomes a self edge and vanishes
        assert g.weight(L1, L2) == 0.0
        assert L2 not in g
        assert g.weight(L1, L3) == 1.0  # L2 -> L3 redirected
        assert g.weight(L1, L5) == 1.0

    def test_copy_is_independent(self, figure5_fn):
        g = build_adjacency(figure5_fn)
        h = g.copy()
        h.merge(L1, L2)
        assert g.weight(L1, L2) == 2.0


class TestCrossBlockEdges:
    def test_join_weight_divided_by_preds(self, diamond_fn):
        g = build_adjacency(diamond_fn)
        # join's first access (v2) gets 1/2 weight from each arm's last access
        assert g.weight(vreg(2), vreg(2)) == 0.0  # self edges dropped
        # both arms end accessing v2, join starts with v2: self edge -> free
        # use a function where the registers differ instead:
        fn = parse_function("""
func f(v0):
entry:
    li v1, 10
    blt v0, v1, b
a:
    li v2, 1
    br join
b:
    li v3, 2
join:
    add v4, v0, v0
    ret v4
""")
        g2 = build_adjacency(fn)
        assert g2.weight(vreg(2), vreg(0)) == 0.5
        assert g2.weight(vreg(3), vreg(0)) == 0.5

    def test_frequency_weighting(self, sum_fn):
        g = build_adjacency(sum_fn, freq={"entry": 1.0, "loop": 10.0, "exit": 1.0})
        # acc->acc pairs are self edges; i->n inside blt is weighted by loop
        assert g.weight(vreg(1), vreg(0)) >= 10.0
