"""Shared fixtures and hypothesis strategies for the whole suite.

Canonical programs (``sum_fn``, ``diamond_fn``, ``pressure_fn``) stay here
as plain fixtures; random programs come from the one generator users run,
:func:`repro.fuzz.gen.generate_fuzz_function`, and random loops from the
Section 10.2 population's :func:`repro.workloads.spec_loops.generate_loop`,
so the property suites, the fuzz harness and the studies draw from the
same generators:

* :func:`fuzz_programs` — arbitrary well-formed executable functions over
  the fuzz knob set, optionally with calls (the allocation/encoding
  property suites' workhorse);
* :func:`loop_ddgs` — random well-formed loop DDGs for the
  software-pipelining suites;
* :func:`knob_matrix` — every fuzz knob at its interesting extremes;
* :func:`make_pressure_fn` — the canonical spill-pressure loop kernel.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import strategies as st

from repro.fuzz.gen import FuzzConfig, generate_fuzz_function
from repro.ir import FunctionBuilder, parse_function
from repro.workloads.spec_loops import generate_loop


def make_pressure_fn(nvals=14, seed=1, iters=20, name="pressure"):
    """A loop kernel keeping ``nvals`` values live across iterations.

    With ``nvals`` above the register count every allocator must spill,
    which is what the spill mutation classes (dropped reloads, shuffled
    slots) need to bite on.
    """
    rng = random.Random(seed)
    fb = FunctionBuilder(name)
    n = fb.vreg()
    fb.params = (n,)
    vals = fb.vregs(nvals)
    fb.block("entry")
    for j, v in enumerate(vals):
        fb.li(v, j + 1)
    i = fb.vreg()
    fb.li(i, 0)
    fb.block("loop")
    for _ in range(iters):
        a, b = rng.sample(vals, 2)
        d = rng.choice(vals)
        fb.add(d, a, b)
    fb.addi(i, i, 1)
    fb.blt(i, n, "loop")
    fb.block("exit")
    acc = fb.vreg()
    fb.li(acc, 0)
    for v in vals:
        fb.add(acc, acc, v)
    fb.ret(acc)
    return fb.build()


def knob_matrix():
    """A bounded matrix covering every knob at its interesting extremes.

    Each knob is exercised at its minimum, a middle value and a stressed
    value while the others stay at defaults, plus a handful of corner
    combinations (everything-minimal, everything-stressed, calls+memory
    together).
    """
    base = FuzzConfig()
    matrix = [base]
    per_knob = {
        "n_regions": (1, 2, 6),
        "loop_depth": (0, 2, 3),
        "base_values": (2, 5, 14),
        "ops_per_block": (2, 4, 8),
        "loop_trip": (1, 2, 5),
        "fresh_bias": (0.0, 0.5, 1.0),
        "call_density": (0.0, 0.5, 1.0),
        "mem_density": (0.0, 0.5, 1.0),
    }
    for knob, values in per_knob.items():
        for v in values:
            cfg = replace(base, **{knob: v})
            if cfg not in matrix:
                matrix.append(cfg)
    matrix.append(FuzzConfig(n_regions=1, loop_depth=0, base_values=2,
                             ops_per_block=2, loop_trip=1, fresh_bias=0.0))
    matrix.append(FuzzConfig(n_regions=6, loop_depth=3, base_values=14,
                             ops_per_block=8, loop_trip=4, fresh_bias=0.6,
                             call_density=0.5, mem_density=0.5))
    matrix.append(FuzzConfig(call_density=1.0, mem_density=1.0))
    return matrix


def _fuzz_program(seed, n_regions, loop_depth, base_values, fresh_bias,
                  call_density, mem_density):
    return generate_fuzz_function(seed, FuzzConfig(
        n_regions=n_regions, loop_depth=loop_depth,
        base_values=base_values, fresh_bias=fresh_bias,
        call_density=call_density, mem_density=mem_density,
    ))


def fuzz_programs(calls=False):
    """Strategy: programs over the full fuzz knob set.

    ``calls=False`` (default) keeps programs call-free so they stay legal
    input for the binary packer; ``calls=True`` sweeps call density too.
    """
    return st.builds(
        _fuzz_program,
        seed=st.integers(min_value=0, max_value=10_000),
        n_regions=st.integers(min_value=1, max_value=5),
        loop_depth=st.integers(min_value=0, max_value=2),
        base_values=st.integers(min_value=3, max_value=12),
        fresh_bias=st.sampled_from((0.0, 0.25, 0.5)),
        call_density=st.sampled_from((0.0, 0.4)) if calls
        else st.just(0.0),
        mem_density=st.sampled_from((0.0, 0.4)),
    )


def loop_ddgs():
    """Strategy: DDGs of small Section 10.2 population loops (local
    dataflow plus accumulator recurrences), for the software-pipelining
    properties."""
    return st.integers(min_value=0, max_value=10_000).map(
        lambda seed: generate_loop(seed, big=False).ddg)


@pytest.fixture
def sum_fn():
    """sum(n) = 0 + 1 + ... + (n-1): one loop, three live values."""
    fb = FunctionBuilder("sum")
    n, i, acc = fb.vregs(3)
    fb.params = (n,)
    fb.block("entry")
    fb.li(i, 0)
    fb.li(acc, 0)
    fb.block("loop")
    fb.add(acc, acc, i)
    fb.addi(i, i, 1)
    fb.blt(i, n, "loop")
    fb.block("exit")
    fb.ret(acc)
    return fb.build()


@pytest.fixture
def diamond_fn():
    """if/else diamond joining into a shared block."""
    return parse_function("""
func diamond(v0):
entry:
    li v1, 10
    blt v0, v1, small
big:
    addi v2, v0, 100
    br join
small:
    addi v2, v0, 1
join:
    add v3, v2, v2
    ret v3
""")


@pytest.fixture
def pressure_fn():
    return make_pressure_fn()


@pytest.fixture
def miscompiled_select(monkeypatch):
    """Swap the select row's allocator for one that reads the wrong
    register: the first instruction with two distinct register operands
    reads its second operand twice.  ``run_setup``'s semantics proof must
    catch it."""
    from dataclasses import replace

    from repro.regalloc import pipeline

    def miscompiled(*args):
        alloc = select.allocate(*args)
        block, i = next(
            (b, i) for b in alloc.fn.blocks
            for i, ins in enumerate(b.instrs) if len(set(ins.srcs)) == 2)
        ins = block.instrs[i]
        block.instrs[i] = replace(ins, srcs=(ins.srcs[1], ins.srcs[1]))
        return alloc

    select = next(r for r in pipeline.SETUP_TABLE if r.name == "select")
    monkeypatch.setattr(pipeline, "SETUP_TABLE", tuple(
        replace(r, allocate=miscompiled) if r is select else r
        for r in pipeline.SETUP_TABLE))
