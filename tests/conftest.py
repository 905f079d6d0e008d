"""Shared fixtures and hypothesis strategies for the whole suite.

Canonical programs (``sum_fn``, ``diamond_fn``, ``pressure_fn``) stay here
as plain fixtures; the *random-program* machinery lives in
:mod:`repro.fuzz.gen` and is exposed to tests through the strategy
helpers below, so the property suites and the fuzz harness draw from the
same generators:

* :func:`synth_programs` — arbitrary well-formed executable functions
  (the allocation/encoding property suites' workhorse);
* :func:`fuzz_programs` — the same, but sweeping the full fuzz knob set
  including call and memory density;
* :func:`loop_ddgs` — random well-formed loop DDGs for the
  software-pipelining suites.

``make_pressure_fn`` is kept as a thin alias of
:func:`repro.fuzz.gen.generate_pressure_function` because many test
modules import it by name.
"""

import pytest
from hypothesis import strategies as st

from repro.fuzz.gen import (
    FuzzConfig,
    generate_fuzz_function,
    generate_loop_ddg,
    generate_pressure_function,
)
from repro.ir import FunctionBuilder, parse_function
from repro.workloads import generate_function


def make_pressure_fn(nvals=14, seed=1, iters=20, name="pressure"):
    """A loop kernel keeping ``nvals`` values live across iterations."""
    return generate_pressure_function(nvals=nvals, seed=seed, iters=iters,
                                      name=name)


def synth_programs():
    """Strategy: random well-formed, always-terminating functions.

    Draws from :func:`repro.workloads.generate_function` — region-chained
    control flow, bounded loops, optional memory traffic — the program
    shape every allocator/encoder property must hold on.
    """
    return st.builds(
        generate_function,
        seed=st.integers(min_value=0, max_value=10_000),
        n_regions=st.integers(min_value=1, max_value=5),
        base_values=st.integers(min_value=3, max_value=12),
        with_memory=st.booleans(),
    )


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


def loop_ddgs(max_ops=28):
    """Strategy: random well-formed loop DDGs (acyclic dataflow plus a
    bounded-latency recurrence), for the software-pipelining properties."""
    return st.builds(
        generate_loop_ddg,
        seed=st.integers(min_value=0, max_value=10_000),
        max_ops=st.just(max_ops),
    )


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
