"""Seeded random IR generator: the one source of random programs.

The fuzz harness, the property-based tests, the program-scale ablation
and the compile-service traffic all draw their programs here.  Every
value an instruction may read is initialised in the entry block or
earlier on every path (the pool discipline), and the knob set covers
region count, loop nesting depth, register pressure, call density and
memory-op density.  Output is guaranteed to pass the L001-L009 lint
rules *by construction*:

* every block ends before a new one starts and the last block returns
  (L001: terminators);
* sources are always drawn from the already-defined pool and fresh values
  are only defined at points that dominate their uses — never inside one
  arm of a diamond (L002: def-before-use);
* no physical registers, spill ops or ``setlr`` appear (L003/L007/L008);
* every emitted block is reachable: diamond arms and join blocks hang off
  the branch that creates them, loop bodies off the loop entry (L009).

Determinism is a contract, not an accident: the only entropy source is the
single ``random.Random(seed)`` stream, so one ``(seed, config)`` pair names
one program forever — that is what makes ``repro fuzz repro --seed N``
reproduce a failure found on another machine or under ``--jobs 16``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Dict, List, Optional

from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.instr import Instr, Reg

__all__ = ["FuzzConfig", "generate_fuzz_function"]

_ALU_TWO = ("add", "sub", "mul", "xor", "or", "and")
_ALU_IMM = ("addi", "subi", "muli", "xori", "andi", "shri")
_BRANCHES = ("beq", "bne", "blt", "bge")


@dataclass(frozen=True)
class FuzzConfig:
    """Generator knobs.  One config + one seed = one program.

    ============= ====================================================
    knob          meaning
    ============= ====================================================
    n_regions     sequential control-flow regions (straight/diamond/loop)
    loop_depth    maximum loop nesting depth (0 = no loops at all)
    base_values   values initialised up front — the register-pressure floor
    ops_per_block ALU instructions per straight run
    loop_trip     maximum trip count of any single loop
    fresh_bias    probability an ALU result starts a new live range
    call_density  probability a region body contains a ``call``
    mem_density   probability a region body contains a ``st``/``ld`` pair
    ============= ====================================================
    """

    n_regions: int = 4
    loop_depth: int = 1
    base_values: int = 8
    ops_per_block: int = 5
    loop_trip: int = 3
    fresh_bias: float = 0.25
    call_density: float = 0.0
    mem_density: float = 0.0

    def __post_init__(self) -> None:
        if self.n_regions < 1:
            raise ValueError("n_regions must be >= 1")
        if self.loop_depth < 0:
            raise ValueError("loop_depth must be >= 0")
        if self.base_values < 2:
            raise ValueError("base_values must be >= 2")
        if self.ops_per_block < 2:
            raise ValueError("ops_per_block must be >= 2")
        if self.loop_trip < 1:
            raise ValueError("loop_trip must be >= 1")
        for knob in ("fresh_bias", "call_density", "mem_density"):
            v = getattr(self, knob)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{knob} must be in [0, 1], got {v}")

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form — the picklable payload the harness fans out."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "FuzzConfig":
        return cls(**d)

    def cli_args(self) -> str:
        """The ``repro fuzz repro`` flags that reproduce this config."""
        return (f"--regions {self.n_regions} --loop-depth {self.loop_depth} "
                f"--values {self.base_values} --ops {self.ops_per_block} "
                f"--trip {self.loop_trip} --fresh-bias {self.fresh_bias} "
                f"--calls {self.call_density} --mem {self.mem_density}")


def _emit_alu(fb: FunctionBuilder, rng: random.Random, pool: List[Reg],
              fresh_bias: float) -> None:
    """One ALU instruction over defined values; sources drawn before any
    fresh destination joins the pool, so nothing reads its own result."""
    if rng.random() < 0.7:
        op = rng.choice(_ALU_TWO)
        srcs = (rng.choice(pool), rng.choice(pool))
        imm = None
    else:
        op = rng.choice(_ALU_IMM)
        srcs = (rng.choice(pool),)
        imm = rng.randrange(1, 64)
    if rng.random() < fresh_bias:
        dst = fb.vreg()
        pool.append(dst)
    else:
        dst = rng.choice(pool)
    fb.emit(Instr(op, dst=dst, srcs=srcs, imm=imm))


class _Gen:
    """One generation run: builder + pool + fresh-label counters."""

    def __init__(self, seed: int, config: FuzzConfig, name: str) -> None:
        self.rng = random.Random(seed)
        self.cfg = config
        self.fb = FunctionBuilder(name)
        n = self.fb.vreg()
        self.fb.params = (n,)
        self.pool: List[Reg] = [n]
        self.param = n
        self.base: Optional[Reg] = None
        self.n_calls = 0
        self.n_labels = 0

    def label(self, stem: str) -> str:
        self.n_labels += 1
        return f"{stem}{self.n_labels}"

    # ------------------------------------------------------------------
    # unconditional emissions (safe to define fresh values)
    # ------------------------------------------------------------------

    def maybe_memory(self) -> None:
        """A store/load pair against the shared base pointer."""
        if self.base is None or self.rng.random() >= self.cfg.mem_density:
            return
        self.fb.st(self.rng.choice(self.pool), self.base,
                   self.rng.randrange(8))
        out = self.fb.vreg()
        self.fb.ld(out, self.base, self.rng.randrange(8))
        self.pool.append(out)

    def maybe_call(self) -> None:
        """A call with explicit use/def register effects."""
        if self.rng.random() >= self.cfg.call_density:
            return
        n_uses = self.rng.randrange(0, min(3, len(self.pool)) + 1)
        uses = tuple(self.rng.sample(self.pool, n_uses))
        ret = self.fb.vreg()
        self.n_calls += 1
        self.fb.call(f"ext{self.n_calls}", uses=uses, defs=(ret,))
        self.pool.append(ret)

    def straight(self, n_ops: int, fresh_bias: float) -> None:
        for _ in range(n_ops):
            _emit_alu(self.fb, self.rng, self.pool, fresh_bias)

    # ------------------------------------------------------------------
    # regions
    # ------------------------------------------------------------------

    def diamond(self) -> None:
        """An if/else diamond.  Arms define no fresh values (one arm may
        not execute, so a fresh def there would be conditional)."""
        rng, fb, cfg = self.rng, self.fb, self.cfg
        a, b = rng.choice(self.pool), rng.choice(self.pool)
        else_l, join_l = self.label("else"), self.label("join")
        fb.emit(Instr(rng.choice(_BRANCHES), srcs=(a, b), label=else_l))
        fb.block(self.label("then"))
        self.straight(rng.randrange(1, cfg.ops_per_block), 0.0)
        fb.br(join_l)
        fb.block(else_l)
        self.straight(rng.randrange(1, cfg.ops_per_block), 0.0)
        fb.block(join_l)
        fb.nop()

    def loop(self, depth: int) -> None:
        """A counted loop; body may contain calls, memory ops and — up to
        ``loop_depth`` — another loop.  The trip count is at least one, so
        body defs dominate everything after the loop."""
        rng, fb, cfg = self.rng, self.fb, self.cfg
        counter, limit = fb.vregs(2)
        fb.li(counter, 0)
        fb.li(limit, rng.randrange(1, cfg.loop_trip + 1))
        head = self.label("loop")
        fb.block(head)
        self.straight(rng.randrange(2, cfg.ops_per_block + 1),
                      cfg.fresh_bias)
        self.maybe_memory()
        self.maybe_call()
        if depth < cfg.loop_depth and rng.random() < 0.6:
            self.loop(depth + 1)
        fb.addi(counter, counter, 1)
        fb.blt(counter, limit, head)
        fb.block(self.label("done"))
        fb.nop()

    def trim_pool(self) -> None:
        """Keep register pressure near ``base_values`` instead of growing
        without bound as fresh values accumulate."""
        cap = self.cfg.base_values * 3
        if len(self.pool) > cap:
            self.pool[:] = self.rng.sample(self.pool,
                                           self.cfg.base_values * 2)
            if self.param not in self.pool:
                self.pool.append(self.param)

    def run(self) -> Function:
        rng, fb, cfg = self.rng, self.fb, self.cfg
        fb.block("entry")
        for _ in range(cfg.base_values):
            v = fb.vreg()
            fb.li(v, rng.randrange(1, 100))
            self.pool.append(v)
        if cfg.mem_density > 0.0:
            self.base = fb.vreg()
            fb.li(self.base, 0x1000)
            self.pool.append(self.base)

        kinds = ["straight", "diamond"]
        if cfg.loop_depth >= 1:
            kinds.append("loop")
        for _ in range(cfg.n_regions):
            self.trim_pool()
            kind = rng.choice(kinds)
            if kind == "straight":
                self.straight(rng.randrange(2, cfg.ops_per_block + 1),
                              cfg.fresh_bias)
                self.maybe_memory()
                self.maybe_call()
            elif kind == "diamond":
                self.diamond()
            else:
                self.loop(depth=1)

        fb.block("collect")
        acc = fb.vreg()
        fb.li(acc, 0)
        for v in self.pool:
            fb.add(acc, acc, v)
        fb.ret(acc)
        return fb.build()


def generate_fuzz_function(seed: int, config: Optional[FuzzConfig] = None,
                           name: Optional[str] = None) -> Function:
    """Generate one well-formed, always-terminating, lint-clean function.

    ``(seed, config)`` fully determines the output; the function takes one
    integer parameter and returns a checksum of its live values, so any
    register-allocation miscompile that reaches the exit perturbs the
    return value.
    """
    config = config or FuzzConfig()
    return _Gen(seed, config, name or f"fuzz{seed}").run()
