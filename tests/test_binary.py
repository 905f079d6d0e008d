"""Bit-level pack/unpack tests: the binary round trip theorem."""

import pytest

from repro.encoding import (
    EncodingConfig,
    PackError,
    encode_function,
    pack_function,
    unpack_function,
)
from repro.fuzz import FuzzConfig, generate_fuzz_function
from repro.ir import Instr, format_function, parse_function, phys
from repro.regalloc import iterated_allocate
from repro.workloads import MIBENCH


def roundtrip(fn, reg_n=12, diff_n=8, **cfg_kw):
    cfg = EncodingConfig(reg_n=reg_n, diff_n=diff_n, **cfg_kw)
    enc = encode_function(fn, cfg)
    packed = pack_function(enc)
    return packed, unpack_function(packed)


class TestRoundTrip:
    def test_simple_function(self):
        fn = parse_function("""
func f(r0):
entry:
    li r1, -123456
    add r2, r0, r1
    st r2, [r1+8]
    ld r3, [r1+-4]
    ldslot r4, slot7
    stslot r4, slot7
    blt r3, r4, entry
exit:
    ret r2
""")
        packed, decoded = roundtrip(fn)
        assert format_function(decoded) == format_function(fn)
        assert decoded.params == fn.params

    @pytest.mark.parametrize("w", MIBENCH[:6], ids=lambda w: w.name)
    def test_benchmark_kernels(self, w):
        fn = iterated_allocate(w.function(), 12).fn
        packed, decoded = roundtrip(fn)
        assert format_function(decoded) == format_function(fn)

    @pytest.mark.parametrize("seed", range(6))
    def test_synthetic_programs(self, seed):
        fn = iterated_allocate(
            generate_fuzz_function(seed, FuzzConfig(ops_per_block=6)), 12).fn
        packed, decoded = roundtrip(fn)
        assert format_function(decoded) == format_function(fn)

    def test_decoded_program_has_no_setlr(self):
        fn = parse_function("""
func f():
entry:
    add r1, r0, r9
    ret r1
""")
        packed, decoded = roundtrip(fn)
        assert all(i.op != "setlr" for i in decoded.instructions())

    def test_special_register_slots(self):
        fn = parse_function("""
func f():
entry:
    ld r1, [r15+0]
    add r2, r1, r2
    ret r2
""")
        packed, decoded = roundtrip(fn, reg_n=15, diff_n=7,
                                    direct_slots={7: 15})
        assert format_function(decoded) == format_function(fn)

    def test_dst_first_access_order(self):
        fn = parse_function("""
func f():
entry:
    add r1, r2, r3
    ret r1
""")
        packed, decoded = roundtrip(fn, access_order="dst_first")
        assert format_function(decoded) == format_function(fn)


class TestSizeAccounting:
    def test_field_width_is_diffw(self):
        """The stream really uses DiffW bits per field: widening DiffN by a
        bit per field grows the stream size accordingly."""
        fn = parse_function("""
func f():
entry:
    add r1, r0, r1
    add r2, r1, r2
    add r3, r2, r3
    ret r3
""")
        cfg_narrow = EncodingConfig(reg_n=12, diff_n=8)    # 3-bit fields
        cfg_wide = EncodingConfig(reg_n=12, diff_n=12)     # 4-bit fields
        narrow = pack_function(encode_function(fn, cfg_narrow))
        wide = pack_function(encode_function(fn, cfg_wide))
        n_fields = 10  # 3 adds x 3 + ret
        assert wide.n_bits - narrow.n_bits == n_fields

    def test_size_bytes(self):
        fn = parse_function("func f():\nentry:\n    ret r0\n")
        packed, _ = roundtrip(fn)
        assert packed.size_bytes == packed.n_bits / 8.0


class TestErrors:
    def test_call_not_packable(self):
        fn = parse_function("func f():\nentry:\n    ret r0\n")
        fn.entry.instrs.insert(0, Instr("call", label="g"))
        enc_fn = fn.copy()
        from repro.encoding import encode_function as ef
        with pytest.raises(PackError, match="call"):
            pack_function(ef(enc_fn, EncodingConfig(reg_n=12, diff_n=8)))

    def test_multi_class_not_packable(self):
        fn = parse_function("""
func f():
entry:
    add r1.float, r0.float, r1.float
    ret r0
""")
        cfg = EncodingConfig(reg_n=12, diff_n=8, classes=("int", "float"))
        enc = encode_function(fn, cfg)
        with pytest.raises(PackError, match="single-class"):
            pack_function(enc)

    def test_bitreader_underrun(self):
        from repro.encoding.binary import _BitReader
        r = _BitReader(b"\xff", 8)
        r.read(8)
        with pytest.raises(PackError, match="underrun"):
            r.read(1)

    def test_bitwriter_range_check(self):
        from repro.encoding.binary import _BitWriter
        w = _BitWriter()
        with pytest.raises(PackError):
            w.write(8, 3)
