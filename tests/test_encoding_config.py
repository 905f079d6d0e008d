"""EncodingConfig validation and derived-width tests."""

import pytest

from repro.encoding import EncodingConfig
from repro.ir import phys


class TestWidths:
    def test_diff_w_smaller_than_reg_w(self):
        cfg = EncodingConfig(reg_n=12, diff_n=8)
        assert cfg.field_bits == 3       # DiffW
        assert cfg.direct_field_bits == 4  # RegW for 12 registers

    def test_direct_configuration(self):
        cfg = EncodingConfig.direct(8)
        assert cfg.is_direct
        assert cfg.field_bits == 3

    def test_field_bits_include_direct_slots(self):
        # paper Section 9.2: DiffN=7 plus one reserved slot fits in 3 bits
        cfg = EncodingConfig(reg_n=15, diff_n=7, direct_slots={7: 15})
        assert cfg.field_bits == 3

    def test_minimum_one_bit(self):
        assert EncodingConfig(reg_n=2, diff_n=2).field_bits == 1


class TestValidation:
    def test_diff_n_cannot_exceed_reg_n(self):
        with pytest.raises(ValueError):
            EncodingConfig(reg_n=4, diff_n=5)

    def test_positive_parameters(self):
        with pytest.raises(ValueError):
            EncodingConfig(reg_n=0, diff_n=0)

    def test_bad_join_policy(self):
        with pytest.raises(ValueError, match="join_repair"):
            EncodingConfig(reg_n=8, diff_n=8, join_repair="nope")

    def test_initial_last_reg_range(self):
        with pytest.raises(ValueError):
            EncodingConfig(reg_n=8, diff_n=8, initial_last_reg=8)

    def test_slot_code_collides_with_difference_range(self):
        with pytest.raises(ValueError, match="collides"):
            EncodingConfig(reg_n=15, diff_n=7, direct_slots={3: 15})

    def test_special_register_inside_differential_space(self):
        with pytest.raises(ValueError, match="inside the differential"):
            EncodingConfig(reg_n=15, diff_n=7, direct_slots={7: 3})

    def test_duplicate_slot_targets(self):
        with pytest.raises(ValueError, match="same register"):
            EncodingConfig(reg_n=12, diff_n=8, direct_slots={8: 14, 9: 14},)


class TestSpecialRegisters:
    def test_code_for_register(self):
        cfg = EncodingConfig(reg_n=15, diff_n=7, direct_slots={7: 15})
        assert cfg.code_for_register(phys(15)) == 7
        with pytest.raises(KeyError):
            cfg.code_for_register(phys(3))

    def test_is_encodable(self):
        cfg = EncodingConfig(reg_n=15, diff_n=7, direct_slots={7: 15})
        assert cfg.is_encodable(phys(3))
        assert not cfg.is_encodable(phys(15))       # special: direct slot
        assert not cfg.is_encodable(phys(2, "float"))  # other class

    def test_special_register_ids(self):
        cfg = EncodingConfig(reg_n=15, diff_n=7, direct_slots={7: 15})
        assert cfg.special_register_ids() == frozenset({15})

    def test_special_ids_computed_once_and_not_a_field(self):
        from dataclasses import fields, replace

        cfg = EncodingConfig(reg_n=15, diff_n=7, direct_slots={7: 15})
        assert cfg.special_register_ids() is cfg.special_register_ids()
        assert "_special_ids" not in {f.name for f in fields(cfg)}
        assert cfg == EncodingConfig(reg_n=15, diff_n=7,
                                     direct_slots={7: 15})
        assert "_special_ids" not in repr(cfg)
        moved = replace(cfg, direct_slots={7: 16})
        assert moved.special_register_ids() == frozenset({16})
        assert moved.is_special(phys(16)) and not moved.is_special(phys(15))
