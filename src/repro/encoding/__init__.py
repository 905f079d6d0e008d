"""Differential register encoding (paper Sections 2, 4, 9).

The core primitive is modular difference encoding of register fields
(:mod:`repro.encoding.differential`), combined with a nominal *access order*
(:mod:`repro.encoding.access_order`).  :mod:`repro.encoding.encoder` turns an
allocated function into differentially encoded form, inserting
``set_last_reg`` repairs for out-of-range differences and control-flow join
inconsistencies; :mod:`repro.encoding.verifier` replays the decode over every
CFG path to prove the encoding sound.
"""

from repro.encoding.differential import (
    decode_difference,
    decode_sequence,
    encode_difference,
    encode_sequence,
)
from repro.encoding.access_order import (
    ACCESS_ORDERS,
    access_fields,
    access_sequence,
    block_access_sequence,
)
from repro.encoding.config import EncodingConfig
from repro.encoding.encoder import EncodedFunction, encode_function
from repro.encoding.verifier import EncodingError, verify_encoding
from repro.encoding.static_verifier import (
    TOP,
    SetlrFact,
    StaticAnalysis,
    StaticVerificationReport,
    analyze_last_reg,
    verify_encoding_static,
)
from repro.encoding.setlr_elim import EliminationResult, eliminate_redundant_setlr
from repro.encoding.binary import (
    PackedProgram,
    PackError,
    pack_function,
    unpack_function,
)

__all__ = [
    "PackedProgram",
    "PackError",
    "pack_function",
    "unpack_function",
    "encode_difference",
    "decode_difference",
    "encode_sequence",
    "decode_sequence",
    "ACCESS_ORDERS",
    "access_fields",
    "access_sequence",
    "block_access_sequence",
    "EncodingConfig",
    "EncodedFunction",
    "encode_function",
    "EncodingError",
    "verify_encoding",
    "TOP",
    "SetlrFact",
    "StaticAnalysis",
    "StaticVerificationReport",
    "analyze_last_reg",
    "verify_encoding_static",
    "EliminationResult",
    "eliminate_redundant_setlr",
]
