"""repro — a reproduction of "Differential Register Allocation"
(Zhuang & Pande, PLDI 2005).

The package is organised bottom-up:

* :mod:`repro.ir` — a three-address RISC IR with builder, parser, printer,
  and an executable interpreter.
* :mod:`repro.analysis` — liveness, interference, dominators/loops, static
  and profile-guided block frequencies, and the paper's adjacency graph.
* :mod:`repro.encoding` — differential register encoding: modular
  difference arithmetic, the function encoder with ``set_last_reg``
  repairs, a decode-replay verifier, and the binary packer.
* :mod:`repro.regalloc` — iterated register coalescing, linear scan,
  Appel-George optimal spilling, and the paper's three differential
  schemes (remapping / select / coalesce) plus the five-setup pipeline.
* :mod:`repro.swp` — modulo scheduling, kernel register allocation with
  spilling, and differential encoding of software-pipelined kernels.
* :mod:`repro.machine` — cache and low-end/VLIW machine models.
* :mod:`repro.workloads` — MiBench-like kernels, a random program
  generator, and the synthetic SPEC-loop population.
* :mod:`repro.experiments` — harnesses regenerating every table and figure
  of the paper's Section 10.
* :mod:`repro.lint` — a static IR verifier: dataflow-backed well-formedness
  rules, a shared diagnostic core (:mod:`repro.diagnostics`), and
  pass-pipeline instrumentation (``--verify-each-pass``).

Quick start::

    from repro.ir import parse_function
    from repro.encoding import EncodingConfig, encode_function, verify_encoding

    fn = parse_function('''
    func f():
    entry:
        add r1, r0, r1
        add r2, r1, r2
        ret r2
    ''')
    enc = encode_function(fn, EncodingConfig(reg_n=12, diff_n=8))
    verify_encoding(enc)

See README.md and EXPERIMENTS.md for the experiment walkthrough.
"""

__version__ = "1.0.0"

from repro.diagnostics import Diagnostic, DiagnosticReport, LintError, Severity
from repro.encoding import EncodingConfig, encode_function, verify_encoding
from repro.lint import LintOptions, PassVerifier, run_lint
from repro.regalloc import SETUPS, run_setup

__all__ = [
    "Diagnostic",
    "DiagnosticReport",
    "EncodingConfig",
    "LintError",
    "LintOptions",
    "PassVerifier",
    "Severity",
    "encode_function",
    "run_lint",
    "run_setup",
    "SETUPS",
    "verify_encoding",
    "__version__",
]
