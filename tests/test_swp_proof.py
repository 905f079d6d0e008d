"""The SWP study proves every kernel it encodes (Section 8.1).

``_evaluate_loop`` replays each remapped kernel through the differential
decoder with the promoted ``set_last_reg`` repairs in front; a report that
disagrees with its kernel stops ``run_swp_experiment`` and ``repro swp``.
"""

import dataclasses

import pytest

import repro.experiments.swp as swp
from repro.cli import main
from repro.diagnostics import LintError
from repro.workloads.spec_loops import generate_loop

REG_NS = (32, 40)


@pytest.fixture(scope="module")
def spilling_loop():
    """A loop that spills at 32 registers, with its one clean report."""
    spec = generate_loop(202, big=True)
    reports = []

    def record(*args, **kwargs):
        reports.append(encode(*args, **kwargs))
        return reports[-1]

    encode = swp.encode_kernel
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(swp, "encode_kernel", record)
        exp = swp.run_swp_experiment(population=[spec], reg_ns=REG_NS,
                                     remap_restarts=2)
    (report,) = reports
    assert exp.loops[0].optimized and report.n_setlr > 0
    assert exp.loops[0].setlr[40] == report.n_setlr + report.enable_overhead
    return spec, report


def _drop_repair(rep):
    return dataclasses.replace(rep, setlr_positions=rep.setlr_positions[1:])


def _not_bijective(rep):
    perm = list(rep.permutation)
    perm[perm.index(1)] = 0
    return dataclasses.replace(rep, permutation=tuple(perm))


def _count_off_by_one(rep):
    return dataclasses.replace(
        rep, n_out_of_range_after=rep.n_out_of_range_after + 1)


MUTATIONS = {
    "dropped repair": (_drop_repair, "no promoted set_last_reg repairs it"),
    "no bijection": (_not_bijective, "not a bijection"),
    "count off by one": (_count_off_by_one, "the replay needs"),
}


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_wrong_kernel_report_stops_the_study(spilling_loop, monkeypatch,
                                             mutation):
    spec, report = spilling_loop
    mutate, message = MUTATIONS[mutation]
    monkeypatch.setattr(swp, "encode_kernel",
                        lambda *args, **kwargs: mutate(report))
    with pytest.raises(LintError, match=message) as exc:
        swp.run_swp_experiment(population=[spec], reg_ns=REG_NS,
                               remap_restarts=2)
    assert f"{spec.name} at RegN=40" in str(exc.value)


def test_repro_swp_exits_nonzero_on_a_wrong_kernel(spilling_loop,
                                                   monkeypatch, capsys):
    spec, report = spilling_loop
    monkeypatch.setattr(swp, "generate_loop_population",
                        lambda n, seed: [spec])
    monkeypatch.setattr(swp, "encode_kernel",
                        lambda *args, **kwargs: _drop_repair(report))
    assert main(["swp", "--loops", "1", "--jobs", "1"]) == 1
    assert "no promoted set_last_reg repairs it" in capsys.readouterr().err
