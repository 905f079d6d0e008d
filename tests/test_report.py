"""Combined-report generator tests."""

import pytest

from repro.experiments import generate_report
from repro.experiments.reporting import Table
from repro.workloads import MIBENCH


@pytest.fixture(scope="module")
def report():
    return generate_report(workloads=MIBENCH[:2], n_loops=12,
                           remap_restarts=2, include_sweep=False,
                           include_alternatives=False)


class TestReport:
    def test_contains_both_studies(self, report):
        assert "Figure 11" in report
        assert "Figure 14" in report
        assert "Table 2" in report
        assert "Table 3" in report

    def test_contains_paper_reference_values(self, report):
        assert "10.44" in report  # the paper's Figure 11 baseline average
        assert "17.24" in report  # the paper's Table 2 endpoint

    def test_deterministic(self):
        a = generate_report(workloads=MIBENCH[:1], n_loops=6,
                            remap_restarts=2, include_sweep=False,
                            include_alternatives=False)
        b = generate_report(workloads=MIBENCH[:1], n_loops=6,
                            remap_restarts=2, include_sweep=False,
                            include_alternatives=False)
        assert a == b

    def test_jobs_reach_alternatives_study(self, monkeypatch):
        import repro.experiments.alternatives as alternatives_mod

        seen = {}

        class Study:
            def table(self):
                return Table("alternatives table", ["option"])

        def fake_study(**kw):
            seen.update(kw)
            return Study()

        monkeypatch.setattr(alternatives_mod, "run_alternatives_study",
                            fake_study)
        text = generate_report(workloads=MIBENCH[:1], n_loops=2,
                               remap_restarts=2, include_sweep=False,
                               jobs=2)
        assert seen["jobs"] == 2
        assert "alternatives table" in text

    def test_deprecated_report_alias_is_gone(self):
        """``repro.experiments.report`` completed its deprecation cycle;
        ``repro.experiments.reporting`` is the only module."""
        with pytest.raises(ImportError):
            import repro.experiments.report  # noqa: F401

    def test_cli_report_to_file(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        import repro.experiments.reporting as reporting_mod

        def tiny_report(**kw):
            return "tiny"

        monkeypatch.setattr(reporting_mod, "generate_report", tiny_report)
        # the CLI imports the symbol lazily from the module, so the patch
        # takes effect
        out = tmp_path / "results.md"
        assert main(["report", "--out", str(out), "--loops", "6",
                     "--restarts", "2"]) == 0
        assert out.read_text().strip() == "tiny"
