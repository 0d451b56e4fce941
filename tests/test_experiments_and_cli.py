"""Tests for the experiment harness, report rendering, and the CLI."""

import pytest

from repro.config import EXPERIMENT_IDS, TEST_UNIVERSE
from repro.cli import main
from repro.errors import ExperimentError
from repro.experiments import (
    EXPERIMENTS,
    ExperimentContext,
    Report,
    render_table,
    run_experiment,
)


@pytest.fixture(scope="module")
def context():
    return ExperimentContext.build(TEST_UNIVERSE)


class TestReportRendering:
    def test_render_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 1000, "b": "z"}]
        text = render_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # aligned

    def test_render_table_empty(self):
        assert render_table([]) == "(no rows)"

    def test_render_table_max_rows(self):
        rows = [{"a": i} for i in range(10)]
        text = render_table(rows, max_rows=3)
        assert "7 more rows" in text

    def test_report_render_includes_notes_and_series(self):
        report = Report(
            experiment_id="x",
            title="T",
            rows=[{"a": 1}],
            notes=["hello"],
            series={"s": ([1.0, 2.0], [3.0, 4.0])},
        )
        text = report.render()
        assert "== x: T ==" in text
        assert "note: hello" in text
        assert "series 's'" in text

    def test_number_formatting(self):
        text = render_table([{"v": 1234567}])
        assert "1,234,567" in text


class TestExperimentRegistry:
    def test_all_ten_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "table3", "table4", "table5", "table6", "table7",
            "table8", "table9", "fig7", "fig8", "fig9",
        }

    def test_cli_choices_are_the_registry(self):
        """The parser offers :data:`EXPERIMENT_IDS` so as not to import
        the harness; they must be the registry's ids, in its order."""
        assert list(EXPERIMENT_IDS) == list(EXPERIMENTS)

    def test_unknown_experiment_raises(self, context):
        with pytest.raises(ExperimentError):
            run_experiment("table99", context=context)

    @pytest.mark.parametrize(
        "experiment_id",
        ["table3", "table4", "table5", "table7", "table8", "table9",
         "fig8", "fig9"],
    )
    def test_experiment_produces_rows(self, context, experiment_id):
        report = run_experiment(experiment_id, context=context)
        assert report.experiment_id == experiment_id
        assert report.rows
        assert report.render()

    def test_fig7_produces_series(self, context):
        report = run_experiment("fig7", context=context)
        assert "singletons" in report.series
        assert "as2org" in report.series

    def test_table6_has_eighteen_rows(self, context):
        # baseline + as2org+ + 15 non-empty feature subsets... the empty
        # subset is skipped, so 2 + 15 = 17 rows.
        report = run_experiment("table6", context=context)
        assert len(report.rows) == 17

    def test_table6_full_borges_beats_baseline(self, context):
        report = run_experiment("table6", context=context)
        by_method = {row["method"]: row for row in report.rows}
        full = by_method["OID_P + N&A + R&R + F"]
        baseline = by_method["AS2Org (baseline)"]
        assert full["theta"] > baseline["theta"]

    def test_table6_monotone_in_features(self, context):
        # Adding features never lowers theta (clusters only grow).
        report = run_experiment("table6", context=context)
        by_method = {row["method"]: row["theta"] for row in report.rows}
        assert by_method["OID_P + N&A + R&R + F"] >= by_method["OID_P"]
        assert by_method["OID_P + R&R"] >= by_method["R&R"]


class TestCLI:
    ARGS = ["--seed", "7", "--orgs", "400"]

    def test_compare(self, capsys):
        assert main(self.ARGS + ["compare"]) == 0
        out = capsys.readouterr().out
        assert "AS2Org" in out and "Borges" in out

    def test_run_with_feature_subset(self, capsys):
        assert main(self.ARGS + ["run", "--features", "oid_p"]) == 0
        out = capsys.readouterr().out
        assert "organization factor" in out

    def test_run_saves_mapping(self, tmp_path, capsys):
        path = tmp_path / "mapping.json"
        assert main(self.ARGS + ["run", "--save-mapping", str(path)]) == 0
        assert path.exists()
        from repro.core.mapping import OrgMapping

        mapping = OrgMapping.load(path)
        assert len(mapping) > 0

    def test_experiment_single(self, capsys):
        assert main(self.ARGS + ["experiment", "table3"]) == 0
        assert "table3" in capsys.readouterr().out

    def test_generate_exports_datasets(self, tmp_path, capsys):
        out_dir = tmp_path / "data"
        assert main(self.ARGS + ["generate", "--out", str(out_dir)]) == 0
        assert (out_dir / "peeringdb_snapshot.json").exists()
        assert (out_dir / "as2org.jsonl").exists()
        assert (out_dir / "apnic_population.csv").exists()

    def test_exported_datasets_load_back(self, tmp_path, capsys):
        out_dir = tmp_path / "data"
        main(self.ARGS + ["generate", "--out", str(out_dir)])
        from repro.apnic import ApnicDataset
        from repro.peeringdb import load_snapshot
        from repro.whois import load_as2org_file

        snapshot = load_snapshot(out_dir / "peeringdb_snapshot.json")
        whois = load_as2org_file(out_dir / "as2org.jsonl")
        apnic = ApnicDataset.load_csv(out_dir / "apnic_population.csv")
        assert len(snapshot) > 0
        assert len(whois) > len(snapshot)
        assert apnic.total_users > 0

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestExtensionCLI:
    ARGS = ["--seed", "7", "--orgs", "400"]

    def test_explain_pair(self, capsys):
        assert main(self.ARGS + ["explain", "3356", "209"]) == 0
        out = capsys.readouterr().out
        assert "siblings" in out
        assert "evidence" in out

    def test_explain_single_asn(self, capsys):
        assert main(self.ARGS + ["explain", "3356"]) == 0
        out = capsys.readouterr().out
        assert "belongs to" in out

    def test_explain_unknown_asn(self, capsys):
        assert main(self.ARGS + ["explain", "999999999"]) == 1

    def test_explain_non_siblings(self, capsys):
        assert main(self.ARGS + ["explain", "262287", "174"]) == 0
        assert "NOT" in capsys.readouterr().out

    def test_evolution(self, capsys):
        assert main(self.ARGS + ["evolution"]) == 0
        out = capsys.readouterr().out
        assert "pending M&A" in out
        assert "merge events" in out

    def test_compare_includes_chen(self, capsys):
        assert main(self.ARGS + ["compare"]) == 0
        assert "chen-mismatch" in capsys.readouterr().out

    def test_run_from_datasets(self, tmp_path, capsys):
        out_dir = tmp_path / "ds"
        main(self.ARGS + ["generate", "--out", str(out_dir)])
        capsys.readouterr()
        assert main(["run", "--from-datasets", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "oid_p" in out and "notes_aka" in out
        assert "organization factor" in out

    def test_run_from_datasets_explicit_features(self, tmp_path, capsys):
        out_dir = tmp_path / "ds"
        main(self.ARGS + ["generate", "--out", str(out_dir)])
        capsys.readouterr()
        assert main(
            ["run", "--from-datasets", str(out_dir), "--features", "oid_p"]
        ) == 0
        assert "organization factor" in capsys.readouterr().out

    def test_run_save_as2org(self, tmp_path, capsys):
        path = tmp_path / "release.jsonl"
        assert main(self.ARGS + ["run", "--save-as2org", str(path)]) == 0
        assert path.exists()
        from repro.whois import load_as2org_file

        assert len(load_as2org_file(path)) > 0
