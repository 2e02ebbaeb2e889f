"""Command line interface: parsing, exit codes, artifacts."""

import json
import math
import subprocess
import sys

import pytest

from bellcat import CorrelationBreakdown, InequalityReport, SampleStats
from bellcat.cli import main

PI = math.pi

TSIRELSON_FLAGS = [
    "--a", "0,0",
    "--b", f"{PI / 4},0",
    "--c", f"{PI / 4},{PI}",
    "--d", f"{PI / 2},0",
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCorrelate:
    def test_singlet_aligned(self, capsys):
        code, out = run(capsys, "correlate", "--two-s", "1", "--a", "0,0", "--b", "0,0")
        assert code == 0
        payload = json.loads(out)
        assert payload["p_total"] == -1.0
        assert payload["mode"] == "raw"
        assert CorrelationBreakdown.from_dict(payload).p_lc == -1.0

    def test_integer_spin_reports_zero_cross_part(self, capsys):
        code, out = run(capsys, "correlate", "--two-s", "2",
                        "--a", f"{PI / 2},0", "--b", f"{PI / 2},{PI / 3}")
        assert code == 0
        assert json.loads(out)["p_nlc"] == 0.0

    def test_three_halves_benchmark(self, capsys):
        code, out = run(capsys, "correlate", "--two-s", "3",
                        "--a", f"{PI / 2},0", "--b", f"{PI / 2},{PI / 3}")
        assert code == 0
        assert json.loads(out)["p_total"] == pytest.approx(0.0625, abs=1e-15)

    def test_degrees_flag(self, capsys):
        code, out = run(capsys, "correlate", "--two-s", "1", "--degrees",
                        "--a", "0,0", "--b", "90,0")
        assert code == 0
        assert json.loads(out)["p_total"] == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_postselection_is_domain_error(self, capsys):
        code, _ = run(capsys, "correlate", "--two-s", "2", "--mode", "postselected",
                      "--a", f"{PI / 2},0", "--b", f"{PI / 2},0")
        assert code == 3

    def test_missing_direction(self, capsys):
        code, _ = run(capsys, "correlate", "--two-s", "1", "--a", "0,0")
        assert code == 2

    def test_missing_two_s(self, capsys):
        code, _ = run(capsys, "correlate", "--a", "0,0", "--b", "1,1")
        assert code == 2

    def test_bad_angle_text(self, capsys):
        code, _ = run(capsys, "correlate", "--two-s", "1", "--a", "zero,0",
                      "--b", "1,1")
        assert code == 2

    def test_csv_artifact(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, _ = run(capsys, "correlate", "--two-s", "1", "--a", "0,0",
                      "--b", "1,2", "--output", str(target), "--format", "csv")
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "p_total,p_lc,p_nlc,postselect_weight,mode"
        assert len(lines) == 2
        assert lines[1].endswith(",raw")


class TestConfigFile:
    def test_config_supplies_everything(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({
            "state": {"two_s": 1},
            "angles": [[0.0, 0.0], [0.0, 0.0]],
        }))
        code, out = run(capsys, "correlate", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["p_total"] == -1.0

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({
            "state": {"two_s": 1},
            "angles": [[0.0, 0.0], [0.0, 0.0]],
        }))
        code, out = run(capsys, "correlate", "--config", str(cfg),
                        "--b", f"{PI},0")
        assert code == 0
        assert json.loads(out)["p_total"] == pytest.approx(1.0, abs=1e-12)

    def test_unknown_top_level_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"state": {"two_s": 1}, "extra": 1}))
        code, _ = run(capsys, "correlate", "--config", str(cfg),
                      "--a", "0,0", "--b", "0,0")
        assert code == 2

    def test_unknown_nested_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"state": {"two_s": 1, "spin": 3}}))
        code, _ = run(capsys, "correlate", "--config", str(cfg),
                      "--a", "0,0", "--b", "0,0")
        assert code == 2

    def test_malformed_json(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code, _ = run(capsys, "correlate", "--config", str(cfg),
                      "--a", "0,0", "--b", "0,0")
        assert code == 2

    @pytest.mark.parametrize("section,key,value", [
        (None, None, None),
        ("state", "two_s", 1.5),
        ("state", "two_s", True),
        ("state", "two_s", "x"),
        ("state", "alpha", "x"),
        ("sweep", "resolution", 2.7),
        ("sweep", "resolution", "abc"),
        (None, "angles", [["a", 0], [0, 0], [0, 0]]),
    ])
    def test_config_numbers_have_json_number_types(self, capsys, tmp_path,
                                                   section, key, value):
        cfg = {"kind": "bell", "state": {"two_s": 1, "alpha": 0.3},
               "sweep": {"resolution": 2}}
        if key is not None:
            (cfg if section is None else cfg[section])[key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        code, out = run(capsys, "sweep", "--config", str(path))
        if key is None:
            assert code == 0
            assert json.loads(out)["evaluations"] == 64
        else:
            assert code == 2
            assert out == ""

    def test_missing_config_file_is_io_error(self, capsys, tmp_path):
        code, _ = run(capsys, "correlate", "--config", str(tmp_path / "nope.json"),
                      "--a", "0,0", "--b", "0,0")
        assert code == 4


class TestCheck:
    def test_chsh_violation_exit_code(self, capsys):
        code, out = run(capsys, "check", "--kind", "chsh", "--two-s", "1",
                        *TSIRELSON_FLAGS)
        assert code == 10
        payload = json.loads(out)
        assert payload["violated"] is True
        assert payload["lhs"] == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert payload["provenance"] == "full"
        report = InequalityReport.from_dict(
            {k: payload[k] for k in ("kind", "lhs", "rhs", "margin", "violated", "config")}
        )
        assert report.kind == "chsh"

    def test_lc_provider_satisfies(self, capsys):
        code, out = run(capsys, "check", "--kind", "chsh", "--two-s", "1",
                        "--provider", "lc", *TSIRELSON_FLAGS)
        assert code == 0
        assert json.loads(out)["violated"] is False

    def test_wigner_spin_one_violation(self, capsys):
        code, out = run(capsys, "check", "--kind", "wigner", "--two-s", "2",
                        "--provider", "lc",
                        "--a", f"{PI / 2},0", "--b", "0,0", "--c", f"{PI},0")
        assert code == 10
        payload = json.loads(out)
        assert payload["lhs"] == pytest.approx(0.5, abs=1e-12)
        assert payload["rhs"] == pytest.approx(0.25, abs=1e-12)

    def test_sampled_provider_requires_seed(self, capsys):
        code, _ = run(capsys, "check", "--kind", "chsh", "--two-s", "1",
                      "--provider", "sampled", "--n", "1000", *TSIRELSON_FLAGS)
        assert code == 2

    def test_sampled_provider_runs(self, capsys):
        code, out = run(capsys, "check", "--kind", "chsh", "--two-s", "1",
                        "--provider", "sampled", "--n", "50000", "--seed", "4",
                        *TSIRELSON_FLAGS)
        assert code == 10
        assert json.loads(out)["lhs"] == pytest.approx(2 * math.sqrt(2), abs=0.05)

    def test_missing_kind(self, capsys):
        code, _ = run(capsys, "check", "--two-s", "1", *TSIRELSON_FLAGS)
        assert code == 2

    def test_csv_artifact(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, _ = run(capsys, "check", "--kind", "bell", "--two-s", "1",
                      "--a", "0,0", "--b", f"{PI / 3},0", "--c", f"{2 * PI / 3},0",
                      "--output", str(target), "--format", "csv")
        assert code == 10
        lines = target.read_text().strip().splitlines()
        assert lines[0].startswith("kind,theta_a,phi_a")
        assert lines[1].startswith("bell,")


class TestSweep:
    def test_bell_rows_artifact(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out = run(capsys, "sweep", "--kind", "bell", "--two-s", "1",
                        "--resolution", "3", "--output", str(target),
                        "--format", "csv")
        assert code == 0
        payload = json.loads(out)
        assert payload["evaluations"] == 9 ** 3
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "kind,theta_a,phi_a,theta_b,phi_b,theta_c,phi_c,value"
        assert len(lines) == 1 + 9 ** 3

    def test_json_artifact(self, capsys, tmp_path):
        target = tmp_path / "rows.json"
        code, _ = run(capsys, "sweep", "--kind", "bell", "--two-s", "1",
                      "--resolution", "2", "--output", str(target),
                      "--format", "json")
        assert code == 0
        doc = json.loads(target.read_text())
        assert len(doc["rows"]) == 4 ** 3
        assert len(doc["rows"][0]) == 7

    def test_budget_guard_is_domain_error(self, capsys):
        code, _ = run(capsys, "sweep", "--kind", "chsh", "--two-s", "1",
                      "--resolution", "11")
        assert code == 3

    def test_requires_resolution(self, capsys):
        code, _ = run(capsys, "sweep", "--kind", "bell", "--two-s", "1")
        assert code == 2

    def test_chsh_grid_finds_tsirelson(self, capsys):
        code, out = run(capsys, "sweep", "--kind", "chsh", "--two-s", "1",
                        "--resolution", "5")
        assert code == 0
        assert json.loads(out)["best_value"] == pytest.approx(
            2 * math.sqrt(2), abs=1e-9
        )


class TestOptimize:
    def test_multistart_reaches_tsirelson(self, capsys):
        code, out = run(capsys, "optimize", "--kind", "chsh", "--two-s", "1",
                        "--starts", "20", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["best_value"] == pytest.approx(2 * math.sqrt(2), abs=1e-6)
        assert len(payload["best_config"]) == 4

    def test_grid_seeded(self, capsys):
        code, out = run(capsys, "optimize", "--kind", "chsh", "--two-s", "1",
                        "--starts", "1", "--seed", "3", "--resolution", "3")
        assert code == 0
        assert json.loads(out)["best_value"] == pytest.approx(
            2 * math.sqrt(2), abs=1e-6
        )

    def test_requires_seed(self, capsys):
        code, _ = run(capsys, "optimize", "--kind", "chsh", "--two-s", "1",
                      "--starts", "5")
        assert code == 2

    def test_csv_artifact_rejected(self, capsys, tmp_path):
        code, _ = run(capsys, "optimize", "--kind", "chsh", "--two-s", "1",
                      "--starts", "1", "--seed", "1",
                      "--output", str(tmp_path / "x.csv"), "--format", "csv")
        assert code == 2


class TestSample:
    def test_aligned_axes(self, capsys):
        code, out = run(capsys, "sample", "--two-s", "1", "--a", "0,0",
                        "--b", "0,0", "--n", "10000", "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["estimate"] == -1.0
        assert SampleStats.from_dict(payload).n_conclusive == 10000

    def test_requires_seed(self, capsys):
        code, _ = run(capsys, "sample", "--two-s", "1", "--a", "0,0",
                      "--b", "0,0", "--n", "100")
        assert code == 2

    def test_csv_artifact(self, capsys, tmp_path):
        target = tmp_path / "shots.csv"
        code, _ = run(capsys, "sample", "--two-s", "2", "--a", "0.7,0.1",
                      "--b", "1.9,2.2", "--n", "5000", "--seed", "9",
                      "--output", str(target), "--format", "csv")
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0].split(",")[:5] == ["theta_a", "phi_a", "theta_b", "phi_b", "n"]
        assert len(lines) == 2

    def test_photon_mode(self, capsys):
        code, out = run(capsys, "sample", "--two-s", "2", "--a", "0,0",
                        "--b", "0,0", "--n", "20000", "--seed", "2", "--photon")
        assert code == 0
        payload = json.loads(out)
        assert payload["stats"]["estimate"] == -1.0
        assert abs(payload["product_estimate"]) < 0.05

    def test_photon_mode_needs_spin_one(self, capsys):
        code, _ = run(capsys, "sample", "--two-s", "1", "--a", "0,0",
                      "--b", "0,0", "--n", "100", "--seed", "2", "--photon")
        assert code == 3

    def test_postselect_zero_weight_is_domain_error(self, capsys):
        code, _ = run(capsys, "sample", "--two-s", "2", "--a", f"{PI / 2},0",
                      "--b", f"{PI / 2},0", "--n", "100", "--seed", "1",
                      "--postselect")
        assert code == 3


class TestCoherent:
    def test_equator_spin_one(self, capsys):
        code, out = run(capsys, "coherent", "--two-s", "2", "--dir",
                        f"{PI / 2},0")
        assert code == 0
        payload = json.loads(out)
        amps = [complex(re, im) for re, im in payload["amplitudes"]]
        assert amps[0] == pytest.approx(0.5, abs=1e-12)
        assert amps[1] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert payload["m_values"] == [1.0, 0.0, -1.0]

    def test_minus_sign(self, capsys):
        code, out = run(capsys, "coherent", "--two-s", "1", "--dir", "0,0",
                        "--sign", "-")
        assert code == 0
        amps = json.loads(out)["amplitudes"]
        assert amps[1][0] == pytest.approx(-1.0, abs=1e-12)

    def test_bad_sign(self, capsys):
        code, _ = run(capsys, "coherent", "--two-s", "1", "--dir", "0,0",
                      "--sign", "x")
        assert code == 2

    def test_requires_direction(self, capsys):
        code, _ = run(capsys, "coherent", "--two-s", "1")
        assert code == 2

    def test_takes_no_cat_coefficients(self, capsys):
        code, _ = run(capsys, "coherent", "--two-s", "2", "--alpha", "0.3",
                      "--dir", "0,0")
        assert code == 2


class TestTopLevel:
    def test_version(self, capsys):
        code, out = run(capsys, "version")
        assert code == 0
        assert out.strip() == "0.1.0"

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_non_integer_spin_flag(self, capsys):
        assert main(["correlate", "--two-s", "1.5", "--a", "0,0", "--b", "0,0"]) == 2

    def test_unwritable_output_is_io_error(self, capsys):
        code, _ = run(capsys, "correlate", "--two-s", "1", "--a", "0,0",
                      "--b", "0,0", "--output", "/nonexistent/dir/out.json")
        assert code == 4

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bellcat", "version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"
