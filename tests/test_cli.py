"""Command line interface: parsing, exit codes, artifacts."""

import ast
import contextlib
import hashlib
import io
import json
import math
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import bellcat.cli
from bellcat import (CATEGORIES, INEQUALITIES, CatCoefficients, CatState,
                     DegeneratePostselectionError, Direction, SpinQuantum, check, correlation,
                     full_provider, grid_sweep, sample_outcomes, singlet)
from bellcat.cli import _COMMANDS, _CONFIG, _OPTIONS, _csv_line, _sweep_pieces, main

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


def flags_for(dirs):
    return [x for label, d in zip("abcd", dirs) for x in (f"--{label}", f"{d.theta},{d.phi}")]


# Per command, flags that make a run succeed; a case below drops the flag it sets.
BASES = {
    "correlate": {"--two-s": "3", "--alpha": "0.5", "--gamma1": "0.2", "--gamma2": "-0.3",
                  "--a": "0.4,0.2", "--b": "2.1,5.0", "--mode": "postselected",
                  "--output": "artifact", "--format": "json"},
    "check": {"--kind": "chsh", "--two-s": "1",
              **dict(zip(TSIRELSON_FLAGS[::2], TSIRELSON_FLAGS[1::2]))},
    "sweep": {"--kind": "chsh", "--two-s": "1", "--resolution": "2"},
    "optimize": {"--kind": "chsh", "--two-s": "1", "--starts": "1", "--seed": "2",
                 "--max-iter": "40"},
    "sample": {"--two-s": "2", "--a": "0.4,0.2", "--b": "2.1,5.0", "--n": "300", "--seed": "5"},
}

# config key -> (command, a value, a different value)
CONFIG_CASES = {
    "kind": ("sweep", "quadratic", "chsh"),
    "provider": ("check", "lc", "full"),
    "mode": ("correlate", "raw", "postselected"),
    "state.two_s": ("correlate", 1, 3),
    "state.alpha": ("correlate", 0.3, -0.2),
    "state.gamma1": ("correlate", 0.4, 1.1),
    "state.gamma2": ("correlate", 0.4, 1.1),
    "sweep.resolution": ("sweep", 3, 2),
    "optimize.starts": ("optimize", 2, 1),
    "optimize.seed": ("optimize", 3, 4),
    "optimize.max_iter": ("optimize", 5, 50),
    "optimize.tol": ("optimize", 0.1, 1e-10),
    "optimize.resolution": ("optimize", 3, 2),
    "sample.n": ("sample", 200, 300),
    "sample.seed": ("sample", 6, 5),
    "sample.postselect": ("sample", True, False),
    "sample.photon": ("sample", True, False),
    "output.path": ("correlate", "chosen", "other"),
    "output.format": ("correlate", "csv", "json"),
}


class TestCorrelate:
    def test_singlet_aligned(self, capsys):
        code, out = run(capsys, "correlate", "--two-s", "1", "--a", "0,0", "--b", "0,0")
        assert code == 0
        payload = json.loads(out)
        assert payload["p_total"] == -1.0
        assert payload["mode"] == "raw"
        assert payload["p_lc"] == -1.0

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

    @pytest.mark.parametrize("text", ["1,2,3", "1", ""])
    def test_direction_needs_two_angles(self, capsys, text):
        code, out = run(capsys, "correlate", "--two-s", "1", "--a", text, "--b", "0,0")
        assert (code, out) == (2, "")

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

    def test_csv_artifact_bytes(self, capsys, tmp_path):
        state = CatState(SpinQuantum(3), CatCoefficients(0.3, 0.2, 1.1))
        a, b = Direction(0.7, 0.1), Direction(1.9, 2.2)
        r = correlation(state, a, b, mode="postselected")
        target = tmp_path / "out.csv"
        code, _ = run(capsys, "correlate", "--two-s", "3", "--alpha", "0.3", "--gamma1", "0.2",
                      "--gamma2", "1.1", *flags_for((a, b)), "--mode", "postselected",
                      "--output", str(target), "--format", "csv")
        assert code == 0
        assert target.read_text() == (
            "p_total,p_lc,p_nlc,postselect_weight,mode\n"
            f"{r.p_total!r},{r.p_lc!r},{r.p_nlc!r},{r.postselect_weight!r},postselected\n"
        )


class TestConfigFile:
    def test_config_keys_and_types(self):
        assert _CONFIG == {
            "kind": tuple(INEQUALITIES),
            "provider": ("lc", "full", "sampled"),
            "mode": ("raw", "postselected"),
            "angles": list,
            "state": {"two_s": int, "alpha": float, "gamma1": float, "gamma2": float},
            "sweep": {"resolution": int},
            "optimize": {"starts": int, "seed": int, "max_iter": int, "tol": float,
                         "resolution": int},
            "sample": {"n": int, "seed": int, "postselect": bool, "photon": bool},
            "output": {"path": str, "format": ("json", "csv")},
        }

    @pytest.mark.parametrize("dest,key", [
        (dest, key) for dest, (_flag, keys, *_) in _OPTIONS.items() for key in keys.split()
    ], ids=lambda x: x)
    def test_config_key_means_what_its_flag_means(self, capsys, tmp_path, monkeypatch,
                                                 dest, key):
        command, value, other = CONFIG_CASES[key]
        flag = _OPTIONS[dest][0]
        base = [command, *(x for item in BASES[command].items() if item[0] != flag
                           for x in item)]

        def given(v):
            return [flag] if v is True else [] if v is False else [flag, str(v)]

        def outcome(name, argv, config_value=None):
            # exit code, stdout and the files written, run in a fresh directory
            work = tmp_path / name
            work.mkdir()
            if config_value is not None:
                section, _, leaf = key.rpartition(".")
                doc = {section: {leaf: config_value}} if section else {leaf: config_value}
                (tmp_path / f"{name}.json").write_text(json.dumps(doc))
                argv = [*argv, "--config", str(tmp_path / f"{name}.json")]
            monkeypatch.chdir(work)
            code = main(argv)
            return code, capsys.readouterr().out, {p.name: p.read_bytes()
                                                   for p in work.iterdir()}

        by_flag = outcome("flag", [*base, *given(value)])
        assert by_flag[0] in (0, 10)
        assert outcome("config", base, value) == by_flag
        assert outcome("both", [*base, *given(value)], other) == by_flag
        assert outcome("other", base, other) != by_flag

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

    @pytest.mark.parametrize("doc", [{"state": 1}, {"state": {"two_s": 1}, "sweep": [2]},
                                     [{"state": {"two_s": 1}}], "x", 3])
    def test_config_must_be_objects(self, capsys, tmp_path, doc):
        # a section that is not an object, or a file whose top level is not
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        code, out = run(capsys, "correlate", "--config", str(cfg), "--two-s", "1",
                        "--a", "0,0", "--b", "0,0")
        assert (code, out) == (2, "")

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

    @pytest.mark.parametrize("section,key,value", [
        (None, None, None),
        ("sample", "postselect", "no"),
        ("sample", "photon", "false"),
        ("sample", "postselect", 1),
        ("output", "path", True),
        ("output", "format", "xml"),
        (None, "mode", "bogus"),
        (None, "provider", 3),
        (None, "kind", "bel"),
    ])
    def test_config_values_are_typed(self, capsys, tmp_path, section, key, value):
        cfg = {"state": {"two_s": 2}, "angles": [[0.7, 0.1], [1.9, 2.2]],
               "sample": {"n": 100, "seed": 1, "postselect": True, "photon": False},
               "output": {}}
        if key is not None:
            (cfg if section is None else cfg[section])[key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        code, out = run(capsys, "sample", "--config", str(path))
        if key is None:
            assert code == 0
            assert json.loads(out)["postselect"] is True
        else:
            assert (code, out) == (2, "")

    def test_bad_output_format_fails_before_search(self, capsys, tmp_path, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr("bellcat.cli.multistart_refine", no_search)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"output": {"path": str(tmp_path / "x"), "format": "xml"}}))
        code, out = run(capsys, "optimize", "--config", str(path), "--kind", "chsh",
                        "--two-s", "1", "--starts", "1", "--seed", "1")
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("provider,code", [("lc", 2), ("sampled", 2), ("full", 10)])
    def test_config_mode_needs_full_provider(self, capsys, tmp_path, provider, code):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"mode": "postselected", "sample": {"n": 100, "seed": 1}}))
        assert main(["check", "--config", str(path), "--kind", "chsh", "--two-s", "1",
                     "--provider", provider, *TSIRELSON_FLAGS]) == code

    def test_shared_sample_postselect_leaves_full_provider_alone(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"sample": {"n": 100, "seed": 1, "postselect": True}}))
        code, out = run(capsys, "check", "--config", str(path), "--kind", "chsh",
                        "--two-s", "1", "--provider", "full", *TSIRELSON_FLAGS)
        assert code == 10
        assert json.loads(out)["provenance"] == "full"

    def test_missing_config_file_is_io_error(self, capsys, tmp_path):
        code, _ = run(capsys, "correlate", "--config", str(tmp_path / "nope.json"),
                      "--a", "0,0", "--b", "0,0")
        assert code == 4


class TestCheck:
    @pytest.mark.parametrize("two_s", [2, 4])
    @pytest.mark.parametrize("kind", sorted(INEQUALITIES))
    def test_undefined_postselected_pair_is_domain_error(self, capsys, kind, two_s):
        # the searches read such a pair as NaN; check refuses it with the
        # message correlate gives
        equator = Direction(PI / 2, 0.0)
        with pytest.raises(DegeneratePostselectionError) as exc:
            correlation(singlet(SpinQuantum(two_s)), equator, equator, "postselected")
        dirs = flags_for([equator] * INEQUALITIES[kind].arity)
        code = main(["check", "--kind", kind, "--two-s", str(two_s), "--mode", "postselected",
                     *dirs])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (3, "", f"domain error: {exc.value}\n")

    def test_chsh_violation_exit_code(self, capsys):
        code, out = run(capsys, "check", "--kind", "chsh", "--two-s", "1",
                        *TSIRELSON_FLAGS)
        assert code == 10
        payload = json.loads(out)
        assert payload["violated"] is True
        assert payload["lhs"] == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert payload["provenance"] == "full"
        assert payload["kind"] == "chsh"

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

    def test_direction_beyond_the_arity(self, capsys):
        code, out = run(capsys, "check", "--kind", "bell", "--two-s", "1", *TSIRELSON_FLAGS)
        assert (code, out) == (2, "")

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

    @pytest.mark.parametrize("kind,dirs,header", [
        ("bell", (Direction(0.1, 0.2), Direction(1.3, 4.5), Direction(2.2, 0.9)),
         "kind,theta_a,phi_a,theta_b,phi_b,theta_c,phi_c,lhs,rhs,margin,violated"),
        ("chsh", (Direction(0.0, 0.0), Direction(PI / 4, 0.0), Direction(PI / 4, PI),
                  Direction(PI / 2, 0.0)),
         "kind,theta_a,phi_a,theta_b,phi_b,theta_c,phi_c,theta_d,phi_d,"
         "lhs,rhs,margin,violated"),
    ], ids=["bell", "chsh"])
    def test_csv_artifact_bytes(self, capsys, tmp_path, kind, dirs, header):
        r = check(full_provider(singlet(SpinQuantum(1))), kind, *dirs)
        target = tmp_path / "report.csv"
        code, _ = run(capsys, "check", "--kind", kind, "--two-s", "1", *flags_for(dirs),
                      "--output", str(target), "--format", "csv")
        assert code == (10 if r.violated else 0)
        angles = ",".join(repr(v) for d in dirs for v in (d.theta, d.phi))
        violated = "true" if r.violated else "false"
        assert target.read_text() == (
            f"{header}\n{kind},{angles},{r.lhs!r},{r.rhs!r},{r.margin!r},{violated}\n"
        )
        assert r.violated or kind != "chsh"

    @pytest.mark.parametrize("flags,provider", [
        (["--provider", "lc", "--mode", "postselected"], "lc"),
        (["--provider", "sampled", "--n", "100", "--seed", "1", "--mode", "postselected"],
         "sampled"),
        (["--provider", "lc", "--postselect"], "lc"),
        (["--provider", "full", "--postselect"], "full"),
    ])
    def test_provider_rejects_switch_it_would_ignore(self, capsys, flags, provider):
        code = main(["check", "--kind", "chsh", "--two-s", "1", *TSIRELSON_FLAGS, *flags])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert f"provider {provider!r}" in captured.err


class TestSweep:
    @pytest.mark.parametrize("two_s", ["2", "4"])
    @pytest.mark.parametrize("kind", sorted(INEQUALITIES))
    def test_undefined_postselected_pairs_do_not_end_the_search(self, capsys, kind, two_s):
        # odd grids hold equatorial pairs with no conclusive weight
        for provider in (["--mode", "postselected"],
                         ["--provider", "sampled", "--postselect", "--n", "100", "--seed", "1"]):
            for resolution in ("3", "5"):
                code, out = run(capsys, "sweep", "--kind", kind, "--two-s", two_s,
                                "--resolution", resolution, *provider)
                assert code == 0
                assert math.isfinite(json.loads(out)["best_value"])

    @pytest.mark.parametrize("command", [["sweep", "--resolution", "3"],
                                         ["optimize", "--starts", "1"]],
                             ids=["sweep", "optimize"])
    def test_sampled_provider_total_shots_exit_3(self, capsys, monkeypatch, command):
        # the provider counts its shots; the second 600-shot pair would pass
        # the limit, so nothing is printed
        monkeypatch.setattr("bellcat.sampling.SHOT_LIMIT", 1000)
        code = main([*command, "--kind", "chsh", "--two-s", "1", "--provider", "sampled",
                     "--n", "600", "--seed", "7"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert "shot limit" in captured.err

    @pytest.mark.parametrize("n, message", [("0", "n must be >= 1, got 0"),
                                            ("10000000001", "shot limit")])
    @pytest.mark.parametrize("command", [["sweep", "--resolution", "-11"],
                                         ["optimize", "--starts", "0"]],
                             ids=["sweep", "optimize"])
    def test_sampled_provider_refuses_n_first(self, capsys, monkeypatch, command, n, message):
        # the provider refuses n when it is built, before the sweep or the
        # search checks its own arguments
        def no_draw(*args, **kwargs):
            raise AssertionError("shots were drawn")

        monkeypatch.setattr("bellcat.rng.integers", no_draw)
        code = main([*command, "--kind", "chsh", "--two-s", "1", "--provider", "sampled",
                     "--n", n, "--seed", "7"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert message in captured.err

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("kind,two_s,mode", [
        ("bell", 1, "raw"), ("chsh", 3, "postselected"), ("wigner", 2, "raw"),
        ("quadratic", 1, "postselected"),
    ])
    def test_artifact_bytes(self, capsys, tmp_path, fmt, kind, two_s, mode):
        # the rows as the library emits them, laid out by the csv and json
        # writers the artifact must match byte for byte
        target = tmp_path / f"rows.{fmt}"
        state = CatState(SpinQuantum(two_s), CatCoefficients(0.3, -1.1, 2.5))
        code, out = run(capsys, "sweep", "--kind", kind, "--two-s", str(two_s),
                        "--alpha", "0.3", "--gamma1", "-1.1", "--gamma2", "2.5",
                        "--mode", mode, "--resolution", "3", "--output", str(target),
                        "--format", fmt)
        assert code == 0
        rows = []

        def expand(block, angles):
            # the block of one first direction, as rows [*angles, value]
            ia = len(rows) // block.size
            for rest in np.ndindex(block.shape):
                rows.append([v for i in (ia, *rest) for v in angles[i]] + [float(block[rest])])

        grid_sweep(full_provider(state, mode), kind, 3, sink=expand)
        if fmt == "csv":
            arity = len(rows[0]) // 2
            header = "kind," + ",".join(f"theta_{x},phi_{x}" for x in "abcd"[:arity])
            lines = [header + ",value"] + [",".join([kind, *map(repr, r)]) for r in rows]
            expected = "".join(line + "\n" for line in lines)
        else:
            expected = json.dumps({"result": json.loads(out), "rows": rows}, indent=2) + "\n"
        assert target.read_text() == expected

    def test_budget_guard_is_domain_error(self, capsys, tmp_path, monkeypatch):
        def no_grid(*args):
            raise AssertionError("the grid was built")

        # refused before any work: no grid, nothing on stdout, no artifact
        monkeypatch.setattr("bellcat.optimize._grid_directions", no_grid)
        target = tmp_path / "rows.csv"
        code = main(["sweep", "--kind", "chsh", "--two-s", "1", "--resolution", "11",
                     "--output", str(target), "--format", "csv"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("domain error: resolution 11")
        assert not target.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_export_row_limit_checked_before_the_sweep(self, capsys, tmp_path, monkeypatch,
                                                       source):
        def no_grid(*args):
            raise AssertionError("the grid was built")

        def export(resolution, target):
            cfg = tmp_path / "scenario.json"
            cfg.write_text(json.dumps({"output": {"path": str(target)}}))
            where = ["--output", str(target)] if source == "flag" else ["--config", str(cfg)]
            return main(["sweep", "--kind", "bell", "--two-s", "1", "--resolution",
                         str(resolution), *where])

        monkeypatch.setattr("bellcat.optimize.EXPORT_ROW_LIMIT", 4 ** 3)
        code, out = run(capsys, "sweep", "--kind", "bell", "--two-s", "1", "--resolution", "3")
        assert code == 0 and json.loads(out)["evaluations"] == 9 ** 3
        assert export(2, tmp_path / "at_limit.json") == 0
        assert len(json.loads((tmp_path / "at_limit.json").read_text())["rows"]) == 4 ** 3
        capsys.readouterr()
        monkeypatch.setattr("bellcat.optimize._grid_directions", no_grid)
        target = tmp_path / "over_limit.json"
        code = export(3, target)
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("domain error: resolution 3 gives 729 rows")
        assert not target.exists()

    @pytest.mark.parametrize("output", [False, True], ids=["plain", "output"])
    @pytest.mark.parametrize("resolution", ["-11", str(10 ** 41)])
    def test_resolution_checked_before_the_size(self, capsys, tmp_path, resolution, output):
        target = tmp_path / "x.csv"
        code = main(["sweep", "--kind", "chsh", "--two-s", "1", "--resolution", resolution,
                     *(["--output", str(target)] if output else [])])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        what = "rows for a chsh export" if output else "combinations for chsh"
        assert captured.err == ("domain error: resolution must be >= 1, got -11\n"
                                if resolution == "-11" else
                                f"domain error: resolution {resolution} gives more than 1e+308 "
                                f"{what}, limit is {'1e+07' if output else '1e+08'}\n")
        assert not target.exists()

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


# Values a sweep artifact must spell exactly: both zeros, NaNs with a sign
# or a payload, both infinities, subnormals and ordinary values.
SPECIAL_VALUES = [0.0, -0.0, math.nan, -math.nan,
                  struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0001))[0],
                  math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.0, -2.5]


@st.composite
def sweep_blocks(draw):
    """(kind, grid angles, blocks) as grid_sweep's sink receives them, with
    values drawn from a small pool so that blocks repeat values."""
    kind = draw(st.sampled_from(list(INEQUALITIES)))
    arity = INEQUALITIES[kind].arity
    g = draw(st.sampled_from([1, 4]))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    angles = draw(st.lists(st.tuples(finite, finite), min_size=g, max_size=g))
    specials = draw(st.permutations(SPECIAL_VALUES))[:draw(st.integers(1, len(SPECIAL_VALUES)))]
    pool = specials + draw(st.lists(st.floats(), max_size=3))
    n = g ** (arity - 1)
    blocks = [np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
                       dtype=np.float64).reshape((g,) * (arity - 1)) for _ in range(g)]
    if draw(st.booleans()):
        blocks = [np.asfortranarray(block) for block in blocks]
    return kind, angles, blocks


class TestSweepExport:
    @settings(max_examples=300, deadline=None)
    @given(sweep_blocks(), st.sampled_from(["csv", "json"]))
    @example(("bell", [(0.0, 0.0)], [np.array([[-0.0]])]), "csv")
    @example(("chsh", [(0.0, 0.0), (1.5, 3.0), (0.5, 0.25), (3.0, 6.0)],
              [np.array([0.0, -0.0, math.nan, -math.inf] * 16).reshape(4, 4, 4)] * 4), "json")
    def test_block_text_equals_per_row_layout(self, case, fmt):
        kind, angles, blocks = case
        arity = INEQUALITIES[kind].arity
        payload = {"kind": kind, "best_value": 1.5, "evaluations": len(angles) ** arity}
        rows = [[*(v for i in (ia, *rest) for v in angles[i]), float(block[rest])]
                for ia, block in enumerate(blocks) for rest in np.ndindex(block.shape)]
        if fmt == "csv":
            header = "kind," + ",".join(f"theta_{x},phi_{x}" for x in "abcd"[:arity]) + ",value"
            expected = "".join(line + "\n" for line in
                               [header] + [_csv_line((kind, *row)) for row in rows])
        else:
            expected = json.dumps({"result": payload, "rows": rows}, indent=2) + "\n"
        pieces = list(_sweep_pieces(fmt, kind, payload, [(b, angles) for b in blocks]))
        # compared line by line: pytest's diff of two long strings is slow
        assert "".join(pieces).split("\n") == expected.split("\n")
        # the opening, one piece per block, the closing
        assert len(pieces) == 2 + len(blocks)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unwritable_output_prints_the_payload_then_exits_4(self, capsys, tmp_path, fmt):
        target = tmp_path / "missing" / f"rows.{fmt}"
        code = main(["sweep", "--kind", "chsh", "--two-s", "1", "--resolution", "2",
                     "--output", str(target), "--format", fmt])
        captured = capsys.readouterr()
        assert code == 4
        assert json.loads(captured.out)["evaluations"] == 4 ** 4
        assert captured.err.startswith("I/O error: ")
        assert not target.parent.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_export_memory_is_bounded(self, capsys, tmp_path, fmt):
        # resolution 4 gives 16 grid directions: chsh has 16^4 rows, in 16
        # blocks of 16^3.  A row is 9 numbers, each at most 24 characters.
        rows, block_rows = 16 ** 4, 16 ** 3
        row_chars = {"csv": len("chsh,") + 9 * 24 + 9,
                     "json": len("    [\n      ") + 9 * 24 + 8 * len(",\n      ")
                     + len("\n    ],\n")}[fmt]
        # The blocks at 8 B per row; three texts no larger than one block's
        # (the block's text, its encoded bytes and the text of the trailing
        # directions); 1 MB for what does not grow with the grid.
        bound = 8 * rows + 3 * block_rows * row_chars + 2 ** 20
        argv = ["sweep", "--kind", "chsh", "--two-s", "3", "--alpha", "0.3", "--gamma1", "-1.1",
                "--resolution", "4", "--output", str(tmp_path / f"rows.{fmt}"), "--format", fmt]
        assert main(argv) == 0  # first-call caches are not the export's memory
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < bound, f"peak {peak} B, bound {bound} B"


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

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_csv_artifact_rejected_before_search(self, capsys, tmp_path, monkeypatch, source):
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr("bellcat.cli.multistart_refine", no_search)
        target = tmp_path / "x.csv"
        if source == "flags":
            extra = ["--output", str(target), "--format", "csv"]
        else:
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps({"output": {"path": str(target), "format": "csv"}}))
            extra = ["--config", str(path)]
        code = main(["optimize", "--kind", "chsh", "--two-s", "1", "--starts", "2",
                     "--seed", "7", *extra])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "only --format json" in captured.err
        assert not target.exists()

    def test_start_budget_exits_3_before_drawing(self, capsys, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("starts were drawn")

        monkeypatch.setattr("bellcat.rng.uniforms", no_draw)
        code = main(["optimize", "--kind", "chsh", "--two-s", "1",
                     "--starts", "1000000000", "--seed", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert "evaluation limit" in captured.err

    @pytest.mark.parametrize("flags, message", [
        (["--starts", "1", "--seed", "-1"], "seed must be an integer in [0, 2**64), got -1"),
        # 50 starts fit the budget; the sweep's winner is the 51st
        (["--starts", "50", "--seed", "1", "--max-iter", "200000"],
         "51 starts x 200000 iterations exceeds the evaluation limit 1e+07"),
    ], ids=["seed", "budget"])
    def test_search_arguments_checked_before_the_sweep(self, capsys, monkeypatch, flags,
                                                       message):
        def no_grid(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr("bellcat.optimize._grid_directions", no_grid)
        code = main(["optimize", "--kind", "chsh", "--two-s", "1", "--resolution", "9", *flags])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (3, "", f"domain error: {message}\n")

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("tol, literal", [("-1", "-1"), ("nan", "NaN"), ("inf", "Infinity")])
    def test_bad_tol_is_refused_before_the_sweep(self, capsys, monkeypatch, tmp_path, tol,
                                                 literal, source):
        def no_work(*args):
            raise AssertionError("the search began")

        monkeypatch.setattr("bellcat.optimize._grid_directions", no_work)
        monkeypatch.setattr("bellcat.rng.uniforms", no_work)
        flags = ["--tol", tol]
        if source == "config":
            cfg = tmp_path / "run.json"
            cfg.write_text(f'{{"optimize": {{"tol": {literal}}}}}')
            flags = ["--config", str(cfg)]
        code = main(["optimize", "--kind", "chsh", "--two-s", "1", "--starts", "1", "--seed", "1",
                     "--resolution", "9", *flags])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == f"domain error: tol must be finite and non-negative, got {float(tol)}\n"

    def test_postselected_integer_singlet_search_reaches_sqrt_five(self, capsys):
        # the resolution-3 sweep that seeds the search has undefined pairs
        code, out = run(capsys, "optimize", "--kind", "chsh", "--two-s", "2", "--mode",
                        "postselected", "--starts", "2", "--seed", "1", "--resolution", "3")
        assert code == 0
        assert json.loads(out)["best_value"] == pytest.approx(math.sqrt(5.0), abs=1e-9)

    def test_csv_format_without_output_still_runs(self, capsys):
        code, out = run(capsys, "optimize", "--kind", "chsh", "--two-s", "1",
                        "--starts", "1", "--seed", "1", "--max-iter", "20", "--format", "csv")
        assert code == 0
        assert json.loads(out)["kind"] == "chsh"


class TestSample:
    def test_aligned_axes(self, capsys):
        code, out = run(capsys, "sample", "--two-s", "1", "--a", "0,0",
                        "--b", "0,0", "--n", "10000", "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["estimate"] == -1.0
        assert payload["n_total"] - payload["counts"]["inconclusive"] == 10000

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

    @pytest.mark.parametrize("extra", [[], ["--postselect"], ["--photon"]],
                             ids=["raw", "postselect", "photon"])
    def test_csv_artifact_bytes(self, capsys, tmp_path, extra):
        a, b = Direction(0.7, 0.1), Direction(1.9, 2.2)
        st = sample_outcomes(singlet(SpinQuantum(2)), a, b, 5000, 9,
                             postselect=extra == ["--postselect"])
        target = tmp_path / "shots.csv"
        code, _ = run(capsys, "sample", "--two-s", "2", *flags_for((a, b)), "--n", "5000",
                      "--seed", "9", *extra, "--output", str(target), "--format", "csv")
        assert code == 0
        counts = ",".join(repr(st.counts[c]) for c in CATEGORIES)
        assert target.read_text() == (
            "theta_a,phi_a,theta_b,phi_b,n,count_pp,count_pm,count_mp,count_mm,"
            "count_inconclusive,estimate,stderr,seed\n"
            f"{a.theta!r},{a.phi!r},{b.theta!r},{b.phi!r},{st.n_total!r},{counts},"
            f"{st.estimate!r},{st.stderr!r},{st.seed!r}\n"
        )

    def test_photon_mode(self, capsys):
        code, out = run(capsys, "sample", "--two-s", "2", "--a", "0,0",
                        "--b", "0,0", "--n", "20000", "--seed", "2", "--photon")
        assert code == 0
        payload = json.loads(out)
        assert payload["stats"]["estimate"] == -1.0
        assert abs(payload["product_estimate"]) < 0.05

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_photon_rejects_postselect_before_drawing(self, capsys, tmp_path, monkeypatch,
                                                       source):
        def no_draw(*args, **kwargs):
            raise AssertionError("shots were drawn")

        monkeypatch.setattr("bellcat.cli.photon_emulation", no_draw)
        monkeypatch.setattr("bellcat.cli.sample_outcomes", no_draw)
        if source == "flag":
            extra = ["--postselect"]
        else:
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps({"sample": {"postselect": True}}))
            extra = ["--config", str(path)]
        target = tmp_path / "shots.json"
        code = main(["sample", "--two-s", "2", "--a", "0.7,0.1", "--b", "1.9,2.2",
                     "--n", "1000", "--seed", "3", "--photon", *extra, "--output", str(target)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "--photon" in captured.err
        assert not target.exists()

    @pytest.mark.parametrize("extra", [[], ["--photon"]], ids=["raw", "photon"])
    def test_shot_limit_exits_3_before_drawing(self, capsys, monkeypatch, extra):
        def no_draw(*args, **kwargs):
            raise AssertionError("shots were drawn")

        monkeypatch.setattr("bellcat.rng.integers", no_draw)
        code = main(["sample", "--two-s", "2", "--a", "0.7,0.1", "--b", "1.9,2.2",
                     "--n", "10000000001", "--seed", "3", *extra])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert "shot limit" in captured.err

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

    def test_csv_artifact_rejected(self, capsys, tmp_path, monkeypatch):
        def no_ket(*args, **kwargs):
            raise AssertionError("the ket was built")

        monkeypatch.setattr("bellcat.cli.coherent_state", no_ket)
        target = tmp_path / "ket.csv"
        code, out = run(capsys, "coherent", "--two-s", "2", "--dir", "0,0",
                        "--output", str(target), "--format", "csv")
        assert (code, out) == (2, "")
        assert not target.exists()

    def test_takes_no_cat_coefficients(self, capsys):
        code, _ = run(capsys, "coherent", "--two-s", "2", "--alpha", "0.3",
                      "--dir", "0,0")
        assert code == 2

    def test_payload_is_streamed(self, tmp_path):
        # The payload takes about 180 B per amplitude (a [re, im] list, an
        # m value, the ket); its JSON text, held whole, took 350 B more.
        # stdout goes to a file, as in a shell, so the capture is not counted.
        two_s = 20000
        argv = ["coherent", "--two-s", str(two_s), "--dir", "1,2"]
        with open(tmp_path / "out.json", "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            assert main(argv) == 0  # first-call caches are not the payload's memory
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        text = (tmp_path / "out.json").read_text()  # both runs' output
        half = len(text) // 2
        assert text[half:] == text[:half]
        assert len(json.loads(text[half:])["amplitudes"]) == two_s + 1
        assert peak < 250 * (two_s + 1), f"peak {peak / (two_s + 1):.0f} B per amplitude"

    def test_dimension_limit_exits_3_before_allocating(self, capsys, monkeypatch):
        def no_alloc(*args, **kwargs):
            raise AssertionError("amplitudes were allocated")

        monkeypatch.setattr("bellcat.spins.COHERENT_DIM_LIMIT", 3)
        code, out = run(capsys, "coherent", "--two-s", "2", "--dir", "0,0")
        assert code == 0 and len(json.loads(out)["amplitudes"]) == 3
        monkeypatch.setattr(np, "empty", no_alloc)
        code = main(["coherent", "--two-s", "300000000", "--dir", "1,1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert "coherent-state limit" in captured.err


@pytest.mark.parametrize("argv", [
    ["correlate", "--two-s", "3", "--a", "0.4,0.2", "--b", "2.1,5.0", "--mode", "postselected"],
    ["check", "--kind", "wigner", "--two-s", "2", "--a", "0.3,0", "--b", "1.2,0.1",
     "--c", "2.0,4.0", "--provider", "lc"],
    ["sample", "--two-s", "1", "--a", "0,0", "--b", "1,1", "--n", "1000", "--seed", "3"],
    ["optimize", "--kind", "chsh", "--two-s", "1", "--starts", "1", "--seed", "2",
     "--max-iter", "20"],
    ["coherent", "--two-s", "3", "--dir", "1,2", "--sign", "-"],
], ids=lambda argv: argv[0])
def test_json_artifact_is_the_printed_payload(capsys, tmp_path, argv):
    target = tmp_path / "artifact.json"
    code = main([*argv, "--output", str(target)])
    out = capsys.readouterr().out
    assert code in (0, 10)
    assert target.read_bytes() == (json.dumps(json.loads(out), indent=2) + "\n").encode()


# --- golden bytes: exit code, stdout, stderr and artifact per command -------

# Relative artifact paths, so stderr names no temporary directory.
GOLDEN_CONFIG = ('{"kind": "bell", "state": {"two_s": 3, "alpha": 0.3}, "sweep": {"resolution": 3},'
                 ' "output": {"path": "out.csv", "format": "csv"}}')
GOLDEN_ARGV = {
    "correlate": ["correlate", "--two-s", "3", "--alpha", "0.5", "--gamma1", "0.2",
                  "--gamma2", "-0.3", "--a=-0.4,0.2", "--b", "2.1,5.0", "--mode", "postselected"],
    "check": ["check", "--kind", "wigner", "--two-s", "2", "--a", "0.3,0", "--b", "1.2,0.1",
              "--c", "2.0,4.0", "--provider", "lc"],
    "sweep": ["sweep", "--kind", "chsh", "--two-s", "1", "--resolution", "3"],
    "optimize": ["optimize", "--kind", "chsh", "--two-s", "1", "--starts", "2", "--seed", "11",
                 "--max-iter", "60", "--resolution", "2"],
    "sample": ["sample", "--two-s", "1", "--a", "0,0", "--b", "120,0", "--degrees",
               "--n", "10000", "--seed", "7"],
    "coherent": ["coherent", "--two-s", "3", "--dir", "90,45", "--degrees", "--sign", "-"],
}
GOLDEN_RUNS = {
    "version": ["version"],
    **GOLDEN_ARGV,
    **{f"{name}-json": [*argv, "--output", "out.json", "--format", "json"]
       for name, argv in GOLDEN_ARGV.items()},
    # csv is refused with exit 2 for optimize and coherent
    **{f"{name}-csv": [*argv, "--output", "out.csv", "--format", "csv"]
       for name, argv in GOLDEN_ARGV.items()},
    "check-violated": ["check", "--kind", "chsh", "--two-s", "1", "--a", "0,0", "--b", "45,0",
                       "--c", "45,180", "--d", "90,0", "--degrees"],
    "check-sampled": ["check", "--kind", "chsh", "--two-s", "1", *TSIRELSON_FLAGS,
                      "--provider", "sampled", "--n", "2000", "--seed", "7", "--postselect"],
    "sweep-wigner-csv": ["sweep", "--kind", "wigner", "--two-s", "3", "--resolution", "3",
                         "--provider", "lc", "--output", "out.csv", "--format", "csv"],
    "sample-photon-csv": ["sample", "--two-s", "2", "--a", "0.4,0.2", "--b", "2.1,5.0",
                          "--n", "3000", "--seed", "5", "--photon",
                          "--output", "out.csv", "--format", "csv"],
    "unwritable-output": [*GOLDEN_ARGV["correlate"], "--output", "missing/out.json"],
    "config": ["sweep", "--config", "run.json"],
}
GOLDEN_DIGESTS = {
    "check": "c5ea6183ec453092b24e56c601e296dae326e0bc1695ddb1bb81e91e7adf69c1",
    "check-csv": "40c374dd6636b2de9d354650dee9004089ff5cdbf2ba680662925d10b95ea0b7",
    "check-json": "df027274c46d414b692070053042a13258f3e7ad7737e18887fb814c64091258",
    "check-sampled": "e021bd9e8f61e1a4fe4b45fec017078bb63c73e6738ff6cec4d076df72b5c3ea",
    "check-violated": "b66762d362c4000543e5b1bc9c2afdc8f62d608fe95eb349ba10a2d99b20de8c",
    "coherent": "4ee36acf7fda1b539ab5f2322bf4355181f7103bc95f0c9ea3b24690babe7c26",
    "coherent-csv": "990eeaf7c0b59913caf8487cce7af57fb973bc80cd042d4031572b50cfa6a35e",
    "coherent-json": "c9af4a0c6cba617d3c0e25940e15bd31ff7db7ab3712a380b889675bef714044",
    "config": "762e59e8283ac4524eea04011974fbb8d7e420b1cd3d5b3623cbc59d74e6955a",
    "correlate": "f1b1be683feb02e821197f4c54b8c155f17b31818dfa7b598617d95d4c531da4",
    "correlate-csv": "6ec96f053c16cf6ca69240844bf7a9d1c93f03fb1ad33569221786c2fcffa7a3",
    "correlate-json": "c51abbe7c77d5b89d5ffd27e91a6436450d086e410b6120f891d106a4499fb1d",
    "optimize": "62804d46a0babecb81fdf67e8e615f7269656ee71d05da0256d48433c21ae722",
    "optimize-csv": "0b0d07e0d300b034d3c71f5d32c836c9aaff9685a02916d115a632f914ef8e27",
    "optimize-json": "8f330b4c5d649a59bf35a3f64c0fa26bbd2459baf1a204c8e36015ae1590dd4e",
    "sample": "4282873ca7e1f748c206029bc2ffe25cbb909d15915912ebe4c1207f1bfeeb64",
    "sample-csv": "5300507aa79011b17ff01b2bde34ab741d62a5ac06a863ba2d2c333f67c32872",
    "sample-json": "619d1a04d0e20916ee192c38a4c8e7c614508e68bd9a8aef1546307d46f1ab90",
    "sample-photon-csv": "2cae8db45c96134c7b4a62e89a0aa1e6ecf9b4c506aef7af4e28c8720b4eb279",
    "sweep": "fcc3e2dcf6b243395ce2ef6a9fbd2018db8bc79d2d986f605acce52091b2ede0",
    "sweep-csv": "4b78eb2d27f1ac020b284b0fbf0ede81efbb6413c422bd7af15b143c02d9f1bd",
    "sweep-json": "7a15e2bb214fb1b6ca079e59fcc81ee50c7164d616862a7ab84420e201393205",
    "sweep-wigner-csv": "e08737a8f284d72dec6fc044c43caa11c8420fb2ed5c525176fd67398eedb12b",
    "unwritable-output": "92570017c2aff87b47025e53140d7eea8158be953a45a526fc862a5b1b38b367",
    "version": "7b032745570545667952c886c48bb35937bdeb82fde9f8886ad3d1703f501d6c",
}


def run_digest(code, out, err, work):
    """sha256 of (exit code, stdout, stderr, artifact bytes or None) of a run
    in the working directory work."""
    artifact = next((path.read_bytes() for path in (work / "out.json", work / "out.csv")
                     if path.exists()), None)
    return hashlib.sha256(repr((code, out, err, artifact)).encode()).hexdigest()


def golden_digest(argv, work):
    """run_digest of one in-process run in the working directory work."""
    (work / "run.json").write_text(GOLDEN_CONFIG)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return run_digest(code, out.getvalue(), err.getvalue(), work)


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_bytes(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert golden_digest(GOLDEN_RUNS[name], tmp_path) == GOLDEN_DIGESTS[name]


# The golden runs that need only math: correlate, check on the lc provider
# ("check") and the full one ("check-violated"), their artifacts, and version.
NUMPY_FREE_RUNS = ["version", "correlate", "correlate-json", "correlate-csv", "check",
                   "check-json", "check-csv", "check-violated", "unwritable-output"]

# Runs each named argv in its own directory with numpy blocked before the CLI
# is imported; prints {name: [exit code, stdout, stderr]} as JSON.
NUMPY_BLOCKED_RUNNER = """\
import contextlib, io, json, os, sys
sys.modules["numpy"] = None
from bellcat.cli import main
runs, root, results = json.loads(sys.argv[1]), sys.argv[2], {}
for name, argv in runs.items():
    os.chdir(os.path.join(root, name))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results[name] = [code, out.getvalue(), err.getvalue()]
print(json.dumps(results))
"""


def test_short_commands_run_without_numpy(tmp_path):
    # an import of numpy raises ImportError in the child, which no exit code
    # maps: each run must reach its golden bytes, the same as with numpy
    for name in NUMPY_FREE_RUNS:
        (tmp_path / name).mkdir()
        (tmp_path / name / "run.json").write_text(GOLDEN_CONFIG)
    runs = {name: GOLDEN_RUNS[name] for name in NUMPY_FREE_RUNS}
    proc = subprocess.run([sys.executable, "-c", NUMPY_BLOCKED_RUNNER, json.dumps(runs),
                           str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert {name: run_digest(*results[name], tmp_path / name) for name in NUMPY_FREE_RUNS} == {
        name: GOLDEN_DIGESTS[name] for name in NUMPY_FREE_RUNS}


# command -> (the other flags of a run, a direction flag, a negative value for it)
NEGATIVE_DIRECTIONS = {
    "correlate": (["correlate", "--two-s", "1", "--b", "0,0"], "--a", "-0.3,0.2"),
    "check": (["check", "--kind", "chsh", "--two-s", "1", *TSIRELSON_FLAGS[:6]],
              "--d", "-1.5,-0.2"),
    "sample": (["sample", "--two-s", "2", "--a", "0.4,0.2", "--n", "300", "--seed", "5"],
               "--b", "-2.1,5.0"),
    "coherent": (["coherent", "--two-s", "3"], "--dir", "-1,2"),
}


@pytest.mark.parametrize("degrees", [[], ["--degrees"]], ids=["radians", "degrees"])
@pytest.mark.parametrize("command", sorted(NEGATIVE_DIRECTIONS))
def test_negative_direction_value_needs_no_equals_sign(capsys, command, degrees):
    base, flag, value = NEGATIVE_DIRECTIONS[command]
    split = run(capsys, *base, *degrees, flag, value)
    assert split[0] in (0, 10)
    assert split == run(capsys, *base, *degrees, f"{flag}={value}")
    for argv in ([flag, "-inf,0"], [f"{flag}=-inf,0"]):
        assert run(capsys, *base, *degrees, *argv) == (3, "")


def test_flag_after_a_direction_flag_is_not_its_value(capsys):
    code = main(["correlate", "--two-s", "1", "--a", "--b", "0,0"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "argument --a: expected one argument" in captured.err


@pytest.mark.parametrize("seed", ["-5", "-1", str(2**64), str(5 + 2**64)])
@pytest.mark.parametrize("argv", [
    ["sample", "--two-s", "2", "--a", "0.4,0.2", "--b", "2.1,5.0", "--n", "300"],
    ["optimize", "--kind", "chsh", "--two-s", "1", "--starts", "1", "--max-iter", "5"],
    ["check", "--kind", "chsh", "--two-s", "1", *TSIRELSON_FLAGS, "--provider", "sampled",
     "--n", "100"],
], ids=["sample", "optimize", "check-sampled"])
def test_seed_outside_64_bits_is_domain_error(capsys, argv, seed):
    code = main([*argv, "--seed", seed])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert "seed must be an integer in [0, 2**64)" in captured.err


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

    @pytest.mark.parametrize("argv", [
        ["correlate", "--two-s", "1", "--a", "0,0", "--b", "0,0", "--c", "1,1"],
        ["correlate", "--two-s", "1", "--a", "0,0", "--b", "0,0", "--mod", "raw"],
        ["check", "--kind", "chsh", "--two-s", "1", *TSIRELSON_FLAGS, "--prov", "lc"],
    ])
    def test_flags_must_be_spelled_in_full(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

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

    def test_setup_and_scalar_reads_leave_numpy_unloaded(self):
        # the benchmark workloads' setup, then scalar reads through the exact
        # providers: none of it builds an array
        code = (
            "import sys\n"
            "import bellcat\n"
            "import bellcat.cli\n"
            "from bellcat import *\n"
            "bellcat.cli.build_parser()\n"
            "axes = [Direction(0.3, 0.2), Direction(1.2, 0.1), Direction(2.0, 4.0),\n"
            "        Direction(PI / 2, 0.0)]\n"
            "for two_s in (1, 2, 3, 4):\n"
            "    state = CatState(SpinQuantum(two_s), CatCoefficients(0.3, 0.1, 0.2))\n"
            "    sampled_provider(state, 1000, 7)\n"
            "    for mode in ('raw', 'postselected'):\n"
            "        correlation(state, *axes[:2], mode)\n"
            "    for p in (full_provider(state), full_provider(state, 'postselected'),\n"
            "              lc_provider(state)):\n"
            "        p.correlation(*axes[:2])\n"
            "        for kind, spec in INEQUALITIES.items():\n"
            "            check(p, kind, *axes[:spec.arity])\n"
            "print('numpy' in sys.modules)\n"
        ).replace("PI", repr(PI))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_leaves_scipy_unloaded(self):
        # scipy.optimize alone took about three quarters of the CLI's import
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, bellcat, bellcat.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


# Per library name that a handler reads through bellcat.cli (``from .cli
# import name``), a run that reads it.
CORRELATE = ["correlate", "--two-s", "3", "--a", "0.4,0.2", "--b", "2.1,5.0"]
CHECK = ["check", "--kind", "chsh", "--two-s", "1", *TSIRELSON_FLAGS]
SAMPLE = ["sample", "--two-s", "2", "--a", "0.4,0.2", "--b", "2.1,5.0", "--n", "300",
          "--seed", "5"]
COHERENT = ["coherent", "--two-s", "3", "--dir", "1,2"]
LIBRARY_READS = {
    "SpinQuantum": COHERENT,
    "CatCoefficients": CORRELATE,
    "CatState": CORRELATE,
    "Direction": CORRELATE,
    "correlation": CORRELATE,
    "INEQUALITIES": CHECK,
    "check": CHECK,
    "full_provider": CHECK,
    "lc_provider": [*CHECK, "--provider", "lc"],
    "sampled_provider": [*CHECK, "--provider", "sampled", "--n", "100", "--seed", "1"],
    "grid_sweep": ["sweep", "--kind", "chsh", "--two-s", "1", "--resolution", "2"],
    "multistart_refine": ["optimize", "--kind", "chsh", "--two-s", "1", "--starts", "1",
                          "--seed", "2", "--max-iter", "40"],
    "sample_outcomes": SAMPLE,
    "photon_emulation": [*SAMPLE, "--photon"],
    "CATEGORIES": SAMPLE,
    "coherent_state": COHERENT,
}


def recording(original, reads: list):
    """A stand-in for original that appends to reads when it is called, or
    for a table when it is indexed or iterated, and otherwise acts as it."""
    if isinstance(original, dict):
        class Table(dict):
            def __getitem__(self, key):
                reads.append(key)
                return super().__getitem__(key)
        return Table(original)
    if isinstance(original, tuple):
        class Row(tuple):
            def __iter__(self):
                reads.append(None)
                return super().__iter__()
        return Row(original)

    def stand_in(*args, **kwargs):
        reads.append(args)
        return original(*args, **kwargs)
    return stand_in


class TestLibraryLookup:
    """cli binds a library name on its first read, and its handlers read
    their library names through that binding."""

    def test_kind_choices_are_the_inequalities(self):
        assert _OPTIONS["kind"][2] == tuple(INEQUALITIES)

    def test_every_name_a_handler_reads_is_covered(self):
        tree = ast.parse(Path(bellcat.cli.__file__).read_text(encoding="utf-8"))
        read = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "cli"
                for alias in node.names}
        assert read == set(LIBRARY_READS)

    @pytest.mark.parametrize("name", sorted(LIBRARY_READS))
    def test_a_binding_set_from_outside_is_the_one_read(self, capsys, monkeypatch, name):
        argv = LIBRARY_READS[name]
        want = run(capsys, *argv)
        reads: list = []
        monkeypatch.setattr(f"bellcat.cli.{name}", recording(getattr(bellcat, name), reads))
        assert run(capsys, *argv) == want
        assert reads

    @pytest.mark.parametrize("name", ["no_such_name", "__wrapped__"])
    def test_unknown_name_is_attribute_error(self, name):
        with pytest.raises(AttributeError, match=f"'bellcat.cli' has no attribute '{name}'"):
            getattr(bellcat.cli, name)


# --- the exit-code contract under fuzzed input ------------------------------

# Edge values, for any flag or config key, and per type values a run accepts.
EDGE_TEXT = ["nan", "inf", "-inf", "1e308", "-0", str(10 ** 30), str(10 ** 400), "", "x"]
EDGE_JSON = [math.nan, math.inf, -math.inf, 1e308, -0.0, 10 ** 30, 10 ** 400, "", "x", None,
             [], {}]
# Relative to the test's working directory: a file, a file in a directory
# that does not exist, and a directory.
PATHS = ["out", "missing/out", "."]
PAIRS = ["0.3,0.2", "1.2,4", "3.1,-2", "0,0"]
VALID_TEXT = {int: ["0", "1", "2", "3", "-1", "2000"], float: ["0.5", "-0.3", "1e-10", "0"],
              str: PAIRS}
VALID_JSON = {int: [0, 1, 2, 3, -1, 2000], float: [0.5, -0.3, 1e-10, 2], bool: [True, False],
              str: PATHS, list: [[[0.3, 0.2], [1.2, 4.0], [3.1, -2.0], [0.0, 0.0]],
                                 [[0.3, math.inf]], [[1, 2, 3]], [[0.3, "x"]]]}
# A run that succeeds per command; the fuzz changes a few of its flags.
FUZZ_BASES = {**BASES, "coherent": {"--two-s": "3", "--dir": "1,2"}}


def flag_value(dest, kind):
    if isinstance(kind, tuple):
        valid = list(kind)
    else:
        valid = {"output": PATHS, "sign": ["+", "-"]}.get(dest, VALID_TEXT[kind])
    edge = st.sampled_from(EDGE_TEXT)
    if dest in ("a", "b", "c", "d", "dir"):
        edge = st.tuples(edge, st.sampled_from(EDGE_TEXT + ["1"])).map(",".join)
    # two draws in three are edge values
    return st.one_of(st.sampled_from(valid), edge, edge)


FLAG_VALUES = {dest: flag_value(dest, kind)
               for dest, (_flag, _keys, kind, _default, _help) in _OPTIONS.items()
               if kind is not bool and dest != "config"}
# (section, key or None, value) per config key of _CONFIG, and one unknown key
CONFIG_VALUES = [
    (section, name, st.one_of(st.sampled_from(list(kind) if isinstance(kind, tuple)
                                              else VALID_JSON[kind]),
                              st.sampled_from(EDGE_JSON)))
    for section, node in [*_CONFIG.items(), ("x", int)]
    for name, kind in (node.items() if isinstance(node, dict) else [(None, node)])
]


@st.composite
def config_text(draw):
    """A config object with up to three keys of CONFIG_VALUES, or now and
    then text that is not a JSON object."""
    cfg: dict = {}
    for section, name, values in draw(st.lists(st.sampled_from(CONFIG_VALUES), max_size=3,
                                                unique=True)):
        value = draw(values)
        if name is None:
            cfg[section] = value
        else:
            cfg.setdefault(section, {})[name] = value
    return draw(st.sampled_from([json.dumps(cfg)] * 6 + ["{", "[1]"]))


@st.composite
def cli_runs(draw):
    """(argv, config file text or None): a command's FUZZ_BASES flags, maybe
    an artifact, up to four of its options set to a drawn value, dropped or
    switched, and maybe a config file."""
    command = draw(st.sampled_from(sorted(FUZZ_BASES)))
    flags = dict(FUZZ_BASES[command])
    # an artifact is written after the payload is printed
    fmt = draw(st.sampled_from([None, None, "json", "csv"]))
    if fmt:
        flags.update({"--output": draw(st.sampled_from(PATHS)), "--format": fmt})
    options = [dest for dest in _COMMANDS[command][2].split() if dest != "config"]
    for dest in draw(st.lists(st.sampled_from(options), max_size=4)):
        flag = _OPTIONS[dest][0]
        values = FLAG_VALUES.get(dest)
        if flag in flags and (values is None or not draw(st.integers(0, 4))):
            del flags[flag]
        else:
            flags[flag] = None if values is None else draw(values)
    argv = [command]
    for flag, value in flags.items():
        # the joined form passes a value such as -inf, which argparse
        # otherwise takes for an option
        argv += ([flag] if value is None else [f"{flag}={value}"] if draw(st.booleans())
                 else [flag, value])
    text = draw(st.one_of(st.none(), st.none(), config_text()))
    if text is not None:
        argv += ["--config", draw(st.sampled_from(["config.json"] * 6 + ["absent"]))]
    return argv, text


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run_=cli_runs())
@example(run_=(["correlate", "--two-s", str(10 ** 400), "--a", "0,0", "--b", "1,1"], None))
@example(run_=(["sweep", "--kind", "chsh", "--two-s", "1", f"--resolution={10 ** 400}"], None))
@example(run_=(["optimize", "--kind", "chsh", "--two-s", "1", "--starts", "1", "--seed", "2",
                "--output", "out", "--format", "csv"], None))
@example(run_=(["check", "--kind", "bell", "--two-s", "2", "--a=-inf,0", "--b", "1e308,-0",
                "--c", ",x"], None))
@example(run_=(["sample", "--two-s", "2", "--a", "0,0", "--b", "1,1", "--n", "-0", "--seed", "1",
                "--config", "config.json"], '{"state": {"alpha": NaN, "gamma1": -Infinity}}'))
@example(run_=(["coherent", "--two-s", "3", "--dir", "nan,1", "--output", "."], None))
def test_exit_codes_and_stdout_hold_for_any_input(capsys, tmp_path, monkeypatch, run_):
    """Exit 0, 2, 3, 4 or 10, nothing raised past main, JSON on stdout on 0
    and 10, nothing on 2 and 3."""
    argv, text = run_
    for name, value in (("optimize.GRID_POINT_LIMIT", 10 ** 4),
                        ("optimize.EXPORT_ROW_LIMIT", 10 ** 4),
                        ("optimize.EVALUATION_LIMIT", 2000), ("sampling.SHOT_LIMIT", 2000),
                        ("spins.COHERENT_DIM_LIMIT", 100)):
        monkeypatch.setattr(f"bellcat.{name}", value)
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "config.json").write_text(text)
    capsys.readouterr()
    code = main(argv)
    out = capsys.readouterr().out
    assert code in (0, 2, 3, 4, 10), (argv, text, code)
    if code in (2, 3):
        assert out == "", (argv, text, code)
    elif code != 4 or out:
        # on 4 the payload may precede the I/O error of an artifact
        json.loads(out)
