import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ionqsim import cli
from ionqsim.bloch import DetectionModel, rabi_excitation_probability
from ionqsim.cli import run


def read_artifact(path):
    meta, columns, rows = {}, None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, value = line[1:].strip().split("=", 1)
                meta[key] = value
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, columns, rows


class TestDeterminism:
    def test_zeno_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["zeno", "--fractions", "10", "--sequences", "200", "--seed", "7"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_estimate_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["estimate", "--strategy", "random", "--n", "2", "--states", "30",
                "--seed", "3"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["zeno", "--fractions", "3", "--sequences", "100", "--seed", "1",
             "--out", str(a)])
        run(["zeno", "--fractions", "3", "--sequences", "100", "--seed", "2",
             "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()


class TestArtifactFormat:
    def test_header_metadata(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["rabi", "--points", "10", "--seed", "5", "--out", str(out)]) == 0
        meta, columns, rows = read_artifact(out)
        assert meta["seed"] == "5"
        assert meta["version"]
        assert len(meta["config_hash"]) == 12
        assert columns == ["pulse_length_s", "p1"]
        assert len(rows) == 10

    def test_floats_round_trip(self, tmp_path):
        # 17 significant digits parse back to the exact same float
        out = tmp_path / "scan.csv"
        run(["rabi", "--rabi-khz", "2", "--tmax-ms", "2", "--points", "50",
             "--out", str(out)])
        _, _, rows = read_artifact(out)
        omega = 2.0 * math.pi * 2.0 * 1e3
        for t_str, p_str in rows:
            t, p = float(t_str), float(p_str)
            assert p == rabi_excitation_probability(omega, 0.0, t)

    def test_json_meta(self, tmp_path):
        out = tmp_path / "chain.json"
        assert run(["chain", "--n", "3", "--seed", "9", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["seed"] == 9
        assert payload["meta"]["version"]
        assert payload["weak_field_limit"] is True
        assert len(payload["J_hz"]) == 3


class TestChain:
    def test_table_one_value(self, tmp_path, capsys):
        out = tmp_path / "chain.json"
        assert run(["chain", "--species", "yb171", "--n", "10", "--nu1-khz", "100",
                    "--gradient", "25", "--table", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["J_hz"][1][0] == pytest.approx(54.61, rel=0.01)
        table = capsys.readouterr().out
        lines = table.strip().splitlines()
        assert len(lines) == 11             # header + one row per ion
        assert lines[2].split() == ["2", "54.35"]

    def test_table_with_unwritable_out_prints_nothing(self, tmp_path, capsys):
        out = tmp_path / "missing" / "chain.json"
        assert run(["chain", "--n", "3", "--table", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot write" in captured.err

    def test_unknown_species_is_config_error(self):
        assert run(["chain", "--species", "unobtainium"]) == 2

    def test_payload_keys(self, tmp_path):
        out = tmp_path / "chain.json"
        run(["chain", "--n", "4", "--out", str(out)])
        payload = json.loads(out.read_text())
        for key in ("zeta", "positions_um", "mode_freqs_khz", "required_gradient", "J_hz"):
            assert key in payload


class TestRabi:
    def test_ramsey_mode(self, tmp_path):
        out = tmp_path / "fringes.csv"
        assert run(["rabi", "--ramsey", "--rabi-khz", "50", "--detuning-hz", "103.9",
                    "--tmax-ms", "15", "--points", "40", "--out", str(out)]) == 0
        _, columns, rows = read_artifact(out)
        assert columns == ["precession_time_s", "p1"]
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-4)

    # the README's form for a negative value in exponent form, which some
    # Python versions do not accept after a space
    @pytest.mark.parametrize("mode", [[], ["--ramsey"]])
    def test_negative_exponent_value_in_equals_form(self, tmp_path, mode):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["rabi"] + mode + ["--tmax-ms", "2", "--points", "30"]
        assert run(argv + ["--detuning-hz=-1e3", "--out", str(a)]) == 0
        assert run(argv + ["--detuning-hz", "-1000.0", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestEstimateExample:
    def test_self_learning_summary_matches_paper_band(self, tmp_path, capsys):
        # 1000 ideal states at N=12 lands near the 92.5% reference value
        out = tmp_path / "fid.csv"
        assert run(["estimate", "--strategy", "self", "--n", "12", "--states", "1000",
                    "--seed", "1", "--out", str(out)]) == 0
        summary = json.loads((tmp_path / "fid.json").read_text())
        assert 0.905 <= summary["mean"] <= 0.945
        assert summary["strategy"] == "self_learning"
        assert summary["N"] == 12
        _, _, rows = read_artifact(out)
        assert len(rows) == 1000
        capsys.readouterr()   # swallow the stdout copy of the summary


def readme_calls():
    """The `ionqsim ...` lines of the first fenced block under the
    README's "## Command line", each as its argv."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("```\n", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("ionqsim ")]


class TestReadmeExamples:
    def test_every_call_runs_and_writes_its_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "channel.json").write_text(
            json.dumps({"variant": "phase_damping", "lambda": 0.2, "axis": [0.7, 1.3]}))
        calls = readme_calls()
        assert {argv[0] for argv in calls} == set(cli._SPECS)
        for argv in calls:
            assert run(argv) == 0, argv
            out = argv[argv.index("--out") + 1] if "--out" in argv else None
            assert out is None or (tmp_path / out).exists(), argv
        assert capsys.readouterr().err == ""


class TestConfigMerging:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sequences": 50, "fractions": "2", "seed": 4}))
        out = tmp_path / "z.csv"
        assert run(["zeno", "--config", str(cfg), "--out", str(out)]) == 0
        meta, _, rows = read_artifact(out)
        assert meta["seed"] == "4"
        assert len(rows) == 1 and rows[0][0] == "2"

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sequences": 50, "seed": 4}))
        out = tmp_path / "z.csv"
        assert run(["zeno", "--config", str(cfg), "--seed", "8", "--fractions", "2",
                    "--out", str(out)]) == 0
        meta, _, _ = read_artifact(out)
        assert meta["seed"] == "8"

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"squences": 50}))
        assert run(["zeno", "--config", str(cfg)]) == 2

    def test_malformed_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json")
        assert run(["zeno", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("argv, key", [
        (["rabi", "--rabi-khz", "nan"], "'rabi_khz'"),
        (["zeno", "--theta-total", "nan"], "'theta_total'"),
        (["rabi", "--ramsey", "--rabi-khz", "50", "--detuning-hz", "nan"], "'detuning_hz'"),
        (["zeno", "--mode", "runlength", "--theta", "inf"], "'theta'"),
    ])
    def test_non_finite_flag_rejected(self, tmp_path, capsys, argv, key):
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, config, key", [
        ("chain", {"n": 3.9}, "'n'"),
        ("chain", {"n": "3"}, "'n'"),
        ("chain", {"gradient": True}, "'gradient'"),
        ("chain", {"gradient": "25"}, "'gradient'"),
        ("chain", {"species": 3}, "'species'"),
        ("rabi", {"ramsey": "false"}, "'ramsey'"),
        ("rabi", {"ramsey": 0}, "'ramsey'"),
        ("rabi", {"points": True}, "'points'"),
        ("zeno", {"fractions": 2}, "'fractions'"),
        ("zeno", {"threshold": None}, "'threshold'"),
    ])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys, command, config, key):
        # no coercion: 3.9 is not a count, "false" is not false
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_config_values_of_the_flag_type_accepted(self, tmp_path):
        # an integer is a number, so it may stand for a float
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ramsey": False, "points": 3, "rabi_khz": 3, "seed": 2}))
        out = tmp_path / "rabi.csv"
        assert run(["rabi", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(read_artifact(out)[2]) == 3

    def test_non_finite_config_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"rabi_khz": NaN}')
        assert run(["rabi", "--config", str(cfg)]) == 2
        assert "'rabi_khz'" in capsys.readouterr().err


class TestChannelCommand:
    def test_exact_tomography_payload(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"variant": "depolarizing", "lambda": 0.2}))
        out = tmp_path / "chan.json"
        assert run(["channel", "--spec", str(spec), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        np.testing.assert_allclose(payload["m"], (0.6 * np.eye(3)).tolist(), atol=1e-10)
        np.testing.assert_allclose(payload["v"], [0, 0, 0], atol=1e-10)

    def test_sampled_tomography_has_errors(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"variant": "phase_damping", "lambda": 0.1,
                                    "axis": [0.0, 0.0]}))
        out = tmp_path / "chan.json"
        assert run(["channel", "--spec", str(spec), "--shots", "2000",
                    "--seed", "1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert np.max(payload["m_stderr"]) > 0

    def test_missing_spec_is_config_error(self):
        assert run(["channel"]) == 2

    def test_spec_too_deep_to_build_is_config_error(self, tmp_path, monkeypatch, capsys):
        # a JSON parser that nests deeper than Python's recursion limit
        # leaves the overflow to channel_from_spec's own recursion
        def too_deep(spec):
            raise RecursionError("maximum recursion depth exceeded")

        spec, out = tmp_path / "spec.json", tmp_path / "chan.json"
        spec.write_text(json.dumps({"variant": "depolarizing", "lambda": 0.2}))
        monkeypatch.setattr(cli, "channel_from_spec", too_deep)
        assert run(["channel", "--spec", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: maximum recursion depth exceeded\n"
        assert not out.exists()

    def test_unphysical_spec_is_config_error(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"variant": "raw", "m": np.eye(3).tolist(),
                                    "v": [0.9, 0.0, 0.0]}))
        assert run(["channel", "--spec", str(spec)]) == 2

    def test_transpose_spec_is_config_error(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"variant": "raw", "m": np.diag([1.0, -1.0, 1.0]).tolist(),
                                    "v": [0.0, 0.0, 0.0]}))
        assert run(["channel", "--spec", str(spec)]) == 2

    def test_out_of_range_axis_is_config_error(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"variant": "phase_damping", "lambda": 0.1,
                                    "axis": [4.0, 0.0]}))
        assert run(["channel", "--spec", str(spec)]) == 2

    # json.dumps writes nan and inf as NaN and Infinity, which json.load reads back
    @pytest.mark.parametrize("spec, key", [
        ({"variant": "rotation", "axis": [1.0, 0.0, 0.0], "angle": 1.0}, "'axis'"),
        ({"variant": "depolarizing"}, "'lambda'"),
        ({"variant": "rotation", "angle": math.nan}, "'angle'"),
        ({"variant": "rotation", "angle": math.inf}, "'angle'"),
        ({"variant": "depolarizing", "lambda": False}, "'lambda'"),
        ({"variant": "depolarizing", "lambda": "0.1"}, "'lambda'"),
        ({"variant": "depolarizing", "lambda": [0.1]}, "'lambda'"),
        ({"variant": "rotation", "axis": ["1.0", 0.0], "angle": 1.0}, "'axis'"),
        ({"variant": "raw", "m": [[True, 0, 0], [0, 1, 0], [0, 0, 1]], "v": [0, 0, 0]}, "'m'"),
        ({"variant": "raw", "m": np.eye(3).tolist(), "v": [0, 0, -math.inf]}, "'v'"),
        ({"variant": "depolarizing", "lambda": 0.7}, "'lambda'"),
        ({"variant": "phase_damping", "lambda": -0.1, "axis": [0.7, 1.3]}, "'lambda'"),
    ])
    def test_malformed_spec_names_key(self, tmp_path, capsys, spec, key):
        path, out = tmp_path / "spec.json", tmp_path / "chan.json"
        path.write_text(json.dumps(spec))
        assert run(["channel", "--spec", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not out.exists()


class TestRawSpecEdge:
    # a raw m = (1 + delta) I has smallest Choi eigenvalue -delta/2: physical
    # up to delta = 1e-12, twice the 5e-13 tolerance, and a config error
    # (exit 2) past it; no delta reaches the ball guard's numerical exit 1
    @staticmethod
    def run_scaled_identity(tmp_path, delta, *flags):
        spec, out = tmp_path / "spec.json", tmp_path / "chan.json"
        spec.write_text(json.dumps({"variant": "raw", "m": ((1.0 + delta) * np.eye(3)).tolist(),
                                    "v": [0.0, 0.0, 0.0]}))
        code = run(["channel", "--spec", str(spec), *flags, "--out", str(out)])
        assert out.exists() == (code == 0)
        return code

    @pytest.mark.parametrize("flags", [[], ["--shots", "1000"]])
    @pytest.mark.parametrize("delta, code", [(0.99e-12, 0), (1.01e-12, 2)])
    def test_edge(self, tmp_path, capsys, flags, delta, code):
        assert self.run_scaled_identity(tmp_path, delta, *flags) == code
        err = capsys.readouterr().err
        assert (err == "") if code == 0 else ("not completely positive" in err)

    @pytest.mark.parametrize("delta", [*np.logspace(-13, -8, 26), 1.5e-9])
    def test_sweep_exits_0_or_2(self, tmp_path, capsys, delta):
        assert self.run_scaled_identity(tmp_path, delta) in (0, 2)
        capsys.readouterr()


class TestZenoModes:
    def test_runlength_mode(self, tmp_path):
        out = tmp_path / "rl.csv"
        assert run(["zeno", "--mode", "runlength", "--theta", "0.6283185307179586",
                    "--pairs", "20000", "--qmax", "5", "--seed", "2",
                    "--out", str(out)]) == 0
        _, columns, rows = read_artifact(out)
        assert columns == ["N_or_q", "theory", "simulated", "stderr"]
        assert len(rows) == 5
        p = math.cos(0.6283185307179586 / 2) ** 2
        assert float(rows[1][1]) == pytest.approx(p, abs=1e-12)
        # stderr reflects actual run counts, not normalized fractions
        for row in rows[1:]:
            assert 0.0 < float(row[3]) < 0.1
            assert abs(float(row[2]) - float(row[1])) < 4 * float(row[3])

    def test_bad_mode_rejected(self):
        assert run(["zeno", "--mode", "sideways"]) == 2

    def test_bad_fractions_rejected(self):
        assert run(["zeno", "--fractions", "a,b"]) == 2

    def test_poisson_detection_flags(self, tmp_path):
        out = tmp_path / "z.csv"
        assert run(["zeno", "--fractions", "2", "--sequences", "200",
                    "--on-mean", "5.3", "--off-mean", "0.2", "--threshold", "0",
                    "--prep-efficiency", "0.82", "--seed", "1", "--out", str(out)]) == 0
        _, _, rows = read_artifact(out)
        assert len(rows) == 1

    @pytest.mark.parametrize("argv, config, keys", [
        (["--mode", "runlength", "--prep-efficiency", "0.5", "--fractions", "9",
          "--pairs", "1000", "--qmax", "2"], {}, ["'fractions'", "'prep_efficiency'"]),
        (["--mode", "runlength", "--pairs", "1000"], {"sequences": 50, "theta_total": 3.0},
         ["'sequences'", "'theta_total'"]),
        (["--theta", "0.5", "--pairs", "1000"], {}, ["'pairs'", "'theta'"]),
        (["--fractions", "2"], {"qmax": 3}, ["'qmax'"]),
        ([], {"mode": "runlength", "prep_efficiency": 1.0}, ["'prep_efficiency'"]),
    ])
    def test_key_the_mode_ignores_rejected(self, tmp_path, capsys, argv, config, keys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "z.csv"
        assert run(["zeno", "--config", str(cfg)] + argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in keys), err
        assert not out.exists()

    @pytest.mark.parametrize("argv, config", [
        (["--eta0", "0.6", "--eta1", "0.6"], {}),
        ([], {"eta0": 0.6, "eta1": 0.6}),
    ])
    @pytest.mark.parametrize("mode", [[], ["--mode", "runlength", "--pairs", "1000"]])
    def test_efficiencies_with_a_count_readout_rejected(self, tmp_path, capsys, mode, argv,
                                                        config):
        # a photon-count read-out replaces both efficiencies
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "z.csv"
        assert run(["zeno", "--config", str(cfg), "--on-mean", "5", "--off-mean", "0.2",
                    "--threshold", "1"] + mode + argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'eta0'" in err and "'eta1'" in err, err
        assert not out.exists()

    def test_incomplete_poisson_flags_rejected(self):
        assert run(["zeno", "--on-mean", "5.3"]) == 2

    @pytest.mark.parametrize("mode", [["--sequences", "2000"],
                                      ["--mode", "runlength", "--pairs", "100000"]])
    def test_counting_readout_is_its_two_efficiencies(self, tmp_path, mode):
        # only the on/off result is kept, so a threshold read-out and its
        # two tail masses given as efficiencies write the same rows
        model = DetectionModel.from_counts(5.3, 0.2, 1)
        readouts = {"counts": ["--on-mean", "5.3", "--off-mean", "0.2", "--threshold", "1"],
                    "tails": ["--eta0", repr(model.eta0), "--eta1", repr(model.eta1)]}
        tables = {}
        for name, flags in readouts.items():
            out = tmp_path / f"{name}.csv"
            assert run(["zeno", "--seed", "4"] + mode + flags + ["--out", str(out)]) == 0
            meta, columns, rows = read_artifact(out)
            tables[name] = (meta["seed"], meta["version"], columns, rows)
        assert tables["counts"] == tables["tails"]

    @pytest.mark.parametrize("argv", [["--theta", "0.628318", "--pairs", "100000"],
                                      ["--theta", "-0.5", "--pairs", "100", "--qmax", "2"]])
    def test_runlength_ratio_at_one_has_no_stderr(self, tmp_path, argv):
        # U(1)/U(1) is exactly 1 whatever the counts; q > 1 keeps its stderr
        out = tmp_path / "rl.csv"
        assert run(["zeno", "--mode", "runlength"] + argv + ["--out", str(out)]) == 0
        _, _, rows = read_artifact(out)
        assert rows[0][2:] == ["1", "0"]
        assert all(float(row[3]) > 0.0 for row in rows[1:])

    @pytest.mark.parametrize("argv", [["--theta", "0", "--pairs", "1000"], ["--pairs", "1"]])
    def test_runlength_without_runs_of_length_one_is_numerical(self, tmp_path, capsys, argv):
        # a valid input whose record ends no run of length 1: U(q)/U(1) is undefined
        out = tmp_path / "rl.csv"
        assert run(["zeno", "--mode", "runlength"] + argv + ["--out", str(out)]) == 1
        assert "no complete run of length 1" in capsys.readouterr().err
        assert not out.exists()


class TestLowerBounds:
    @pytest.mark.parametrize("argv, key", [
        (["rabi", "--points", "0"], "'points'"),
        (["zeno", "--mode", "runlength", "--qmax", "0"], "'qmax'"),
    ])
    def test_empty_table_rejected(self, tmp_path, capsys, argv, key):
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_points_above_the_documented_bound_rejected(self, tmp_path, capsys):
        assert run(["rabi", "--help"]) == 0
        assert f"accepted: [1, {cli.MAX_POINTS}]" in " ".join(capsys.readouterr().out.split())
        out = tmp_path / "out.csv"
        assert run(["rabi", "--points", str(cli.MAX_POINTS + 1), "--out", str(out)]) == 2
        assert f"'points' must lie in [1, {cli.MAX_POINTS}]" in capsys.readouterr().err
        assert not out.exists()

    def test_qmax_equal_to_pairs_accepted(self, tmp_path):
        out = tmp_path / "runs.csv"
        assert run(["zeno", "--mode", "runlength", "--theta", "1.5", "--pairs", "40",
                    "--qmax", "40", "--out", str(out)]) == 0
        assert len(read_artifact(out)[2]) == 40

    def test_negative_shots_rejected(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"variant": "depolarizing", "lambda": 0.2}))
        out = tmp_path / "chan.json"
        assert run(["channel", "--spec", str(spec), "--shots", "-5", "--out", str(out)]) == 2
        assert "'shots'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--n", "0"], ["--strategy", "bogus"]])
    def test_bad_estimate_rejected_before_drawing(self, tmp_path, monkeypatch, argv):
        def draw(uniforms):
            raise AssertionError("a state was drawn")
        monkeypatch.setattr("ionqsim.estimation.random_direction", draw)
        out = tmp_path / "fid.csv"
        assert run(["estimate", "--states", "10"] + argv + ["--out", str(out)]) == 2
        assert not out.exists()

    def test_estimate_out_on_its_own_sidecar_rejected_before_drawing(self, tmp_path, monkeypatch,
                                                                     capsys):
        def draw(uniforms):
            raise AssertionError("a state was drawn")
        monkeypatch.setattr("ionqsim.estimation.random_direction", draw)
        out = tmp_path / "fid.json"
        assert run(["estimate", "--n", "3", "--states", "5", "--out", str(out)]) == 2
        assert "sidecar" in capsys.readouterr().err
        assert not out.exists()


class TestStrategyNames:
    @pytest.mark.parametrize("strategy", ["bogus", "self_learning", "fixed_axes"])
    def test_only_cli_names_accepted(self, tmp_path, capsys, strategy):
        out = tmp_path / "fid.csv"
        assert run(["estimate", "--strategy", strategy, "--n", "2", "--states", "3",
                    "--out", str(out)]) == 2
        assert "self | random | fixed" in capsys.readouterr().err
        assert not out.exists()


class TestEstimateNoise:
    # exit 2 where the depolarization lambda and detection bias delta_eta
    # push a pure state outside the Bloch ball (|delta_eta| > lambda, beyond
    # the ball rule's 1e-12 slack in 1 - 2 lambda + 2 |delta_eta|), or lie
    # outside their ranges; never exit 1 from the channel's own ball guard
    @pytest.mark.parametrize("lam, delta_eta, code", [
        ("0", "0.05", 2), ("0.1", "0.3", 2), ("0.6", "0", 2), ("0.1", "0.100000001", 2),
        ("0.1", "0.1000000000008", 2), ("0.05", "0.05", 0), ("0.5", "0.25", 0),
        ("0.1", "0.1000000000004", 0), ("0.5", "-0.25", 0),
    ])
    def test_exit_code(self, tmp_path, capsys, lam, delta_eta, code):
        out = tmp_path / "fid.csv"
        assert run(["estimate", "--strategy", "random", "--n", "2", "--states", "3",
                    "--lambda", lam, f"--delta-eta={delta_eta}", "--out", str(out)]) == code
        assert out.exists() == (code == 0)
        capsys.readouterr()


class TestChainFieldModes:
    def test_local_field_factor_close_to_weak_limit(self, tmp_path):
        out = tmp_path / "c.json"
        run(["chain", "--n", "4", "--out", str(out)])
        weak = json.loads(out.read_text())["J_hz"][1][0]
        run(["chain", "--n", "4", "--no-weak-field", "--b0", "0.001", "--out", str(out)])
        local = json.loads(out.read_text())["J_hz"][1][0]
        assert local != weak
        assert local == pytest.approx(weak, rel=0.02)
        assert json.loads(out.read_text())["weak_field_limit"] is False

    @pytest.mark.parametrize("argv, config", [(["--b0", "0.5"], {}), ([], {"b0": 0.5})])
    def test_offset_field_without_local_field_rejected(self, tmp_path, capsys, argv, config):
        # the weak-field limit does not read b0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "c.json"
        assert run(["chain", "--n", "4", "--config", str(cfg)] + argv
                   + ["--out", str(out)]) == 2
        assert "'b0'" in capsys.readouterr().err
        assert not out.exists()


class TestConstantsHook:
    def test_version_reports_provenance(self, capsys):
        assert run(["--version"]) == 0
        out = capsys.readouterr().out
        assert "ionqsim" in out and "CODATA-2018" in out


class TestStartup:
    @staticmethod
    def loaded(statement):
        """The names in sys.modules after statement, in a fresh interpreter."""
        code = f"{statement}; import json, sys; print(json.dumps(sorted(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        return json.loads(done.stdout)

    @staticmethod
    def under(modules, package):
        return [m for m in modules if m == package or m.startswith(package + ".")]

    def test_cli_import_pulls_in_no_scipy(self):
        assert self.under(self.loaded("import ionqsim.cli"), "scipy") == []

    def test_cli_import_pulls_in_no_numpy_random(self):
        # rabi, ramsey and chain runs draw nothing, so they need not load it
        if self.under(self.loaded("import numpy"), "numpy.random"):
            pytest.skip("a bare `import numpy` already loads numpy.random here")
        assert self.under(self.loaded("import ionqsim.cli"), "numpy.random") == []

    # the package loads no layer; a layer loads only what it imports (estimation
    # names channels in annotations only), and the CLI loads all seven, which
    # is what perfbench's Tracer.install wraps
    @pytest.mark.parametrize("statement, layers", [
        ("import ionqsim", set()),
        ("from ionqsim import ionchain", {"ionchain", "constants"}),
        ("from ionqsim import estimation", {"estimation", "bloch", "sphere"}),
        ("import ionqsim.cli", {"cli", "bloch", "channels", "constants", "estimation",
                                "ionchain", "sphere", "zeno"}),
    ])
    def test_entry_point_loads_only_its_layers(self, statement, layers):
        loaded = self.loaded(statement)
        assert {m[len("ionqsim."):] for m in loaded if m.startswith("ionqsim.")} == layers
        if not layers:
            assert self.under(loaded, "numpy") == []


class TestExitCodes:
    @pytest.mark.parametrize("error, code", [(np.linalg.LinAlgError("singular"), 1),
                                             (ValueError("bad value"), 2)])
    def test_error_class_sets_exit_code(self, monkeypatch, error, code):
        def fail(params, out):
            raise error
        monkeypatch.setitem(cli._DISPATCH, "rabi", fail)
        assert run(["rabi"]) == code

    # a request too large for memory is a configuration error of one line;
    # the library call is replaced, so nothing is allocated
    @pytest.mark.parametrize("call, argv, error, message", [
        ("simulate_alternating", ["zeno", "--mode", "runlength", "--pairs", "1000000000000"],
         MemoryError("Unable to allocate 931. GiB for an array with shape (1000000000000,)"),
         "error: Unable to allocate 931. GiB for an array with shape (1000000000000,)"),
        ("simulate_fractionated_pi", ["zeno", "--sequences", "100000000000"], MemoryError(),
         "error: out of memory"),
    ], ids=["runlength", "survival"])
    def test_memory_error_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch, call, argv,
                                                error, message):
        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(cli, call, fail)
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"
        assert not out.exists()


# the README Ramsey call
_RAMSEY_FRINGES = ["--ramsey", "--rabi-khz", "50", "--detuning-hz", "103.9", "--tmax-ms", "30"]


class TestProcessEntryPoint:
    """`python -m ionqsim.cli` runs main(), which ends the process."""

    @staticmethod
    def call(argv, cwd):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        return subprocess.run([sys.executable, "-m", "ionqsim.cli"] + argv, cwd=cwd, env=env,
                              capture_output=True, text=True)

    def test_ramsey_call_matches_run(self, tmp_path):
        done = self.call(["rabi"] + _RAMSEY_FRINGES + ["--out", "fringes.csv"], tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout == done.stderr == ""
        assert run(["rabi"] + _RAMSEY_FRINGES + ["--out", str(tmp_path / "in_process.csv")]) == 0
        assert (tmp_path / "fringes.csv").read_bytes() == (tmp_path / "in_process.csv").read_bytes()

    # a zero Rabi frequency is a ConfigError; a negative scan end lies
    # outside the accepted values of --tmax-ms
    @pytest.mark.parametrize("argv, message", [
        (["--rabi-khz", "0"], "positive Rabi frequency"),
        (["--tmax-ms", "-1"], "'tmax_ms' must lie in [0.0, 1.7976931348623157e+308], got -1.0"),
    ])
    def test_config_error_exits_2_and_writes_nothing(self, tmp_path, argv, message):
        done = self.call(["rabi", "--ramsey"] + argv + ["--out", "fringes.csv"], tmp_path)
        assert done.returncode == 2
        assert done.stdout == ""
        assert message in done.stderr
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def assert_one_error_line(done, code, message):
        assert done.returncode == code
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert message in done.stderr

    # an --out that cannot be opened, an --out on the estimate summary's own
    # path, an empty fractions list and a count mean above 690 are
    # configuration errors; a chain whose length scale, required gradient,
    # chi, dw01/dz or J overflows, and a Rabi or Ramsey scan whose Omega,
    # delta, Omega^2 + delta^2, Omega_R t or pi/2 pulse length overflows, are
    # numerical failures
    @pytest.mark.parametrize("argv, code, message", [
        (["rabi", "--out", "missing/x.csv"], 2, "cannot write missing/x.csv"),
        (["rabi", "--out", "."], 2, "cannot write ."),
        (["estimate", "--n", "3", "--states", "5", "--out", "fid.json"], 2, "summary sidecar"),
        (["chain", "--nu1-khz", "1e300", "--n", "3"], 1, "out of range"),
        (["zeno", "--fractions", ","], 2, "fractions list is empty"),
        (["chain", "--nu1-khz", "1e160", "--n", "3"], 1, "out of range"),
        (["chain", "--gradient", "1e200", "--n", "3"], 1, "overflow"),
        (["rabi", "--rabi-khz", "1e300", "--tmax-ms", "1", "--points", "3"], 1, "overflows"),
        (["rabi", "--detuning-hz", "1e300", "--tmax-ms", "1", "--points", "3"], 1, "overflows"),
        (["rabi", "--tmax-ms", "1e308", "--points", "3"], 1, "overflows"),
        (["chain", "--gradient", "1e300", "--n", "3"], 1, "gradient b = 1e+300"),
        (["chain", "--no-weak-field", "--b0", "0.1", "--gradient", "1e300", "--n", "3"], 1,
         "gradient b = 1e+300"),
        (["chain", "--no-weak-field", "--b0", "1e308", "--n", "2"], 1, "field B = 1e+308 T"),
        (["chain", "--nu1-khz", "1e-300", "--n", "3"], 1, "zeta is out of range for nu1"),
        (["zeno", "--on-mean", "1000", "--off-mean", "0.2", "--threshold", "1"], 2,
         "'on_mean' must lie in [0.0, 690.0], got 1000.0"),
        (["rabi", "--ramsey", "--rabi-khz", "1e306", "--tmax-ms", "1", "--points", "3"], 1,
         "Rabi frequency Omega = 2 pi x 1e+306 kHz overflows"),
        (["rabi", "--ramsey", "--detuning-hz", "1e308", "--tmax-ms", "1", "--points", "3"], 1,
         "detuning delta = 2 pi x 1e+308 Hz overflows"),
        (["rabi", "--ramsey", "--rabi-khz", "1e-320", "--tmax-ms", "1", "--points", "3"], 1,
         "pi/2 pulse length overflows"),
        # a scan longer than MAX_POINTS, and a run length no complete run of
        # the record can reach, are configuration errors, caught before any
        # array is made or any pair drawn
        (["rabi", "--points=9223372036854775807", "--out", "rabi.csv"], 2,
         "'points' must lie in [1, 1000000], got 9223372036854775807"),
        (["zeno", "--mode", "runlength", "--pairs", "1000", "--qmax", "100000000",
          "--out", "runs.csv"], 2, "'qmax' = 100000000 exceeds 'pairs' = 1000"),
        # a one-result record has no complete run at all: numerical, and at once
        (["zeno", "--mode", "runlength", "--pairs", "1", "--qmax", "100000000"], 1,
         "no complete run of length 1"),
        # a subnormal preparation efficiency overflows the corrected survival
        (["zeno", "--fractions", "1,2", "--sequences", "50", "--prep-efficiency=5e-324",
          "--out", "zeno.csv"], 1, "prep_efficiency = 4.94066e-324"),
        # counts past int64, which numpy cannot take
        (["channel", "--shots", "9223372036854775808", "--out", "out.json"], 2,
         "'shots' must lie in [0, 9223372036854775807], got 9223372036854775808"),
        (["estimate", "--n", "18446744073709551616", "--out", "fid.csv"], 2,
         "'n' must lie in [1, 9223372036854775807], got 18446744073709551616"),
        # a NaN or infinite float lies outside every table range
        (["rabi", "--rabi-khz=nan", "--out", "rabi.csv"], 2,
         "'rabi_khz' must lie in [0.0, 1.7976931348623157e+308], got nan"),
        (["chain", "--gradient=-inf", "--n", "3"], 2,
         "'gradient' must lie in [0.0, 1.7976931348623157e+308], got -inf"),
    ])
    def test_failure_prints_one_error_line(self, tmp_path, argv, code, message):
        done = self.call(argv, tmp_path)
        self.assert_one_error_line(done, code, message)
        assert list(tmp_path.iterdir()) == []

    # inputs are made in the working directory first, a None one as a
    # directory, and a failing call must leave them, unchanged, as all it
    # holds: an estimate sidecar that cannot be opened takes a new CSV with
    # it, and leaves an old one as it was
    @pytest.mark.parametrize("argv, inputs, message", [
        (["estimate", "--n", "3", "--states", "5", "--out", "fid.csv"], {"fid.json": None},
         "cannot write fid.json"),
        (["estimate", "--n", "3", "--states", "5", "--out", "fid.csv"],
         {"fid.json": None, "fid.csv": "kept\n"}, "cannot write fid.json"),
        (["chain", "--config", "cfg.json"], {"cfg.json": "[1, 2]"}, "must hold a JSON object"),
        (["rabi", "--config", "cfg.json"], {"cfg.json": '{"rabi_khz": 1' + "0" * 400 + "}"},
         "bad config value"),
        # JSON nested past the parser's recursion limit: a channel spec fails
        # from ~495 compositions under Python 3.11, and 20 000 are past the
        # larger C recursion limits of later Pythons too
        (["chain", "--config", "cfg.json", "--out", "chain.json"],
         {"cfg.json": '{"n": ' + "[" * 100_000 + "]" * 100_000 + "}"},
         "cannot read config file cfg.json"),
        (["channel", "--spec", "spec.json", "--out", "out.json"],
         {"spec.json": '{"variant": "composition", "parts": [' * 20_000
          + '{"variant": "depolarizing", "lambda": 0.1}' + "]}" * 20_000},
         "maximum recursion depth exceeded"),
    ])
    def test_config_error_leaves_only_its_inputs(self, tmp_path, argv, inputs, message):
        for name, text in inputs.items():
            if text is None:
                (tmp_path / name).mkdir()
            else:
                (tmp_path / name).write_text(text)
        done = self.call(argv, tmp_path)
        self.assert_one_error_line(done, 2, message)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)
        assert all((tmp_path / name).read_text() == text
                   for name, text in inputs.items() if text is not None)


# sha256 of zeno artifacts, recorded before trajectories were drawn in
# blocks; a change here means the artifacts drifted and must be explained.
# The two count-based digests were recorded again when a counting read-out
# became its two efficiencies: it now draws one uniform per probe, not a
# Poisson count, so its rows moved within their printed stderr.  The three
# runlength digests were recorded again when the q = 1 row's stderr became
# 0, as U(1)/U(1) is exactly 1; no other field changed.
_ZENO_SURVIVAL = ["zeno", "--fractions", "1,2,3,4,10", "--sequences", "2000", "--seed", "7"]
_ZENO_RUNLENGTH = ["zeno", "--mode", "runlength", "--theta", "0.628318",
                   "--pairs", "1000000", "--qmax", "10"]
_EFFICIENCIES = ["--eta0", "0.97", "--eta1", "0.95"]
_COUNTS = ["--on-mean", "5.3", "--off-mean", "0.2", "--threshold", "1"]


# a phase damping about a tilted axis, then depolarization and a rotation
_TILTED_SPEC = {"variant": "composition", "parts": [
    {"variant": "phase_damping", "lambda": 0.2, "axis": [0.7, 1.3]},
    {"variant": "depolarizing", "lambda": 0.1},
    {"variant": "rotation", "axis": [1.1, 0.4], "angle": 0.9},
]}


class TestGoldenArtifacts:
    @pytest.mark.parametrize("argv, digest", [
        (_ZENO_SURVIVAL,
         "ae4655e0b3b224a583c1110951c185a70fab577193f81f618a6b068abf75e0fb"),
        (_ZENO_SURVIVAL + _EFFICIENCIES,
         "36f1d436f32a1ee158611139e6fa5ce8b77997611bd68909f51260e9c1505658"),
        (_ZENO_SURVIVAL + _COUNTS,
         "c1d32892f62aff855ddc1c7bcf6af6095cc57f966d738d7130f6ac8f4e2cbe56"),
        (_ZENO_RUNLENGTH,
         "e2a90f0ca80a07c536b66f270ef138384e0a9d3c44be566326d54eb01b294878"),
        (_ZENO_RUNLENGTH + _EFFICIENCIES,
         "5586d5eeb3090a8b04ee8acdb61824e57721bec7a23cb1ff5386be12d0ceae9f"),
        (_ZENO_RUNLENGTH + _COUNTS,
         "6212e6d3fce003cf6a1476d59d01e6d1104f620949bace8add3c457edf2c0674"),
    ])
    def test_zeno_artifact_digest(self, tmp_path, argv, digest):
        out = tmp_path / "zeno.csv"
        assert run(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # sha256 of channel artifacts; a change here means they drifted and
    # must be explained.  The spec path enters the config hash, so it is
    # given relative to the working directory.  The exact (--shots 0)
    # digest was recorded again when phase damping became (1 - 2 lam) I +
    # 2 lam a a^T instead of a rotated diagonal: four entries moved in
    # their last digit (M within 9e-16 of the old one).
    @pytest.mark.parametrize("argv, digest", [
        (["--shots", "0"],
         "a5e999725ebcc58699a7cb28a32356331385cb8bfe2d0cfa540598d89376a91c"),
        (["--shots", "10000", "--seed", "3"],
         "d7aa1cfe6267f11c244a61794fade558b27d6117af4ed3e609f03d6ccb67ec81"),
    ])
    def test_channel_artifact_digest(self, tmp_path, monkeypatch, argv, digest):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "channel.json").write_text(json.dumps(_TILTED_SPEC))
        assert run(["channel", "--spec", "channel.json"] + argv + ["--out", "out.json"]) == 0
        assert hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest() == digest

    # sha256 of the chain JSON and the --table print of the README call,
    # and of the JSON at N = 60, where the solver falls back to coordinate
    # sweeps (it prints nothing: the sha256 of no bytes); a change here means
    # the artifacts drifted and must be explained.  Both JSON digests were
    # recorded again when J became c W^T W with W from the Cholesky factor of
    # the Hessian in place of the mode sum y^T y, y = S sqrt(hbar/2m) g / nu,
    # and hbar became h / 2 pi, exact under the 2019 SI, in place of CODATA's
    # rounded 1.054571817e-34: J_hz moved by 1.7e-15 (N = 10) and 1.8e-14
    # (N = 60) of max|J| from the Cholesky route and by 6.1e-10 relative from
    # hbar, as did required_gradient; the positions, the mode frequencies and
    # the printed table did not change
    @pytest.mark.parametrize("argv, digest, table_digest", [
        (["--species", "yb171", "--nu1-khz", "100", "--n", "10", "--gradient", "25", "--table"],
         "26064341f15d5f751f300472bddc9d82d1b2819a0db7b72cd2d876e288431aeb",
         "4e369ca19d5ab78be7dd35a7756eaa4fa66e9f7fb38aba7b803f8a44753d9778"),
        (["--n", "60"],
         "71740eeb28fed38cd9a10e4d71e348d850f1dd9b7c084f4e70e1e1bc177816ae",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ])
    def test_chain_artifact_digest(self, tmp_path, capsys, argv, digest, table_digest):
        out = tmp_path / "chain.json"
        assert run(["chain"] + argv + ["--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert hashlib.sha256(printed.encode()).hexdigest() == table_digest

    # sha256 of the two README rabi calls, the 400-point pulse-length scan
    # and the Ramsey fringes, recorded while each Ramsey time was still its
    # own scalar call; a change here means the artifacts drifted and must
    # be explained
    @pytest.mark.parametrize("argv, digest", [
        (["--rabi-khz", "2.9165", "--tmax-ms", "2", "--points", "400"],
         "f57396ac4f48bfe49979a3abe40d776b900cc8351fd67b172f4741ba91476dd3"),
        (_RAMSEY_FRINGES,
         "ed5a99eeb21fc6a0938553e30460a77e871453b5a0d10cc3d1a1e4a2866c2061"),
    ])
    def test_rabi_artifact_digest(self, tmp_path, argv, digest):
        out = tmp_path / "rabi.csv"
        assert run(["rabi"] + argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # sha256 of the per-state CSV and the summary JSON of 200-state N = 12
    # runs, recorded before run_estimation returned plain arrays; a change
    # here means the artifacts drifted and must be explained.  The
    # self-learning pair was recorded again when the axis search became
    # exact (sweep plus Newton): the second axis keeps the azimuth of its
    # sweep point, so every trajectory and outcome draw changed.  It was
    # recorded again when the Newton step took its closed form and Q its
    # six monomials: 180 of the 200 fidelities moved, by at most 6.2e-14.
    @pytest.mark.parametrize("argv, csv_digest, json_digest", [
        (["--strategy", "self"],
         "1326db2ff19f5b903fad96fd409301d7e5ecdc5e6d6b15718b3e1945fab3c4c0",
         "5b47d86b9bf200551b36fd979e2e46024e78ceb04d84b541e657de889d254252"),
        (["--strategy", "random", "--lambda", "0.1", "--delta-eta", "0.02"],
         "3a42703cd0058e9e4874c6c2f4103161f7d816e13f33406857697740b30811da",
         "6b9dcd475bc4f708c3dc74ecea2ca39845e40849a98b77ed622e2627ffad85b3"),
        (["--strategy", "fixed"],
         "7c49b25f9c1b35bfb95a3f97114cf362a41e03770e93f8b256c344aec71aef8a",
         "fccbd3685943ab0cbae135003e01b8399bb66760e9a2bb4d7e6f825e7889a18f"),
    ])
    def test_estimate_artifact_digest(self, tmp_path, capsys, argv, csv_digest, json_digest):
        out = tmp_path / "fid.csv"
        assert run(["estimate", "--n", "12", "--states", "200", "--seed", "1"] + argv
                   + ["--out", str(out)]) == 0
        capsys.readouterr()   # swallow the stdout copy of the summary
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_digest
        assert hashlib.sha256((tmp_path / "fid.json").read_bytes()).hexdigest() == json_digest
