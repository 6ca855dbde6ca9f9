"""End-to-end command line tests; every invocation runs in-process."""

import argparse
import json
import os

import numpy as np
import pytest

from casokit import Dataset, cli, dataset_load, dataset_save_raw, model_load, read_pgm


def run(argv):
    return cli.main(argv)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    code = run([
        "train", "--classes", "3", "--dim", "16", "--n-per-class", "10",
        "--hidden", "8", "--epochs", "2", "--lr", "0.05", "--seed", "7",
        "--save-data", "--out", str(root),
    ])
    assert code == 0
    return {
        "root": root,
        "model": str(root / "model.json"),
        "data": str(root / "data.csv"),
    }


class TestParsing:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert "casokit" in capsys.readouterr().out

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--bogus", "1"])
        assert exc.value.code == 2

    def test_missing_model_is_usage_error(self, workspace):
        with pytest.raises(SystemExit) as exc:
            run(["interpret", "--model", "/nonexistent.json", "--data", workspace["data"]])
        assert exc.value.code == 2

    def test_grid_spec(self):
        assert cli.grid_spec("0.1,0.2") == (0.1, 0.2)
        log = cli.grid_spec("1e-4:1e-1:log:4")
        assert log == pytest.approx((1e-4, 1e-3, 1e-2, 1e-1), rel=1e-12)
        lin = cli.grid_spec("0:1:lin:5")
        assert lin == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert len(cli.grid_spec("1:2:lin")) == 10
        for bad in ("1:2", "1:2:geo:3", "0:1:log:3", "a,b", "1:2:lin:1", ""):
            with pytest.raises(argparse.ArgumentTypeError):
                cli.grid_spec(bad)

    def test_int_grid_spec_dedupes(self):
        assert cli.int_grid_spec("10:1000:log:3") == (10, 100, 1000)
        assert cli.int_grid_spec("2:4:lin:5") == (2, 3, 4)
        assert cli.int_grid_spec("5,6,7") == (5, 6, 7)


class TestTrain:
    def test_artifacts(self, workspace, capsys):
        model = model_load(workspace["model"])
        assert model.spec.layers[-1].out_dim == 3
        data = dataset_load(workspace["data"])
        assert data.n == 30 and data.dim == 16

    def test_metadata_provenance(self, workspace):
        doc = read_json(workspace["model"])
        prov = doc["metadata"]
        assert prov["command"] == "train"
        assert prov["seed"] == 7
        assert prov["hidden"] == [8]
        assert "out" not in prov and "func" not in prov

    def test_train_from_csv(self, workspace, tmp_path, capsys):
        code = run([
            "train", "--data", workspace["data"], "--epochs", "1",
            "--hidden", "6", "--seed", "1", "--out", str(tmp_path),
        ])
        assert code == 0
        assert "accuracy=" in capsys.readouterr().out
        assert model_load(tmp_path / "model.json").spec.layers[0].in_dim == 16

    def test_env_out_dir(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("CASOKIT_OUT_DIR", str(tmp_path / "envout"))
        code = run([
            "train", "--classes", "2", "--dim", "4", "--n-per-class", "4",
            "--hidden", "3", "--epochs", "1", "--seed", "0",
        ])
        assert code == 0
        assert (tmp_path / "envout" / "model.json").exists()


class TestInterpret:
    def test_artifacts(self, workspace, tmp_path, capsys):
        code = run([
            "interpret", "--model", workspace["model"], "--data", workspace["data"],
            "--method", "cafo", "--samples", "0,2", "--out", str(tmp_path),
        ])
        assert code == 0
        for idx in (0, 2):
            assert read_pgm(tmp_path / f"sample{idx}.pgm").shape == (4, 4)
            assert (tmp_path / f"sample{idx}.delta.f64").exists()
            doc = read_json(tmp_path / f"sample{idx}.json")
            assert doc["method"] == "cafo"
            assert doc["sample_id"] == idx
            assert doc["lambda2"] == 10.0 or doc["lambda2"] > 10.0
            assert "provenance" in doc
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "sample_id,method,lambda1,lambda2,eta,loss_gain,p_max"
        assert len(lines) == 4
        out = capsys.readouterr().out
        assert "sample 0:" in out and "sample 2:" in out

    @pytest.mark.parametrize("method", [
        "grad", "smoothgrad", "integrated-gradients", "cafo", "caso",
        "smooth-cafo", "smooth-caso",
    ])
    def test_every_method_runs(self, workspace, tmp_path, method, capsys):
        code = run([
            "interpret", "--model", workspace["model"], "--data", workspace["data"],
            "--method", method, "--samples", "1", "--smooth-n", "8",
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "sample1.json").exists()

    def test_deterministic_across_runs(self, workspace, tmp_path, capsys):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            code = run([
                "interpret", "--model", workspace["model"], "--data", workspace["data"],
                "--method", "caso", "--samples", "0,1", "--seed", "11",
                "--out", str(out),
            ])
            assert code == 0
        for name in ("sample0.pgm", "sample0.delta.f64", "sample0.json", "metrics.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_jobs_do_not_change_output(self, workspace, tmp_path, capsys):
        outs = [tmp_path / "serial", tmp_path / "threaded"]
        for out, jobs in zip(outs, ("1", "3")):
            code = run([
                "interpret", "--model", workspace["model"], "--data", workspace["data"],
                "--method", "smooth-caso", "--samples", "0,1,2", "--smooth-n", "6",
                "--seed", "4", "--jobs", jobs, "--out", str(out),
            ])
            assert code == 0
        for name in ("metrics.csv", "sample0.delta.f64", "sample1.delta.f64",
                     "sample2.delta.f64", "sample1.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_raw_tensor_input(self, workspace, tmp_path, capsys):
        data = dataset_load(workspace["data"])
        dataset_save_raw(data, tmp_path / "d.f32", tmp_path / "d.labels")
        code = run([
            "interpret", "--model", workspace["model"],
            "--input", str(tmp_path / "d.f32"), "--labels", str(tmp_path / "d.labels"),
            "--method", "grad", "--samples", "3", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "sample3.pgm").exists()

    def test_bad_sample_index_is_runtime_error(self, workspace, tmp_path, capsys):
        code = run([
            "interpret", "--model", workspace["model"], "--data", workspace["data"],
            "--samples", "999", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_geometry_is_runtime_error(self, workspace, tmp_path, capsys):
        for geometry, message in (
            (["--width", "5"], "does not cover"),
            (["--width", "0"], "must be >= 1"),
            (["--height", "0"], "must be >= 1"),
            (["--width", "-4", "--height", "-4"], "must be >= 1"),
        ):
            code = run([
                "interpret", "--model", workspace["model"], "--data", workspace["data"],
                *geometry, "--out", str(tmp_path),
            ])
            assert code == 1
            err = capsys.readouterr().err
            assert "error:" in err and message in err

    @pytest.mark.parametrize("flag", ["--lambda1", "--c1"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_weight_is_runtime_error(self, workspace, tmp_path, capsys, flag,
                                                value):
        code = run([
            "interpret", "--model", workspace["model"], "--data", workspace["data"],
            flag, value, "--out", str(tmp_path),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "sample0.json").exists()

    def test_explicit_geometry(self, workspace, tmp_path, capsys):
        code = run([
            "interpret", "--model", workspace["model"], "--data", workspace["data"],
            "--width", "8", "--samples", "0", "--out", str(tmp_path),
        ])
        assert code == 0
        assert read_pgm(tmp_path / "sample0.pgm").shape == (2, 8)


class TestSweep:
    def test_artifacts_and_determinism(self, workspace, tmp_path, capsys):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            code = run([
                "sweep", "--model", workspace["model"], "--data", workspace["data"],
                "--method", "cafo", "--sample", "0", "--seed", "2",
                "--out", str(out),
            ])
            assert code == 0
        doc = read_json(outs[0] / "sweep.json")
        assert doc["grid"][0] == 0.0 and len(doc["grid"]) == 8
        assert doc["eta_range"] == [0.75, 1.0]
        assert len(doc["candidates"]) == 8
        assert isinstance(doc["target_met"], bool)
        assert doc["selected"]["method"] == "cafo"
        assert doc["provenance"]["command"] == "sweep"
        for name in ("sweep.json", "selected.pgm", "selected.delta.f64"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert "selected lambda1=" in capsys.readouterr().out

    def test_custom_grid(self, workspace, tmp_path, capsys):
        code = run([
            "sweep", "--model", workspace["model"], "--data", workspace["data"],
            "--method", "cafo", "--grid", "0:0.05:lin:3", "--out", str(tmp_path),
        ])
        assert code == 0
        assert read_json(tmp_path / "sweep.json")["grid"] == [0.0, 0.025, 0.05]

    def test_grad_not_sweepable(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run([
                "sweep", "--model", workspace["model"], "--data", workspace["data"],
                "--method", "grad", "--out", str(tmp_path),
            ])
        assert exc.value.code == 2


class TestStudies:
    def test_rank1_sim(self, tmp_path, capsys):
        code = run([
            "rank1-sim", "--mode", "vary-eps", "--c", "100", "--d", "64",
            "--eps", "5e-3,1e-4", "--seed", "0", "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "rank1.csv").read_text().splitlines()
        assert lines[1] == "c,eps,rel_error"
        assert len(lines) == 4
        first = lines[2].split(",")
        assert first[0] == "100" and float(first[2]) > 0.0

    def test_rank1_sim_missing_fields(self, tmp_path, capsys):
        code = run(["rank1-sim", "--mode", "vary-classes", "--out", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_gap_study(self, workspace, tmp_path, capsys):
        code = run([
            "gap-study", "--model", workspace["model"], "--data", workspace["data"],
            "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "gap.csv").read_text().splitlines()
        assert lines[1] == "sample_id,p_max,gap"
        assert len(lines) >= 27
        assert "spearman_rho=" in capsys.readouterr().out

    def test_alignment(self, tmp_path, capsys):
        code = run([
            "alignment", "--d", "64", "--classes", "2,50", "--eps", "1e-6",
            "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "alignment.csv").read_text().splitlines()
        assert lines[1] == "c,cosine,mass_ratio"
        rows = [line.split(",") for line in lines[2:]]
        assert [r[0] for r in rows] == ["2", "50"]
        assert float(rows[0][1]) >= 1.0 - 1e-10
        assert "c=50" in capsys.readouterr().out

    def test_oracle_check(self, tmp_path, capsys):
        code = run(["oracle-check", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "oracle.csv").read_text().splitlines()
        assert lines[1] == "support,value,l1_match"
        support, value, match = lines[2].split(",")
        assert support == "2;5;9"
        assert float(value) > 0.0 and match == "1"
        assert "l1_match=True" in capsys.readouterr().out

    def test_oracle_check_bad_support(self, tmp_path, capsys):
        code = run(["oracle-check", "--support", "2,99", "--out", str(tmp_path)])
        assert code == 1


class TestConfigFile:
    def test_defaults_merged_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classes": 4, "seed": 9, "epochs": 1,
                                   "n-per-class": 5, "dim": 9, "hidden": [3]}))
        code = run([
            "train", "--config", str(cfg), "--seed", "3", "--out", str(tmp_path),
        ])
        assert code == 0
        prov = read_json(tmp_path / "model.json")["metadata"]
        assert prov["classes"] == 4
        assert prov["seed"] == 3  # explicit flag beats config default
        assert prov["n_per_class"] == 5

    def test_unknown_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"not_a_flag": 1}')
        with pytest.raises(SystemExit) as exc:
            run(["train", "--config", str(cfg)])
        assert exc.value.code == 2

    def test_bad_json_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{oops")
        with pytest.raises(SystemExit) as exc:
            run(["train", "--config", str(cfg)])
        assert exc.value.code == 2

    def test_missing_config_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--config", "/nonexistent.json"])
        assert exc.value.code == 2


class TestModelFiles:
    @pytest.mark.parametrize("argv", [
        ["interpret", "--method", "smooth-caso", "--samples", "0,1", "--smooth-n", "4"],
        ["sweep", "--method", "caso", "--sample", "1"],
    ], ids=["interpret", "sweep"])
    def test_cold_and_warm_artifacts_identical(self, workspace, tmp_path, capsys, argv):
        model = tmp_path / "model.json"
        model.write_bytes((workspace["root"] / "model.json").read_bytes())
        sidecar = tmp_path / "model.json.weights"
        outs = [tmp_path / "cold", tmp_path / "warm"]
        for out in outs:
            assert sidecar.exists() == (out.name == "warm")
            code = run(argv + [
                "--model", str(model), "--data", workspace["data"], "--seed", "4",
                "--out", str(out),
            ])
            assert code == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("flag", ["--model", "--data"])
    def test_non_utf8_file_is_runtime_error(self, workspace, tmp_path, capsys, flag):
        files = {"--model": workspace["model"], "--data": workspace["data"]}
        bad = tmp_path / "bad"
        with open(files[flag], "rb") as fh:
            bad.write_bytes(b"\xff" + fh.read())
        files[flag] = str(bad)
        code = run([
            "interpret", "--model", files["--model"], "--data", files["--data"],
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: not UTF-8 text") and f"{bad}, line 1, byte 0" in err
