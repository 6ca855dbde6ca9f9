"""End-to-end command line tests; every invocation runs in-process."""

import argparse
import gc
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import casokit
from casokit import (
    Dataset,
    MethodRequest,
    cli,
    dataset_load,
    interpret,
    model_load,
    normalize_for_display,
    write_csv_rows,
    write_f64_tensor,
    write_pgm,
)
from conftest import read_f64_tensor, read_pgm

ROOT = Path(__file__).resolve().parents[1]


def run(argv):
    return cli.main(argv)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def assert_canonical_json(path):
    """The file is exactly json.dumps(indent=1, sort_keys=True) of its
    own content plus a newline."""
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"


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


def command_argv(command, ws):
    """A short valid argv of each subcommand, without --out, that reads
    every option the subcommand defines."""
    model_data = ["--model", ws["model"], "--data", ws["data"]]
    return {
        # no --data: the blob options are read only without it
        "train": ["train", "--classes", "2", "--dim", "4", "--n-per-class", "4",
                  "--hidden", "3", "--epochs", "1"],
        # a noise method: only noise draws read --seed
        "interpret": ["interpret", *model_data, "--method", "smoothgrad", "--smooth-n", "2",
                      "--samples", "0"],
        "sweep": ["sweep", *model_data, "--method", "smooth-cafo", "--smooth-n", "2"],
        "rank1-sim": ["rank1-sim", "--c", "3", "--d", "4", "--eps", "1e-3"],
        "gap-study": ["gap-study", *model_data, "--n-samples", "2"],
        "alignment": ["alignment", "--d", "8", "--classes", "2,3"],
        "oracle-check": ["oracle-check", "--d", "6", "--support", "1,4"],
    }[command]


# Every removed flag as (command, argv after the command's own, message):
# --config, the raw dataset's --labels, the solver flags (the solves are
# exact and run in one thread, and the oracle's dimension cap bounds its
# enumeration), the options their commands never read, and train's
# --model-name (every command writes fixed artifact names). Before the
# command, argparse reads a spaced --config file name as the command.
SOLVER_FLAGS = ("--jobs", "--power-iters", "--lr", "--solver-iters", "--decay",
                "--max-backtracks", "--max-enumerations")
REMOVED_FLAGS = [
    ("root", ["--config=f.json", "train"], "unrecognized arguments: --config=f.json"),
    ("root", ["--config", "f.json", "train"], "invalid choice: 'f.json'"),
    *[(command, ["--config", "f.json"], "unrecognized arguments: --config f.json")
      for command in cli.build_parser()[1]],
    *[(command, ["--labels", "x"], "unrecognized arguments: --labels x")
      for command in ("interpret", "sweep", "gap-study")],
    *[(command, [flag, "1"], f"unrecognized arguments: {flag} 1")
      for command in ("interpret", "sweep", "oracle-check", "gap-study") for flag in SOLVER_FLAGS],
    *[(command, [flag, "1"], f"unrecognized arguments: {flag} 1")
      for command, flag in (("sweep", "--lambda1"), ("sweep", "--ig-steps"),
                            ("gap-study", "--seed"))],
    ("train", ["--model-name", "x"], "unrecognized arguments: --model-name x"),
]


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

    @pytest.mark.parametrize("command,flag_argv,message", REMOVED_FLAGS,
                             ids=[f"{c}:{a[0]}" for c, a, _ in REMOVED_FLAGS])
    def test_removed_flag_is_usage_error(self, workspace, tmp_path, capsys, command, flag_argv,
                                         message):
        out = tmp_path / "out"
        argv = [] if command == "root" else command_argv(command, workspace)
        with pytest.raises(SystemExit) as exc:
            run(argv + flag_argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,value,message", [
        ("interpret", "--samples", "0,1.5", "bad integer list: '0,1.5'"),
        ("interpret", "--samples", ",", "empty integer list: ','"),
        ("interpret", "--lambda1", "big", "invalid float value: 'big'"),
        ("interpret", "--smooth-n", "2.5", "invalid int value: '2.5'"),
        ("interpret", "--seed", "1.5", "invalid int value: '1.5'"),
        ("interpret", "--method", "nope", "invalid choice: 'nope'"),
        ("interpret", "--width", "w", "invalid int value: 'w'"),
        ("sweep", "--method", "grad", "invalid choice: 'grad'"),
        ("sweep", "--grid", "1:2:geo:3", "range kind must be log or lin: '1:2:geo:3'"),
        ("train", "--activation", "tanh", "invalid choice: 'tanh'"),
        ("train", "--hidden", "4,x", "bad integer list: '4,x'"),
        ("gap-study", "--n-samples", "1", "need at least 2 samples, got 1"),
        ("rank1-sim", "--classes", "10:1000:cubic",
         "range kind must be log or lin: '10:1000:cubic'"),
        ("oracle-check", "--support", "2,x", "bad integer list: '2,x'"),
        ("oracle-check", "--d", "twelve", "invalid int value: 'twelve'"),
        *[(command, "--seed", "-1", "need a nonnegative seed, got -1")
          for command in ("train", "interpret", "sweep", "rank1-sim", "alignment",
                          "oracle-check")],
    ])
    def test_value_its_type_refuses_is_usage_error(self, workspace, tmp_path, capsys,
                                                   command, flag, value, message):
        # each flag's type or choices refuse the value by the flag's name,
        # before any work and before --out is made
        argv = [command, "--out", str(tmp_path / "out")]
        if command in ("interpret", "sweep", "gap-study"):
            argv += ["--model", workspace["model"], "--data", workspace["data"]]
        with pytest.raises(SystemExit) as exc:
            run(argv + [flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flag,value", [
        ("sweep", "--grid", "1e-5:1:log:1000000000000000"),
        ("rank1-sim", "--eps", "1e-5:1:log:1000000000000000"),
        ("rank1-sim", "--classes", "10:1000:log:1000000000000000"),
        # numpy raises an IndexError here, before allocating anything
        ("sweep", "--grid", "0:1:lin:9223372036854775807"),
    ])
    def test_unallocatable_range_is_usage_error(self, workspace, tmp_path, capsys, monkeypatch,
                                                command, flag, value):
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.11 PiB")

        # nothing is allocated: geomspace fails as it would past memory
        monkeypatch.setattr(cli.np, "geomspace", refuse)
        argv = [command, "--out", str(tmp_path / "out"), flag, value]
        if command == "sweep":
            argv += ["--model", workspace["model"], "--data", workspace["data"]]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        points = value.rsplit(":", 1)[1]
        err = capsys.readouterr().err
        # "rror" also finds a traceback's last line, such as "MemoryError: ..."
        assert [line for line in err.splitlines() if "rror" in line] == [
            f"casokit {command}: error: argument {flag}: a range of {points} points does not "
            "fit in memory"]
        assert not (tmp_path / "out").exists()

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
        # no environment variable stands in for --out: without it, or with
        # it empty, output lands in the working directory
        monkeypatch.setenv("CASOKIT_OUT_DIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        argv = ["train", "--classes", "2", "--dim", "4", "--n-per-class", "4",
                "--hidden", "3", "--epochs", "1", "--seed", "0"]
        for out in ([], ["--out", ""]):
            (tmp_path / "model.json").unlink(missing_ok=True)
            assert run(argv + out) == 0
            assert (tmp_path / "model.json").exists()
        assert not (tmp_path / "envout").exists()

    def test_save_data_is_an_on_off_flag(self, tmp_path, capsys):
        # the data is saved, and recorded as saved, only when the flag is given
        argv = ["train", "--classes", "2", "--dim", "3", "--n-per-class", "2",
                "--hidden", "2", "--epochs", "1"]
        for extra, saved in (([], False), (["--save-data"], True)):
            out = tmp_path / str(saved)
            assert run(argv + extra + ["--out", str(out)]) == 0
            assert (out / "data.csv").exists() == saved
            assert read_json(out / "model.json")["metadata"]["save_data"] is saved
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--save-data", "1", "--out", str(tmp_path / "bad")])
        assert exc.value.code == 2
        assert "unrecognized arguments: 1" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()


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
            # the run's provenance is metrics.csv's, once per run
            assert "provenance" not in doc
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        prov = json.loads(lines[0].removeprefix("# "))
        assert (prov["command"], prov["method"], prov["samples"]) == ("interpret", "cafo", [0, 2])
        assert lines[1] == "sample_id,method,lambda1,lambda2,eta,loss_gain,p_max"
        assert len(lines) == 4
        out = capsys.readouterr().out
        assert "sample 0:" in out and "sample 2:" in out

    @pytest.mark.parametrize("method", [
        "grad", "smoothgrad", "integrated-gradients", "cafo", "caso",
        "smooth-cafo", "smooth-caso",
    ])
    def test_json_artifacts_are_canonical(self, workspace, tmp_path, method, capsys):
        code = run([
            "interpret", "--model", workspace["model"], "--data", workspace["data"],
            "--method", method, "--samples", "0,1,2", "--smooth-n", "3", "--lambda1", "0.01",
            "--out", str(tmp_path),
        ])
        assert code == 0
        docs = sorted(tmp_path.glob("*.json"))
        assert [p.name for p in docs] == ["sample0.json", "sample1.json", "sample2.json"]
        for path in docs:
            assert_canonical_json(path)

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

    def test_bad_sample_index_is_runtime_error(self, workspace, tmp_path, capsys):
        code = run([
            "interpret", "--model", workspace["model"], "--data", workspace["data"],
            "--samples", "999", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["interpret", "--method", "smooth-cafo", "--smooth-sigma", "nan", "--samples", "0"],
        ["interpret", "--method", "smoothgrad", "--smooth-sigma", "inf", "--samples", "0"],
        ["sweep", "--method", "smooth-caso", "--smooth-sigma", "inf", "--sample", "0"],
    ])
    def test_non_finite_smooth_sigma_is_runtime_error(self, workspace, tmp_path, capsys, argv):
        # the noise scale is refused by name, before any draw
        code = run([*argv, "--model", workspace["model"], "--data", workspace["data"],
                    "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "error: sigma must be nonnegative and finite\n"
        assert not (tmp_path / "out").exists()

    def test_repeated_sample_is_usage_error(self, workspace, tmp_path, capsys):
        # every sample index names its own sample<index>.* files, so a repeat
        # would overwrite a map; it is refused before any work
        with pytest.raises(SystemExit) as exc:
            run(["interpret", "--model", workspace["model"], "--data", workspace["data"],
                 "--method", "smooth-cafo", "--out", str(tmp_path / "out"),
                 "--samples", "3,0,3"])
        assert exc.value.code == 2
        assert "sample index 3 is repeated" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # train's --hidden shares the list type and still takes repeats
        assert run(["train", "--hidden", "4,4", "--epochs", "1", "--out", str(tmp_path)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("method,solver", [
        ("cafo", "closed-form"), ("caso", "active-set"), ("smooth-cafo", "closed-form"),
        ("smooth-caso", "active-set"),
    ])
    def test_sparse_artifacts_certify_their_solve(self, workspace, tmp_path, method, solver,
                                                  capsys):
        assert run([
            "interpret", "--model", workspace["model"], "--data", workspace["data"],
            "--method", method, "--lambda1", "1e-3", "--samples", "0,4", "--smooth-n", "5",
            "--out", str(tmp_path),
        ]) == 0
        for idx in (0, 4):
            doc = read_json(tmp_path / f"sample{idx}.json")
            assert doc["solver"] == solver and "iterations_used" not in doc
            assert (doc["solver_steps"] == 0) == (solver == "closed-form")
            assert 0.0 <= doc["kkt_residual"] <= 1e-12
        assert run([
            "sweep", "--model", workspace["model"], "--data", workspace["data"],
            "--method", method, "--sample", "4", "--smooth-n", "5", "--out", str(tmp_path),
        ]) == 0
        doc = read_json(tmp_path / "sweep.json")
        for c in doc["candidates"] + doc["refinements"] + [doc["selected"]]:
            assert c["solver"] == solver and c["kkt_residual"] <= 1e-12
        capsys.readouterr()

    def test_baseline_artifacts_have_no_solver_fields(self, workspace, tmp_path, capsys):
        assert run(["interpret", "--model", workspace["model"], "--data", workspace["data"],
                    "--method", "grad", "--out", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "sample0.json")
        assert not {"solver", "solver_steps", "kkt_residual", "iterations_used"} & set(doc)
        capsys.readouterr()

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

    @pytest.mark.parametrize("method", ["cafo", "caso"])
    @pytest.mark.parametrize("flag,value", [
        ("--lambda1", "nan"), ("--lambda1", "inf"), ("--lambda1", "-1"),
        ("--c1", "nan"), ("--c1", "inf"),
    ])
    def test_non_finite_weight_is_runtime_error(self, workspace, tmp_path, capsys, flag,
                                                value, method):
        code = run([
            "interpret", "--model", workspace["model"], "--data", workspace["data"],
            "--method", method, flag, value, "--out", str(tmp_path),
        ])
        assert code == 1
        message = {"--lambda1": "lam1 must be nonnegative and finite",
                   "--c1": "c1 must be positive and finite"}[flag]
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "sample0.json").exists()

    def test_explicit_geometry(self, workspace, tmp_path, capsys):
        code = run([
            "interpret", "--model", workspace["model"], "--data", workspace["data"],
            "--width", "8", "--samples", "0", "--out", str(tmp_path),
        ])
        assert code == 0
        assert read_pgm(tmp_path / "sample0.pgm").shape == (2, 8)


def snapshot(directory):
    """{relative path: bytes} of every file under directory."""
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def serial_interpret(argv, out):
    """interpret's artifacts and stdout as one serial pass writes them:
    run_request over every sample, one normalize_for_display of the
    whole stack, then each sample's files in order and metrics.csv."""
    args = cli.build_parser()[0].parse_args(argv)
    net, dataset = model_load(args.model), dataset_load(args.data)
    seeds = [0] * len(args.samples)
    if args.method in interpret.NOISE_METHODS:
        seeds = [int(child.generate_state(1, dtype=np.uint64)[0])
                 for child in np.random.SeedSequence(args.seed).spawn(len(args.samples))]
    request = MethodRequest(args.method, [dataset.sample(i) for i in args.samples], seeds,
                            args.lambda1, args.c1, args.smooth_n, args.smooth_sigma,
                            args.ig_steps, args.channels)
    results = interpret.run_request(net, request)
    w, h = cli._geometry(args, dataset.dim)
    images = normalize_for_display(np.stack([r.delta for r in results]), w, h, args.channels)
    prov = cli._provenance(args)
    lines, rows = [], []
    for idx, res, image in zip(args.samples, results, images):
        write_pgm(image, out / f"sample{idx}.pgm", comment=f"casokit {res.method} sample {idx}")
        write_f64_tensor(out / f"sample{idx}.delta.f64", res.delta)
        doc = cli._result_summary(res)
        doc["sample_id"] = idx
        cli._write_json(out / f"sample{idx}.json", doc)
        rows.append((idx, res.method, res.lam1, res.lam2, res.eta, res.loss_gain, res.p_max))
        lines.append(f"sample {idx}: eta={res.eta:.4f} p_max={res.p_max:.4f}\n")
    write_csv_rows(out / "metrics.csv",
                   ("sample_id", "method", "lambda1", "lambda2", "eta", "loss_gain", "p_max"),
                   rows, provenance=prov)
    return "".join(lines)


@pytest.fixture(scope="module")
def sigmoid_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("sigws")
    assert run([
        "train", "--classes", "3", "--dim", "16", "--n-per-class", "10", "--hidden", "8",
        "--activation", "sigmoid", "--epochs", "2", "--seed", "7", "--save-data",
        "--out", str(root),
    ]) == 0
    return {"root": root, "model": str(root / "model.json"), "data": str(root / "data.csv")}


class TestStreamedWrites:
    """interpret writes each chunk's artifacts on one writer thread while
    the next chunk computes, into a staging directory renamed into place
    at the end."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        # two relu cafo/caso samples a chunk on 3 classes, so five samples
        # make three chunks
        monkeypatch.setattr(interpret, "CHUNK_COLUMNS", 6)

    @staticmethod
    def argv(ws, method, out):
        return ["interpret", "--model", ws["model"], "--data", ws["data"], "--method", method,
                "--samples", "4,0,7,2,9", "--smooth-n", "3", "--lambda1", "0.01",
                "--seed", "3", "--out", str(out)]

    @pytest.mark.parametrize("method", interpret.METHODS)
    @pytest.mark.parametrize("net", ["relu", "sigmoid"])
    def test_artifacts_equal_a_serial_write(self, workspace, sigmoid_workspace, tmp_path,
                                            capsys, method, net):
        ws = workspace if net == "relu" else sigmoid_workspace
        streamed, serial = tmp_path / "streamed", tmp_path / "serial"
        serial.mkdir()
        assert run(self.argv(ws, method, streamed)) == 0
        out = capsys.readouterr().out
        assert serial_interpret(self.argv(ws, method, serial), serial) == out
        assert snapshot(streamed) == snapshot(serial)
        assert len(snapshot(streamed)) == 16

    def prepopulated(self, ws, out, capsys):
        assert run(self.argv(ws, "grad", out)) == 0
        (out / "notes.txt").write_bytes(b"kept\n")
        (out / "sample9.json").write_bytes(b"an older file\n")
        capsys.readouterr()
        return snapshot(out), set(os.listdir(out))

    def test_a_failing_chunk_leaves_out_unchanged(self, workspace, tmp_path, capsys,
                                                  monkeypatch):
        before, names = self.prepopulated(workspace, tmp_path, capsys)
        models, calls = interpret.curvature_models, []

        def second_chunk_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ValueError("chunk 2 failed")
            return models(*args, **kwargs)

        monkeypatch.setattr(interpret, "curvature_models", second_chunk_fails)
        threads = threading.active_count()
        assert run(self.argv(workspace, "caso", tmp_path)) == 1
        assert capsys.readouterr() == ("", "error: chunk 2 failed\n")
        assert len(calls) == 2  # the first chunk was solved and handed to the writer
        assert set(os.listdir(tmp_path)) == names  # no staging directory is left
        assert snapshot(tmp_path) == before
        assert threading.active_count() == threads

    def test_a_write_error_is_a_runtime_error(self, workspace, tmp_path, capsys, monkeypatch):
        before, names = self.prepopulated(workspace, tmp_path, capsys)
        write, calls = cli.write_f64_tensor, []

        def disk_fills(path, X):
            calls.append(1)
            if len(calls) == 3:
                raise OSError(28, "No space left on device")
            write(path, X)

        monkeypatch.setattr(cli, "write_f64_tensor", disk_fills)
        threads = threading.active_count()
        assert run(self.argv(workspace, "cafo", tmp_path)) == 1
        assert capsys.readouterr() == ("", "error: [Errno 28] No space left on device\n")
        assert set(os.listdir(tmp_path)) == names
        assert snapshot(tmp_path) == before
        assert threading.active_count() == threads

    # renames go in directory-listing order, so any one name might be last
    @pytest.mark.parametrize("name", ["sample0.json", "sample4.pgm", "metrics.csv"])
    def test_a_directory_at_an_artifact_name_replaces_nothing(self, workspace, tmp_path,
                                                              capsys, name):
        self.prepopulated(workspace, tmp_path, capsys)
        (tmp_path / name).unlink()
        (tmp_path / name).mkdir()
        before, names = snapshot(tmp_path), set(os.listdir(tmp_path))
        assert run(self.argv(workspace, "caso", tmp_path)) == 1
        assert set(os.listdir(tmp_path)) == names
        assert snapshot(tmp_path) == before
        assert capsys.readouterr() == ("", f"error: {tmp_path / name} is a directory\n")


class TestCommit:
    """Every subcommand writes into a staging directory inside --out and
    renames its artifacts into place only once all of them are written."""

    @staticmethod
    def argv(command, ws):
        model_data = ["--model", ws["model"], "--data", ws["data"]]
        return {
            "train": ["train", "--classes", "2", "--dim", "4", "--n-per-class", "4",
                      "--hidden", "3", "--epochs", "1", "--save-data"],
            "interpret": ["interpret", *model_data, "--method", "caso", "--samples", "0,1"],
            "sweep": ["sweep", *model_data, "--method", "caso"],
            "rank1-sim": ["rank1-sim", "--c", "10", "--d", "16", "--eps", "1e-3"],
            "gap-study": ["gap-study", *model_data, "--n-samples", "3"],
            "alignment": ["alignment", "--d", "16", "--classes", "2,5"],
            "oracle-check": ["oracle-check", "--d", "8", "--support", "1,4"],
        }[command]

    # the last artifact each command writes, or any of interpret's
    @pytest.mark.parametrize("command,name", [
        ("train", "data.csv"), ("interpret", "sample1.pgm"), ("sweep", "selected.pgm"),
        ("rank1-sim", "rank1.csv"), ("gap-study", "gap.csv"),
        ("alignment", "alignment.csv"), ("oracle-check", "oracle.csv"),
    ])
    def test_a_directory_at_an_artifact_name_fails_and_changes_nothing(
            self, workspace, tmp_path, capsys, command, name):
        argv = self.argv(command, workspace) + ["--out", str(tmp_path)]
        assert run(argv) == 0
        (tmp_path / "notes.txt").write_bytes(b"kept\n")
        (tmp_path / name).unlink()
        (tmp_path / name).mkdir()
        capsys.readouterr()
        before, names = snapshot(tmp_path), set(os.listdir(tmp_path))
        assert run(argv) == 1
        assert capsys.readouterr() == ("", f"error: {tmp_path / name} is a directory\n")
        assert set(os.listdir(tmp_path)) == names  # no .casokit-* directory is left
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("depth", [1, 3])
    def test_a_failing_run_removes_the_out_directories_it_made(
            self, workspace, tmp_path, capsys, depth):
        (tmp_path / "kept").mkdir()
        out = tmp_path.joinpath("kept", *[f"new{i}" for i in range(depth)])
        argv = ["interpret", "--model", workspace["model"], "--data", workspace["data"],
                "--samples", "0,500", "--out", str(out)]
        assert run(argv) == 1
        assert capsys.readouterr().err == "error: sample index 500 outside the dataset of 30\n"
        assert os.listdir(tmp_path) == ["kept"] and os.listdir(tmp_path / "kept") == []
        # an --out that already exists stays, however the run ends
        out.mkdir(parents=True)
        assert run(argv) == 1
        assert out.is_dir() and os.listdir(out) == []


class TestEveryOptionIsRead:
    """No subcommand defines an option that its command never reads."""

    @pytest.mark.parametrize("command", list(cli.build_parser()[1]))
    def test_every_option_is_read(self, workspace, tmp_path, command):
        reads = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        root, parsers = cli.build_parser()
        args = root.parse_args(command_argv(command, workspace), namespace=Recording())
        reads.clear()  # parsing reads the namespace too
        args.func(args, str(tmp_path), str(tmp_path))
        # vars(), which _provenance reads every option through, is not a read
        options = {a.dest for a in parsers[command]._actions if a.dest != "help"}
        assert options - reads - {"out", "command", "func"} == set()

    @pytest.mark.parametrize("command,flag,artifact", [
        ("sweep", "--lambda1", "sweep.json"), ("sweep", "--ig-steps", "sweep.json"),
        ("gap-study", "--seed", "gap.csv"),
    ])
    def test_unread_options_are_gone(self, workspace, tmp_path, capsys, command, flag,
                                     artifact):
        # that the flag itself is a usage error is a REMOVED_FLAGS row
        argv = [*command_argv(command, workspace), "--out", str(tmp_path / "out")]
        assert run(argv) == 0
        text = (tmp_path / "out" / artifact).read_text()
        prov = (json.loads(text)["provenance"] if artifact.endswith(".json")
                else json.loads(text.split("\n", 1)[0].removeprefix("# ")))
        assert prov["command"] == command and flag[2:].replace("-", "_") not in prov


class TestEntryPoint:
    """`python -m casokit` and the console script run cli.entry: main, then
    gc.freeze() so that shutdown skips the heap main made (importing cli
    froze the one before it). main itself never freezes."""

    def test_main_leaves_nothing_frozen(self, workspace, tmp_path):
        # importing cli froze its heap; main adds nothing to it
        frozen = gc.get_freeze_count()
        assert run(["interpret", "--model", workspace["model"], "--data", workspace["data"],
                    "--samples", "0", "--out", str(tmp_path)]) == 0
        assert gc.get_freeze_count() == frozen
        with pytest.raises(SystemExit):
            run(["train", "--bogus"])
        assert gc.get_freeze_count() == frozen

    def test_console_script_and_module_call_entry(self):
        pyproject = pytest.importorskip("setuptools.config.pyprojecttoml")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            config = pyproject.read_configuration(ROOT / "pyproject.toml", expand=True)
        assert config["project"]["scripts"] == {"casokit": "casokit.cli:entry"}
        main_source = (ROOT / "src" / "casokit" / "__main__.py").read_text()
        assert "from .cli import entry\n" in main_source
        assert "raise SystemExit(entry())" in main_source
        # entry freezes however main ends, here by a usage error, on top of
        # the import's own freeze
        probe = ("import gc, sys\n"
                 "from casokit import cli\n"
                 "frozen = gc.get_freeze_count()\n"
                 "sys.argv = ['casokit', 'train', '--bogus']\n"
                 "try:\n"
                 "    cli.entry()\n"
                 "except SystemExit as e:\n"
                 "    print(e.code, gc.get_freeze_count() > frozen)\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == "2 True\n"

    def test_exit_codes_and_output_through_python_m(self, workspace, tmp_path):
        common = ["--model", workspace["model"], "--data", workspace["data"]]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        cases = [
            (["interpret", *common, "--samples", "0,1"], 0),
            (["interpret", *common, "--samples", "0,500"], 1),
            (["interpret", *common, "--samples", "0,0"], 2),
        ]
        for argv, code in cases:
            sub_out = tmp_path / f"sub{code}"
            done = subprocess.run([sys.executable, "-m", "casokit", *argv, "--out", str(sub_out)],
                                  env=env, capture_output=True, text=True)
            assert done.returncode == code, done.stderr
            # the same run in-process
            in_out = tmp_path / f"in{code}"
            script = ("import sys\n"
                      "from casokit import cli\n"
                      "try:\n"
                      "    code = cli.main(sys.argv[1:])\n"
                      "except SystemExit as e:\n"
                      "    code = e.code\n"
                      "sys.stdout.flush()\n"
                      "sys.stderr.write(f'rc={code}')\n")
            ref = subprocess.run([sys.executable, "-c", script, *argv, "--out", str(in_out)],
                                 env=env, capture_output=True, text=True)
            assert done.stdout == ref.stdout
            assert done.stderr + f"rc={code}" == ref.stderr
            if code == 0:
                assert done.stdout.startswith("sample 0: eta=")
                assert snapshot(sub_out) == snapshot(in_out)
            else:
                assert done.stdout == "" and done.stderr
                assert not sub_out.exists()


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

    @pytest.mark.parametrize("method", ["cafo", "caso", "smooth-cafo", "smooth-caso"])
    def test_json_artifact_is_canonical(self, workspace, tmp_path, method, capsys):
        code = run([
            "sweep", "--model", workspace["model"], "--data", workspace["data"],
            "--method", method, "--smooth-n", "3", "--out", str(tmp_path),
        ])
        assert code == 0
        assert_canonical_json(tmp_path / "sweep.json")

    def test_custom_grid(self, workspace, tmp_path, capsys):
        code = run([
            "sweep", "--model", workspace["model"], "--data", workspace["data"],
            "--method", "cafo", "--grid", "0:0.05:lin:3", "--out", str(tmp_path),
        ])
        assert code == 0
        assert read_json(tmp_path / "sweep.json")["grid"] == [0.0, 0.025, 0.05]

    @pytest.mark.parametrize("method", cli.SWEEP_METHODS)
    def test_sweep_on_sigmoid_net(self, tmp_path, capsys, method):
        prep = tmp_path / "prep"
        assert run([
            "train", "--classes", "3", "--dim", "6", "--n-per-class", "4", "--hidden", "5",
            "--activation", "sigmoid", "--epochs", "1", "--save-data", "--out", str(prep),
        ]) == 0
        out = tmp_path / "sweep"
        code = run([
            "sweep", "--model", str(prep / "model.json"), "--data", str(prep / "data.csv"),
            "--method", method, "--sample", "1", "--width", "3", "--out", str(out),
        ])
        assert code == 0
        doc = read_json(out / "sweep.json")
        assert len(doc["candidates"]) == 8
        assert doc["selected"]["method"] == method
        for r in doc["candidates"] + doc["refinements"] + [doc["selected"]]:
            values = [r[k] for k in ("eta", "lambda2", "loss_gain", "raw_loss_delta", "p_max")]
            assert np.isfinite(values).all()
        delta = read_f64_tensor(out / "selected.delta.f64")
        assert delta.shape == (1, 6) and np.isfinite(delta).all()
        assert read_pgm(out / "selected.pgm").shape == (2, 3)

    def test_grad_not_sweepable(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run([
                "sweep", "--model", workspace["model"], "--data", workspace["data"],
                "--method", "grad", "--out", str(tmp_path),
            ])
        assert exc.value.code == 2


@pytest.fixture(scope="module", params=[
    ((16, 4), ("identity",)),
    ((16, 6, 4), ("identity", "identity")),
    ((16, 8, 6, 4), ("relu", "sigmoid", "identity")),
], ids=["16-4", "16-6-4", "mixed-16-8-6-4"])
def handwritten_workspace(request, tmp_path_factory):
    """A net that train cannot make, written as model JSON by hand: identity
    layers only (train always adds a hidden activation), or relu and
    sigmoid layers mixed (train uses one activation); and 6 samples of its
    input."""
    root = tmp_path_factory.mktemp("handws")
    rng = np.random.default_rng(31)
    dims, activations = request.param
    layers = [{"in": n_in, "out": n_out, "activation": act,
               "weights": rng.standard_normal((n_out, n_in)).tolist(),
               "bias": (0.1 * rng.standard_normal(n_out)).tolist()}
              for n_in, n_out, act in zip(dims, dims[1:], activations)]
    (root / "model.json").write_text(json.dumps({"layers": layers}))
    casokit.dataset_save_csv(Dataset(rng.standard_normal((6, 16)), np.arange(6) % 4),
                             root / "data.csv")
    return {"root": root, "model": str(root / "model.json"), "data": str(root / "data.csv")}


class TestHandWrittenNets:
    @pytest.mark.parametrize("method", interpret.METHODS)
    def test_interpret(self, handwritten_workspace, tmp_path, capsys, method):
        assert run(["interpret", "--model", handwritten_workspace["model"],
                    "--data", handwritten_workspace["data"], "--method", method,
                    "--samples", "0,3,5", "--smooth-n", "4", "--lambda1", "0.01",
                    "--out", str(tmp_path)]) == 0
        for idx in (0, 3, 5):
            assert np.isfinite(read_f64_tensor(tmp_path / f"sample{idx}.delta.f64")).all()
            doc = read_json(tmp_path / f"sample{idx}.json")
            assert doc.get("kkt_residual", 0.0) <= 1e-12
            assert ("solver" in doc) == (method in interpret.SPARSE_METHODS)

    @pytest.mark.parametrize("method", cli.SWEEP_METHODS)
    def test_sweep(self, handwritten_workspace, tmp_path, capsys, method):
        assert run(["sweep", "--model", handwritten_workspace["model"],
                    "--data", handwritten_workspace["data"], "--method", method,
                    "--sample", "2", "--smooth-n", "4", "--out", str(tmp_path)]) == 0
        assert np.isfinite(read_f64_tensor(tmp_path / "selected.delta.f64")).all()
        doc = read_json(tmp_path / "sweep.json")
        for r in doc["candidates"] + doc["refinements"] + [doc["selected"]]:
            assert r["kkt_residual"] <= 1e-12


# one invalid value per command line, and the runtime error (exit 1) it names
INVALID_VALUES = [
    (["rank1-sim", "--d", "0"], "d must be positive"),
    (["rank1-sim"], "set p0 and classes, c and eps_values, or classes and eps_values; got none"),
    (["rank1-sim", "--c", "3", "--eps", "1e-200", "--d", "3"],
     "the Hessian's squared Frobenius norm underflows, though its largest entry is "
     "4.15839e-200"),
    # the squared norms are subnormal here, their precision lost
    (["rank1-sim", "--c", "3", "--eps", "1e-155", "--d", "3"],
     "the Hessian's squared Frobenius norm underflows, though its largest entry is "
     "4.15839e-155"),
    (["rank1-sim", "--c", "3", "--eps", "1e-160", "--d", "3"],
     "the Hessian's squared Frobenius norm underflows, though its largest entry is "
     "4.15839e-160"),
    (["alignment", "--d", "3", "--classes", "2,10", "--eps", "1e-200"],
     "c = 2: no finite cosine or mass ratio, as |g|^2 or the squared eigenvalues underflow at "
     "eps = 1e-200"),
    (["interpret", "--method", "caso", "--c1", "1e308"],
     "lambda2 = 1e+308 exceeds 2.2471164185778946e+307, past which the solvers' steps overflow "
     "(lower c1)"),
    (["interpret", "--method", "cafo", "--c1", "1e308"],
     "lambda2 = 1e+308 exceeds 2.2471164185778946e+307, past which the solvers' steps overflow "
     "(lower c1)"),
    (["gap-study", "--c1", "1e308"],
     "lambda2 = 1e+308 exceeds 2.2471164185778946e+307, past which the solvers' steps overflow "
     "(lower c1)"),
    (["gap-study", "--c1", "1e-20"],
     "c1 = 1e-20 is lost to rounding in lambda2 = L/2 + c1 at L = 0.139609 (raise c1)"),
    (["interpret", "--method", "caso", "--c1", "1e-20", "--samples", "2"],
     "c1 = 1e-20 is lost to rounding in lambda2 = L/2 + c1 at L = 0.0188301 (raise c1)"),
    (["gap-study", "--c1", "1e160"],
     "sample 0: no finite gap, as a map's squared norm underflows or overflows at "
     "c1 = 1e+160"),
    # past the 48-bit address space: the allocation fails before any memory is committed
    (["rank1-sim", "--d", "9007199254740992", "--c", "10", "--eps", "1e-3"],
     "Unable to allocate 640. PiB for an array with shape (9007199254740992, 10) and data "
     "type float64"),
    (["alignment", "--d", "9007199254740992", "--classes", "10"],
     "Unable to allocate 640. PiB for an array with shape (9007199254740992, 10) and data "
     "type float64"),
    (["alignment", "--d", "0"], "d must be positive"),
    (["alignment", "--eps", "0"], "eps must lie in (0, 1)"),
    (["train", "--hidden", "0"], "layer dims must be positive, got 16x0"),
    (["interpret", "--channels", "0"], "channels must be >= 1"),
    (["interpret", "--method", "integrated-gradients", "--ig-steps", "0"],
     "steps must be >= 1"),
    (["sweep", "--eta-min", "0.9", "--eta-max", "0.5"],
     "eta_range must satisfy 0 <= lo < hi <= 1"),
    (["sweep", "--max-refinements", "-1"], "max_refinements must be nonnegative"),
    (["oracle-check", "--k", "-1"], "k must be nonnegative"),
    (["oracle-check", "--support", "2,2,5"], "support index 2 is repeated"),
    (["oracle-check", "--d", "15"], "d = 15 exceeds the d <= 14 enumeration limit"),
    (["oracle-check", "--d", "3000"], "d = 3000 exceeds the d <= 14 enumeration limit"),
]


class TestStudies:
    def test_rank1_sim(self, tmp_path, capsys):
        code = run([
            "rank1-sim", "--c", "100", "--d", "64",
            "--eps", "5e-3,1e-4", "--seed", "0", "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "rank1.csv").read_text().splitlines()
        assert lines[1] == "c,eps,rel_error"
        assert len(lines) == 4
        first = lines[2].split(",")
        assert first[0] == "100" and float(first[2]) > 0.0

    def test_rank1_sim_one_class(self, tmp_path, capsys):
        code = run([
            "rank1-sim", "--p0", "0.9", "--classes", "1", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "error: need at least 2 classes" in capsys.readouterr().err
        assert not (tmp_path / "rank1.csv").exists()

    @pytest.mark.parametrize("args,given", [
        (["--p0", "0.999", "--classes", "5", "--eps", "1e-3"], "p0 and classes and eps_values"),
        (["--c", "10", "--eps", "1e-3", "--p0", "0.5"], "p0 and eps_values and c"),
        (["--classes", "4,8", "--eps", "1e-3", "--c", "4"], "classes and eps_values and c"),
        (["--p0", "0.999", "--c", "4"], "p0 and c"),
        (["--classes", "4,8"], "classes"),
    ])
    def test_rank1_sim_rejects_flags_that_fix_no_grid(self, tmp_path, capsys, args, given):
        code = run(["rank1-sim", *args, "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == ("error: set p0 and classes, c and eps_values, or "
                                           f"classes and eps_values; got {given}\n")
        assert not (tmp_path / "rank1.csv").exists()

    # each former --mode's run and the rows it wrote: vary-classes, vary-eps, grid
    @pytest.mark.parametrize("args,rows", [
        (["--p0", "0.999", "--classes", "5,25", "--d", "48", "--seed", "1"],
         ["5,0.0002500000000000002,0.3205008844837531",
          "25,4.1666666666666706e-05,0.1861548501334624"]),
        (["--c", "10", "--eps", "1e-2,1e-4", "--d", "16", "--seed", "2"],
         ["10,0.01,0.31890026819099304", "10,0.0001,0.2844026172951405"]),
        (["--classes", "4,6", "--eps", "1e-2,1e-3", "--d", "40"],
         ["4,0.01,0.4117221505171345", "4,0.001,0.40166252084550835",
          "6,0.01,0.3388542654335495", "6,0.001,0.32363705555010175"]),
        # 1 - 2 eps rounds to 1, yet the error is its eps -> 0 limit and the
        # squared norms are still normal floats
        (["--c", "3", "--eps", "1e-150", "--d", "3"], ["3,1e-150,0.4644232956655751"]),
    ])
    def test_rank1_sim_flags_give_each_former_modes_rows(self, tmp_path, args, rows):
        assert run(["rank1-sim", *args, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "rank1.csv").read_text().splitlines()[2:] == rows

    def test_rank1_sim_has_no_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["rank1-sim", "--mode", "grid", "--classes", "4", "--eps", "1e-3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode grid" in capsys.readouterr().err

    def test_gap_study_on_sigmoid_net(self, tmp_path, capsys):
        prep = tmp_path / "prep"
        assert run([
            "train", "--classes", "3", "--dim", "6", "--n-per-class", "4", "--hidden", "5",
            "--activation", "sigmoid", "--epochs", "1", "--save-data", "--out", str(prep),
        ]) == 0
        out = tmp_path / "gap"
        code = run([
            "gap-study", "--model", str(prep / "model.json"), "--data", str(prep / "data.csv"),
            "--out", str(out),
        ])
        assert code == 0
        lines = (out / "gap.csv").read_text().splitlines()
        assert lines[1] == "sample_id,p_max,gap"
        assert len(lines) == 2 + 12
        assert all(0.0 <= float(line.split(",")[2]) <= 2.0 for line in lines[2:])
        assert "spearman_rho=" in capsys.readouterr().out

    @pytest.mark.parametrize("classes", [10, 100])
    def test_gap_trend_holds_at_many_classes(self, tmp_path, capsys, classes):
        # the paper's claim: the CASO-CAFO gap falls as the confidence p_max
        # rises, here on nets of 10 and 100 classes
        prep = tmp_path / "prep"
        assert run([
            "train", "--classes", str(classes), "--dim", "64", "--n-per-class", "10",
            "--hidden", "64", "--epochs", "5", "--lr", "0.02", "--seed", "3", "--save-data",
            "--out", str(prep),
        ]) == 0
        capsys.readouterr()
        assert run(["gap-study", "--model", str(prep / "model.json"),
                    "--data", str(prep / "data.csv"), "--out", str(tmp_path / "gap")]) == 0
        out = capsys.readouterr().out
        rho = float(out.split("spearman_rho=")[1].split()[0])
        assert rho <= -0.8, out

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

    @pytest.mark.parametrize("count", ["-3", "1"])
    def test_gap_study_rejects_a_count_below_two(self, workspace, tmp_path, capsys, count):
        with pytest.raises(SystemExit) as exc:
            run([
                "gap-study", "--model", workspace["model"], "--data", workspace["data"],
                "--n-samples", count, "--out", str(tmp_path),
            ])
        assert exc.value.code == 2
        assert "need at least 2 samples" in capsys.readouterr().err
        assert not (tmp_path / "gap.csv").exists()

    def test_gap_study_writes_nothing_without_two_usable_samples(self, workspace, tmp_path,
                                                                 capsys):
        data = dataset_load(workspace["data"])
        one = tmp_path / "one.csv"
        casokit.dataset_save_csv(Dataset(data.X[:1], data.labels[:1]), one)
        out = tmp_path / "gap"
        code = run(["gap-study", "--model", workspace["model"], "--data", str(one),
                    "--out", str(out)])
        assert code == 1
        assert "need at least two observations" in capsys.readouterr().err
        assert not (out / "gap.csv").exists()

    def test_gap_study_names_a_dead_net(self, tmp_path, capsys):
        # biases of -100 switch every hidden relu unit off at every sample,
        # so no input gradient is nonzero
        spec = casokit.NetworkSpec((casokit.LayerSpec(4, 3, "relu"),
                                    casokit.LayerSpec(3, 2, "identity")))
        rng = np.random.default_rng(8)
        net = casokit.Network(spec, (rng.standard_normal((3, 4)), rng.standard_normal((2, 3))),
                              (np.full(3, -100.0), np.array([0.5, -0.5])))
        casokit.model_save(net, str(tmp_path / "model.json"))
        casokit.dataset_save_csv(Dataset(rng.standard_normal((5, 4)), np.array([0, 1, 0, 1, 1])),
                                 str(tmp_path / "data.csv"))
        out = tmp_path / "gap"
        code = run(["gap-study", "--model", str(tmp_path / "model.json"),
                    "--data", str(tmp_path / "data.csv"), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: none of the 5 samples has a nonzero input gradient" in err
        assert not (out / "gap.csv").exists()

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
        assert lines[1] == "support,value,l1_match,lambda1_lo,lambda1_hi"
        support, value, match, lo, hi = lines[2].split(",")
        assert support == "2;5;9"
        # the value is the oracle's, as the grid-checked version wrote it
        assert value == "0.051901337166870704" and match == "1"
        # the piece of the exact path whose support is the oracle's
        assert float(lo) == pytest.approx(0.0017, abs=5e-5)
        assert float(hi) == pytest.approx(0.6066, abs=5e-5)
        assert capsys.readouterr().out == (
            f"oracle support=2;5;9 value={value} l1_match=True lambda1=[{lo}, {hi}]\n")

    def test_oracle_check_without_a_match_leaves_the_range_empty(self, tmp_path, capsys):
        # at seed 2 the best support of size 4 adds coordinate 10 to the
        # planted three, and the path's support of size 4 adds coordinate 0
        code = run(["oracle-check", "--k", "4", "--seed", "2", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "oracle.csv").read_text().splitlines()
        support, value, match, lo, hi = lines[2].split(",")
        assert (support, match, lo, hi) == ("2;5;9;10", "0", "", "")
        assert capsys.readouterr().out.endswith(" l1_match=False\n")

    def test_oracle_check_empty_support_holds_above_max_g(self, tmp_path, capsys):
        # with k = 0 the oracle's support is empty, the path's map for every
        # lambda1 >= max|g|
        code = run(["oracle-check", "--k", "0", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "oracle.csv").read_text().splitlines()
        from casokit.analysis import make_planted_instance

        g = make_planted_instance()[0]
        assert lines[2] == f",0.0,1,{float(np.abs(g).max())!r},inf"
        capsys.readouterr()

    def test_oracle_check_has_no_grid(self, tmp_path, capsys):
        # the exact path replaced the lambda1 grid
        with pytest.raises(SystemExit) as exc:
            run(["oracle-check", "--grid", "0.1", "--out", str(tmp_path / "a")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --grid 0.1" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_oracle_check_bad_support(self, tmp_path, capsys):
        code = run(["oracle-check", "--support", "2,99", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: support index 99 outside dimension 12\n"

    @pytest.mark.parametrize("argv,message", INVALID_VALUES,
                             ids=[" ".join(argv) for argv, _ in INVALID_VALUES])
    def test_invalid_value_is_runtime_error(self, workspace, tmp_path, capsys, monkeypatch,
                                            argv, message):
        from casokit import analysis

        built = []
        real = analysis.make_planted_instance
        monkeypatch.setattr(analysis, "make_planted_instance",
                            lambda *a, **kw: built.append(kw) or real(*a, **kw))
        if argv[0] in ("interpret", "sweep", "gap-study"):
            argv = [*argv, "--model", workspace["model"], "--data", workspace["data"]]
        out = tmp_path / "out"
        assert run([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        if message.endswith("enumeration limit"):
            assert not built  # refused before the d x d instance is built


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

    def test_deeply_nested_model_is_runtime_error(self, workspace, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text('{"layers": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code = run(["interpret", "--model", str(deep), "--data", workspace["data"],
                    "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: JSON nests too deeply ({deep})\n"

    def test_zero_width_layer_is_runtime_error(self, workspace, tmp_path, capsys):
        doc = read_json(workspace["model"])
        layer = doc["layers"][0]
        layer["in"], layer["weights"] = 0, [[] for _ in layer["weights"]]
        bad = tmp_path / "zero.json"
        bad.write_text(json.dumps(doc))
        code = run(["interpret", "--model", str(bad), "--data", workspace["data"],
                    "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: layer 0: layer dims must be positive, got 0x8 ({bad})\n")

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

    @pytest.mark.parametrize("text, message", [
        ("f0,label\n# a comment\n\n", "no data rows found"),
        ("1\n2\n", "rows need at least one feature and a label"),
    ], ids=["no-rows", "no-features"])
    @pytest.mark.parametrize("command", ["train", "interpret", "sweep", "gap-study"])
    def test_dataset_without_rows_or_features(self, workspace, tmp_path, capsys,
                                              command, text, message):
        # every command that reads --data refuses it before creating --out
        data = tmp_path / "d.csv"
        data.write_text(text)
        model = [] if command == "train" else ["--model", workspace["model"]]
        code = run([command, *model, "--data", str(data), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message} ({data})\n"
        assert not (tmp_path / "out").exists()


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_artifacts_do_not_depend_on_unset_blas_thread_variables(tmp_path):
    """The package sets one BLAS thread before numpy loads unless the
    environment sets a count, so a run with the variables unset writes the
    same bytes as one at 1. The net is large enough for OpenBLAS to split
    its products over threads where more than one core is free."""
    spec = casokit.NetworkSpec((casokit.LayerSpec(784, 256, "relu"),
                                casokit.LayerSpec(256, 128, "relu"),
                                casokit.LayerSpec(128, 10, "identity")))
    casokit.model_save(casokit.init_network(spec, seed=5), str(tmp_path / "model.json"))
    rng = np.random.default_rng(5)
    data = Dataset(X=rng.random((6, 784)), labels=rng.integers(10, size=6))
    casokit.dataset_save_csv(data, str(tmp_path / "data.csv"))
    outs = []
    for setting in (None, "1"):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        if setting is not None:
            env.update(dict.fromkeys(BLAS_THREAD_VARS, setting))
        env["PYTHONPATH"] = str(ROOT / "src")
        out = tmp_path / f"out-{setting}"
        subprocess.run([sys.executable, "-m", "casokit", "interpret",
                        "--model", str(tmp_path / "model.json"),
                        "--data", str(tmp_path / "data.csv"), "--method", "smooth-caso",
                        "--smooth-n", "10", "--lambda1", "1e-3", "--samples", "0,1,2,3,4,5",
                        "--out", str(out)], env=env, check=True, capture_output=True)
        outs.append(snapshot(out))
    assert len(outs[0]) == 19 and outs[0] == outs[1]


class TestStartup:
    def test_cli_import_skips_study_module_metadata_queue_and_dataclasses(self):
        probe = (
            "import sys, casokit.cli; "
            "print(sorted(m for m in ('casokit.analysis', 'importlib.metadata', 'queue', "
            "'dataclasses') if m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == "[]\n"

    def test_cli_import_compiles_no_generated_source(self):
        """casokit's records share one set of methods: importing the CLI
        compiles no generated source, where dataclasses compiled 6 methods a
        class. numpy, which makes namedtuples, is imported first."""
        probe = (
            "import sys, numpy\n"
            "made = []\n"
            "sys.addaudithook(lambda e, a: made.append(a[1]) if e == 'compile' else None)\n"
            "import casokit.cli\n"
            "print(made.count('<string>'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == "0\n"

    def test_cli_runs_skip_numpy_ma_and_caso_skips_numpy_random(self, workspace, tmp_path):
        """numpy.ma (reached through np.percentile) and, for a method that
        draws no noise, numpy.random cost a fresh process 10-17 ms each to
        import; the runs' loaded modules are checked in one."""
        probe = (
            "import json, sys\n"
            "from casokit import cli\n"
            "def loaded(argv):\n"
            "    assert cli.main(argv) == 0\n"
            "    return [m in sys.modules for m in ('numpy.ma', 'numpy.random')]\n"
            "common = ['--model', sys.argv[1], '--data', sys.argv[2], '--out', sys.argv[3]]\n"
            "caso = loaded(['interpret', '--method', 'caso', '--samples', '0,1'] + common)\n"
            "sweep = loaded(['sweep', '--method', 'smooth-caso', '--smooth-n', '3'] + common)\n"
            "print(json.dumps([caso, sweep]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-c", probe, workspace["model"], workspace["data"], str(tmp_path)],
            env=env, capture_output=True, text=True, check=True).stdout
        assert json.loads(out.splitlines()[-1]) == [[False, False], [False, True]]

    def test_every_exported_name_resolves(self):
        for name in casokit.__all__:
            assert getattr(casokit, name) is not None, name
        from casokit import analysis

        assert casokit.simulate_rank_one is analysis.simulate_rank_one
        with pytest.raises(AttributeError):
            casokit.no_such_name  # noqa: B018

    def test_oracle_d_help_matches_the_study_module(self):
        from casokit import analysis

        _, parsers = cli.build_parser()
        (d,) = [a for a in parsers["oracle-check"]._actions if a.dest == "d"]
        assert d.help == f"instance dimension (<= {analysis.ORACLE_MAX_D})"

    def test_version_is_the_pyproject_version(self, capsys):
        pyproject = pytest.importorskip("setuptools.config.pyprojecttoml")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            config = pyproject.read_configuration(ROOT / "pyproject.toml", expand=True)
        version = config["project"]["version"]
        assert version == casokit.__version__
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"casokit {version}\n"


def fresh_python(probe, *args, env=None):
    """stdout of `python -c probe args...` in a new process that finds
    casokit in src."""
    env = dict(os.environ if env is None else env, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", probe, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


class TestImportContract:
    """A bare `import casokit` loads nothing and leaves the importer's
    collector alone; each name loads its home submodule on first use. The
    CLI module pauses the collector across its imports and freezes the heap
    they leave."""

    def test_bare_import_loads_nothing_and_leaves_the_collector_alone(self):
        probe = (
            "import gc, json, os, sys\n"
            "gc.disable() if sys.argv[1] == 'off' else None\n"
            "frozen = gc.get_freeze_count()\n"
            "import casokit\n"
            "print(json.dumps([\n"
            "    sorted(m for m in sys.modules if m == 'numpy' or m.startswith('casokit.')),\n"
            "    [os.environ.get(v) for v in sys.argv[2:]],\n"
            "    gc.isenabled(), gc.get_freeze_count() == frozen]))\n"
        )
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        for state, enabled in (("on", True), ("off", False)):
            out = fresh_python(probe, state, *BLAS_THREAD_VARS, env=env)
            assert json.loads(out) == [[], ["1", "1", "1"], enabled, True]

    def test_names_resolve_to_their_home_modules(self):
        probe = (
            "import importlib, json\n"
            "import casokit\n"
            "homes = {n: casokit._HOME[n] for n in casokit.__all__[1:]}\n"
            "wrong = [n for n, home in homes.items()\n"
            "         if getattr(casokit, n) is not getattr(\n"
            "             importlib.import_module('casokit.' + home), n)\n"
            "         or getattr(getattr(casokit, n), '__module__', 'casokit.' + home)\n"
            "         != 'casokit.' + home]\n"
            "star = {}\n"
            "exec('from casokit import *', star)\n"
            "unbound = [n for n in casokit.__all__ if star.get(n) is not getattr(casokit, n)]\n"
            "try:\n"
            "    casokit.no_such_name\n"
            "    unknown = None\n"
            "except AttributeError as e:\n"
            "    unknown = str(e)\n"
            "print(json.dumps([casokit.__all__[0], len(casokit.__all__),\n"
            "                  len(set(casokit.__all__)), wrong, unbound, unknown,\n"
            "                  set(casokit.__all__) <= set(dir(casokit))]))\n"
        )
        first, count, unique, wrong, unbound, unknown, listed = json.loads(fresh_python(probe))
        assert first == "__version__" and count == unique == len(casokit.__all__)
        assert wrong == [] and unbound == [] and listed
        assert unknown == "module 'casokit' has no attribute 'no_such_name'"

    def test_submodules_resolve_after_a_bare_import(self):
        names = ["analysis", "cli", "errors", "hessian", "interpret", "netcore",
                 "saliency_io", "solver"]
        probe = (
            "import json, sys\n"
            "import casokit\n"
            "print(json.dumps([getattr(casokit, m) is sys.modules['casokit.' + m]\n"
            "                  for m in sys.argv[1:]]))\n"
        )
        assert json.loads(fresh_python(probe, *names)) == [True] * len(names)

    def test_cli_import_runs_no_collection(self):
        """Collections during `import casokit.cli` are counted by where they
        start. Compiling cli.py's own source, which happens before its body
        can pause anything, passes the young generation's threshold once or
        twice when no bytecode is cached; the imports it pauses run none."""
        probe = (
            "import gc, json, sys\n"
            "runs = {'compiling cli.py': 0, 'elsewhere': 0}\n"
            "def count(phase, info):\n"
            "    if phase != 'start':\n"
            "        return\n"
            "    frame = sys._getframe(0)\n"
            "    while frame and not (frame.f_code.co_name == 'source_to_code'\n"
            "                         and str(frame.f_locals.get('path')).endswith('cli.py')):\n"
            "        frame = frame.f_back\n"
            "    runs['compiling cli.py' if frame else 'elsewhere'] += 1\n"
            "gc.callbacks.append(count)\n"
            "import casokit.cli\n"
            "gc.callbacks.remove(count)\n"
            "print(json.dumps(runs))\n"
        )
        runs = json.loads(fresh_python(probe))
        assert runs["elsewhere"] == 0

    @pytest.mark.parametrize("state", ["on", "off"])
    def test_cli_import_restores_the_collector_and_freezes(self, state):
        probe = (
            "import gc, sys\n"
            "gc.disable() if sys.argv[1] == 'off' else None\n"
            "import casokit.cli\n"
            "print(gc.isenabled(), gc.get_freeze_count() > 0)\n"
        )
        assert fresh_python(probe, state) == f"{state == 'on'} True\n"
