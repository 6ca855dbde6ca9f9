"""I/O tests: display normalization, PGM, model/dataset persistence, CSV."""

import hashlib
import json

import numpy as np
import pytest

from casokit import saliency_io
from casokit import (
    Dataset,
    DimensionError,
    DisplayMap,
    FormatError,
    LayerSpec,
    NetworkSpec,
    dataset_load,
    dataset_load_raw,
    dataset_save_csv,
    dataset_save_raw,
    hessian_eig,
    init_network,
    model_load,
    model_save,
    normalize_for_display,
    quantize_display,
    read_f32_tensor,
    read_f64_tensor,
    read_labels,
    read_pgm,
    write_csv_rows,
    write_eigenvectors_f64,
    write_f32_tensor,
    write_f64_tensor,
    write_labels,
    write_pgm,
    write_spectrum_csv,
)


class TestNormalizeForDisplay:
    def test_two_pixel_example(self):
        # mags (2, 1); 99th percentile interpolates to 1.99, top pixel clips
        dmap = normalize_for_display(np.array([-2.0, 1.0]), width=2, height=1)
        assert dmap.values[0, 0] == 1.0
        assert dmap.values[0, 1] == pytest.approx(1.0 / 1.99, rel=1e-14)

    def test_all_zero_maps_to_zero(self):
        dmap = normalize_for_display(np.zeros(1), width=1, height=1)
        assert dmap.values[0, 0] == 0.0

    def test_zero_cap_saturates_outliers(self):
        # one hot pixel in 200: the 99th percentile is still zero
        delta = np.zeros(200)
        delta[7] = 3.5
        dmap = normalize_for_display(delta, width=20, height=10)
        assert dmap.values.flat[7] == 1.0
        assert dmap.values.sum() == 1.0

    def test_channels_sum_per_pixel(self):
        delta = np.array([1.0, -2.0, 0.5, 0.0, 0.0, 0.0, 3.0, 0.25, -0.25, 0.5, 0.5, 0.5])
        dmap = normalize_for_display(delta, width=2, height=2, channels=3)
        mags = np.array([[3.5, 0.0], [3.5, 1.5]])
        cap = np.percentile(mags, 99.0)
        assert np.array_equal(dmap.values, np.clip(mags / cap, 0.0, 1.0))

    def test_power_of_two_scaling_is_bitwise_invariant(self):
        rng = np.random.default_rng(17)
        delta = rng.standard_normal(64)
        a = normalize_for_display(delta, width=8, height=8)
        b = normalize_for_display(4.0 * delta, width=8, height=8)
        assert np.array_equal(a.values, b.values)

    def test_general_scaling_is_near_invariant(self):
        rng = np.random.default_rng(18)
        delta = rng.standard_normal(64)
        a = normalize_for_display(delta, width=8, height=8)
        b = normalize_for_display(3.7 * delta, width=8, height=8)
        assert np.allclose(a.values, b.values, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(DimensionError):
            normalize_for_display(np.zeros(5), width=2, height=2)
        with pytest.raises(ValueError):
            normalize_for_display(np.zeros(4), width=2, height=2, channels=0)

    def test_display_map_guards(self):
        with pytest.raises(DimensionError):
            DisplayMap(values=np.zeros((2, 3)), width=2, height=3)
        with pytest.raises(ValueError):
            DisplayMap(values=np.full((1, 1), 1.5), width=1, height=1)
        with pytest.raises(ValueError):
            DisplayMap(values=np.zeros((0, 0)), width=0, height=0)


class TestPgm:
    def test_quantization_bytes(self):
        dmap = DisplayMap(values=np.array([[0.0, 1.0], [0.5, 0.25]]), width=2, height=2)
        assert quantize_display(dmap).tolist() == [[0, 255], [128, 64]]

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.random((9, 7))
        dmap = DisplayMap(values=values, width=7, height=9)
        path = tmp_path / "map.pgm"
        write_pgm(dmap, path)
        img = read_pgm(path)
        assert img.shape == (9, 7)
        assert np.max(np.abs(img / 255.0 - values)) <= 1.0 / 510.0 + 1e-12

    def test_single_pixel(self, tmp_path):
        path = tmp_path / "one.pgm"
        write_pgm(DisplayMap(values=np.zeros((1, 1)), width=1, height=1), path)
        assert read_pgm(path).tolist() == [[0]]

    def test_comment_is_skipped_by_reader(self, tmp_path):
        path = tmp_path / "c.pgm"
        dmap = DisplayMap(values=np.array([[1.0]]), width=1, height=1)
        write_pgm(dmap, path, comment="method=caso seed=0")
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n# method=caso seed=0\n")
        assert read_pgm(path).tolist() == [[255]]

    def test_multiline_comment_rejected(self, tmp_path):
        dmap = DisplayMap(values=np.array([[1.0]]), width=1, height=1)
        with pytest.raises(ValueError):
            write_pgm(dmap, tmp_path / "x.pgm", comment="a\nb")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(FormatError) as exc:
            read_pgm(path)
        assert exc.value.offset == 0

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError, match="maxval"):
            read_pgm(path)

    def test_truncated_body_reports_offset(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\nab")
        with pytest.raises(FormatError) as exc:
            read_pgm(path)
        assert "expected 4 pixel bytes" in str(exc.value)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "h.pgm"
        path.write_bytes(b"P5\n2")
        with pytest.raises(FormatError):
            read_pgm(path)


class TestModelPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        spec = NetworkSpec(
            (LayerSpec(6, 9, "relu"), LayerSpec(9, 5, "sigmoid"), LayerSpec(5, 3, "identity"))
        )
        net = init_network(spec, seed=11)
        path = tmp_path / "model.json"
        model_save(net, path, metadata={"note": "unit test", "seed": 11})
        loaded = model_load(path)
        assert loaded.spec == net.spec
        for Wa, Wb in zip(loaded.weights, net.weights):
            assert np.array_equal(Wa, Wb)
        for ba, bb in zip(loaded.biases, net.biases):
            assert np.array_equal(ba, bb)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"layers": [\n  {"in": 2,,}\n]}\n')
        with pytest.raises(FormatError) as exc:
            model_load(path)
        assert exc.value.line == 2

    def test_missing_layers_key(self, tmp_path):
        path = tmp_path / "nolayers.json"
        path.write_text('{"metadata": {}}\n')
        with pytest.raises(FormatError, match="layers"):
            model_load(path)

    def test_empty_layers(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"layers": []}\n')
        with pytest.raises(FormatError):
            model_load(path)

    def test_layer_missing_key(self, tmp_path):
        path = tmp_path / "mk.json"
        path.write_text(
            '{"layers": [{"in": 2, "out": 1, "weights": [[0.0, 0.0]], "bias": [0.0]}]}\n'
        )
        with pytest.raises(FormatError, match="missing key"):
            model_load(path)

    def test_unknown_activation(self, tmp_path):
        path = tmp_path / "act.json"
        doc = {
            "layers": [
                {"in": 1, "out": 1, "activation": "tanh", "weights": [[1.0]], "bias": [0.0]}
            ]
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="activation"):
            model_load(path)

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "shape.json"
        doc = {
            "layers": [
                {"in": 2, "out": 1, "activation": "relu", "weights": [[1.0]], "bias": [0.0]}
            ]
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="shape"):
            model_load(path)

    def test_non_utf8_reports_path_and_offset(self, tmp_path):
        path = tmp_path / "latin.json"
        data = b'{"layers": [\n  {"activation": "r\xffelu"}]}\n'
        path.write_bytes(data)
        with pytest.raises(FormatError, match="UTF-8") as exc:
            model_load(path)
        assert exc.value.path == path
        assert exc.value.offset == data.index(b"\xff") and exc.value.line == 2


def _net(seed):
    spec = NetworkSpec((LayerSpec(7, 5, "relu"), LayerSpec(5, 3, "identity")))
    return init_network(spec, seed=seed)


def _assert_same_net(a, b):
    assert a.spec == b.spec
    for xa, xb in zip(a.weights + a.biases, b.weights + b.biases):
        assert xa.tobytes() == xb.tobytes()


class TestWeightSidecar:
    """model_load's binary weight copy next to the model JSON."""

    @pytest.fixture
    def json_parses(self, monkeypatch):
        """Texts json.loads was called on while the fixture is active."""
        seen = []
        real = json.loads

        def spy(text, *args, **kwargs):
            seen.append(text)
            return real(text, *args, **kwargs)

        monkeypatch.setattr(saliency_io.json, "loads", spy)
        return seen

    @staticmethod
    def _saved(tmp_path, seed=11, name="model.json"):
        path = tmp_path / name
        model_save(_net(seed), path, metadata={"seed": seed})
        return path

    @staticmethod
    def _sidecar(path):
        return path.with_name(path.name + ".weights")

    def test_cold_and_warm_loads_are_bitwise_equal(self, tmp_path, json_parses):
        path = self._saved(tmp_path)
        cold = model_load(path)
        assert self._sidecar(path).is_file()
        warm = model_load(str(path))
        _assert_same_net(cold, warm)
        _assert_same_net(warm, _net(11))
        model_text = path.read_text()
        assert json_parses.count(model_text) == 1  # the cold load only

    def test_sidecar_holds_the_documented_layout(self, tmp_path):
        path = self._saved(tmp_path)
        net = model_load(path)
        data = self._sidecar(path).read_bytes()
        tag, head, payload = data.split(b"\n", 2)
        head = json.loads(head)
        assert tag == b"casokit-weights 1"
        assert head["model_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert head["layers"] == [[7, 5, "relu"], [5, 3, "identity"]]
        assert head["payload_bytes"] == len(payload) == 8 * (7 * 5 + 5 + 5 * 3 + 3)
        assert head["payload_sha256"] == hashlib.sha256(payload).hexdigest()
        W0 = np.frombuffer(payload, "<f8", 35).reshape(5, 7)
        assert W0.tobytes() == net.weights[0].tobytes()

    def _corrupt_overwritten(self, path):
        model_save(_net(12), path)

    def _corrupt_truncated(self, path):
        side = self._sidecar(path)
        side.write_bytes(side.read_bytes()[:-9])

    def _corrupt_flipped(self, path):
        side = self._sidecar(path)
        data = bytearray(side.read_bytes())
        data[-3] ^= 0x01
        side.write_bytes(bytes(data))

    def _corrupt_other_model(self, path):
        other = self._saved(path.parent, seed=12, name="other.json")
        model_load(other)
        self._sidecar(path).write_bytes(self._sidecar(other).read_bytes())

    @pytest.mark.parametrize("case", ["overwritten", "truncated", "flipped", "other_model"])
    def test_stale_sidecar_is_ignored_and_rewritten(self, tmp_path, case, json_parses):
        path = self._saved(tmp_path)
        model_load(path)
        getattr(self, f"_corrupt_{case}")(path)
        json_parses.clear()
        loaded = model_load(path)
        # a fresh parse of the JSON, in a directory with no sidecar yet
        (tmp_path / "fresh").mkdir()
        fresh = tmp_path / "fresh" / "model.json"
        fresh.write_bytes(path.read_bytes())
        expected = model_load(fresh)
        _assert_same_net(loaded, expected)
        assert path.read_text() in json_parses
        assert self._sidecar(path).read_bytes() == self._sidecar(fresh).read_bytes()
        json_parses.clear()
        _assert_same_net(model_load(path), expected)
        assert path.read_text() not in json_parses

    def test_invalid_json_beside_valid_sidecar_still_fails(self, tmp_path):
        path = self._saved(tmp_path)
        model_load(path)
        path.write_text('{"layers": [\n  {"in": 2,,}\n]}\n')
        with pytest.raises(FormatError) as exc:
            model_load(path)
        assert exc.value.line == 2

    def test_unwritable_sidecar_is_skipped(self, tmp_path, monkeypatch):
        path = self._saved(tmp_path)

        def refuse(src, dst):
            raise PermissionError(f"read-only: {dst}")

        monkeypatch.setattr(saliency_io.os, "replace", refuse)
        _assert_same_net(model_load(path), _net(11))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


class TestCsvDataset:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(8)
        data = Dataset(X=rng.standard_normal((12, 5)), labels=rng.integers(0, 4, 12))
        path = tmp_path / "data.csv"
        dataset_save_csv(data, path)
        loaded = dataset_load(path)
        assert np.array_equal(loaded.X, data.X)
        assert np.array_equal(loaded.labels, data.labels)

    def test_header_detected_and_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("f0,f1,label\n0.5,-1.25,2\n1.0,3.5,0\n")
        loaded = dataset_load(path)
        assert loaded.n == 2
        assert np.array_equal(loaded.X, [[0.5, -1.25], [1.0, 3.5]])
        assert loaded.labels.tolist() == [2, 0]

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# provenance\n\n1.0,2.0,1\n\n# trailing\n3.0,4.0,0\n")
        assert dataset_load(path).n == 2

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,0\n1.0,oops,1\n")
        with pytest.raises(FormatError) as exc:
            dataset_load(path)
        assert exc.value.line == 2

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0,0\n1.0,1\n")
        with pytest.raises(FormatError, match="fields"):
            dataset_load(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "lab.csv"
        path.write_text("1.0,2.0,1.5\n")
        with pytest.raises(FormatError, match="label"):
            dataset_load(path)
        path.write_text("1.0,2.0,-1\n")
        with pytest.raises(FormatError, match="label"):
            dataset_load(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# only a comment\n")
        with pytest.raises(FormatError, match="no data rows"):
            dataset_load(path)

    def test_needs_feature_and_label(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("1\n2\n")
        with pytest.raises(FormatError):
            dataset_load(path)

    def test_non_finite_label(self, tmp_path):
        path = tmp_path / "lab.csv"
        for label in ("inf", "nan"):
            path.write_text(f"1.0,2.0,{label}\n")
            with pytest.raises(FormatError, match="label"):
                dataset_load(path)

    def test_non_utf8_reports_path_and_offset(self, tmp_path):
        path = tmp_path / "latin.csv"
        data = b"1.0,2.0,0\n1.0,\xff,1\n"
        path.write_bytes(data)
        with pytest.raises(FormatError, match="UTF-8") as exc:
            dataset_load(path)
        assert exc.value.path == path
        assert exc.value.offset == data.index(b"\xff") and exc.value.line == 2


class TestRawTensors:
    def test_f32_round_trip_quantizes(self, tmp_path):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((6, 4))
        path = tmp_path / "x.f32"
        write_f32_tensor(path, X)
        loaded = read_f32_tensor(path)
        assert np.array_equal(loaded, X.astype("<f4").astype(np.float64))

    def test_f32_header_and_size(self, tmp_path):
        path = tmp_path / "x.f32"
        write_f32_tensor(path, np.zeros((3, 2)))
        raw = path.read_bytes()
        assert len(raw) == 8 + 3 * 2 * 4
        assert raw[:8] == b"\x03\x00\x00\x00\x02\x00\x00\x00"

    def test_f32_truncated(self, tmp_path):
        path = tmp_path / "x.f32"
        write_f32_tensor(path, np.zeros((3, 2)))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError):
            read_f32_tensor(path)
        path.write_bytes(b"\x01")
        with pytest.raises(FormatError, match="header"):
            read_f32_tensor(path)

    def test_f64_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(22)
        X = rng.standard_normal((5, 3))
        path = tmp_path / "x.f64"
        write_f64_tensor(path, X)
        assert np.array_equal(read_f64_tensor(path), X)

    def test_f64_vector_promoted_to_row(self, tmp_path):
        path = tmp_path / "v.f64"
        write_f64_tensor(path, np.array([1.0, 2.0, 3.0]))
        assert read_f64_tensor(path).shape == (1, 3)

    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "y.labels"
        write_labels(path, np.array([0, 3, 2, 2, 9]))
        loaded = read_labels(path)
        assert loaded.dtype == np.int64
        assert loaded.tolist() == [0, 3, 2, 2, 9]

    def test_labels_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_labels(tmp_path / "n.labels", np.array([-1, 2]))
        with pytest.raises(DimensionError):
            write_labels(tmp_path / "m.labels", np.zeros((2, 2)))
        path = tmp_path / "t.labels"
        write_labels(path, np.array([1, 2, 3]))
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(FormatError):
            read_labels(path)

    def test_dataset_raw_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        data = Dataset(X=rng.standard_normal((7, 3)), labels=rng.integers(0, 5, 7))
        dataset_save_raw(data, tmp_path / "d.f32", tmp_path / "d.labels")
        loaded = dataset_load_raw(tmp_path / "d.f32", tmp_path / "d.labels")
        assert np.array_equal(loaded.X, data.X.astype("<f4").astype(np.float64))
        assert np.array_equal(loaded.labels, data.labels)

    def test_dataset_raw_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(24)
        data = Dataset(X=rng.standard_normal((4, 2)), labels=rng.integers(0, 2, 4))
        dataset_save_raw(data, tmp_path / "d.f32", tmp_path / "d.labels")
        write_labels(tmp_path / "short.labels", np.array([0, 1]))
        with pytest.raises(FormatError, match="labels for"):
            dataset_load_raw(tmp_path / "d.f32", tmp_path / "short.labels")


class TestCsvArtifacts:
    def test_provenance_line_and_cells(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv_rows(
            path,
            ("a", "b"),
            [(np.float64(0.1), None), (np.int64(3), "text")],
            provenance={"seed": 0, "method": "caso"},
        )
        lines = path.read_text().splitlines()
        assert lines[0] == '# {"method": "caso", "seed": 0}'
        assert lines[1] == "a,b"
        assert lines[2] == "0.1,"
        assert lines[3] == "3,text"

    def test_spectrum_csv(self, tmp_path):
        rng = np.random.default_rng(30)
        W = rng.standard_normal((10, 4))
        z = rng.standard_normal(4)
        p = np.exp(z) / np.exp(z).sum()
        handle = hessian_eig(W, p)
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(handle, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,eigenvalue"
        parsed = [line.split(",") for line in lines[1:]]
        assert [int(row[0]) for row in parsed] == list(range(len(handle.eigenvalues)))
        assert np.array_equal(
            [float(row[1]) for row in parsed], handle.eigenvalues
        )

    def test_eigenvector_dump_round_trips(self, tmp_path):
        rng = np.random.default_rng(31)
        W = rng.standard_normal((8, 5))
        z = rng.standard_normal(5)
        p = np.exp(z) / np.exp(z).sum()
        handle = hessian_eig(W, p)
        path = tmp_path / "vectors.f64"
        write_eigenvectors_f64(handle, path)
        assert np.array_equal(read_f64_tensor(path), handle.eigenvectors.T)
