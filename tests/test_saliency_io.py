"""I/O tests: display normalization, PGM, model/dataset persistence, CSV."""

import contextlib
import csv
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import read_f64_tensor, read_pgm, write_raw_dataset

from casokit import saliency_io
from casokit import (
    Dataset,
    DimensionError,
    FormatError,
    LayerSpec,
    NetworkSpec,
    dataset_load,
    dataset_load_raw,
    dataset_save_csv,
    init_network,
    model_load,
    model_save,
    normalize_for_display,
    read_f32_tensor,
    read_labels,
    write_csv_rows,
    write_f64_tensor,
    write_pgm,
)


def _display_reference(delta, width, height, channels):
    """One vector's display pixels, computed on their own."""
    mag = np.abs(delta).reshape(height, width, channels).sum(axis=2)
    cap = float(np.percentile(mag, 99.0))
    values = (mag > 0.0) if cap <= 0.0 else np.clip(mag / cap, 0.0, 1.0)
    return np.floor(values * 255.0 + 0.5).astype(np.uint8)


class TestNormalizeForDisplay:
    def test_two_pixel_example(self):
        # mags (2, 1); 99th percentile interpolates to 1.99, top pixel clips,
        # and 255 / 1.99 = 128.1 rounds to 128
        pixels = normalize_for_display(np.array([[-2.0, 1.0]]), width=2, height=1)
        assert pixels.dtype == np.uint8
        assert pixels.tolist() == [[[255, 128]]]

    def test_all_zero_map_gives_zero_pixels(self):
        pixels = normalize_for_display(np.zeros((2, 6)), width=3, height=2)
        assert pixels.shape == (2, 2, 3)
        assert not pixels.any()

    def test_zero_cap_saturates_outliers(self):
        # one hot pixel in 200: the 99th percentile is still zero
        delta = np.zeros((1, 200))
        delta[0, 7] = 3.5
        pixels = normalize_for_display(delta, width=20, height=10)
        assert pixels[0].flat[7] == 255
        assert int(pixels.sum()) == 255

    def test_channels_sum_per_pixel(self):
        delta = np.array([[1.0, -2.0, 0.5, 0.0, 0.0, 0.0, 3.0, 0.25, -0.25, 0.5, 0.5, 0.5]])
        pixels = normalize_for_display(delta, width=2, height=2, channels=3)
        mags = np.array([[3.5, 0.0], [3.5, 1.5]])
        values = np.clip(mags / np.percentile(mags, 99.0), 0.0, 1.0)
        assert np.array_equal(pixels[0], np.floor(values * 255.0 + 0.5))
        assert pixels[0, 1, 1] == 109  # 1.5 / 3.5 of 255 is 109.3

    @pytest.mark.parametrize("scale", [4.0, 3.7, 1e-6])
    def test_scaling_a_map_keeps_its_pixels(self, scale):
        delta = np.random.default_rng(17).standard_normal((1, 64))
        a = normalize_for_display(delta, width=8, height=8)
        b = normalize_for_display(scale * delta, width=8, height=8)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("width,height,channels", [(4, 4, 1), (3, 5, 1), (2, 3, 3)])
    def test_stack_is_bitwise_its_rows_alone(self, width, height, channels):
        size = width * height * channels
        rng = np.random.default_rng(19)
        stack = rng.standard_normal((5, size))
        stack[1] = 0.0  # all-zero map
        stack[2] = 0.0
        stack[2, 0] = -2.5  # one hot entry: the cap is zero, that pixel saturates
        stack[3, : size // 2] = 0.0
        pixels = normalize_for_display(stack, width, height, channels)
        assert pixels.shape == (5, height, width)
        for row, image in zip(stack, pixels):
            assert image.tobytes() == _display_reference(row, width, height, channels).tobytes()
            alone = normalize_for_display(row[None], width, height, channels)
            assert alone.tobytes() == image.tobytes()
        assert not pixels[1].any()
        assert int(pixels[2].sum()) == 255

    def test_half_steps_round_up(self):
        # 12 of 512 pixels at 1.0 make the cap exactly 1, so each value is
        # its magnitude; k/255 - half a step gives k, k/255 + half a step k + 1
        k = np.arange(1, 250)
        below, above = (k - 0.5) / 255, (k + 0.5) / 255
        assert np.array_equal(below * 255, k - 0.5) and np.array_equal(above * 255, k + 0.5)
        row = np.concatenate([below, above, np.zeros(2), np.ones(12)])
        pixels = normalize_for_display(row[None], width=512, height=1)[0, 0]
        assert pixels[: k.size].tolist() == k.tolist()
        assert pixels[k.size : 2 * k.size].tolist() == (k + 1).tolist()
        assert pixels[-14:].tolist() == [0, 0] + [255] * 12

    @staticmethod
    def _assert_cap_is_numpy_percentile(stack, width, height, channels):
        mag = np.abs(stack).reshape(len(stack), -1, channels).sum(axis=2)
        cap = saliency_io._percentile_cap(mag.copy())
        assert cap.tobytes() == np.percentile(mag, 99.0, axis=1).tobytes()
        pixels = normalize_for_display(stack, width, height, channels)
        for row, image in zip(stack, pixels):
            assert image.tobytes() == _display_reference(row, width, height, channels).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_cap_is_numpy_percentile_bitwise(self, data):
        """The cap equals np.percentile(mag, 99, axis=1) bit for bit, on
        1-5 and 784 pixels, one to three channels, zeros, ties, and
        magnitudes from 1e-8 to 1e8."""
        width = data.draw(st.sampled_from([1, 2, 3, 4, 5, 784]), label="width")
        height = 1 if width == 784 else data.draw(st.integers(1, 5), label="height")
        channels = data.draw(st.integers(1, 3), label="channels")
        shape = (data.draw(st.integers(1, 3)), width * height * channels)
        mode = data.draw(st.sampled_from(["drawn", "ties", "seeded"]), label="mode")
        if mode == "seeded":  # generic floats, where the two lerp forms round apart
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
            stack = 10.0 ** rng.uniform(-8, 8, shape) * rng.choice([-1.0, 0.0, 1.0], shape)
        else:
            values = st.one_of(st.just(0.0), st.floats(1e-8, 1e8), st.floats(-1e8, -1e-8))
            if mode == "ties":
                values = st.sampled_from(data.draw(st.lists(values, min_size=1, max_size=3)))
            stack = data.draw(hnp.arrays(np.float64, shape, elements=values), label="stack")
        self._assert_cap_is_numpy_percentile(stack, width, height, channels)

    def test_one_pixel_cap_is_numpy_percentile_bitwise(self):
        # n = 1: the virtual index is the last index, numpy's edge branch
        stack = np.array([[3.0, -1e-8], [0.0, 0.0], [1e8, 1e-8]])
        self._assert_cap_is_numpy_percentile(stack, 1, 1, 2)

    def test_validation(self):
        with pytest.raises(DimensionError):  # one map is a 1-row stack, not a vector
            normalize_for_display(np.zeros(4), width=2, height=2)
        with pytest.raises(DimensionError):
            normalize_for_display(np.zeros((2, 5)), width=2, height=2)
        with pytest.raises(DimensionError):
            normalize_for_display(np.zeros((1, 2, 2)), width=2, height=2)
        for width, height, channels in ((2, 2, 0), (0, 1, 1), (1, 0, 1), (-1, -4, 1)):
            with pytest.raises(ValueError):
                normalize_for_display(np.zeros((1, 4)), width, height, channels)

    def test_removed_display_names(self):
        import casokit

        for name in ("DisplayMap", "quantize_display"):
            with pytest.raises(AttributeError):
                getattr(casokit, name)


class TestPgm:
    def test_write_read_round_trip(self, tmp_path):
        image = np.random.default_rng(3).integers(0, 256, (9, 7), dtype=np.uint8)
        path = tmp_path / "map.pgm"
        write_pgm(image, path)
        assert path.read_bytes() == b"P5\n7 9\n255\n" + image.tobytes()
        assert np.array_equal(read_pgm(path), image)

    def test_single_pixel(self, tmp_path):
        path = tmp_path / "one.pgm"
        write_pgm(np.zeros((1, 1), np.uint8), path)
        assert path.read_bytes() == b"P5\n1 1\n255\n\x00"

    def test_comment_is_skipped_by_reader(self, tmp_path):
        path = tmp_path / "c.pgm"
        write_pgm(np.full((1, 2), 255, np.uint8), path, comment="method=caso seed=0")
        assert path.read_bytes() == b"P5\n# method=caso seed=0\n2 1\n255\n\xff\xff"
        assert read_pgm(path).tolist() == [[255, 255]]

    def test_empty_comment_writes_no_comment_line(self, tmp_path):
        path = tmp_path / "e.pgm"
        write_pgm(np.ones((1, 1), np.uint8), path, comment="")
        assert path.read_bytes() == b"P5\n1 1\n255\n\x01"

    def test_multiline_comment_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(np.ones((1, 1), np.uint8), tmp_path / "x.pgm", comment="a\nb")
        assert not (tmp_path / "x.pgm").exists()

    @pytest.mark.parametrize("image,error", [
        (np.zeros((2, 2)), ValueError),  # float pixels
        (np.zeros((2, 2), np.int64), ValueError),
        ([[0, 1]], ValueError),  # a list is int64, not uint8
        (np.zeros(4, np.uint8), DimensionError),
        (np.zeros((1, 2, 2), np.uint8), DimensionError),
        (np.zeros((0, 3), np.uint8), DimensionError),
        (np.zeros((3, 0), np.uint8), DimensionError),
    ])
    def test_refuses_what_is_not_a_uint8_image(self, tmp_path, image, error):
        with pytest.raises(error):
            write_pgm(image, tmp_path / "x.pgm")
        assert not (tmp_path / "x.pgm").exists()


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

    # 1e400 parses as inf; 1.5, true and 2.0 would pass int() as the 1 or 2
    # that the arrays' shapes agree with
    @pytest.mark.parametrize("layer,key,value", [
        (0, "in", "1e400"), (0, "in", "1.5"), (0, "in", "true"), (1, "out", "2.0"),
    ])
    def test_layer_dims_must_be_json_integers(self, tmp_path, layer, key, value):
        net = init_network(NetworkSpec((LayerSpec(1, 2, "relu"), LayerSpec(2, 2, "identity"))))
        path = tmp_path / "dims.json"
        model_save(net, path)
        doc = json.loads(path.read_text())
        doc["layers"][layer][key] = "VALUE"
        path.write_text(json.dumps(doc).replace('"VALUE"', value))
        with pytest.raises(FormatError) as exc:
            model_load(path)
        assert str(exc.value) == f"layer {layer} key '{key}' must be a JSON integer ({path})"

    # np.asarray alone would read "0.5" as 0.5, true as 1.0 and null as nan;
    # Network refuses the nan first
    @pytest.mark.parametrize("layer,key,value,message", [
        (0, "weights", '"0.5"', "layer 0 key 'weights' must hold JSON numbers"),
        (0, "weights", "true", "layer 0 key 'weights' must hold JSON numbers"),
        (1, "bias", "false", "layer 1 key 'bias' must hold JSON numbers"),
        (1, "bias", "null", "inconsistent model: layer 1: parameters must be finite"),
    ])
    def test_weights_and_bias_must_be_json_numbers(self, tmp_path, layer, key, value,
                                                   message):
        net = init_network(NetworkSpec((LayerSpec(2, 2, "relu"), LayerSpec(2, 2, "identity"))))
        path = tmp_path / "entries.json"
        model_save(net, path)
        doc = json.loads(path.read_text())
        entries = doc["layers"][layer][key]
        if key == "weights":
            entries = entries[1]
        entries[0] = "VALUE"
        path.write_text(json.dumps(doc).replace('"VALUE"', value))
        with pytest.raises(FormatError) as exc:
            model_load(path)
        assert str(exc.value) == f"{message} ({path})"

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


def _stat_key(st):
    return [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]


def _sidecar_parts(side, source):
    """A sidecar's tag, header and payload, after checking that its stat key
    is the source's and dropping it."""
    tag, head, payload = side.read_bytes().split(b"\n", 2)
    head = json.loads(head)
    assert head.pop("source_stat") == _stat_key(source.stat())
    return tag, head, payload


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

    @pytest.mark.parametrize("tag, trusted", [(b"casokit-weights 3", False),
                                              (b"casokit-weights 4", True)])
    def test_earlier_tag_is_not_trusted_for_a_string_weight(self, tmp_path, tag, trusted):
        # version 3 sidecars were written while a weight given as a JSON
        # string still loaded; one that records the file's stat key must not
        # stand in for the parse that now refuses it
        path = self._saved(tmp_path)
        net = model_load(path)
        side = self._sidecar(path)
        _, head, payload = side.read_bytes().split(b"\n", 2)
        doc = json.loads(path.read_text())
        doc["layers"][0]["weights"][0][0] = repr(float(net.weights[0][0, 0]))
        path.write_text(json.dumps(doc))
        head = json.loads(head)
        head["source_stat"] = _stat_key(path.stat())
        side.write_bytes(tag + b"\n" + json.dumps(head).encode() + b"\n" + payload)
        later = path.stat().st_ctime_ns + 10**9
        os.utime(side, ns=(later, later))
        if trusted:
            _assert_same_net(model_load(path), net)
        else:
            with pytest.raises(FormatError, match="layer 0 key 'weights' must hold JSON numbers"):
                model_load(path)

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
        st_before = path.stat()
        net = model_load(path)
        data = self._sidecar(path).read_bytes()
        tag, head, payload = data.split(b"\n", 2)
        head = json.loads(head)
        assert tag == b"casokit-weights 4"
        assert list(head) == ["source_stat", "layers", "payload_bytes", "payload_crc32"]
        assert head["source_stat"] == _stat_key(st_before)
        assert head["layers"] == [[7, 5, "relu"], [5, 3, "identity"]]
        assert head["payload_bytes"] == len(payload) == 8 * (7 * 5 + 5 + 5 * 3 + 3)
        assert head["payload_crc32"] == zlib.crc32(payload)
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

    def _corrupt_version2(self, path):
        # a version 2 sidecar records the JSON's SHA-256 as well
        side = self._sidecar(path)
        side.write_bytes(side.read_bytes().replace(b"weights 3\n", b"weights 2\n", 1))

    @pytest.mark.parametrize("case", ["overwritten", "truncated", "flipped", "other_model",
                                      "version2"])
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
        # the two sidecars differ only in their sources' stat keys
        assert (_sidecar_parts(self._sidecar(path), path)
                == _sidecar_parts(self._sidecar(fresh), fresh))
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


def _csv_oracle(path):
    """dataset_load as the csv module alone parses a file, cell by cell
    with float(): an independent statement of the grammar it must follow."""
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    rows = []
    width = None
    for line_no, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if row[0].lstrip().startswith("#"):
            continue
        if width is None:
            width = len(row)
            try:
                [float(c) for c in row]
            except ValueError:
                continue
        if len(row) != width:
            raise FormatError(f"row has {len(row)} fields, expected {width}",
                              path=path, line=line_no)
        values = []
        for c in row:
            try:
                values.append(float(c))
            except ValueError:
                raise FormatError(f"non-numeric value {c!r}", path=path, line=line_no) from None
        label = values[-1]
        if not (label >= 0 and label.is_integer()):
            raise FormatError(f"label {label!r} is not a nonnegative integer",
                              path=path, line=line_no)
        if label >= 2.0**53:
            raise FormatError(f"label {row[-1].strip()} is not below 2**53", path=path,
                              line=line_no)
        rows.append((values[:-1], int(label), line_no))
    if not rows:
        raise FormatError("no data rows found", path=path)
    if width < 2:
        raise FormatError("rows need at least one feature and a label", path=path)
    for features, _, line_no in rows:
        for v in features:
            if not math.isfinite(v):
                raise FormatError(f"feature {v} is not finite", path=path, line=line_no)
    return Dataset(np.asarray([r[0] for r in rows], dtype=np.float64),
                   np.asarray([r[1] for r in rows], dtype=np.int64))


def _load_outcome(load, path):
    try:
        data = load(path)
    except FormatError as e:
        return type(e), str(e), e.line
    return data.X.shape, data.X.tobytes(), data.labels.tobytes()


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["0", "-0.0", ".5", "5.", "+1", "1e5", "1E-3", "-2.5e+10", "4.9e-324",
                     "2.4703282292062328e-324", "007"]),
)
_OVERFLOW = st.sampled_from(["1e999", "-1e999"])
_LABELS = st.one_of(st.integers(0, 20).map(str), st.sampled_from(["3.0", "-0.0", "1e2"]))
_BAD_PLAIN_LABELS = st.sampled_from(["-1", "1.5", "-0.5", "1e999", "-1e999"])
# cells float() reads but numpy does not, or neither reads
_ODD_CELLS = st.sampled_from([
    "1_0", "1_000.5", "inf", "-inf", "nan", "Infinity", "NaN", "", " ", "abc", "1e", "e1",
    "-", ".", "+-1", "1.2.3", "1 2", "0x10", "\u0661", "1\x0c", "\xa01", "#1",
    # numpy strips these separator characters as whitespace, float() does not
    "1\x1c", "\x1f2",
])
_ODD_LABELS = st.sampled_from(["nan", "inf", "-inf", "1_0", " 2 ", "x", ""])


def _decorate(cell):
    """Spaces, tabs or quotes around a cell."""
    return st.sampled_from(["{}", " {}", "{} ", "\t{}", " {} ", '"{}"', '" {}"']).map(
        lambda fmt: fmt.format(cell))


# one odd cell in an otherwise plain file: cells at the edge of what
# float() and the csv dialect accept
_BOUNDARY_CELLS = st.sampled_from([
    "1_0", "inf", "nan", "1\x1c", "\x1f2", "2#1", "1 #c", '"1"2', '"1"', " 1 ", "١", "\xa01",
    "1\x0c", "0x10", "", " ", "1e", "+-1",
])
_ODD_LINES = st.sampled_from(["", " ", "\t", "# note", " #1,2", "#", "f0,x,label"])


@st.composite
def _csv_bytes(draw):
    """CSV text of numeric rows. Plain files hold only plain numbers; a
    near-plain file has one odd cell, label, line or line end; a wild file
    mixes headers, blank and comment lines, odd cells and labels,
    decorations and CR line ends. Any row may be ragged."""
    mode = draw(st.sampled_from(["plain", "near-plain", "near-plain", "wild"]))
    wild = mode == "wild"
    width = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        n = width + (draw(st.sampled_from([-1, 1])) if draw(st.integers(0, 19)) == 0 else 0)
        odd = st.one_of(_OVERFLOW, _ODD_CELLS) if wild else _OVERFLOW
        cells = [draw(_NUMBERS if draw(st.integers(0, 4 if wild else 29)) else odd)
                 for _ in range(n)]
        bad = st.one_of(_BAD_PLAIN_LABELS, _ODD_LABELS) if wild else _BAD_PLAIN_LABELS
        cells.append(draw(_LABELS if draw(st.integers(0, 9)) else bad))
        if wild or draw(st.integers(0, 3)) == 0:
            cells = [draw(_decorate(c)) if draw(st.integers(0, 3)) == 0 else c for c in cells]
            if not wild:
                cells = [c.replace('"', "") for c in cells]
        rows.append(cells)
    oddity = None
    if mode == "near-plain":
        oddity = draw(st.sampled_from(["cell", "cell", "line", "end"]))
    if oddity == "cell" and rows:
        cells = draw(st.sampled_from(rows))
        cells[draw(st.integers(0, len(cells) - 1))] = draw(_BOUNDARY_CELLS)
    lines = [",".join(cells) for cells in rows]
    for _ in range(draw(st.integers(0, 3)) if wild else int(oddity == "line")):
        lines.insert(draw(st.integers(0, len(lines))), draw(_ODD_LINES))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"] if wild else ["\n", "\r\n"]))
            for _ in lines]
    if oddity == "end" and lines:
        ends[draw(st.integers(0, len(ends) - 1))] = "\r"
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("utf-8")


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

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=_csv_bytes())
    @example(data=b"1\x1c,2\n")
    @example(data=b"1,2#1\n")
    @example(data=b"1_0,2\n")
    @example(data=b'"1",2\n')
    @example(data=b"1,2\r3,4\r")
    @example(data=b"1,2\n \n3,4\n")
    @example(data=b"f,label\r\n1,2\r\n")
    @example(data=b"inf,2\n")
    @example(data=b"1,-0.0\n")
    @example(data=b"1,1.5\n")
    @example(data=b"1,1e999\n")
    def test_matches_csv_module_oracle(self, tmp_path, data):
        path = tmp_path / "fuzz.csv"
        path.write_bytes(data)
        assert _load_outcome(dataset_load, path) == _load_outcome(_csv_oracle, path)

    def test_label_beyond_int64(self, tmp_path):
        path = tmp_path / "big.csv"
        for label in ("1e19", "9223372036854775808", "9223372036854774784"):
            path.write_text(f"1.0,2.0,0\n1.0,2.0,{label}\n")
            with pytest.raises(FormatError, match=r"not below 2\*\*53") as exc:
                dataset_load(path)
            assert exc.value.line == 2

    @pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
    def test_labels_are_exact_below_2_53(self, tmp_path, quote):
        # float() reads the label cell, and it rounds integers above 2**53:
        # 2**53 + 1 would load as 2**53, so it is refused with its line
        path = tmp_path / "big.csv"
        path.write_text(f"1.0,2.0,0\n1.0,2.0,{quote}9007199254740993{quote}\n")
        with pytest.raises(FormatError, match=r"9007199254740993 is not below 2\*\*53") as exc:
            dataset_load(path)
        assert exc.value.line == 2
        path.write_text(f"1.0,2.0,{quote}{2**53 - 1}{quote}\n")
        assert dataset_load(path).labels.tolist() == [2**53 - 1]

    def test_non_utf8_reports_path_and_offset(self, tmp_path):
        path = tmp_path / "latin.csv"
        data = b"1.0,2.0,0\n1.0,\xff,1\n"
        path.write_bytes(data)
        with pytest.raises(FormatError, match="UTF-8") as exc:
            dataset_load(path)
        assert exc.value.path == path
        assert exc.value.offset == data.index(b"\xff") and exc.value.line == 2


class TestDatasetSidecar:
    """dataset_load's binary copy of a parsed CSV next to it."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """The paths _csv_dataset ran on while the fixture is active."""
        seen = []
        real = saliency_io._csv_dataset

        def spy(data, path):
            seen.append(path)
            return real(data, path)

        monkeypatch.setattr(saliency_io, "_csv_dataset", spy)
        return seen

    @staticmethod
    def _saved(tmp_path, seed=21, name="data.csv"):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-300, 300, (7, 5))
        X[0, :3] = [-0.0, 5e-324, -1.7976931348623157e308]
        data = Dataset(X=X, labels=rng.integers(0, 2**53, 7))  # float() reads labels
        path = tmp_path / name
        dataset_save_csv(data, path)
        return path, data

    @staticmethod
    def _sidecar(path):
        return path.with_name(path.name + ".dataset")

    @staticmethod
    def _assert_same(a, b):
        assert a.X.shape == b.X.shape
        assert a.X.tobytes() == b.X.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_cold_and_warm_loads_are_bitwise_equal(self, tmp_path, parses):
        path, data = self._saved(tmp_path)
        cold = dataset_load(path)
        assert self._sidecar(path).is_file()
        warm = dataset_load(str(path))
        self._assert_same(cold, data)
        self._assert_same(warm, data)
        assert parses == [path]  # the cold load only

    def test_sidecar_holds_the_documented_layout(self, tmp_path):
        path, data = self._saved(tmp_path)
        dataset_load(path)
        tag, head, payload = self._sidecar(path).read_bytes().split(b"\n", 2)
        head = json.loads(head)
        assert tag == b"casokit-dataset 4"
        assert list(head) == ["source_stat", "rows", "dim", "payload_bytes", "payload_crc32"]
        assert head["source_stat"] == _stat_key(path.stat())
        assert (head["rows"], head["dim"]) == (7, 5)
        assert head["payload_bytes"] == len(payload) == 8 * (7 * 5 + 7)
        assert head["payload_crc32"] == zlib.crc32(payload)
        assert payload[: 8 * 35] == data.X.astype("<f8").tobytes()
        assert payload[8 * 35 :] == data.labels.astype("<i8").tobytes()

    def test_edited_csv_is_parsed_again_and_its_sidecar_rewritten(self, tmp_path, parses):
        path, _ = self._saved(tmp_path)
        dataset_load(path)
        _, edited = self._saved(tmp_path, seed=22)
        parses.clear()
        self._assert_same(dataset_load(path), edited)
        assert parses == [path]
        head = json.loads(self._sidecar(path).read_bytes().split(b"\n", 2)[1])
        assert head["source_stat"] == _stat_key(path.stat())
        parses.clear()
        self._assert_same(dataset_load(path), edited)
        assert parses == []

    def _corrupt_truncated(self, path):
        side = self._sidecar(path)
        side.write_bytes(side.read_bytes()[:-8])

    def _corrupt_flipped(self, path):
        side = self._sidecar(path)
        data = bytearray(side.read_bytes())
        data[-3] ^= 0x01
        side.write_bytes(bytes(data))

    def _corrupt_foreign(self, path):
        other, _ = self._saved(path.parent, seed=23, name="other.csv")
        dataset_load(other)
        self._sidecar(path).write_bytes(self._sidecar(other).read_bytes())

    def _corrupt_weights(self, path):
        # a model's weight sidecar under the dataset sidecar's name
        model = path.parent / "m.json"
        model_save(_net(11), model)
        model_load(model)
        self._sidecar(path).write_bytes(model.with_name("m.json.weights").read_bytes())

    def _corrupt_garbage(self, path):
        self._sidecar(path).write_bytes(b"casokit-dataset 4\n{not json\n\x00\x01")

    def _corrupt_empty(self, path):
        self._sidecar(path).write_bytes(b"")

    def _corrupt_deep(self, path):
        # a header nested past the recursion limit
        side = self._sidecar(path)
        payload = side.read_bytes().split(b"\n", 2)[2]
        side.write_bytes(b"casokit-dataset 4\n" + b"[" * 100_000 + b"]" * 100_000 + b"\n"
                         + payload)

    def _corrupt_version1(self, path):
        # a version 1 sidecar may hold a label that float() rounded
        side = self._sidecar(path)
        side.write_bytes(side.read_bytes().replace(b"dataset 4\n", b"dataset 1\n", 1))

    def _corrupt_version2(self, path):
        # a version 2 sidecar is checked by the CSV's SHA-256 alone
        side = self._sidecar(path)
        side.write_bytes(side.read_bytes().replace(b"dataset 4\n", b"dataset 2\n", 1))

    def _corrupt_version3(self, path):
        # a version 3 sidecar records the CSV's SHA-256 beside its stat key
        side = self._sidecar(path)
        side.write_bytes(side.read_bytes().replace(b"dataset 4\n", b"dataset 3\n", 1))

    @pytest.mark.parametrize(
        "case", ["truncated", "flipped", "foreign", "weights", "garbage", "empty", "deep",
                 "version1", "version2", "version3"])
    def test_bad_sidecar_is_ignored_and_rewritten(self, tmp_path, case, parses):
        path, data = self._saved(tmp_path)
        dataset_load(path)
        good = self._sidecar(path).read_bytes()
        getattr(self, f"_corrupt_{case}")(path)
        parses.clear()
        self._assert_same(dataset_load(path), data)
        assert parses == [path]
        assert self._sidecar(path).read_bytes() == good

    @pytest.mark.parametrize("refused", ["create", "rename"])
    def test_read_only_directory_leaves_no_sidecar_or_temp_file(
            self, tmp_path, monkeypatch, refused):
        path, data = self._saved(tmp_path)
        real_open = open

        def refuse_create(file, mode="r", *args, **kwargs):
            if "w" in mode:
                raise PermissionError(f"read-only: {file}")
            return real_open(file, mode, *args, **kwargs)

        def refuse_rename(src, dst):
            raise PermissionError(f"read-only: {dst}")

        if refused == "create":
            monkeypatch.setattr(saliency_io, "open", refuse_create, raising=False)
        else:
            monkeypatch.setattr(saliency_io.os, "replace", refuse_rename)
        self._assert_same(dataset_load(path), data)
        self._assert_same(dataset_load(path), data)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    @pytest.mark.parametrize("text", [
        "f0,f1,label\n0.5,-1.25,2\n1.0,3.5,0\n",
        '"0.5",-1.25,"2"\n1_0,3.5,0\n',
    ], ids=["header", "quoted"])
    def test_csv_module_parse_is_cached_too(self, tmp_path, parses, text):
        path = tmp_path / "odd.csv"
        path.write_text(text)
        cold = dataset_load(path)
        assert parses == [path]
        parses.clear()
        self._assert_same(dataset_load(path), cold)
        assert parses == []

    @pytest.mark.parametrize("case", ["none", "stale", "foreign", "garbage"])
    @pytest.mark.parametrize("bad", [
        "1.0,2.0,0\n1.0,oops,1\n", "1.0,2.0,0\n1.0,1\n", "1.0,2.0,1.5\n", "# only\n",
        "1.0,nan,1\n",
    ], ids=["cell", "ragged", "label", "no-rows", "non-finite"])
    def test_bad_csv_fails_alike_whatever_sidecar_sits_next_to_it(self, tmp_path, bad, case):
        path, _ = self._saved(tmp_path)
        if case != "none":
            dataset_load(path)  # a sidecar for the file's earlier, valid bytes
        if case in ("foreign", "garbage"):
            getattr(self, f"_corrupt_{case}")(path)
        before = self._sidecar(path).read_bytes() if case != "none" else None
        path.write_text(bad)
        clean = tmp_path / "clean"
        clean.mkdir()
        (clean / "data.csv").write_text(bad)
        expected = _load_outcome(dataset_load, clean / "data.csv")
        got = _load_outcome(dataset_load, path)
        assert isinstance(expected[1], str)  # an error, not a dataset
        assert got == (expected[0], expected[1].replace(str(clean), str(tmp_path)), expected[2])
        assert sorted(p.name for p in clean.iterdir()) == ["data.csv"]
        after = self._sidecar(path).read_bytes() if self._sidecar(path).exists() else None
        assert after == before


def _tick_past(path):
    """Return once a file written now gets an mtime later than path's last
    change, so that a sidecar written next is not racy."""
    st = path.stat()
    probe = path.with_name(path.name + ".tick")
    while True:
        probe.write_bytes(b"")
        if probe.stat().st_mtime_ns > max(st.st_mtime_ns, st.st_ctime_ns):
            break
        time.sleep(0.001)
    probe.unlink()


def _save_source(kind, directory, seed, name=None):
    """A small model JSON or dataset CSV from seed, returned once a
    timestamp tick has passed since it was written."""
    path = directory / (name or ("model.json" if kind == "model" else "data.csv"))
    if kind == "model":
        model_save(_net(seed), path)
    else:
        rng = np.random.default_rng(seed)
        dataset_save_csv(Dataset(rng.standard_normal((7, 5)), rng.integers(0, 3, 7)), path)
    _tick_past(path)
    return path


_LOADERS = {"model": (model_load, ".weights", "_json_model"),
            "dataset": (dataset_load, ".dataset", "_csv_dataset")}


def _parsed(kind, path):
    """The loader's parse of path's bytes, past every sidecar."""
    return getattr(saliency_io, _LOADERS[kind][2])(path.read_bytes(), path)[0]


@contextlib.contextmanager
def _source_reads():
    """The paths saliency_io._read_bytes reads inside the block; sidecars
    are read apart from it."""
    seen = []
    real = saliency_io._read_bytes

    def spy(path):
        seen.append(str(path))
        return real(path)

    saliency_io._read_bytes = spy
    try:
        yield seen
    finally:
        saliency_io._read_bytes = real


@contextlib.contextmanager
def _parses(kind):
    """The paths the loader of this kind parses inside the block."""
    seen = []
    name = _LOADERS[kind][2]
    real = getattr(saliency_io, name)

    def spy(data, path):
        seen.append(str(path))
        return real(data, path)

    setattr(saliency_io, name, spy)
    try:
        yield seen
    finally:
        setattr(saliency_io, name, real)


def _move_source(path, how):
    """Give path a new stat key and the same bytes, as cp-and-rename
    ("copied", a new inode) or touch ("touched", new times) does, and
    return once a timestamp tick has passed."""
    if how == "copied":
        copy = path.with_name("copy.tmp")
        shutil.copy2(path, copy)
        os.replace(copy, path)
    else:
        os.utime(path)
    _tick_past(path)


def _outcome(kind, load, path):
    """What load(path) gives: the result's bytes, or its error."""
    try:
        got = load(path)
    except ValueError as e:  # FormatError, or NonFiniteError from Dataset
        return type(e), str(e), getattr(e, "line", None), getattr(e, "offset", None)
    if kind == "model":
        return got.spec, tuple(a.tobytes() for a in got.weights + got.biases)
    return got.X.shape, got.X.tobytes(), got.labels.tobytes()


class TestSidecarTrust:
    """A load trusts a sidecar only when it records its source's stat key
    and is newer than the source; every other case parses the source and
    returns what its parse returns."""

    @pytest.fixture
    def source_reads(self):
        with _source_reads() as seen:
            yield seen

    @staticmethod
    def _rekey_in_same_tick(path, side):
        """Make side look written in the tick in which path last changed,
        for path's current stat: what a same-size rewrite of path within
        the tick of the sidecar's write leaves behind. A header that no
        longer parses is left alone."""
        try:
            tag, head, payload = side.read_bytes().split(b"\n", 2)
            head = json.loads(head)
            head["source_stat"] = _stat_key(path.stat())
        except (ValueError, TypeError):
            return
        side.write_bytes(tag + b"\n" + json.dumps(head).encode() + b"\n" + payload)
        changed = path.stat().st_ctime_ns
        os.utime(side, ns=(changed, changed))

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        kind=st.sampled_from(sorted(_LOADERS)),
        seed=st.integers(0, 2**16),
        cold_load=st.booleans(),
        edit=st.sampled_from(["none", "same_tick", "mtime_restored", "copied", "touched"]),
        damage=st.sampled_from(["none", "truncated", "flipped", "foreign"]),
        where=st.floats(0, 1, exclude_max=True),
        byte=st.one_of(st.sampled_from(b"0123456789"), st.integers(0, 255)),
    )
    def test_every_load_returns_what_the_parse_returns(
            self, tmp_path_factory, kind, seed, cold_load, edit, damage, where, byte):
        load, suffix, _ = _LOADERS[kind]
        directory = tmp_path_factory.mktemp("trust")
        path = _save_source(kind, directory, seed)
        side = path.with_name(path.name + suffix)
        if cold_load:
            load(path)
        if damage == "foreign":
            other = _save_source(kind, directory, seed + 1, name="other" + path.suffix)
            load(other)
            side.write_bytes(other.with_name(other.name + suffix).read_bytes())
        elif damage != "none" and side.exists():
            data = bytearray(side.read_bytes())
            at = int(where * len(data))
            if damage == "truncated":
                del data[at:]
            else:
                data[at] ^= 1 << (byte % 8)
            side.write_bytes(bytes(data))
        if edit in ("same_tick", "mtime_restored"):
            before = path.stat()
            data = bytearray(path.read_bytes())
            data[int(where * len(data))] = byte  # the same size
            path.write_bytes(bytes(data))
            if edit == "mtime_restored":
                os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
            elif side.exists():
                self._rekey_in_same_tick(path, side)
        elif edit in ("copied", "touched"):
            _move_source(path, edit)
        expected = _outcome(kind, lambda p: _parsed(kind, p), path)
        with _parses(kind) as parsed:
            assert _outcome(kind, load, path) == expected
        if edit != "none":  # a new stat key, or a racy sidecar: parsed again
            assert parsed == [str(path)]
        with _source_reads() as reads:
            assert _outcome(kind, load, path) == expected  # from the sidecar just written
        if edit in ("copied", "touched") and not isinstance(expected[0], type):
            # parsed, and written a tick after the source's change
            assert reads == []

    @pytest.mark.parametrize("kind", sorted(_LOADERS))
    def test_warm_load_reads_no_source_byte(self, tmp_path, kind, source_reads):
        load, _, _ = _LOADERS[kind]
        path = _save_source(kind, tmp_path, 3)
        cold = _outcome(kind, load, path)
        assert source_reads == [str(path)]
        source_reads.clear()
        assert _outcome(kind, load, path) == cold
        assert source_reads == []

    @pytest.mark.parametrize("kind", sorted(_LOADERS))
    def test_racy_rule_catches_a_same_tick_rewrite(self, tmp_path, kind, source_reads):
        load, suffix, _ = _LOADERS[kind]
        path = _save_source(kind, tmp_path, 3)
        side = path.with_name(path.name + suffix)
        load(path)
        text = path.read_bytes()
        # the last digit: a bias or a label, so the edited file still loads
        digit = max(i for i, c in enumerate(text) if c in b"123456789")
        path.write_bytes(text[:digit] + (b"1" if text[digit] != ord("1") else b"2")
                         + text[digit + 1:])
        edited = _outcome(kind, lambda p: _parsed(kind, p), path)
        _tick_past(path)
        self._rekey_in_same_tick(path, side)
        source_reads.clear()
        with _parses(kind) as parsed:
            assert _outcome(kind, load, path) == edited
        assert source_reads == parsed == [str(path)]
        # the racy sidecar was rewritten, a tick after the rewrite, so it
        # is trusted now
        assert side.stat().st_mtime_ns > path.stat().st_ctime_ns
        _sidecar_parts(side, path)  # which records the source's new stat key
        source_reads.clear()
        assert _outcome(kind, load, path) == edited
        assert source_reads == []
        # the same sidecar written a tick after the rewrite is trusted by
        # its stat key alone: the racy rule is what read the source above
        self._rekey_in_same_tick(path, side)
        later = path.stat().st_ctime_ns + 1_000_000_000
        os.utime(side, ns=(later, later))
        source_reads.clear()
        load(path)
        assert source_reads == []

    @pytest.mark.parametrize("how", ["copied", "touched"])
    @pytest.mark.parametrize("kind", sorted(_LOADERS))
    def test_moved_source_is_parsed_once_then_trusted(self, tmp_path, kind, how,
                                                      source_reads):
        load, suffix, _ = _LOADERS[kind]
        path = _save_source(kind, tmp_path, 3)
        side = path.with_name(path.name + suffix)
        cold = _outcome(kind, load, path)
        before = _sidecar_parts(side, path)
        _move_source(path, how)
        source_reads.clear()
        with _parses(kind) as parsed:
            assert _outcome(kind, load, path) == cold
        assert source_reads == parsed == [str(path)]
        assert _sidecar_parts(side, path) == before  # only the stat key changed
        source_reads.clear()
        assert _outcome(kind, load, path) == cold
        assert source_reads == []

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_loads_do_not_import_hashlib(self, tmp_path, warm):
        model = _save_source("model", tmp_path, 3)
        data = _save_source("dataset", tmp_path, 3)
        if warm:
            model_load(model)
            dataset_load(data)
        script = ("import sys\n"
                  "from casokit import saliency_io\n"
                  "saliency_io.model_load(sys.argv[1])\n"
                  "saliency_io.dataset_load(sys.argv[2])\n"
                  "print('hashlib' in sys.modules, '_hashlib' in sys.modules)\n")
        src = str(Path(saliency_io.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script, str(model), str(data)],
                              capture_output=True, text=True, env=env, check=True)
        assert done.stdout == "False False\n"
        assert model.with_name("model.json.weights").is_file()
        assert data.with_name("data.csv.dataset").is_file()


class TestRawTensors:
    def test_f32_round_trip_quantizes(self, tmp_path):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((6, 4))
        path = tmp_path / "x.f32"
        write_raw_dataset(X, [], path, tmp_path / "y.labels")
        loaded = read_f32_tensor(path)
        assert np.array_equal(loaded, X.astype("<f4").astype(np.float64))

    def test_f32_header_and_size(self, tmp_path):
        path = tmp_path / "x.f32"
        path.write_bytes(b"\x03\x00\x00\x00\x02\x00\x00\x00" + np.arange(6, dtype="<f4").tobytes())
        assert read_f32_tensor(path).tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]

    def test_f32_truncated(self, tmp_path):
        path = tmp_path / "x.f32"
        write_raw_dataset(np.zeros((3, 2)), [], path, tmp_path / "y.labels")
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
        assert path.read_bytes()[:8] == b"\x05\x00\x00\x00\x03\x00\x00\x00"
        assert np.array_equal(read_f64_tensor(path), X)

    def test_f64_vector_promoted_to_row(self, tmp_path):
        path = tmp_path / "v.f64"
        write_f64_tensor(path, np.array([1.0, 2.0, 3.0]))
        assert read_f64_tensor(path).shape == (1, 3)

    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "y.labels"
        write_raw_dataset(np.zeros((6, 1)), [0, 3, 2, 2, 9, 2**32 - 1], tmp_path / "x.f32", path)
        loaded = read_labels(path)
        assert loaded.dtype == np.int64
        assert loaded.tolist() == [0, 3, 2, 2, 9, 2**32 - 1]

    def test_labels_truncated(self, tmp_path):
        path = tmp_path / "t.labels"
        write_raw_dataset(np.zeros((3, 1)), [1, 2, 3], tmp_path / "x.f32", path)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(FormatError):
            read_labels(path)

    def test_dataset_raw_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        data = Dataset(X=rng.standard_normal((7, 3)), labels=rng.integers(0, 5, 7))
        write_raw_dataset(data.X, data.labels, tmp_path / "d.f32", tmp_path / "d.labels")
        loaded = dataset_load_raw(tmp_path / "d.f32", tmp_path / "d.labels")
        assert np.array_equal(loaded.X, data.X.astype("<f4").astype(np.float64))
        assert np.array_equal(loaded.labels, data.labels)

    def test_dataset_raw_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(24)
        write_raw_dataset(rng.standard_normal((4, 2)), [0, 1], tmp_path / "d.f32",
                          tmp_path / "short.labels")
        with pytest.raises(FormatError, match="labels for"):
            dataset_load_raw(tmp_path / "d.f32", tmp_path / "short.labels")


@st.composite
def _raw_file(draw, fields, items):
    """Bytes of a raw file: fields u32 header fields (small, or any u32),
    then the payload they imply from items (at most 24 of them), left
    whole, cut short, or padded with junk."""
    shape = draw(st.lists(st.integers(0, 4) | st.integers(0, 2**32 - 1),
                          min_size=fields, max_size=fields))
    blob = struct.pack(f"<{fields}I", *shape)
    blob += b"".join(draw(st.lists(items, min_size=min(math.prod(shape), 24),
                                   max_size=min(math.prod(shape), 24))))
    edit = draw(st.sampled_from(["whole", "cut", "pad"]))
    if edit == "cut":
        return blob[:draw(st.integers(0, max(len(blob) - 1, 0)))]
    if edit == "pad":
        return blob + draw(st.binary(min_size=1, max_size=9))
    return blob


_F32 = st.binary(min_size=4, max_size=4)  # any bit pattern: NaNs and infinities too
_U32 = st.integers(0, 2**32 - 1).map(lambda v: struct.pack("<I", v))


def _raw_outcome(load, *paths):
    """The loaded value, or a FormatError, which must name one of the paths
    and a byte offset."""
    try:
        return load(*paths)
    except FormatError as e:
        assert e.path in paths and e.offset is not None, str(e)
        return e


class TestRawReadersFuzz:
    """Every raw file the readers reject raises FormatError with its path
    and a byte offset; every file they accept is its header's shape."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=_raw_file(2, _F32))
    @example(blob=b"\x01\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\xc0\x7f")
    @example(blob=b"\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x80\xff")
    @example(blob=b"\x01\x00\x00\x00\x01\x00\x00\x00\x01\x00\x80\x7f")  # a signaling NaN
    @example(blob=b"\x02\x00\x00\x00\x00\x00\x00\x00")  # 2 x 0
    @example(blob=b"\xff\xff\xff\xff\xff\xff\xff\xff")
    def test_tensor(self, tmp_path, blob):
        path = tmp_path / "x.f32"
        path.write_bytes(blob)
        got = _raw_outcome(read_f32_tensor, path)
        shape = struct.unpack_from("<II", blob) if len(blob) >= 8 else None
        if shape is None or len(blob) != 8 + 4 * math.prod(shape):
            assert isinstance(got, FormatError)
            assert got.offset <= len(blob)
            return
        expect = np.frombuffer(blob, "<f4", offset=8)
        if not np.isfinite(expect).all():
            assert isinstance(got, FormatError)
            assert got.offset == 8 + 4 * int(np.flatnonzero(~np.isfinite(expect))[0])
        else:
            assert got.tobytes() == expect.astype(np.float64).tobytes() and got.shape == shape

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=_raw_file(1, _U32))
    def test_labels(self, tmp_path, blob):
        path = tmp_path / "y.labels"
        path.write_bytes(blob)
        got = _raw_outcome(read_labels, path)
        if len(blob) < 4 or len(blob) != 4 + 4 * struct.unpack_from("<I", blob)[0]:
            assert isinstance(got, FormatError)
            assert got.offset <= len(blob)
        else:
            assert got.tolist() == list(struct.unpack_from(f"<{len(blob) // 4 - 1}I", blob, 4))

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(x=_raw_file(2, _F32 | st.floats(width=32).map(lambda v: struct.pack("<f", v))),
           y=_raw_file(1, st.integers(0, 9).map(lambda v: struct.pack("<I", v))))
    def test_dataset(self, tmp_path, x, y):
        (tmp_path / "d.f32").write_bytes(x)
        (tmp_path / "d.labels").write_bytes(y)
        got = _raw_outcome(dataset_load_raw, tmp_path / "d.f32", tmp_path / "d.labels")
        try:
            X, labels = read_f32_tensor(tmp_path / "d.f32"), read_labels(tmp_path / "d.labels")
        except FormatError:
            assert isinstance(got, FormatError)
            return
        if 0 in X.shape:  # no rows or no features: the header field that says so
            assert isinstance(got, FormatError)
            assert (got.path, got.offset) == (tmp_path / "d.f32", 4 * X.shape.index(0))
        elif len(labels) != len(X):
            assert isinstance(got, FormatError)
        else:
            assert got.X.tobytes() == X.tobytes() and got.labels.tolist() == labels.tolist()


_DIMS = st.sampled_from([0, -1, 1.5, 2.0, True, None, "3", 10**20]) | st.integers(1, 5)
_MODEL_ACTIVATIONS = st.sampled_from(
    ["relu", "sigmoid", "identity", "tanh", "", "RELU", None, 7, ["relu"]])
# raw JSON tokens put in place of one weight or bias entry: past float's
# range as a float and as an integer, not finite, or not a number
_MODEL_CELLS = st.sampled_from(
    ["1e400", "-1e400", "NaN", "Infinity", "1" + "0" * 400, "true", "null", '"0.5"', "[]"])
_LAYER_KEYS = ("in", "out", "activation", "weights", "bias")
_MODEL_EDITS = st.one_of(
    st.tuples(st.just("dim"), st.integers(0, 2), st.sampled_from(["in", "out"]), _DIMS),
    st.tuples(st.just("activation"), st.integers(0, 2), _MODEL_ACTIVATIONS),
    st.tuples(st.just("shape"), st.integers(0, 2), st.sampled_from(["weights", "bias"]),
              st.sampled_from(["empty", "short", "nested", "ragged", "column", "no-columns"])),
    st.tuples(st.just("cell"), st.integers(0, 2), st.sampled_from(["weights", "bias"]),
              _MODEL_CELLS),
    st.tuples(st.just("missing"), st.integers(0, 2), st.sampled_from(_LAYER_KEYS)),
    st.tuples(st.just("entry"), st.integers(0, 2), st.sampled_from([[], 3, "layer", None])),
    st.tuples(st.sampled_from(["drop", "dup"]), st.integers(0, 2)),
    st.tuples(st.just("layers"), st.sampled_from([[], {}, "layers", None])),
)


def _reshaped(a, how):
    """A weight (list of rows) or bias list a, reshaped."""
    return {"empty": [], "short": a[:-1], "nested": [a], "ragged": [a[0], [a[1]], *a[2:]],
            "column": [[v] for v in a],
            "no-columns": [[] for _ in a] if isinstance(a[0], list) else []}[how]


def _edited_model(doc, edits):
    """The JSON text of a saved model's document after the edits, each
    applied where the document still has the layer and key it names."""
    raw = []
    for kind, *args in edits:
        layers = doc.get("layers")
        if kind == "layers":
            doc["layers"] = args[0]
            continue
        if not isinstance(layers, list) or not layers:
            continue
        i = args[0] % len(layers)
        if kind == "drop":
            del layers[i]
        elif kind == "dup":
            layers.insert(i, layers[i])
        elif kind == "entry":
            layers[i] = args[1]
        elif not isinstance(layers[i], dict):
            continue
        elif kind == "missing":
            layers[i].pop(args[1], None)
        elif kind in ("dim", "activation"):
            layers[i][args[-2] if kind == "dim" else "activation"] = args[-1]
        elif isinstance(layers[i].get(args[1]), list) and len(layers[i][args[1]]) >= 2:
            key, a = args[1], layers[i][args[1]]
            if kind == "shape":
                layers[i][key] = _reshaped(a, args[2])
            else:  # one entry becomes a marker string, swapped for the raw token below
                raw.append(args[2])
                marker = f"@raw{len(raw) - 1}@"
                first = [marker, *a[0][1:]] if isinstance(a[0], list) else marker
                layers[i][key] = [first, *a[1:]]
    text = json.dumps(doc)
    for n, token in enumerate(raw):
        text = text.replace(f'"@raw{n}@"', token)
    return text


_CSV_FEATURES = st.sampled_from(["nan", "inf", "-inf", "1e999", "NaN", "x", "", "1_0", " 2 "])
_CSV_LABELS = st.sampled_from(["-1", "1.5", "nan", "inf", "x", "1e19", "", "3", "-inf"])
_CSV_EDITS = st.one_of(
    st.tuples(st.just("feature"), st.integers(0, 2), st.integers(0, 1), _CSV_FEATURES),
    st.tuples(st.just("label"), st.integers(0, 2), _CSV_LABELS),
    st.tuples(st.sampled_from(["drop", "extra"]), st.integers(0, 2)),
)


class TestLoaderRejectionsFuzz:
    """Every model or CSV file the loaders reject raises FormatError with
    its path, and for a CSV the line of the edit that broke it; the
    records' rules (LayerSpec, Network, Dataset) decide what is rejected."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.lists(_MODEL_EDITS, min_size=1, max_size=2))
    @example(edits=[("dim", 0, "in", 0), ("shape", 0, "weights", "no-columns")])
    @example(edits=[("cell", 0, "weights", "1e400")])
    @example(edits=[("cell", 1, "bias", "1" + "0" * 400)])
    @example(edits=[("cell", 0, "weights", "1" + "0" * 5000)])
    @example(edits=[("activation", 0, "tanh")])
    @example(edits=[("layers", [])])
    @example(edits=[("cell", 0, "weights", '"0.5"')])
    @example(edits=[("cell", 1, "bias", "true")])
    def test_model(self, tmp_path, edits):
        net = init_network(NetworkSpec((LayerSpec(3, 4, "relu"), LayerSpec(4, 2, "identity"))),
                           seed=2)
        path = tmp_path / "model.json"
        model_save(net, path)
        path.write_text(_edited_model(json.loads(path.read_text()), edits))
        try:
            got = model_load(path)
        except FormatError as e:
            assert e.path == path, str(e)
            return
        layers = json.loads(path.read_text())["layers"]
        assert [[s.in_dim, s.out_dim, s.activation] for s in got.spec.layers] == [
            [e["in"], e["out"], e["activation"]] for e in layers]
        for W, b, e in zip(got.weights, got.biases, layers):
            # every entry of an accepted file is a JSON number
            assert {type(v) for row in e["weights"] for v in row} <= {int, float}
            assert {type(v) for v in e["bias"]} <= {int, float}
            assert W.tobytes() == np.asarray(e["weights"], dtype=np.float64).tobytes()
            assert b.tobytes() == np.asarray(e["bias"], dtype=np.float64).tobytes()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edit=_CSV_EDITS)
    @example(edit=("feature", 0, 1, "nan"))
    @example(edit=("feature", 2, 0, "inf"))
    def test_csv(self, tmp_path, edit):
        path = tmp_path / "data.csv"
        dataset_save_csv(Dataset(np.arange(6.0).reshape(3, 2), [0, 1, 0]), path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        kind, k, *args = edit
        if kind == "feature":
            rows[k][args[0]] = args[1]
        elif kind == "label":
            rows[k][-1] = args[0]
        elif kind == "drop":
            del rows[k][-1]
        else:
            rows[k].append("0")
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        try:
            got = dataset_load(path)
        except FormatError as e:
            assert e.path == path, str(e)
            # a first row of another width sets the width the next row breaks
            assert e.line == (2 if k == 0 and kind in ("drop", "extra") else k + 1), str(e)
            return
        # only a first row with a cell that is not a number, read as a header,
        # may go missing
        assert got.n == 3 or (k == 0 and got.n == 2)


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
