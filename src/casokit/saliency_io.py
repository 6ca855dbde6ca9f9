"""Persistence: display normalization, PGM images, models, datasets.

Saliency maps are normalized for display by taking absolute values,
summing channels per pixel, capping at the 99th percentile, dividing by
the cap, and clipping to [0, 1]. Images are written as binary (P5) PGM at
maxval 255. Models round-trip bitwise through JSON, the canonical format;
model_load keeps a hash-checked binary copy of the weights next to the
JSON so that later loads skip the parse. Datasets come either from CSV
(label in the last column) or from a raw little-endian float32 tensor
with an 8-byte header plus a sidecar label file.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FormatError
from .netcore import ACTIVATIONS, Dataset, LayerSpec, Network, NetworkSpec

PERCENTILE_CAP = 99.0


@dataclass(frozen=True)
class DisplayMap:
    """A height x width grayscale image with values in [0, 1]."""

    values: np.ndarray
    width: int
    height: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if self.width < 1 or self.height < 1:
            raise ValueError("image dims must be positive")
        if v.shape != (self.height, self.width):
            raise DimensionError(
                f"values shape {v.shape} does not match {self.height}x{self.width}"
            )
        if v.size and (float(v.min()) < 0.0 or float(v.max()) > 1.0):
            raise ValueError("display values must lie in [0, 1]")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def normalize_for_display(delta, width, height, channels=1):
    """Collapse a flat saliency vector to a [0, 1] grayscale image.

    The vector is viewed as a row-major (height, width, channels) block;
    per-pixel magnitude is the sum of absolute channel values. The 99th
    percentile (linear interpolation) caps the scale. An all-zero input
    maps to the all-zero image; if the cap itself is zero while some
    pixels are not, those pixels saturate to 1 (the limit of the clipped
    division).
    """
    delta = np.asarray(delta, dtype=np.float64)
    if channels < 1:
        raise ValueError("channels must be >= 1")
    if delta.size != width * height * channels:
        raise DimensionError(
            f"vector of size {delta.size} does not fill {height}x{width}x{channels}"
        )
    mag = np.abs(delta).reshape(height, width, channels).sum(axis=2)
    cap = float(np.percentile(mag, PERCENTILE_CAP))
    if cap <= 0.0:
        values = (mag > 0.0).astype(np.float64)
    else:
        values = np.clip(mag / cap, 0.0, 1.0)
    return DisplayMap(values=values, width=width, height=height)


def quantize_display(dmap):
    """Map [0, 1] values to 0..255 with round-half-up."""
    return np.floor(dmap.values * 255.0 + 0.5).astype(np.uint8)


def write_pgm(dmap, path, comment=None):
    """Write a binary (P5) PGM at maxval 255.

    Intensity is round-half-up of 255 * value, so the quantization error
    is at most 1/510 per pixel. An optional single-line comment is placed
    after the magic number.
    """
    body = quantize_display(dmap)
    header = b"P5\n"
    if comment:
        text = str(comment)
        if "\n" in text:
            raise ValueError("PGM comment must be a single line")
        header += b"# " + text.encode() + b"\n"
    header += f"{dmap.width} {dmap.height}\n255\n".encode()
    with open(path, "wb") as fh:
        fh.write(header + body.tobytes())


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _decode_utf8(data, path, newline=None):
    """Text of data as open(path, encoding="utf-8", newline=newline) would
    read it, or a FormatError at the first byte that is not UTF-8."""
    try:
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=newline)
        return text.read()
    except UnicodeDecodeError as e:
        raise FormatError(
            f"not UTF-8 text: {e.reason}",
            path=path,
            line=data.count(b"\n", 0, e.start) + 1,
            offset=e.start,
        ) from None


def read_pgm(path):
    """Read a binary (P5) PGM back as a (height, width) uint8 array."""
    data = _read_bytes(path)
    pos = 0

    def token():
        nonlocal pos
        while pos < len(data):
            ch = data[pos : pos + 1]
            if ch == b"#":
                while pos < len(data) and data[pos : pos + 1] != b"\n":
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError("truncated PGM header", path=path, offset=start)
        return data[start:pos]

    if token() != b"P5":
        raise FormatError("not a binary PGM (P5) file", path=path, offset=0)
    try:
        width = int(token())
        height = int(token())
        maxval = int(token())
    except ValueError as e:
        raise FormatError(f"bad PGM header field: {e}", path=path, offset=pos) from None
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}", path=path, offset=pos)
    pos += 1  # single whitespace byte after maxval
    body = data[pos : pos + width * height]
    if len(body) != width * height:
        raise FormatError(
            f"expected {width * height} pixel bytes, found {len(body)}",
            path=path,
            offset=pos,
        )
    return np.frombuffer(body, dtype=np.uint8).reshape(height, width)


def model_save(net, path, metadata=None):
    """Serialize a network to JSON.

    Weights are nested row-major lists; floats use repr, so a load
    reproduces every parameter bitwise. metadata (a JSON-serializable
    dict) is stored alongside and ignored by the loader.
    """
    layers = []
    for spec, W, b in zip(net.spec.layers, net.weights, net.biases):
        layers.append(
            {
                "in": spec.in_dim,
                "out": spec.out_dim,
                "activation": spec.activation,
                "weights": [[float(v) for v in row] for row in W],
                "bias": [float(v) for v in b],
            }
        )
    doc = {"layers": layers}
    if metadata is not None:
        doc["metadata"] = metadata
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def model_load(path):
    """Load a network saved by model_save, with structured parse errors.

    The JSON is the source of truth. After a full parse the weights are
    also written, best effort, to a binary sidecar next to it (path plus
    ".weights"); a later load reads them from there instead of parsing the
    JSON again, but only while the sidecar records the SHA-256 of the
    model bytes just read and its own payload hashes to what it records.
    """
    data = _read_bytes(path)
    digest = hashlib.sha256(data).hexdigest()
    net = _read_sidecar(path, digest)
    if net is not None:
        return net
    try:
        doc = json.loads(_decode_utf8(data, path))
    except json.JSONDecodeError as e:
        raise FormatError(
            f"invalid JSON: {e.msg}", path=path, line=e.lineno, offset=e.pos
        ) from None
    if not isinstance(doc, dict) or "layers" not in doc:
        raise FormatError("model file has no 'layers' key", path=path)
    raw_layers = doc["layers"]
    if not isinstance(raw_layers, list) or not raw_layers:
        raise FormatError("'layers' must be a non-empty list", path=path)
    specs = []
    weights = []
    biases = []
    for i, entry in enumerate(raw_layers):
        if not isinstance(entry, dict):
            raise FormatError(f"layer {i} is not an object", path=path)
        try:
            in_dim = int(entry["in"])
            out_dim = int(entry["out"])
            activation = entry["activation"]
            W = np.asarray(entry["weights"], dtype=np.float64)
            b = np.asarray(entry["bias"], dtype=np.float64)
        except KeyError as e:
            raise FormatError(f"layer {i} is missing key {e}", path=path) from None
        except (TypeError, ValueError) as e:
            raise FormatError(f"layer {i} has bad numeric data: {e}", path=path) from None
        if activation not in ACTIVATIONS:
            raise FormatError(
                f"layer {i} has unknown activation {activation!r}", path=path
            )
        if W.shape != (out_dim, in_dim) or b.shape != (out_dim,):
            raise FormatError(
                f"layer {i} arrays do not match its declared {out_dim}x{in_dim} shape",
                path=path,
            )
        specs.append(LayerSpec(in_dim, out_dim, activation))
        weights.append(W)
        biases.append(b)
    try:
        net = Network(NetworkSpec(tuple(specs)), tuple(weights), tuple(biases))
    except ValueError as e:
        raise FormatError(f"inconsistent model: {e}", path=path) from None
    _write_sidecar(path, digest, net)
    return net


# Weight sidecar: this tag line, one JSON header line, then every layer's
# weights (row-major) and bias as little-endian float64, layer by layer.
_SIDECAR_TAG = b"casokit-weights 1\n"


def _read_sidecar(path, digest):
    """The network in path's weight sidecar, or None unless the sidecar was
    written from model bytes with this digest and is intact. Never raises:
    any unreadable or malformed sidecar reads as None."""
    try:
        data = _read_bytes(os.fsdecode(path) + ".weights")
        if not data.startswith(_SIDECAR_TAG):
            return None
        end = data.index(b"\n", len(_SIDECAR_TAG))
        head = json.loads(data[len(_SIDECAR_TAG) : end])
        payload = memoryview(data)[end + 1 :]
        if (
            head["model_sha256"] != digest
            or head["payload_bytes"] != len(payload)
            or hashlib.sha256(payload).hexdigest() != head["payload_sha256"]
        ):
            return None
        specs = tuple(LayerSpec(i, o, a) for i, o, a in head["layers"])
        arrays = []
        offset = 0
        for spec in specs:
            for shape in ((spec.out_dim, spec.in_dim), (spec.out_dim,)):
                count = int(np.prod(shape))
                arrays.append(np.frombuffer(payload, "<f8", count, offset).reshape(shape))
                offset += 8 * count
        if offset != len(payload):
            return None
        return Network(NetworkSpec(specs), tuple(arrays[0::2]), tuple(arrays[1::2]))
    except (OSError, ValueError, TypeError, KeyError):
        return None


def _write_sidecar(path, digest, net):
    """Write net's weight sidecar for model bytes with this digest: a temp
    file in the same directory, then an atomic rename. Best effort: an
    OSError (say, a read-only directory) leaves no sidecar and no temp file."""
    payload = b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes()
        for pair in zip(net.weights, net.biases)
        for a in pair
    )
    head = {
        "model_sha256": digest,
        "layers": [[s.in_dim, s.out_dim, s.activation] for s in net.spec.layers],
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    target = os.fsdecode(path) + ".weights"
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_SIDECAR_TAG + json.dumps(head).encode() + b"\n" + payload)
        os.replace(tmp, target)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _parse_csv_cell(cell, path, line_no):
    try:
        return float(cell)
    except ValueError:
        raise FormatError(
            f"non-numeric value {cell!r}", path=path, line=line_no
        ) from None


def dataset_load(path):
    """Load a CSV dataset: one sample per row, integer label last.

    A header row is detected automatically (any non-numeric cell in the
    first row). Blank lines and '#' comment lines are skipped.
    """
    rows = []
    width = None
    text = _decode_utf8(_read_bytes(path), path, newline="")
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
                continue  # header row
        if len(row) != width:
            raise FormatError(
                f"row has {len(row)} fields, expected {width}",
                path=path,
                line=line_no,
            )
        try:
            values = [float(c) for c in row]
        except ValueError:
            # the per-cell parse names the offending cell
            values = [_parse_csv_cell(c, path, line_no) for c in row]
        label = values[-1]
        if not (label >= 0 and label.is_integer()):
            raise FormatError(
                f"label {label!r} is not a nonnegative integer",
                path=path,
                line=line_no,
            )
        rows.append((values[:-1], int(label)))
    if not rows:
        raise FormatError("no data rows found", path=path)
    if width < 2:
        raise FormatError("rows need at least one feature and a label", path=path)
    X = np.asarray([r[0] for r in rows], dtype=np.float64)
    labels = np.asarray([r[1] for r in rows], dtype=np.int64)
    return Dataset(X, labels)


def dataset_save_csv(dataset, path, header=None):
    """Write a dataset as CSV with the label in the last column."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for i in range(dataset.n):
            writer.writerow(
                [repr(float(v)) for v in dataset.X[i]] + [int(dataset.labels[i])]
            )


_TENSOR_HEADER = struct.Struct("<II")
_LABEL_HEADER = struct.Struct("<I")


def write_f32_tensor(path, X):
    """Raw little-endian float32 tensor: u32 count, u32 dim, then data."""
    X = np.ascontiguousarray(np.asarray(X, dtype="<f4"))
    if X.ndim != 2:
        raise DimensionError("tensor must be 2-d (count, dim)")
    with open(path, "wb") as fh:
        fh.write(_TENSOR_HEADER.pack(X.shape[0], X.shape[1]))
        fh.write(X.tobytes())


def read_f32_tensor(path):
    data = _read_bytes(path)
    if len(data) < _TENSOR_HEADER.size:
        raise FormatError("tensor file shorter than its header", path=path, offset=len(data))
    count, dim = _TENSOR_HEADER.unpack_from(data)
    expect = _TENSOR_HEADER.size + count * dim * 4
    if len(data) != expect:
        raise FormatError(
            f"tensor payload is {len(data)} bytes, header implies {expect}",
            path=path,
            offset=min(len(data), expect),
        )
    return (
        np.frombuffer(data, dtype="<f4", offset=_TENSOR_HEADER.size)
        .reshape(count, dim)
        .astype(np.float64)
    )


def write_f64_tensor(path, X):
    """Same layout as the f32 tensor but with float64 payload."""
    X = np.ascontiguousarray(np.asarray(X, dtype="<f8"))
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2:
        raise DimensionError("tensor must be 1-d or 2-d")
    with open(path, "wb") as fh:
        fh.write(_TENSOR_HEADER.pack(X.shape[0], X.shape[1]))
        fh.write(X.tobytes())


def read_f64_tensor(path):
    data = _read_bytes(path)
    if len(data) < _TENSOR_HEADER.size:
        raise FormatError("tensor file shorter than its header", path=path, offset=len(data))
    count, dim = _TENSOR_HEADER.unpack_from(data)
    expect = _TENSOR_HEADER.size + count * dim * 8
    if len(data) != expect:
        raise FormatError(
            f"tensor payload is {len(data)} bytes, header implies {expect}",
            path=path,
            offset=min(len(data), expect),
        )
    return np.frombuffer(data, dtype="<f8", offset=_TENSOR_HEADER.size).reshape(
        count, dim
    )


def write_labels(path, labels):
    """Sidecar label file: u32 count then count little-endian u32 labels."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise DimensionError("labels must be a flat vector")
    if labels.size and int(labels.min()) < 0:
        raise ValueError("labels must be nonnegative")
    with open(path, "wb") as fh:
        fh.write(_LABEL_HEADER.pack(labels.shape[0]))
        fh.write(labels.astype("<u4").tobytes())


def read_labels(path):
    data = _read_bytes(path)
    if len(data) < _LABEL_HEADER.size:
        raise FormatError("label file shorter than its header", path=path, offset=len(data))
    (count,) = _LABEL_HEADER.unpack_from(data)
    expect = _LABEL_HEADER.size + count * 4
    if len(data) != expect:
        raise FormatError(
            f"label payload is {len(data)} bytes, header implies {expect}",
            path=path,
            offset=min(len(data), expect),
        )
    return np.frombuffer(data, dtype="<u4", offset=_LABEL_HEADER.size).astype(np.int64)


def dataset_save_raw(dataset, data_path, labels_path):
    write_f32_tensor(data_path, dataset.X)
    write_labels(labels_path, dataset.labels)


def dataset_load_raw(data_path, labels_path):
    """Load the raw f32 tensor + sidecar label pair as a Dataset.

    Features are upcast to float64; note the f32 storage quantizes.
    """
    X = read_f32_tensor(data_path)
    labels = read_labels(labels_path)
    if labels.shape[0] != X.shape[0]:
        raise FormatError(
            f"{labels.shape[0]} labels for {X.shape[0]} samples",
            path=labels_path,
        )
    return Dataset(X, labels)


def write_csv_rows(path, fieldnames, rows, provenance=None):
    """Write a CSV artifact, optionally prefixed by a '# {json}' provenance
    line carrying the fully resolved configuration."""
    with open(path, "w", newline="") as fh:
        if provenance is not None:
            fh.write("# " + json.dumps(provenance, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow(["" if v is None else _cell(v) for v in row])


def _cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return int(v)
    return v


def write_trace_csv(result, path, provenance=None):
    """Export a solver run as (iteration, objective, step_size, nnz) rows."""
    rows = [
        (i, float(obj), float(step), int(nnz))
        for i, (obj, step, nnz) in enumerate(
            zip(result.objective_trace, result.step_trace, result.nnz_trace)
        )
    ]
    write_csv_rows(path, ("iteration", "objective", "step_size", "nnz"), rows, provenance)


def write_spectrum_csv(handle, path, provenance=None):
    """Export a Hessian spectrum as (index, eigenvalue) rows."""
    rows = [(i, float(v)) for i, v in enumerate(handle.eigenvalues)]
    write_csv_rows(path, ("index", "eigenvalue"), rows, provenance)


def write_eigenvectors_f64(handle, path):
    """Dump eigenvectors as a raw f64 tensor, one eigenvector per row."""
    write_f64_tensor(path, handle.eigenvectors.T)
