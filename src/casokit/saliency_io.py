"""Persistence: display normalization, PGM images, models, datasets.

A stack of saliency maps becomes 8-bit grayscale pixels by taking
absolute values, summing channels per pixel, dividing by each map's 99th
percentile, clipping to [0, 1] and rounding 255 times that half up. The
pixels are written as binary (P5) PGM at maxval 255. Models round-trip
bitwise through JSON, the canonical format; model_load keeps a binary
copy of the weights next to the JSON so that later loads skip the parse,
trusted while the JSON's stat still matches. Datasets are CSV (label in
the last column), which dataset_load caches the same way.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import struct
import zlib

import numpy as np

from ._record import Record
from .errors import DimensionError, FormatError
from .netcore import Dataset, LayerSpec, Network, NetworkSpec

PERCENTILE_CAP = 99.0


def normalize_for_display(stack, width, height, channels=1):
    """The (k, height, width) uint8 pixels of a (k, size) stack of flat
    saliency maps, from one percentile pass.

    Each map is viewed as a row-major (height, width, channels) block;
    per-pixel magnitude is the sum of absolute channel values. The 99th
    percentile of a map's magnitudes (linear interpolation) caps its scale:
    a pixel's value is its magnitude over the cap, clipped to [0, 1], and
    its intensity is round-half-up of 255 * value, at most 1/510 from the
    value. An all-zero map gives the all-zero image; if the cap itself is
    zero while some pixels are not, those pixels saturate to 255 (the limit
    of the clipped division).
    """
    stack = np.asarray(stack, dtype=np.float64)
    if min(width, height, channels) < 1:
        raise ValueError("width, height and channels must be >= 1")
    if stack.ndim != 2 or stack.shape[1] != width * height * channels:
        raise DimensionError(
            f"stack of shape {stack.shape} is not (k, {height}x{width}x{channels})"
        )
    mag = np.abs(stack).reshape(-1, height, width, channels).sum(axis=3)
    cap = _percentile_cap(mag.reshape(len(stack), -1))[:, None, None]
    zero_cap = cap <= 0.0
    scaled = np.clip(mag / np.where(zero_cap, 1.0, cap), 0.0, 1.0)
    values = np.where(zero_cap, mag > 0.0, scaled)
    return np.floor(values * 255.0 + 0.5).astype(np.uint8)


def _percentile_cap(mag):
    """np.percentile(mag, PERCENTILE_CAP, axis=1), bitwise, for a (k, n)
    array with n >= 1, by one np.partition (np.percentile's kth set goes
    through np.unique, which imports numpy.ma).

    numpy's linear rule: virtual index v = (n - 1) q with its floor lo
    and lo + 1 (both the last index when v >= n - 1, lo then taken as -1),
    t = v - lo, and a + (b - a) t, or b - (b - a)(1 - t) when t >= 0.5,
    for the order statistics a, b there. A row holding a NaN gives NaN.
    """
    n = mag.shape[1]
    v = (n - 1) * (PERCENTILE_CAP / 100)
    lo = math.floor(v)
    hi = lo + 1
    if v >= n - 1:
        lo = hi = -1
    t = v - lo
    ordered = np.partition(mag, sorted({lo % n, hi % n, n - 1}), axis=1)
    a, b = ordered[:, lo], ordered[:, hi]
    diff = b - a
    cap = b - diff * (1 - t) if t >= 0.5 else a + diff * t
    return np.where(np.isnan(ordered[:, -1]), ordered[:, -1], cap)


def write_pgm(image, path, comment=None):
    """Write a non-empty 2-d uint8 image as a binary (P5) PGM at maxval
    255. An optional single-line comment is placed after the magic
    number; it may hold neither LF nor CR, as either ends a PGM comment."""
    image = np.asarray(image)
    if image.dtype != np.uint8:
        raise ValueError(f"PGM pixels must be uint8, not {image.dtype}")
    if image.ndim != 2 or not image.size:
        raise DimensionError(f"PGM image of shape {image.shape} is not a non-empty 2-d array")
    header = b"P5\n"
    if comment:
        text = str(comment)
        if "\n" in text or "\r" in text:
            raise ValueError("PGM comment must be a single line")
        header += b"# " + text.encode() + b"\n"
    height, width = image.shape
    header += f"{width} {height}\n255\n".encode()
    with open(path, "wb") as fh:
        fh.write(header + image.tobytes())


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
    ".weights"); a later load reads them from there instead of the JSON
    while the sidecar is intact and the JSON is unchanged (see
    _cached_load).
    """
    return _cached_load(path, _WEIGHTS, _json_model, _weights_from)


def _json_model(data, path):
    """model_load's parse of the JSON bytes: the network, and its sidecar's
    header fields and arrays. LayerSpec and Network own the model's rules;
    their rejections are re-raised as a FormatError naming the file."""
    text = _decode_utf8(data, path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(
            f"invalid JSON: {e.msg}", path=path, line=e.lineno, offset=e.pos
        ) from None
    except RecursionError:
        raise FormatError("JSON nests too deeply", path=path) from None
    except ValueError as e:  # an integer of more digits than int() converts
        raise FormatError(f"invalid JSON: {e}", path=path) from None
    if not isinstance(doc, dict) or "layers" not in doc:
        raise FormatError("model file has no 'layers' key", path=path)
    raw_layers = doc["layers"]
    if not isinstance(raw_layers, list):
        raise FormatError("'layers' must be a list", path=path)
    specs = []
    weights = []
    biases = []
    for i, entry in enumerate(raw_layers):
        if not isinstance(entry, dict):
            raise FormatError(f"layer {i} is not an object", path=path)
        try:
            in_dim, out_dim = entry["in"], entry["out"]
            activation = entry["activation"]
            W = np.asarray(entry["weights"], dtype=np.float64)
            b = np.asarray(entry["bias"], dtype=np.float64)
        except KeyError as e:
            raise FormatError(f"layer {i} is missing key {e}", path=path) from None
        except (TypeError, ValueError, OverflowError) as e:
            raise FormatError(f"layer {i} has bad numeric data: {e}", path=path) from None
        for key, dim in (("in", in_dim), ("out", out_dim)):
            if type(dim) is not int:  # not a float, nor a bool
                raise FormatError(f"layer {i} key '{key}' must be a JSON integer", path=path)
        try:
            specs.append(LayerSpec(in_dim, out_dim, activation))
        except ValueError as e:
            raise FormatError(f"layer {i}: {e}", path=path) from None
        weights.append(W)
        biases.append(b)
    try:
        net = Network(NetworkSpec(tuple(specs)), tuple(weights), tuple(biases))
    except ValueError as e:
        raise FormatError(f"inconsistent model: {e}", path=path) from None
    for i, entry in enumerate(raw_layers):  # asarray also takes "0.5" and true
        for key, rows in (("weights", entry["weights"]), ("bias", [entry["bias"]])):
            if not set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
                raise FormatError(f"layer {i} key '{key}' must hold JSON numbers", path=path)
    return (net,
            {"layers": [[s.in_dim, s.out_dim, s.activation] for s in net.spec.layers]},
            [a for pair in zip(net.weights, net.biases) for a in pair])


# A binary sidecar caches what a parse of the source file next to it
# returned: a tag line, one JSON header line, then the payload, its arrays
# as little-endian bytes back to back. The header records the source's
# stat key (see _stat_key) as "source_stat", and the payload's length and
# CRC-32; the kind adds the fields its arrays' shapes come from.
class _Sidecar(Record):
    suffix: str
    tag: bytes


# a model's weights: every layer's weights (row-major) and bias, float64
_WEIGHTS = _Sidecar(".weights", b"casokit-weights 4\n")
# a CSV dataset: X (rows x dim, row-major) as float64, then the int64 labels
_DATASET = _Sidecar(".dataset", b"casokit-dataset 4\n")


def _stat_key(path):
    """path's device, inode, size, mtime and ctime. Replacing or writing the
    file changes at least one of them, unless the write keeps the size and
    falls within the timestamp tick of the file's last change."""
    st = os.stat(path)
    return [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]


def _cached_load(path, kind, parse, decode):
    """parse(data, path)'s result for path's bytes, read from path's sidecar
    of this kind when that holds it, else parsed and cached.

    The source's stat key is taken before anything is read. An intact
    sidecar that records this key is trusted without reading the source,
    unless the source's mtime or ctime is not older than the sidecar's own
    mtime (git's racy rule: a source changed within one timestamp tick of
    the sidecar's write may have kept its key). Otherwise the source is
    read and parsed, and the sidecar written. parse returns (result,
    header fields, arrays), or raises its FormatError whatever sidecar
    exists.
    """
    key = _stat_key(path)
    result = _read_sidecar(path, kind, decode, key)
    if result is None:
        result, fields, arrays = parse(_read_bytes(path), path)
        payload = b"".join(a.astype(a.dtype.newbyteorder("<"), copy=False).tobytes()
                           for a in arrays)
        _write_sidecar(path, kind, {"source_stat": key, **fields}, payload)
    return result


def _read_sidecar(path, kind, decode, key):
    """decode(head, payload) for path's sidecar of this kind, or None unless
    its tag matches, its header is a JSON object that records key as
    "source_stat", its mtime is later than key's mtime and ctime, and its
    payload has the recorded length and CRC-32. Never raises: any
    unreadable or malformed sidecar, and any that decode rejects with a
    ValueError, reads as None."""
    try:
        with open(os.fsdecode(path) + kind.suffix, "rb") as fh:
            mtime_ns = os.fstat(fh.fileno()).st_mtime_ns
            data = fh.read()
        if not data.startswith(kind.tag):
            return None
        end = data.index(b"\n", len(kind.tag))
        head = json.loads(data[len(kind.tag) : end])
        payload = memoryview(data)[end + 1 :]
        if (head["source_stat"] != key or max(key[3:]) >= mtime_ns
                or head["payload_bytes"] != len(payload)
                or zlib.crc32(payload) != head["payload_crc32"]):
            return None
        return decode(head, payload)
    except (OSError, ValueError, TypeError, KeyError, RecursionError):
        return None


def _unpack(payload, layout):
    """The arrays of a sidecar payload, one per (dtype, shape) of layout in
    order; a ValueError unless they fill it exactly."""
    arrays = []
    offset = 0
    for dtype, shape in layout:
        count = math.prod(shape)
        arrays.append(np.frombuffer(payload, dtype, count, offset).reshape(shape))
        offset += np.dtype(dtype).itemsize * count
    if offset != len(payload):
        raise ValueError("sidecar payload size does not match its layout")
    return arrays


def _weights_from(head, payload):
    specs = tuple(LayerSpec(i, o, a) for i, o, a in head["layers"])
    layout = [("<f8", shape) for s in specs
              for shape in ((s.out_dim, s.in_dim), (s.out_dim,))]
    arrays = _unpack(payload, layout)
    return Network(NetworkSpec(specs), tuple(arrays[0::2]), tuple(arrays[1::2]))


def _dataset_from(head, payload):
    n, d = head["rows"], head["dim"]
    X, labels = _unpack(payload, [("<f8", (n, d)), ("<i8", (n,))])
    return Dataset(X, labels)


def _write_sidecar(path, kind, fields, payload):
    """Write path's sidecar of this kind: fields (the source's stat key and
    the kind's header entries), the payload's length and
    CRC-32, and the payload, through a temp file in the same directory and
    an atomic rename. Best effort: an OSError (say, a read-only directory)
    leaves no sidecar and no temp file."""
    head = {**fields, "payload_bytes": len(payload), "payload_crc32": zlib.crc32(payload)}
    target = os.fsdecode(path) + kind.suffix
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(kind.tag + json.dumps(head).encode() + b"\n" + payload)
        os.replace(tmp, target)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def dataset_load(path):
    """Load a CSV dataset: one sample per row, integer label last.

    The grammar is the csv module's default dialect: comma-separated
    cells, optionally double-quoted, rows ended by LF, CRLF or CR. Every
    cell is read as float() reads it, surrounding spaces, underscores,
    inf and nan included. A header row is detected automatically (any
    non-numeric cell in the first row). Blank lines and '#' comment lines
    are skipped. A file that breaks a rule is a FormatError that names the
    failing line and cell.

    Like model_load, a successful parse is also written, best effort, to a
    binary sidecar (path plus ".dataset") that later loads read instead of
    parsing again while the CSV is unchanged (see _cached_load).
    """
    return _cached_load(path, _DATASET, _csv_dataset, _dataset_from)


def _parse_csv_cell(cell, path, line_no):
    try:
        return float(cell)
    except ValueError:
        raise FormatError(
            f"non-numeric value {cell!r}", path=path, line=line_no
        ) from None


def _csv_dataset(data, path):
    """dataset_load's parse of the CSV bytes: the dataset, and its
    sidecar's header fields and arrays."""
    text = io.StringIO(_decode_utf8(data, path, newline=""), newline="")
    rows = []
    width = None
    for line_no, row in enumerate(csv.reader(text), start=1):
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
        if label >= 2.0**53:  # float() rounds larger integers
            raise FormatError(f"label {row[-1].strip()} is not below 2**53", path=path,
                              line=line_no)
        rows.append((values[:-1], int(label), line_no))
    if not rows:
        raise FormatError("no data rows found", path=path)
    if width < 2:
        raise FormatError("rows need at least one feature and a label", path=path)
    X = np.asarray([r[0] for r in rows], dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(X))
    if bad.size:
        raise FormatError(f"feature {X.flat[bad[0]]} is not finite", path=path,
                          line=rows[bad[0] // X.shape[1]][2])
    labels = np.asarray([r[1] for r in rows], dtype=np.int64)
    dataset = Dataset(X, labels)
    return dataset, {"rows": dataset.n, "dim": dataset.dim}, [dataset.X, dataset.labels]


def dataset_save_csv(dataset, path):
    """Write a dataset as CSV with the label in the last column, and no
    header row."""
    write_csv_rows(path, None, ([*x, y] for x, y in zip(dataset.X, dataset.labels)))


_TENSOR_HEADER = struct.Struct("<II")


def write_f64_tensor(path, X):
    """Raw tensor: u32 count, u32 dim, then count x dim little-endian f64;
    a vector is one row, and any other rank, a scalar's too, a DimensionError."""
    X = np.asarray(X, dtype="<f8")
    if X.ndim not in (1, 2):
        raise DimensionError("tensor must be 1-d or 2-d")
    X = np.ascontiguousarray(np.atleast_2d(X))
    with open(path, "wb") as fh:
        fh.write(_TENSOR_HEADER.pack(X.shape[0], X.shape[1]) + X.tobytes())


def write_csv_rows(path, fieldnames, rows, provenance=None):
    """Write a CSV artifact, optionally prefixed by a '# {json}' provenance
    line carrying the fully resolved configuration; fieldnames None writes
    no header row. Floats are written by repr, so they read back bitwise."""
    with open(path, "w", newline="") as fh:
        if provenance is not None:
            fh.write("# " + json.dumps(provenance, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        if fieldnames is not None:
            writer.writerow(fieldnames)
        for row in rows:
            writer.writerow(["" if v is None else _cell(v) for v in row])


def _cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return int(v)
    return v
