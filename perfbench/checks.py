"""Output checks on CLI artifacts.

The first invocation of every run is checked in full: artifact names,
file formats, finite deltas, eta in [0, 1], row and candidate counts, the
reported p_max and loss_gain against the numpy reference, and the
objective gap to a converged solve. Every later invocation must then
reproduce those artifacts byte for byte (the CLI's determinism contract),
which carries the full check over to it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import struct

import numpy as np

from reference import relative_gap

# how closely a reported p_max or loss_gain must match the reference's
# value at the reported map; both are sums of ~10^3 float64 terms
REL_TOL = 1e-8


class CheckError(Exception):
    """An artifact is missing, malformed or wrong."""


def snapshot(directory):
    """Every artifact in directory, by name."""
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def same_artifacts(golden, directory):
    """What differs from the golden artifacts, or None."""
    got = snapshot(directory)
    if got.keys() != golden.keys():
        return f"artifacts {sorted(got.keys() ^ golden.keys())} added or missing"
    name = next((n for n in golden if got[n] != golden[n]), None)
    return name and f"{name} differs from the fully checked invocation"


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def read_delta(data, dim):
    _require(len(data) == 8 + 8 * dim, f"delta file of {len(data)} bytes")
    count, d = struct.unpack_from("<II", data)
    _require((count, d) == (1, dim), f"delta header {(count, d)}")
    delta = np.frombuffer(data, dtype="<f8", offset=8)
    _require(bool(np.isfinite(delta).all()), "non-finite delta")
    return delta


def check_pgm(data, side):
    lines = data.split(b"\n", 4)
    _require(lines[0] == b"P5" and lines[1].startswith(b"# "), "PGM magic/comment")
    _require(lines[2] == f"{side} {side}".encode() and lines[3] == b"255", "PGM header")
    _require(len(lines[4]) == side * side, f"PGM body of {len(lines[4])} bytes")


def _check_summary(doc, method, lam1=None):
    _require(doc["method"] == method, f"method {doc['method']!r}")
    _require(0.0 <= doc["eta"] <= 1.0, f"eta {doc['eta']}")
    for key in ("loss_gain", "raw_loss_delta", "lambda2", "p_max"):
        _require(math.isfinite(doc[key]), f"{key} {doc[key]}")
    if lam1 is not None:
        _require(doc["lambda1"] == lam1, f"lambda1 {doc['lambda1']}")


def _check_value(obj, doc, delta):
    value = obj.value(delta)
    _require(_close(value, doc["loss_gain"]),
             f"loss_gain {doc['loss_gain']!r}, reference value at the map {value!r}")


def check_interpret(files, spec, objective):
    """Check an `interpret` run; returns the objective gap per sample.

    objective(row, doc) builds the reference Objective for one sample;
    with objective None, only the artifacts' form is checked.
    """
    rows, dim, side = spec["samples"], spec["dim"], spec["side"]
    expected = {"metrics.csv"}
    for r in rows:
        expected |= {f"sample{r}.pgm", f"sample{r}.delta.f64", f"sample{r}.json"}
    _require(set(files) == expected, f"artifacts {sorted(set(files) ^ expected)}")
    gaps = []
    for r in rows:
        doc = json.loads(files[f"sample{r}.json"])
        _check_summary(doc, spec["method"], spec["lambda1"])
        _require(doc["sample_id"] == r, f"sample_id {doc['sample_id']}")
        _require(_close(doc["p_max"], spec["p_max"][r]), f"sample {r} p_max {doc['p_max']}")
        delta = read_delta(files[f"sample{r}.delta.f64"], dim)
        check_pgm(files[f"sample{r}.pgm"], side)
        if objective is not None:
            obj = objective(r, doc)
            _check_value(obj, doc, delta)
            gaps.append(relative_gap(obj, doc["loss_gain"], delta))
    text = files["metrics.csv"].decode()
    _require(text.startswith("# {"), "metrics.csv has no provenance line")
    table = list(csv.reader(io.StringIO(text.split("\n", 1)[1])))
    _require(len(table) == 1 + len(rows), f"metrics.csv has {len(table) - 1} rows")
    _require([int(t[0]) for t in table[1:]] == list(rows), "metrics.csv sample ids")
    return gaps


def check_sweep(files, spec, objective):
    """Check a `sweep` run; returns the objective gap per candidate.

    objective(doc) builds the reference Objective for one candidate.
    """
    expected = {"sweep.json", "selected.pgm", "selected.delta.f64"}
    _require(set(files) == expected, f"artifacts {sorted(set(files) ^ expected)}")
    doc = json.loads(files["sweep.json"])
    grid = spec["grid"]
    _require(doc["grid"] == list(grid), f"grid {doc['grid']}")
    cands = doc["candidates"]
    _require([c["lambda1"] for c in cands] == list(grid), "candidates do not match the grid")
    every = cands + doc["refinements"]
    for c in every:
        _check_summary(c, spec["method"])
        _require(_close(c["p_max"], spec["p_max"]), f"p_max {c['p_max']}")
    sel = doc["selected_index"]
    _require(0 <= sel < len(every), f"selected_index {sel}")
    _require(doc["selected"] == every[sel], "selected is not the indexed candidate")
    delta = read_delta(files["selected.delta.f64"], spec["dim"])
    check_pgm(files["selected.pgm"], spec["side"])
    _check_value(objective(every[sel]), every[sel], delta)
    return [
        relative_gap(objective(c), c["loss_gain"], delta if i == sel else None)
        for i, c in enumerate(every)
    ]
