"""The golden corpus: every value casokit reports on two tiny nets, as
make_golden.py wrote it, recomputed and compared.

Floats agree to a relative 1e-12, which BLAS summation order on any
machine stays within; an exact zero must stay exactly zero (every lam1 the
corpus solves at sits away from a support breakpoint). A raw_loss_delta of
a nonzero map is the difference of two losses near 1, so it carries their
rounding: it agrees to an absolute 1e-12 instead. An all-zero map's is
exactly 0, which its own test checks. Integers, strings, booleans and None
must be equal.
"""

import json
import math

import pytest

from make_golden import GOLDEN, GRID, _one_sample, _requests, build, golden_values

from casokit import lambda1_sweep

RTOL = 1e-12
ATOL = {"raw_loss_delta": 1e-12}


def _mismatches(want, got, path="golden", key=None):
    if isinstance(want, dict):
        if sorted(want) != sorted(got):
            return [f"{path}: keys {sorted(got)}, want {sorted(want)}"]
        return [m for k in want for m in _mismatches(want[k], got[k], f"{path}/{k}", k)]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{path}: {len(got)} entries, want {len(want)}"]
        return [m for i, (w, g) in enumerate(zip(want, got))
                for m in _mismatches(w, g, f"{path}[{i}]", key)]
    if isinstance(want, float) and isinstance(got, float):
        if key in ATOL:
            close = abs(got - want) <= ATOL[key]
        else:
            close = got == 0.0 if want == 0.0 else math.isclose(got, want, rel_tol=RTOL,
                                                                abs_tol=0.0)
        return [] if close else [f"{path}: {got!r}, want {want!r}"]
    return [] if type(want) is type(got) and want == got else [f"{path}: {got!r}, want {want!r}"]


def test_every_value_matches_the_corpus():
    want = json.loads(GOLDEN.read_text())
    # through JSON, as the corpus was written, so both sides are plain values
    got = json.loads(json.dumps(golden_values()))
    bad = _mismatches(want, got)
    assert not bad, f"{len(bad)} values moved:\n" + "\n".join(bad[:20])


@pytest.mark.parametrize("name, method, sample, point", [
    ("relu", "cafo", 2, 5),
    ("sigmoid-relu", "smooth-caso", 1, 5),
])
def test_all_zero_map_changes_the_loss_by_exactly_zero(name, method, sample, point):
    # the losses at x and at x + 0 come from two forward passes, whose
    # difference read -2.2e-16 and -4.4e-16 on these corpus sweep points
    nets, data = build()
    one = _one_sample(_requests(name, tuple(data.sample(i) for i in range(3)))[method])[sample]
    res = lambda1_sweep(nets[name], one, GRID).results[point]
    assert not res.delta.any()
    assert res.raw_loss_delta == 0.0
