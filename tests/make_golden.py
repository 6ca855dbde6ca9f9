"""Write golden.json: every value casokit reports on two tiny nets.

The corpus pins the values of the 7 methods (run_request), the lam1 sweep
of the 4 sparse methods, the confidence-gap study and the oracle check (the
L0 oracle and the exact L1 path on the default planted instance), so that
test_golden.py fails on any change that moves one of them past rounding.
Floats are written as their repr. Each kkt_residual is left out: it is a
rounding residual by definition, not a value the mathematics fixes.

This script is the only writer of golden.json. Rerun it only in a change
that moves a value on purpose, and say in CHANGES.md which values moved
and why:

    PYTHONPATH=src python tests/make_golden.py
"""

import json
from pathlib import Path

import numpy as np

from casokit import (
    METHODS,
    LayerSpec,
    MethodRequest,
    NetworkSpec,
    brute_force_group_feature,
    confidence_gap_study,
    init_network,
    l1_path,
    lambda1_sweep,
    make_blobs,
    make_planted_instance,
    run_request,
    spearman_rho,
)
from casokit.interpret import SPARSE_METHODS

GOLDEN = Path(__file__).with_name("golden.json")

# relu: 16 -> 8 relu -> 4; sigmoid-relu: 16 -> 8 sigmoid -> 8 relu -> 4
NETS = {
    "relu": (((16, 8, "relu"), (8, 4, "identity")), 3),
    "sigmoid-relu": (((16, 8, "sigmoid"), (8, 8, "relu"), (8, 4, "identity")), 6),
}
SEEDS = (11, 12, 13)  # one noise seed per sample
# each lam1 leaves some coordinates of every sparse map at zero and some
# not, and sits away from every support breakpoint (see _stable)
LAM1 = {"relu": 0.1, "sigmoid-relu": 0.03}
KNOBS = {"smooth_n": 4, "ig_steps": 8}
GRID = (0.0, 1e-3, 1e-2, 3e-2, 0.1, 0.3)


def build():
    """The two nets and the blob dataset whose first 3 rows are the samples."""
    nets = {name: init_network(NetworkSpec(tuple(LayerSpec(*l) for l in layers)), seed=seed)
            for name, (layers, seed) in NETS.items()}
    return nets, make_blobs(classes=4, dim=16, n_per_class=1, seed=7)


def _result(res):
    doc = {"method": res.method, "delta": res.delta.tolist(), "eta": res.eta,
           "p_max": res.p_max, "loss_gain": res.loss_gain,
           "raw_loss_delta": res.raw_loss_delta, "lam1": res.lam1, "lam2": res.lam2}
    if res.solve is not None:
        doc.update(solver=res.solve.solver, steps=res.solve.steps)
    return doc


def _requests(name, samples):
    return {m: MethodRequest(m, samples, SEEDS, lam1=LAM1[name], **KNOBS) for m in METHODS}


def _one_sample(request):
    """The request's one-sample requests, one per sample, each with its seed."""
    return [request.replace(samples=(s,), seeds=(seed,))
            for s, seed in zip(request.samples, request.seeds)]


def _outcome(out):
    return {"grid": list(out.grid), "results": [_result(r) for r in out.results],
            "refinements": [_result(r) for r in out.refinements],
            "selected_index": out.selected_index, "target_met": out.target_met}


def golden_values():
    """Every value of the corpus, as json.dump writes it."""
    nets, data = build()
    samples = tuple(data.sample(i) for i in range(3))
    doc = {}
    for name, net in nets.items():
        requests = _requests(name, samples)
        doc[name] = {
            "methods": {m: [_result(r) for r in run_request(net, requests[m])] for m in METHODS},
            "sweeps": {m: [_outcome(lambda1_sweep(net, one, GRID))
                           for one in _one_sample(requests[m])]
                       for m in SPARSE_METHODS},
        }
        points = confidence_gap_study(net, data, 3)
        doc[name]["gap_study"] = {
            "sample_id": [p.sample_id for p in points], "p_max": [p.p_max for p in points],
            "gap": [p.gap for p in points],
            "spearman_rho": spearman_rho([p.p_max for p in points], [p.gap for p in points]),
        }
    g, H, lam2, support = make_planted_instance()
    oracle = brute_force_group_feature(g, H, lam2, len(support))
    path = l1_path(g, H, lam2)
    doc["oracle_check"] = {
        "oracle": {"support": list(oracle.support), "delta": oracle.delta.tolist(),
                   "value": oracle.value},
        "l1_path": {"lam1": path.lam1.tolist(), "deltas": path.deltas.tolist(),
                    "supports": [list(s) for s in path.supports]},
    }
    return doc


def _zeros(net, request, lam1):
    return [r.delta == 0.0 for r in run_request(net, request.replace(lam1=lam1))]


def _stable(net, request, lam1, rtol=1e-7):
    """Whether every map of request at lam1 keeps its zero pattern when lam1
    moves by rtol either way: rounding then cannot flip a zero."""
    at = _zeros(net, request, lam1)
    return all(np.array_equal(a, b) for lam in (lam1 * (1 - rtol), lam1 * (1 + rtol))
               for a, b in zip(at, _zeros(net, request, lam)))


def check():
    """Raise unless every lam1 the corpus solves at is away from a support
    breakpoint, and the fixed lam1 leaves every sparse map partly sparse."""
    nets, data = build()
    samples = tuple(data.sample(i) for i in range(3))
    for name, net in nets.items():
        requests = _requests(name, samples)
        for m in SPARSE_METHODS:
            request = requests[m]
            etas = [r.eta for r in run_request(net, request)]
            if not all(0.0 < eta < 1.0 for eta in etas):
                raise SystemExit(f"{name} {m}: lam1 {LAM1[name]} gives etas {etas}")
            if not _stable(net, request, LAM1[name]):
                raise SystemExit(f"{name} {m}: lam1 {LAM1[name]} is near a breakpoint")
            for one in _one_sample(request):
                for r in lambda1_sweep(net, one, GRID).all_results:
                    if not _stable(net, one, r.lam1):
                        raise SystemExit(f"{name} {m}: sweep lam1 {r.lam1} is near a breakpoint")


def main():
    check()
    GOLDEN.write_text(json.dumps(golden_values(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
