"""Acceptance gate: the eleven shipped guarantees, one test each.

Every test records a single verdict line; conftest prints the collected
report after the run so it is visible whether or not output is captured.
Tolerances and runtime budgets are part of the guarantee and asserted,
not just reported.
"""

import time

import numpy as np

import conftest

from casokit import (
    DEFAULT_LAMBDA1_GRID,
    Dataset,
    LayerSpec,
    Network,
    NetworkSpec,
    ObjectiveSpec,
    Sample,
    SolverConfig,
    brute_force_group_feature,
    cli,
    closed_form_cafo,
    closed_form_caso,
    confidence_gap_study,
    fista_solve,
    forward,
    hessian_eig,
    init_network,
    input_gradient,
    integrated_gradients,
    local_linearization,
    make_blobs,
    make_planted_instance,
    prox_soft_threshold,
    sample_kink_safe,
    select_lambda2,
    simulate_rank_one,
    softmax_curvature,
    sparsity_ratio,
    spearman_rho,
    train_sgd,
)


def _emit(line):
    print(line)
    conftest.ACCEPTANCE_VERDICTS.append(line)


def _verdict(cid, name, ok, detail, elapsed, budget=None):
    in_time = budget is None or elapsed < budget
    status = "PASS" if ok and in_time else "FAIL"
    timing = f"{elapsed:.2f}s" + (f" of {budget:.0f}s" if budget else "")
    _emit(f"[acceptance] {cid} {name}: {status} ({detail}; {timing})")
    assert ok, f"{cid} {name}: {detail}"
    assert in_time, f"{cid} {name}: runtime {elapsed:.2f}s exceeds {budget}s"


def _random_net(rng):
    d = int(rng.integers(4, 31))
    c = int(rng.integers(2, 11))
    hidden = int(rng.integers(4, 17))
    spec = NetworkSpec((LayerSpec(d, hidden, "relu"), LayerSpec(hidden, c, "identity")))
    return init_network(spec, seed=int(rng.integers(0, 2**31))), d, c


def test_c01_hessian_matches_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        net, d, c = _random_net(rng)
        x = sample_kink_safe(net, rng, margin=1e-3)
        y = int(rng.integers(0, c))
        lin = local_linearization(net, x)
        probs = forward(net, x, y).probs
        H = lin.W @ softmax_curvature(probs) @ lin.W.T
        h = 1e-5
        fd = np.empty((d, d))
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd[:, j] = (input_gradient(net, x + e, y) - input_gradient(net, x - e, y)) / (2 * h)
        worst = max(worst, float(np.abs(fd - H).max() / max(np.abs(H).max(), 1e-12)))
    _verdict("C01", "closed-form Hessian vs finite differences", worst <= 1e-4,
             f"20 nets, worst entrywise rel err {worst:.2e} <= 1e-4",
             time.perf_counter() - start, 10.0)


def test_c02_curvature_is_positive_semidefinite():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = np.inf
    for _ in range(50):
        d, c = 30, 8
        W = rng.standard_normal((d, c))
        z = rng.standard_normal(c)
        p = np.exp(z - z.max())
        p /= p.sum()
        H = W @ softmax_curvature(p) @ W.T
        top = float(np.linalg.eigvalsh(H)[-1])
        V = rng.standard_normal((1000, d))
        rayleigh = np.einsum("ij,ij->i", V @ H, V) / np.einsum("ij,ij->i", V, V)
        worst = min(worst, float(rayleigh.min()) / top)
    _verdict("C02", "Rayleigh quotients nonnegative", worst >= -1e-10,
             f"50 instances x 1000 directions, min normalized Rayleigh {worst:.2e} >= -1e-10",
             time.perf_counter() - start, 5.0)


def test_c03_factored_eigensolver_matches_dense():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    d, c = 50, 10
    W = rng.standard_normal((d, c))
    z = rng.standard_normal(c)
    p = np.exp(z - z.max())
    p /= p.sum()
    handle = hessian_eig(W, p)
    H = W @ softmax_curvature(p) @ W.T
    dense_vals, dense_vecs = np.linalg.eigh(H)
    k = len(handle.eigenvalues)
    top_vals = dense_vals[::-1][:k]
    top_vecs = dense_vecs[:, ::-1][:, :k]
    val_err = float(np.abs(handle.eigenvalues - top_vals).max() / top_vals.max())
    cos = np.abs(np.einsum("ij,ij->j", top_vecs, handle.eigenvectors))
    vec_err = float(1.0 - cos.min())
    ok = val_err <= 1e-8 and vec_err <= 1e-8
    _verdict("C03", "eigendecomposition vs dense solver", ok,
             f"{k} pairs, eigenvalue rel err {val_err:.2e}, alignment defect {vec_err:.2e}",
             time.perf_counter() - start, 5.0)


# regression goldens produced by the simulation itself on first run
C04_CLASS_GOLDENS = (
    (10, 0.2849715355867293),
    (50, 0.15464017273964298),
    (100, 0.10406812205786052),
    (500, 0.07225927540126889),
    (1000, 0.0560926773603693),
)
C04_EPS_GOLDENS = (
    (5e-3, 0.9745428050064251),
    (1e-3, 0.16481079235262516),
    (1e-4, 0.11466473211266262),
    (1e-5, 0.1133737404507652),
    (1e-6, 0.11328377039464951),
)


def test_c04_rank_one_error_trends_and_goldens():
    start = time.perf_counter()
    by_class = simulate_rank_one(
        d=512, seed=0, p0=0.9999,
        classes=tuple(c for c, _ in C04_CLASS_GOLDENS),
    )
    by_eps = simulate_rank_one(
        d=512, seed=0, c=100,
        eps_values=tuple(e for e, _ in C04_EPS_GOLDENS),
    )
    errs_c = [pt.rel_error for pt in by_class]
    errs_e = [pt.rel_error for pt in by_eps]
    decreasing = all(a > b for a, b in zip(errs_c, errs_c[1:])) and all(
        a > b for a, b in zip(errs_e, errs_e[1:])
    )
    drift = 0.0
    for errs, goldens in ((errs_c, C04_CLASS_GOLDENS), (errs_e, C04_EPS_GOLDENS)):
        for err, (_, golden) in zip(errs, goldens):
            drift = max(drift, abs(err - golden) / golden)
    ok = decreasing and drift <= 1e-9
    _verdict("C04", "rank-one error simulation", ok,
             f"both sweeps strictly decreasing={decreasing}, golden drift {drift:.1e}",
             time.perf_counter() - start, 60.0)


def test_c05_rank_one_regime_geometry():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    d, c, eps = 512, 1000, 1e-8
    W = rng.standard_normal((d, c))
    p = np.full(c, eps)
    p[0] = 1.0 - (c - 1) * eps
    y = np.zeros(c)
    y[0] = 1.0
    g = W @ (p - y)
    handle = hessian_eig(W, p)
    cos_top = float(abs(handle.eigenvectors[:, 0] @ g) / np.linalg.norm(g))
    mass = float(handle.eigenvalues[0] ** 2 / (handle.eigenvalues**2).sum())
    caso = closed_form_caso(g, handle, select_lambda2(handle.top_eigenvalue))
    cafo = closed_form_cafo(g, select_lambda2(0.0))
    cos_methods = float(caso @ cafo / (np.linalg.norm(caso) * np.linalg.norm(cafo)))
    ok = cos_top >= 0.99 and mass >= 0.99 and cos_methods >= 0.99
    _verdict("C05", "high-confidence many-class asymptotics", ok,
             f"|cos(u1,g)|={cos_top:.6f}, top eigenvalue mass={mass:.6f}, "
             f"cos(caso,cafo)={cos_methods:.6f}, all >= 0.99",
             time.perf_counter() - start, 30.0)


def _surrogate(g, handle, lam2, delta):
    return float(g @ delta + 0.5 * delta @ handle.hvp(delta) - lam2 * delta @ delta)


def test_c06_solver_matches_closed_form_and_rate():
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    worst_gap, worst_cos, rate_ok = 0.0, 1.0, True
    for _ in range(50):
        d, c = 50, 10
        W = rng.standard_normal((d, c))
        z = rng.standard_normal(c)
        p = np.exp(z - z.max())
        p /= p.sum()
        e = np.zeros(c)
        e[0] = 1.0
        g = W @ (p - e)
        handle = hessian_eig(W, p)
        lam2 = select_lambda2(handle.top_eigenvalue)
        obj = ObjectiveSpec(gradient=g, hvp=handle.hvp, lam1=0.0, lam2=lam2,
                            curvature_bound=handle.top_eigenvalue)
        exact = closed_form_caso(g, handle, lam2)
        f_star = _surrogate(g, handle, lam2, exact)
        res = fista_solve(obj, SolverConfig(iterations=100))
        gap = f_star - _surrogate(g, handle, lam2, res.delta)
        cos = float(res.delta @ exact / (np.linalg.norm(res.delta) * np.linalg.norm(exact)))
        worst_gap = max(worst_gap, gap)
        worst_cos = min(worst_cos, cos)
        gap8 = f_star - _surrogate(
            g, handle, lam2, fista_solve(obj, SolverConfig(iterations=8)).delta
        )
        gap32 = f_star - _surrogate(
            g, handle, lam2, fista_solve(obj, SolverConfig(iterations=32)).delta
        )
        if gap32 > 1.5 * gap8 / 4.0 + 1e-12 * max(1.0, abs(f_star)):
            rate_ok = False
    ok = worst_gap <= 1e-8 and worst_cos >= 0.9999 and rate_ok
    _verdict("C06", "FISTA vs closed form plus rate", ok,
             f"50 instances, worst gap {worst_gap:.2e} <= 1e-8, worst cos {worst_cos:.6f}, "
             f"gap(32) <= 1.5*gap(8)/4 holds={rate_ok}",
             time.perf_counter() - start, 20.0)


def test_c07_sparsity_semantics_and_prox():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    all_dead_ok, all_dense_ok = True, True
    for _ in range(20):
        g = rng.standard_normal(40)
        lam2 = 10.0
        dead = fista_solve(
            ObjectiveSpec(gradient=g, hvp=None, lam1=float(np.abs(g).max()), lam2=lam2),
            SolverConfig(),
        )
        if np.count_nonzero(dead.delta) != 0 or sparsity_ratio(dead.delta) != 1.0:
            all_dead_ok = False
        dense = fista_solve(
            ObjectiveSpec(gradient=g, hvp=None, lam1=0.0, lam2=lam2), SolverConfig()
        )
        if sparsity_ratio(dense.delta) != 0.0:
            all_dense_ok = False
    x = rng.standard_normal(10_000) * 3.0
    t = float(rng.uniform(0.2, 1.5))
    out = prox_soft_threshold(x, t)
    dead_zone = np.all(out[np.abs(x) <= t] == 0.0)
    shrink = np.allclose(np.abs(out), np.maximum(np.abs(x) - t, 0.0), rtol=0, atol=0)
    signs = np.all((out == 0.0) | (np.sign(out) == np.sign(x)))
    pairs = rng.standard_normal((10_000, 2)) * 2.0
    pa, pb = prox_soft_threshold(pairs[:, 0], t), prox_soft_threshold(pairs[:, 1], t)
    # the shifted subtractions round at the operand scale, so a nearly-tied
    # pair needs an absolute ulp allowance, not a relative one
    slack = 1e-15 * (np.abs(pairs).sum(axis=1) + 2.0 * t)
    lipschitz = np.all(np.abs(pa - pb) <= np.abs(pairs[:, 0] - pairs[:, 1]) + slack)
    ok = all_dead_ok and all_dense_ok and dead_zone and shrink and signs and lipschitz
    _verdict("C07", "L1 dead zone and prox properties", ok,
             f"lam1>=|g|_inf all-zero={all_dead_ok}, lam1=0 dense={all_dense_ok}, "
             f"prox suite over 10^4 scalars ok={bool(dead_zone and shrink and signs and lipschitz)}",
             time.perf_counter() - start, 5.0)


def test_c08_confidence_anticorrelates_with_method_gap():
    start = time.perf_counter()
    full = make_blobs(classes=10, dim=64, n_per_class=42, center_scale=2.0,
                      noise=1.4, seed=33)
    tr = np.concatenate([np.arange(c * 42, c * 42 + 30) for c in range(10)])
    he = np.concatenate([np.arange(c * 42 + 30, (c + 1) * 42) for c in range(10)])
    train = Dataset(X=full.X[tr], labels=full.labels[tr])
    held = Dataset(X=full.X[he], labels=full.labels[he])
    spec = NetworkSpec((LayerSpec(64, 32, "relu"), LayerSpec(32, 10, "identity")))
    net = train_sgd(
        init_network(spec, seed=33), train,
        epochs=6, learning_rate=0.02, seed=33,
    ).network
    rows = confidence_gap_study(net, held, held.n)
    rho = spearman_rho(
        np.array([r.p_max for r in rows]), np.array([r.gap for r in rows])
    )
    ok = len(rows) >= 100 and rho <= -0.3
    _verdict("C08", "confidence vs CASO-CAFO gap trend", ok,
             f"{len(rows)} held-out samples (>=100), spearman rho {rho:.3f} <= -0.3",
             time.perf_counter() - start, 120.0)


def test_c09_integrated_gradients_completeness():
    start = time.perf_counter()
    rng = np.random.default_rng(14)
    c, d = 6, 12
    net = Network(
        spec=NetworkSpec((LayerSpec(d, c, "identity"),)),
        weights=(rng.standard_normal((c, d)),),
        biases=(rng.standard_normal(c),),
    )
    x = rng.standard_normal(d)
    y = 1
    sample = Sample(x=x, y=y)
    res = integrated_gradients(sample, net, steps=50)
    span = forward(net, x, y).loss - forward(net, np.zeros(d), y).loss
    residual = abs(float(res.delta.sum()) - span)

    spec = NetworkSpec((LayerSpec(10, 14, "relu"), LayerSpec(14, 5, "identity")))
    relu_net = init_network(spec, seed=3)
    xs = np.random.default_rng(11).standard_normal(10)
    relu_sample = Sample(x=xs, y=2)
    relu_span = forward(relu_net, xs, 2).loss - forward(relu_net, np.zeros(10), 2).loss
    ladder = []
    for steps in (1, 5, 25, 125):
        r = integrated_gradients(relu_sample, relu_net, steps=steps)
        ladder.append(abs(float(r.delta.sum()) - relu_span))
    monotone = all(a > b for a, b in zip(ladder, ladder[1:]))
    ok = residual <= 1e-3 and monotone
    _verdict("C09", "integrated gradients completeness", ok,
             f"linear-softmax residual {residual:.2e} <= 1e-3 at 50 steps, "
             f"relu residual ladder {['%.1e' % v for v in ladder]} strictly decreasing={monotone}",
             time.perf_counter() - start, 5.0)


def test_c10_oracle_support_recovery():
    start = time.perf_counter()
    g, H, lam2, planted = make_planted_instance(d=12, support=(2, 5, 9), seed=0)
    k = len(planted)
    oracle = brute_force_group_feature(g, H, lam2, k)
    top = float(np.linalg.eigvalsh(H)[-1])
    best_support, best_value = None, -np.inf
    for lam1 in DEFAULT_LAMBDA1_GRID:
        obj = ObjectiveSpec(gradient=g, hvp=lambda v: H @ v, lam1=lam1, lam2=lam2,
                            curvature_bound=top)
        delta = fista_solve(obj, SolverConfig(iterations=100)).delta
        nnz = int(np.count_nonzero(delta))
        if not 1 <= nnz <= k:
            continue
        value = float(g @ delta + 0.5 * delta @ (H @ delta) - lam2 * delta @ delta)
        if value > best_value:
            best_value = value
            best_support = tuple(int(i) for i in np.flatnonzero(delta))
    ok = oracle.support == planted and best_support == oracle.support
    _verdict("C10", "L0 oracle vs best-lambda1 L1 support", ok,
             f"oracle support {oracle.support}, best L1 support {best_support}, "
             f"planted {planted}",
             time.perf_counter() - start, 30.0)


def test_c11_cli_determinism(tmp_path):
    start = time.perf_counter()
    prep = tmp_path / "prep"
    rc = cli.main([
        "train", "--classes", "3", "--dim", "9", "--n-per-class", "8",
        "--hidden", "6", "--epochs", "2", "--lr", "0.05", "--seed", "5",
        "--save-data", "--out", str(prep),
    ])
    assert rc == 0
    model, data = str(prep / "model.json"), str(prep / "data.csv")
    cases = {
        "train": ["train", "--classes", "3", "--dim", "9", "--n-per-class", "6",
                  "--hidden", "5", "--epochs", "2", "--seed", "5"],
        "interpret": ["interpret", "--model", model, "--data", data,
                      "--method", "smooth-caso", "--samples", "0,1",
                      "--smooth-n", "6", "--seed", "3"],
        "sweep": ["sweep", "--model", model, "--data", data, "--method", "cafo",
                  "--sample", "0", "--seed", "2"],
        "rank1-sim": ["rank1-sim", "--p0", "0.999", "--classes", "5,25", "--d", "48",
                      "--seed", "1"],
        "gap-study": ["gap-study", "--model", model, "--data", data],
        "alignment": ["alignment", "--d", "48", "--classes", "4,32",
                      "--eps", "1e-5", "--seed", "6"],
        "oracle-check": ["oracle-check", "--seed", "0"],
    }
    mismatches = []
    for name, argv in cases.items():
        dirs = (tmp_path / f"{name}-a", tmp_path / f"{name}-b")
        for outdir in dirs:
            rc = cli.main(argv + ["--out", str(outdir)])
            if rc != 0:
                mismatches.append(f"{name}: exit {rc}")
        first = sorted(p.name for p in dirs[0].iterdir())
        second = sorted(p.name for p in dirs[1].iterdir())
        if first != second:
            mismatches.append(f"{name}: artifact sets differ")
            continue
        for fname in first:
            if (dirs[0] / fname).read_bytes() != (dirs[1] / fname).read_bytes():
                mismatches.append(f"{name}/{fname}")
    ok = not mismatches
    _verdict("C11", "CLI artifact determinism", ok,
             f"7 subcommands x 2 runs, byte-identical={ok}"
             + (f", mismatches {mismatches}" if mismatches else ""),
             time.perf_counter() - start)
