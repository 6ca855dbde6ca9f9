"""Exact sparse solves: CAFO in closed form, CASO by active-set Newton
steps on H = F C F^T, globalized on the forward-backward envelope where a
Newton point does not settle."""

import functools
import itertools
import json

import numpy as np
import pytest

from casokit import (
    Dataset,
    LayerSpec,
    MethodRequest,
    Network,
    NetworkSpec,
    ObjectiveSpec,
    Sample,
    cli,
    dataset_save_csv,
    init_network,
    lambda1_sweep,
    model_save,
    run_request,
    sparse_models,
)
from casokit import interpret, solver
from casokit import netcore as nc

SPARSE = ("cafo", "caso", "smooth-cafo", "smooth-caso")
KNOBS = {"smooth_n": 4, "smooth_sigma": 0.2}


def net_of(kind):
    acts = {"relu": ("relu", "relu"), "sigmoid": ("sigmoid", "sigmoid"),
            "mixed": ("relu", "sigmoid")}[kind]
    spec = NetworkSpec((LayerSpec(20, 12, acts[0]), LayerSpec(12, 6, acts[1]),
                        LayerSpec(6, 4, "identity")))
    return init_network(spec, seed=41)


def samples(count, seed=42):
    rng = np.random.default_rng(seed)
    return [Sample(x=rng.standard_normal(20), y=int(rng.integers(4))) for _ in range(count)]


def model_of(net, method, sample, seed=0, **knobs):
    """The CurvatureModel a one-sample request builds."""
    return next(sparse_models(net, MethodRequest(method, (sample,), (seed,), **knobs)))


def objective(net, method, result, sample, seed=0):
    """The ObjectiveSpec a sparse result maximized, from a model of its own."""
    model = model_of(net, method, sample, seed, **KNOBS)
    hvp = functools.partial(solver.curvature_product, model.factor, model.middle)
    return ObjectiveSpec(gradient=model.gradient, hvp=hvp, lam1=result.lam1,
                         lam2=result.lam2, curvature_bound=model.curvature_bound)


def check_exact(objs, results):
    """Each result is certified, reports its objective's value, and matches
    3000 proximal-gradient steps D <- soft(g + H D, lam1)/(2 lam2) on the
    dense H, a contraction, to 1e-10 of max|D| with the same zero pattern.
    The objectives come from models built one sample at a time, which
    match a chunk's to rounding."""
    for obj, res in zip(objs, results):
        H = np.zeros((obj.dim, obj.dim)) if obj.hvp is None else obj.hvp(np.eye(obj.dim))
        assert np.abs(np.linalg.eigvalsh(H)).max() / (2.0 * obj.lam2) < 1.0
        ref = np.zeros(obj.dim)
        for _ in range(3000):
            ref = solver.prox_soft_threshold(obj.gradient + H @ ref, obj.lam1) / (2.0 * obj.lam2)
        assert res.solve.solver in ("active-set", "closed-form")
        assert res.solve.kkt_residual <= 1e-12
        assert res.loss_gain == pytest.approx(obj.value(res.delta), rel=1e-12, abs=1e-300)
        scale = max(float(np.abs(res.delta).max()), np.finfo(float).tiny)
        assert np.abs(res.delta - ref).max() <= 1e-10 * scale
        assert np.array_equal(res.delta == 0.0, ref == 0.0)


@pytest.mark.parametrize("kind", ["relu", "sigmoid", "mixed"])
@pytest.mark.parametrize("method", SPARSE)
def test_requests_and_sweeps_are_exact(kind, method):
    net = net_of(kind)
    rows = samples(3)
    for lam1 in (1e-3, 3e-2):
        results = run_request(net, MethodRequest(method, rows, (7, 8, 9), lam1=lam1, **KNOBS))
        check_exact([objective(net, method, r, s, 7 + i)
                     for i, (r, s) in enumerate(zip(results, rows))], results)
    out = lambda1_sweep(net, MethodRequest(method, rows[:1], (3,), **KNOBS),
                        grid=(0.0, 1e-4, 3e-3, 3e-2, 0.3), max_refinements=1)
    check_exact([objective(net, method, r, rows[0], 3) for r in out.all_results],
                out.all_results)
    steps = {r.solve.steps for r in out.all_results}
    if method.endswith("cafo"):
        assert steps == {0}
    else:
        assert 0 not in steps


@pytest.mark.parametrize("kind", ["relu", "sigmoid", "mixed"])
@pytest.mark.parametrize("method", ["caso", "smooth-caso"])
def test_model_solves_at_lam1_zero_settle_in_one_step(kind, method):
    # at lam1 = 0 the start D0 = (g + F C z0)/(2 lam2) is the maximizer
    # itself, so the first Newton point keeps its active set; at c1 = 1e-3,
    # where the maximizer's signs are not g's, for a start at 0 too
    net = net_of(kind)
    rows = samples(6)
    for c1 in (1e-3, 10.0):
        request = MethodRequest(method, rows, range(6), lam1=0.0, c1=c1, **KNOBS)
        models = list(sparse_models(net, request))
        assert all(m.inverse is not None for m in models)
        results = run_request(net, request)
        assert [r.solve.steps for r in results] == [1] * 6
        assert all(r.solve.kkt_residual <= 1e-12 for r in results)


@pytest.mark.parametrize("kind", ["relu", "sigmoid"])
@pytest.mark.parametrize("method", SPARSE)
def test_loss_gain_is_the_objective_at_the_map(kind, method):
    # a one-sample request solves exactly the model model_of builds
    net = net_of(kind)
    for i, s in enumerate(samples(2)):
        res, = run_request(net, MethodRequest(method, (s,), (i,), lam1=2e-3, **KNOBS))
        assert res.loss_gain == objective(net, method, res, s, i).value(res.delta)


def test_chunk_rows_settling_at_different_steps_match_single_solves():
    net = net_of("relu")
    rows = samples(8, seed=43)
    request = MethodRequest("caso", rows, lam1=3e-3)
    chunk = run_request(net, request)
    assert len(list(interpret._chunks(net, request))) == 1
    assert len({r.solve.steps for r in chunk}) > 1
    for s, r in zip(rows, chunk):
        alone, = run_request(net, request.replace(samples=(s,), seeds=None))
        assert r.solve.steps == alone.solve.steps
        assert np.array_equal(r.delta == 0.0, alone.delta == 0.0)
        scale = float(np.abs(alone.delta).max())
        assert np.abs(r.delta - alone.delta).max() <= 1e-12 * scale


def test_step_cap_leaves_the_last_iterate_uncertified(monkeypatch, tmp_path, capsys):
    net = net_of("relu")
    # from the better of its two starts, row 0 still takes two steps here
    rows = samples(2, seed=44)
    request = MethodRequest("caso", rows, lam1=1e-2)
    assert [r.solve.steps for r in run_request(net, request)] == [2, 1]
    monkeypatch.setattr(solver, "ACTIVE_SET_MAX_STEPS", 1)
    model, data = tmp_path / "net.json", tmp_path / "data.csv"
    model_save(net, str(model))
    dataset_save_csv(Dataset(np.stack([s.x for s in rows]), [s.y for s in rows]), str(data))
    argv = ["interpret", "--model", str(model), "--data", str(data), "--method", "caso",
            "--samples", "0,1", "--width", "20", "--height", "1", "--lambda1", "1e-2",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    capped, settled = (json.loads((tmp_path / "out" / f"sample{i}.json").read_text())
                       for i in (0, 1))
    assert (capped["solver"], capped["solver_steps"]) == ("active-set", 1)
    assert capped["kkt_residual"] > 1e-12  # the last iterate, honestly uncertified
    assert (settled["solver_steps"], settled["kkt_residual"] <= 1e-12) == (1, True)
    capsys.readouterr()


def assert_maximizer(D, g, H, lam1, lam2):
    """The optimality condition on the dense H, which a strongly concave
    objective's maximizer alone satisfies."""
    fixed = solver.prox_soft_threshold(g + H @ D, lam1) / (2.0 * lam2)
    scale = max(float(np.abs(D).max()), np.finfo(float).tiny)
    assert np.abs(D - fixed).max() <= 1e-12 * scale


def test_every_system_reaches_the_maximizer(monkeypatch):
    # the r x r, D-space and Woodbury systems, with C = I and with an
    # indefinite C, with and without the Woodbury base
    kinds = []
    newton = solver._newton

    def recorded(way, F, C, inverse, *args):
        kinds.append((way, C is None, inverse is None))
        return newton(way, F, C, inverse, *args)

    monkeypatch.setattr(solver, "_newton", recorded)
    rng = np.random.default_rng(44)
    d, r = 30, 6
    for signed in (False, True):
        F = rng.standard_normal((d, r)) / 3.0
        C = None
        if signed:
            M = rng.standard_normal((r, r)) / 2.0
            C = M + M.T
        H = F @ (np.eye(r) if C is None else C) @ F.T
        w = np.linalg.eigvalsh(H)
        lam2 = max(float(w[-1]), 0.0) / 2.0 + 1.0
        inverse = np.linalg.inv(2.0 * lam2 * np.eye(r) - F.T @ F @ (np.eye(r) if C is None else C))
        for lam1 in (0.0, 1e-2, 0.3, 1.0, 2.5):
            g = rng.standard_normal(d)
            for inv in (None, inverse):
                D, steps, settled = solver.active_set_solve(g, lam1, lam2, F, C, inv,
                                                            min(float(w[0]), 0.0))
                assert settled and 1 <= steps <= 5
                assert_maximizer(D, g, H, lam1, lam2)
    # the Woodbury system needs the base; the other two run with and without it
    assert set(kinds) == {(way, identity, no_base) for way in (0, 1, 2)
                          for identity in (True, False) for no_base in (True, False)
                          if way < 2 or not no_base}


def test_empty_active_set_and_empty_woodbury_system(monkeypatch):
    kinds = []
    newton = solver._newton

    def recorded(way, F, C, inverse, two, S, u):
        kinds.append((way, int(S.sum())))
        return newton(way, F, C, inverse, two, S, u)

    monkeypatch.setattr(solver, "_newton", recorded)
    rng = np.random.default_rng(47)
    d, r = 12, 4
    F = rng.standard_normal((d, r))
    H = F @ F.T
    lam2 = float(np.linalg.eigvalsh(H)[-1]) / 2.0 + 1.0
    inverse = np.linalg.inv(2.0 * lam2 * np.eye(r) - F.T @ F)
    g = rng.standard_normal(d)
    assert np.all(g != 0.0)
    # lam1 above |g|_inf: S is empty, a 0 x 0 D-space system, and D = 0
    D, steps, settled = solver.active_set_solve(g, 1.01 * np.abs(g).max(), lam2, F,
                                                inverse=inverse)
    assert (steps, settled) == (1, True) and not D.any()
    assert kinds == [(1, 0)]
    # lam1 = 0 and no zero in g: S^c is empty, a 0 x 0 Woodbury system
    D, steps, settled = solver.active_set_solve(g, 0.0, lam2, F, inverse=inverse)
    assert settled
    assert kinds[1] == (2, d)
    assert_maximizer(D, g, H, 0.0, lam2)


def globalized(monkeypatch):
    """A list with one entry per Newton point that does not settle, each
    handed to solver._globalize."""
    seen = []
    real = solver._globalize
    monkeypatch.setattr(solver, "_globalize", lambda *args: seen.append(1) or real(*args))
    return seen


def plain_newton(monkeypatch):
    """Undamped semismooth Newton: every Newton point is the next iterate."""
    monkeypatch.setattr(solver, "_globalize", lambda *args: args[8:])  # (N, H N)


def test_a_cycling_row_settles_through_the_envelope(monkeypatch):
    # plain semismooth Newton alternates between two active sets here
    rng = np.random.default_rng(49)
    F = rng.standard_normal((38, 20)) * rng.uniform(0.5, 3.0)
    top = float(np.linalg.eigvalsh(F.T @ F)[-1])
    g, lam2 = rng.standard_normal(38), top / 2.0 + 10.0
    calls = globalized(monkeypatch)
    res = solver.exact_solve(g, 0.1, lam2, F)
    assert res.solver == "active-set" and res.steps < solver.ACTIVE_SET_MAX_STEPS
    assert res.kkt_residual <= 1e-12
    assert calls
    plain_newton(monkeypatch)
    assert not solver.active_set_solve(g, 0.1, lam2, F)[2]


def adversarial_rows(kind, count=200, seed=0):
    """Rows (g, lam1, lam2, F, C, inverse, floor) of H = F C F^T with d
    from 10 to 60 and max|lambda(H)|/(2 lam2) from 0.8 to 0.99: C = I for
    "psd", a random symmetric C for "signed", and C = K K^T for
    "psd-middle", the first-layer form of a wide relu model. floor is
    lambda_min(H) of a signed H, else 0."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(10, 61))
        r = int(rng.integers(2, d + 1))
        F = rng.standard_normal((d, r)) * rng.uniform(0.5, 3.0)
        C, floor = None, 0.0
        if kind == "signed":
            M = rng.standard_normal((r, r))
            C = (M + M.T) / 2.0
            w = np.linalg.eigvalsh(F @ C @ F.T)
            top, floor = float(np.abs(w).max()), min(float(w[0]), 0.0)
        elif kind == "psd-middle":
            K = rng.standard_normal((r, r))
            C = K @ K.T
            top = float(np.linalg.eigvalsh(F @ C @ F.T)[-1])
        else:
            top = float(np.linalg.eigvalsh(F.T @ F)[-1])
        lam2 = top / (2.0 * rng.uniform(0.8, 0.99))
        g = rng.standard_normal(d)
        lam1 = float(rng.uniform(0.0, 1.0) * np.abs(g).max())
        FtFC = F.T @ F if C is None else F.T @ F @ C
        yield g, lam1, lam2, F, C, np.linalg.inv(2.0 * lam2 * np.eye(r) - FtFC), floor


@pytest.mark.parametrize("kind", ["psd", "signed", "psd-middle"])
def test_adversarial_rows_settle(monkeypatch, kind):
    # plain Newton settles all of the first 200 psd-middle rows
    rows = list(adversarial_rows(kind, 600 if kind == "psd-middle" else 200))
    with monkeypatch.context() as m:
        plain_newton(m)
        plain = [solver.active_set_solve(*row) for row in rows]
    unsettled = 0
    for (g, lam1, lam2, F, C, inverse, floor), (plain_D, _, plain_settled) in zip(rows, plain):
        D, steps, settled = solver.active_set_solve(g, lam1, lam2, F, C, inverse, floor)
        assert settled and steps <= 10
        assert_maximizer(D, g, F @ (F.T if C is None else C @ F.T), lam1, lam2)
        if plain_settled:  # the bits depend only on the active set settled on
            assert D.tobytes() == plain_D.tobytes()
        unsettled += not plain_settled
        if kind == "psd-middle":
            # C = K K^T agrees with C = I on the factor B = F K
            B = F @ np.linalg.cholesky(C)
            base = np.linalg.inv(2.0 * lam2 * np.eye(B.shape[1]) - B.T @ B)
            ref = solver.active_set_solve(g, lam1, lam2, B, None, base)[0]
            assert np.abs(D - ref).max() <= 1e-9 * max(float(np.abs(ref).max()), 1e-300)
            assert np.array_equal(D == 0.0, ref == 0.0)
    assert unsettled >= 1


@pytest.mark.parametrize("seed", [5039, 7538, 9567, 19825, 20556, 21430])
def test_psd_rows_settle_in_few_steps(seed):
    # rows that cycle under residual halving; C = I given as None or as
    # the identity takes the one rule and the same steps
    g, lam1, lam2, F, C, inverse, floor = next(adversarial_rows("psd", 1, seed))
    D, steps, settled = solver.active_set_solve(g, lam1, lam2, F, C, inverse, floor)
    assert settled and steps <= 7
    assert_maximizer(D, g, F @ F.T, lam1, lam2)
    eye = np.eye(F.shape[1])
    same = solver.active_set_solve(g, lam1, lam2, F, eye, inverse, floor)
    assert (same[0].tobytes(), same[1:]) == (D.tobytes(), (steps, True))


@pytest.mark.parametrize("kind, seed, row", [("signed", 7, 596), ("signed", 5, 3685),
                                             ("psd-middle", 0, 1752), ("psd-middle", 3, 3255),
                                             ("psd-middle", 5, 2336)])
def test_rows_that_ran_out_of_steps_settle(kind, seed, row):
    # these rows reached ACTIVE_SET_MAX_STEPS, uncertified, under the
    # residual-halving rule; signed row 596 ended 4.7% off with another
    # support. Each now settles on the support of a converged FISTA solve
    g, lam1, lam2, F, C, inverse, floor = next(
        itertools.islice(adversarial_rows(kind, row + 1, seed), row, None))
    res = solver.exact_solve(g, lam1, lam2, F, C, inverse, floor)
    assert res.steps < 10 and res.kkt_residual <= 1e-12
    H = F @ C @ F.T
    obj = ObjectiveSpec(gradient=g, hvp=lambda v: H @ v, lam1=lam1, lam2=lam2,
                        curvature_bound=max(float(np.linalg.eigvalsh(H)[-1]), 0.0))
    ref = solver.fista_solve(obj, solver.SolverConfig(learning_rate=1.0 / (2.0 * lam2 - floor),
                                                      iterations=5000)).delta
    assert np.array_equal(res.delta == 0.0, ref == 0.0)
    assert np.abs(res.delta - ref).max() <= 1e-12 * np.abs(ref).max()


def test_exact_solve_certifies_closed_form_cafo():
    rng = np.random.default_rng(45)
    objs = [ObjectiveSpec(gradient=rng.standard_normal(9), hvp=None, lam1=lam1, lam2=10.0)
            for lam1 in (0.0, 0.5, 5.0)]
    results = [solver.exact_solve(obj.gradient, obj.lam1, obj.lam2) for obj in objs]
    for obj, res in zip(objs, results):
        assert (res.solver, res.steps, res.kkt_residual) == ("closed-form", 0, 0.0)
        expected = solver.prox_soft_threshold(obj.gradient, obj.lam1) / 20.0
        assert np.array_equal(res.delta, expected)
        assert res.objective_value == obj.value(res.delta)
    assert not results[2].delta.any()  # lam1 above |g|_inf


def test_one_woodbury_base_per_model_and_solve_call(monkeypatch):
    calls = []
    inv = np.linalg.inv

    def counted(*args, **kwargs):
        calls.append(1)
        return inv(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", counted)
    net = net_of("relu")
    rows = samples(5)
    lambda1_sweep(net, MethodRequest("smooth-caso", rows[:1], **KNOBS),
                  grid=tuple(np.linspace(0.0, 0.05, 8)), max_refinements=0)
    assert len(calls) == 1
    calls.clear()
    request = MethodRequest("caso", rows, lam1=1e-3)
    assert len(list(interpret._chunks(net, request))) == 1
    run_request(net, request)
    assert len(calls) == len(rows)


def test_sigmoid_matches_the_sign_split_formula_bitwise():
    def split(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    rng = np.random.default_rng(46)
    cases = [np.array([0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0])]
    cases += [scale * rng.standard_normal(shape) for scale in (1e-3, 1.0, 30.0, 800.0)
              for shape in ((1, 7), (3, 5), (13,), (2, 3, 4))]
    for z in cases:
        got = nc._apply_activation(z, "sigmoid")
        assert got.tobytes() == split(z).tobytes()


def test_sigmoid_input_r_is_factored_once_per_network(monkeypatch):
    net = net_of("sigmoid")  # a fresh network: no cached R yet
    calls = []
    for name in ("cholesky", "qr"):
        orig = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, orig=orig, name=name, **k: calls.append(name) or orig(*a, **k))
    request = MethodRequest("caso", samples(12), lam1=1e-3)
    assert len(list(interpret._chunks(net, request))) > 1
    run_request(net, request)
    assert calls == ["cholesky"]  # W_0 W_0^T is positive definite: no QR


@pytest.mark.parametrize("case", ["equal rows", "more units than inputs"])
def test_input_r_falls_back_to_qr_on_a_singular_gram(case):
    # W_0 W_0^T is singular either way; with two equal rows of squared
    # norm 9 Cholesky meets an exact zero pivot
    W0 = np.array([[1.0, 2.0, 2.0, 0.0], [1.0, 2.0, 2.0, 0.0], [0.0, 1.0, -1.0, 3.0]])
    if case == "more units than inputs":
        W0 = np.random.default_rng(3).standard_normal((6, 4))
    h0, d = W0.shape
    spec = NetworkSpec((LayerSpec(d, h0, "sigmoid"), LayerSpec(h0, 3, "identity")))
    net = Network(spec, (W0, np.ones((3, h0))), (np.zeros(h0), np.zeros(3)))
    if case == "equal rows":
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(net.input_gram)
    R = net.input_r
    assert R.tobytes() == np.linalg.qr(W0.T, mode="r").tobytes()
    np.testing.assert_allclose(R.T @ R, net.input_gram, rtol=0, atol=1e-12)
    s = Sample(x=np.array([0.3, -0.2, 0.5, 0.1]), y=1)
    model = model_of(net, "caso", s)
    H = solver.curvature_product(model.factor, model.middle, np.eye(d))
    top = max(np.linalg.eigvalsh(H)[-1], 0.0)
    assert model.curvature_bound == pytest.approx(top, rel=1e-12, abs=1e-14)


def system_formed_anew(net, model, lam2):
    """(F, C, Woodbury base) of a model with its Gram matrix formed again:
    F^T F, or R^T R, and a fresh 2 lam2 I - F^T F C to invert."""
    if model.middle is None:
        F, C = model.factor, None
        base = F.T @ F if F.shape[1] <= F.shape[0] else None
    else:
        F, C = net.weights[0].T, model.middle
        base = (net.weights[0] @ net.weights[0].T) @ C
    if base is not None:
        base = np.linalg.inv(2.0 * lam2 * np.eye(len(base)) - base)
    return F, C, base


@pytest.mark.parametrize("kind", ["relu", "sigmoid"])
def test_refinements_reuse_the_sweeps_woodbury_base(monkeypatch, kind):
    calls = []
    inv = np.linalg.inv

    def counted(*args, **kwargs):
        calls.append(1)
        return inv(*args, **kwargs)

    net = net_of(kind)
    s = samples(1)[0]
    monkeypatch.setattr(np.linalg, "inv", counted)
    # lam1 = 0 is dense and lam1 = 10 all zero: no grid value lands in the
    # target range, so the sweep halves 10 until one does
    out = lambda1_sweep(net, MethodRequest("smooth-caso", (s,), (3,), **KNOBS),
                        grid=(0.0, 10.0), max_refinements=20)
    assert len(out.refinements) >= 3 and out.target_met
    assert len(calls) == 1
    for r in out.all_results:  # as one solve per lam1, each with a system of its own
        model = model_of(net, "smooth-caso", s, 3, **KNOBS)
        assert model.lam2 == r.lam2
        ref = solver.exact_solve(model.gradient, r.lam1, r.lam2,
                                 *system_formed_anew(net, model, r.lam2))
        assert r.delta.tobytes() == ref.delta.tobytes()
        assert (r.solve.steps, r.loss_gain) == (ref.steps, ref.objective_value)


def test_spectrum_gram_becomes_the_woodbury_base(monkeypatch):
    # each model inverts its slice of the spectrum step's B^T B stack,
    # overwritten in place: no second F^T F is formed or held
    grams, inverted = [], []
    factor_gram, inv = interpret.factor_gram, np.linalg.inv
    monkeypatch.setattr(interpret, "factor_gram",
                        lambda B: grams.append(factor_gram(B)) or grams[-1])
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a) or inv(a))
    net = net_of("relu")
    models = list(sparse_models(net, MethodRequest("caso", samples(3))))
    assert len(grams) == 1 and len(inverted) == 3
    for model, gram, arg in zip(models, grams[0], inverted):
        F, lam2 = model.factor, model.lam2
        assert lam2 == solver.select_lambda2(model.curvature_bound)
        assert np.shares_memory(arg, gram) and arg.shape == gram.shape
        assert np.array_equal(gram, 2.0 * lam2 * np.eye(len(gram)) - F.T @ F)  # in place
        assert model.inverse.tobytes() == system_formed_anew(net, model, lam2)[2].tobytes()
    # n c = 24 and d = 20 both exceed h0 = 12: the model is built in
    # first-layer coordinates, its base formed from Network.input_gram @ M
    wide = model_of(net, "smooth-caso", samples(1)[0], smooth_n=6, smooth_sigma=0.2)
    assert np.shares_memory(wide.factor, net.weights[0]) and wide.middle.shape == (12, 12)
    assert wide.inverse.tobytes() == system_formed_anew(net, wide, wide.lam2)[2].tobytes()


def test_sigmoid_input_gram_is_formed_once():
    net = net_of("sigmoid")
    gram = net.input_gram
    assert gram is net.input_gram
    assert gram.tobytes() == (net.weights[0] @ net.weights[0].T).tobytes()
    assert not gram.flags.writeable
    R = net.input_r  # its Cholesky factor
    assert np.array_equal(R, np.triu(R)) and (np.diag(R) > 0).all()
    np.testing.assert_allclose(R.T @ R, gram, rtol=1e-13, atol=1e-13)
    model = model_of(net, "caso", samples(1)[0])
    assert model.lam2 == solver.select_lambda2(model.curvature_bound)
    base = system_formed_anew(net, model, model.lam2)[2]
    assert model.inverse.tobytes() == base.tobytes()
    assert gram is net.input_gram
    assert gram.tobytes() == (net.weights[0] @ net.weights[0].T).tobytes()
