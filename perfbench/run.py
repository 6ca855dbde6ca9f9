"""casokit benchmark: seeded saliency workloads through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a casokit checkout; the program is run from the
checkout's src/ tree. Each run generates its inputs from --seed (see
inputs.py), checks one invocation's artifacts in full against an
independent numpy reference (checks.py), then runs the workload's CLI
invocation again and again, one client in a closed loop with --jobs 1,
for --seconds, requiring every invocation to reproduce the checked
artifacts byte for byte.

--trace 0 measures end to end, each invocation a fresh `python -m casokit`
process. --trace 1 runs the same invocations in-process through
casokit.cli.main, plain ones alternating with ones under span wrappers
(tracer.py), and reports per-layer metrics plus the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed
and metrics. Spans of the last traced run of a workload are kept in
.perfbench_work/spans-<workload>.csv.

Workloads, metrics and which layer moves which end-to-end metric are
described in perfbench/README.md.
"""

from __future__ import annotations

import os

# one client on one core: BLAS pools of more than one thread busy-wait on
# the sandbox's second core and make timings depend on its other tenants;
# set before numpy loads, here and (through the environment) in every
# CLI process the benchmark starts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import inputs
import reference
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

SAMPLES = tuple(range(64))
LAMBDA1 = 1e-3
SMOOTH_N = 50
# the CLI's default sweep grid, which the sweep workload keeps
GRID = (0.0, 1e-5, 1e-4, 1e-3, 6.25e-3, 1.25e-2, 2.5e-2, 5e-2)
SETUP_REPEATS = 9
# a tail is the worst value with at least this many samples beyond it
TAIL_BEYOND = 10
# stderr of CASO on sigmoid nets at this commit (ROADMAP item 3)
KNOWN_DEFECT = "error: direction vector is numerically zero"

# A fixed reference process, run before every timed process: interpreter
# start, numpy import, small matrix-vector products, JSON parsing and a
# Python loop, the same mix the CLI spends its time on. The sandbox's speed
# drifts by 20-40% over tens of seconds with its other tenants; each timed
# wall is rescaled by REFERENCE_S / (the reference process's wall just
# before it), which holds the timings to one machine speed.
REFERENCE = """\
import json
import numpy as np
rng = np.random.default_rng(0)
W, V, x = rng.standard_normal((256, 784)), rng.standard_normal((784, 10)), rng.standard_normal(784)
for _ in range(100):
    np.maximum(W @ x, 0.0).sum() + (V @ (V.T @ x)).sum()
json.loads(json.dumps(rng.standard_normal((100, 784)).tolist()))
sum(i * i for i in range(50000))
"""
# the reference process's median wall, as a run interleaves it, on the 2-vCPU
# x86-64 sandbox the baseline was measured on (Python 3.11, numpy 2.4)
REFERENCE_S = 0.35

SETUP_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
import casokit.cli
t1 = time.perf_counter()
from casokit import saliency_io
saliency_io.model_load(sys.argv[1])
saliency_io.dataset_load(sys.argv[2])
print(json.dumps({"file": casokit.cli.__file__, "import_s": t1 - t0}))
"""


@dataclass
class Plan:
    """One workload at one seed: its CLI arguments and how to check them."""

    argv: list
    model_path: str
    data_path: str
    results: int  # saliency results per invocation
    check: Callable  # artifacts -> objective gaps
    p_max: list  # confidence of each interpreted sample
    probe: Plan | None = None  # known-defect invocation, run once


def _interpret_argv(model_path, inp, method, seed):
    return [
        "interpret", "--model", model_path, "--data", inp.data_path,
        "--method", method, "--lambda1", repr(LAMBDA1),
        "--samples", ",".join(map(str, SAMPLES)), "--seed", str(seed),
    ]


def _interpret_spec(model, inp, method, samples=SAMPLES):
    p_max = {r: float(model.probs(inp.X[r]).max()) for r in samples}
    return {"samples": samples, "dim": inputs.SHAPE[0], "side": inputs.SIDE,
            "method": method, "lambda1": LAMBDA1, "p_max": p_max}


def _mean_gradient(model, Z, y):
    return np.mean([model.loss_gradient(z, y) for z in Z], axis=0)


def plan_interpret_caso(inp, seed):
    model, X, y = inp.relu, inp.X, inp.labels
    spec = _interpret_spec(model, inp, "caso")

    def objective(r, doc):
        g = model.loss_gradient(X[r], y[r])
        return reference.Objective(g, model.curvature_factor(X[r]), doc["lambda1"], doc["lambda2"])

    return Plan(
        argv=_interpret_argv(inp.relu_path, inp, "caso", seed),
        model_path=inp.relu_path,
        data_path=inp.data_path,
        results=len(SAMPLES),
        check=lambda files: checks.check_interpret(files, spec, objective),
        p_max=list(spec["p_max"].values()),
    )


def plan_sweep_smooth_caso(inp, seed):
    model, X, y = inp.relu, inp.X, inp.labels
    row = inputs.pick_sweep_row(model, X, y, GRID, SMOOTH_N, seed)
    Z = reference.noise_points(X[row], SMOOTH_N, seed)
    g = _mean_gradient(model, Z, y[row])
    B = np.hstack([model.curvature_factor(z) for z in Z]) / math.sqrt(SMOOTH_N)
    p_max = float(model.probs(X[row]).max())
    spec = {"grid": GRID, "dim": inputs.SHAPE[0], "side": inputs.SIDE,
            "method": "smooth-caso", "p_max": p_max}
    return Plan(
        argv=[
            "sweep", "--model", inp.relu_path, "--data", inp.data_path,
            "--method", "smooth-caso", "--sample", str(row),
            "--smooth-n", str(SMOOTH_N), "--seed", str(seed),
        ],
        model_path=inp.relu_path,
        data_path=inp.data_path,
        results=1,
        check=lambda files: checks.check_sweep(
            files, spec, lambda doc: reference.Objective(g, B, doc["lambda1"], doc["lambda2"])),
        p_max=[p_max],
    )


def plan_interpret_sigmoid_smooth_cafo(inp, seed):
    model, X, y = inp.sigmoid, inp.X, inp.labels
    spec = _interpret_spec(model, inp, "smooth-cafo")
    child_seeds = dict(zip(SAMPLES, reference.interpret_child_seeds(seed, len(SAMPLES))))

    def objective(r, doc):
        Z = reference.noise_points(X[r], SMOOTH_N, child_seeds[r])
        g = _mean_gradient(model, Z, y[r])
        return reference.Objective(g, None, doc["lambda1"], doc["lambda2"])

    probe_argv = _interpret_argv(inp.sigmoid_path, inp, "caso", seed)
    probe_argv[probe_argv.index("--samples") + 1] = "0"
    # no reference Hessian for sigmoid nets: the probe's objective is not checked
    probe_spec = _interpret_spec(model, inp, "caso", samples=(0,))
    probe = Plan(
        argv=probe_argv,
        model_path=inp.sigmoid_path,
        data_path=inp.data_path,
        results=1,
        check=lambda files: checks.check_interpret(files, probe_spec, None),
        p_max=list(probe_spec["p_max"].values()),
    )
    return Plan(
        argv=_interpret_argv(inp.sigmoid_path, inp, "smooth-cafo", seed),
        model_path=inp.sigmoid_path,
        data_path=inp.data_path,
        results=len(SAMPLES),
        check=lambda files: checks.check_interpret(files, spec, objective),
        p_max=list(spec["p_max"].values()),
        probe=probe,
    )


# why each workload is in the benchmark: see README.md
WORKLOADS = {
    "interpret-caso": plan_interpret_caso,
    "sweep-smooth-caso": plan_sweep_smooth_caso,
    "interpret-sigmoid-smooth-cafo": plan_interpret_sigmoid_smooth_cafo,
}


class Runner:
    """Runs CLI invocations as child processes inside one work directory."""

    def __init__(self, work):
        self.work = work
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def fresh_dir(self):
        self.count += 1
        path = os.path.join(self.work, f"out{self.count}")
        os.makedirs(path)
        return path

    def spawn(self, cmd):
        """Run cmd to completion: (exit code, wall s, peak RSS MB, stdout, stderr)."""
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        with open(out_path, "wb") as so, open(err_path, "wb") as se:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=self.env, cwd=self.work)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as so, open(err_path) as se:
            return proc.returncode, wall, usage.ru_maxrss / 1024.0, so.read(), se.read()

    def cli(self, argv, out_dir):
        return self.spawn([sys.executable, "-m", "casokit", *argv, "--out", out_dir])

    def reference_scale(self):
        """REFERENCE_S over the reference process's wall time now."""
        rc, wall, _, _, err = self.spawn([sys.executable, "-c", REFERENCE])
        if rc != 0:
            raise RuntimeError(f"reference process failed: {err.strip()}")
        return REFERENCE_S / wall


def tail(rates):
    """The lowest rate with at least TAIL_BEYOND lower rates beyond it, or
    the lowest when there are too few samples."""
    ordered = sorted(rates)
    return ordered[TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0]


def setup_probe(runner, plan):
    """One fresh process that imports casokit.cli and loads the model and
    data: (wall s, the probe's report with its own import time)."""
    rc, wall, _, out, err = runner.spawn(
        [sys.executable, "-c", SETUP_PROBE, plan.model_path, plan.data_path])
    if rc != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()}")
    doc = json.loads(out)
    if os.path.dirname(os.path.dirname(doc["file"])) != SRC:
        raise RuntimeError(f"casokit imported from {doc['file']}, not {SRC}")
    return wall, doc


def run_probe(runner, plan, lines):
    """The known-defect invocation: returns 1 if it failed as documented,
    0 if it passed its checks, and raises on any other outcome."""
    out_dir = runner.fresh_dir()
    rc, _, _, _, err = runner.cli(plan.probe.argv, out_dir)
    if rc == 1 and err.strip() == KNOWN_DEFECT:
        lines.append(f"known defect: `interpret --method caso` on the sigmoid model "
                     f"exits 1 with {KNOWN_DEFECT!r}; counted in ops_failed")
        return 1
    if rc != 0:
        raise checks.CheckError(f"probe exited {rc}: {err.strip()}")
    plan.probe.check(checks.snapshot(out_dir))
    lines.append("known-defect probe (sigmoid caso) now succeeds and passes its checks")
    return 0


def closed_loop(seconds, invoke):
    """Call invoke() back to back until seconds have passed; returns the
    list of its results."""
    out = []
    deadline = time.perf_counter() + seconds
    while not out or time.perf_counter() < deadline:
        out.append(invoke())
    return out


def untraced(runner, plan, golden, seconds):
    """End-to-end loop, walls rescaled to the reference speed: (walls,
    scales, peak RSS values, failures, set-up walls).

    The set-up probes are spread evenly over the run, so that set-up and
    invocations sample the same stretch of the machine's drifting speed.
    """
    walls, scales, rss, failures, setup = [], [], [], [], []

    def setup_once():
        scale = runner.reference_scale()
        setup.append(setup_probe(runner, plan)[0] * scale)

    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        if len(setup) <= SETUP_REPEATS * (time.perf_counter() - start) / seconds:
            setup_once()
        scale = runner.reference_scale()
        out_dir = runner.fresh_dir()
        rc, wall, peak, _, err = runner.cli(plan.argv, out_dir)
        bad = f"exit {rc}: {err.strip()}" if rc else checks.same_artifacts(golden, out_dir)
        if bad:
            failures.append(bad)
        shutil.rmtree(out_dir)
        walls.append(wall * scale)
        scales.append(scale)
        rss.append(peak)
    while len(setup) < SETUP_REPEATS:
        setup_once()
    return walls, scales, rss, failures, setup


def in_process(runner, plan, golden, tracer, failures):
    """One invocation of cli.main in this process; returns its wall time.
    With a tracer, its spans are tagged with the invocation's number."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import casokit.cli

    out_dir = runner.fresh_dir()
    sink = io.StringIO()
    if tracer is not None:
        tracer.invocation += 1
        tracer.install()
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = casokit.cli.main(plan.argv + ["--out", out_dir])
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    bad = f"exit {rc}: {sink.getvalue()[-200:]}" if rc else checks.same_artifacts(golden, out_dir)
    if bad:
        failures.append(bad)
    shutil.rmtree(out_dir)
    return wall


def measure(args, work, lines):
    inp = inputs.generate(args.seed, work)
    plan = WORKLOADS[args.workload](inp, args.seed)
    runner = Runner(work)
    shown = [a if len(a) < 24 else a[:10] + "..." + a[-4:] for a in plan.argv]
    lines.append(f"workload {args.workload} seed {args.seed}: casokit {' '.join(shown)}")
    pm = np.percentile(plan.p_max, [0, 50, 100])
    lines.append(f"inputs: p_max of the {len(plan.p_max)} interpreted sample(s) "
                 f"min {pm[0]:.4f} median {pm[1]:.4f} max {pm[2]:.4f}")

    # one invocation checked in full; the rest must reproduce its bytes
    out_dir = runner.fresh_dir()
    rc, _, _, _, err = runner.cli(plan.argv, out_dir)
    if rc != 0:
        raise checks.CheckError(f"exit {rc}: {err.strip()}")
    golden = checks.snapshot(out_dir)
    gaps = plan.check(golden)
    lines.append(f"relative objective gap to a converged solve over {len(gaps)} result(s): "
                 f"median {statistics.median(gaps):.3e}, worst {max(gaps):.3e}")
    known_failures = run_probe(runner, plan, lines) if plan.probe else 0

    if args.trace:
        # plain and traced invocations alternate, so both see the same
        # stretch of the machine's speed
        tracer, failures = Tracer(), []
        pairs = closed_loop(args.seconds, lambda: (
            in_process(runner, plan, golden, None, failures),
            in_process(runner, plan, golden, tracer, failures)))
        base_walls, walls = zip(*pairs)
        tracer.write(os.path.join(WORK_ROOT, f"spans-{args.workload}.csv"))
        metrics = tracer.layer_metrics(len(walls), plan.results * len(walls))
        base_rate = statistics.median(plan.results / w for w in base_walls)
        traced_rate = statistics.median(plan.results / w for w in walls)
        import_s = statistics.median(setup_probe(runner, plan)[1]["import_s"] for _ in range(3))
        metrics.update({
            "cli.import_s": import_s,
            "trace.overhead": base_rate / traced_rate,
            "ops_failed": len(failures) + known_failures,
            "objective_gap_worst": max(gaps),
        })
        attempted = 1 + len(base_walls) + len(walls)
        lines.append(f"in-process invocations: {len(walls)} plain and {len(walls)} traced, "
                     f"alternating; {len(tracer.names)} spans")
    else:
        walls, scales, rss, failures, setup_walls = untraced(runner, plan, golden, args.seconds)
        rates = [plan.results / w for w in walls]
        raw_rates = [r * k for r, k in zip(rates, scales)]
        metrics = {
            "results_per_s": statistics.median(rates),
            "setup_s": statistics.median(setup_walls),
            "peak_rss_mb": statistics.median(rss),
            # an observed gap, the worse middle one for an even count:
            # the mean of the two middle gaps jumps with which of them converged
            "objective_gap_digits": -math.log10(statistics.median_high(gaps)),
        }
        attempted = 1 + len(walls)
        # with fewer than ~2 * TAIL_BEYOND invocations the tail sits at or
        # below the median, and its percentile moves with the sample count,
        # so it is reported here and not as a bounded metric
        n = len(rates)
        level = 100 * (n - TAIL_BEYOND) // n if n > TAIL_BEYOND else 100
        lines.append(f"timed invocations: {n} (+1 checked in full); results_per_s "
                     f"median {metrics['results_per_s']:.4g}, tail {tail(rates):.4g} "
                     f"(p{level} of invocation time, the highest with {TAIL_BEYOND} beyond)")
        lines.append(f"machine speed: reference process at {statistics.median(scales):.3f} "
                     f"of its reference speed (median); unscaled results_per_s median "
                     f"{statistics.median(raw_rates):.4g}")
    for f in failures[:5]:
        lines.append(f"FAILED invocation: {f}")
    return attempted, len(failures), metrics


UNITS = {
    "results_per_s": "1/s", "setup_s": "s",
    "peak_rss_mb": "MB", "objective_gap_digits": "digits",
    "trace.overhead": "ratio", "ops_failed": "count", "objective_gap_worst": "ratio",
}


def unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".flops"):
        return "flop"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "casokit", "cli.py")):
        print(f"error: no casokit sources under {SRC}", file=sys.stderr)
        return 2

    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    lines = []
    try:
        attempted, failed, metrics = measure(args, work, lines)
        correct = failed == 0
    except checks.CheckError as e:
        print("\n".join(lines + [f"FAILED output check: {e}"]))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
