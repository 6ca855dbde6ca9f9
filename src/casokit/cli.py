"""Command line front end.

Subcommands cover the full workflow: train a small network on synthetic
blobs or a CSV dataset, run any interpretation method over samples,
sweep the sparsity weight, and reproduce the simulation studies.

Artifacts are deterministic: the same invocation with the same seed
produces bitwise-identical files. Each run records its provenance (the
resolved configuration plus the package version, never a timestamp)
once: in the first line of its CSV artifact, in sweep.json or in the
model's metadata. Output lands in --out, falling back to the
CASOKIT_OUT_DIR environment variable, then the working directory; a run
that fails leaves it unchanged, and removes the directories it created for
it.

Exit codes: 0 on success, 1 on a runtime failure (bad file contents,
infeasible configuration), 2 on a usage error including nonexistent
input paths.
"""

from __future__ import annotations

import gc

# The collector pauses across the imports: numpy and casokit's modules
# allocate tens of thousands of long-lived objects here, and the 30-odd
# collections they would trigger free only a few hundred. The freeze then
# moves that heap out of every later collection, the interpreter's
# shutdown collections included. A bare `import casokit` does neither: the
# freeze is the command line program's policy, not the library's.
_collecting = gc.isenabled()
gc.disable()
try:
    import argparse
    import contextlib
    import json
    import math
    import os
    import sys
    import tempfile

    import numpy as np

    from . import __version__ as VERSION
    from .interpret import (
        DEFAULT_IG_STEPS,
        DEFAULT_LAMBDA1_GRID,
        DEFAULT_SMOOTH_N,
        DEFAULT_SMOOTH_SIGMA,
        METHODS,
        NOISE_METHODS,
        SPARSE_METHODS,
        MethodRequest,
        chunk_results,
        lambda1_sweep,
    )
    from .netcore import LayerSpec, NetworkSpec, TrainConfig, init_network, make_blobs, train_sgd
    from .saliency_io import (
        dataset_load,
        dataset_load_raw,
        dataset_save_csv,
        model_load,
        model_save,
        normalize_for_display,
        write_csv_rows,
        write_f64_tensor,
        write_pgm,
    )
    from .solver import DEFAULT_C1
finally:
    gc.freeze()
    if _collecting:
        gc.enable()

SWEEP_METHODS = tuple(SPARSE_METHODS)
# analysis.SIM_MODES, spelled out so that building the parser does not
# import the study module; a test keeps the two equal
SIM_MODES = ("vary-classes", "vary-eps", "grid")


def existing_file(text):
    if not os.path.isfile(text):
        raise argparse.ArgumentTypeError(f"no such file: {text}")
    return text


def file_name(text):
    """A name for a file in --out, with no directory part."""
    if text in ("", ".", "..") or os.sep in text or (os.altsep and os.altsep in text):
        raise argparse.ArgumentTypeError(f"not a plain file name: {text!r}")
    return text


def int_list(text):
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty integer list: {text!r}")
    return values


def sample_count(text):
    """An integer of at least 2, the fewest samples a rank correlation needs."""
    n = int(text)  # argparse reports a ValueError as an invalid value
    if n < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 samples, got {n}")
    return n


def float_list(text):
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad float list: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty float list: {text!r}")
    return values


def grid_spec(text):
    """Comma floats, or a range 'lo:hi:log[:n]' / 'lo:hi:lin[:n]' (n defaults
    to 10)."""
    if ":" not in text:
        return float_list(text)
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(f"bad range spec: {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        n = int(parts[3]) if len(parts) == 4 else 10
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range spec: {text!r}") from None
    if n < 2:
        raise argparse.ArgumentTypeError("range needs at least 2 points")
    if parts[2] == "log":
        if lo <= 0 or hi <= 0:
            raise argparse.ArgumentTypeError("log range endpoints must be positive")
        values = np.geomspace(lo, hi, n)
    elif parts[2] == "lin":
        values = np.linspace(lo, hi, n)
    else:
        raise argparse.ArgumentTypeError(f"range kind must be log or lin: {text!r}")
    return tuple(float(v) for v in values)


def int_grid_spec(text):
    """Comma ints, or a 'lo:hi:log[:n]' range rounded to unique integers."""
    if ":" not in text:
        return int_list(text)
    values = grid_spec(text)
    out = []
    for v in values:
        iv = int(round(v))
        if not out or iv != out[-1]:
            out.append(iv)
    return tuple(out)


# arguments that change where a run reads or writes, but never what it
# computes; excluded so artifact bytes do not depend on them
_EXECUTION_ONLY = ("func", "command", "out", "config")


def _provenance(args):
    doc = {"command": args.command, "version": VERSION}
    for key, value in vars(args).items():
        if key in _EXECUTION_ONLY:
            continue
        doc[key] = list(value) if isinstance(value, tuple) else value
    return doc


def _write_json(path, doc):
    """Write doc, json.dumps(indent=1, sort_keys=True), and a newline."""
    with open(path, "wb") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True).encode() + b"\n")


def _load_data(args):
    if getattr(args, "labels", None) is not None:
        return dataset_load_raw(args.data, args.labels)
    return dataset_load(args.data)


def _geometry(args, dim):
    """Resolve (width, height) for display, inferring a square image when
    neither is given."""
    ch = args.channels
    if ch < 1:
        raise ValueError("channels must be >= 1")
    if dim % ch:
        raise ValueError(f"input dim {dim} is not divisible by {ch} channels")
    pixels = dim // ch
    w, h = args.width, args.height
    if any(v is not None and v < 1 for v in (w, h)):
        raise ValueError("width and height must be >= 1")
    if w is None and h is None:
        side = math.isqrt(pixels)
        if side * side != pixels:
            raise ValueError(
                f"{pixels} pixels is not square; pass --width and --height"
            )
        return side, side
    if w is None:
        w = pixels // h
    if h is None:
        h = pixels // w
    if w * h != pixels:
        raise ValueError(f"{w}x{h} does not cover {pixels} pixels")
    return w, h


def _result_summary(res):
    doc = {
        "method": res.method,
        "lambda1": res.lam1,
        "lambda2": res.lam2,
        "eta": res.eta,
        "p_max": res.p_max,
        "loss_gain": res.loss_gain,
        "raw_loss_delta": res.raw_loss_delta,
    }
    if res.solve is not None:
        doc.update(solver=res.solve.solver, solver_steps=res.solve.steps,
                   kkt_residual=res.solve.kkt_residual)
    return doc


def cmd_train(args, out, stage):
    if args.data is not None:
        dataset = dataset_load(args.data)
        classes = int(dataset.labels.max()) + 1
        dim = dataset.dim
    else:
        dataset = make_blobs(
            classes=args.classes,
            dim=args.dim,
            n_per_class=args.n_per_class,
            center_scale=args.center_scale,
            noise=args.noise,
            seed=args.seed,
        )
        classes, dim = args.classes, args.dim
    layers = []
    prev = dim
    for width in args.hidden:
        layers.append(LayerSpec(prev, width, args.activation))
        prev = width
    layers.append(LayerSpec(prev, classes, "identity"))
    net = init_network(NetworkSpec(tuple(layers)), seed=args.seed)
    result = train_sgd(
        net,
        dataset,
        TrainConfig(learning_rate=args.lr, epochs=args.epochs, seed=args.seed),
    )
    model_save(result.network, os.path.join(stage, args.model_name),
               metadata=_provenance(args))
    if args.save_data:
        dataset_save_csv(dataset, os.path.join(stage, "data.csv"))
    return f"accuracy={result.accuracy:.6f}\nmodel={os.path.join(out, args.model_name)}\n"


def _write_map(stage, stem, comment, delta, image):
    """Write one map's .pgm (its display pixels) and .delta.f64 into stage."""
    write_pgm(image, os.path.join(stage, f"{stem}.pgm"), comment=comment)
    write_f64_tensor(os.path.join(stage, f"{stem}.delta.f64"), delta)


def cmd_interpret(args, out, stage):
    # imported here, not with the module: only interpret runs a thread, and
    # queue would cost every process about 1.4 ms of start-up
    import queue
    import threading

    net = model_load(args.model)
    dataset = _load_data(args)
    indices = args.samples
    samples = [dataset.sample(i) for i in indices]
    w, h = _geometry(args, dataset.dim)
    # only noise draws read a seed; the others skip importing numpy.random
    if args.method in NOISE_METHODS:
        seeds = [int(child.generate_state(1, dtype=np.uint64)[0])
                 for child in np.random.SeedSequence(args.seed).spawn(len(indices))]
    else:
        seeds = [0] * len(indices)
    requests = [
        MethodRequest(
            method=args.method,
            sample=sample,
            lam1=args.lambda1,
            c1=args.c1,
            smooth_n=args.smooth_n,
            smooth_sigma=args.smooth_sigma,
            ig_steps=args.ig_steps,
            seed=seed,
            channels=args.channels,
        )
        for sample, seed in zip(samples, seeds)
    ]

    # one writer thread writes each chunk's artifacts while the next chunk
    # computes
    jobs = queue.SimpleQueue()
    failed = []
    results = []

    def write_samples():
        try:
            while (job := jobs.get()) is not None:
                idx, res, image = job
                _write_map(stage, f"sample{idx}", f"casokit {res.method} sample {idx}",
                           res.delta, image)
                _write_json(os.path.join(stage, f"sample{idx}.json"),
                            {**_result_summary(res), "sample_id": idx})
        except Exception as e:  # raised again on the main thread after the join
            failed.append(e)

    writer = threading.Thread(target=write_samples, name="casokit-writer")
    writer.start()
    try:
        for chunk in chunk_results(net, requests):
            # the display cap is per map, so a chunk's stack renders each
            # map as the whole run's stack would
            images = normalize_for_display(np.stack([res.delta for res in chunk]),
                                           w, h, args.channels)
            for res, image in zip(chunk, images):
                jobs.put((indices[len(results)], res, image))
                results.append(res)
            if failed:
                break
    finally:
        jobs.put(None)
        writer.join()
    if failed:
        raise failed[0]
    write_csv_rows(
        os.path.join(stage, "metrics.csv"),
        ("sample_id", "method", "lambda1", "lambda2", "eta", "loss_gain", "p_max"),
        [(idx, res.method, res.lam1, res.lam2, res.eta, res.loss_gain, res.p_max)
         for idx, res in zip(indices, results)],
        provenance=_provenance(args),
    )
    return "".join(f"sample {idx}: eta={res.eta:.4f} p_max={res.p_max:.4f}\n"
                   for idx, res in zip(indices, results))


def cmd_sweep(args, out, stage):
    net = model_load(args.model)
    dataset = _load_data(args)
    sample = dataset.sample(args.sample)
    w, h = _geometry(args, dataset.dim)
    outcome = lambda1_sweep(
        sample,
        net,
        method=args.method,
        grid=args.grid,
        eta_range=(args.eta_min, args.eta_max),
        max_refinements=args.max_refinements,
        channels=args.channels,
        c1=args.c1,
        n=args.smooth_n,
        sigma=args.smooth_sigma,
        seed=args.seed,
    )
    selected = outcome.selected
    doc = {
        "grid": list(outcome.grid),
        "eta_range": list(outcome.eta_range),
        "candidates": [_result_summary(r) for r in outcome.results],
        "refinements": [_result_summary(r) for r in outcome.refinements],
        "selected_index": outcome.selected_index,
        "selected": _result_summary(selected),
        "target_met": outcome.target_met,
        "provenance": _provenance(args),
    }
    _write_json(os.path.join(stage, "sweep.json"), doc)
    _write_map(stage, "selected", f"casokit {args.method} lam1 {selected.lam1!r}",
               selected.delta, normalize_for_display(selected.delta[None], w, h, args.channels)[0])
    return (f"selected lambda1={selected.lam1!r} eta={selected.eta:.4f} "
            f"target_met={outcome.target_met}\n")


def cmd_rank1_sim(args, out, stage):
    from .analysis import RankOneSimConfig, simulate_rank_one

    cfg = RankOneSimConfig(
        mode=args.mode,
        d=args.d,
        seed=args.seed,
        p0=args.p0,
        classes=args.classes or (),
        eps_values=args.eps or (),
        c=args.c,
    )
    points = simulate_rank_one(cfg)
    write_csv_rows(
        os.path.join(stage, "rank1.csv"),
        ("c", "eps", "rel_error"),
        [(pt.c, pt.eps, pt.rel_error) for pt in points],
        provenance=_provenance(args),
    )
    return f"wrote {len(points)} points to {os.path.join(out, 'rank1.csv')}\n"


def cmd_gap_study(args, out, stage):
    from .analysis import confidence_gap_study, spearman_rho

    net = model_load(args.model)
    dataset = _load_data(args)
    n = dataset.n if args.n_samples is None else args.n_samples
    points = confidence_gap_study(net, dataset, n, c1=args.c1)
    rho = spearman_rho([pt.p_max for pt in points], [pt.gap for pt in points])
    write_csv_rows(
        os.path.join(stage, "gap.csv"),
        ("sample_id", "p_max", "gap"),
        [(pt.sample_id, pt.p_max, pt.gap) for pt in points],
        provenance=_provenance(args),
    )
    return (f"spearman_rho={rho!r}\n"
            f"wrote {len(points)} points to {os.path.join(out, 'gap.csv')}\n")


def cmd_alignment(args, out, stage):
    from .analysis import alignment_curve

    points = alignment_curve(d=args.d, classes=args.classes, eps=args.eps, seed=args.seed)
    write_csv_rows(
        os.path.join(stage, "alignment.csv"),
        ("c", "cosine", "mass_ratio"),
        [(pt.c, pt.cosine, pt.mass_ratio) for pt in points],
        provenance=_provenance(args),
    )
    return "".join(f"c={pt.c} cosine={pt.cosine:.6f} mass_ratio={pt.mass_ratio:.6f}\n"
                   for pt in points)


def cmd_oracle_check(args, out, stage):
    from .analysis import (
        ORACLE_MAX_D,
        OracleConfig,
        brute_force_group_feature,
        l1_path,
        make_planted_instance,
    )

    # before the d x d instance is built
    if args.d > ORACLE_MAX_D:
        raise ValueError(f"d = {args.d} exceeds the d <= {ORACLE_MAX_D} enumeration limit")
    g, H, lam2, support = make_planted_instance(
        d=args.d, support=args.support, seed=args.seed
    )
    k = args.k if args.k is not None else len(support)
    oracle = brute_force_group_feature(g, H, lam2, OracleConfig(k=k))
    path = l1_path(g, H, lam2)
    # piece i spans [lam1[i], tops[i]]; above lam1[0] = max|g| the map is 0
    tops, supports = (np.inf, *path.lam1[:-1]), ((), *path.supports)
    on = [i for i, s in enumerate(supports) if s == oracle.support]
    lo, hi = (float(path.lam1[on[-1]]), float(tops[on[0]])) if on else (None, None)  # hull
    found = ";".join(str(i) for i in oracle.support)
    write_csv_rows(
        os.path.join(stage, "oracle.csv"),
        ("support", "value", "l1_match", "lambda1_lo", "lambda1_hi"),
        [(found, oracle.value, int(bool(on)), lo, hi)],
        provenance=_provenance(args),
    )
    span = f" lambda1=[{lo!r}, {hi!r}]" if on else ""
    return f"oracle support={found} value={oracle.value!r} l1_match={bool(on)}{span}\n"


def _add_common(sp):
    sp.add_argument("--config", help="JSON file of default values for any flag")
    sp.add_argument("--out", help="output directory (default: $CASOKIT_OUT_DIR or .)")
    sp.add_argument("--seed", type=int, default=0, help="seed for every random draw")


def _add_model_data(sp):
    sp.add_argument("--model", type=existing_file, required=True, help="model JSON")
    sp.add_argument("--data", type=existing_file, required=True,
                    help="dataset CSV, or raw f32 tensor when --labels is given")
    sp.add_argument("--labels", type=existing_file,
                    help="sidecar label file for a raw tensor dataset")


def _add_geometry(sp):
    sp.add_argument("--width", type=int, help="image width (default: infer square)")
    sp.add_argument("--height", type=int, help="image height (default: infer square)")
    sp.add_argument("--channels", type=int, default=1,
                    help="channels per pixel for sparsity and display")


def _add_method_knobs(sp):
    sp.add_argument("--lambda1", type=float, default=0.0, help="sparsity weight")
    sp.add_argument("--c1", type=float, default=DEFAULT_C1,
                    help="additive trust constant in lambda2")
    sp.add_argument("--smooth-n", type=int, default=DEFAULT_SMOOTH_N,
                    help="noise samples for smooth variants")
    sp.add_argument("--smooth-sigma", type=float, default=DEFAULT_SMOOTH_SIGMA,
                    help="noise level as a fraction of the input range")
    sp.add_argument("--ig-steps", type=int, default=DEFAULT_IG_STEPS,
                    help="integration steps for integrated gradients")


def build_parser():
    root = argparse.ArgumentParser(
        prog="casokit",
        description="Curvature-aware saliency maps for small classifiers.",
    )
    root.add_argument("--config", help="JSON file of default values for any flag")
    root.add_argument("--version", action="version", version=f"casokit {VERSION}")
    sub = root.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("train", help="train a small classifier on blobs or a CSV")
    _add_common(sp)
    sp.add_argument("--data", type=existing_file,
                    help="train on this CSV instead of synthetic blobs")
    sp.add_argument("--classes", type=int, default=10, help="blob class count")
    sp.add_argument("--dim", type=int, default=16, help="blob input dimension")
    sp.add_argument("--n-per-class", type=int, default=20, help="blob samples per class")
    sp.add_argument("--center-scale", type=float, default=2.0, help="blob center spread")
    sp.add_argument("--noise", type=float, default=1.0, help="blob noise level")
    sp.add_argument("--hidden", type=int_list, default=(32,),
                    help="comma list of hidden layer widths")
    sp.add_argument("--activation", choices=("relu", "sigmoid"), default="relu")
    sp.add_argument("--lr", type=float, default=0.1, help="SGD learning rate")
    sp.add_argument("--epochs", type=int, default=10)
    sp.add_argument("--model-name", type=file_name, default="model.json",
                    help="output model file name, without a directory")
    sp.add_argument("--save-data", action="store_true",
                    help="also write the training data as data.csv")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("interpret", help="saliency maps for dataset samples")
    _add_common(sp)
    _add_model_data(sp)
    _add_geometry(sp)
    _add_method_knobs(sp)
    sp.add_argument("--method", choices=METHODS, default="cafo")
    sp.add_argument("--samples", type=int_list, default=(0,),
                    help="comma list of sample indices")
    sp.set_defaults(func=cmd_interpret)

    sp = sub.add_parser("sweep", help="sweep lambda1 and pick the sparsest useful map")
    _add_common(sp)
    _add_model_data(sp)
    _add_geometry(sp)
    _add_method_knobs(sp)
    sp.add_argument("--method", choices=SWEEP_METHODS, default="cafo")
    sp.add_argument("--sample", type=int, default=0, help="sample index")
    sp.add_argument("--grid", type=grid_spec, default=DEFAULT_LAMBDA1_GRID,
                    help="lambda1 grid: comma list or lo:hi:log[:n]")
    sp.add_argument("--eta-min", type=float, default=0.75, help="target sparsity floor")
    sp.add_argument("--eta-max", type=float, default=1.0,
                    help="sparsity ceiling (exclusive)")
    sp.add_argument("--max-refinements", type=int, default=20,
                    help="halving steps when the grid misses the target")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("rank1-sim", help="rank-one surrogate error simulation")
    _add_common(sp)
    sp.add_argument("--mode", choices=SIM_MODES, default="vary-classes")
    sp.add_argument("--d", type=int, default=512, help="input dimension")
    sp.add_argument("--p0", type=float, help="top-class probability (vary-classes)")
    sp.add_argument("--classes", type=int_grid_spec,
                    help="class counts: comma list or lo:hi:log[:n]")
    sp.add_argument("--eps", type=grid_spec,
                    help="runner-up probabilities: comma list or lo:hi:log[:n]")
    sp.add_argument("--c", type=int, help="class count (vary-eps)")
    sp.set_defaults(func=cmd_rank1_sim)

    sp = sub.add_parser("gap-study", help="confidence versus method gap, any net")
    _add_common(sp)
    _add_model_data(sp)
    sp.add_argument("--n-samples", type=sample_count, help="cap on samples, >= 2 (default: all)")
    sp.add_argument("--c1", type=float, default=DEFAULT_C1)
    sp.set_defaults(func=cmd_gap_study)

    sp = sub.add_parser("alignment", help="gradient alignment across class counts")
    _add_common(sp)
    sp.add_argument("--d", type=int, default=512, help="input dimension")
    sp.add_argument("--classes", type=int_grid_spec, default=(10, 100, 1000),
                    help="class counts: comma list or lo:hi:log[:n]")
    sp.add_argument("--eps", type=float, default=1e-6, help="runner-up probability")
    sp.set_defaults(func=cmd_alignment)

    sp = sub.add_parser("oracle-check", help="exhaustive oracle versus the exact L1 path")
    _add_common(sp)
    # analysis.ORACLE_MAX_D, spelled out as SIM_MODES is; a test keeps them equal
    sp.add_argument("--d", type=int, default=12, help="instance dimension (<= 14)")
    sp.add_argument("--k", type=int, help="oracle support size (default: planted size)")
    sp.add_argument("--support", type=int_list, default=(2, 5, 9),
                    help="planted support indices")
    sp.set_defaults(func=cmd_oracle_check)

    return root, sub.choices


# flag types that read a comma list, which a config file gives as a JSON list
_LIST_TYPES = (int_list, float_list, grid_spec, int_grid_spec)


def _config_value(action, value):
    """A config file's value for a flag, taken as a command line gives it:
    true or false for an on/off flag, else text (a string as it is, a
    number as JSON writes it, a list flag's JSON list joined by commas)
    through the flag's type and choices. Any other value, or one the flag
    refuses, is a ValueError."""
    if action.nargs == 0 and isinstance(value, bool):
        return value
    listed = action.type in _LIST_TYPES
    items = value if listed and isinstance(value, list) else [value]
    if action.nargs == 0 or not all(type(v) in (str, int, float) for v in items) or (
            listed and type(value) in (int, float)):
        kind = ("true or false" if action.nargs == 0 else
                "a JSON list or comma text" if listed else "a JSON number or string")
        raise ValueError(f"expected {kind}, not {json.dumps(value)}")
    text = ",".join(v if type(v) is str else json.dumps(v) for v in items)
    try:
        result = text if action.type is None else action.type(text)
    except argparse.ArgumentTypeError as e:
        raise ValueError(str(e)) from None
    except (TypeError, ValueError):
        raise ValueError(f"invalid {action.type.__name__} value: {text!r}") from None
    if action.choices is not None and result not in action.choices:
        raise ValueError(f"invalid choice: {result!r} (choose from {', '.join(action.choices)})")
    return result


def _apply_config(argv, root, parsers, command):
    """Set the entries of argv's --config JSON file, if any, as defaults of
    the command's parser, each value checked by _config_value (explicit
    flags still win), and return whether there was a file. A file that
    cannot be read or is no JSON object, or a key the command does not
    define, is a usage error, so no entry is silently dropped."""
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if known.config is None:
        return False
    if not os.path.isfile(known.config):
        root.error(f"no such config file: {known.config}")
    try:
        with open(known.config, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        root.error(f"cannot read config file {known.config}: {e.strerror}")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        root.error(f"config file {known.config} is not UTF-8 text (byte {e.start})")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        root.error(f"invalid config JSON at line {e.lineno}: {e.msg}")
    except RecursionError:
        root.error(f"config file {known.config} nests too deeply")
    if not isinstance(doc, dict):
        root.error("config must be a JSON object of flag defaults")
    sp = parsers[command]
    for key, value in doc.items():
        dest = key.replace("-", "_")
        # the command's own option first; --help's dest is no option to set
        found = [a for p in (sp, *parsers.values()) for a in p._actions
                 if a.dest == dest and a.default != argparse.SUPPRESS]
        if not found:
            root.error(f"unknown config key: {key}")
        if found[0] not in sp._actions:
            root.error(f"config key {key} is not an option of {command}")
        try:
            sp.set_defaults(**{dest: _config_value(found[0], value)})
        except ValueError as e:
            root.error(f"config key {key}: {e}")
    return True


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    root, parsers = build_parser()
    args = root.parse_args(argv)
    if _apply_config(argv, root, parsers, args.command):
        args = root.parse_args(argv)
    if args.command == "interpret" and len(set(args.samples)) < len(args.samples):
        # each index's map lands in sample<index>.*, so a repeat would be lost
        dup = next(i for n, i in enumerate(args.samples) if i in args.samples[:n])
        root.error(f"argument --samples: sample index {dup} is repeated")
    if args.command == "train" and args.save_data and args.model_name == "data.csv":
        root.error("argument --model-name: data.csv is the name --save-data writes")
    # The command writes its artifacts into a staging directory inside out,
    # and they are renamed into place only once every one is written, so a
    # run that fails leaves out as it found it; stdout comes last.
    out = args.out or os.environ.get("CASOKIT_OUT_DIR") or "."
    created = []  # the directories of out that this run makes, deepest first
    missing = os.path.abspath(out)
    while not os.path.lexists(missing):
        created.append(missing)
        missing = os.path.dirname(missing)
    try:
        os.makedirs(out, exist_ok=True)
        stage = tempfile.mkdtemp(prefix=".casokit-", dir=out)
        try:
            text = args.func(args, out, stage)
            names = os.listdir(stage)
            # checked before the first rename: a directory would stop them part-way
            for name in names:
                if os.path.isdir(os.path.join(out, name)):
                    raise IsADirectoryError(f"{os.path.join(out, name)} is a directory")
            for name in names:
                os.replace(os.path.join(stage, name), os.path.join(out, name))
        finally:
            for name in os.listdir(stage):  # none left unless the run failed
                os.unlink(os.path.join(stage, name))
            os.rmdir(stage)
    except (ValueError, OSError, np.linalg.LinAlgError) as e:
        for path in created:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        print(f"error: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


def entry():
    """The console script's and `python -m casokit`'s entry point: main(),
    then gc.freeze(), however main ends, so that the interpreter's shutdown
    collections also skip the objects main left tracked (importing this
    module froze the ones before it). main itself never freezes: a caller
    that runs it in-process again and again would keep every later cycle's
    garbage."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(entry())
