"""casokit: curvature-aware saliency maps for small classifiers.

The package computes input-space perturbations that maximize a local
second-order model of the loss, with an L1 term for sparsity and an L2
trust region. Each sample gets one local model (g, F, C, lam2, base): the
gradient, the closed-form Hessian H = F C F^T, lam2 = lambda_max/2 + c1
and the Woodbury base (2 lam2 I - F^T F C)^{-1}; CAFO (H = 0) and CASO
solve it exactly. Gradient, SmoothGrad and integrated-gradients baselines,
FISTA (a proximal-gradient reference solver), a rank-one analysis, an L0
oracle study, and a deterministic CLI round it out.
"""

__version__ = "0.1.0"

import importlib as _importlib
import os as _os

# One BLAS thread unless the environment says otherwise, set before numpy
# loads: a second thread changes the summation order inside the larger
# products, and with it the last bits of the artifacts, and on this
# package's matrix sizes it slows the CLI down. Only a numpy not yet
# imported reads these variables.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

# Every public name by its home submodule. Importing the package loads no
# submodule (and so not numpy): a name loads its home on first access.
_EXPORTS = {
    "analysis": (
        "AlignmentPoint",
        "GapPoint",
        "L1Path",
        "OracleResult",
        "RankOnePoint",
        "alignment_curve",
        "brute_force_group_feature",
        "confidence_gap_study",
        "l1_path",
        "make_planted_instance",
        "simulate_rank_one",
        "spearman_rho",
    ),
    "errors": (
        "DimensionError",
        "FormatError",
        "FrozenInstanceError",
        "KinkWarning",
        "NonFiniteError",
    ),
    "hessian": (
        "HessianHandle",
        "hessian_eig",
        "hvp_closed_form",
        "hvp_finite_diff",
        "largest_eigenvalue",
        "rel_error",
        "softmax_curvature",
        "softmax_factor",
    ),
    "interpret": (
        "DEFAULT_LAMBDA1_GRID",
        "METHODS",
        "CurvatureModel",
        "MethodRequest",
        "SaliencyResult",
        "SweepOutcome",
        "cafo",
        "caso",
        "curvature_models",
        "integrated_gradients",
        "lambda1_sweep",
        "run_request",
        "smooth_cafo",
        "smooth_caso",
        "smoothgrad",
        "sparse_models",
        "sparsity_ratio",
        "vanilla_gradient",
    ),
    "netcore": (
        "BatchTrace",
        "Dataset",
        "ForwardTrace",
        "LayerSpec",
        "LocalLinearization",
        "Network",
        "NetworkSpec",
        "Sample",
        "TrainResult",
        "backprop_batch",
        "forward",
        "forward_batch",
        "init_network",
        "input_gradient",
        "local_linearization",
        "logit_gradient",
        "make_blobs",
        "sample_kink_safe",
        "train_sgd",
    ),
    "saliency_io": (
        "dataset_load",
        "dataset_save_csv",
        "model_load",
        "model_save",
        "normalize_for_display",
        "write_csv_rows",
        "write_f64_tensor",
        "write_pgm",
    ),
    "solver": (
        "ObjectiveSpec",
        "SolveResult",
        "SolverConfig",
        "closed_form_cafo",
        "closed_form_caso",
        "fista_solve",
        "prox_soft_threshold",
        "select_lambda2",
        "smooth_gradient",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset((*_EXPORTS, "cli"))

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _HOME:
        value = getattr(_importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
