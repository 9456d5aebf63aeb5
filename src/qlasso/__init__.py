"""Recovery of structured signals from dithered quantized measurements.

Each public name loads its module on first use, so `import qlasso` loads no
numpy and `qlasso.cli` can pin BLAS to one thread before numpy loads.
"""

import importlib

# the public names, by the module that defines them
_EXPORTS = {
    "ensemble": (
        "LowRank",
        "Sparse",
        "gen_signal",
        "sample_measurements",
    ),
    "experiment": (
        "ErrorCurve",
        "ExperimentConfig",
        "RateFit",
        "block_size",
        "fit_rate",
        "onebit_dither_range",
        "run_curve",
        "run_trial",
    ),
    "geometry": (
        "project_l1_ball",
        "project_l1_rows",
        "project_nuclear_ball",
        "project_nuclear_rows",
    ),
    "quantizer": (
        "OneBitQuantizer",
        "UniformQuantizer",
        "measure",
    ),
    "solver": (
        "SolverResult",
        "dm_estimate",
        "estimate_lipschitz",
        "glasso_solve",
        "gram_stats",
        "pbp_estimate",
        "pgd_rows",
    ),
    "streams": (
        "substream",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    # looked up afresh on every access, so a rebinding of the module attribute shows here too
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


__version__ = "0.1.0"
