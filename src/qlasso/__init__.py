"""Recovery of structured signals from dithered quantized measurements."""

from .ensemble import (
    LowRank,
    SignalSpec,
    Sparse,
    gen_lowrank_signal,
    gen_signal,
    gen_sparse_signal,
    sample_measurements,
)
from .experiment import (
    ErrorCurve,
    ExperimentConfig,
    MomentReport,
    RateFit,
    block_size,
    fit_rate,
    onebit_dither_range,
    onebit_moment_check,
    run_curve,
    run_trial,
)
from .geometry import (
    estimate_smallball_inf,
    gw_bound_lowrank,
    gw_bound_sparse,
    project_l1_ball,
    project_l1_rows,
    project_nuclear_ball,
    project_nuclear_rows,
    sample_descent_directions,
)
from .quantizer import (
    OneBitQuantizer,
    UniformQuantizer,
    dither_mean_residual,
    measure,
    one_bit_mean_formula,
    one_bit_quantize,
    quantization_noise,
    sample_dither,
    uniform_quantize,
)
from .solver import (
    SolverResult,
    dm_estimate,
    estimate_lipschitz,
    glasso_solve,
    gram_stats,
    inverse_lipschitz_step,
    pbp_estimate,
    pgd_rows,
)
from .streams import substream

__version__ = "0.1.0"
