"""Monte Carlo harness: error curves over m, rate fitting, and verification
of the Gaussian one-bit moment formulas.

Trial substreams are keyed by (master_seed, m, trial_id) plus a purpose tag,
never by estimator or by the quantizer resolution, so different estimators
and different resolutions see identical (x0, A, dither-uniforms) and paired
comparisons are valid.
"""

import math
import threading
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .ensemble import ENSEMBLES, LowRank, SignalSpec, Sparse, gen_signal, sample_measurements
from .geometry import project_l1_rows, project_nuclear_rows
from .quantizer import OneBitQuantizer, UniformQuantizer, measure, sample_dither
from .solver import MAX_ITERS, pgd_rows
from .streams import substream

ESTIMATORS = ("glasso", "pbp", "dm")


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    structure: Union[Sparse, LowRank]
    norm_target: float
    R: float
    ensemble: str  # "gaussian" | "rademacher"
    quantizer: str  # "uniform" | "one_bit"
    delta: Optional[float]  # cell width of the uniform quantizer, None for one-bit
    m_grid: Tuple[int, ...]
    trials: int
    master_seed: int
    estimators: Tuple[str, ...] = ("glasso",)

    def __post_init__(self):
        if not (math.isfinite(self.R) and self.norm_target <= self.R):
            raise ValueError(f"R must be a finite bound on the signal norm {self.norm_target}, got {self.R}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        SignalSpec(self.n, self.structure, self.norm_target)  # validates n, structure and norm
        if list(self.m_grid) != sorted(set(self.m_grid)):
            raise ValueError("m_grid must be strictly increasing")
        if self.quantizer not in ("uniform", "one_bit"):
            raise ValueError(f"unknown quantizer {self.quantizer!r}")
        # one-bit needs ln m > 0 for its dither range T = R sqrt(ln m)
        m_min = 2 if self.quantizer == "one_bit" else 1
        if not self.m_grid or self.m_grid[0] < m_min:
            raise ValueError(f"m_grid must be nonempty with every m >= {m_min}, got {self.m_grid}")
        if self.quantizer == "uniform" and not (self.delta and 0 < self.delta < math.inf):
            raise ValueError("uniform quantizer needs a finite delta > 0")
        if self.quantizer == "one_bit" and self.delta is not None:
            raise ValueError("the one-bit quantizer has no delta; its dither range is R sqrt(ln m)")
        _check_estimators(self.estimators)
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble kind {self.ensemble!r}")


@dataclass(frozen=True)
class ErrorCurve:
    estimator: str
    m_grid: Tuple[int, ...]
    mean_err: np.ndarray
    std_err: np.ndarray
    trials: int
    master_seed: int
    errors: Optional[np.ndarray] = None  # (len(m_grid), trials) raw errors
    iterations: Optional[np.ndarray] = None  # (len(m_grid), trials) FISTA iterations of pgd_rows, 0 for pbp/dm
    converged: Optional[np.ndarray] = None  # (len(m_grid), trials) False where max_iters was hit


@dataclass(frozen=True)
class RateFit:
    model: str  # "inv_sqrt_m" | "sqrtlog_m_over_sqrt_m"
    coefficient: float
    loglog_slope: float
    residual_rms: float


def onebit_dither_range(R: float, m: int) -> float:
    """Dither range rule T = R * sqrt(ln m) (also used as mu)."""
    return R * math.sqrt(math.log(m))


def _channel(cfg: ExperimentConfig, m: int):
    """(quantizer, mu) of the measurement channel at m."""
    if cfg.quantizer == "uniform":
        return UniformQuantizer(cfg.delta), 1.0
    T = onebit_dither_range(cfg.R, m)
    return OneBitQuantizer(T), T


def block_size(n: int) -> int:
    """Trials per block: the block's stack of n x n Gram matrices fits in 1 MiB."""
    return max(1, 2**20 // (8 * n * n))


# float64 entries (1 MiB) of the row panels a trial's matrix is drawn in
PANEL_ENTRIES = 2**17


def panel_rows(n: int) -> int:
    """Rows of the panels a trial's m x n matrix is drawn in, whatever m: PANEL_ENTRIES // n,
    rounded down to an even number (Rademacher draws read two signs a raw word), at least 2."""
    return max(2, PANEL_ENTRIES // n // 2 * 2)


# The draw panel, Gram stack and scratch Gram of the calling thread's blocks at
# one n, kept for every block and every m of a curve: allocated afresh per
# block, the heap handed their pages back to the OS and the next block faulted
# them in again.
_buffers = threading.local()


def _block_buffers(n: int):
    """The (panel_rows(n), n) panel, the (block_size(n), n, n) Gram stack and an (n, n) scratch of a block at n."""
    slot = getattr(_buffers, "slot", None)
    if slot is None or slot[0].shape != (panel_rows(n), n):
        _buffers.slot = None  # drop the old arrays before allocating those of the new n
        _buffers.slot = np.empty((panel_rows(n), n)), np.empty((block_size(n), n, n)), np.empty((n, n))
    return _buffers.slot


def _solve_block(cfg: ExperimentConfig, m: int, trials: range, estimators: Tuple[str, ...]) -> dict:
    """Errors, solver iterations and convergence flags of every estimator on a block of trials.

    Each trial's (x0, A, y) is drawn once from its (seed, m, trial, purpose)
    substreams and reduced at once to what every estimator needs: its Gram
    statistics (G, b) = gram_stats(A, y, mu), with A^T A written by the draw,
    and the radius of K, whose row projection the signal structure fixes. PBP
    and DM are both P_K(b); glasso runs stacked FISTA (pgd_rows) on the block,
    which finds each trial's step by backtracking, so no step is computed here.

    A is drawn in row panels into one (panel_rows(n), n) array, so no buffer
    grows with m. The panels read the substreams as one whole-matrix draw and
    one measure call would (the channel's dither has one fold), so A is
    bitwise the whole-matrix draw. So is y, unless a row's a_i^T x0 + tau lies
    within an ulp of a cell edge: BLAS may round a panel's A x0 in the last
    bit unlike the whole matrix's (OpenBLAS groups rows by four). Summed over
    panels in float64, G and b are bitwise gram_stats for +-1 entries with y
    on a grid that keeps the sums exact (one-bit y, a cell width of 3 or a
    power of two), and equal to rounding for Gaussian entries.
    Returns {estimator: (errors, iterations, converged)}, one entry per trial;
    the one-shot estimators report 0 iterations, converged.
    """
    k, n = len(trials), cfg.n
    spec = SignalSpec(n, cfg.structure, cfg.norm_target)
    q, mu = _channel(cfg, m)
    x0s = np.empty((k, n))
    b = np.empty((k, n))
    radii = np.empty(k)
    panel, G, scratch = _block_buffers(n)
    G = G[:k]
    for i, t in enumerate(trials):
        x0 = gen_signal(spec, substream(cfg.master_seed, m, t, "signal"))
        matrix_rng, dither_rng = (substream(cfg.master_seed, m, t, purpose) for purpose in ("matrix", "dither"))
        for start in range(0, m, len(panel)):
            A = panel[: m - start]
            sample_measurements(cfg.ensemble, len(A), n, matrix_rng, out=A, gram=scratch if start else G[i])
            y = measure(A, x0, q, dither_rng)
            if start:
                G[i] += scratch
                b[i] += A.T @ y
            else:
                np.matmul(A.T, y, out=b[i])
        G[i] /= m  # (G[i], b[i]) = gram_stats(A, y, mu), bitwise where the panel sums are exact
        b[i] *= mu / m
        x0s[i] = x0
        if isinstance(cfg.structure, Sparse):
            radii[i] = np.sum(np.abs(x0))
        else:
            d_side = cfg.structure.d
            radii[i] = np.linalg.norm(np.linalg.svd(x0.reshape(d_side, d_side), compute_uv=False), 1)
    project = project_l1_rows if isinstance(cfg.structure, Sparse) else project_nuclear_rows

    out = {}
    one_shot = [e for e in estimators if e in ("pbp", "dm")]
    if one_shot:
        err = np.linalg.norm(project(b, radii) - x0s, axis=1)
        for est in one_shot:
            out[est] = (err, np.zeros(k, dtype=int), np.ones(k, dtype=bool))
    if "glasso" in estimators:
        # the limit is read at call time, so setting experiment.MAX_ITERS bounds every solve of a curve
        X, iterations, converged = pgd_rows(G, b, radii, project, max_iters=MAX_ITERS)
        out["glasso"] = (np.linalg.norm(X - x0s, axis=1), iterations, converged)
    return out


def _map_blocks(tasks: list, jobs: int) -> list:
    """_solve_block of every task, in task order: here for one process, else in min(jobs, len(tasks)) workers.

    The workers are forked from this process, which solves no block and waits
    for their results (one process imports no pool module). So they run its
    modules and its BLAS setting and round as it does. Should a block raise,
    or a worker die, the tasks not yet started are cancelled and the error is
    raised here once the pool has shut down.
    """
    workers = min(jobs, len(tasks))
    if workers <= 1:
        try:
            return [_solve_block(*t) for t in tasks]
        finally:
            _buffers.slot = None
    # imported here so that a run in one process, and every other subcommand, does not load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # a fork pool forks its workers at the first submission, before it starts its manager thread
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_solve_block, *zip(*tasks)))


def _check_estimators(names) -> Tuple[str, ...]:
    names = (names,) if isinstance(names, str) else tuple(names)
    for est in names:
        if est not in ESTIMATORS:
            raise ValueError(f"unknown estimator {est!r}")
    if not names or len(set(names)) != len(names):
        raise ValueError(f"need one or more distinct estimators, got {list(names)}")
    return names


def run_trial(cfg: ExperimentConfig, m: int, trial_id: int, estimator: str) -> float:
    """One Monte Carlo trial: fresh (x0, A, dither), solve, return ||x_hat - x0||_2."""
    if m not in cfg.m_grid:
        raise ValueError(f"m={m} is not in the configured grid")
    names = _check_estimators(estimator)
    errors, _, _ = _solve_block(cfg, m, range(trial_id, trial_id + 1), names)[estimator]
    return float(errors[0])


def run_curve(
    cfg: ExperimentConfig, estimator: Union[str, Sequence[str]], jobs: int = 1
) -> Union[ErrorCurve, dict]:
    """Mean/std of the per-trial error over cfg.trials independent trials, per m.

    `estimator` is one name, which returns its ErrorCurve, or a sequence of
    names, which returns {name: ErrorCurve} computed from the same draws.
    Trials run in blocks of block_size(cfg.n). jobs=1 solves the (m, block)
    tasks in this process; jobs > 1 shares them among `jobs` workers forked
    from it, which keep its BLAS setting, while this process waits. A trial's
    result does not depend on its block or its process, so the curves do not
    depend on jobs. jobs > 1 needs the
    fork start method (Linux), and is fastest with one BLAS thread a process:
    the CLI runs one; a library caller sets OPENBLAS_NUM_THREADS=1 (or OMP_ or
    MKL_) before numpy loads.
    """
    names = _check_estimators(estimator)
    step = block_size(cfg.n)
    tasks = [
        (cfg, m, range(start, min(start + step, cfg.trials)), names)
        for m in cfg.m_grid
        for start in range(0, cfg.trials, step)
    ]
    blocks = _map_blocks(tasks, jobs)
    curves = {}
    for est in names:
        errors, iterations, converged = (
            np.concatenate([blk[est][i] for blk in blocks]).reshape(len(cfg.m_grid), cfg.trials)
            for i in range(3)
        )
        curves[est] = ErrorCurve(
            estimator=est,
            m_grid=tuple(cfg.m_grid),
            mean_err=errors.mean(axis=1),
            std_err=errors.std(axis=1),
            trials=cfg.trials,
            master_seed=cfg.master_seed,
            errors=errors,
            iterations=iterations,
            converged=converged,
        )
    return curves[estimator] if isinstance(estimator, str) else curves


def fit_rate(curve: ErrorCurve, model: str) -> RateFit:
    """Fit c / sqrt(m) or c * sqrt(ln m / m) to a curve; also report log-log slope."""
    ms = np.asarray(curve.m_grid, dtype=float)
    errs = np.asarray(curve.mean_err, dtype=float)
    if ms.size < 3:
        raise ValueError("need at least 3 curve points")
    if np.any(errs <= 0):
        raise ValueError("all mean errors must be positive")
    slope = float(np.polyfit(np.log(ms), np.log(errs), 1)[0])
    if model == "inv_sqrt_m":
        basis = 1.0 / np.sqrt(ms)
    elif model == "sqrtlog_m_over_sqrt_m":
        basis = np.sqrt(np.log(ms) / ms)
    else:
        raise ValueError(f"unknown rate model {model!r}")
    coef = float(np.dot(errs, basis) / np.dot(basis, basis))
    rms = float(np.sqrt(np.mean((errs - coef * basis) ** 2)))
    return RateFit(model=model, coefficient=coef, loglog_slope=slope, residual_rms=rms)


# --- Gaussian one-bit moment formulas -------------------------------------

def qfunc(x: float) -> float:
    """Standard normal tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def onebit_xi_mean_literal(norm_x0: float, T: float, mu: float) -> float:
    """First-moment formula as printed: s(mu/T - 1) - 2(mu/T) Q(T/s), s = ||x0||.

    The second term lacks a factor of s relative to the derivation; it is
    reported verbatim next to the Monte Carlo truth rather than corrected.
    """
    t = T / norm_x0 if norm_x0 > 0 else math.inf
    return norm_x0 * (mu / T - 1.0) - 2.0 * (mu / T) * qfunc(t)


def onebit_xi_mean_norm_scaled(norm_x0: float, T: float, mu: float) -> float:
    """Dimensionally consistent variant with the ||x0|| factor restored."""
    t = T / norm_x0 if norm_x0 > 0 else math.inf
    return norm_x0 * (mu / T - 1.0) - 2.0 * (mu / T) * norm_x0 * qfunc(t)


def onebit_xi2_formula(norm_x0: float, T: float, mu: float) -> float:
    """Closed form for E[xi^2] in the Gaussian scalar model."""
    s = norm_x0
    t = T / s if s > 0 else math.inf
    expterm = math.exp(-(t * t) / 2.0) if math.isfinite(t) else 0.0
    return (
        3.0 * s * s
        + mu * mu
        - 6.0 * s * s * mu / T
        + 12.0 * s * s * (mu / T) * qfunc(t)
        + 2.0 * mu * math.sqrt(2.0 / math.pi) * s * expterm
    )


def onebit_eta2_formula(norm_x0: float, T: float, mu: float) -> float:
    """Closed form for E[eta^2]: mu^2 + s^2 - 2(mu/T) s^2 (1 - 2Q(T/s))."""
    s = norm_x0
    t = T / s if s > 0 else math.inf
    return mu * mu + s * s - 2.0 * (mu / T) * s * s * (1.0 - 2.0 * qfunc(t))


@dataclass(frozen=True)
class MomentReport:
    xi_mc: float
    xi_se: float
    xi_formula_literal: float
    xi_formula_norm_scaled: float
    xi2_mc: float
    xi2_se: float
    xi2_formula: float
    eta2_mc: float
    eta2_se: float
    eta2_formula: float


def onebit_moment_check(
    norm_x0: float, T: float, mu: float, N: int, rng: np.random.Generator
) -> MomentReport:
    """Monte Carlo moments of the one-bit Gaussian scalar model vs closed forms.

    Model: zeta ~ N(0,1), tau ~ Unif[-T, T],
    eta = mu * sign(norm_x0 * zeta + tau) - norm_x0 * zeta, xi = eta * zeta.
    """
    if N < 10**4:
        raise ValueError("N < 1e4 gives uninformative standard errors; refuse")
    zeta = rng.standard_normal(N)
    tau = sample_dither(OneBitQuantizer(T), rng, N)
    sgn = np.where(norm_x0 * zeta + tau >= 0, 1.0, -1.0)
    eta = mu * sgn - norm_x0 * zeta
    xi = eta * zeta
    sqn = math.sqrt(N)
    return MomentReport(
        xi_mc=float(xi.mean()),
        xi_se=float(xi.std() / sqn),
        xi_formula_literal=onebit_xi_mean_literal(norm_x0, T, mu),
        xi_formula_norm_scaled=onebit_xi_mean_norm_scaled(norm_x0, T, mu),
        xi2_mc=float((xi**2).mean()),
        xi2_se=float((xi**2).std() / sqn),
        xi2_formula=onebit_xi2_formula(norm_x0, T, mu),
        eta2_mc=float((eta**2).mean()),
        eta2_se=float((eta**2).std() / sqn),
        eta2_formula=onebit_eta2_formula(norm_x0, T, mu),
    )
