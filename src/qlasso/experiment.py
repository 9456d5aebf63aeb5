"""Monte Carlo harness: the experiment config, the engine that computes error
curves over m, rate fitting, and the one-bit dither-range rule.

Trial substreams are keyed by (master_seed, m, trial_id) plus a purpose tag,
never by estimator or by the quantizer resolution, so different estimators
and different resolutions see identical (x0, A, dither-uniforms) and paired
comparisons are valid.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .ensemble import (
    ENSEMBLES, LowRank, Sparse, check_integers, check_positive, gen_signal, sample_measurements,
)
from .quantizer import OneBitQuantizer, UniformQuantizer, measure
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
        counts = {"trials": self.trials, **{f"m_grid[{i}]": m for i, m in enumerate(self.m_grid)}}
        check_integers(master_seed=self.master_seed, **counts)
        if not callable(getattr(self.structure, "check", None)):  # a structure checks n and its own fields
            raise ValueError(f"unknown structure {self.structure!r}")
        self.structure.check(self.n)
        check_positive("norm_target", self.norm_target)
        # numpy sizes and indexes arrays by intp; the seed is exempt, since substream reduces it mod 2^64
        if huge := {k: v for k, v in {"n": self.n, **counts}.items() if v > np.iinfo(np.intp).max}:
            raise ValueError(f"counts must be at most {np.iinfo(np.intp).max}, got {huge}")
        check_positive("R", self.R)
        if self.R < self.norm_target:
            raise ValueError(f"R must be at least the signal norm {self.norm_target}, got {self.R}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if list(self.m_grid) != sorted(set(self.m_grid)):
            raise ValueError("m_grid must be strictly increasing")
        if not self.m_grid or self.m_grid[0] < 1:
            raise ValueError(f"m_grid must be nonempty with every m >= 1, got {self.m_grid}")
        _channel(self, self.m_grid[0])  # validates the quantizer name, delta and the smallest m
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
    # the per-m standard deviation of the errors (ddof 0), not a standard error: mean_err's is std_err / sqrt(trials)
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
    """Dither range rule T = R * sqrt(ln m) (also the one-bit mu), positive only for m >= 2."""
    if m < 2:
        raise ValueError(f"the one-bit dither range R sqrt(ln m) needs m >= 2, got m={m}")
    return R * math.sqrt(math.log(m))


def _channel(cfg: ExperimentConfig, m: int):
    """The quantizer of the measurement channel at m; it carries every channel parameter, mu included."""
    if cfg.quantizer == "uniform":
        return UniformQuantizer(cfg.delta)
    if cfg.quantizer == "one_bit":
        return OneBitQuantizer(onebit_dither_range(cfg.R, m))
    raise ValueError(f"unknown quantizer {cfg.quantizer!r}")


# bytes of a block's Gram stack, and of a trial's row panel with its float64 widening
BUFFER_BYTES = 2**20


def block_size(n: int) -> int:
    """Trials per block: the block's stack of n x n Gram matrices fits in BUFFER_BYTES."""
    return max(1, BUFFER_BYTES // (8 * n * n))


def panel_rows(n: int, ensemble: str) -> int:
    """Rows of the panels a trial's m x n matrix is drawn in, whatever m: the most, in multiples of four,
    whose draw and its float64 widening fit in BUFFER_BYTES (a float64 draw is its own widening), at
    least 4. Every panel then starts on a 4-row boundary, as OpenBLAS groups the rows of A x0, and holds
    an even number of +-1 entries, two signs a raw word."""
    draw = np.dtype(ENSEMBLES[ensemble]).itemsize
    row_bytes = n * (draw if draw == 8 else draw + 8)
    return max(4, BUFFER_BYTES // row_bytes // 4 * 4)


def _workspace(n: int, ensemble: str):
    """The (panel_rows(n, ensemble), n) draw panel, its float64 widening, the (block_size(n), n, n) Gram
    stack and the (n, n) scratch of a curve's blocks. Panel and scratch take the ensemble's dtype, float32
    for +-1 rows. A float64 panel is its own widening; a +-1 panel's is left unwritten, so that a forking
    caller keeps none of it resident."""
    panel = np.empty((panel_rows(n, ensemble), n), ENSEMBLES[ensemble])
    wide = panel if panel.dtype == np.float64 else np.empty(panel.shape)
    return panel, wide, np.empty((block_size(n), n, n)), np.empty((n, n), panel.dtype)


def _solve_block(cfg: ExperimentConfig, m: int, trials: range, estimators: Tuple[str, ...], workspace) -> dict:
    """Errors, solver iterations and convergence flags of every estimator on a block of trials.

    Each trial's (x0, A, y) is drawn once from its (seed, m, trial, purpose)
    substreams and reduced at once to what every estimator needs: its Gram
    statistics (G, b) = gram_stats(A, y, q.mu), with mu read from the channel's
    quantizer q, and the radius K.gauge(x0) of the structure K, whose K.project
    is the row projection: no branch on either.
    PBP and DM are both P_K(b); glasso runs stacked FISTA (pgd_rows) on the
    block, which finds each trial's step by backtracking, so no step is computed here.

    A is drawn in row panels into the panel of `workspace` (a _workspace(n,
    ensemble)), so no buffer grows with m. The panels read the substreams as one
    whole-matrix draw and one measure(A x0) would, so A is bitwise the
    whole-matrix draw. So is y: every panel starts on a 4-row boundary, and
    OpenBLAS, which groups the rows of A x0 by four, then rounds each row of
    a panel's A x0 as in the whole matrix's. Each panel S is widened once
    into the workspace's float64 A (a Gaussian panel is its own), from
    which A x0, which measure quantizes, and A^T y are formed. G sums every
    panel's S^T S, formed in the panel's dtype in the scratch, and b every
    panel's A^T y, in order from zero. A +-1 panel's float32 Gram matrix is
    exact, since each partial sum is an integer of magnitude at most its rows,
    far below 2^24. So (G, b) is gram_stats bitwise on one panel and to
    rounding over several; on +-1 rows G is bitwise at every m, and so is b
    where A^T y is an exact sum (one-bit y, a cell width of 3 or a power of two).
    Returns {estimator: (errors, iterations, converged)}, one entry per trial;
    the one-shot estimators report 0 iterations, converged.
    """
    k, n, K = len(trials), cfg.n, cfg.structure
    q = _channel(cfg, m)
    x0s = np.empty((k, n))
    b = np.zeros((k, n))
    panel, wide, G, scratch = workspace
    G = G[:k]
    G[...] = 0.0
    for i, t in enumerate(trials):
        x0 = gen_signal(cfg, substream(cfg.master_seed, m, t, "signal"))
        matrix_rng, dither_rng = (substream(cfg.master_seed, m, t, purpose) for purpose in ("matrix", "dither"))
        for start in range(0, m, len(panel)):
            S = panel[: m - start]
            sample_measurements(cfg.ensemble, len(S), n, matrix_rng, out=S)
            A = wide[: len(S)]
            A[...] = S  # no copy where the panel is float64
            y = measure(A @ x0, q, dither_rng)
            G[i] += np.matmul(S.T, S, out=scratch)  # no n x n temporary per panel
            b[i] += A.T @ y
        G[i] /= m  # (G[i], b[i]) = gram_stats(A, y, q.mu), bitwise where the sums are exact
        b[i] *= q.mu / m
        x0s[i] = x0
    radii = K.gauge(x0s)

    out = {}
    one_shot = [e for e in estimators if e in ("pbp", "dm")]
    if one_shot:
        err = np.linalg.norm(K.project(b, radii) - x0s, axis=1)
        for est in one_shot:
            out[est] = (err, np.zeros(k, dtype=int), np.ones(k, dtype=bool))
    if "glasso" in estimators:
        # the limit is read at call time, so setting experiment.MAX_ITERS bounds every solve of a curve
        X, iterations, converged = pgd_rows(G, b, radii, K.project, max_iters=MAX_ITERS)
        out["glasso"] = (np.linalg.norm(X - x0s, axis=1), iterations, converged)
    return out


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
    check_integers(m=m, trial_id=trial_id)
    if m not in cfg.m_grid:
        raise ValueError(f"m={m} is not in the configured grid")
    if not 0 <= trial_id < cfg.trials:
        raise ValueError(f"trial_id={trial_id} is not in range({cfg.trials})")
    names = _check_estimators(estimator)
    workspace = _workspace(cfg.n, cfg.ensemble)
    errors, _, _ = _solve_block(cfg, m, range(trial_id, trial_id + 1), names, workspace)[estimator]
    return float(errors[0])


def run_curve(
    cfg: ExperimentConfig, estimator: Union[str, Sequence[str]], jobs: int = 1
) -> Union[ErrorCurve, dict]:
    """Mean/std of the per-trial error over cfg.trials independent trials, per m.

    `estimator` is one name, which returns its ErrorCurve, or a sequence of
    names, which returns {name: ErrorCurve} computed from the same draws.
    Trials run in blocks of block_size(cfg.n). jobs (an int >= 1) = 1 solves the
    (m, block) tasks here; jobs > 1 shares them among `jobs` forked workers that
    keep its BLAS setting (see forked_map). A trial's result does not depend on
    its block or process, so the curves do not depend on jobs. jobs > 1 needs
    fork (Linux) and is fastest with one BLAS thread a process: the CLI runs
    one; a library caller sets OPENBLAS_NUM_THREADS=1 (or OMP_, MKL_) before numpy loads.
    """
    check_integers(jobs=jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be an int >= 1, got {jobs!r}")
    names = _check_estimators(estimator)
    step, workspace = block_size(cfg.n), _workspace(cfg.n, cfg.ensemble)  # a forked worker writes its own copy
    tasks = [(cfg, m, range(start, min(start + step, cfg.trials)), names, workspace)
             for m in cfg.m_grid for start in range(0, cfg.trials, step)]
    if (workers := min(jobs, len(tasks))) > 1:  # the workers solve every block; this process waits
        # imported here so that a run in one process, and every other subcommand, neither loads nor compiles it
        from .forked import forked_map
        blocks = forked_map(_solve_block, tasks, workers)
    else:
        blocks = [_solve_block(*t) for t in tasks]
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
    """Fit c / sqrt(m) or c * sqrt(ln m / m) to a curve; also report the least-squares log-log slope."""
    ms = np.asarray(curve.m_grid, dtype=float)
    errs = np.asarray(curve.mean_err, dtype=float)
    if len(set(curve.m_grid)) < 3 or min(curve.m_grid) < 1 or not np.all(np.isfinite(errs) & (errs > 0)):
        raise ValueError(f"a fit needs 3 distinct m >= 1 and finite, positive errors, got {curve.m_grid} and {errs}")
    dx, dy = (v - v.mean() for v in (np.log(ms), np.log(errs)))  # centred, so the slope is closed form
    slope = float(np.sum(dx * dy) / np.sum(dx * dx))
    if model == "inv_sqrt_m":
        basis = 1.0 / np.sqrt(ms)
    elif model == "sqrtlog_m_over_sqrt_m":
        basis = np.sqrt(np.log(ms) / ms)
    else:
        raise ValueError(f"unknown rate model {model!r}")
    coef = float(np.dot(errs, basis) / np.dot(basis, basis))
    rms = float(np.sqrt(np.mean((errs - coef * basis) ** 2)))
    return RateFit(model=model, coefficient=coef, loglog_slope=slope, residual_rms=rms)
