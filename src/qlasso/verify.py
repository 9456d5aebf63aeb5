"""Numeric identity and correctness checks behind `qlasso verify` and the acceptance suite.

CHECKS holds functions (seed, size) -> (name, ok, detail). A check fixes its own
grid, substream keys and tolerances; the caller picks the master seed and the
Monte Carlo sample size N = size, from which sweeps take their counts.
`qlasso verify` runs every check at QUICK_SIZE, the acceptance suite at 10**6.
The Monte Carlo checks run the channel through quantizer.measure, the code the
curves run; the closed forms they test are the library's.
"""

import math

import numpy as np

from .ensemble import LowRank, Sparse, sample_measurements
from .quantizer import OneBitQuantizer, UniformQuantizer, measure, qfunc
from .solver import glasso_solve, gram_stats, pgd_rows
from .streams import substream

QUICK_SIZE = 200_000


def _whole_space(V, radii):  # the row projection onto the unconstrained set
    return V


def _z(gap: float, se: float) -> float:
    return abs(gap) / max(se, 1e-300)


def _mean_se(v):
    """Monte Carlo mean of the samples v and its standard error std / sqrt(N)."""
    return float(np.mean(v)), float(np.std(v) / math.sqrt(len(v)))


def _residual_gaps(seed, tag, size, cases):
    """(MC mean - exact, standard error) of q.mu Q(x + tau) - x per case (q, x, exact), measured
    on `size` measurements equal to x."""
    gaps = []
    for i, (q, x, exact) in enumerate(cases):
        mean, se = _mean_se(q.mu * measure(np.full(size, x), q, substream(seed, tag, i)) - x)
        gaps.append((mean - exact, se))
    return gaps


def uniform_dither(seed: int, size: int):
    """E[Q(x + tau)] = x on a 7 x 3 grid of (x, Delta): within 5 se (+1e-12) and 5 Delta / sqrt(N)."""
    cases = [
        (UniformQuantizer(delta), x, 0.0)
        for delta in (0.5, 1.0, 3.0)
        for x in (-3.3, -1.0, 0.0, 0.25, 0.37, 0.5, 7.9)
    ]
    gaps = _residual_gaps(seed, "verify-uniform", size, cases)
    budget = max(abs(gap) * math.sqrt(size) / (5.0 * q.delta) for (gap, _), (q, *_) in zip(gaps, cases))
    worst = max(_z(gap, se) for gap, se in gaps)
    ok = all(abs(gap) <= 5.0 * se + 1e-12 for gap, se in gaps) and budget < 1.0
    return (
        "uniform dither unbiased (7 x 3 grid of x and Delta)",
        ok,
        f"worst |mean|/se = {worst:.2f} (<= 5); worst |mean| at {budget:.3f} of 5 Delta/sqrt(N) (< 1)",
    )


def one_bit_bias(seed: int, size: int):
    """E[T sign(x + tau)] - x for tau ~ Unif[-T, T], T = 4, is the exact clipping bias: within 5 se."""
    q = OneBitQuantizer(4.0)
    cases = [(q, x, q.bias(x)) for x in (0.0, 0.5 * q.T, 2 * q.T, -2 * q.T, 3 * q.T, -3 * q.T)]
    worst = max(_z(gap, se) for gap, se in _residual_gaps(seed, "verify-onebit", size, cases))
    return ("one-bit bias identity", worst <= 5.0, f"worst |mc - exact|/se = {worst:.2f} (<= 5)")


def onebit_xi_mean_literal(s: float, T: float) -> float:
    """First-moment formula as printed, s(mu/T - 1) - 2(mu/T) Q(T/s) with s = ||x0||, at mu = T: -2 Q(T/s).
    Its second term lacks the factor s of OneBitQuantizer.moments; it is reported, not corrected."""
    return -2.0 * qfunc(T / s if s > 0 else math.inf)


# (||x0||, T) pairs of the Gaussian one-bit moment check, with mu = T.
MOMENT_PAIRS = ((0.5, 2.0), (1.0, 1.5), (1.0, 2.0), (1.0, 3.0), (1.0, 6.0), (2.0, 6.0), (4.0, 6.0),
                (4.0, 8.0), (4.0, 12.0), (4.0, 24.0), (8.0, 12.0), (8.0, 24.0), (8.0, 26.0), (8.0, 48.0))


def one_bit_moments(seed: int, size: int):
    """E[eta^2], E[xi^2] and the norm-scaled E[xi] match their closed forms within 5 se in the
    Gaussian scalar model zeta ~ N(0, 1), tau ~ Unif[-T, T], eta = T sign(s zeta + tau) - s zeta,
    xi = eta zeta (mu = T). The first-moment formula as printed (`literal`) is reported, not asserted.
    """
    worst = 0.0
    details = []
    for i, (s, T) in enumerate(MOMENT_PAIRS):
        rng, q = substream(seed, "verify-moments", i), OneBitQuantizer(T)
        zeta = rng.standard_normal(size)
        eta = q.mu * measure(s * zeta, q, rng) - s * zeta  # tau after zeta
        xi = eta * zeta
        exact = q.moments(s)
        for v, e in zip((eta**2, xi**2, xi), exact):
            mean, se = _mean_se(v)
            worst = max(worst, _z(mean - e, se))  # the last v is xi, so mean is then E[xi]
        details.append(f"s={s:g} T={T:g}: E[xi] mc={mean:+.4f} literal={onebit_xi_mean_literal(s, T):+.4f} "
                       f"norm-scaled={exact[2]:+.4f}")
    return ("one-bit moment closed forms", worst <= 5.0,
            f"worst |mc - formula|/se = {worst:.2f} (<= 5); " + "; ".join(details))


def project_l1_bisection(V, radii) -> np.ndarray:
    """Row-wise l1-ball projection by bisection on the soft threshold theta, which solves
    sum_i max(|v_i| - theta, 0) = r; it shares no step with the sort-based projection."""
    U = np.abs(np.asarray(V, dtype=float))
    radii = np.broadcast_to(np.asarray(radii, dtype=float), U.shape[:1])
    lo, hi = np.zeros(len(U)), U.max(axis=1)
    for _ in range(200):  # more halvings than bits in a double
        mid = 0.5 * (lo + hi)
        over = np.maximum(U - mid[:, None], 0.0).sum(axis=1) > radii
        lo, hi = np.where(over, mid, lo), np.where(over, hi, mid)
    theta = np.where(U.sum(axis=1) > radii, hi, 0.0)
    return np.sign(V) * np.maximum(U - theta[:, None], 0.0)


def _project_nuclear_bisection(V, radius):
    d = math.isqrt(V.shape[1])
    U, s, Vt = np.linalg.svd(V.reshape(-1, d, d))
    return (U @ (project_l1_bisection(s, radius)[:, :, None] * Vt)).reshape(V.shape)


# (name, structure, oracle, dimension, radius) of each ball the projection check covers: the
# structure's project and gauge are the projection and the norm of its ball
_BALLS = (
    ("l1", Sparse(12), project_l1_bisection, 12, 2.0),
    ("nuclear", LowRank(4, 4), _project_nuclear_bisection, 16, 1.5),
)


def projections(seed: int, size: int):
    """On N/100 (at least one) pairs of points at random scales, each projection is feasible,
    idempotent, nonexpansive and equal to its bisection oracle; no closer point is found among
    N/200 (at least one) random feasible candidates for each of 20 points."""
    rng = substream(seed, "verify-proj")
    norm = np.linalg.norm
    ok, details = True, []
    for name, K, oracle, n, radius in _BALLS:
        pairs = max(1, size // 100)
        U, V = rng.standard_normal((2, pairs, n)) * rng.uniform(0.0, 3.0, (2, pairs, 1))
        PU, PV = K.project(U, radius), K.project(V, radius)
        excess = float(np.max(K.gauge(PU) - radius))
        idempotence = float(np.max(norm(K.project(PU, radius) - PU, axis=1)))
        expansive = int(np.sum(norm(PU - PV, axis=1) > norm(U - V, axis=1) + 1e-12))
        deviation = float(np.max(np.abs(PU - oracle(U, radius))))
        closer = 0
        for v in rng.standard_normal((20, n)) * 2:
            C = rng.standard_normal((max(1, size // 200), n))
            C *= (radius * rng.random(len(C)) / K.gauge(C))[:, None]
            closer += int(np.sum(norm(C - v, axis=1) < norm(K.project(v[None], radius)[0] - v) - 1e-9))
        ok &= excess <= 1e-9 and idempotence <= 1e-12 and expansive == 0 and deviation <= 1e-10 and closer == 0
        details.append(f"{name}: norm excess {excess:.1e}, idempotence {idempotence:.1e}, expansive pairs "
                       f"{expansive}, oracle deviation {deviation:.1e}, closer candidates {closer}")
    return ("l1 and nuclear projections", ok, "; ".join(details))


def solver_correctness(seed: int, size: int):
    """On N/50000 (at least one) unconstrained problems glasso_solve (converged, with a monotone
    objective trace) and the stacked pgd_rows of the curves both match least squares to 1e-6, and the
    gradient G x - b from gram_stats matches central differences of the least-squares objective to 1e-5."""
    worst_rel, monotone, ref_converged = 0.0, True, 0
    stats, X_ls = [], []
    for i in range(max(1, size // 50_000)):
        x0 = Sparse(10).draw(50, 3.0, substream(seed, "verify-solver", i, "signal"))
        A = sample_measurements("gaussian", 300, 50, substream(seed, "verify-solver", i, "matrix"))
        y = measure(A @ x0, UniformQuantizer(1.0), substream(seed, "verify-solver", i, "dither"))
        res = glasso_solve(A, y, 1.0, _whole_space, 1.0)
        monotone &= bool(np.all(np.diff(res.objective_trace) <= 1e-12))
        ref_converged += res.converged
        x_ls = np.linalg.lstsq(A, y, rcond=None)[0]
        worst_rel = max(worst_rel, float(np.linalg.norm(res.x_hat - x_ls) / np.linalg.norm(x_ls)))
        stats.append(gram_stats(A, y, 1.0))
        X_ls.append(x_ls)
    G, b = (np.stack(s) for s in zip(*stats))
    X_ls = np.stack(X_ls)
    X, _, converged = pgd_rows(G, b, np.ones(len(b)), _whole_space)
    stacked_rel = float(np.max(np.linalg.norm(X - X_ls, axis=1) / np.linalg.norm(X_ls, axis=1)))

    rng = substream(seed, "verify-solver", "gradient")
    A, y = sample_measurements("gaussian", 60, 15, rng), rng.standard_normal(60)
    x, h = rng.standard_normal(15), 1e-6
    G, b = gram_stats(A, y, 1.0)
    g = G @ x - b

    def loss(v):
        r = y - A @ v
        return float(r @ r) / (2 * len(y))

    err = np.abs([(loss(x + h * e) - loss(x - h * e)) / (2 * h) for e in np.eye(15)] - g)
    grad_rel = float(np.linalg.norm(err) / np.linalg.norm(g))
    ok = (worst_rel <= 1e-6 and monotone and ref_converged == len(X_ls) and converged.all()
          and stacked_rel <= 1e-6 and grad_rel <= 1e-5 and bool(np.all(err <= 1e-5 * np.maximum(1.0, abs(g)))))
    return ("solver matches least squares, monotone descent, gradient", ok,
            f"worst solution rel err {worst_rel:.2e} ({ref_converged}/{len(X_ls)} converged), "
            f"monotone={monotone}, stacked solver rel err {stacked_rel:.2e} "
            f"({int(converged.sum())}/{len(converged)} converged), gradient rel err {grad_rel:.2e}")


def small_ball(seed: int, size: int):
    """The minimum of ||A w||^2 / m over N/400 (at least one) random unit directions w of a
    1000 x 20 Gaussian matrix A lies in [0.5, 1.5]."""
    rng = substream(seed, "verify-smallball")
    A = sample_measurements("gaussian", 1000, 20, rng)
    W = 0.01 * rng.standard_normal((max(1, size // 400), 20))  # the scale moves the rounding of w / ||w||
    W = np.stack([w / np.linalg.norm(w) for w in W])  # norm(W, axis=1) may round a row's norm differently
    val = float(np.min(np.sum((A @ W.T) ** 2, axis=0) / len(A)))
    return ("small-ball diagnostic in [0.5, 1.5]", 0.5 <= val <= 1.5, f"inf estimate {val:.3f}")


def rademacher_draw(seed: int, size: int):
    """A Rademacher draw of about N entries is all +-1, with a mean and a mean lag-1 product
    a_k a_(k+1) of the flattened draw within 5 se of 0; the lag-1 product catches a draw that
    reads one half of each raw word for two entries."""
    n = 100
    a = sample_measurements("rademacher", max(1, size // n), n, substream(seed, "verify-rademacher")).reshape(-1)
    off = int(np.count_nonzero(np.abs(a) != 1.0))
    z_mean = _z(float(a.mean(dtype=float)), 1.0 / math.sqrt(a.size))  # the float32 signs summed in float64
    z_lag = _z(float(np.mean(a[:-1] * a[1:], dtype=float)), 1.0 / math.sqrt(a.size - 1))
    return ("Rademacher draw +-1, balanced, lag-1 uncorrelated", off == 0 and max(z_mean, z_lag) <= 5.0,
            f"{a.size} entries, {off} not +-1; |mean|/se = {z_mean:.2f}, |lag-1 mean|/se = {z_lag:.2f} (<= 5)")


def rademacher_gram(seed: int, size: int):
    """On N/200000 (at least one) Rademacher draws S (float32) at m = 8000, n = 100, the float32
    S^T S, the product the engine forms of each +-1 panel (exact: its partial sums are integers of
    magnitude at most m <= 2^24), is bitwise the float64 A^T A of A = S."""
    m, n = 8000, 100
    draws, mismatched = max(1, size // 200_000), 0
    for i in range(draws):
        S = sample_measurements("rademacher", m, n, substream(seed, "verify-rademacher-gram", i))
        A = S.astype(np.float64)
        mismatched += int(np.count_nonzero((S.T @ S).astype(np.float64).view(np.uint64) != (A.T @ A).view(np.uint64)))
    return ("Rademacher Gram in float32 is bitwise float64 A^T A", mismatched == 0,
            f"{mismatched} of {draws * n * n} entries differ over {draws} draw(s) at m = {m}, n = {n}")


def stacked_solver(seed: int, size: int):
    """On N/10000 (at least one) l1-ball problems per ensemble, Rademacher and Gaussian, at n = 100
    and m alternating 200 and 2000 (uniform channel, Delta = 3, 25-sparse signals of norm 8), every
    row of the stacked pgd_rows converges and lands within 1e-6 (relative) of glasso_solve, which
    converges too; the detail gives each ensemble's range of pgd_rows iterations."""
    n, count = 100, max(1, size // 10_000)
    K, q = Sparse(25), UniformQuantizer(3.0)
    worst, ok, details = 0.0, True, []
    for kind in ("rademacher", "gaussian"):
        refs, stats, radii = [], [], []
        for i in range(count):
            m = (200, 2000)[i % 2]
            x0 = K.draw(n, 8.0, substream(seed, "verify-stacked", kind, i, "signal"))
            A = sample_measurements(kind, m, n, substream(seed, "verify-stacked", kind, i, "matrix"))
            y = measure(A @ x0, q, substream(seed, "verify-stacked", kind, i, "dither"))
            radii.append(K.gauge(x0[None])[0])
            res = glasso_solve(A, y, q.mu, K.project, radii[-1])
            ok &= res.converged
            refs.append(res.x_hat)
            stats.append(gram_stats(A, y, q.mu))
        G, b = (np.stack(s) for s in zip(*stats))
        X, iterations, converged = pgd_rows(G, b, np.array(radii), K.project)
        refs = np.stack(refs)
        worst = max(worst, float(np.max(np.linalg.norm(X - refs, axis=1) / np.linalg.norm(refs, axis=1))))
        ok &= bool(converged.all())
        details.append(f"{kind} {int(converged.sum())}/{count} converged in {iterations.min()}-{iterations.max()} "
                       "iterations")
    return ("stacked solver matches glasso_solve on l1 balls", ok and worst <= 1e-6,
            f"worst rel distance to glasso_solve {worst:.2e} (<= 1e-6); {', '.join(details)}")


CHECKS = (uniform_dither, one_bit_bias, one_bit_moments, projections, solver_correctness, small_ball,
          rademacher_draw, rademacher_gram, stacked_solver)
