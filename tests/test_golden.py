"""Per-trial errors of small configs, pinned against the per-trial PGD path.

The values were recorded with the solver that estimated its step size by
power iteration and solved one trial at a time. Any later solver path must
reproduce every trial within GOLDEN_REL_TOL: the data of each trial come
from the same substreams, and the solver converges to the same minimizer.
"""

import numpy as np
import pytest

from qlasso import ExperimentConfig, LowRank, Sparse, run_curve

GOLDEN_REL_TOL = 1e-4

CONFIGS = {
    "uniform": dict(
        n=40, structure=Sparse(5), norm_target=3.0, R=4.0, ensemble="gaussian",
        quantizer="uniform", delta=1.0, m_grid=(100, 200), trials=4, master_seed=21,
        estimators=("glasso", "pbp", "dm"),
    ),
    "onebit": dict(
        n=40, structure=Sparse(5), norm_target=3.0, R=4.0, ensemble="rademacher",
        quantizer="one_bit", delta=None, m_grid=(200, 400), trials=4, master_seed=21,
        estimators=("glasso",),
    ),
    "lowrank": dict(
        n=36, structure=LowRank(6, 1), norm_target=3.0, R=4.0, ensemble="gaussian",
        quantizer="uniform", delta=0.5, m_grid=(150, 300), trials=4, master_seed=21,
        estimators=("glasso",),
    ),
}

# (config, estimator) -> errors[m index][trial]
GOLDEN = {
    ("uniform", "glasso"): [
        [0.1647181872367189, 0.1877830447677984, 0.18020048220183477, 0.23087912527290302],
        [0.11727786753873833, 0.10087418669038035, 0.08251546231174768, 0.11210688302275328],
    ],
    ("uniform", "pbp"): [
        [1.3959589695393564, 1.5182008988817577, 1.0823817155522355, 1.1747497651947507],
        [0.5646972622738284, 0.6669911686803266, 0.5784939928865347, 0.7990914248057139],
    ],
    ("uniform", "dm"): [
        [1.3959589695393564, 1.5182008988817577, 1.0823817155522355, 1.1747497651947507],
        [0.5646972622738284, 0.6669911686803266, 0.5784939928865347, 0.7990914248057139],
    ],
    ("onebit", "glasso"): [
        [1.9269207727879183, 2.3848152460516254, 2.490155329845222, 2.2136500426833754],
        [2.0049710547835353, 1.60567214630936, 1.4113638404151703, 1.7343605808731737],
    ],
    ("lowrank", "glasso"): [
        [0.06225250899531729, 0.07630801355326167, 0.04863516640157473, 0.07244890956380341],
        [0.052235856003448336, 0.0497116112978598, 0.04895932752906866, 0.04599122398026318],
    ],
}


@pytest.mark.parametrize("config,estimator", sorted(GOLDEN))
def test_golden_per_trial_errors(config, estimator):
    curve = run_curve(ExperimentConfig(**CONFIGS[config]), estimator)
    np.testing.assert_allclose(curve.errors, GOLDEN[(config, estimator)], rtol=GOLDEN_REL_TOL, atol=0)
