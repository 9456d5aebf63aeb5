"""The checks of qlasso.verify: the Monte Carlo lines of `qlasso verify` at seed 0,
pinned to their text, and every check's result at small sample sizes."""

import pytest

from qlasso import verify

# (name, ok, detail) of each sampling check at seed 0 and QUICK_SIZE, as the
# checks wrote them when each drew its samples through an engine-side helper
PINNED = {
    "uniform_dither": (
        "uniform dither unbiased (7 x 3 grid of x and Delta)",
        True,
        "worst |mean|/se = 1.89 (<= 5); worst |mean| at 0.153 of 5 Delta/sqrt(N) (< 1)",
    ),
    "one_bit_bias": ("one-bit bias identity", True, "worst |mc - exact|/se = 1.10 (<= 5)"),
    "one_bit_moments": (
        "one-bit moment closed forms",
        True,
        "worst |mc - formula|/se = 2.74 (<= 5); "
        "s=0.5 T=2: E[xi] mc=+0.0059 literal=-0.0001 norm-scaled=-0.0000; "
        "s=1 T=1.5: E[xi] mc=-0.1369 literal=-0.1336 norm-scaled=-0.1336; "
        "s=1 T=2: E[xi] mc=-0.0428 literal=-0.0455 norm-scaled=-0.0455; "
        "s=1 T=3: E[xi] mc=+0.0031 literal=-0.0027 norm-scaled=-0.0027; "
        "s=1 T=6: E[xi] mc=+0.0174 literal=-0.0000 norm-scaled=-0.0000; "
        "s=2 T=6: E[xi] mc=-0.0003 literal=-0.0027 norm-scaled=-0.0054; "
        "s=4 T=6: E[xi] mc=-0.5568 literal=-0.1336 norm-scaled=-0.5345; "
        "s=4 T=8: E[xi] mc=-0.1778 literal=-0.0455 norm-scaled=-0.1820; "
        "s=4 T=12: E[xi] mc=+0.0228 literal=-0.0027 norm-scaled=-0.0108; "
        "s=4 T=24: E[xi] mc=-0.0178 literal=-0.0000 norm-scaled=-0.0000; "
        "s=8 T=12: E[xi] mc=-1.0687 literal=-0.1336 norm-scaled=-1.0689; "
        "s=8 T=24: E[xi] mc=-0.0629 literal=-0.0027 norm-scaled=-0.0216; "
        "s=8 T=26: E[xi] mc=-0.0013 literal=-0.0012 norm-scaled=-0.0092; "
        "s=8 T=48: E[xi] mc=-0.0072 literal=-0.0000 norm-scaled=-0.0000",
    ),
    "small_ball": ("small-ball diagnostic in [0.5, 1.5]", True, "inf estimate 0.855"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_sampling_checks_keep_their_text(name):
    assert getattr(verify, name) in verify.CHECKS
    assert getattr(verify, name)(0, verify.QUICK_SIZE) == PINNED[name]


@pytest.mark.parametrize("size", [100, 1000])
@pytest.mark.parametrize("check", verify.CHECKS, ids=lambda c: c.__name__)
def test_checks_report_at_small_sizes(check, size):
    # every count a check takes from size is at least one, so no check raises on a small sample
    name, ok, detail = check(0, size)
    assert (type(name), type(ok), type(detail)) == (str, bool, str)
