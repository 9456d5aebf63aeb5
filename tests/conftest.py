import pytest

try:
    import cvxpy
except ImportError:  # optional; the in-repo bisection oracle runs without it
    cvxpy = None


@pytest.fixture
def l1_qp():
    """l1-ball projection (v, radius) -> x solved as a quadratic program by cvxpy, or None
    when cvxpy does not import."""
    if cvxpy is None:
        return None

    def solve(v, radius):
        x = cvxpy.Variable(len(v))
        problem = cvxpy.Problem(cvxpy.Minimize(cvxpy.sum_squares(x - v)), [cvxpy.norm1(x) <= radius])
        problem.solve(solver="CLARABEL", tol_gap_abs=1e-12, tol_gap_rel=1e-12, tol_feas=1e-12)
        return x.value

    return solve
