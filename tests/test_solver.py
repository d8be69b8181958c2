import numpy as np
import pytest

from dexretarget.errors import InvalidArgumentError, SolverStartError
from dexretarget.solver import (
    BoxProblem,
    batch_objective,
    batch_problem,
    check_gradient,
    fd_gradient,
    minimize_box,
)


def quadratic_problem(target, lo=-2.0, hi=2.0):
    a = np.asarray(target, dtype=float)
    n = a.shape[0]
    return BoxProblem(
        lower=np.full(n, lo),
        upper=np.full(n, hi),
        objective=lambda x: float(((x - a) ** 2).sum()),
        gradient=lambda x: 2.0 * (x - a),
    )


def fd_problem(lower, upper, f):
    """Box problem of a scalar objective with its central-difference gradient."""
    return batch_problem(lower, upper, batch_objective(f), 1e-6)


def rosenbrock_problem():
    return fd_problem(np.array([-2.0, -2.0]), np.array([2.0, 2.0]),
                      lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)


class TestMinimizeBox:
    def test_quadratic_interior(self):
        a = np.array([0.3, -0.7, 1.1])
        report = minimize_box(quadratic_problem(a), np.zeros(3))
        assert report.converged
        np.testing.assert_allclose(report.x_star, a, atol=1e-8)

    def test_quadratic_projected(self):
        a = np.array([3.0, -5.0, 0.5])
        report = minimize_box(quadratic_problem(a), np.zeros(3))
        np.testing.assert_allclose(report.x_star, np.clip(a, -2, 2), atol=1e-8)

    def test_rosenbrock(self):
        report = minimize_box(rosenbrock_problem(), np.array([-1.2, 1.0]))
        np.testing.assert_allclose(report.x_star, [1.0, 1.0], atol=1e-5)
        assert report.converged

    def test_start_outside_box_is_projected(self):
        a = np.array([0.0, 0.0])
        report = minimize_box(quadratic_problem(a), np.array([10.0, -10.0]))
        np.testing.assert_allclose(report.x_star, a, atol=1e-8)

    def test_monotone_descent(self):
        base = rosenbrock_problem()
        seen = []

        def recording(x):
            v = base.objective(x)
            seen.append(v)
            return v

        problem = fd_problem(base.lower, base.upper, recording)
        report = minimize_box(problem, np.array([-1.2, 1.0]))
        # only improvements are ever accepted, so the final value must be
        # the minimum over every point the solver evaluated
        assert report.f_star == min(seen)
        assert report.f_star <= base.objective(np.array([-1.2, 1.0]))

    def test_feasibility(self, rng):
        for _ in range(20):
            n = rng.integers(1, 6)
            lo = rng.uniform(-2, 0, size=n)
            hi = lo + rng.uniform(0.1, 2, size=n)
            a = rng.uniform(-3, 3, size=n)
            problem = fd_problem(lo, hi, lambda x, a=a: float(((x - a) ** 2).sum()))
            report = minimize_box(problem, rng.uniform(-1, 1, size=n))
            assert np.all(report.x_star >= lo - 1e-12)
            assert np.all(report.x_star <= hi + 1e-12)

    def test_bit_identical_determinism(self):
        problem = rosenbrock_problem()
        a = minimize_box(problem, np.array([-1.2, 1.0]))
        b = minimize_box(problem, np.array([-1.2, 1.0]))
        assert np.array_equal(a.x_star, b.x_star)
        assert a.f_star == b.f_star
        assert a.iterations == b.iterations
        assert a.termination == b.termination

    def test_scale_invariance_of_argmin(self):
        base = rosenbrock_problem()
        scaled = fd_problem(base.lower, base.upper, lambda x: 10.0 * base.objective(x))
        ra = minimize_box(base, np.array([-1.2, 1.0]))
        rb = minimize_box(scaled, np.array([-1.2, 1.0]))
        np.testing.assert_allclose(ra.x_star, rb.x_star, atol=1e-6)

    def test_nonfinite_start_rejected(self):
        problem = fd_problem(np.array([-1.0]), np.array([1.0]), lambda x: float("nan"))
        with pytest.raises(SolverStartError):
            minimize_box(problem, np.array([0.0]))

    def test_nonfinite_during_search_recovers(self):
        # objective blows up away from a narrow well; solver must halve into it
        def f(x):
            if abs(x[0]) > 0.5:
                return float("inf")
            return float(x[0] ** 2)

        problem = fd_problem(np.array([-2.0]), np.array([2.0]), f)
        report = minimize_box(problem, np.array([0.4]))
        assert abs(report.x_star[0]) < 1e-6

    def test_convergence_on_already_optimal_start(self):
        a = np.array([0.25, -0.5])
        report = minimize_box(quadratic_problem(a), a.copy())
        assert report.iterations == 0
        assert report.termination == "gradient-tol"
        np.testing.assert_array_equal(report.x_star, a)

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            minimize_box(quadratic_problem(np.zeros(3)), np.zeros(2))

    def test_bound_validation(self):
        with pytest.raises(InvalidArgumentError):
            fd_problem(np.array([1.0]), np.array([0.0]), lambda x: 0.0)


class TestCheckGradient:
    def test_correct_gradient(self):
        problem = quadratic_problem(np.array([0.4, -0.2, 0.9]))
        err = check_gradient(problem, np.array([0.1, 0.1, 0.1]), fd_eps=1e-6)
        assert err < 1e-7

    def test_scaled_gradient_reports_full_error(self):
        a = np.array([0.4, -0.2])
        problem = BoxProblem(
            lower=np.full(2, -2.0), upper=np.full(2, 2.0),
            objective=lambda x: float(((x - a) ** 2).sum()),
            gradient=lambda x: 4.0 * (x - a),  # deliberately 2x
        )
        err = check_gradient(problem, np.array([1.0, 1.0]), fd_eps=1e-6)
        assert err == pytest.approx(1.0, abs=1e-4)

    def test_constant_objective_zero_error(self):
        problem = BoxProblem(
            lower=np.full(2, -1.0), upper=np.full(2, 1.0),
            objective=lambda x: 3.0,
            gradient=lambda x: np.zeros(2),
        )
        assert check_gradient(problem, np.zeros(2)) == 0.0


class TestFdGradient:
    def test_matches_analytic(self, rng):
        a = rng.normal(size=4)
        f = lambda x: float(np.sin(x) @ a)
        x = rng.normal(size=4)
        fd = fd_gradient(batch_objective(f), x, 1e-6)
        np.testing.assert_allclose(fd, np.cos(x) * a, atol=1e-8)
