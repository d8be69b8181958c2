import math
import struct

import numpy as np
import pytest

from dexretarget import solver
from dexretarget.errors import InvalidArgumentError, SolverStartError
from dexretarget.solver import (BoxProblem, SolverOptions, check_gradient, fd_gradient,
                                minimize_box)


def quadratic_problem(target, lo=-2.0, hi=2.0):
    a = np.asarray(target, dtype=float)
    n = a.shape[0]
    return BoxProblem(
        lower=np.full(n, lo),
        upper=np.full(n, hi),
        objective=lambda x: float(((x - a) ** 2).sum()),
        gradient=lambda x: 2.0 * (x - a),
    )


def rows(f):
    """Lift a scalar objective to a batch objective, one row at a time."""
    return lambda xs: np.array([f(x) for x in xs], dtype=float)


def fd_problem(lower, upper, f):
    """Box problem of a scalar objective with its central-difference gradient."""
    return BoxProblem(lower=lower, upper=upper, objective=f,
                      gradient=lambda x: fd_gradient(rows(f), x, 1e-6))


def rosenbrock_problem():
    return fd_problem(np.array([-2.0, -2.0]), np.array([2.0, 2.0]),
                      lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)


def reference_two_loop(g, memory):
    """The L-BFGS two-loop recursion with its 1-D products written as
    ``@``, as ``solver._two_loop`` first took them."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    if memory:
        s, y, _ = memory[-1]
        gamma = float(s @ y) / float(y @ y)
        q *= gamma
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q


def recorded(problem):
    """The problem with its objective's points and its gradient's calls
    recorded in the returned lists."""
    points, gradients = [], []

    def objective(x):
        points.append(x.copy())
        return problem.objective(x)

    def gradient(x):
        gradients.append(x.copy())
        return problem.gradient(x)

    return BoxProblem(problem.lower, problem.upper, objective, gradient), points, gradients


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

    def test_ill_conditioned_quadratics_with_active_bounds(self):
        # each unconstrained minimizer lies mostly outside the box, so the
        # solution has many variables on a bound and the rest on an
        # ill-conditioned subspace
        n = 16
        stopped = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            rot, _ = np.linalg.qr(rng.normal(size=(n, n)))
            hess = (rot * np.logspace(-3, 0, n)) @ rot.T
            x_min = rng.uniform(-3, 3, size=n)
            problem = BoxProblem(
                lower=np.full(n, -1.0), upper=np.full(n, 1.0),
                objective=lambda x, h=hess, m=x_min: float(0.5 * (x - m) @ h @ (x - m)),
                gradient=lambda x, h=hess, m=x_min: h @ (x - m),
            )
            report = minimize_box(problem, np.zeros(n))
            if report.termination != "gradient-tol":
                stopped.append((seed, report.termination))
        assert not stopped, stopped

    def test_norms_match_numpy_bit_for_bit(self, rng):
        # minimize_box writes the infinity norm and the 2-norms of a 1-D
        # float64 vector as the operations np.linalg.norm runs for one
        def bits(v):
            return struct.pack("<d", v)

        specials = [1e300, -1e300, 1e-300, -5e-324, 0.0, -0.0, np.nan, np.inf, -np.inf]
        for n in [0, 1, 2, 3, 16, 17, 64]:
            for _ in range(30):
                v = rng.normal(size=n) * 10.0 ** rng.integers(-200, 200, size=n)
                if n:
                    v[rng.integers(0, n, size=rng.integers(0, 3))] = rng.choice(specials)
                with np.errstate(all="ignore"):  # squares of 1e300 overflow either way
                    pairs = ((np.abs(v).max(initial=0.0), np.linalg.norm(v, ord=np.inf)),
                             (math.sqrt(float(v @ v)), np.linalg.norm(v)))
                for ours, theirs in pairs:
                    ours, theirs = float(ours), float(theirs)
                    assert bits(ours) == bits(theirs) or (math.isnan(ours) and math.isnan(theirs))

    @pytest.mark.parametrize("n", [7, 16], ids=["alignment", "retarget"])
    def test_two_loop_matches_reference_bit_for_bit(self, n, rng):
        # n = 7 is an alignment solve's, n = 16 the 16-DoF hand's retarget solve
        for _ in range(300):
            scale = 10.0 ** rng.integers(-6, 6, size=3)
            memory = []
            for _ in range(rng.integers(0, solver.LBFGS_MEMORY + 1)):
                s = rng.normal(size=n) * scale[0]
                y = rng.normal(size=n) * scale[1]
                memory.append((s, y, 1.0 / float(s @ y)))
            g = rng.normal(size=n) * scale[2]
            ours = solver._two_loop(g, memory)
            assert ours.tobytes() == reference_two_loop(g, memory).tobytes()

    def test_zero_dof_problem_converges_at_start(self):
        problem = BoxProblem(lower=np.zeros(0), upper=np.zeros(0),
                             objective=lambda x: 1.5, gradient=lambda x: np.zeros(0))
        report = minimize_box(problem, np.zeros(0))
        assert (report.iterations, report.termination, report.f_star) == (0, "gradient-tol", 1.5)

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            minimize_box(quadratic_problem(np.zeros(3)), np.zeros(2))

    def test_bound_validation(self):
        with pytest.raises(InvalidArgumentError):
            fd_problem(np.array([1.0]), np.array([0.0]), lambda x: 0.0)


class TestForwardTrackingGate:
    """Forward tracking runs only where the quadratic through f, the
    projected slope g.s and the Armijo-accepted value f_new has its
    minimizer at twice the accepted step or beyond."""

    @staticmethod
    def first_iteration_points(k):
        # f = k/2 (x - 2)^2 from 0: the first step -g lands at 2k, and the
        # model, exact for a quadratic, has its minimizer at t = 1/k steps
        problem = BoxProblem(lower=np.array([-10.0]), upper=np.array([10.0]),
                             objective=lambda x: float(0.5 * k * (x[0] - 2.0) ** 2),
                             gradient=lambda x: np.array([k * (x[0] - 2.0)]))
        problem, points, _ = recorded(problem)
        report = minimize_box(problem, np.array([0.0]), SolverOptions(max_iters=1))
        return [float(p[0]) for p in points], report

    def test_no_forward_trial_when_the_accepted_point_is_the_minimizer(self):
        # the full step lands on the minimizer; the ungated search would
        # then try x = 4 and refuse it
        points, report = self.first_iteration_points(1.0)
        assert points == [0.0, 2.0]
        assert (report.objective_evals, report.rejected_forward) == (2, 0)

    def test_no_forward_trial_when_the_model_minimizer_is_short_of_twice_the_step(self):
        points, report = self.first_iteration_points(0.6)
        assert points == [0.0, 1.2]
        assert report.rejected_forward == 0

    @pytest.mark.parametrize("k, trials", [(0.5, [1.0, 2.0, 4.0]),
                                           (0.25, [0.5, 1.0, 2.0, 4.0])],
                             ids=["at-twice-the-step", "beyond"])
    def test_doubles_as_the_ungated_search_when_the_model_minimizer_is_at_twice_the_step(
            self, k, trials):
        # the trial points of the search without the gate: the full step
        # accepted, then doubled while the value falls and refused once
        points, report = self.first_iteration_points(k)
        assert points == [0.0] + trials
        assert (report.objective_evals, report.rejected_forward) == (len(points), 1)

    def test_non_negative_slope_forward_tracks(self):
        # the gradient claims a descent at the minimizer x = 1, so every
        # trial rises until the step 2^-53 rounds back onto x: a zero step
        # with slope g.s = -0.0 is accepted. The model has no descent
        # minimizer there, the gate holds (f_new <= f) and the doubled step
        # is tried, as without the gate
        problem = BoxProblem(
            lower=np.array([-2.0]), upper=np.array([2.0]),
            objective=lambda x: float((x[0] - 1.0) ** 2),
            gradient=lambda x: np.array([2.0 * (x[0] - 1.0) if x[0] != 1.0 else -1.0]))
        problem, points, _ = recorded(problem)
        report = minimize_box(problem, np.array([1.0]))
        assert [float(p[0]) for p in points[-2:]] == [1.0, 1.0 + 2.0 ** -52]
        assert (report.iterations, report.termination) == (1, "step-tol")
        assert (report.objective_evals, report.rejected_backtracks,
                report.rejected_forward) == (len(points), 53, 1)

    def test_rosenbrock_objective_evaluations(self):
        # from (-1.2, 1) the ungated search makes 100 objective evaluations
        # and 33 iterations
        problem, points, gradients = recorded(rosenbrock_problem())
        report = minimize_box(problem, np.array([-1.2, 1.0]))
        assert report.converged
        assert report.objective_evals == len(points) <= 76
        assert report.gradient_evals == len(gradients) == report.iterations + 1


class TestSolveReportCounts:
    def test_memory_reset_is_counted(self):
        # a gradient that lies at the minimizer x = 0 fails the second line
        # search with a curvature pair in memory, and the steepest-descent
        # retry fails too: 67 halvings from 1 to below 1e-20 each time
        problem = BoxProblem(
            lower=np.array([-2.0]), upper=np.array([2.0]),
            objective=lambda x: float(x[0] ** 2),
            gradient=lambda x: np.array([2.0 * x[0] if x[0] != 0.0 else -1.0]))
        problem, points, gradients = recorded(problem)
        report = minimize_box(problem, np.array([1.0]))
        assert (report.iterations, report.termination, report.resets) == (1, "step-tol", 1)
        assert report.objective_evals == len(points) == 1 + 2 + 67 + 67
        assert report.gradient_evals == len(gradients) == 2
        assert (report.rejected_backtracks, report.rejected_forward) == (1 + 67 + 67, 0)

    def test_counts_are_deterministic(self):
        problem = rosenbrock_problem()
        a = minimize_box(problem, np.array([-1.2, 1.0]))
        b = minimize_box(problem, np.array([-1.2, 1.0]))
        assert a.x_star.tobytes() == b.x_star.tobytes()
        a.x_star = b.x_star = None
        assert a == b


def scaled_quadratic(target):
    """0.5 sum h_i (x_i - a_i)^2 on [-2, 2]^4, curvatures spread 100-fold."""
    h = np.array([1.0, 10.0, 100.0, 3.0])
    a = np.asarray(target, dtype=float)
    return BoxProblem(lower=np.full(4, -2.0), upper=np.full(4, 2.0),
                      objective=lambda x: float(0.5 * (h * (x - a) ** 2).sum()),
                      gradient=lambda x: h * (x - a))


class TestWarmStart:
    """A solve starts from the curvature pairs an earlier solve returned."""

    first = np.array([0.3, -0.7, 1.1, 0.2])
    second = first + np.array([0.05, -0.02, 0.03, 0.01])

    def earlier(self):
        return minimize_box(scaled_quadratic(self.first), np.zeros(4))

    def test_cold_solve_starts_without_pairs_and_returns_its_memory(self):
        report = self.earlier()
        assert report.warm_pairs == 0
        assert 0 < len(report.pairs) <= solver.LBFGS_MEMORY
        for s, y, rho in report.pairs:
            assert s.shape == y.shape == (4,) and rho == 1.0 / float(s @ y) > 0.0

    def test_pairs_of_a_related_solve_take_no_more_iterations(self):
        earlier = self.earlier()
        problem = scaled_quadratic(self.second)
        cold = minimize_box(problem, earlier.x_star)
        warm = minimize_box(problem, earlier.x_star, pairs=earlier.pairs)
        assert cold.converged and warm.converged
        assert warm.warm_pairs == len(earlier.pairs)
        np.testing.assert_allclose(warm.x_star, self.second, atol=1e-8)
        assert warm.iterations <= cold.iterations
        assert warm.objective_evals <= cold.objective_evals

    def test_same_pairs_give_bit_identical_reports_and_stay_unchanged(self):
        pairs = self.earlier().pairs
        before = [(s.tobytes(), y.tobytes(), rho) for s, y, rho in pairs]
        problem = scaled_quadratic(self.second)
        a = minimize_box(problem, np.zeros(4), pairs=pairs)
        b = minimize_box(problem, np.zeros(4), pairs=pairs)
        assert [(s.tobytes(), y.tobytes(), rho) for s, y, rho in pairs] == before
        assert a.x_star.tobytes() == b.x_star.tobytes()
        assert [(s.tobytes(), y.tobytes(), rho) for s, y, rho in a.pairs] == \
            [(s.tobytes(), y.tobytes(), rho) for s, y, rho in b.pairs]
        a.x_star = b.x_star = None
        assert a == b

    @pytest.mark.parametrize("which", ["s", "y"])
    def test_pair_length_must_match_x0(self, which):
        s, y, rho = self.earlier().pairs[-1]
        short = (s[:3], y, rho) if which == "s" else (s, y[:3], rho)
        with pytest.raises(InvalidArgumentError, match="curvature pair"):
            minimize_box(scaled_quadratic(self.second), np.zeros(4), pairs=[short])

    @pytest.mark.parametrize("y", [np.zeros(4), np.full(4, np.nan)], ids=["zero", "nan"])
    def test_newest_pair_needs_positive_y_dot_y(self, y):
        # the two-loop scaling s.y / y.y divided by zero: ZeroDivisionError
        s = self.earlier().pairs[-1][0]
        with pytest.raises(InvalidArgumentError, match="newest curvature pair's y.y"):
            minimize_box(scaled_quadratic(self.second), np.zeros(4), pairs=[(s, y, 1.0)])

    def test_older_pairs_get_only_the_length_check(self):
        # only the newest pair's y.y is a divisor, so an older pair with
        # y = 0 is taken as handed in
        pairs = self.earlier().pairs
        report = minimize_box(scaled_quadratic(self.second), np.zeros(4),
                              pairs=((pairs[-1][0], np.zeros(4), 1.0),) + pairs[-1:])
        assert report.warm_pairs == 2 and report.converged

    def test_failed_line_search_clears_the_carried_pairs(self):
        # at the minimizer x = 0 the gradient lies, -1: the carried pair's
        # step and the steepest-descent retry both find no lower point
        # (67 halvings from 1 to below 1e-20 each)
        problem = BoxProblem(
            lower=np.array([-2.0]), upper=np.array([2.0]),
            objective=lambda x: float(x[0] ** 2),
            gradient=lambda x: np.array([2.0 * x[0] if x[0] != 0.0 else -1.0]))
        pair = (np.array([1.0]), np.array([2.0]), 0.5)
        report = minimize_box(problem, np.array([0.0]), pairs=[pair])
        assert (report.warm_pairs, report.resets, report.pairs) == (1, 1, ())
        assert (report.iterations, report.termination) == (0, "step-tol")
        assert report.objective_evals == 1 + 67 + 67


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
        fd = fd_gradient(rows(f), x, 1e-6)
        np.testing.assert_allclose(fd, np.cos(x) * a, atol=1e-8)
