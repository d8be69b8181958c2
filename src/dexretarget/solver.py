"""Deterministic box-constrained smooth minimization.

A projected quasi-Newton method (limited-memory secant pairs, projected
Armijo backtracking) used by every optimization stage. All arithmetic is
plain float64 numpy in a fixed order, so identical inputs produce
bit-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidArgumentError, LineSearchError, SolverStartError

ARMIJO_C = 1e-4
LBFGS_MEMORY = 10


def check_iteration_count(name: str, value) -> None:
    """Reject an iteration count that is not an integer >= 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InvalidArgumentError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass
class SolverOptions:
    grad_tol: float = 1e-8
    step_tol: float = 1e-10
    max_iters: int = 200
    fd_eps: float = 1e-6

    def __post_init__(self):
        if self.grad_tol < 0 or self.step_tol < 0:
            raise InvalidArgumentError("tolerances must be non-negative")
        if self.fd_eps <= 0:
            raise InvalidArgumentError("fd_eps must be positive")
        check_iteration_count("max_iters", self.max_iters)


@dataclass
class BoxProblem:
    """Smooth objective on a box with its gradient."""

    lower: np.ndarray
    upper: np.ndarray
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise InvalidArgumentError("bounds must be 1-D arrays of equal length")
        if np.any(self.lower > self.upper):
            raise InvalidArgumentError("lower bound exceeds upper bound")


@dataclass
class SolveReport:
    x_star: np.ndarray
    f_star: float
    iterations: int
    converged: bool
    termination: str  # gradient-tol | step-tol | max-iters


def central_differences(f_batch: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                        h) -> np.ndarray:
    """Central differences (f(x + h_i e_i) - f(x - h_i e_i)) / (2 h_i).

    All 2n stencil points are evaluated in one ``f_batch`` call on a
    (2n, n) array whose rows 2i and 2i + 1 step component i up and down.
    Scalar values per row give the (n,) gradient; (m,)-vector values give
    the (m, n) Jacobian.
    """
    n = x.shape[0]
    stencil = np.repeat(x[None, :], 2 * n, axis=0)
    idx = np.arange(n)
    stencil[2 * idx, idx] += h
    stencil[2 * idx + 1, idx] -= h
    f = f_batch(stencil)
    return (f[2 * idx] - f[2 * idx + 1]).T / (2.0 * h)


def fd_gradient(f_batch: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                eps: float) -> np.ndarray:
    """Central finite differences with per-component step eps * max(1, |x_i|)."""
    x = np.asarray(x, dtype=float)
    return central_differences(f_batch, x, eps * np.maximum(1.0, np.abs(x)))


def batch_objective(f: Callable[[np.ndarray], float]) -> Callable[[np.ndarray], np.ndarray]:
    """Lift a scalar objective to a batch objective, one row at a time."""
    return lambda xs: np.array([f(x) for x in xs], dtype=float)


def batch_problem(lower, upper, f_batch: Callable[[np.ndarray], np.ndarray],
                  eps: float) -> BoxProblem:
    """Box problem of a batch objective: the objective is its one-row view
    and the gradient its finite differences (all stencil rows in one call)."""
    return BoxProblem(
        lower=lower, upper=upper,
        objective=lambda x: float(f_batch(np.asarray(x, dtype=float)[None, :])[0]),
        gradient=lambda x: fd_gradient(f_batch, x, eps),
    )


def _two_loop(g: np.ndarray, memory: list) -> np.ndarray:
    """L-BFGS two-loop recursion; H0 = gamma I from the newest pair."""
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


def minimize_box(problem: BoxProblem, x0, opts: Optional[SolverOptions] = None) -> SolveReport:
    """Minimize the problem objective over its box from x0 (projected in).

    Accepted iterates are feasible and monotonically non-increasing in
    objective value. Non-finite trial values reject the step and halve it;
    LineSearchError is raised only when no finite step exists at all.
    """
    if opts is None:
        opts = SolverOptions()
    lo, hi = problem.lower, problem.upper
    x = np.asarray(x0, dtype=float)
    if x.shape != lo.shape:
        raise InvalidArgumentError(f"x0 length {x.shape} does not match bounds {lo.shape}")
    x = np.clip(x, lo, hi)

    f = float(problem.objective(x))
    if not np.isfinite(f):
        raise SolverStartError(f"objective is non-finite at the start point: {f}")
    g = np.asarray(problem.gradient(x), dtype=float)

    memory: list = []
    iterations = 0
    stale = 0
    termination = "max-iters"
    converged = False

    for _ in range(opts.max_iters):
        pg = x - np.clip(x - g, lo, hi)
        if float(np.linalg.norm(pg, ord=np.inf)) <= opts.grad_tol:
            termination = "gradient-tol"
            converged = True
            break

        d = _two_loop(g, memory)
        if not np.all(np.isfinite(d)) or float(d @ g) >= 0.0:
            directions = [-g]
        else:
            directions = [d, -g]

        x_new = None
        f_new = None
        saw_finite = False
        for direction in directions:
            alpha = 1.0
            while alpha >= 1e-20:
                cand = np.clip(x + alpha * direction, lo, hi)
                fc = float(problem.objective(cand))
                if np.isfinite(fc):
                    saw_finite = True
                    slope = float(g @ (cand - x))
                    if fc <= f + ARMIJO_C * min(slope, 0.0) and fc <= f:
                        x_new, f_new = cand, fc
                        break
                alpha *= 0.5
            if x_new is not None:
                # forward tracking: grow the step while it keeps strictly
                # improving (cheap escape from creeping short steps)
                while alpha < 2.0 ** 20:
                    cand = np.clip(x + 2.0 * alpha * direction, lo, hi)
                    fc = float(problem.objective(cand))
                    if np.isfinite(fc) and fc < f_new:
                        alpha *= 2.0
                        x_new, f_new = cand, fc
                    else:
                        break
                break
        if x_new is None:
            if not saw_finite:
                raise LineSearchError("no finite step exists along the search direction")
            if memory:
                # stale curvature pairs can produce degenerate directions;
                # retry from a clean slate before declaring convergence
                memory.clear()
                stale = 0
                continue
            # numerically stalled: no lower point found at any step size
            termination = "step-tol"
            converged = True
            break

        iterations += 1
        g_new = np.asarray(problem.gradient(x_new), dtype=float)
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if np.all(np.isfinite(y)) and sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            memory.append((s, y, 1.0 / sy))
            if len(memory) > LBFGS_MEMORY:
                memory.pop(0)
            stale = 0
        else:
            stale += 1
            if stale >= 4:
                # repeated curvature failures mean the stored pairs no
                # longer describe the local model; restart
                memory.clear()
                stale = 0

        step = float(np.linalg.norm(s))
        x, f, g = x_new, f_new, g_new
        if step <= opts.step_tol:
            if memory:
                memory.clear()
                stale = 0
                continue
            termination = "step-tol"
            converged = True
            break

    return SolveReport(
        x_star=np.clip(x, lo, hi),
        f_star=f,
        iterations=iterations,
        converged=converged,
        termination=termination,
    )


def check_gradient(problem: BoxProblem, x, fd_eps: float = 1e-5) -> float:
    """Max relative error between the supplied gradient and central
    finite differences at x. Denominators are guarded so an identically
    zero gradient reports 0."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(problem.gradient(x), dtype=float)
    fd = fd_gradient(batch_objective(problem.objective), x, fd_eps)
    scale = float(np.max(np.abs(fd))) if fd.size else 0.0
    denom = np.maximum(np.abs(fd), np.maximum(1e-3 * scale, 1e-12))
    return float(np.max(np.abs(g - fd) / denom))
