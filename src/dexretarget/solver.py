"""Deterministic box-constrained smooth minimization.

A projected quasi-Newton method used by every optimization stage. Each
iteration takes one search direction: the L-BFGS two-loop step restricted
to the free variables, those not held on a bound by a gradient that
points out of the box (projected Newton, Bertsekas 1982; the free-set
step of L-BFGS-B, Byrd, Lu, Nocedal & Zhu 1995). A projected Armijo
backtracking search picks the step length. Forward tracking then doubles
it while the value keeps falling, but only where the quadratic through
the value, the slope and the accepted value puts its minimizer at twice
the step or beyond (the interpolation step of Nocedal & Wright,
*Numerical Optimization*, §3.5, used as a test).

A solve can start from the curvature pairs another solve returned, so
that a sequence of related problems (the next frame, or the same frame
with refreshed correspondences) shares its L-BFGS memory: the
limited-memory preconditioning of Morales & Nocedal (*SIAM J. Optim.*
10(4), 2000), with the update of Nocedal & Wright §7.2. The pairs travel
only in arguments and return values. All arithmetic is plain float64
numpy in a fixed order, so identical inputs produce bit-identical
reports, evaluation counts included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

    def __post_init__(self):
        if not (0 <= self.grad_tol < np.inf and 0 <= self.step_tol < np.inf):
            raise InvalidArgumentError("tolerances must be non-negative and finite")
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
        if (self.lower > self.upper).any():
            raise InvalidArgumentError("lower bound exceeds upper bound")


@dataclass
class SolveReport:
    x_star: np.ndarray
    f_star: float
    iterations: int
    converged: bool
    termination: str  # gradient-tol | step-tol | max-iters
    objective_evals: int  # the start point's and every line-search trial's
    gradient_evals: int  # the start point's and one per iteration
    rejected_backtracks: int  # line-search trials refused and halved
    rejected_forward: int  # forward-tracking trials refused
    resets: int  # L-BFGS memory clears after a failed line search
    warm_pairs: int  # curvature pairs the solve started with
    # the final (s, y, 1 / s.y) curvature pairs, oldest first, for a later
    # related solve to start from
    pairs: tuple = field(default=(), compare=False, repr=False)


def fd_gradient(f_batch: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                eps: float) -> np.ndarray:
    """Central differences with per-component step h_i = eps * max(1, |x_i|).

    All 2n stencil points are evaluated in one ``f_batch`` call on a
    (2n, n) array whose rows 2i and 2i + 1 step component i up and down.
    Scalar values per row give the (n,) gradient; (m,)-vector values give
    the (m, n) Jacobian.
    """
    x = np.asarray(x, dtype=float)
    h = eps * np.maximum(1.0, np.abs(x))
    stencil = np.repeat(x[None, :], 2 * len(x), axis=0)
    idx = np.arange(len(x))
    stencil[2 * idx, idx] += h
    stencil[2 * idx + 1, idx] -= h
    f = f_batch(stencil)
    return (f[2 * idx] - f[2 * idx + 1]).T / (2.0 * h)


def _two_loop(g: np.ndarray, memory: list) -> np.ndarray:
    """L-BFGS two-loop recursion; H0 = gamma I from the newest pair."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        a = rho * float(s.dot(q))
        q -= a * y
        alphas.append(a)
    if memory:
        s, y, _ = memory[-1]
        gamma = float(s.dot(y)) / float(y.dot(y))
        q *= gamma
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        b = rho * float(y.dot(q))
        q += (a - b) * s
    return -q


def minimize_box(problem: BoxProblem, x0, opts: Optional[SolverOptions] = None,
                 pairs=()) -> SolveReport:
    """Minimize the problem objective over its box from x0 (projected in).

    A variable is bound when it sits at ``lower`` with g > 0 or at
    ``upper`` with g < 0. The search direction is the two-loop step of g
    with the bound components zeroed before and after the recursion, or
    -g with them zeroed if that step is not a descent direction. Curvature
    pairs span all variables. A pair is kept only when s.y is positive
    beyond rounding.

    ``pairs`` is the L-BFGS memory to start from: the ``pairs`` of an
    earlier solve's report; the newest LBFGS_MEMORY are kept. Empty, the
    solve starts cold. Two checks are made on them, each raising
    InvalidArgumentError: every kept pair's s and y must match x0's
    length, and the newest pair's y.y must be positive, since the two-loop
    step scales by s.y / y.y. The solve's own pair test (y finite, s.y
    positive beyond rounding) is not repeated on them. Once in, they are
    treated as the solve's own pairs: a step they give that is not a
    descent direction falls back to -g, and a failed line search clears
    them. The handed-in pairs are not changed; the report's
    ``pairs`` holds the final memory and ``warm_pairs`` how many pairs the
    solve started with.

    The line search halves from the full step until the projected Armijo
    condition holds. Forward tracking then doubles the accepted step while
    the value strictly falls, and it is tried only when the quadratic
    through f, the projected slope g.s and the accepted value f_new has
    its minimizer at 2 alpha or beyond: when f_new <= f + 3/4 g.s. The
    test is made once, at the Armijo-accepted point. A projected slope
    >= 0 gives the model no descent minimizer; the test then holds, since
    an accepted value never exceeds f, and forward tracking runs as it
    would without the gate.

    Accepted iterates are feasible and monotonically non-increasing in
    objective value. Non-finite trial values reject the step and halve it;
    LineSearchError is raised only when no finite step exists at all. A
    failed line search is retried with the curvature memory cleared.
    The report counts objective and gradient calls, refused trials and
    memory clears.
    """
    if opts is None:
        opts = SolverOptions()
    lo, hi = problem.lower, problem.upper
    x = np.asarray(x0, dtype=float)
    if x.shape != lo.shape:
        raise InvalidArgumentError(f"x0 length {x.shape} does not match bounds {lo.shape}")
    memory = list(pairs)[-LBFGS_MEMORY:]
    for s, y, _ in memory:
        if s.shape != lo.shape or y.shape != lo.shape:
            raise InvalidArgumentError(
                f"curvature pair lengths {s.shape} and {y.shape} do not match x0 {lo.shape}")
    if memory:
        _, y, _ = memory[-1]
        yy = float(y.dot(y))
        if not yy > 0.0:  # NaN fails too
            raise InvalidArgumentError(
                f"the newest curvature pair's y.y is {yy}, not positive")
    warm_pairs = len(memory)
    x = x.clip(lo, hi)

    f = float(problem.objective(x))
    objective_evals = gradient_evals = 1
    rejected_backtracks = rejected_forward = resets = 0
    if not math.isfinite(f):
        raise SolverStartError(f"objective is non-finite at the start point: {f}")
    g = np.asarray(problem.gradient(x), dtype=float)

    iterations = 0
    termination = "max-iters"
    converged = False

    for _ in range(opts.max_iters):
        pg = x - (x - g).clip(lo, hi)
        # |pg|_inf here and the 2-norms of s and y below are the operations
        # np.linalg.norm runs for a 1-D float64 vector, without its
        # dispatch; initial=0.0 keeps a zero-DoF problem's norm at 0
        if float(np.abs(pg).max(initial=0.0)) <= opts.grad_tol:
            termination = "gradient-tol"
            converged = True
            break

        # free-set step: a variable on a bound whose gradient pushes it
        # outward takes no part in the step
        bound = ((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0))
        g_free = np.where(bound, 0.0, g)
        d = np.where(bound, 0.0, _two_loop(g_free, memory))
        if not np.isfinite(d).all() or float(d.dot(g)) >= 0.0:
            d = -g_free

        x_new = f_new = None
        saw_finite = False
        alpha = 1.0
        while alpha >= 1e-20:
            cand = (x + alpha * d).clip(lo, hi)
            fc = float(problem.objective(cand))
            objective_evals += 1
            if math.isfinite(fc):
                saw_finite = True
                slope = float(g.dot(cand - x))
                if fc <= f + ARMIJO_C * min(slope, 0.0) and fc <= f:
                    x_new, f_new = cand, fc
                    break
            rejected_backtracks += 1
            alpha *= 0.5
        if x_new is None:
            if not saw_finite:
                raise LineSearchError("no finite step exists along the search direction")
            if memory:
                # stale curvature pairs can produce degenerate directions;
                # retry from a clean slate before declaring convergence
                memory.clear()
                resets += 1
                continue
            # numerically stalled: no lower point found at any step size
            termination = "step-tol"
            converged = True
            break
        # forward tracking: grow the step while it keeps strictly
        # improving (cheap escape from creeping short steps). For slope < 0
        # the quadratic q(t) = f + t slope + t^2 (f_new - f - slope) through
        # the accepted step t = 1 has its minimizer at t >= 2, or none, exactly
        # when this test holds; otherwise the doubled trial would most likely
        # be refused. A slope >= 0 always passes it, as f_new <= f
        if f_new <= f + 0.75 * slope:
            while alpha < 2.0 ** 20:
                cand = (x + 2.0 * alpha * d).clip(lo, hi)
                fc = float(problem.objective(cand))
                objective_evals += 1
                if math.isfinite(fc) and fc < f_new:
                    alpha *= 2.0
                    x_new, f_new = cand, fc
                else:
                    rejected_forward += 1
                    break

        iterations += 1
        g_new = np.asarray(problem.gradient(x_new), dtype=float)
        gradient_evals += 1
        s = x_new - x
        y = g_new - g
        sy = float(s.dot(y))
        step = math.sqrt(float(s.dot(s)))
        if np.isfinite(y).all() and sy > 1e-12 * step * math.sqrt(float(y.dot(y))):
            memory.append((s, y, 1.0 / sy))
            if len(memory) > LBFGS_MEMORY:
                memory.pop(0)

        x, f, g = x_new, f_new, g_new
        if step <= opts.step_tol:
            termination = "step-tol"
            converged = True
            break

    return SolveReport(
        x_star=x.clip(lo, hi),
        f_star=f,
        iterations=iterations,
        converged=converged,
        termination=termination,
        objective_evals=objective_evals,
        gradient_evals=gradient_evals,
        rejected_backtracks=rejected_backtracks,
        rejected_forward=rejected_forward,
        resets=resets,
        warm_pairs=warm_pairs,
        pairs=tuple(memory),
    )


def check_gradient(problem: BoxProblem, x, fd_eps: float = 1e-5) -> float:
    """Max relative error between the supplied gradient and central
    finite differences at x. Denominators are guarded so an identically
    zero gradient reports 0, as does an empty one."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(problem.gradient(x), dtype=float)
    fd = fd_gradient(lambda xs: np.array([problem.objective(r) for r in xs]), x, fd_eps)
    scale = float(np.max(np.abs(fd), initial=0.0))
    denom = np.maximum(np.abs(fd), np.maximum(1e-3 * scale, 1e-12))
    return float(np.max(np.abs(g - fd) / denom, initial=0.0))
