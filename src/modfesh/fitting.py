"""Damped least-squares (Levenberg-Marquardt) engine and closed-form linear fits.

The LM driver works on a residual vector r(p) (already whitened by the caller
when measurement sigmas are known) and its analytic Jacobian.

Convergence is declared on a scale-invariant gradient test,
max_i |g_i| max(|p_i|, 1) <= GRAD_TOL * max(1, cost), on a machine-precision
step stall or on a step lowering the cost by at most COST_RTOL of it;
running out of iterations, or a Jacobian (or J^T J) with a NaN or inf
entry, raises ConvergenceError carrying the last iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = ["LMResult", "levenberg_marquardt", "LinearFit", "weighted_linear_fit"]

LM_MAX_ITER = 200  # iteration budget of every production fit

GRAD_TOL = 1e-10   # scale-invariant gradient test, see the module docstring
LAMBDA0 = 1e-3     # initial damping
# MINPACK's ftol (More 1978): ends the large-residual fits whose J^T J overstates
# the curvature, which otherwise crawl linearly along a valley to max_iter
COST_RTOL = 1e-10


@dataclass
class LMResult:
    params: np.ndarray
    covariance: np.ndarray
    residual_norm: float      # ||r|| at the solution
    iterations: int
    gradient_norm: float      # scale-invariant gradient measure at exit
    condition: float          # cond(J^T J) at the solution


def _covariance(jtj, residual_norm, n_points, n_params):
    dof = max(n_points - n_params, 1)
    s2 = residual_norm ** 2 / dof
    try:
        cov = s2 * np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = s2 * np.linalg.pinv(jtj)
    return cov, float(np.linalg.cond(jtj))


def levenberg_marquardt(residual, x0, jacobian, *, max_iter: int = LM_MAX_ITER) -> LMResult:
    """Minimize 0.5 ||r(p)||^2 from x0; returns parameters and covariance.

    The covariance is s^2 (J^T J)^-1 with s^2 the reduced chi-square, so it is
    meaningful both for whitened residuals (s ~ 1) and raw ones.
    """
    p = np.asarray(x0, dtype=float).copy()
    r = np.asarray(residual(p), dtype=float)
    cost = 0.5 * float(r @ r)
    lam = LAMBDA0
    n_points = r.size

    def derivatives(p, r):
        """J^T J, gradient and gradient measure at p; ConvergenceError unless finite."""
        jac = np.asarray(jacobian(p), dtype=float)
        jtj = jac.T @ jac
        # the diagonal of J^T J holds the squared column norms of J, so J^T J
        # is finite only if J is
        if not np.isfinite(jtj).all():
            raise ConvergenceError(
                f"non-finite Jacobian or J^T J at iterate {p.tolist()}",
                last=p.copy(), diagnostics={"cost": cost})
        grad = jac.T @ r
        return jtj, grad, float(np.max(np.abs(grad) * np.maximum(np.abs(p), 1.0)))

    for iteration in range(1, max_iter + 1):
        jtj, grad, grad_measure = derivatives(p, r)
        if grad_measure <= GRAD_TOL * max(1.0, cost):
            cov, cond = _covariance(jtj, math.sqrt(2.0 * cost), n_points, p.size)
            return LMResult(p, cov, math.sqrt(2.0 * cost), iteration, grad_measure, cond)

        diag = np.diag(jtj).copy()
        diag[diag <= 0] = max(diag.max(), 1e-30)
        scale = np.maximum(np.abs(p), 1.0)
        while lam < 1e14:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_new = p + step
            r_new = np.asarray(residual(p_new), dtype=float)
            cost_new = 0.5 * float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new < cost:
                stalled = (float(np.max(np.abs(step) / scale)) < 1e-14
                           or cost - cost_new <= COST_RTOL * cost)
                p, r, cost = p_new, r_new, cost_new
                lam = max(lam / 3.0, 1e-12)
                if stalled:
                    jtj, grad, grad_measure = derivatives(p, r)
                    cov, cond = _covariance(jtj, math.sqrt(2.0 * cost), n_points, p.size)
                    return LMResult(p, cov, math.sqrt(2.0 * cost), iteration, grad_measure, cond)
                break
            lam *= 10.0
        else:
            # damping maxed out with no acceptable step: the iterate is
            # stationary to working precision, return it (MINPACK-style)
            cov, cond = _covariance(jtj, math.sqrt(2.0 * cost), n_points, p.size)
            return LMResult(p, cov, math.sqrt(2.0 * cost), iteration, grad_measure, cond)

    raise ConvergenceError(
        f"no convergence within {max_iter} iterations "
        f"(gradient measure {grad_measure:.3e}, cost {cost:.6e})",
        last=p, diagnostics={"cost": cost, "gradient": grad_measure})


@dataclass
class LinearFit:
    intercept: float
    slope: float
    intercept_stderr: float
    slope_stderr: float
    covariance: np.ndarray
    residual_norm: float


def weighted_linear_fit(x, y, sigma=None) -> LinearFit:
    """Closed-form (weighted) ordinary least squares y = intercept + slope x.

    Standard errors come from the residual variance: cov = (X^T W X)^-1 chi2_red.
    With n == 2 points the fit is exact and the errors are zero.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise DomainError("need at least two (x, y) points")
    if np.all(x == x[0]):
        raise DomainError("all abscissas equal: rank-deficient linear fit")
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)
        if np.any(sigma <= 0):
            raise DomainError("sigmas must be positive")
        w = 1.0 / sigma ** 2
    else:
        w = np.ones_like(x)
    design = np.column_stack([np.ones_like(x), x])
    xtw = design.T * w
    normal = xtw @ design
    try:
        cov_unscaled = np.linalg.inv(normal)
    except np.linalg.LinAlgError:
        raise DomainError("rank-deficient linear fit") from None
    beta = cov_unscaled @ (xtw @ y)
    residuals = y - design @ beta
    chi2 = float(residuals @ (w * residuals))
    dof = x.size - 2
    chi2_red = chi2 / dof if dof > 0 else 0.0
    cov = cov_unscaled * chi2_red
    err = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return LinearFit(intercept=float(beta[0]), slope=float(beta[1]),
                     intercept_stderr=float(err[0]), slope_stderr=float(err[1]),
                     covariance=cov, residual_norm=math.sqrt(chi2))
