"""Damped least-squares (Levenberg-Marquardt) engine and closed-form linear fits.

The LM driver calls model(p) -> (r, J), a residual vector (whitened by the
caller when measurement sigmas are known) and its analytic Jacobian, once per
trial point; the J of a rejected trial is dropped unread.  Each step
solves (J^T J + S + lambda diag(J^T J)) s = -J^T r, where S is a secant
estimate of the large-residual term sum_i r_i hess(r_i) of the Hessian that
Gauss-Newton leaves out: the structured Dennis-Gay-Welsch update of NL2SOL
(Dennis, Gay & Welsch 1981, ACM TOMS 7, 348), here applied to the reduced
problem of a variable-projection fit (Golub & Pereyra 2003, Inverse Problems
19, R1).  S starts at zero, so a zero-residual problem is plain LM; where the
residual is large, Gauss-Newton alone converges only linearly.

A fit converges on one of two tests, which the result names as its stop.
"decrease": the undamped Gauss-Newton step predicts a cost drop of at most
COST_RTOL of the cost, 0.5 g^T (J^T J)^-1 g <= COST_RTOL cost with g = J^T r,
tested before each step (MINUIT's EDM, James & Roos 1975; MINPACK's ftol).
"precision": no damped step above working precision, max_i |s_i| / max(|p_i|, 1)
>= 1e-14, lowers the cost; tested on every trial step.  Running out of
iterations, a non-finite Jacobian (or J^T J) or an overflowing damping raises
ConvergenceError carrying the last iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = ["LMResult", "levenberg_marquardt", "LeastSquaresFit", "LinearFit",
           "weighted_linear_fit"]

LM_MAX_ITER = 200  # accepted-step budget of every production fit
LAMBDA0 = 1e-3     # initial damping
COST_RTOL = 1e-10  # the decrease test, see the module docstring


@dataclass
class LeastSquaresFit:
    """What every fit reports besides its parameter values."""

    covariance: np.ndarray | None  # in the order of the fitted parameters; see _covariance
    residual_norm: float      # ||r|| at the solution, weighted when sigmas are given
    dof: int                  # points - fitted parameters
    condition: float          # cond(J^T J), or cond(X^T W X) of a linear fit

    @property
    def stderr(self) -> np.ndarray | None:
        """sqrt of the covariance diagonal; None without a covariance."""
        return None if self.covariance is None else np.sqrt(np.diag(self.covariance))


@dataclass
class LMResult:
    params: np.ndarray
    residual_norm: float      # ||r|| at params
    jtj: np.ndarray           # J^T J at params
    iterations: int           # accepted steps
    stop: str                 # "decrease" or "precision", see the module docstring


def _covariance(jtj, chi2, n_points):
    """(covariance, condition) of a fit, the one rule for when a fit has an
    uncertainty (Bevington & Robinson 2003, ch. 6-8): s^2 (J^T J)^-1 with s^2 =
    chi2 / dof, also for raw residuals; None without degrees of freedom, at
    cond(J^T J) >= 1/eps (the inverse is round-off) or with a negative or
    non-finite variance.  A non-finite J^T J has condition inf (LAPACK prints on it)."""
    condition = float(np.linalg.cond(jtj)) if np.isfinite(jtj).all() else math.inf
    if n_points <= len(jtj) or condition >= 1.0 / np.finfo(float).eps:
        return None, condition
    cov = chi2 / (n_points - len(jtj)) * np.linalg.inv(jtj)
    return (cov if np.isfinite(cov).all() and np.diag(cov).min() >= 0.0 else None), condition


def _secant_update(secant, step, y, y_sharp):
    """Dennis-Gay-Welsch update of S ~ sum_i r_i hess(r_i) after the step s,
    with y the change of the gradient J^T r and y_sharp = (J_new - J)^T r_new:
    S is first sized by min(1, |s.y_sharp| / |s.S s|), then
    S += [w y^T + y w^T] / (y.s) - (w.s) y y^T / (y.s)^2 with w = y_sharp - S s,
    which is S += u y^T + y u^T with u = [w - (w.s) y / (2 y.s)] / (y.s).
    Skipped when y.s <= 0."""
    ys = float(y @ step)
    if ys <= 0.0:
        return secant
    s_s = secant @ step
    curvature = float(step @ s_s)
    if curvature != 0.0:
        tau = min(1.0, abs(float(step @ y_sharp)) / abs(curvature))
        secant, s_s = tau * secant, tau * s_s
    w = y_sharp - s_s
    u_yt = np.outer((w - (0.5 * float(w @ step) / ys) * y) / ys, y)
    return secant + u_yt + u_yt.T


def levenberg_marquardt(model, x0) -> LMResult:
    """Minimize 0.5 ||r(p)||^2 from x0 by the steps of the module docstring,
    until its decrease or precision test ends the fit; model(p) returns the
    float arrays (r, J) and is called once per trial point.
    """
    p = np.asarray(x0, dtype=float).copy()
    r, jac = model(p)
    cost = 0.5 * float(r @ r)
    lam = LAMBDA0

    def derivatives(p, r, jac):
        """J^T J and the gradient at p; ConvergenceError unless finite."""
        jtj = jac.T @ jac
        # the diagonal of J^T J holds the squared column norms of J, so J^T J
        # is finite only if J is
        if not np.isfinite(jtj).all():
            raise ConvergenceError(f"non-finite Jacobian or J^T J at iterate {p.tolist()}",
                                   last=p.copy())
        return jtj, jac.T @ r

    def result(steps, stop):
        return LMResult(p, math.sqrt(2.0 * cost), jtj, steps, stop)

    jtj, grad = derivatives(p, r, jac)
    secant = np.zeros((p.size, p.size))
    for steps in range(LM_MAX_ITER):
        try:
            if 0.5 * float(grad @ np.linalg.solve(jtj, grad)) <= COST_RTOL * cost:
                return result(steps, "decrease")
        except np.linalg.LinAlgError:  # singular J^T J: no Gauss-Newton step to test
            pass
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = max(diag.max(), 1e-30)
        scale = np.maximum(np.abs(p), 1.0)
        hessian = jtj + secant
        while lam < math.inf:
            try:
                step = np.linalg.solve(hessian + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            negligible = float(np.max(np.abs(step) / scale)) < 1e-14
            p_new = p + step
            r_new, jac_new = model(p_new)
            cost_new = 0.5 * float(r_new @ r_new)
            if cost_new < cost:
                break
            if negligible:
                return result(steps, "precision")
            lam *= 10.0
        else:
            raise ConvergenceError(f"damping overflowed at cost {cost:.6e}", last=p)
        p, r, cost = p_new, r_new, cost_new
        lam = max(lam / 3.0, 1e-12)
        jtj, grad_new = derivatives(p, r, jac_new)
        if negligible:
            return result(steps + 1, "precision")
        secant = _secant_update(secant, step, grad_new - grad, (jac_new - jac).T @ r)
        jac, grad = jac_new, grad_new

    raise ConvergenceError(f"no convergence within {LM_MAX_ITER} iterations (cost {cost:.6e})",
                           last=p)


@dataclass
class LinearFit(LeastSquaresFit):
    intercept: float
    slope: float


def weighted_linear_fit(x, y, sigma=None) -> LinearFit:
    """Closed-form (weighted) ordinary least squares y = intercept + slope x.

    Standard errors come from the residual variance: cov = (X^T W X)^-1 chi2_red,
    by _covariance, so an exact two-point fit has none.  A NaN or infinite x, y
    or sigma is a DomainError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise DomainError("need at least two (x, y) points")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DomainError("x and y must be finite")
    if np.all(x == x[0]):
        raise DomainError("all abscissas equal: rank-deficient linear fit")
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)
        if not np.all((sigma > 0) & np.isfinite(sigma)):
            raise DomainError("sigmas must be positive and finite")
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
    cov, condition = _covariance(normal, chi2, x.size)
    return LinearFit(intercept=float(beta[0]), slope=float(beta[1]), covariance=cov,
                     residual_norm=math.sqrt(chi2), dof=x.size - 2, condition=condition)
