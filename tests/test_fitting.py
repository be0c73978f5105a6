import numpy as np
import pytest

from modfesh.errors import ConvergenceError, DomainError
from modfesh.fitting import levenberg_marquardt, weighted_linear_fit


def exponential_problem(noise=0.0, seed=0):
    x = np.linspace(0, 4, 40)
    true = np.array([2.3, 0.7, 0.4])

    def model(p):
        return p[0] * np.exp(-p[1] * x) + p[2]

    y = model(true)
    if noise:
        y = y + np.random.default_rng(seed).normal(0, noise, y.size)

    def residual(p):
        return model(p) - y

    def jacobian(p):
        jac = np.empty((x.size, 3))
        e = np.exp(-p[1] * x)
        jac[:, 0] = e
        jac[:, 1] = -p[0] * x * e
        jac[:, 2] = 1.0
        return jac

    return residual, jacobian, true


class TestLevenbergMarquardt:
    def test_noiseless_recovery_analytic_jacobian(self):
        residual, jacobian, true = exponential_problem()
        res = levenberg_marquardt(residual, [1.0, 1.0, 0.0], jacobian)
        assert res.params == pytest.approx(true, rel=1e-9)
        assert res.residual_norm < 1e-10

    def test_noisy_covariance_scale(self):
        residual, jacobian, true = exponential_problem(noise=0.01, seed=5)
        res = levenberg_marquardt(residual, true * 1.3, jacobian)
        err = np.sqrt(np.diag(res.covariance))
        # recovered within a few standard errors, errors of sane magnitude
        assert np.all(np.abs(res.params - true) < 5 * err)
        assert np.all(err < 0.1)

    def test_iteration_budget_error_carries_last(self):
        residual, jacobian, _ = exponential_problem()
        with pytest.raises(ConvergenceError) as err:
            levenberg_marquardt(residual, [50.0, 20.0, -30.0], jacobian, max_iter=2)
        assert err.value.last is not None
        assert len(err.value.last) == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_jacobian_raises(self, bad):
        def residual(p):
            return np.array([p[0] - 1.0, p[1] - 2.0, p[0] * p[1]])

        def jacobian(p):
            return np.array([[1.0, 0.0], [0.0, 1.0], [bad, 1.0]])

        with pytest.raises(ConvergenceError) as err:
            levenberg_marquardt(residual, [0.5, 0.5], jacobian)
        assert err.value.last == pytest.approx([0.5, 0.5])

    def test_linear_problem_one_step(self):
        x = np.linspace(0, 1, 10)
        y = 3 * x + 1
        ones = np.ones_like(x)

        def residual(p):
            return p[0] * x + p[1] - y

        res = levenberg_marquardt(residual, [0.0, 0.0], lambda p: np.column_stack([x, ones]))
        assert res.params == pytest.approx([3.0, 1.0], rel=1e-10)


class TestWeightedLinearFit:
    def test_exact_line(self):
        x = np.array([0.2, 0.5, 0.9, 1.4])
        fit = weighted_linear_fit(x, 5.0 - 2.0 * x)
        assert fit.intercept == pytest.approx(5.0, rel=1e-12)
        assert fit.slope == pytest.approx(-2.0, rel=1e-12)
        assert fit.intercept_stderr == pytest.approx(0.0, abs=1e-9)
        assert fit.residual_norm == pytest.approx(0.0, abs=1e-9)

    def test_weights_downweight_outlier(self):
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([1.0, 2.0, 13.0])      # last point is an outlier
        sig = np.array([0.01, 0.01, 10.0])
        fit = weighted_linear_fit(x, y, sig)
        # closed-form weighted OLS pulls the line to the two tight points
        assert fit.intercept == pytest.approx(1.0, abs=1e-3)
        assert fit.slope == pytest.approx(1.0, abs=2e-3)

    def test_rank_deficient(self):
        with pytest.raises(DomainError):
            weighted_linear_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_two_points_exact(self):
        fit = weighted_linear_fit([0.0, 1.0], [4.0, 6.0])
        assert fit.intercept == pytest.approx(4.0)
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept_stderr == 0.0
