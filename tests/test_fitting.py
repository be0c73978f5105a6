import numpy as np
import pytest

from modfesh import fitting
from modfesh.errors import ConvergenceError, DomainError
from modfesh.fitting import LeastSquaresFit, _covariance, levenberg_marquardt, weighted_linear_fit


def exponential_problem(noise=0.0, seed=0):
    """model(p) -> (residual, Jacobian) of y = a exp(-k x) + c, and the true p."""
    x = np.linspace(0, 4, 40)
    true = np.array([2.3, 0.7, 0.4])
    y = true[0] * np.exp(-true[1] * x) + true[2]
    if noise:
        y = y + np.random.default_rng(seed).normal(0, noise, y.size)

    def model(p):
        e = np.exp(-p[1] * x)
        jac = np.empty((x.size, 3))
        jac[:, 0] = e
        jac[:, 1] = -p[0] * x * e
        jac[:, 2] = 1.0
        return p[0] * e + p[2] - y, jac

    return model, true


class TestLevenbergMarquardt:
    def test_noiseless_recovery_analytic_jacobian(self):
        model, true = exponential_problem()
        res = levenberg_marquardt(model, [1.0, 1.0, 0.0])
        assert res.params == pytest.approx(true, rel=1e-9)
        assert res.residual_norm < 1e-10

    def test_noisy_covariance_scale(self):
        model, true = exponential_problem(noise=0.01, seed=5)
        res = levenberg_marquardt(model, true * 1.3)
        cov, _ = _covariance(res.jtj, res.residual_norm, 40, 3)   # 40 points, 3 parameters
        err = np.sqrt(np.diag(cov))
        # recovered within a few standard errors, errors of sane magnitude
        assert np.all(np.abs(res.params - true) < 5 * err)
        assert np.all(err < 0.1)

    def test_iteration_budget_error_carries_last(self, monkeypatch):
        model, _ = exponential_problem()
        monkeypatch.setattr(fitting, "LM_MAX_ITER", 2)
        with pytest.raises(ConvergenceError) as err:
            levenberg_marquardt(model, [50.0, 20.0, -30.0])
        assert err.value.last is not None
        assert len(err.value.last) == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_jacobian_raises(self, bad):
        def model(p):
            return (np.array([p[0] - 1.0, p[1] - 2.0, p[0] * p[1]]),
                    np.array([[1.0, 0.0], [0.0, 1.0], [bad, 1.0]]))

        with pytest.raises(ConvergenceError) as err:
            levenberg_marquardt(model, [0.5, 0.5])
        assert err.value.last == pytest.approx([0.5, 0.5])

    def test_linear_problem_one_step(self):
        x = np.linspace(0, 1, 10)
        y = 3 * x + 1
        ones = np.ones_like(x)

        def model(p):
            return p[0] * x + p[1] - y, np.column_stack([x, ones])

        res = levenberg_marquardt(model, [0.0, 0.0])
        assert res.params == pytest.approx([3.0, 1.0], rel=1e-10)

    @pytest.mark.parametrize("noise,start", [(0.0, [1.0, 1.0, 0.0]), (0.01, [1.0, 1.0, 0.0]),
                                             (0.0, [50.0, 20.0, -30.0])],
                             ids=["noiseless", "noisy", "far-start"])
    def test_one_model_call_per_point(self, noise, start):
        """The engine evaluates the model once per trial point: the start, then
        one call per damped step tried, accepted or not."""
        model, _ = exponential_problem(noise=noise, seed=5)
        points = []

        def counted(p):
            points.append(tuple(p))
            return model(p)

        res = levenberg_marquardt(counted, start)
        assert len(points) == len(set(points))
        assert len(points) > res.iterations

    def test_singular_damped_solve_raises_damping(self, monkeypatch):
        """A damped system that LAPACK finds singular is retried with ten times
        the damping, and the fit ends where it ends without the failure."""
        model, _ = exponential_problem(noise=0.01, seed=5)
        expected = levenberg_marquardt(model, [1.0, 1.0, 0.0])
        solve, matrices = np.linalg.solve, []

        def singular_once(a, b):
            matrices.append(a)
            if len(matrices) == 2:   # the first damped solve; the first call is the GN test
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_once)
        res = levenberg_marquardt(model, [1.0, 1.0, 0.0])
        monkeypatch.undo()
        # the retry differs from the failed system by nine times the damping
        # term lambda diag(J^T J) alone: a positive diagonal
        extra = matrices[2] - matrices[1]
        assert np.all(np.diag(extra) > 0) and np.all(extra == np.diag(np.diag(extra)))
        assert res.params == pytest.approx(expected.params, rel=1e-6)


class TestWeightedLinearFit:
    def test_exact_line(self):
        x = np.array([0.2, 0.5, 0.9, 1.4])
        fit = weighted_linear_fit(x, 5.0 - 2.0 * x)
        assert fit.intercept == pytest.approx(5.0, rel=1e-12)
        assert fit.slope == pytest.approx(-2.0, rel=1e-12)
        assert fit.stderr[0] == pytest.approx(0.0, abs=1e-9)
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

    def test_singular_normal_matrix(self):
        """Distinct abscissas whose squares underflow make X^T W X exactly
        singular: the inverse fails, not the equal-abscissa check."""
        with pytest.raises(DomainError, match="^rank-deficient linear fit$"):
            weighted_linear_fit([0.0, 1e-200, 2e-200], [1.0, 2.0, 3.0])

    def test_two_points_exact(self):
        fit = weighted_linear_fit([0.0, 1.0], [4.0, 6.0])
        assert fit.intercept == pytest.approx(4.0)
        assert fit.slope == pytest.approx(2.0)
        assert fit.stderr[0] == 0.0

    def test_stderr_reads_a_negative_variance_as_zero(self):
        fit = LeastSquaresFit(np.array([[4.0, 0.5], [0.5, -1e-30]]), 0.0, 0, 1.0)
        assert fit.stderr.tolist() == [2.0, 0.0]
