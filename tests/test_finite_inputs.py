"""The library's finite-value contract: a NaN input, or an infinite one where
the value must be finite, is a DomainError at the function that takes it, not
a NaN further down."""

import math

import numpy as np
import pytest

from modfesh.errors import DomainError
from modfesh.fitting import weighted_linear_fit
from modfesh.floquet import resonance_frequencies
from modfesh.scattering import ResonanceModel, loss_rate_proxy

NAN = math.nan
X, Y = [0.4, 0.8, 1.2], [227.9e3, 227.1e3, 226.3e3]


@pytest.mark.parametrize("call", [
    lambda: ResonanceModel(a_bk=NAN, delta_m=1e4, omega0=1e6, m=-1),
    lambda: ResonanceModel(a_bk=200.0, delta_m=NAN, omega0=1e6, m=-1),
    lambda: ResonanceModel(a_bk=200.0, delta_m=1e4, omega0=math.inf, m=-1),
    lambda: ResonanceModel(a_bk=200.0, delta_m=1e4, omega0=np.array([1e6, NAN]), m=-1),
    lambda: weighted_linear_fit([0.4, NAN, 1.2], Y),
    lambda: weighted_linear_fit(X, [227.9e3, NAN, 226.3e3]),
    lambda: weighted_linear_fit(X, Y, [50.0, NAN, 60.0]),
    lambda: resonance_frequencies(NAN, 3),
    lambda: loss_rate_proxy(300.0, 0.0, density=NAN),
], ids=["model-a_bk", "model-delta_m", "model-omega0", "model-omega0-array",
        "linear-x", "linear-y", "linear-sigma", "resonance-omega_b", "loss-density"])
def test_non_finite_input_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_infinite_alpha_is_clipped():
    """An exact pole gives alpha = +-inf, which the unitarity cap clips."""
    rate = loss_rate_proxy(np.array([math.inf, -math.inf, 300.0]), 0.0, density=1e13)
    assert np.isfinite(rate).all() and rate[0] == rate[1] > rate[2]
