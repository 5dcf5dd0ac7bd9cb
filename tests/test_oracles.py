"""The oracle scripts under tests/oracles derive the constants the suite
freezes without importing the package; re-derive each one here so a
frozen value and its derivation cannot drift apart."""
import math
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from test_limitsim import GAMMA_MAP_AT_1
from test_tooling import load_script

ORACLES = Path(__file__).resolve().parent / "oracles"


def _load(name):
    return load_script(ORACLES / f"{name}.py")


def test_renewal_gamma2_series():
    # frozen in test_dists.TestRenewalFunction.test_gamma2_closed_form
    oracle = _load("renewal_series_oracle")
    assert oracle.series_gamma2(2.0) == 2.7500838656569755
    assert oracle.series_gamma2(2.0) == pytest.approx(oracle.closed_gamma2(2.0),
                                                      abs=1e-12)


def test_limit_variances_and_gamma_map():
    oracle = _load("hazard_and_limits_oracle")
    t = sp.symbols("t", positive=True)
    var_m1, var_mexp, var_h1 = oracle.hw_variances()
    assert var_m1 == 1
    assert var_mexp == sp.Rational(1, 3)  # frozen in test_limitsim at t = 1
    assert sp.simplify(var_h1 - (1 - sp.exp(-2 * t)) / 2) == 0
    expr, value = oracle.gamma_map_case()
    assert expr == 1 - sp.exp(-1)
    assert value == GAMMA_MAP_AT_1


def test_ks_critical_value_by_monte_carlo():
    # 1.3581 sqrt(2/n), the coefficient ks_critical uses at alpha = 0.05
    q95, crit, frac = _load("ks_and_ode_oracle").mc_critical()
    assert crit == 1.3581 * np.sqrt(2.0 / 2000)
    assert q95 == pytest.approx(0.0425, abs=1e-12)
    assert q95 < crit
    assert frac == 0.955


@pytest.mark.parametrize("beta, x0, closed", [
    (0.0, -1.0, lambda t: -math.exp(-t)),
    (1.0, 1.0, lambda t: 1.0 - t if t <= 1.0 else math.exp(-(t - 1.0)) - 1.0),
], ids=["beta0", "beta1"])
def test_noise_off_ode_closed_forms(beta, x0, closed):
    # the deterministic skeletons test_limitsim checks the sampler against
    rk4 = _load("ks_and_ode_oracle").rk4
    for t in (0.5, 1.0, 2.0, 3.0):
        got = rk4(lambda x: -beta - min(x, 0.0), x0, t, 1e-4)
        assert abs(got - closed(t)) < 1e-8, f"t={t}: rk4 {got}, closed {closed(t)}"
