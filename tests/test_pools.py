import math

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wcbsim.pools import DEFAULT_POOLS, PoolParams


def test_zero_damping_gives_phi():
    assert PoolParams(tau=4.0, alpha=6492.0, phi=0.48, zeta=0.0).omega_n == 0.48


@pytest.mark.parametrize("phi", [0.48, 0.42])
def test_omega_n_against_high_precision(phi):
    # independent calculator: 50-digit evaluation of phi / sqrt(1 - zeta^2)
    with mpmath.workdps(50):
        expected = mpmath.mpf(phi) / mpmath.sqrt(1 - mpmath.mpf("0.0151") ** 2)
        expected = float(expected)
    got = PoolParams(tau=4.0, alpha=6492.0, phi=phi).omega_n
    assert got == pytest.approx(expected, rel=1e-14)


def test_pool_one_value():
    assert DEFAULT_POOLS[0].omega_n == pytest.approx(0.480054736, rel=1e-8)


def test_default_table():
    taus = [p.tau for p in DEFAULT_POOLS]
    alphas = [p.alpha for p in DEFAULT_POOLS]
    phis = [p.phi for p in DEFAULT_POOLS]
    assert taus == [4.0, 2.0, 4.0, 4.0, 6.0]
    assert alphas == [6492.0, 2478.0, 6084.0, 5658.0, 7650.0]
    assert phis == [0.48, 1.05, 0.48, 0.48, 0.42]
    assert all(p.zeta == 0.0151 for p in DEFAULT_POOLS)


@given(tau=st.floats(0.1, 100), alpha=st.floats(1, 1e6),
       phi=st.floats(1e-3, 10), zeta=st.floats(0, 0.99, exclude_max=True))
def test_omega_at_least_phi_and_finite(tau, alpha, phi, zeta):
    w = PoolParams(tau=tau, alpha=alpha, phi=phi, zeta=zeta).omega_n
    assert math.isfinite(w)
    assert w >= phi


@pytest.mark.parametrize("kwargs", [
    dict(tau=0.0, alpha=1.0, phi=1.0),
    dict(tau=1.0, alpha=-2.0, phi=1.0),
    dict(tau=1.0, alpha=1.0, phi=0.0),
    dict(tau=1.0, alpha=1.0, phi=1.0, zeta=1.0),
    dict(tau=1.0, alpha=1.0, phi=1.0, zeta=-0.1),
])
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(ValueError):
        PoolParams(**kwargs)
