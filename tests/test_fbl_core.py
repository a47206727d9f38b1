"""Unit tests for the scalar finite-blocklength primitives.

Expected values marked as frozen were computed with a 60-digit mpmath
evaluation of erfc (and root-finding against it for the quantile), kept
independent of the scipy routines used by the implementation.
"""

import math

import numpy as np
import pytest
from scipy.special import log_ndtr

from fblsec import (
    DomainError,
    Scenario,
    decode_error_prob,
    dispersion,
    q_func,
    q_inv,
)
from fblsec.fbl_core import LN2, _log_hazard, rate_margin
from fblsec.lfp_model import link_constants, log_direction_success

# mpmath oracle values (dps=60)
Q_1959964 = 0.024999999096442404302
QINV_0025 = 1.9599639845400542355
EPS_3_100_100 = 4.0695148989333603403e-13
W_3_100_100 = 7.1587932980781161792
V_01 = 0.17355371900826446281


class TestQFunc:
    def test_symmetry_point(self):
        assert q_func(0.0) == 0.5

    def test_frozen_tail_values(self):
        assert q_func(1.959964) == pytest.approx(Q_1959964, rel=1e-12)
        assert q_func(W_3_100_100) == pytest.approx(EPS_3_100_100, rel=1e-12)

    def test_strictly_decreasing(self):
        # on [-6, 6] consecutive grid values differ by far more than one
        # ulp, so strictness is meaningful
        xs = np.linspace(-6.0, 6.0, 1201)
        vals = q_func(xs)
        assert np.all(np.diff(vals) < 0)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            q_func(np.nan)
        with pytest.raises(DomainError):
            q_func(np.inf)


class TestQInv:
    def test_median(self):
        assert q_inv(0.5) == 0.0

    def test_frozen_quantile(self):
        assert q_inv(0.025) == pytest.approx(QINV_0025, rel=1e-12)

    def test_roundtrip_identity(self):
        assert q_inv(q_func(3.7)) == pytest.approx(3.7, abs=1e-10)

    def test_roundtrip_relative_error_log_grid(self):
        p = np.logspace(-10, np.log10(0.5), 2000)
        p = np.concatenate([p, 1.0 - p])
        err = np.abs(q_func(q_inv(p)) - p) / p
        assert err.max() <= 1e-12

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            q_inv(bad)


class TestCapacityDispersion:
    def test_dispersion_values(self):
        assert dispersion(1.0) == pytest.approx(0.75, rel=1e-15)
        assert dispersion(3.0) == pytest.approx(0.9375, rel=1e-15)
        assert dispersion(0.1) == pytest.approx(V_01, rel=1e-14)

    def test_dispersion_range_and_limit(self):
        g = np.logspace(-3, 6, 400)
        v = dispersion(g)
        assert np.all((v > 0) & (v < 1))
        assert np.all(np.diff(v) > 0)
        assert dispersion(1e9) == pytest.approx(1.0, abs=1e-8)

    def test_overflowing_snr_rejected(self):
        # gamma (2 + gamma) and (1 + gamma)^2 overflow to inf past
        # ~1.3e154, and their ratio is NaN
        assert dispersion(1e154) == 1.0
        for gamma in (1e155, np.array([3.0, 1e200])):
            with pytest.raises(DomainError, match="dispersion"):
                dispersion(gamma)

    @pytest.mark.parametrize("func", [dispersion])
    def test_zero_snr_rejected(self, func):
        with pytest.raises(DomainError):
            func(0.0)
        with pytest.raises(DomainError):
            func(-1.0)


class TestDecodeErrorProb:
    def test_rate_at_capacity_gives_half(self):
        # d/m equal to capacity zeroes the argument
        assert decode_error_prob(3.0, 100.0, 200.0) == pytest.approx(0.5, abs=1e-14)

    def test_frozen_example(self):
        assert rate_margin(3.0, 100.0, 100.0) == pytest.approx(W_3_100_100, rel=1e-13)
        assert decode_error_prob(3.0, 100.0, 100.0) == pytest.approx(
            EPS_3_100_100, rel=1e-12)

    def test_above_capacity_worse_than_half(self):
        assert decode_error_prob(1.0, 100.0, 150.0) > 0.5

    def test_open_interval_even_for_extreme_margins(self):
        lo = decode_error_prob(100.0, 1000.0, 0.0)
        hi = decode_error_prob(0.1, 1000.0, 5000.0)
        assert 0.0 < lo < hi < 1.0

    def test_monotone_in_d_random_grid(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            g = 10 ** rng.uniform(-1, 2)
            m = rng.uniform(10, 800)
            # pick bit counts from a margin window that avoids saturation
            w = rng.uniform(-7.5, 7.5, size=2)
            w.sort()
            d = (m * math.log1p(g) - w * math.sqrt(m * dispersion(g))) / LN2
            d = np.clip(d, 0.0, None)
            lo, hi = decode_error_prob(g, m, d[1]), decode_error_prob(g, m, d[0])
            if d[1] < d[0]:
                assert lo < hi

    def test_monotone_in_m_below_capacity(self):
        rng = np.random.default_rng(102)
        checked = 0
        for _ in range(300):
            g = 10 ** rng.uniform(-1, 2)
            m = rng.uniform(10, 500)
            d = rng.uniform(0.1, 0.9) * m * np.log1p(g) / LN2
            e1 = decode_error_prob(g, m, d)
            e2 = decode_error_prob(g, m * 1.05, d)
            if e2 <= 1e-300:  # both at the representability floor
                continue
            assert e2 < e1
            checked += 1
        assert checked > 150

    def test_log_forms_match_linear_forms(self):
        """log_direction_success(g, g, m, d) = log(1 - eps) + log(eps):
        below capacity the log(eps) term carries the value, above it
        the log(1 - eps) term."""
        rng = np.random.default_rng(103)
        for _ in range(200):
            g = 10 ** rng.uniform(-1, 2)
            m = rng.uniform(10, 500)
            d = rng.uniform(0.2, 1.4) * m * np.log1p(g) / LN2
            eps = decode_error_prob(g, m, d)
            ab, ae, _, _ = link_constants(Scenario(
                gamma_ab=g, gamma_ae=g, gamma_ba=g, gamma_be=g, d_m1=1,
                d_m2=1, M=2, eps_ab_max=0.5, eps_ba_max=0.5, eps_e_max=0.5))
            assert math.exp(log_direction_success(ab, ae, m, d)) == \
                pytest.approx((1.0 - eps) * eps, rel=1e-12)


def test_log_hazard_ratio_matches_direct_and_tail():
    # phi(w)/Q(w) = phi(-w)/Phi(-w) = exp(_log_hazard(-w, log_ndtr(-w)))
    def hazard(w):
        return math.exp(_log_hazard(-w, log_ndtr(-w)))

    for w in (-5.0, -1.0, 0.0, 2.0, 8.0):
        direct = (math.exp(-0.5 * w * w) / math.sqrt(2 * math.pi)) / q_func(w)
        assert hazard(w) == pytest.approx(direct, rel=1e-12)
    # far tail: phi/Q ~ w + 1/w
    w = 60.0
    assert hazard(w) == pytest.approx(w + 1.0 / w, rel=1e-3)
