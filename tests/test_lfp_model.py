"""Objective composition, threshold geometry and the reduced gradient."""

import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import log_ndtr

from fblsec import (
    Allocation,
    DomainError,
    decode_error_prob,
    dispersion,
    lfp,
    lfp_gradient_reduced,
    lfp_value,
    link_errors,
    q_inv,
    redundancy_bounds,
)
from fblsec.fbl_core import LN2, _P_CEIL, _P_FLOOR, _margin, q_func, rate_margin
from fblsec.lfp_model import (
    _balanced_start,
    _direction_bounds,
    _direction_log_terms,
    _hazard_balance,
    _log_success,
    link_constants,
    log_direction_success,
    log_round_trip_success,
)

from conftest import draw_random_scenario, make_scenario, sample_interior_point

# mpmath oracle (dps=60): eps at gamma in {3, 1}, m=100, d=120
EPS_G3_M100_D120 = 5.1100653640124239539e-9
EPS_G1_M100_D120 = 0.94528438580415469128


def composed_lfp(sc, alloc):
    """1 - (1 - eps_ab) * eps_ae * (1 - eps_ba) * eps_be from link_errors."""
    e = link_errors(sc, alloc)
    return 1.0 - (1.0 - e.eps_ab) * e.eps_ae * (1.0 - e.eps_ba) * e.eps_be


def mpmath_lfp(sc, m1, d_r1, d_r2):
    """LFP at a reduced-space point in 60-digit arithmetic."""
    with mpmath.workdps(60):
        def eps(gamma, m, d):
            g = mpmath.mpf(gamma)
            v = 1 - 1 / (1 + g) ** 2
            w = (mpmath.log1p(g) - d * mpmath.log(2) / m) * mpmath.sqrt(m / v)
            return mpmath.erfc(w / mpmath.sqrt(2)) / 2

        m1 = mpmath.mpf(m1)
        m2 = sc.M - m1
        d1 = sc.d_m1 + mpmath.mpf(d_r1)
        d2 = sc.d_m2 + mpmath.mpf(d_r2)
        success = ((1 - eps(sc.gamma_ab, m1, d1)) * eps(sc.gamma_ae, m1, d1)
                   * (1 - eps(sc.gamma_ba, m2, d2)) * eps(sc.gamma_be, m2, d2))
        return float(1 - success)


class TestLinkErrors:
    def test_symmetric_scenario(self):
        sc = make_scenario(gamma_ab=2.0, gamma_ae=2.0, gamma_ba=1.5,
                           gamma_be=1.5, d_m1=10, d_m2=10, M=200)
        errs = link_errors(sc, Allocation(m1=100, m2=100, d_r1=50, d_r2=50))
        assert errs.eps_ab == errs.eps_ae
        assert errs.eps_ba == errs.eps_be

    def test_rate_at_capacity(self):
        sc = make_scenario(d_m1=20, d_m2=20, M=200)
        # d1 = 200 = m1 * C(3) puts the forward legitimate link at 1/2
        errs = link_errors(sc, Allocation(m1=100, m2=100, d_r1=180, d_r2=100))
        assert errs.eps_ab == pytest.approx(0.5, abs=1e-14)

    def test_oracle_values(self):
        sc = make_scenario(d_m1=20, d_m2=20, M=200)
        errs = link_errors(sc, Allocation(m1=100, m2=100, d_r1=100, d_r2=100))
        assert errs.eps_ab == pytest.approx(EPS_G3_M100_D120, rel=1e-12)
        assert errs.eps_ae == pytest.approx(EPS_G1_M100_D120, rel=1e-12)
        assert errs.eps_ba == pytest.approx(EPS_G3_M100_D120, rel=1e-12)
        assert errs.eps_be == pytest.approx(EPS_G1_M100_D120, rel=1e-12)

    def test_budget_violation_rejected(self):
        sc = make_scenario(M=100)
        with pytest.raises(DomainError):
            link_errors(sc, Allocation(m1=60, m2=60, d_r1=10, d_r2=10))


class TestLfp:
    def test_all_half(self):
        sc = make_scenario(gamma_ab=3.0, gamma_ae=3.0, gamma_ba=3.0,
                           gamma_be=3.0, d_m1=20, d_m2=20, M=200)
        val = lfp(sc, Allocation(m1=100, m2=100, d_r1=180, d_r2=180))
        assert val == pytest.approx(1.0 - 0.0625, abs=1e-12)

    def test_decomposition_identity(self):
        """lfp agrees with the composition of the four link errors: to
        1e-12 relative where the plain product resolves the LFP, to
        1e-12 absolute below 1e-6 where it does not."""
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(200):
            sc = draw_random_scenario(rng)
            pt = sample_interior_point(rng, sc)
            if pt is None:
                continue
            m1, d_r1, d_r2 = pt
            alloc = Allocation(m1=m1, m2=sc.M - m1, d_r1=d_r1, d_r2=d_r2)
            val = lfp(sc, alloc)
            if val >= 1e-6:
                assert val == pytest.approx(composed_lfp(sc, alloc), rel=1e-12)
                checked += 1
            else:
                assert val == pytest.approx(composed_lfp(sc, alloc), abs=1e-12)
        assert checked > 50

    def test_matches_mpmath_reference(self):
        """60-digit reference at interior points with LFP >= 1e-6, the
        regime where a plain 1 - product form loses ~1e-10 relative."""
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 400:
            sc = draw_random_scenario(rng)
            pt = sample_interior_point(rng, sc)
            if pt is None:
                continue
            ref = mpmath_lfp(sc, *pt)
            if ref < 1e-6:
                continue
            assert abs(lfp_value(sc, *pt) - ref) <= 1e-13 * ref
            checked += 1

    def test_partial_budget_allocation_uses_its_m2(self):
        sc = make_scenario(M=40)
        alloc = Allocation(m1=19, m2=15, d_r1=8, d_r2=8)
        assert lfp(sc, alloc) == pytest.approx(composed_lfp(sc, alloc),
                                               rel=1e-12)

    def test_oracle_composition(self):
        sc = make_scenario(d_m1=20, d_m2=20, M=200)
        val = lfp(sc, Allocation(m1=100, m2=100, d_r1=100, d_r2=100))
        s = (1.0 - EPS_G3_M100_D120) * EPS_G1_M100_D120
        assert val == pytest.approx(1.0 - s * s, rel=1e-12)

    def test_deep_tail_keeps_magnitude(self):
        # at the full default budget the success product rounds to 1 in
        # doubles; the log path must still resolve the failure mass
        sc = make_scenario(M=1000)
        val = lfp_value(sc, 500.0, 716.0, 716.0)
        assert 0.0 < val < 1e-12
        assert val == pytest.approx(
            -math.expm1(log_round_trip_success(sc, 500.0, 716.0, 716.0)),
            rel=1e-12)


class TestRedundancyBounds:
    def test_half_threshold_closed_form(self):
        # thresholds 1/2 null the quantile terms: d_max = m*C(gamma_b) - d_m,
        # d_min = m*C(gamma_e) - d_m
        sc = make_scenario(d_m1=20, d_m2=20, M=200)
        box = redundancy_bounds(sc, 100.0, 100.0)
        assert box.d_r1_max == pytest.approx(100 * math.log2(1 + 3.0) - 20,
                                             abs=1e-9)
        assert box.d_r1_min == pytest.approx(100 * math.log2(1 + 1.0) - 20,
                                             abs=1e-9)
        assert box.d_r1_max == pytest.approx(180.0, abs=1e-9)
        assert box.d_r1_min == pytest.approx(80.0, abs=1e-9)
        assert box.feasible

    def test_bounds_invert_error_probability(self):
        """Root-finding oracle: the bound must equal the redundancy at
        which the link error crosses its threshold."""
        sc = make_scenario(gamma_ab=3.0, gamma_ae=1.0, d_m1=20, d_m2=20,
                           M=200, eps_ab_max=0.01, eps_e_max=0.9)
        box = redundancy_bounds(sc, 100.0, 100.0)
        root_max = brentq(
            lambda dr: decode_error_prob(3.0, 100.0, 20.0 + dr) - 0.01,
            0.0, 180.0, xtol=1e-12)
        root_min = brentq(
            lambda dr: decode_error_prob(1.0, 100.0, 20.0 + dr) - 0.9,
            0.0, 180.0, xtol=1e-12)
        assert box.d_r1_max == pytest.approx(root_max, abs=1e-9)
        assert box.d_r1_min == pytest.approx(root_min, abs=1e-9)

    def test_threshold_consistency_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            sc = draw_random_scenario(rng)
            m1 = rng.uniform(5.0, sc.M - 5.0)
            box = redundancy_bounds(sc, m1, sc.M - m1)
            if not box.feasible:
                continue
            eps_b = decode_error_prob(sc.gamma_ab, m1, sc.d_m1 + box.d_r1_max)
            assert eps_b == pytest.approx(sc.eps_ab_max, abs=1e-9)
            if box.d_r1_min > 0.0:
                eps_e = decode_error_prob(sc.gamma_ae, m1,
                                          sc.d_m1 + box.d_r1_min)
                assert eps_e == pytest.approx(sc.eps_e_max, abs=1e-9)

    def test_lower_bound_clamped_at_zero(self):
        # eavesdropper so weak that the leakage constraint is inactive
        sc = make_scenario(gamma_ae=0.1, gamma_be=0.1, d_m1=20, d_m2=20, M=200)
        box = redundancy_bounds(sc, 30.0, 170.0)
        assert box.d_r1_min == 0.0

    def test_infeasible_box_is_value_not_error(self):
        sc = make_scenario(gamma_ab=1.05, gamma_ae=1.0, d_m1=20, d_m2=20,
                           M=200, eps_ab_max=0.01, eps_e_max=0.99)
        box = redundancy_bounds(sc, 100.0, 100.0)
        assert not box.feasible
        assert box.d_r1_min > box.d_r1_max


TABLE_SCENARIOS = [
    make_scenario(M=1000),
    make_scenario(d_m1=20, d_m2=20, M=200, eps_ab_max=0.01, eps_e_max=0.9),
    make_scenario(gamma_ab=1000.0, gamma_ae=0.01, gamma_ba=1000.0,
                  gamma_be=0.01, M=300),
    # infeasible and degenerate directions
    make_scenario(gamma_ab=1.05, gamma_ae=1.0, d_m1=20, d_m2=20, M=200,
                  eps_ab_max=0.01, eps_e_max=0.99),
    make_scenario(gamma_ab=1.0, gamma_ae=1.2, gamma_ba=1.0, gamma_be=1.2,
                  d_m1=2, d_m2=2, M=40, eps_ab_max=0.8, eps_ba_max=0.8,
                  eps_e_max=0.3),
] + [draw_random_scenario(np.random.default_rng(seed), m_hi=400)
     for seed in (5, 6, 7)]


class TestRedundancyBoundsTable:
    """The oracle's vector boxes (``_direction_bounds`` on an array of
    blocklengths with ``np.sqrt`` and ``np.maximum``, as the oracle's
    tables and BCD/MM's m1 grid build them) against the scalar
    ``redundancy_bounds``, paired as the oracle pairs them: direction 1
    at m1, direction 2 at m2 = M - m1."""

    @pytest.mark.parametrize("sc", TABLE_SCENARIOS)
    def test_matches_scalar_boxes_bit_for_bit(self, sc):
        M = sc.M
        m = np.arange(1, M, dtype=float)
        ab, ae, ba, be = link_constants(sc)
        lo1, hi1 = _direction_bounds(ab, ae, sc.d_m1, m, np.sqrt, np.maximum)
        lo2, hi2 = _direction_bounds(ba, be, sc.d_m2, m, np.sqrt, np.maximum)
        for m1 in range(1, M):
            box = redundancy_bounds(sc, float(m1), float(M - m1))
            table = (lo1[m1 - 1], hi1[m1 - 1], lo2[M - m1 - 1], hi2[M - m1 - 1])
            scalar = (box.d_r1_min, box.d_r1_max, box.d_r2_min, box.d_r2_max)
            assert [float(x).hex() for x in table] == \
                [float(x).hex() for x in scalar], m1

    @pytest.mark.parametrize("m", [[0.5, 2.0], [1.0, np.nan], [np.inf]])
    def test_rejects_bad_blocklengths(self, m):
        # redundancy_bounds is the checked entry to the box formula: a
        # NaN, infinite or < 1 blocklength in either direction raises,
        # a valid one gives the table's box.
        sc = TABLE_SCENARIOS[0]
        for x in m:
            for m1, m2 in ((x, x), (x, 2.0), (2.0, x)):
                if 1.0 <= x < math.inf:
                    assert isinstance(redundancy_bounds(sc, m1, m2).feasible,
                                      bool)
                else:
                    with pytest.raises(DomainError):
                        redundancy_bounds(sc, m1, m2)

    def test_link_constants_are_the_checked_values(self):
        for sc in TABLE_SCENARIOS:
            links = ((sc.gamma_ab, sc.eps_ab_max), (sc.gamma_ae, sc.eps_e_max),
                     (sc.gamma_ba, sc.eps_ba_max), (sc.gamma_be, sc.eps_e_max))
            assert link_constants(sc) == tuple(
                (float(np.log1p(g)), dispersion(g), q_inv(e))
                for g, e in links)


KERNEL_SCENARIOS = [
    make_scenario(M=1000),
    # 30 dB legitimate links against -20 dB eavesdroppers
    make_scenario(gamma_ab=1000.0, gamma_ae=0.01, gamma_ba=1000.0,
                  gamma_be=0.01, M=300),
] + [draw_random_scenario(np.random.default_rng(seed), m_hi=400)
     for seed in (8, 9, 10)]


def kernel_points(sc, rng, n=200):
    """Seeded reduced-space points: relaxed and integral m1, each with
    the redundancy pair at both box edges and inside the box (total
    bits kept >= 0)."""
    out = []
    for i in range(n):
        m1 = rng.uniform(1.0, sc.M - 1.0)
        if i % 2:
            m1 = float(min(max(round(m1), 1), sc.M - 1))
        box = redundancy_bounds(sc, m1, sc.M - m1)
        for t in (0.0, 1.0, rng.uniform()):
            a = box.d_r1_min + t * (box.d_r1_max - box.d_r1_min)
            b = box.d_r2_min + t * (box.d_r2_max - box.d_r2_min)
            if sc.d_m1 + a >= 0.0 and sc.d_m2 + b >= 0.0:
                out.append((m1, a, b))
    return out


class TestScalarKernel:
    """The scalar round trip (cached constants, ``math.sqrt``) against
    the vector path (``log_direction_success``, ``np.sqrt``) and
    ``decode_error_prob``'s margin (``rate_margin``), bit for bit."""

    @pytest.mark.parametrize("sc", KERNEL_SCENARIOS)
    def test_round_trip_is_the_sum_of_its_directions(self, sc):
        ab, ae, ba, be = link_constants(sc)
        pts = kernel_points(sc, np.random.default_rng(sc.M))
        m1, a, b = (np.array(x) for x in zip(*pts))
        s1 = log_direction_success(ab, ae, m1, sc.d_m1 + a)
        s2 = log_direction_success(ba, be, sc.M - m1, sc.d_m2 + b)
        vector = s1 + s2
        for i, (x, y, z) in enumerate(pts):
            scalar = log_round_trip_success(sc, x, y, z)
            one_by_one = (log_direction_success(ab, ae, x, sc.d_m1 + y)
                          + log_direction_success(ba, be, sc.M - x,
                                                  sc.d_m2 + z))
            assert scalar.hex() == float(one_by_one).hex() == \
                float(vector[i]).hex(), (x, y, z)
            assert lfp_value(sc, x, y, z).hex() == (-math.expm1(scalar)).hex()

    @pytest.mark.parametrize("sc", KERNEL_SCENARIOS)
    def test_lfp_below_the_full_budget(self, sc):
        ab, ae, ba, be = link_constants(sc)
        rng = np.random.default_rng(sc.M + 1)
        checked = 0
        for _ in range(100):
            m1 = int(rng.integers(1, sc.M - 1))
            m2 = int(rng.integers(1, sc.M - m1 + 1))
            box = redundancy_bounds(sc, float(m1), float(m2))
            d_r1 = max(0, math.floor(box.d_r1_max))
            d_r2 = max(0, math.floor(box.d_r2_max))
            s1 = log_direction_success(ab, ae, m1, sc.d_m1 + d_r1)
            s2 = log_direction_success(ba, be, m2, sc.d_m2 + d_r2)
            value = lfp(sc, Allocation(m1=m1, m2=m2, d_r1=d_r1, d_r2=d_r2))
            assert value.hex() == (-math.expm1(s1 + s2)).hex(), (m1, m2)
            checked += m1 + m2 < sc.M
        assert checked > 50

    @pytest.mark.parametrize("sc", KERNEL_SCENARIOS)
    def test_cached_constants_are_the_margin_inputs(self, sc):
        rng = np.random.default_rng(sc.M + 2)
        m = rng.uniform(1.0, sc.M, 50)
        d = rng.uniform(0.0, 2.0 * sc.M, 50)
        gammas = (sc.gamma_ab, sc.gamma_ae, sc.gamma_ba, sc.gamma_be)
        for gamma, link in zip(gammas, link_constants(sc)):
            # the L and V of rate_margin, operation for operation
            assert link.log1p == np.log1p(gamma)
            assert link.v == gamma * (2.0 + gamma) / np.square(1.0 + gamma)
            vector = rate_margin(gamma, m, d)
            eps = decode_error_prob(gamma, m, d)
            for i in range(m.size):
                w = _margin(link.log1p, link.v, float(m[i]), float(d[i]),
                            math.sqrt)
                assert w.hex() == rate_margin(gamma, m[i], d[i]).hex() == \
                    float(vector[i]).hex()
                # decode_error_prob is Q of the model kernel's margin
                assert float(eps[i]).hex() == \
                    min(max(q_func(w), _P_FLOOR), _P_CEIL).hex()


    @pytest.mark.parametrize("sc", KERNEL_SCENARIOS)
    def test_link_errors_are_decode_error_prob(self, sc):
        rng = np.random.default_rng(sc.M + 3)
        c_max = math.log2(1.0 + max(sc.gamma_ab, sc.gamma_ae,
                                    sc.gamma_ba, sc.gamma_be))
        for i in range(100):
            m1 = float(rng.uniform(1.0, sc.M - 1.0))
            m2 = float(rng.uniform(1.0, sc.M - m1))
            if i % 2:
                m1, m2 = float(math.floor(m1)), float(math.floor(m2))
            # redundancy past capacity too, so both clips are reached
            d_r1, d_r2 = rng.uniform(0.0, 2.0 * c_max * np.array([m1, m2]))
            errs = link_errors(sc, Allocation(m1=m1, m2=m2, d_r1=d_r1,
                                              d_r2=d_r2))
            d1, d2 = sc.d_m1 + d_r1, sc.d_m2 + d_r2
            want = (decode_error_prob(sc.gamma_ab, m1, d1),
                    decode_error_prob(sc.gamma_ae, m1, d1),
                    decode_error_prob(sc.gamma_ba, m2, d2),
                    decode_error_prob(sc.gamma_be, m2, d2))
            assert [e.hex() for e in errs.as_tuple()] == \
                [e.hex() for e in want], (m1, m2, d_r1, d_r2)

    @pytest.mark.parametrize("sc", KERNEL_SCENARIOS)
    def test_link_log_terms_sum_to_the_round_trip(self, sc):
        links = link_constants(sc)
        ab, ae, ba, be = links
        for m1, a, b in kernel_points(sc, np.random.default_rng(sc.M + 4)):
            m2, d1, d2 = sc.M - m1, sc.d_m1 + a, sc.d_m2 + b
            l1 = _direction_log_terms(ab, ae, m1, d1)[0]
            l2 = _direction_log_terms(ba, be, m2, d2)[0]
            assert (l1 + l2).hex() == \
                _log_success(links, m1, m2, d1, d2).hex(), (m1, a, b)

    @pytest.mark.parametrize("sc", KERNEL_SCENARIOS)
    def test_direction_log_terms_agree_with_the_hazard_balance(self, sc):
        """At the same (m, D): l is the balance's l_b + l_e, bit for bit,
        and dl/dD is -c_b h_b + c_e h_e from the balance's c and hazards,
        to 1e-14 of the terms' size (the two cancel near the balance)."""
        ab, ae, ba, be = link_constants(sc)
        for m1, a, b in kernel_points(sc, np.random.default_rng(sc.M + 5)):
            for legit, eve, m, D in ((ab, ae, m1, sc.d_m1 + a),
                                     (ba, be, sc.M - m1, sc.d_m2 + b)):
                _, c_b, c_e, _ = _balanced_start(legit, eve, m, m, math.sqrt)
                *_, l_b, l_e, h_b, h_e = _hazard_balance(
                    legit, eve, m, m, D, c_b, c_e,
                    0.5 * math.log(legit.v / eve.v), math.sqrt, math.exp)
                l, _, dl_dD = _direction_log_terms(legit, eve, m, D)[:3]
                assert l.hex() == float(l_b + l_e).hex(), (m, D)
                assert abs(dl_dD - (-c_b * h_b + c_e * h_e)) <= \
                    1e-14 * (c_b * h_b + c_e * h_e) + 1e-300, (m, D)


class TestLinkLogTerm:
    """Each link's log factor in ``_direction_log_terms``: its first
    derivatives against central differences of log_ndtr(w_b) and
    log_ndtr(-w_e), and its second derivatives against central
    differences of the first, the swept link's argument from -40 to 40
    (``sign`` +1.0 sweeps the legitimate link, -1.0 the eavesdropper)."""

    @staticmethod
    def sweep(gamma, sign):
        """(legit, eve, m, D) at each point of the sweep; every argument
        from -40 to 40 is reached."""
        # the other link far from the swept one, so that its factor is
        # mostly saturated and the swept factor's derivative dominates
        if sign > 0.0:
            sc = make_scenario(gamma_ab=gamma, gamma_ae=0.01)
        else:
            sc = make_scenario(gamma_ab=1e6, gamma_ae=gamma)
        legit, eve = link_constants(sc)[:2]
        link = legit if sign > 0.0 else eve
        reached = set()
        for m in (50.0, 1000.0, 20000.0):
            s = math.sqrt(m / link.v)
            for x in np.linspace(-40.0, 40.0, 33):
                # the total bits D that put the swept argument at x
                D = (link.log1p - sign * x / s) * m / LN2
                if D < 0.0:
                    continue
                reached.add(float(x))
                yield legit, eve, m, D
        assert min(reached) == -40.0 and max(reached) == 40.0

    @pytest.mark.parametrize("sign", (1.0, -1.0))
    @pytest.mark.parametrize("gamma", (0.3, 3.0, 100.0))
    def test_derivatives_match_central_differences(self, gamma, sign):
        for legit, eve, m, D in self.sweep(gamma, sign):

            def log_factors(m, D):
                return (float(log_ndtr(_margin(legit.log1p, legit.v, m, D,
                                               math.sqrt))),
                        float(log_ndtr(-_margin(eve.log1p, eve.v, m, D,
                                                math.sqrt))))

            def central(h_m, h_D):
                """Each factor's central difference."""
                hi = log_factors(m + h_m, D + h_D)
                lo = log_factors(m - h_m, D - h_D)
                return [(a - b) / (2.0 * (h_m + h_D)) for a, b in zip(hi, lo)]

            l, dl_dm, dl_dD = _direction_log_terms(legit, eve, m, D)[:3]
            assert l == sum(log_factors(m, D))
            # steps that move neither margin by more than 1e-5:
            # |dw/dD| = ln2*s/m, dw/dm = (ln(1+gamma) + D*ln2/m)*s/(2m)
            s_b, s_e = math.sqrt(m / legit.v), math.sqrt(m / eve.v)
            h_D = 1e-5 * m / (LN2 * max(s_b, s_e))
            h_m = 2e-5 * m / max((legit.log1p + D * LN2 / m) * s_b,
                                 (eve.log1p + D * LN2 / m) * s_e)
            for got, fd in ((dl_dD, central(0.0, h_D)),
                            (dl_dm, central(h_m, 0.0))):
                assert got == pytest.approx(
                    sum(fd), rel=1e-6,
                    abs=1e-6 * (abs(fd[0]) + abs(fd[1])) + 1e-290)

    @pytest.mark.parametrize("sign", (1.0, -1.0))
    @pytest.mark.parametrize("gamma", (0.3, 3.0, 100.0))
    def test_second_derivatives_match_central_differences(self, gamma, sign):
        for legit, eve, m, D in self.sweep(gamma, sign):
            # each factor alone: the other link's margin so far out that
            # its factor and hazard are exactly 0.0
            alone = ((legit, eve._replace(log1p=-1e3)),
                     (legit._replace(log1p=1e3), eve))

            def central(i, along_D):
                """Each factor's central difference of derivative i of
                ``_direction_log_terms``, in m or D, its own margin
                moving by 1e-5, and that difference's rounding: ~1e-12
                of the derivative over the step."""
                out = []
                for (b, e), link in zip(alone, (legit, eve)):
                    s = math.sqrt(m / link.v)
                    if along_D:
                        h = 1e-5 * m / (LN2 * s)
                        hi, lo = (_direction_log_terms(b, e, m, D + h)[i],
                                  _direction_log_terms(b, e, m, D - h)[i])
                    else:
                        h = 2e-5 * m / ((link.log1p + D * LN2 / m) * s)
                        hi, lo = (_direction_log_terms(b, e, m + h, D)[i],
                                  _direction_log_terms(b, e, m - h, D)[i])
                    out.append(((hi - lo) / (2.0 * h),
                                1e-12 * max(abs(hi), abs(lo)) / h))
                return out

            _, _, _, l_mm, l_mD, l_DD = _direction_log_terms(legit, eve, m, D)
            for got, fd in ((l_mm, central(1, False)), (l_mD, central(1, True)),
                            (l_mD, central(2, False)), (l_DD, central(2, True))):
                (fd_b, floor_b), (fd_e, floor_e) = fd
                assert abs(got - (fd_b + fd_e)) <= (
                    1e-6 * (abs(fd_b) + abs(fd_e)) + floor_b + floor_e
                    + 1e-290), (m, D, got, fd)


class TestGradientReduced:
    def test_symmetric_split_has_zero_m1_component(self):
        sc = make_scenario(d_m1=20, d_m2=20, M=200)
        g_m1, g_dr1, g_dr2 = lfp_gradient_reduced(sc, 100.0, 120.0, 120.0)
        scale = max(abs(g_dr1), abs(g_dr2))
        assert abs(g_m1) <= 1e-9 * scale
        assert g_dr1 == pytest.approx(g_dr2, rel=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        h = 1e-3
        tested = 0
        while tested < 100:
            sc = draw_random_scenario(rng)
            pt = sample_interior_point(rng, sc)
            if pt is None:
                continue
            m1, d_r1, d_r2 = pt
            grad = lfp_gradient_reduced(sc, m1, d_r1, d_r2)
            fd = (
                (lfp_value(sc, m1 + h, d_r1, d_r2)
                 - lfp_value(sc, m1 - h, d_r1, d_r2)) / (2 * h),
                (lfp_value(sc, m1, d_r1 + h, d_r2)
                 - lfp_value(sc, m1, d_r1 - h, d_r2)) / (2 * h),
                (lfp_value(sc, m1, d_r1, d_r2 + h)
                 - lfp_value(sc, m1, d_r1, d_r2 - h)) / (2 * h),
            )
            scale = max(max(abs(v) for v in fd), 1e-300)
            for a, f in zip(grad, fd):
                assert abs(a - f) <= 1e-5 * scale
            tested += 1

    def test_zero_gradient_at_coordinate_minimum(self):
        """A dense scan plus parabolic refinement locates the 1-D
        minimizer in d_r1; the analytic component must vanish there."""
        sc = make_scenario(d_m1=20, d_m2=20, M=200)
        box = redundancy_bounds(sc, 100.0, 100.0)
        grid = np.linspace(box.d_r1_min, box.d_r1_max, 20001)
        vals = np.array([lfp_value(sc, 100.0, x, 120.0) for x in grid])
        i = int(np.argmin(vals))
        a, b, c = grid[i - 1], grid[i], grid[i + 1]
        fa, fb, fc = vals[i - 1], vals[i], vals[i + 1]
        x_star = b - 0.5 * ((b - a) ** 2 * (fb - fc) - (b - c) ** 2 * (fb - fa)) \
            / ((b - a) * (fb - fc) - (b - c) * (fb - fa))
        g = lfp_gradient_reduced(sc, 100.0, x_star, 120.0)
        scale = max(abs(g[0]), abs(g[2]), 1e-12)
        assert abs(g[1]) <= 1e-6 * max(1.0, scale)

    def test_domain_guard(self):
        sc = make_scenario(M=200)
        with pytest.raises(DomainError):
            lfp_gradient_reduced(sc, 1.0, 50.0, 50.0)


class TestBudgetMonotonicity:
    def test_reoptimized_direction_success_nondecreasing_in_m2(self):
        """With the redundancy re-optimized over its box, more channel
        uses never hurt a direction (this is what pins optima to the
        full budget).  Checked on the relaxed problem via a dense scan."""
        rng = np.random.default_rng(19)

        def best_log_success(sc, m2):
            box = redundancy_bounds(sc, float(sc.M - m2), float(m2))
            if not box.feasible:
                return None
            grid = np.linspace(box.d_r2_min, box.d_r2_max, 4001)
            _, _, ba, be = link_constants(sc)
            vals = log_direction_success(ba, be, float(m2), sc.d_m2 + grid)
            return float(np.max(vals))

        tested = 0
        for _ in range(40):
            sc = draw_random_scenario(rng, m_lo=60, m_hi=120)
            vals = [best_log_success(sc, m2) for m2 in range(10, sc.M - 10, 7)]
            vals = [v for v in vals if v is not None]
            if len(vals) < 3:
                continue
            diffs = np.diff(vals)
            assert np.all(diffs >= -1e-9)
            tested += 1
        assert tested > 20


NAN, INF = math.nan, math.inf
BOUNDARY_SC = make_scenario(d_m1=20, d_m2=20, M=200)


OUT_OF_DOMAIN = [
    ('lfp_value(NAN,50.0,50.0)',
     lambda: lfp_value(BOUNDARY_SC, NAN, 50.0, 50.0)),
    ('lfp_value(INF,50.0,50.0)',
     lambda: lfp_value(BOUNDARY_SC, INF, 50.0, 50.0)),
    ('lfp_value(0.5,50.0,50.0)',
     lambda: lfp_value(BOUNDARY_SC, 0.5, 50.0, 50.0)),
    ('lfp_value(199.5,50.0,50.0)',
     lambda: lfp_value(BOUNDARY_SC, 199.5, 50.0, 50.0)),
    ('lfp_value(100.0,NAN,50.0)',
     lambda: lfp_value(BOUNDARY_SC, 100.0, NAN, 50.0)),
    ('lfp_value(100.0,50.0,INF)',
     lambda: lfp_value(BOUNDARY_SC, 100.0, 50.0, INF)),
    ('lfp_value(100.0,-INF,50.0)',
     lambda: lfp_value(BOUNDARY_SC, 100.0, -INF, 50.0)),
    ('lfp_value(100.0,-30.0,50.0)',
     lambda: lfp_value(BOUNDARY_SC, 100.0, -30.0, 50.0)),
    ('lfp(A(NAN,100.0,50.0,50.0))',
     lambda: lfp(BOUNDARY_SC, Allocation(NAN, 100.0, 50.0, 50.0))),
    ('lfp(A(INF,100.0,50.0,50.0))',
     lambda: lfp(BOUNDARY_SC, Allocation(INF, 100.0, 50.0, 50.0))),
    ('lfp(A(100.0,100.0,NAN,50.0))',
     lambda: lfp(BOUNDARY_SC, Allocation(100.0, 100.0, NAN, 50.0))),
    ('lfp(A(100.0,100.0,50.0,INF))',
     lambda: lfp(BOUNDARY_SC, Allocation(100.0, 100.0, 50.0, INF))),
    ('lfp(A(0.5,100.0,50.0,50.0))',
     lambda: lfp(BOUNDARY_SC, Allocation(0.5, 100.0, 50.0, 50.0))),
    ('lfp(A(150.0,100.0,50.0,50.0))',
     lambda: lfp(BOUNDARY_SC, Allocation(150.0, 100.0, 50.0, 50.0))),
    ('link_errors(A(NAN,100.0,50.0,50.0))',
     lambda: link_errors(BOUNDARY_SC, Allocation(NAN, 100.0, 50.0, 50.0))),
    ('link_errors(A(100.0,100.0,50.0,NAN))',
     lambda: link_errors(BOUNDARY_SC, Allocation(100.0, 100.0, 50.0, NAN))),
    ('link_errors(A(100.0,100.0,-1.0,50.0))',
     lambda: link_errors(BOUNDARY_SC, Allocation(100.0, 100.0, -1.0, 50.0))),
    ('link_errors(A(150.0,100.0,50.0,50.0))',
     lambda: link_errors(BOUNDARY_SC, Allocation(150.0, 100.0, 50.0, 50.0))),
    ('lfp_gradient_reduced(NAN,50.0,50.0)',
     lambda: lfp_gradient_reduced(BOUNDARY_SC, NAN, 50.0, 50.0)),
    ('lfp_gradient_reduced(100.0,NAN,50.0)',
     lambda: lfp_gradient_reduced(BOUNDARY_SC, 100.0, NAN, 50.0)),
    ('lfp_gradient_reduced(100.0,50.0,INF)',
     lambda: lfp_gradient_reduced(BOUNDARY_SC, 100.0, 50.0, INF)),
    ('lfp_gradient_reduced(100.0,-30.0,50.0)',
     lambda: lfp_gradient_reduced(BOUNDARY_SC, 100.0, -30.0, 50.0)),
    ('lfp_gradient_reduced(199.0,50.0,50.0)',
     lambda: lfp_gradient_reduced(BOUNDARY_SC, 199.0, 50.0, 50.0)),
    ('redundancy_bounds(NAN,100.0)',
     lambda: redundancy_bounds(BOUNDARY_SC, NAN, 100.0)),
    ('redundancy_bounds(100.0,NAN)',
     lambda: redundancy_bounds(BOUNDARY_SC, 100.0, NAN)),
    ('redundancy_bounds(INF,1.0)',
     lambda: redundancy_bounds(BOUNDARY_SC, INF, 1.0)),
    ('redundancy_bounds(0.5,100.0)',
     lambda: redundancy_bounds(BOUNDARY_SC, 0.5, 100.0)),
    ('redundancy_bounds(100.0,0.0)',
     lambda: redundancy_bounds(BOUNDARY_SC, 100.0, 0.0)),
    ('decode_error_prob(NAN,100.0,100.0)',
     lambda: decode_error_prob(NAN, 100.0, 100.0)),
    ('decode_error_prob(0.0,100.0,100.0)',
     lambda: decode_error_prob(0.0, 100.0, 100.0)),
    ('decode_error_prob(3.0,NAN,100.0)',
     lambda: decode_error_prob(3.0, NAN, 100.0)),
    ('decode_error_prob(3.0,0.5,100.0)',
     lambda: decode_error_prob(3.0, 0.5, 100.0)),
    ('decode_error_prob(3.0,100.0,INF)',
     lambda: decode_error_prob(3.0, 100.0, INF)),
    ('decode_error_prob(3.0,100.0,-1.0)',
     lambda: decode_error_prob(3.0, 100.0, -1.0)),
    ('decode_error_prob(3.0,np.array([100.0,NAN]),100.0)',
     lambda: decode_error_prob(3.0, np.array([100.0, NAN]), 100.0)),
]


@pytest.mark.parametrize(
    "call", [pytest.param(c, id=i) for i, c in OUT_OF_DOMAIN])
def test_entry_points_reject_out_of_domain_input(call):
    """The public functions validate at entry; the unchecked kernel
    below them never sees NaN, inf or out-of-range input."""
    with pytest.raises(DomainError):
        call()
