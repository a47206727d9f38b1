"""Scenario construction, random sampling and the JSON config surface."""

import json

import numpy as np
import pytest
from scipy import stats

from fblsec import (
    DegenerateChannelError,
    DomainError,
    LinkGeometry,
    Scenario,
    db_to_linear,
    linear_to_db,
    load_scenario,
    sample_scenario,
    scenario_from_dict,
    scenario_to_dict,
    snr_from_geometry,
)


def unit_geoms():
    g = LinkGeometry(pathloss=1.0, noise_power=1.0, tx_power=1.0)
    return {"ab": g, "ae": g, "ba": g, "be": g}


TEMPLATE = dict(d_m1=4, d_m2=4, M=100, eps_ab_max=0.5, eps_ba_max=0.5,
                eps_e_max=0.5)


class TestSnrFromGeometry:
    def test_all_unity(self):
        geom = LinkGeometry(pathloss=1.0, noise_power=1.0, tx_power=1.0)
        assert snr_from_geometry(geom, 1.0) == 1.0

    def test_linear_scaling(self):
        geom = LinkGeometry(pathloss=4.0, noise_power=2.0, tx_power=1.0)
        assert snr_from_geometry(geom, 1.0) == 2.0

    def test_tx_power_scale_consistency(self):
        geom1 = LinkGeometry(pathloss=3.0, noise_power=0.5, tx_power=1.0)
        geom2 = LinkGeometry(pathloss=3.0, noise_power=0.5, tx_power=2.0)
        assert snr_from_geometry(geom2, 0.7) == 2.0 * snr_from_geometry(geom1, 0.7)

    def test_zero_fading_rejected(self):
        geom = LinkGeometry(pathloss=1.0, noise_power=1.0, tx_power=1.0)
        with pytest.raises(DegenerateChannelError):
            snr_from_geometry(geom, 0.0)

    def test_mean_snr_matches_unit_fading_power(self):
        rng = np.random.default_rng(5)
        geom = LinkGeometry(pathloss=1.0, noise_power=1.0, tx_power=1.0)
        h = rng.standard_normal(100_000)
        h = h[h != 0.0]
        snrs = np.array([snr_from_geometry(geom, x) for x in h[:100_000]])
        se = snrs.std() / np.sqrt(snrs.size)
        assert abs(snrs.mean() - 1.0) <= 3.0 * se


class TestSampleScenario:
    def test_deterministic_in_seed(self):
        a = sample_scenario(unit_geoms(), 42, TEMPLATE)
        b = sample_scenario(unit_geoms(), 42, TEMPLATE)
        assert a == b

    def test_distinct_seeds_differ(self):
        a = sample_scenario(unit_geoms(), 42, TEMPLATE)
        b = sample_scenario(unit_geoms(), 43, TEMPLATE)
        assert (a.gamma_ab, a.gamma_ae, a.gamma_ba, a.gamma_be) != \
               (b.gamma_ab, b.gamma_ae, b.gamma_ba, b.gamma_be)

    def test_real_normal_gain_is_chi_square_1(self):
        gains = np.array([sample_scenario(unit_geoms(), s, TEMPLATE).gamma_ab
                          for s in range(10_000)])
        _, p = stats.kstest(gains, stats.chi2(df=1).cdf)
        assert p > 0.01

    def test_complex_normal_gain_is_exponential(self):
        gains = np.array([
            sample_scenario(unit_geoms(), s, TEMPLATE,
                            fading_model="complex_normal").gamma_ab
            for s in range(10_000)])
        _, p = stats.kstest(gains, stats.expon.cdf)
        assert p > 0.01

    def test_unknown_fading_model(self):
        with pytest.raises(DomainError):
            sample_scenario(unit_geoms(), 1, TEMPLATE, fading_model="rician")


class TestScenarioInvariants:
    def test_degenerate_direction_flagged(self):
        sc = Scenario(gamma_ab=1.0, gamma_ae=2.0, gamma_ba=3.0, gamma_be=1.0,
                      d_m1=4, d_m2=4, M=100, eps_ab_max=0.5, eps_ba_max=0.5,
                      eps_e_max=0.5)
        assert sc.degenerate_directions == ("forward",)

    def test_clean_scenario_not_flagged(self):
        sc = Scenario(gamma_ab=3.0, gamma_ae=1.0, gamma_ba=3.0, gamma_be=1.0,
                      d_m1=4, d_m2=4, M=100, eps_ab_max=0.5, eps_ba_max=0.5,
                      eps_e_max=0.5)
        assert sc.degenerate_directions == ()

    @pytest.mark.parametrize("field,value", [
        ("gamma_ab", 0.0), ("gamma_ae", -1.0), ("eps_ab_max", 0.0),
        ("eps_e_max", 1.0), ("M", 1), ("d_m1", 0),
        ("M", 40.7), ("d_m1", 4.9), ("d_m2", float("nan")),
        ("M", float("inf")),
    ])
    def test_invalid_fields_rejected(self, field, value):
        kwargs = dict(gamma_ab=3.0, gamma_ae=1.0, gamma_ba=3.0, gamma_be=1.0,
                      d_m1=4, d_m2=4, M=100, eps_ab_max=0.5, eps_ba_max=0.5,
                      eps_e_max=0.5)
        kwargs[field] = value
        with pytest.raises(DomainError):
            Scenario(**kwargs)


class TestJsonSurface:
    def base_cfg(self):
        return {
            "gamma_ab_db": 4.771212547196624, "gamma_ae_db": 0.0,
            "gamma_ba_db": 4.771212547196624, "gamma_be_db": 0.0,
            "d_m1": 20, "d_m2": 20, "M": 1000,
            "eps_ab_max": 0.5, "eps_ba_max": 0.5, "eps_e_max": 0.5,
        }

    def test_db_parsing(self):
        sc = scenario_from_dict(self.base_cfg())
        assert sc.gamma_ab == pytest.approx(3.0, rel=1e-12)
        assert sc.gamma_ae == pytest.approx(1.0, rel=1e-12)
        assert sc.M == 1000

    def test_roundtrip_through_dict(self):
        sc = scenario_from_dict(self.base_cfg())
        again = scenario_from_dict(scenario_to_dict(sc))
        assert again.gamma_ab == pytest.approx(sc.gamma_ab, rel=1e-12)
        assert again.M == sc.M

    def test_geometry_link(self):
        cfg = self.base_cfg()
        del cfg["gamma_ab_db"]
        cfg["geometry_ab"] = {"pathloss": 2.0, "noise_power": 1.0,
                              "tx_power": 1.0, "fading_seed": 7}
        sc1 = scenario_from_dict(cfg)
        sc2 = scenario_from_dict(cfg)
        assert sc1.gamma_ab == sc2.gamma_ab  # seed-deterministic
        gain = np.random.default_rng(7).standard_normal() ** 2
        assert sc1.gamma_ab == pytest.approx(2.0 * gain, rel=1e-12)

    def test_db_takes_precedence_over_geometry(self):
        cfg = self.base_cfg()
        cfg["geometry_ab"] = {"pathloss": 99.0, "noise_power": 1.0,
                              "tx_power": 1.0, "fading_seed": 7}
        sc = scenario_from_dict(cfg)
        assert sc.gamma_ab == pytest.approx(3.0, rel=1e-12)

    def test_missing_field_raises(self):
        cfg = self.base_cfg()
        del cfg["eps_e_max"]
        with pytest.raises(DomainError):
            scenario_from_dict(cfg)

    @pytest.mark.parametrize("field,value", [
        ("M", 40.7), ("d_m1", 4.9), ("d_m2", 2.5), ("M", None),
        ("eps_e_max", None), ("M", "forty"),
    ])
    def test_bad_scalar_field_raises(self, field, value):
        cfg = self.base_cfg()
        cfg[field] = value
        with pytest.raises(DomainError):
            scenario_from_dict(cfg)

    def test_integral_floats_accepted(self):
        cfg = self.base_cfg()
        cfg.update(M=200.0, d_m1=20.0)
        sc = scenario_from_dict(cfg)
        assert (sc.M, sc.d_m1) == (200, 20)
        assert type(sc.M) is int and type(sc.d_m1) is int

    def test_missing_link_raises(self):
        cfg = self.base_cfg()
        del cfg["gamma_be_db"]
        with pytest.raises(DomainError):
            scenario_from_dict(cfg)

    def test_fading_model_switch_for_geometry_links(self):
        cfg = self.base_cfg()
        del cfg["gamma_ab_db"]
        cfg["geometry_ab"] = {"pathloss": 1.0, "noise_power": 1.0,
                              "tx_power": 1.0, "fading_seed": 11}
        real = scenario_from_dict(cfg).gamma_ab
        cfg["fading_model"] = "complex_normal"
        cplx = scenario_from_dict(cfg).gamma_ab
        assert real != cplx
        rng = np.random.default_rng(11)
        x, y = rng.standard_normal(2)
        assert cplx == pytest.approx(0.5 * (x * x + y * y), rel=1e-12)

    def test_degenerate_flag_survives_json_load(self):
        cfg = self.base_cfg()
        cfg["gamma_ae_db"] = cfg["gamma_ab_db"] + 1.0
        sc = scenario_from_dict(cfg)
        assert sc.degenerate_directions == ("forward",)

    def test_load_scenario_file(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(self.base_cfg()))
        sc = load_scenario(path)
        assert sc.gamma_ba == pytest.approx(3.0, rel=1e-12)

    def test_db_conversion_helpers(self):
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
        assert linear_to_db(100.0) == pytest.approx(20.0, rel=1e-15)
        assert db_to_linear(linear_to_db(3.7)) == pytest.approx(3.7, rel=1e-14)
