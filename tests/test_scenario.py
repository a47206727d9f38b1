"""Scenario construction and the JSON config surface."""

import json

import numpy as np
import pytest

from fblsec import (
    DegenerateChannelError,
    DomainError,
    Scenario,
    db_to_linear,
    load_scenario,
    scenario,
    scenario_from_dict,
)


class TestScenarioInvariants:
    @pytest.mark.parametrize("field,value", [
        ("gamma_ab", 0.0), ("gamma_ae", -1.0), ("eps_ab_max", 0.0),
        ("eps_e_max", 1.0), ("M", 1), ("d_m1", 0),
        ("M", 40.7), ("d_m1", 4.9), ("d_m2", float("nan")),
        ("M", float("inf")), ("M", 2**53),
        pytest.param("d_m1", 10**300, id="d_m1-10**300"),
        # ints beyond float range, which float() cannot convert
        *[pytest.param(field, sign * 10**400, id=f"{field}-{sign}e400")
          for field in ("M", "d_m1", "d_m2") for sign in (1, -1)],
        # booleans and non-numbers, as the JSON surface rejects them
        ("gamma_ab", True), ("d_m1", True), ("gamma_ae", np.bool_(True)),
        ("gamma_ba", "3"), ("eps_ab_max", "0.5"), ("M", None), ("M", "100"),
        ("gamma_be", [1.0]),
    ])
    def test_invalid_fields_rejected(self, field, value):
        kwargs = dict(gamma_ab=3.0, gamma_ae=1.0, gamma_ba=3.0, gamma_be=1.0,
                      d_m1=4, d_m2=4, M=100, eps_ab_max=0.5, eps_ba_max=0.5,
                      eps_e_max=0.5)
        kwargs[field] = value
        with pytest.raises(DomainError, match=f"Scenario.{field} must "):
            Scenario(**kwargs)

    @pytest.mark.parametrize("field,value,M", [
        ("gamma_ab", 1e160, 100),   # V(gamma) is NaN
        ("gamma_be", 1e-320, 100),  # M / V overflows
        ("gamma_ae", 1e-306, 1000),
    ])
    def test_snr_outside_the_kernel_range_rejected(self, field, value, M):
        kwargs = dict(gamma_ab=3.0, gamma_ae=1.0, gamma_ba=3.0, gamma_be=1.0,
                      d_m1=4, d_m2=4, M=M, eps_ab_max=0.5, eps_ba_max=0.5,
                      eps_e_max=0.5)
        kwargs[field] = value
        with pytest.raises(DomainError, match=f"Scenario.{field}"):
            Scenario(**kwargs)
        kwargs[field] = np.float64(value)
        with pytest.raises(DomainError, match=f"Scenario.{field}"):
            Scenario(**kwargs)

    def test_numpy_numbers_accepted(self):
        sc = Scenario(gamma_ab=np.float64(3.0), gamma_ae=np.float32(1.0),
                      gamma_ba=3, gamma_be=1.0, d_m1=np.int64(4),
                      d_m2=np.float64(4.0), M=np.int32(100),
                      eps_ab_max=np.float64(0.5), eps_ba_max=0.5,
                      eps_e_max=0.5)
        assert (sc.d_m1, sc.d_m2, sc.M) == (4, 4, 100)
        assert type(sc.M) is int

    def test_extreme_snrs_inside_the_range_accepted(self):
        # 1540 dB and -3000 dB keep V and M / V finite at M = 1000
        Scenario(gamma_ab=1e154, gamma_ae=1.0, gamma_ba=3.0, gamma_be=1e-300,
                 d_m1=4, d_m2=4, M=1000, eps_ab_max=0.5, eps_ba_max=0.5,
                 eps_e_max=0.5)


class TestJsonSurface:
    def base_cfg(self):
        return {
            "gamma_ab_db": 4.771212547196624, "gamma_ae_db": 0.0,
            "gamma_ba_db": 4.771212547196624, "gamma_be_db": 0.0,
            "d_m1": 20, "d_m2": 20, "M": 1000,
            "eps_ab_max": 0.5, "eps_ba_max": 0.5, "eps_e_max": 0.5,
        }

    def geometry_cfg(self, **geometry):
        """The base config with link ab given by its geometry."""
        cfg = self.base_cfg()
        del cfg["gamma_ab_db"]
        cfg["geometry_ab"] = {"pathloss": 2.0, "noise_power": 1.0,
                              "tx_power": 1.0, "fading_seed": 7, **geometry}
        return cfg

    def test_db_parsing(self):
        sc = scenario_from_dict(self.base_cfg())
        assert sc.gamma_ab == pytest.approx(3.0, rel=1e-12)
        assert sc.gamma_ae == pytest.approx(1.0, rel=1e-12)
        assert sc.M == 1000

    def test_geometry_link(self):
        cfg = self.geometry_cfg()
        sc1 = scenario_from_dict(cfg)
        sc2 = scenario_from_dict(cfg)
        assert sc1.gamma_ab == sc2.gamma_ab  # seed-deterministic
        gain = np.random.default_rng(7).standard_normal() ** 2
        assert sc1.gamma_ab == pytest.approx(2.0 * gain, rel=1e-12)

    def test_integral_float_seed_is_the_integer_seed(self):
        seven = scenario_from_dict(self.geometry_cfg()).gamma_ab
        assert scenario_from_dict(
            self.geometry_cfg(fading_seed=7.0)).gamma_ab == seven

    @pytest.mark.parametrize("field,value", [
        ("fading_seed", 7.9), ("fading_seed", "seven"), ("fading_seed", None),
        ("fading_seed", float("inf")), ("pathloss", "abc"),
        ("noise_power", None), ("tx_power", [1.0]), ("fading_seed", True),
        ("pathloss", True),
    ])
    def test_bad_geometry_field_raises(self, field, value):
        cfg = self.geometry_cfg(**{field: value})
        with pytest.raises(DomainError, match=f"geometry_ab.{field}"):
            scenario_from_dict(cfg)

    @pytest.mark.parametrize("field", ["pathloss", "noise_power", "tx_power"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("inf")])
    def test_non_positive_geometry_raises(self, field, value):
        cfg = self.geometry_cfg(**{field: value})
        with pytest.raises(DomainError, match=f"geometry_ab.{field} must be finite and > 0"):
            scenario_from_dict(cfg)

    def test_zero_fading_gain_is_a_dead_link(self, monkeypatch):
        monkeypatch.setattr(scenario, "_fading_gains", lambda *args: [0.0])
        with pytest.raises(DegenerateChannelError, match="link ab"):
            scenario._geometry_snr(self.geometry_cfg(), "ab", "real_normal")

    def test_unknown_fading_model_raises(self):
        cfg = self.geometry_cfg()
        cfg["fading_model"] = "rician"
        with pytest.raises(DomainError, match="rician"):
            scenario_from_dict(cfg)

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
        ("eps_e_max", None), ("M", "forty"), ("d_m1", True),
    ])
    def test_bad_scalar_field_raises(self, field, value):
        cfg = self.base_cfg()
        cfg[field] = value
        with pytest.raises(DomainError, match=field):
            scenario_from_dict(cfg)

    @pytest.mark.parametrize("value", [None, [3.0], {"db": 3.0}, "loud", True])
    def test_bad_db_field_raises(self, value):
        cfg = self.base_cfg()
        cfg["gamma_ab_db"] = value
        with pytest.raises(DomainError, match="gamma_ab_db"):
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

    def test_eavesdropper_above_legitimate_loads(self):
        # a degenerate forward direction is a valid problem instance
        cfg = self.base_cfg()
        cfg["gamma_ae_db"] = cfg["gamma_ab_db"] + 1.0
        sc = scenario_from_dict(cfg)
        assert sc.gamma_ae > sc.gamma_ab

    def test_load_scenario_file(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(self.base_cfg()))
        sc = load_scenario(path)
        assert sc.gamma_ba == pytest.approx(3.0, rel=1e-12)

    def test_db_conversion_helpers(self):
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
