"""Problem-instance construction.

A :class:`Scenario` bundles the four link SNRs of a round-trip wiretap
setup (forward legitimate/eavesdrop, backward legitimate/eavesdrop) with
the message sizes, the total blocklength budget and the reliability and
leakage thresholds.  A scenario is built from its four SNRs, directly or
from its JSON form (``scenario_from_dict``).  There a link gives its SNR
in dB, or its pathloss/noise/transmit-power geometry and a fading seed,
from which one seeded small-scale fading draw sets the SNR; that is the
only path from geometry to SNR, and there is no random scenario sampler.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .fbl_core import DomainError, _dispersion

FADING_MODELS = ("real_normal", "complex_normal")

# The largest M, d_m1 and d_m2 a Scenario takes (and the largest
# redundancy the CLI's validate takes).  Every SNR a Scenario accepts
# has log2(1 + gamma) < 512 (V(gamma) overflows above gamma ~ 1.3e154),
# so every total-bits value of a split stays below 2**52, where floats
# still hold consecutive integers: the m1 grid keeps m2 >= 1 and the
# integer finish's brackets keep shrinking.
_MAX_INTEGER = 2**43


class DegenerateChannelError(DomainError):
    """A fading draw of exactly zero leaves the link without a channel."""


def db_to_linear(x_db):
    """dB -> linear power ratio."""
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


@dataclass(frozen=True)
class Scenario:
    """One full problem instance.

    SNRs are stored linear.  ``eps_ab_max`` / ``eps_ba_max`` upper-bound
    the legitimate error probabilities (reliability); ``eps_e_max``
    lower-bounds both eavesdropper error probabilities (leakage).  A
    direction whose eavesdropper SNR reaches the legitimate SNR is
    accepted -- the objective stays well defined, only the secrecy
    framing degenerates.
    """

    gamma_ab: float
    gamma_ae: float
    gamma_ba: float
    gamma_be: float
    d_m1: int
    d_m2: int
    M: int
    eps_ab_max: float
    eps_ba_max: float
    eps_e_max: float

    def __post_init__(self):
        for name in ("gamma_ab", "gamma_ae", "gamma_ba", "gamma_be"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise DomainError(f"Scenario.{name} must be > 0, got {v!r}")
        for name in ("eps_ab_max", "eps_ba_max", "eps_e_max"):
            v = getattr(self, name)
            if not (np.isfinite(v) and 0.0 < v < 1.0):
                raise DomainError(f"Scenario.{name} must lie in (0,1), got {v!r}")
        for name, lowest in (("M", 2), ("d_m1", 1), ("d_m2", 1)):
            v = getattr(self, name)
            # the bounds first: float(v) overflows on an int beyond
            # float range
            if v > _MAX_INTEGER:
                raise DomainError(f"Scenario.{name} must be <= 2**43, "
                                  f"got {v!r}")
            if v < lowest:
                raise DomainError(f"Scenario.{name} must be >= {lowest}, "
                                  f"got {v!r}")
            if not float(v).is_integer():
                raise DomainError(f"Scenario.{name} must be an integer, "
                                  f"got {v!r}")
            object.__setattr__(self, name, int(v))
        # the link kernel divides blocklengths up to M by V(gamma)
        for name in ("gamma_ab", "gamma_ae", "gamma_ba", "gamma_be"):
            v = getattr(self, name)
            disp = _dispersion(float(v))
            if not (math.isfinite(disp) and math.isfinite(self.M / disp)):
                raise DomainError(
                    f"Scenario.{name} = {v!r} is out of range: its "
                    f"dispersion V = {disp!r} and M / V must be finite")


def _fading_gains(rng, n, fading_model):
    if fading_model == "real_normal":
        return rng.standard_normal(n) ** 2
    if fading_model == "complex_normal":
        # unit-variance complex coefficient: |h|^2 = (x^2 + y^2) / 2
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        return 0.5 * (x * x + y * y)
    raise DomainError(f"unknown fading model {fading_model!r}; "
                      f"expected one of {FADING_MODELS}")


# ----------------------------------------------------------------------
# JSON config surface
# ----------------------------------------------------------------------

_LINKS = ("ab", "ae", "ba", "be")
_SCALAR_FIELDS = ("d_m1", "d_m2", "M", "eps_ab_max", "eps_ba_max", "eps_e_max")
_GEOMETRY_FIELDS = ("pathloss", "noise_power", "tx_power", "fading_seed")


def _number(cfg, key, where=""):
    """cfg[key] as a float; booleans, null, lists, objects,
    non-numeric strings and integers beyond float range raise
    DomainError naming the field ``where + key``."""
    value = cfg[key]
    try:
        if not isinstance(value, bool):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"scenario field {where}{key} must be a number "
                      f"within float range, got {value!r}")


def _geometry_snr(cfg, link, fading_model):
    """SNR tx_power * pathloss * gain / noise_power of a link given as
    "geometry_<link>", for one seeded draw of the fading model's power
    gain; the three geometry numbers must be finite and > 0, and a gain
    of exactly zero is a dead link."""
    key = f"geometry_{link}"
    geo_cfg = cfg[key]
    if not (isinstance(geo_cfg, dict)
            and all(k in geo_cfg for k in _GEOMETRY_FIELDS)):
        raise DomainError(f"{key} needs {', '.join(_GEOMETRY_FIELDS)}")
    where = f"{key}."
    geometry = [_number(geo_cfg, k, where) for k in _GEOMETRY_FIELDS[:3]]
    for name, v in zip(_GEOMETRY_FIELDS, geometry):
        if not (np.isfinite(v) and v > 0.0):
            raise DomainError(f"scenario field {where}{name} must be finite "
                              f"and > 0, got {v!r}")
    pathloss, noise_power, tx_power = geometry
    seed = geo_cfg["fading_seed"]
    if isinstance(seed, bool) or not isinstance(seed, int):
        seed = _number(geo_cfg, "fading_seed", where)
    if (isinstance(seed, float) and not seed.is_integer()) or seed < 0:
        raise DomainError(f"scenario field {where}fading_seed must be "
                          f"an integer >= 0, got {geo_cfg['fading_seed']!r}")
    rng = np.random.default_rng(int(seed))
    gain = float(_fading_gains(rng, 1, fading_model)[0])
    if gain == 0.0:
        raise DegenerateChannelError(
            f"link {link}: fading gain of 0 gives a dead link")
    return tx_power * pathloss * gain / noise_power


def scenario_from_dict(cfg: dict) -> Scenario:
    """Build a Scenario from its JSON dict form.

    Each link takes either "gamma_<link>_db" (a number, dB) or
    "geometry_<link>" ({"pathloss", "noise_power", "tx_power",
    "fading_seed"}); when both are present the direct dB value wins.
    An optional top-level "fading_model" selects the small-scale model
    for geometry-specified links.  Unknown keys are ignored.
    """
    if not isinstance(cfg, dict):
        raise DomainError("scenario config must be a JSON object")
    fading_model = cfg.get("fading_model", "real_normal")
    snrs = {}
    for link in _LINKS:
        db_key = f"gamma_{link}_db"
        geo_key = f"geometry_{link}"
        if db_key in cfg:
            snrs[link] = float(db_to_linear(_number(cfg, db_key)))
        elif geo_key in cfg:
            snrs[link] = _geometry_snr(cfg, link, fading_model)
        else:
            raise DomainError(f"scenario config missing {db_key} or {geo_key}")
    missing = [k for k in _SCALAR_FIELDS if k not in cfg]
    if missing:
        raise DomainError(f"scenario config missing fields: {missing}")
    scalars = {k: _number(cfg, k) for k in _SCALAR_FIELDS}
    # Scenario itself rejects non-integral M, d_m1 and d_m2.
    return Scenario(gamma_ab=snrs["ab"], gamma_ae=snrs["ae"],
                    gamma_ba=snrs["ba"], gamma_be=snrs["be"], **scalars)


def load_scenario(path) -> Scenario:
    """Read and validate a scenario JSON file.

    json.JSONDecodeError (with line/column info) propagates to the
    caller; the CLI turns it into an exit-1 diagnostic.
    """
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    return scenario_from_dict(cfg)


__all__ = [
    "DegenerateChannelError", "Scenario",
    "db_to_linear", "scenario_from_dict", "load_scenario", "FADING_MODELS",
]
