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


class DegenerateChannelError(DomainError):
    """A fading draw of exactly zero leaves the link without a channel."""


def db_to_linear(x_db):
    """dB -> linear power ratio."""
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


@dataclass(frozen=True)
class _LinkGeometry:
    """Large-scale description of one link: pathloss gain, noise power
    (W) and transmit power (W).  All strictly positive."""

    pathloss: float
    noise_power: float
    tx_power: float

    def __post_init__(self):
        for name in ("pathloss", "noise_power", "tx_power"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise DomainError(f"link geometry {name} must be finite "
                                  f"and > 0, got {v!r}")


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
        for name in ("M", "d_m1", "d_m2"):
            v = getattr(self, name)
            if not float(v).is_integer():
                raise DomainError(f"Scenario.{name} must be an integer, got {v!r}")
        if int(self.M) < 2:
            raise DomainError(f"Scenario.M must be >= 2, got {self.M!r}")
        if int(self.d_m1) < 1 or int(self.d_m2) < 1:
            raise DomainError("message sizes d_m1, d_m2 must be >= 1")
        object.__setattr__(self, "M", int(self.M))
        object.__setattr__(self, "d_m1", int(self.d_m1))
        object.__setattr__(self, "d_m2", int(self.d_m2))
        # the link kernel divides blocklengths up to M by V(gamma)
        for name in ("gamma_ab", "gamma_ae", "gamma_ba", "gamma_be"):
            v = getattr(self, name)
            disp = _dispersion(float(v))
            if not (math.isfinite(disp) and math.isfinite(self.M / disp)):
                raise DomainError(
                    f"Scenario.{name} = {v!r} is out of range: its "
                    f"dispersion V = {disp!r} and M / V must be finite")


def _link_snr(geom, gain, what):
    """SNR tx_power * pathloss * gain / noise_power for a small-scale
    power gain; a gain of exactly zero is a dead link."""
    if gain == 0.0:
        raise DegenerateChannelError(f"{what}: fading gain of 0 gives a dead link")
    return geom.tx_power * geom.pathloss * gain / geom.noise_power


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
    """cfg[key] as a float; null, lists, objects and non-numeric strings
    raise DomainError naming the field ``where + key``."""
    try:
        return float(cfg[key])
    except (TypeError, ValueError) as exc:
        raise DomainError(f"scenario field {where}{key} must be a number, "
                          f"got {cfg[key]!r}") from exc


def _geometry_snr(cfg, link, fading_model):
    """SNR of a link given as "geometry_<link>": its geometry and one
    seeded draw of the fading model."""
    key = f"geometry_{link}"
    geo_cfg = cfg[key]
    if not (isinstance(geo_cfg, dict)
            and all(k in geo_cfg for k in _GEOMETRY_FIELDS)):
        raise DomainError(f"{key} needs {', '.join(_GEOMETRY_FIELDS)}")
    where = f"{key}."
    geom = _LinkGeometry(*(_number(geo_cfg, k, where)
                          for k in _GEOMETRY_FIELDS[:3]))
    seed = geo_cfg["fading_seed"]
    if not isinstance(seed, int):
        seed = _number(geo_cfg, "fading_seed", where)
        if not seed.is_integer():
            raise DomainError(f"scenario field {where}fading_seed must be "
                              f"an integer, got {geo_cfg['fading_seed']!r}")
    rng = np.random.default_rng(int(seed))
    gain = float(_fading_gains(rng, 1, fading_model)[0])
    return _link_snr(geom, gain, f"link {link}")


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
