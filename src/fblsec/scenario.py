"""Problem-instance construction.

A :class:`Scenario` bundles the four link SNRs of a round-trip wiretap
setup (forward legitimate/eavesdrop, backward legitimate/eavesdrop) with
the message sizes, the total blocklength budget and the reliability and
leakage thresholds.  Scenarios are built either deterministically from
given SNRs (directly in dB through the JSON schema) or randomly from
pathloss/noise/transmit-power geometry with seeded small-scale fading.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .fbl_core import DomainError

FADING_MODELS = ("real_normal", "complex_normal")


class DegenerateChannelError(DomainError):
    """A fading draw of exactly zero leaves the link without a channel."""


def db_to_linear(x_db):
    """dB -> linear power ratio."""
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def linear_to_db(x):
    """Linear power ratio -> dB."""
    return 10.0 * np.log10(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class LinkGeometry:
    """Large-scale description of one link: pathloss gain, noise power
    (W) and transmit power (W).  All strictly positive."""

    pathloss: float
    noise_power: float
    tx_power: float

    def __post_init__(self):
        for name in ("pathloss", "noise_power", "tx_power"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise DomainError(f"LinkGeometry.{name} must be > 0, got {v!r}")


@dataclass(frozen=True)
class Scenario:
    """One full problem instance.

    SNRs are stored linear.  ``eps_ab_max`` / ``eps_ba_max`` upper-bound
    the legitimate error probabilities (reliability); ``eps_e_max``
    lower-bounds both eavesdropper error probabilities (leakage).  A
    direction whose eavesdropper SNR reaches the legitimate SNR is
    accepted but flagged in ``degenerate_directions`` -- the objective
    stays well defined, only the secrecy framing degenerates.
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
    degenerate_directions: tuple = field(default=(), compare=False)

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
        flags = []
        if self.gamma_ab <= self.gamma_ae:
            flags.append("forward")
        if self.gamma_ba <= self.gamma_be:
            flags.append("backward")
        object.__setattr__(self, "degenerate_directions", tuple(flags))
        object.__setattr__(self, "M", int(self.M))
        object.__setattr__(self, "d_m1", int(self.d_m1))
        object.__setattr__(self, "d_m2", int(self.d_m2))


def snr_from_geometry(geom: LinkGeometry, fading_sample: float) -> float:
    """Instantaneous SNR p * pathloss * h^2 / noise for one fading draw.

    The small-scale coefficient enters squared; a draw of exactly zero is
    rejected as a degenerate channel rather than silently producing an
    SNR of zero.
    """
    if not np.isfinite(fading_sample):
        raise DomainError(f"fading_sample must be finite, got {fading_sample!r}")
    return _link_snr(geom, float(fading_sample) ** 2, "fading sample")


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


def sample_scenario(geoms, seed, template, fading_model="real_normal"):
    """Draw one random Scenario from per-link geometries.

    Parameters
    ----------
    geoms : mapping
        Keys "ab", "ae", "ba", "be" -> :class:`LinkGeometry`.
    seed : int
        64-bit seed for numpy's PCG64 generator; identical seeds give
        byte-identical scenarios.
    template : mapping
        The non-SNR fields: d_m1, d_m2, M, eps_ab_max, eps_ba_max,
        eps_e_max.
    fading_model : str
        "real_normal" draws the coefficient from N(0,1) (gain is then
        chi-square with one degree of freedom); "complex_normal" draws a
        unit-variance complex coefficient (gain exponential with mean 1).

    Fading is drawn independently per link in the fixed order ab, ae,
    ba, be, so the mapping from seed to scenario is stable.
    """
    rng = np.random.default_rng(int(seed))
    gains = _fading_gains(rng, 4, fading_model)
    snrs = {}
    for key, gain in zip(("ab", "ae", "ba", "be"), gains):
        snrs[key] = _link_snr(geoms[key], gain, f"link {key}")
    return Scenario(
        gamma_ab=snrs["ab"], gamma_ae=snrs["ae"],
        gamma_ba=snrs["ba"], gamma_be=snrs["be"],
        d_m1=template["d_m1"], d_m2=template["d_m2"], M=template["M"],
        eps_ab_max=template["eps_ab_max"], eps_ba_max=template["eps_ba_max"],
        eps_e_max=template["eps_e_max"],
    )


# ----------------------------------------------------------------------
# JSON config surface
# ----------------------------------------------------------------------

_LINKS = ("ab", "ae", "ba", "be")
_SCALAR_FIELDS = ("d_m1", "d_m2", "M", "eps_ab_max", "eps_ba_max", "eps_e_max")


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
            snrs[link] = float(db_to_linear(float(cfg[db_key])))
        elif geo_key in cfg:
            geo_cfg = cfg[geo_key]
            try:
                geom = LinkGeometry(pathloss=float(geo_cfg["pathloss"]),
                                    noise_power=float(geo_cfg["noise_power"]),
                                    tx_power=float(geo_cfg["tx_power"]))
                seed = int(geo_cfg["fading_seed"])
            except (KeyError, TypeError) as exc:
                raise DomainError(
                    f"{geo_key} needs pathloss, noise_power, tx_power, "
                    f"fading_seed") from exc
            rng = np.random.default_rng(seed)
            gain = float(_fading_gains(rng, 1, fading_model)[0])
            snrs[link] = _link_snr(geom, gain, f"link {link}")
        else:
            raise DomainError(f"scenario config missing {db_key} or {geo_key}")
    missing = [k for k in _SCALAR_FIELDS if k not in cfg]
    if missing:
        raise DomainError(f"scenario config missing fields: {missing}")
    scalars = {}
    for k in _SCALAR_FIELDS:
        try:
            scalars[k] = float(cfg[k])
        except (TypeError, ValueError) as exc:
            raise DomainError(f"scenario field {k} must be a number, "
                              f"got {cfg[k]!r}") from exc
    # Scenario itself rejects non-integral M, d_m1 and d_m2.
    return Scenario(gamma_ab=snrs["ab"], gamma_ae=snrs["ae"],
                    gamma_ba=snrs["ba"], gamma_be=snrs["be"], **scalars)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serialize with SNRs in dB (the plotting/sweep convention)."""
    out = {f"gamma_{link}_db": float(linear_to_db(getattr(scenario, f"gamma_{link}")))
           for link in _LINKS}
    for k in _SCALAR_FIELDS:
        out[k] = getattr(scenario, k)
    return out


def load_scenario(path) -> Scenario:
    """Read and validate a scenario JSON file.

    json.JSONDecodeError (with line/column info) propagates to the
    caller; the CLI turns it into an exit-1 diagnostic.
    """
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    return scenario_from_dict(cfg)


__all__ = [
    "DegenerateChannelError", "LinkGeometry", "Scenario",
    "db_to_linear", "linear_to_db", "snr_from_geometry", "sample_scenario",
    "scenario_from_dict", "scenario_to_dict",
    "load_scenario", "FADING_MODELS",
]
