"""Scalar finite-blocklength primitives.

Gaussian Q-function and its inverse, channel dispersion and the
normal-approximation decoding-error probability.  All functions
accept floats or numpy arrays and are pure (no shared state), so they
are safe to call from any number of threads.

Validation contract: every public function here checks its arguments and
raises :class:`DomainError` outside the domain, except ``rate_margin``,
the unchecked margin that ``decode_error_prob`` evaluates once its own
checks have passed.

Internally the error-probability argument is evaluated in natural-log
form,

    w = (ln(1 + gamma) - d * ln2 / m) * sqrt(m / V(gamma)),

which is algebraically identical to the usual base-2 expression
sqrt(m/V) * (C - d/m) * ln2 but avoids mixed-base rounding.  It is
written once (``_margin``), as are V(gamma) and Qinv (``_dispersion``,
``_q_inv``): the checked functions run these after their checks, and
``rate_margin`` and the model's per-scenario link constants run them
directly.  Tail values are computed through the complementary error
function (the model's link kernel takes ``log_ndtr`` in the log domain)
so that arguments beyond |w| ~ 38 do not collapse to 0/1 prematurely.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfc, ndtri

LN2 = float(np.log(2.0))
_SQRT2 = float(np.sqrt(2.0))
_LOG_SQRT_2PI = float(np.log(np.sqrt(2.0 * np.pi)))

# Smallest/largest probabilities representable without leaving (0, 1).
_P_FLOOR = float(np.nextafter(0.0, 1.0))
_P_CEIL = float(np.nextafter(1.0, 0.0))


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericalError(ArithmeticError):
    """A computation produced non-finite intermediate values."""


def _check_finite(name, x):
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{name} must be finite, got {x!r}")


def _check_snr(gamma):
    gamma = np.asarray(gamma, dtype=float)
    _check_finite("snr", gamma)
    if np.any(gamma <= 0.0):
        raise DomainError(
            f"snr must be > 0 (dispersion vanishes at zero), got {gamma!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        v = _dispersion(gamma)
    if not np.all(np.isfinite(v)):
        raise DomainError(
            f"snr too large: its dispersion V(gamma) overflows, got {gamma!r}")
    return gamma


def _check_code(m, d):
    m = np.asarray(m, dtype=float)
    d = np.asarray(d, dtype=float)
    _check_finite("blocklength", m)
    _check_finite("total bits", d)
    if np.any(m < 1.0):
        raise DomainError(f"blocklength must be >= 1, got {m!r}")
    if np.any(d < 0.0):
        raise DomainError(f"total bits must be >= 0, got {d!r}")
    return m, d


def q_func(x):
    """Upper-tail probability Q(x) of the standard normal distribution.

    Evaluated as 0.5 * erfc(x / sqrt(2)), which stays accurate far into
    the tails where the naive 1 - CDF form would round to 0.

    Parameters
    ----------
    x : float or array
        Argument; must be finite.

    Returns
    -------
    float or array
        Q(x) in (0, 1), strictly decreasing in x.
    """
    x = np.asarray(x, dtype=float)
    _check_finite("x", x)
    out = 0.5 * erfc(x / _SQRT2)
    return float(out) if out.ndim == 0 else out


def q_inv(p):
    """Inverse of ``q_func``: the x with Q(x) = p.

    Parameters
    ----------
    p : float or array
        Probability strictly inside (0, 1).

    Returns
    -------
    float or array
        Standard-normal upper quantile, accurate to ~1e-14 relative even
        for tail probabilities near 1e-300.
    """
    p = np.asarray(p, dtype=float)
    _check_finite("p", p)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise DomainError(f"p must lie strictly in (0, 1), got {p!r}")
    out = _q_inv(p)
    return float(out) if out.ndim == 0 else out


def _q_inv(p):
    """``q_inv`` unchecked: for inputs validated elsewhere (``Scenario``)."""
    return -ndtri(p)


def dispersion(gamma):
    """Channel dispersion V(gamma) = 1 - (1 + gamma)^-2.

    Strictly increasing from 0+ towards 1; gamma = 0 is rejected because
    the vanishing dispersion makes the error-probability argument
    singular downstream.
    """
    gamma = _check_snr(gamma)
    out = _dispersion(gamma)
    return float(out) if out.ndim == 0 else out


def _dispersion(gamma):
    """``dispersion`` unchecked, with the same bits on floats and arrays."""
    return gamma * (2.0 + gamma) / ((1.0 + gamma) * (1.0 + gamma))


def _margin(log1p_gamma, v, m, d, sqrt=np.sqrt):
    """w = (ln(1+gamma) - d*ln2/m) * sqrt(m / V) from the link's
    ln(1+gamma) and V(gamma): the one margin expression.

    ``rate_margin`` calls it with ``np.sqrt`` on the two values it
    computes from gamma, and the link kernel ``lfp_model._link_pair``
    and ``link_errors`` on ``lfp_model.link_constants``' cached values,
    with ``math.sqrt`` on floats or ``np.sqrt`` on arrays: the same bits,
    as both take ln(1+gamma) from ``np.log1p``.
    """
    return (log1p_gamma - d * LN2 / m) * sqrt(m / v)


def rate_margin(gamma, m, d):
    """Standardized rate margin fed to the Q-function.

    w = (ln(1+gamma) - d*ln2/m) * sqrt(m / V(gamma)); positive when the
    coding rate d/m sits below capacity, negative above it.

    Unchecked: the caller guarantees gamma > 0, m >= 1 and d >= 0, all
    finite (see the module docstring).  Out-of-domain input yields NaN
    or a meaningless number, not an error.
    """
    out = _margin(np.log1p(gamma), _dispersion(gamma), m, d)
    return float(out) if out.ndim == 0 else out


def decode_error_prob(gamma, m, d):
    """Normal-approximation decoding error probability.

    epsilon = Q( sqrt(m / V(gamma)) * (C(gamma) - d/m) * ln 2 )

    Parameters
    ----------
    gamma : float or array
        Link SNR, linear scale, > 0.
    m : float or array
        Blocklength in channel uses, >= 1 (real-valued; integrality is a
        solver concern, not a model concern).
    d : float or array
        Total transmitted bits (message + redundancy), >= 0.

    Returns
    -------
    float or array
        Error probability, clipped to the open interval (0, 1): arguments
        past |w| ~ 38 would otherwise round to exactly 0 or 1 in double
        precision.  Strictly increasing in d, strictly decreasing in m
        away from the clip boundaries.
    """
    gamma = _check_snr(gamma)
    m, d = _check_code(m, d)
    return _error_prob(rate_margin(gamma, m, d))


def _error_prob(w):
    """Q(w) clipped to the open interval (0, 1): the error probability
    at margin ``w``, a float or an array.  Unchecked."""
    out = np.clip(0.5 * erfc(np.asarray(w) / _SQRT2), _P_FLOOR, _P_CEIL)
    return float(out) if out.ndim == 0 else out


def _log_hazard(x, log_cdf):
    """log(phi(x) / Phi(x)), the log of d(log_ndtr)/dx, from ``log_cdf``
    = log_ndtr(x); finite where phi(x) itself underflows."""
    return -0.5 * x * x - _LOG_SQRT_2PI - log_cdf
