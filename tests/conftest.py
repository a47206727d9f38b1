"""Shared fixtures and scenario factories for the test suite."""

import math
from pathlib import Path

import numpy as np
import pytest

from fblsec import Scenario, lfp, link_errors, redundancy_bounds

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"


def make_scenario(gamma_ab=3.0, gamma_ae=1.0, gamma_ba=3.0, gamma_be=1.0,
                  d_m1=20, d_m2=20, M=200, eps_ab_max=0.5, eps_ba_max=0.5,
                  eps_e_max=0.5):
    return Scenario(gamma_ab=gamma_ab, gamma_ae=gamma_ae, gamma_ba=gamma_ba,
                    gamma_be=gamma_be, d_m1=d_m1, d_m2=d_m2, M=M,
                    eps_ab_max=eps_ab_max, eps_ba_max=eps_ba_max,
                    eps_e_max=eps_e_max)


def draw_random_scenario(rng, m_lo=40, m_hi=200, d_m=4):
    """One random instance from the acceptance distribution: legitimate
    SNRs in [0, 10] dB, eavesdropper SNRs in [-10, 0] dB, thresholds
    1/2."""
    return make_scenario(
        gamma_ab=10 ** (rng.uniform(0.0, 10.0) / 10.0),
        gamma_ae=10 ** (rng.uniform(-10.0, 0.0) / 10.0),
        gamma_ba=10 ** (rng.uniform(0.0, 10.0) / 10.0),
        gamma_be=10 ** (rng.uniform(-10.0, 0.0) / 10.0),
        d_m1=d_m, d_m2=d_m, M=int(rng.integers(m_lo, m_hi + 1)),
    )


def integer_feasible(scenario):
    """True when some split admits integer redundancy in both boxes."""
    for m1 in range(1, scenario.M):
        box = redundancy_bounds(scenario, float(m1), float(scenario.M - m1))
        if not box.feasible:
            continue
        if (math.floor(box.d_r1_max + 1e-9) >= math.ceil(box.d_r1_min - 1e-9)
                and math.floor(box.d_r2_max + 1e-9) >= math.ceil(box.d_r2_min - 1e-9)):
            return True
    return False


def random_feasible_suite(n, seed, m_lo=40, m_hi=200, d_m=4):
    """n seeded random instances, redrawing any infeasible ones."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        sc = draw_random_scenario(rng, m_lo=m_lo, m_hi=m_hi, d_m=d_m)
        if integer_feasible(sc):
            out.append(sc)
    return out


# The solver suite and the acceptance batch, drawn once for every test
# and for the golden writer.  ``test_acceptance`` draws its batch itself.
SOLVER_SUITE = random_feasible_suite(6, seed=321, m_lo=40, m_hi=120)
ACCEPTANCE_BATCH = random_feasible_suite(20, seed=20240801)


def violations(sc, oracle, reports, gap=1e-9):
    """The invariants that solves of ``sc`` break, as strings: the
    oracle's report and each of ``reports``, {method: integer report}.
    This is the one definition of a correct solve.  Each report has

    - status infeasible exactly where the oracle's is, else converged;
    - m1 + m2 = M and the redundancy pair inside ``redundancy_bounds``
      (to 1e-9);
    - link errors within every threshold to 1e-9 relative;
    - ``lfp_final`` equal to ``lfp`` at its allocation, bit for bit;
    - a trace that never rises;

    and each of ``reports`` an LFP from the oracle's up to
    oracle * (1 + gap), at the oracle's allocation unless the two LFPs
    are equal."""
    out = []
    infeasible = oracle.status == "infeasible"
    for name, report in (("exhaustive", oracle), *reports.items()):
        if report.status != ("infeasible" if infeasible else "converged"):
            out.append(f"{name}: status {report.status}, oracle "
                       f"{oracle.status}")
            continue
        if infeasible:
            continue
        a = report.alloc
        if a.m1 + a.m2 != sc.M:
            out.append(f"{name}: m1 + m2 = {a.m1 + a.m2}, M = {sc.M}")
        box = redundancy_bounds(sc, a.m1, a.m2)
        if not (box.d_r1_min - 1e-9 <= a.d_r1 <= box.d_r1_max + 1e-9
                and box.d_r2_min - 1e-9 <= a.d_r2 <= box.d_r2_max + 1e-9):
            out.append(f"{name}: {a} outside {box}")
        e = link_errors(sc, a)
        if not (e.eps_ab <= sc.eps_ab_max * (1.0 + 1e-9)
                and e.eps_ba <= sc.eps_ba_max * (1.0 + 1e-9)
                and min(e.eps_ae, e.eps_be) >= sc.eps_e_max * (1.0 - 1e-9)):
            out.append(f"{name}: {e} misses a threshold of {sc}")
        exact = lfp(sc, a)
        if float(report.lfp_final).hex() != float(exact).hex():
            out.append(f"{name}: lfp_final {report.lfp_final!r}, lfp {exact!r}")
        values = [v for _, v in report.trace]
        if any(b > v for v, b in zip(values, values[1:])):
            out.append(f"{name}: trace rises: {report.trace}")
        if report is oracle:
            continue
        if not (oracle.lfp_final <= report.lfp_final
                <= oracle.lfp_final * (1.0 + gap)):
            out.append(f"{name}: {report.lfp_final!r} against the oracle's "
                       f"{oracle.lfp_final!r}")
        if a != oracle.alloc and report.lfp_final != oracle.lfp_final:
            out.append(f"{name}: {a} is not the oracle's {oracle.alloc}")
    return out


def sample_interior_point(rng, scenario, margin=0.2, m1_pad=2.0):
    """A feasible reduced-space point with the redundancy pair at least
    ``margin`` (relative) inside its box; None when the draw fails."""
    m1 = rng.uniform(1.0 + m1_pad, scenario.M - 1.0 - m1_pad)
    box = redundancy_bounds(scenario, m1, scenario.M - m1)
    if not box.feasible:
        return None
    w1 = box.d_r1_max - box.d_r1_min
    w2 = box.d_r2_max - box.d_r2_min
    if w1 < 2.0 or w2 < 2.0 or box.d_r1_max < 0 or box.d_r2_max < 0:
        return None
    d_r1 = rng.uniform(box.d_r1_min + margin * w1, box.d_r1_max - margin * w1)
    d_r2 = rng.uniform(box.d_r2_min + margin * w2, box.d_r2_max - margin * w2)
    return m1, d_r1, d_r2


@pytest.fixture(scope="session")
def default_scenario_path():
    return str(SCENARIO_DIR / "roundtrip_default.json")


@pytest.fixture(scope="session")
def small_scenario_path():
    return str(SCENARIO_DIR / "small_m40.json")
