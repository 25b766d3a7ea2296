"""Independent references and the checker that compares outputs against them.

The references are the closed forms of the exactly solvable Lenz family
U = -Z / (r^2 (r^a + r^-a)^2), whose log-transformed well is (Z/2) sech^2(a rho).
They are written out here rather than taken from trenq, so that a change to
the program's own closed forms cannot move the benchmark's yardstick; the
self-test confirms that both agree.  hbar = 1 throughout.
"""

from __future__ import annotations

import math

# the ROADMAP correctness gate for thresholds against the oracle
GATE = 1e-6

# Tabulated wells are Lenz wells sampled at 400 points evenly spaced in
# rho = ln r over the window where sech^2(a rho) >= 1e-14, i.e. a spacing h
# with a*h = ln(4e14)/399 for every a.  Monotone cubic interpolation is flat
# at the sampled maximum, so the tabulated well's peak sits below the true one
# by up to sech^2(a h / 2), a relative (a h / 2)^2.  Quantities set by the top
# of the well (levels of deep wells) can be off by that much.
TABULATED_SAMPLES = 400
SAMPLED_FLOOR = 1e-14
A_H = math.log(4.0 / SAMPLED_FLOOR) / (TABULATED_SAMPLES - 1)
PEAK_BOUND = (0.5 * A_H) ** 2
# integral quantities (phi, thresholds) average the interpolation error out;
# measured 1.1e-6 and 3e-6 for 400 samples at every a and Z
TABULATED_INTEGRAL_TOL = 1e-5


class Mismatch(Exception):
    """An output disagrees with its reference beyond the tolerance."""


class Checker:
    """Compares outputs with references and remembers the worst relative error."""

    def __init__(self) -> None:
        self.worst = 0.0

    def close(self, what: str, value: float, ref: float, rtol: float, scale: float | None = None) -> None:
        """Require |value - ref| <= rtol * scale, with scale = |ref| by default."""
        err = abs(value - ref) / (abs(ref) if scale is None else scale)
        if not err <= rtol:  # also catches nan
            self.worst = math.inf if math.isnan(err) else max(self.worst, err)
            raise Mismatch(f"{what}: got {value!r}, reference {ref!r}, rel err {err:.3g} > {rtol:g}")
        self.worst = max(self.worst, err)

    def same(self, what: str, value, ref) -> None:
        """Require exact equality (counts, orderings, existence of a level)."""
        if value != ref:
            self.worst = max(self.worst, 1.0)
            raise Mismatch(f"{what}: got {value!r}, reference {ref!r}")


def lenz_threshold(a: float, n: int, lam: float) -> float:
    """Critical coupling of level (n, lambda): 2 a^2 [(n + 1/2 + lambda/a)^2 - 1/4]."""
    x = n + 0.5 + lam / a
    return 2.0 * a * a * (x * x - 0.25)


def lenz_sigma(a: float, Z: float) -> float:
    """sigma with sigma (sigma + 1) = Z / (2 a^2); level n sits at lambda = a (sigma - n)."""
    return 0.5 * (-1.0 + math.sqrt(1.0 + 2.0 * Z / (a * a)))


def lenz_level(a: float, Z: float, n: int) -> float | None:
    """lambda_n of the well, or None when the well is too shallow to hold level n."""
    lam = a * (lenz_sigma(a, Z) - n)
    return lam if lam > 0.0 else None


def lenz_count(a: float, Z: float, lam: float) -> int:
    """Number of bound states at effective orbital number lambda for coupling Z."""
    n = 0
    while lenz_threshold(a, n, lam) < Z:
        n += 1
    return n


def lenz_samples(a: float, Z: float) -> tuple[list[float], list[float]]:
    """(r, U) samples of the Lenz potential, evenly spaced in ln r."""
    half = math.log(4.0 / SAMPLED_FLOOR) / (2.0 * a)
    step = 2.0 * half / (TABULATED_SAMPLES - 1)
    r, u = [], []
    for i in range(TABULATED_SAMPLES):
        rho = -half + i * step
        w = 0.5 * Z / math.cosh(a * rho) ** 2
        r.append(math.exp(rho))
        u.append(-0.5 * w * math.exp(-2.0 * rho))
    return r, u
