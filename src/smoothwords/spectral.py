"""Trigonometric closed forms, residues, and asymptotics.

The transfer matrix has eigenvalues 1 + 2 cos(j pi/(k+1)), j = 1..k, so
every count family also has a closed form as a sum of eigenvalue powers
in double precision.  A sum of k terms of size up to 3^n carries absolute
error around k * 3^n * 2^-52, so `exact_count` is the one door from such a
sum back to an exact integer: it answers only inside the window n <= 25,
k <= 10, and only when the sum lies within 0.25 of an integer.  Outside
either, callers get `PrecisionExhausted` instead of a possibly wrong
integer and should fall back to the exact pipelines.
"""
from __future__ import annotations

import functools
import math

from ._args import check_int
from ._rotations import rotation_sum

# Largest (n, k) for which double-precision eigenvalue sums round reliably,
# and the farthest a sum may lie from the integer it is rounded to.
_WINDOW_N_MAX = 25
_WINDOW_K_MAX = 10
_ROUND_BUDGET = 0.25


class PrecisionExhausted(Exception):
    """A floating-point count was too far from an integer to round safely."""


def in_validated_window(n: int, k: int) -> bool:
    """True iff the spectral formulas are guaranteed to round exactly."""
    check_int("word length", n, 0)
    check_int("alphabet size", k, 1)
    return 1 <= n <= _WINDOW_N_MAX and 1 <= k <= _WINDOW_K_MAX


class Spectrum:
    """Eigendata of the k x k transfer matrix.

    angles[j-1] = j pi/(k+1); eigenvalues[j-1] = 1 + 2 cos(angle), strictly
    decreasing; cot2_weights[j-1] = cot^2(angle/2), the residue weights of
    the smooth-word closed form.  A `Spectrum` is immutable, and equal
    eigendata compare and hash equal.
    """

    __slots__ = ("k", "angles", "eigenvalues", "cot2_weights")
    k: int
    angles: tuple[float, ...]
    eigenvalues: tuple[float, ...]
    cot2_weights: tuple[float, ...]

    def __init__(self, k: int, angles: tuple[float, ...],
                 eigenvalues: tuple[float, ...],
                 cot2_weights: tuple[float, ...]):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "cot2_weights", cot2_weights)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # rebuild by __init__: restoring a slot would raise
        return Spectrum, self._fields()

    def _fields(self):
        return self.k, self.angles, self.eigenvalues, self.cot2_weights

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        return (f"Spectrum(k={self.k!r}, angles={self.angles!r}, "
                f"eigenvalues={self.eigenvalues!r}, "
                f"cot2_weights={self.cot2_weights!r})")


# Built once per k, as `sn_trig` asks for it once per divisor; typed, so a
# bool or a float k is not the cached int and still reaches `check_int`.
@functools.lru_cache(maxsize=None, typed=True)
def spectrum(k: int) -> Spectrum:
    check_int("alphabet size", k, 1)
    # Angles are computed directly from j, not by accumulation.
    angles = tuple(j * math.pi / (k + 1) for j in range(1, k + 1))
    eigenvalues = tuple(1.0 + 2.0 * math.cos(a) for a in angles)
    cot2 = tuple((math.cos(a / 2) / math.sin(a / 2)) ** 2 for a in angles)
    return Spectrum(k, angles, eigenvalues, cot2)


def sw_trig(n: int, k: int) -> float:
    """Smooth-word count as a trigonometric sum (odd-index form):
    (2/(k+1)) sum over odd j of cot^2(j pi/(2(k+1))) (1+2cos(j pi/(k+1)))^(n-1).
    """
    check_int("word length", n, 1)
    sp = spectrum(k)
    total = 0.0
    for idx in range(0, k, 2):  # j = 1, 3, 5, ...
        total += sp.cot2_weights[idx] * sp.eigenvalues[idx] ** (n - 1)
    return 2.0 / (k + 1) * total


def scw_trig(n: int, k: int) -> float:
    """Smooth-cyclic count as the eigenvalue power sum
    sum_j (1+2cos(j pi/(k+1)))^n."""
    check_int("word length", n, 1)
    return sum(lam ** n for lam in spectrum(k).eigenvalues)


def sn_trig(n: int, k: int) -> float:
    """Smooth-necklace count as the rotation average of `scw_trig`."""
    check_int("word length", n, 1)
    return rotation_sum(n, lambda m: scw_trig(m, k)) / n


def residues(m: int) -> list[float]:
    """Residues of 1/U_m at its zeros cos(j pi/(m+1)):
    (-1)^(j+1) sin^2(j pi/(m+1)) / (m+1), j = 1..m."""
    check_int("residues degree", m, 1)
    return [(-1) ** (j + 1) * math.sin(j * math.pi / (m + 1)) ** 2 / (m + 1)
            for j in range(1, m + 1)]


def round_validated(x: float) -> int:
    """Nearest integer to ``x`` provided it is within 0.25; otherwise raises
    `PrecisionExhausted` so callers fall back to exact pipelines."""
    nearest = round(x)
    if abs(x - nearest) <= _ROUND_BUDGET:
        return int(nearest)
    raise PrecisionExhausted(f"{x!r} is {abs(x - nearest):.3g} from an integer")


def exact_count(trig, n: int, k: int) -> int:
    """The integer that the trigonometric sum ``trig(n, k)`` stands for
    (``trig`` is `sw_trig`, `scw_trig` or `sn_trig`); raises
    `PrecisionExhausted` outside the validated window or when the sum
    does not round within 0.25."""
    if not in_validated_window(n, k):
        raise PrecisionExhausted(
            f"spectral method only validated for 1 <= n <= {_WINDOW_N_MAX} "
            f"and 1 <= k <= {_WINDOW_K_MAX}")
    return round_validated(trig(n, k))


def _leading(k: int) -> tuple[float, float]:
    """lambda_1 and cot^2(pi/(2(k+1))): entry j = 1 of `spectrum(k)`, by
    the same float expressions, without building or caching the rest."""
    check_int("alphabet size", k, 1)
    angle = math.pi / (k + 1)
    return (1.0 + 2.0 * math.cos(angle),
            (math.cos(angle / 2) / math.sin(angle / 2)) ** 2)


def sw_asymptotic(n: int, k: int) -> float:
    """Leading term of the smooth-word count:
    (2/(k+1)) cot^2(pi/(2(k+1))) lambda_1^(n-1)."""
    check_int("word length", n, 1)
    lam, cot2 = _leading(k)
    return 2.0 / (k + 1) * cot2 * lam ** (n - 1)


def scw_asymptotic(n: int, k: int) -> float:
    """Leading term of the smooth-cyclic count: lambda_1^n."""
    check_int("word length", n, 1)
    return _leading(k)[0] ** n


def cyclic_proportion_limit(k: int) -> float:
    """Limit of (smooth cyclic)/(smooth) in [k]^n as n grows:
    (1/2)(k+1)(2cos(pi/(k+1)) + 1) tan^2(pi/(2(k+1)))."""
    check_int("alphabet size", k, 1)
    half_angle = math.pi / (2 * (k + 1))
    return 0.5 * (k + 1) * (2.0 * math.cos(2 * half_angle) + 1.0) \
        * math.tan(half_angle) ** 2
