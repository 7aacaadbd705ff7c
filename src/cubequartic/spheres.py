"""Exact correlation tables for Hamming spheres.

For the radius-k sphere in {0,1}^n, every XOR of two sphere points has
even weight 2t, and the normalised pair-correlation mass at weight 2t is

    s_t(n, k) = C(n, 2t) * (C(2t, t) * C(n-2t, k-t))^2 / C(n, k)^2 .

Their total r(n, k) = sum_t s_t equals the additive energy of the
sphere divided by its squared size, which is the value of the quartic
form at the uniform unit vector.  Every s_t shares the denominator
C(n, k)^2, so r(n, k) and the argmax are read from integer numerators.
Everything in this module is exact integer or rational arithmetic
except the float root t1 of the peak quadratic and the deliberately
float small-k estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

__all__ = [
    "SphereParams",
    "SphereTableRow",
    "s_t_exact",
    "r_exact",
    "ratio_st",
    "mass_chain",
    "t1",
    "argmax_st",
    "sphere_sum_bound",
    "small_k_lower",
    "sphere_table",
]


@dataclass(frozen=True)
class SphereParams:
    """Dimension n >= 1 and radius k of a Hamming sphere, 0 <= k <= n."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and isinstance(self.k, int)):
            raise TypeError("sphere parameters must be integers")
        if self.n < 1 or not 0 <= self.k <= self.n:
            raise ValueError(f"invalid sphere parameters n={self.n}, k={self.k}")

    @property
    def size(self) -> int:
        return math.comb(self.n, self.k)

    @property
    def rank(self) -> int:
        """Affine rank: S(n, k) with 0 < k < n spans the even-weight vectors."""
        return self.n - 1 if 0 < self.k < self.n else 0

    @cached_property
    def chain(self) -> tuple[int, ...]:
        """``mass_chain``, built on first use and shared by every reader."""
        return tuple(mass_chain(self))

    @property
    def total(self) -> int:
        """sum(chain), the numerator of r(n, k) over chain[0], summed on
        first use and kept.  Not a cached_property, whose first read takes
        a lock on CPython 3.11 and costs more than summing a short chain."""
        cache = vars(self)
        if "total" not in cache:
            cache["total"] = sum(self.chain)
        return cache["total"]


def s_t_exact(p: SphereParams, t: int) -> Fraction:
    """The mass s_t(n, k) for 0 <= t <= k; zero once 2t exceeds n."""
    n, k = p.n, p.k
    if not 0 <= t <= k:
        raise ValueError(f"t={t} outside 0..k={k}")
    if 2 * t > n or k - t > n - 2 * t:
        return Fraction(0)
    inner = math.comb(2 * t, t) * math.comb(n - 2 * t, k - t)
    return Fraction(math.comb(n, 2 * t) * inner * inner, math.comb(n, k) ** 2)


def _ratio_terms(n: int, k: int, t: int) -> tuple[int, int]:
    """Integer numerator and denominator of s_{t+1}/s_t (see ``ratio_st``)."""
    return (
        2 * (2 * t + 1) * (k - t) ** 2 * (n - k - t) ** 2,
        (t + 1) ** 3 * (n - 2 * t) * (n - 2 * t - 1),
    )


def ratio_st(p: SphereParams, t: int) -> Fraction:
    """s_{t+1} / s_t in closed form,

        s_{t+1}/s_t = 2(2t+1)/(t+1)^3 * (k-t)^2 (n-k-t)^2
                      / ((n-2t)(n-2t-1)) ,

    for 0 <= t <= k-1 with s_t nonzero; the value is 0 exactly when
    s_{t+1} vanishes.
    """
    n, k = p.n, p.k
    if not 0 <= t <= k - 1:
        raise ValueError(f"t={t} outside 0..k-1={k - 1}")
    if 2 * t > n or k - t > n - 2 * t:
        raise ValueError(f"s_{t}({n},{k}) is zero; ratio undefined")
    if 2 * (t + 1) > n:
        return Fraction(0)
    return Fraction(*_ratio_terms(n, k, t))


# CPython stores ints in 30-bit digits and has a single-pass division by
# a one-digit divisor.  Two of them beat one division by a two-digit
# divisor once the dividend is long: from about 2,000 bits on, where
# chains with N_0 = C(n, k)^2 of _SPLIT_BITS or more start; below it they
# cost up to a quarter more (CPython 3.11, S(256, 128) to S(2048, 1024))
_DIGIT = 1 << 30
_SPLIT_BITS = 2048


def _divmod_by_digits(value: int, den: int, cube: int) -> tuple[int, int]:
    """(q, r) with r zero exactly when den divides value, and then
    q = value // den, for den of two digits or more: by the one-digit
    divisors cube and den // cube when cube divides den and both are
    below one digit, else by den itself."""
    rest, skew = divmod(den, cube)
    if skew or cube >= _DIGIT or rest >= _DIGIT:
        return divmod(value, den)
    quotient, remainder = divmod(value, cube)
    if remainder:
        return quotient, remainder
    return divmod(quotient, rest)


def mass_chain(p: SphereParams) -> list[int]:
    """[N_0, ..., N_{min(k, n-k)}] with N_t = s_t * C(n, k)^2, an integer.

    Built by the ratio recurrence from N_0 = C(n, k)^2 in integers; the
    division is exact because every N_t is an integer.  Every later
    mass is zero.  On a long chain a denominator of two digits or more is
    divided out as (t+1)^3 and the rest (``_divmod_by_digits``); every
    step checks that its division left no remainder.
    """
    chain = [p.size**2]
    split = chain[0].bit_length() >= _SPLIT_BITS
    for t in range(min(p.k, p.n - p.k)):
        num, den = _ratio_terms(p.n, p.k, t)
        if split and den >= _DIGIT:
            quotient, remainder = _divmod_by_digits(chain[-1] * num, den, (t + 1) ** 3)
        else:
            quotient, remainder = divmod(chain[-1] * num, den)
        if remainder:
            raise RuntimeError("sphere mass numerator not an integer")
        chain.append(quotient)
    return chain


def r_exact(p: SphereParams) -> Fraction:
    """r(n, k) = sum_t s_t(n, k), exact, from ``p.total``."""
    return Fraction(p.total, p.chain[0])


def t1(p: SphereParams) -> float:
    """Smaller root of 4t^2 - 3nt + 2k(n-k), locating the mass peak:

        t1 = (3n - sqrt(n^2 + 8 (n-2k)^2)) / 8 .

    The discriminant rewrites as 9n^2 - 32k(n-k), so the root is real
    for every 0 <= k <= n; the sphere inequalities quote it for
    k <= n/2, where it lies in [0, k].
    """
    n, k = p.n, p.k
    return (3.0 * n - math.sqrt(float(n * n + 8 * (n - 2 * k) ** 2))) / 8.0


def argmax_st(p: SphereParams) -> int:
    """The t maximising s_t(n, k); smallest such t on exact ties, from
    ``p.chain``."""
    return p.chain.index(max(p.chain))


def sphere_sum_bound(k: int) -> int:
    """sum_{t=0}^{k} C(2t, t) C(k, t)^2, an n-free energy-ratio bound.

    Dominates r(n, k) for every n because each distance class
    contributes at most C(2t, t) C(k, t)^2 once normalised.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    return sum(math.comb(2 * t, t) * math.comb(k, t) ** 2 for t in range(k + 1))


def small_k_lower(p: SphereParams) -> float:
    """exp(-2 k^2 / n) * sum_t C(2t,t) C(k,t)^2, a lower estimate for r(n,k).

    Sharp in the regime k = o(sqrt(n)).  Computed through logarithms so
    gigantic sums and tiny exponentials cannot overflow each other.
    """
    total = sphere_sum_bound(p.k)
    return math.exp(math.log(total) - 2.0 * p.k * p.k / p.n)


@dataclass(frozen=True)
class SphereTableRow:
    """One distance class of the sphere correlation table."""

    t: int
    mass: Fraction
    ratio_to_prev: Fraction | None
    cumulative: Fraction

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError("distance index must be non-negative")
        if self.mass < 0 or self.cumulative < self.mass:
            raise ValueError("inconsistent table row")


def sphere_table(
    p: SphereParams, t_min: int = 0, t_max: int | None = None
) -> list[SphereTableRow]:
    """Rows t = t_min .. t_max (clamped to 0 .. k) with masses, step
    ratios and partial sums; every row by default.

    The cumulative value of row k is exactly r(n, k); ratio_to_prev on
    row t is s_t/s_{t-1} (None at t = 0 and once s_{t-1} = 0).  Each
    mass is N_t / N_0 from the integer chain ``p.chain``, and the
    partial sums are integer prefix sums over the same denominator, so
    only the rows asked for build fractions; ``s_t_exact`` is the
    independent route that tests compare them with.  A first row past
    the middle of the chain starts from ``p.total`` less the chain's
    tail, the shorter sum.
    """
    chain = p.chain
    lo = max(0, t_min)
    hi = p.k if t_max is None else min(p.k, t_max)
    # masses past the chain are zero
    numerators = chain + (0,) * (p.k + 1 - len(chain))
    if 2 * lo > len(chain):
        running = p.total - sum(chain[lo:])
    else:
        running = sum(chain[:lo])
    rows: list[SphereTableRow] = []
    for t in range(lo, hi + 1):
        mass = numerators[t]
        running += mass
        previous = numerators[t - 1] if t > 0 else 0
        ratio = Fraction(mass, previous) if previous else None
        rows.append(
            SphereTableRow(t, Fraction(mass, chain[0]), ratio, Fraction(running, chain[0]))
        )
    return rows
