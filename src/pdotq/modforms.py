"""Eta-quotients on Gamma_0(N): weights, characters, cusp orders, Sturm
bounds, q-expansions, and coefficient-wise congruence checks.

An eta-quotient prod_{delta | N} eta(delta z)^(r_delta) is determined by a
level, an exponent map, and an integer scalar in front.  The standard
holomorphy test applies: the weight is half the exponent sum, the two
24-divisibility conditions

    sum delta * r_delta == 0 (mod 24)
    sum (N / delta) * r_delta == 0 (mod 24)

make it transform with the character d -> ((-1)^ell * s / d) where
s = prod delta^(r_delta), and the form is holomorphic when the order at
every cusp d | N,

    (N / 24) * sum_delta gcd(d, delta)^2 * r_delta
             / (gcd(d, N/d) * d * delta),

is nonnegative.  Sturm's bound then turns a congruence between two such
forms into a finite coefficient check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import floor, gcd
from typing import NamedTuple

from .series import TruncSeries, divisors, eta_product, prime_factors


@dataclass
class EtaQuotient:
    """prod_{delta | level} eta(delta z)^(exponents[delta]), times scalar."""

    level: int
    exponents: dict[int, int]
    scalar: int = 1

    def __post_init__(self):
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")
        for delta in self.exponents:
            if delta < 1 or self.level % delta != 0:
                raise ValueError(
                    f"divisor {delta} does not divide level {self.level}"
                )
        # drop zero exponents so the map is canonical
        self.exponents = {
            d: r for d, r in sorted(self.exponents.items()) if r != 0
        }


@dataclass
class ModularityVerdict:
    """Outcome of the eta-quotient holomorphy test, condition by condition."""

    weight: Fraction
    integral_weight: bool
    delta_sum_ok: bool            # sum delta * r_delta == 0 (mod 24)
    conjugate_sum_ok: bool        # sum (N/delta) * r_delta == 0 (mod 24)
    character: dict[int, int] = field(default_factory=dict)  # prime -> exponent in s
    cusp_orders: dict[int, Fraction] = field(default_factory=dict)
    holomorphic: bool = False
    ok: bool = False


class CongruenceCheck(NamedTuple):
    """Coefficient-wise congruence comparison result."""

    ok: bool
    first_diff: int | None
    lhs_residue: int | None
    rhs_residue: int | None


def weight(eq: EtaQuotient) -> Fraction:
    """Half the exponent sum; integral for the forms used here."""
    return Fraction(sum(eq.exponents.values()), 2)


def kronecker_symbol(a: int, n: int) -> int:
    """The Kronecker symbol (a / n), extending the Jacobi symbol to all
    integer n with the usual conventions at 2, -1, and 0."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        tz = 0
        while n % 2 == 0:
            n //= 2
            tz += 1
        if tz % 2 == 1 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def _character_exponents(eq: EtaQuotient) -> dict[int, int]:
    """s = prod delta^(r_delta) in factored form {prime: exponent}."""
    out: dict[int, int] = {}
    for delta, r in eq.exponents.items():
        for p in prime_factors(delta):
            d = delta
            while d % p == 0:
                d //= p
                out[p] = out.get(p, 0) + r
    return {p: e for p, e in sorted(out.items()) if e != 0}


def character_value(eq: EtaQuotient, d: int) -> int:
    """chi(d) = ((-1)^ell * s / d), evaluated through the factored form of
    s so negative eta exponents stay exact."""
    ell = weight(eq)
    if ell.denominator != 1:
        raise ValueError(f"character needs integral weight, got {ell}")
    value = kronecker_symbol(-1, d) if ell.numerator % 2 else 1
    for p, e in _character_exponents(eq).items():
        sym = kronecker_symbol(p, d)
        if sym == 0:
            return 0
        if e % 2:
            value *= sym
    return value


def cusp_order(eq: EtaQuotient, d: int) -> Fraction:
    """Order of vanishing at the cusp associated with d | level, in the
    normalization whose total is weight * index / 12."""
    if d < 1 or eq.level % d != 0:
        raise ValueError(f"{d} is not a divisor of level {eq.level}")
    total = Fraction(0)
    for delta, r in eq.exponents.items():
        total += Fraction(
            gcd(d, delta) ** 2 * r,
            gcd(d, eq.level // d) * d * delta,
        )
    return Fraction(eq.level, 24) * total


def modularity_check(eq: EtaQuotient) -> ModularityVerdict:
    """Run the full holomorphy test and report every condition."""
    w = weight(eq)
    delta_sum = sum(d * r for d, r in eq.exponents.items())
    conj_sum = sum((eq.level // d) * r for d, r in eq.exponents.items())
    orders = {d: cusp_order(eq, d) for d in divisors(eq.level)}
    holo = all(v >= 0 for v in orders.values())
    verdict = ModularityVerdict(
        weight=w,
        integral_weight=(w.denominator == 1),
        delta_sum_ok=(delta_sum % 24 == 0),
        conjugate_sum_ok=(conj_sum % 24 == 0),
        character=_character_exponents(eq),
        cusp_orders=orders,
        holomorphic=holo,
    )
    verdict.ok = (
        verdict.integral_weight
        and verdict.delta_sum_ok
        and verdict.conjugate_sum_ok
        and holo
    )
    return verdict


def q_expansion(eq: EtaQuotient, order: int, modulus=None) -> TruncSeries:
    """Coefficients of the q-expansion, using eta(delta z) = q^(delta/24)
    * f_delta.  The total leading power sum(delta * r) / 24 must be a
    nonnegative integer for a power series to exist."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    shift, rem = divmod(sum(d * r for d, r in eq.exponents.items()), 24)
    if rem != 0:
        raise ValueError(
            "leading power sum(delta * r)/24 is not an integer for "
            f"exponents {eq.exponents}"
        )
    if shift < 0:
        raise ValueError(
            f"leading power q^{shift} is negative; not a power series"
        )
    body = max(order - shift, 0)
    result = eta_product(eq.exponents, body, modulus, scalar=eq.scalar)
    return result.shift(min(shift, order)).truncate(order)


def sl2_index(level: int) -> int:
    """Index of Gamma_0(level) in the full modular group,
    level prod_{p | level} (1 + 1/p)."""
    index = level
    for p in prime_factors(level):
        index = index // p * (p + 1)
    return index


def sturm_bound(wt: int, level: int, same_character: bool = True) -> int:
    """Number of initial coefficients that decide a congruence between two
    forms of this weight on Gamma_0(level): the classical bound for forms
    with the same character, and the level^2 variant otherwise."""
    if wt < 1 or level < 1:
        raise ValueError(f"need weight >= 1 and level >= 1, got {wt}, {level}")
    if same_character:
        return wt * sl2_index(level) // 12
    value = Fraction(wt * level * level, 12)
    for p in prime_factors(level):
        value *= 1 - Fraction(1, p * p)
    return floor(value)


def u_operator(series: TruncSeries, d: int) -> TruncSeries:
    """U(d): keep every d-th coefficient, c(n) -> c(d*n)."""
    return series.dissect(d, 0)


def congruent_upto(
    a: TruncSeries, b: TruncSeries, modulus: int, bound: int
) -> CongruenceCheck:
    """Compare a and b coefficient-wise mod `modulus` for indices
    0..bound inclusive.  Both series must carry at least bound + 1
    coefficients and live in a ring where reduction is defined."""
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    if a.order <= bound or b.order <= bound:
        raise ValueError(
            f"need order > {bound}, got {a.order} and {b.order}"
        )
    ra = a.reduce_mod(modulus)
    rb = b.reduce_mod(modulus)
    for n in range(bound + 1):
        if ra.coeffs[n] != rb.coeffs[n]:
            return CongruenceCheck(False, n, ra.coeffs[n], rb.coeffs[n])
    return CongruenceCheck(True, None, None, None)
