"""Partitions with designated summands and their tagged-part counts.

A partition is used here as a multiplicity profile: distinct part sizes
s_1 > ... > s_k with multiplicities m_1, ..., m_k.  Designating one
occurrence of each distinct size gives m_1 * ... * m_k designated
partitions per profile, and each of those carries k tagged parts (one tag
per distinct size).  The four counting functions are

    pd(n)     designated partitions of n
    pd_t(n)   tagged parts summed over designated partitions of n
    pdo(n)    same as pd but only odd part sizes allowed
    pdo_t(n)  same as pd_t but only odd part sizes allowed

All four are read from one table over multiplicity profiles,
designated_counts, built from plain integer lists without the series
module; pd and pdo also have the eta-quotient generating functions
PD_EXPONENTS and PDO_EXPONENTS.  pdo_t, the statistic the rest of the
package is about, has q f2 f3^2 f12^2/(f1^2 f6), with f_m the Euler
product over step m, so the count here and the expansion check each
other.  The 3-dissection of 1/phi(-q) = f2/f1^2 (Hirschhorn and Sellers,
"Arithmetic relations for overpartitions", JCMCC 53, 2005) gives its 3n
progression, a third as long for the same reach.
"""

from __future__ import annotations

from .series import TruncSeries, eta_product

# {d: r_d} of the PDO_t generating function q * prod_d f_d^(r_d)
PDO_T_EXPONENTS = {1: -2, 2: 1, 3: 2, 6: -1, 12: 2}
# {d: r_d} of sum pdo_t(3n) q^n = 4q * prod_d f_d^(r_d)
PDO_T_3N_EXPONENTS = {1: -4, 2: 1, 4: 2, 6: 3}
# step -> (exponents, scalar) of sum pdo_t(step n) q^n = scalar q prod_d
# f_d^(r_d), the master series of `pdo_t_series`
PDO_T_SERIES = {1: (PDO_T_EXPONENTS, 1), 3: (PDO_T_3N_EXPONENTS, 4)}
# {d: r_d} of sum pd(n) q^n = f6/(f1 f2 f3) and sum pdo(n) q^n =
# f4 f6^2/(f1 f3 f12) (Andrews, Lewis and Lovejoy, "Partitions with
# designated summands", Acta Arith. 105, 2002)
PD_EXPONENTS = {1: -1, 2: -1, 3: -1, 6: 1}
PDO_EXPONENTS = {1: -1, 3: -1, 4: 1, 6: 2, 12: -1}


def designated_counts(n: int,
                      odd_only: bool = False) -> tuple[list, list]:
    """(totals, tagged), two lists indexed 0..n: totals[k] is pd(k) and
    tagged[k] is pd_t(k), or pdo(k) and pdo_t(k) when odd_only.

    Each allowed part size s contributes the factor
    1 + x * sum_{m>=1} m q^(ms) = 1 + x q^s/(1 - q^s)^2: m is the
    multiplicity, whose m copies give m ways to designate one, and x marks
    the tag.  totals is the product at x = 1 and tagged its x-derivative
    there, so one factor maps (T, G) to (T + A T, G + A G + A T) with
    A = q^s/(1 - q^s)^2.  A is a shift by s and two running sums along
    stride s, so the whole table costs O(n^2) integer additions.
    """
    if n < 0:
        raise ValueError(f"cannot partition {n}")
    totals = [1] + [0] * n
    tagged = [0] * (n + 1)
    for s in range(1, n + 1, 2 if odd_only else 1):
        gain = _times_profile_factor(totals, s)
        tagged = [g + a + b for g, a, b in
                  zip(tagged, _times_profile_factor(tagged, s), gain)]
        totals = [t + a for t, a in zip(totals, gain)]
    return totals, tagged


def _times_profile_factor(x: list, s: int) -> list:
    """x * q^s/(1 - q^s)^2, truncated to len(x), for 1 <= s < len(x)."""
    y = [0] * s + x[:len(x) - s]
    for _ in range(2):
        for k in range(2 * s, len(y)):
            y[k] += y[k - s]
    return y


def pd(n: int) -> int:
    """Number of partitions of n with designated summands."""
    return designated_counts(n, odd_only=False)[0][n]


def pd_t(n: int) -> int:
    """Total tagged parts over designated partitions of n."""
    return designated_counts(n, odd_only=False)[1][n]


def pdo(n: int) -> int:
    """Designated partitions of n into odd parts."""
    return designated_counts(n, odd_only=True)[0][n]


def pdo_t(n: int) -> int:
    """Total tagged parts over designated odd-part partitions of n."""
    return designated_counts(n, odd_only=True)[1][n]


def pdo_t_series(order: int, modulus=None, step: int = 1,
                 known=()) -> TruncSeries:
    """sum_n pdo_t(step n) q^n to the given order, for step 1 or 3: built
    as q * f2 * f3^2 * f12^2 / (f1^2 * f6), or as 4q * f2 * f4^2 * f6^3 / f1^4.
    `known`, the coefficients of a shorter such series in the same ring,
    is continued rather than expanded again where `eta_product` can."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if step not in PDO_T_SERIES:
        raise ValueError(f"step must be 1 or 3, got {step}")
    exponents, scalar = PDO_T_SERIES[step]
    return eta_product(exponents, order - 1, modulus, scalar=scalar,
                       known=known[1:]).shift(1)
