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

pdo_t is the statistic the rest of the package is about.  Its generating
function is q * f2 * f3^2 * f12^2 / (f1^2 * f6) with f_m the Euler product
over step m; pdo_t_series builds that via the series module, so the
combinatorial count here and the product expansion check each other.
The 3-dissection of 1/phi(-q) = f2/f1^2 (Hirschhorn and Sellers,
"Arithmetic relations for overpartitions", JCMCC 53, 2005) gives its 3n
progression, sum pdo_t(3n) q^n = 4q f2 f4^2 f6^3 / f1^4, a third as long
for the same reach; pdo_t_series builds that one too.
"""

from __future__ import annotations

from .series import TruncSeries, eta_product

# {d: r_d} of the PDO_t generating function q * prod_d f_d^(r_d)
PDO_T_EXPONENTS = {1: -2, 2: 1, 3: 2, 6: -1, 12: 2}
# {d: r_d} of sum pdo_t(3n) q^n = 4q * prod_d f_d^(r_d)
PDO_T_3N_EXPONENTS = {1: -4, 2: 1, 4: 2, 6: 3}


def enumerate_partitions(n: int, odd_only: bool = False):
    """Yield the partitions of n as multiplicity profiles: tuples of
    (size, multiplicity) pairs with sizes strictly decreasing.

    Profiles appear in decreasing lexicographic order of largest size.
    n = 0 yields the single empty profile.
    """
    if n < 0:
        raise ValueError(f"cannot partition {n}")

    def descend(remaining, cap):
        if remaining == 0:
            yield ()
            return
        start = min(cap, remaining)
        for size in range(start, 0, -1):
            if odd_only and size % 2 == 0:
                continue
            for mult in range(remaining // size, 0, -1):
                for rest in descend(remaining - mult * size, size - 1):
                    yield ((size, mult),) + rest

    return descend(n, n)


def _designated_counts(n: int, odd_only: bool):
    """Return (sum of products of multiplicities, same weighted by the
    number of distinct sizes) over all profiles of n."""
    total = 0
    tagged = 0
    for profile in enumerate_partitions(n, odd_only):
        prod = 1
        for _, mult in profile:
            prod *= mult
        total += prod
        tagged += len(profile) * prod
    return total, tagged


def pd(n: int) -> int:
    """Number of partitions of n with designated summands."""
    return _designated_counts(n, odd_only=False)[0]


def pd_t(n: int) -> int:
    """Total tagged parts over designated partitions of n."""
    return _designated_counts(n, odd_only=False)[1]


def pdo(n: int) -> int:
    """Designated partitions of n into odd parts."""
    return _designated_counts(n, odd_only=True)[0]


def pdo_t(n: int) -> int:
    """Total tagged parts over designated odd-part partitions of n."""
    return _designated_counts(n, odd_only=True)[1]


def pdo_t_series(order: int, modulus=None, step: int = 1) -> TruncSeries:
    """sum_n pdo_t(step n) q^n to the given order, for step 1 or 3: built
    as q * f2 * f3^2 * f12^2 / (f1^2 * f6), or as 4q * f2 * f4^2 * f6^3 / f1^4."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if step == 1:
        return eta_product(PDO_T_EXPONENTS, order - 1, modulus).shift(1)
    if step == 3:
        body = eta_product(PDO_T_3N_EXPONENTS, order - 1, modulus)
        return (4 * body).shift(1)
    raise ValueError(f"step must be 1 or 3, got {step}")
