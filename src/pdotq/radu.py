"""Radu's criterion: finite verification certificates for congruences
c(m n + t) == 0 (mod u) where sum c(n) q^n = prod_{delta | M} f_delta^(r_delta).

The pipeline, for an instance (m, M, level N, exponents r, residue t) and
auxiliary exponents r' over the divisors of N:

  1. membership of (m, M, N, r, t) in the admissible set, six arithmetic
     conditions written with kappa = gcd(m^2 - 1, 24);
  2. the orbit P(t) of the residue t under squares of units mod 24m;
  3. lower bounds p(gamma_delta) for the dissected series and p*(delta)
     for the auxiliary eta-product at each double-coset representative,
     whose sums must all be nonnegative (reps delta | N are valid when N
     or N/2 is squarefree);
  4. an exact rational bound nu: if c(m n + t') == 0 (mod u) for every
     t' in P(t) and all n <= floor(nu), the congruence holds for all n.

radu_verify runs the pipeline and returns a Certificate, a named tuple
recording every quantity exactly; its JSON writes the fields in order, and
rationals as "num/den" strings.  Instances, auxiliary exponents and
certificates are named tuples, checked and normalised as they are made,
and never change after that.  What does
not read t (five Delta* conditions, the nonnegativity table, nu but its
-min(P(t))/m term) is kept per cell (m, M, N, r, r') for the life of the
process, as verify's master series are; a call forms the orbit, checks
the fifth condition, finishes nu and scans the coefficients.  For the
PDO_t map, f2 f3^2 f12^2/(f1^2 f6), the CLI and the certificate table
read those from verify's master series (`verify.shifted_progression`):
c(m n + t') = pdo_t(m n + t' + 1), from the 3n series when 3 divides m
and t' + 1.  Its sum d r_d is 24, so each orbit residue is t' = s (t + 1)
- 1 mod m with s == 1 mod 24: with 3 | m one source serves the orbit.
Every other map is expanded afresh.  Either way the head c(m n + t0),
n <= 2, is read first, and only a clean head has the whole orbit read,
in one request.  Failed preconditions raise, because the criterion does
not apply; a failed coefficient check returns a verdict-false
certificate, because the congruence itself is false.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction
from functools import cache
from math import floor, gcd, lcm

from .modforms import sl2_index
from .series import TruncSeries, divisors, eta_product, prime_factors


class CriterionNotApplicable(ValueError):
    """A precondition of the criterion failed; nothing is decided."""


class LevelNotSquarefree(CriterionNotApplicable):
    """Neither N nor N/2 squarefree, so the coset representatives d | N
    are not a complete system."""


class DeltaStarFailure(CriterionNotApplicable):
    """Admissibility failed; the failed conditions are in .conditions."""

    def __init__(self, conditions: dict):
        self.conditions = conditions
        failed = [name for name, ok in conditions.items() if not ok]
        super().__init__(f"instance not admissible, failed: {failed}")


class NonnegativityFailure(CriterionNotApplicable):
    """A cusp bound came out negative; .delta and .value identify it."""

    def __init__(self, delta: int, value: Fraction):
        self.delta = delta
        self.value = value
        super().__init__(f"negative order bound {value} at delta={delta}")


def _is_squarefree(n: int) -> bool:
    return all(n % (p * p) for p in prime_factors(n))


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


class RaduInstance(namedtuple("RaduInstance", "m M level r t")):
    """One congruence family to verify: the coefficients of
    prod_{delta | M} f_delta^(r[delta]) along the progression m n + t,
    worked on Gamma_0(level)."""

    __slots__ = ()

    def __new__(cls, m: int, M: int, level: int, r: dict[int, int], t: int):
        if m < 1 or M < 1 or level < 1:
            raise ValueError("m, M and level must all be >= 1")
        if not 0 <= t < m:
            raise ValueError(f"residue t={t} out of range for m={m}")
        for delta in r:
            if delta < 1 or M % delta != 0:
                raise ValueError(f"divisor {delta} does not divide M={M}")
        r = {d: v for d, v in sorted(r.items()) if v != 0}
        return super().__new__(cls, m, M, level, r, t)

    @property
    def kappa(self) -> int:
        return gcd(self.m * self.m - 1, 24)

    @property
    def exponent_sum(self) -> int:
        return sum(self.r.values())

    @property
    def weighted_exponent_sum(self) -> int:
        return sum(d * v for d, v in self.r.items())

    def two_adic_split(self) -> tuple[int, int]:
        """prod delta^|r_delta| = 2^s j with j odd, as (s, j mod 8): s is
        sum v2(delta) |r_delta|, and the Delta* conditions read j only mod
        8, so the product is never formed."""
        s, j = 0, 1
        for d, v in self.r.items():
            v2 = (d & -d).bit_length() - 1
            s += v2 * abs(v)
            j = j * pow(d >> v2, abs(v), 8) % 8
        return s, j


class AuxExponents(namedtuple("AuxExponents", "level r")):
    """Auxiliary eta-product exponents r' over the divisors of the level."""

    __slots__ = ()

    def __new__(cls, level: int, r: dict[int, int]):
        for delta in r:
            if delta < 1 or level % delta != 0:
                raise ValueError(
                    f"divisor {delta} does not divide level {level}")
        r = {d: v for d, v in sorted(r.items()) if v != 0}
        return super().__new__(cls, level, r)


class Certificate(namedtuple("Certificate", [
        "m", "M", "level", "r", "t", "rprime", "u",
        "delta_star",  # {condition name: bool}
        "p_set",  # the orbit, ascending
        "nonneg",  # the nonnegativity rows, one dict per delta
        "nu", "floor_nu",  # a Fraction and its floor
        "checked",  # the (t', n) pairs checked, in order
        "verdict", "failure"], defaults=(None,))):
    """Everything radu_verify computed, exact and JSON-serializable;
    `failure` is None or the first nonzero coefficient as a dict."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return json.loads(self.to_json())

    def to_json(self) -> str:
        # JSON writes the int keys of r and r' as strings and the tuples
        # of `checked` as lists; nu alone needs writing out
        return json.dumps({**self._asdict(), "nu": _frac_str(self.nu)},
                          indent=2)


@cache
def squares_mod(m: int) -> list[int]:
    """Squares of units in Z/mZ, sorted.  Each table is computed once and
    the same list returned after that, so callers must not change it."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    return sorted({x * x % m for x in range(1, m + 1) if gcd(x, m) == 1})


def p_set(inst: RaduInstance) -> list[int]:
    """Orbit of t: residues t*s + (s-1)/24 * sum(delta r_delta) mod m as s
    runs over squares of units mod 24m.  Such squares are 1 mod 24, so the
    division is exact."""
    out = set()
    shift = inst.weighted_exponent_sum
    for s in squares_mod(24 * inst.m):
        if (s - 1) % 24 != 0:
            raise ArithmeticError(
                f"square of unit {s} mod {24 * inst.m} is not 1 mod 24"
            )
        out.add((inst.t * s + (s - 1) // 24 * shift) % inst.m)
    return sorted(out)


def _t_free_conditions(inst: RaduInstance) -> dict[str, bool]:
    """The Delta* conditions but the fifth, the one that reads t, in
    integers: the third asks kappa N sum r_d m N / d, over the lcm L of
    the d, to be a multiple of 24 L."""
    m, N = inst.m, inst.level
    kappa = inst.kappa
    s2, j = inst.two_adic_split()
    scale = lcm(*inst.r)
    weighted = kappa * N * sum(v * m * N * (scale // d)
                               for d, v in inst.r.items())
    cond6 = m % 2 == 1 or (kappa * N % 4 == 0 and s2 * N % 8 == 0) or (
        s2 % 2 == 0 and (1 - j) * N % 8 == 0)
    return {
        "primes_of_m_divide_level": all(N % p == 0 for p in prime_factors(m)),
        "exponent_divisors_divide_m_level": all((m * N) % d == 0
                                                for d in inst.r),
        "weighted_sum_multiple_of_24": weighted % (24 * scale) == 0,
        "exponent_sum_multiple_of_8": (kappa * N * inst.exponent_sum) % 8 == 0,
        "even_m_two_adic": cond6,
    }


def delta_star_check(inst: RaduInstance, t_free=None) -> dict[str, bool]:
    """The six admissibility conditions, reported separately in a new
    dict; `t_free` is `_t_free_conditions(inst)` if the caller has it."""
    kappa = inst.kappa
    g = gcd(-24 * kappa * inst.t - kappa * inst.weighted_exponent_sum,
            24 * inst.m)
    conditions = list((t_free or _t_free_conditions(inst)).items())
    conditions.insert(4, ("progression_gcd_divides_level",
                          inst.level % (24 * inst.m // g) == 0))
    return dict(conditions)


def p_mr(inst: RaduInstance, delta: int) -> tuple[Fraction, int]:
    """Lower bound for the order of the dissected series at the coset
    representative attached to delta: the minimum over lambda in [0, m) of

        (1/24) sum_{d | M} r_d gcd(d (1 + kappa lambda delta), m delta)^2
                            / (d m),

    returned with the attaining lambda.  The sums are compared as integers
    over the common denominator 24 L m, with L the lcm of the d."""
    m = inst.m
    kappa = inst.kappa
    scale = lcm(*inst.r)
    weights = [(d, v * (scale // d)) for d, v in inst.r.items()]
    best = None
    best_lambda = 0
    for lam in range(m):
        total = 0
        for d, w in weights:
            g = gcd(d * (1 + kappa * lam * delta), m * delta)
            total += w * g * g
        if best is None or total < best:
            best = total
            best_lambda = lam
    return Fraction(best, 24 * scale * m), best_lambda


def p_star(aux: AuxExponents, delta: int) -> Fraction:
    """Order bound of the auxiliary eta-product at the same representative:
    (1/24) sum_{d | N} r'_d gcd(d, delta)^2 / d."""
    total = Fraction(0)
    for d, v in aux.r.items():
        g = gcd(d, delta)
        total += Fraction(v * g * g, d)
    return total / 24


class _Cell:
    def __init__(self, conditions: dict, nu: Fraction):
        self.conditions = conditions  # the Delta* conditions but the fifth
        self.nu = nu  # nu but its -min(orbit)/m term
        # (nonnegativity rows, the first negative (delta, bound) or None),
        # once a certificate gets that far
        self.nonneg: tuple | None = None


# (m, M, level, r, r') -> its _Cell, what the criterion computes there
# without reading t.  Entries live as long as the process, as verify's
# master cache does; callers get only fresh copies
_CELLS: dict = {}


def _cell(inst: RaduInstance, aux: AuxExponents) -> _Cell:
    key = (inst.m, inst.M, inst.level, tuple(inst.r.items()),
           tuple(aux.r.items()))
    if key not in _CELLS:
        nu = Fraction((inst.exponent_sum + sum(aux.r.values()))
                      * sl2_index(inst.level)
                      - sum(d * v for d, v in aux.r.items()), 24)
        nu -= Fraction(inst.weighted_exponent_sum, 24 * inst.m)
        _CELLS[key] = _Cell(_t_free_conditions(inst), nu)
    return _CELLS[key]


def _nonnegativity(inst: RaduInstance, aux: AuxExponents) -> tuple:
    rows = []
    for delta in divisors(inst.level):
        bound, lam = p_mr(inst, delta)
        aux_bound = p_star(aux, delta)
        total = bound + aux_bound
        rows.append({"delta": delta, "p_mr": _frac_str(bound),
                     "lambda": lam, "p_star": _frac_str(aux_bound),
                     "total": _frac_str(total)})
        if total < 0:
            return tuple(rows), (delta, total)
    return tuple(rows), None


def orbit_and_nu(inst: RaduInstance, aux: AuxExponents) -> tuple:
    """The orbit P(t), formed once, and the bound nu."""
    orbit = p_set(inst)
    return orbit, _cell(inst, aux).nu - Fraction(orbit[0], inst.m)


def nu_bound(inst: RaduInstance, aux: AuxExponents) -> Fraction:
    """The exact rational verification bound; checking the congruence for
    a full orbit up to floor(nu) proves it for all n."""
    return orbit_and_nu(inst, aux)[1]


def c_r_series(inst: RaduInstance, order: int, modulus=None) -> TruncSeries:
    """Expansion of prod_{delta | M} f_delta^(r_delta)."""
    return eta_product(inst.r, order, modulus)


def _fresh_progression(inst: RaduInstance, u: int):
    """c(m n + t') mod u for each t' asked, n < count, read from one
    expansion of c_r to the furthest index asked."""
    def progression(offsets, count):
        order = inst.m * (count - 1) + max(offsets) + 1
        coeffs = c_r_series(inst, order, u).coeffs
        return [coeffs[t:t + inst.m * count:inst.m] for t in offsets]
    return progression


def radu_verify(
    inst: RaduInstance,
    aux: AuxExponents,
    u: int,
    min_depth: int = 0,
    progression: Callable[[list[int], int], list] | None = None,
    cost_guard: Callable[[int, list[int]], None] | None = None,
) -> Certificate:
    """Run the full criterion for c(m n + t') == 0 (mod u) over the orbit of
    t.  What does not read t is worked out once per cell (m, M, level, r, r')
    and kept for the process (`_CELLS`); a call forms the orbit, checks the
    fifth Delta* condition, takes min(orbit)/m off nu and scans the
    coefficients.  Those come from `progression(offsets, count)`, which
    returns, for each t' in `offsets` (orbit residues, ascending), c(m n + t')
    for n < count as integers whose residues mod u are the true ones: for the
    PDO_t map the CLI and the certificate table pass
    `verify.shifted_progression`, which reads the master series (the 3n series
    when 3 divides m and every t' + 1).  Without it they come from an
    expansion of c_r mod u to the furthest index a request reads.  Whatever
    the source, the scan reads the head c(m n + t0), n <= min(2, depth), first
    (t0 the first orbit residue): a nonzero there is the scan's first failure.
    Only when there is none does it ask for every orbit progression, in one
    request, so each source is expanded at most once after the head.
    `min_depth` forces checking beyond floor(nu), which can only strengthen
    the evidence.  `cost_guard(depth, orbit)`, called before any check, may
    refuse a scan of c(m n + t'), n <= depth, t' in the orbit.

    Raises a CriterionNotApplicable subclass when a precondition fails.
    Returns a Certificate whose verdict is False when a coefficient check
    fails (the congruence is then genuinely false at the recorded index).
    """
    orbit, nu = orbit_and_nu(inst, aux)
    floor_nu = floor(nu)
    depth = max(floor_nu, min_depth)
    if cost_guard is not None:
        cost_guard(depth, orbit)
    if aux.level != inst.level:
        raise ValueError(
            f"auxiliary exponents are for level {aux.level}, "
            f"instance has level {inst.level}"
        )
    if u < 2:
        raise ValueError(f"modulus u must be >= 2, got {u}")
    N = inst.level
    if not (_is_squarefree(N) or (N % 2 == 0 and _is_squarefree(N // 2))):
        raise LevelNotSquarefree(
            f"level {N}: neither it nor its half is squarefree"
        )

    cell = _cell(inst, aux)
    conditions = delta_star_check(inst, cell.conditions)
    if not all(conditions.values()):
        raise DeltaStarFailure(conditions)
    if cell.nonneg is None:
        cell.nonneg = _nonnegativity(inst, aux)
    rows, negative = cell.nonneg
    if negative:
        raise NonnegativityFailure(*negative)

    if progression is None:
        progression = _fresh_progression(inst, u)
    # the head is read alone; only a clean one has the rest of the orbit
    # read, t0 too unless the head already holds all of its progression
    head = min(2, depth) + 1
    reads = progression(orbit[:1], head)
    done = int(head > depth)
    if orbit[done:] and not any(c % u for c in reads[0]):
        reads = reads[:done] + progression(orbit[done:], depth + 1)
    checked, failure = [], None
    for t_prime, values in zip(orbit, reads, strict=True):
        hit = next(((n, values[n] % u) for n in range(depth + 1)
                    if values[n] % u), None)
        checked += [(t_prime, n) for n in range(hit[0] if hit else depth + 1)]
        if hit:
            failure = {"t": t_prime, "n": hit[0],
                       "index": inst.m * hit[0] + t_prime, "residue": hit[1]}
            break

    return Certificate(
        m=inst.m,
        M=inst.M,
        level=N,
        r=dict(inst.r),
        t=inst.t,
        rprime=dict(aux.r),
        u=u,
        delta_star=conditions,
        p_set=orbit,
        nonneg=[dict(row) for row in rows],
        nu=nu,
        floor_nu=floor_nu,
        checked=checked,
        verdict=failure is None,
        failure=failure,
    )
