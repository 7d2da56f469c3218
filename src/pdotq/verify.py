"""Named verification suites for the tagged-odd-part counting function.

Every suite expands q-series with exact or residue-ring arithmetic,
compares them coefficient by coefficient, and returns a Report listing
each individual check (a named tuple) with a pass/fail status and a short
detail line.
Reports carry no timestamps and serialize deterministically, so the same
inputs always produce byte-identical output.

Checks fall into two strengths, stated in each detail string:

  * closure checks, where agreement up to an explicit bound (a Sturm
    bound, or the rational bound of a verification certificate) proves
    the congruence for every index;
  * finite-depth evidence, where the statement ranges over infinitely
    many cases and the suite confirms a stated initial segment.

Every read of sum pdo_t(n) q^n is a progression request
`master_progression(step, offset, count, modulus)`.  Requests whose
indices are all multiples of 3 are served from the 3n series
sum pdo_t(3n) q^n, a third as long; the rest (exact values, or a step
such as 8) from the full series.  Both are cached.  Each suite first
declares its requests to `plan_master_series`, which expands each source
of their plan (`master_plans`) once, to the furthest index read and
modulo the lcm of the moduli (over Z if a request is exact); `check
--suite all` plans every suite's `suite_reads` together the same way, so
the whole run makes one 3n expansion and at most one full one.  Radu
certificates of the PDO_t map read the same cache through
`shifted_progression`, in the certificate table and in a standalone
`pdotq radu` alike.  A standalone one makes two requests, the head of
its first progression and then every orbit progression together, so it
expands each source at most once after the head.
"""

from __future__ import annotations

import json
from collections import namedtuple
from math import floor, lcm

from .modforms import (
    EtaQuotient,
    congruent_upto,
    kronecker_symbol,
    modularity_check,
    q_expansion,
    sturm_bound,
    u_operator,
)
from .partitions import PDO_T_EXPONENTS, pdo_t_series
from .radu import AuxExponents, RaduInstance, orbit_and_nu, radu_verify
from .series import (
    TruncSeries, cubic_theta, eta_product, euler_factor, jacobi_cube,
    prime_factors,
)


class CheckResult(namedtuple("CheckResult", "name status detail",
                             defaults=("",))):
    """One check of a report: its name, "pass" or "fail", and a detail."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.status == "pass"


class Report:
    """A suite's name, its parameters and the checks it made, in order."""

    def __init__(self, suite: str, params: dict,
                 checks: list[CheckResult] | None = None):
        self.suite = suite
        self.params = params
        self.checks = [] if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks)

    def add(self, name: str, ok: bool, detail: str = "") -> CheckResult:
        check = CheckResult(name, "pass" if ok else "fail", detail)
        self.checks.append(check)
        return check

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": dict(self.params),
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail}
                for c in self.checks
            ],
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        if self.params:
            rendered = ", ".join(f"{k}={v}" for k, v in self.params.items())
            lines.append(f"params: {rendered}")
        for c in self.checks:
            tag = "PASS" if c.ok else "FAIL"
            line = f"  [{tag}] {c.name}"
            if c.detail:
                line += f"  ({c.detail})"
            lines.append(line)
        good = sum(1 for c in self.checks if c.ok)
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"result: {verdict} ({good}/{len(self.checks)} checks)")
        return "\n".join(lines)


# (step, modulus) -> sum pdo_t(step n) q^n.  Entries live as long as the
# process, or until `clear_master_cache`; a new entry drops those it serves,
# so a process running certificates modulo many u keeps one entry for each
# u that no cached series modulo a multiple of u covers
_MASTER_CACHE: dict = {}


def _cached_master(step: int, order: int, modulus):
    """A cached sum pdo_t(step n) q^n of at least `order` terms whose ring
    reduces onto Z/modulus (onto Z only from Z), preferring that very ring;
    None if there is none."""
    entry = _MASTER_CACHE.get((step, modulus))
    if entry is not None and entry.order >= order:
        return entry
    if modulus is None:
        return None
    for (cached_step, cached_mod), series in _MASTER_CACHE.items():
        if (cached_step == step and series.order >= order
                and (cached_mod is None or cached_mod % modulus == 0)):
            return series
    return None


def master_series(order: int, modulus=None, step: int = 1) -> TruncSeries:
    """Cached expansion of sum pdo_t(step n) q^n, for step 1 or 3.  A
    request is served from any cached series of the same step that is at
    least as long and whose modulus reduces onto the requested one;
    otherwise the expansion is computed and kept, in place of the cached
    series of that step that it serves."""
    source = _cached_master(step, order, modulus)
    if source is not None and source.modulus == modulus:
        return source.truncate(order)
    if source is not None:
        result = source.truncate(order).reduce_mod(modulus)
    else:
        result = pdo_t_series(order, modulus, step)
    for (cached_step, cached_mod), series in list(_MASTER_CACHE.items()):
        if (cached_step == step and series.order <= order
                and cached_mod is not None and cached_mod != modulus
                and (modulus is None or modulus % cached_mod == 0)):
            del _MASTER_CACHE[cached_step, cached_mod]
    _MASTER_CACHE[step, modulus] = result
    return result


def clear_master_cache():
    _MASTER_CACHE.clear()


def _source(step: int, offset: int, count: int, modulus):
    """(source step, order) of the master series that serves
    pdo_t(step n + offset) mod `modulus` for 0 <= n < count: the 3n series
    when every index read is a multiple of 3 (residue rings only), the
    full series otherwise, to the order the last index needs."""
    source_step = 1
    if modulus is not None and step % 3 == 0 and offset % 3 == 0:
        source_step = 3
    return source_step, (offset + step * (count - 1)) // source_step + 1


def master_progression(step: int, offset: int, count: int,
                       modulus=None) -> TruncSeries:
    """pdo_t(step n + offset) for 0 <= n < count, as a series of order
    `count` over Z or Z/modulus.  It is read from the cached 3n series when
    3 divides step and offset and the ring is a residue ring, otherwise
    from the full series; a source is expanded (through `master_series`)
    only when no cached one reaches far enough, and only the coefficients
    read are reduced."""
    if step < 1 or offset < 0 or count < 0:
        raise ValueError(
            f"bad progression: step {step}, offset {offset}, count {count}")
    if count == 0:
        return TruncSeries._reduced((), modulus)
    source_step, order = _source(step, offset, count, modulus)
    source = _cached_master(source_step, order, modulus)
    if source is None:
        source = master_series(order, modulus, source_step)
    coeffs = source.coeffs[offset // source_step:order:step // source_step]
    if source.modulus != modulus:
        coeffs = [c % modulus for c in coeffs]
    return TruncSeries._reduced(coeffs, modulus)


def master_plans(requests):
    """{source step: (order, modulus)} of the master series that the
    progression requests (step, offset, count, modulus) read: the 3n
    series to the order its readers reach, modulo the lcm of their moduli,
    and the full series likewise, over Z if any reader needs exact values.
    One plan is yielded per request, for the first request, the first two
    and so on, each read only when it is needed: a caller can stop at the
    first plan it will not expand, before later requests are even made."""
    plan = {}
    for step, offset, count, modulus in requests:
        if count > 0:
            source_step, order = _source(step, offset, count, modulus)
            if source_step in plan:
                reach, ring = plan[source_step]
                order = max(reach, order)
                modulus = (None if ring is None or modulus is None
                           else lcm(ring, modulus))
            plan = {**plan, source_step: (order, modulus)}
        yield plan


def plan_master_series(requests):
    """Expand, once each, the master series of the last of
    `master_plans(requests)` that no cached series already serves."""
    plan = {}
    for plan in master_plans(requests):
        pass
    for source_step, (order, modulus) in plan.items():
        if _cached_master(source_step, order, modulus) is None:
            master_series(order, modulus, source_step)


def _first_nonzero(step: int, offset: int, count: int, modulus: int):
    """The first n < count with pdo_t(step n + offset) nonzero mod
    `modulus`, as (n, residue), or None when there is none."""
    coeffs = master_progression(step, offset, count, modulus).coeffs
    return next(((n, c) for n, c in enumerate(coeffs) if c), None)


def f_product(exponents: dict, order: int, modulus=None,
              scalar: int = 1, shift: int = 0) -> TruncSeries:
    """scalar * q^shift * prod f_step^exponent, truncated at `order` plus
    whatever the shift adds."""
    out = eta_product(exponents, order, modulus, scalar=scalar)
    if shift:
        out = out.shift(shift)
    return out


def _equal_check(report: Report, name: str, lhs: TruncSeries,
                 rhs: TruncSeries, strength: str):
    pairs = enumerate(zip(lhs.coeffs, rhs.coeffs))
    diff = next((i for i, (a, b) in pairs if a != b), None)
    if diff is None:
        depth = min(lhs.order, rhs.order)
        report.add(name, True, f"{strength}, agree through q^{depth - 1}")
    else:
        report.add(name, False, f"first difference at q^{diff}: "
                   f"{lhs.coeffs[diff]} vs {rhs.coeffs[diff]}")


def _congruence_check(report: Report, name: str, lhs: TruncSeries,
                      rhs: TruncSeries, modulus: int, bound: int,
                      strength: str):
    result = congruent_upto(lhs, rhs, modulus, bound)
    if result.ok:
        report.add(name, True,
                   f"{strength}, congruent mod {modulus} through q^{bound}")
    else:
        report.add(name, False,
                   f"mod {modulus}: differ at q^{result.first_diff}: "
                   f"{result.lhs_residue} vs {result.rhs_residue}")


def _zero_progression_check(report: Report, order: int, step: int,
                            offset: int, modulus: int, strength: str):
    """pdo_t(step n + offset) == 0 mod `modulus` on every index below
    `order`."""
    count = len(range(offset, order, step))
    name = f"pdo_t({step}n{f'+{offset}' if offset else ''}) == 0 mod {modulus}"
    bad = _first_nonzero(step, offset, count, modulus)
    if bad:
        n, residue = bad
        report.add(name, False, f"index {step * n + offset}: residue {residue}")
    else:
        report.add(name, True, f"{strength}, {count} indices below {order}")


# ---------------------------------------------------------------------------
# dissections and the binomial congruences


def dissection_suite(order: int = 500, binom_order: int = 300) -> Report:
    """Exact 2- and 3-dissection identities, the prime-power binomial
    congruences, and the signed odd-cube expansion, all checked
    coefficient by coefficient, to orders of at least 1."""
    if min(order, binom_order) < 1:
        raise ValueError(f"orders must be >= 1, got {order} and "
                         f"{binom_order}")
    report = Report("dissection", {"order": order, "binom_order": binom_order})
    T = order

    lhs = f_product({1: 1, 3: 1}, T)
    rhs = (
        f_product({2: 1, 8: 2, 12: 4, 4: -2, 6: -1, 24: -2}, T)
        - f_product({4: 4, 6: 1, 24: 2, 2: -1, 8: -2, 12: -2}, T, shift=1)
    )
    _equal_check(report, "f1*f3 2-dissection", lhs, rhs, "exact identity")

    lhs = f_product({3: 1, 1: -3}, T)
    rhs = (
        f_product({4: 6, 6: 3, 2: -9, 12: -2}, T)
        + f_product({4: 2, 6: 1, 12: 2, 2: -7}, T, scalar=3, shift=1)
    )
    _equal_check(report, "f3/f1^3 2-dissection", lhs, rhs, "exact identity")

    lhs = f_product({1: 3}, T)
    rhs = (
        f_product({6: 1, 9: 6, 3: -1, 18: -3}, T)
        - f_product({9: 3}, T, scalar=3, shift=1)
        + f_product({3: 2, 18: 6, 6: -2, 9: -3}, T, scalar=4, shift=3)
    )
    _equal_check(report, "f1^3 3-dissection", lhs, rhs, "exact identity")

    lhs = f_product({1: 2, 2: -1}, T)
    rhs = (
        f_product({9: 2, 18: -1}, T)
        - f_product({3: 1, 18: 2, 6: -1, 9: -1}, T, scalar=2, shift=1)
    )
    _equal_check(report, "f1^2/f2 3-dissection", lhs, rhs, "exact identity")

    lhs = f_product({2: 1, 1: -2}, T)
    rhs = (
        f_product({6: 4, 9: 6, 3: -8, 18: -3}, T)
        + f_product({6: 3, 9: 3, 3: -7}, T, scalar=2, shift=1)
        + f_product({6: 2, 18: 3, 3: -6}, T, scalar=4, shift=2)
    )
    _equal_check(report, "f2/f1^2 3-dissection", lhs, rhs, "exact identity")

    c3 = cubic_theta((T + 2) // 3 + 1).inflate(3, T)
    lhs = f_product({1: -3}, T)
    rhs = (
        f_product({9: 3, 3: -10}, T) * c3 * c3
        + f_product({9: 6, 3: -11}, T, scalar=3, shift=1).truncate(T) * c3
        + f_product({9: 9, 3: -12}, T, scalar=9, shift=2).truncate(T)
    )
    _equal_check(report, "1/f1^3 cubic-theta 3-dissection", lhs, rhs,
                 "exact identity")

    _equal_check(report, "f1^3 signed odd-triangular expansion",
                 f_product({1: 3}, T), jacobi_cube(T), "exact identity")

    # eta_product itself reduces exponents by these congruences modulo a
    # prime power, so the left sides are expanded over Z and then reduced
    for p in (2, 3, 5):
        lhs = f_product({1: p}, binom_order).reduce_mod(p)
        rhs = euler_factor(p, 1, binom_order, p)
        _equal_check(report, f"f1^{p} == f{p} mod {p}", lhs, rhs,
                     "binomial congruence")
        sq = p * p
        lhs = f_product({1: sq}, binom_order).reduce_mod(sq)
        rhs = euler_factor(p, p, binom_order, sq)
        _equal_check(report, f"f1^{sq} == f{p}^{p} mod {sq}", lhs, rhs,
                     "binomial congruence")

    return report


# ---------------------------------------------------------------------------
# infinite families from a quadratic nonresidue prime


# (modulus, a, b): pdo_t(3^ell (a p^2 n + a k p + b p^2)) == 0 mod modulus
_PRIME_FAMILY_CHECKS = ((8, 6, 3), (32, 24, 12))


def _prime_family_progression(p: int, ell: int, a: int, b: int, k: int):
    """(step, offset) of pdo_t(3^ell (a p^2 n + a k p + b p^2))."""
    scale = 3 ** ell
    return scale * a * p * p, scale * (a * k * p + b * p * p)


def _prime_family_reads(p: int, n_max: int, ell_max: int):
    # each row's progressions all come from the 3n series mod one modulus,
    # so only the furthest, k = p - 1, sets the plan; p is checked now,
    # and the rows are made as they are read
    if p < 5 or p % 6 != 5 or prime_factors(p) != [p]:
        raise ValueError(f"prime p == 5 (mod 6) required, got {p}")
    return ((*_prime_family_progression(p, ell, a, b, p - 1), n_max + 1,
             modulus)
            for ell in range(ell_max + 1)
            for modulus, a, b in _PRIME_FAMILY_CHECKS)


def nonresidue_prime_family(p: int = 5, n_max: int = 20, ell_max: int = 2) -> Report:
    """For a prime p == 5 (mod 6), the vanishing of pdo_t on
    3^ell (6 p^2 n + 6 k p + 3 p^2) mod 8 and 3^ell (24 p^2 n + 24 k p
    + 12 p^2) mod 32, for k = 1..p-1, checked for n <= n_max and
    ell <= ell_max."""
    reads = _prime_family_reads(p, n_max, ell_max)
    report = Report("prime-family",
                    {"p": p, "n_max": n_max, "ell_max": ell_max})
    report.add(f"-3 is a quadratic nonresidue mod {p}",
               kronecker_symbol(-3, p) == -1, "hypothesis on p")
    plan_master_series(reads)

    for ell in range(ell_max + 1):
        for modulus, a, b in _PRIME_FAMILY_CHECKS:
            name = (f"pdo_t(3^{ell} ({a}p^2 n + {a}kp + {b}p^2)) "
                    f"== 0 mod {modulus}")
            for k in range(1, p):
                step, offset = _prime_family_progression(p, ell, a, b, k)
                hit = _first_nonzero(step, offset, n_max + 1, modulus)
                if hit:
                    n, residue = hit
                    report.add(name, False, f"k={k}, n={n}, index "
                               f"{step * n + offset}: residue {residue}")
                    break
            else:
                report.add(name, True, f"finite-depth evidence, "
                           f"{(p - 1) * (n_max + 1)} cases "
                           f"(k<{p}, n<={n_max})")
    return report


# ---------------------------------------------------------------------------
# the power-of-two landscape


# (step, offset, modulus): proved progressions
POWER_OF_TWO_ROWS = [
    (6, 0, 8), (12, 0, 16), (24, 0, 32),
    (48, 0, 64), (96, 0, 128), (192, 0, 256),
    (6, 3, 4), (12, 6, 8), (24, 12, 16),
    (48, 24, 32), (96, 48, 64), (192, 96, 128),
    (12, 3, 4), (12, 9, 4), (24, 6, 8), (24, 18, 8),
    (48, 12, 16), (48, 36, 16), (96, 24, 32), (96, 72, 32),
    (192, 48, 64), (192, 144, 64),
]


def _powers_of_two_progressions(conj_k_max: int):
    """(step, offset, modulus, strength) of every check, in report order,
    made as they are read: the proved rows, then the conjectural families
    for k <= conj_k_max."""
    for step, offset, modulus in POWER_OF_TWO_ROWS:
        yield step, offset, modulus, "proved progression"
    # shifts, not powers: a budget check may walk k far past any run
    for k in range(conj_k_max + 1):
        modulus = 1 << (k + 2)
        families = [
            (3 << k, 0),
            (3 << (k + 1), 3 << k),
            (3 << (k + 2), 3 << k),
            (3 << (k + 2), 9 << k),
        ]
        for step, offset in families:
            yield step, offset, modulus, "finite-depth evidence"


def _powers_of_two_reads(order: int, conj_k_max: int):
    return ((step, offset, max(0, -((offset - order) // step)), modulus)
            for step, offset, modulus, _ in
            _powers_of_two_progressions(conj_k_max))


def powers_of_two_suite(order: int = 20000, conj_k_max: int = 6) -> Report:
    """The proved power-of-two progressions, then the conjectural
    extension to every k, checked on all indices below `order`; an order
    that leaves a progression no index is refused before anything is
    expanded."""
    for step, offset, *_ in _powers_of_two_progressions(conj_k_max):
        if offset >= order:
            raise ValueError(f"order {order} leaves pdo_t({step}n+{offset}) "
                             "no index to check")
    report = Report("powers-of-two",
                    {"order": order, "conj_k_max": conj_k_max})
    plan_master_series(_powers_of_two_reads(order, conj_k_max))
    for step, offset, modulus, strength in (
            _powers_of_two_progressions(conj_k_max)):
        _zero_progression_check(report, order, step, offset, modulus,
                                strength)
    return report


# ---------------------------------------------------------------------------
# the small exact forms and stepping stones


# (name, step, offset, modulus, exponents, scalar, shift): pdo_t(step n +
# offset) against scalar q^shift prod f_d^(r_d), as an exact identity
# (modulus None) or a congruence
_INTERMEDIATE_FORMS = (
    ("pdo_t(4n) exact form", 4, 0, None, {2: 3, 3: 2, 6: 3, 1: -6}, 6, 1),
    ("pdo_t(6n) exact form", 6, 0, None, {2: 4, 3: 3, 4: 4, 1: -9}, 16, 1),
    ("pdo_t(8n) exact form", 8, 0, None, {2: 8, 3: 7, 1: -13}, 36, 1),
    ("pdo_t(3n) mod 8", 3, 0, 8, {2: 3, 6: 3}, 4, 1),
    ("pdo_t(6n+3) mod 8", 6, 3, 8, {1: 3, 3: 3}, 4, 0),
    ("pdo_t(9n) mod 8", 9, 0, 8, {2: 3, 6: 3}, 4, 1),
    ("pdo_t(12n) mod 32", 12, 0, 32, {2: 3, 6: 3}, 16, 1),
    ("pdo_t(36n) mod 32", 36, 0, 32, {2: 3, 6: 3}, 16, 1),
)


def _intermediate_reads(bound: int):
    return [(step, offset, bound + 1, modulus)
            for _, step, offset, modulus, *_ in _INTERMEDIATE_FORMS]


def intermediate_steps(bound: int = 200) -> Report:
    """Exact closed forms for the 4n, 6n and 8n subsequences and the mod-8
    and mod-32 congruences for the 3n, 6n+3, 9n, 12n and 36n ones."""
    report = Report("intermediate", {"bound": bound})
    plan_master_series(_intermediate_reads(bound))
    for (name, step, offset, modulus, exponents, scalar,
         shift) in _INTERMEDIATE_FORMS:
        lhs = master_progression(step, offset, bound + 1, modulus)
        rhs = f_product(exponents, bound + 1 - shift, modulus,
                        scalar=scalar, shift=shift)
        if modulus is None:
            _equal_check(report, name, lhs, rhs, "exact identity")
        else:
            _congruence_check(report, name, lhs, rhs, modulus, bound,
                              "finite-depth evidence")
    return report


# ---------------------------------------------------------------------------
# the two 3-adic families: closed forms, divisibility, coexistence


class Family(namedtuple("Family", "level k step modulus exponents scalar "
                                  "two three product product_text")):
    """pdo_t(step n) == 2^two 3^three q prod f_d^(product[d]) mod
    `modulus`, closed at `level` by U(3)^k of the eta quotient with these
    `exponents`, from the dissection-side `scalar` to the companion's;
    `product_text` writes the product out."""

    __slots__ = ()

    @property
    def companion_scalar(self) -> int:
        return 2 ** self.two * 3 ** self.three

    def quotients(self):
        """The dissection-side and companion-side eta quotients."""
        return (EtaQuotient(self.level, self.exponents, scalar=self.scalar),
                EtaQuotient(self.level, self.exponents,
                            scalar=self.companion_scalar))

    def companion(self, order: int) -> TruncSeries:
        return f_product(self.product, order, self.modulus,
                         scalar=self.companion_scalar, shift=1)


def family(level: int, k: int) -> Family:
    """The level-18 family pdo_t(8 3^k n) mod 3^(k+3), or the level-36 one
    pdo_t(4 3^k n) mod 3^(k+2); each forces Lin's divisibility mod one
    power of 3 less."""
    power = 3 ** k  # formed once: a budget check may walk k into the 1000s
    if level == 18:
        return Family(18, k, 8 * power, 27 * power,
                      {1: 27 * power - 13, 2: 8, 3: -(9 * power - 7)},
                      36, k + 2, k + 2, {1: 2, 2: 2, 3: 2, 6: 2},
                      "(f1 f2 f3 f6)^2")
    if level == 36:
        return Family(36, k, 4 * power, 9 * power,
                      {1: 9 * power - 6, 2: 3, 3: -(3 * power - 2), 6: 3},
                      6, 2 * k + 1 if k % 2 == 0 else 0, k + 1, {6: 4},
                      "f6^4")
    raise ValueError(f"no 3-adic family at level {level}")


def _family_pair(k: int):
    """pdo_t(8 3^k n) and pdo_t(12 3^k n), both mod 3^(k+3)."""
    return family(18, k), family(36, k + 1)


def _divisible_check(report: Report, name: str, fam: Family, count: int,
                     strength: str):
    """pdo_t(step n) == 0 mod modulus/3 for every n < count."""
    bad = _first_nonzero(fam.step, 0, count, fam.modulus // 3)
    report.add(name, bad is None, strength if bad is None
               else f"n={bad[0]}: residue {bad[1]}")


def _genfun_reads(k: int, bound: int):
    return [(fam.step, 0, bound + 1, fam.modulus // d)
            for fam in _family_pair(k) for d in (1, 3)]


def genfun_congruences(k: int = 2, bound: int = 100) -> Report:
    """The two closed forms mod 3^(k+3), pdo_t(8 3^k n) and
    pdo_t(12 3^k n) against the companions of `family(18, k)` and
    `family(36, k + 1)` through q^bound, plus the divisibility they
    force."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    report = Report("genfun", {"k": k, "bound": bound})
    plan_master_series(_genfun_reads(k, bound))
    pair = _family_pair(k)
    for fam in pair:
        lhs = master_progression(fam.step, 0, bound + 1, fam.modulus)
        _congruence_check(report, f"pdo_t({fam.step}n) closed form", lhs,
                          fam.companion(bound + 1), fam.modulus, bound,
                          "finite-depth evidence")
    for fam in pair:
        _divisible_check(report, f"pdo_t({fam.step}n) divisible by 3^{k + 2}",
                         fam, bound + 1,
                         f"forced by the closed form through q^{bound}")
    return report


def _divisibility_reads(k_max: int, n_max: int):
    return ((fam.step, 0, n_max + 1, fam.modulus // 3)
            for k in range(k_max + 1) for fam in _family_pair(k))


def divisibility_suite(k_max: int = 3, n_max: int = 40) -> Report:
    """Divisibility pdo_t(8 3^k n) == pdo_t(12 3^k n) == 0 mod 3^(k+2)
    for k <= k_max and n <= n_max."""
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    report = Report("divisibility", {"k_max": k_max, "n_max": n_max})
    plan_master_series(_divisibility_reads(k_max, n_max))
    for k in range(k_max + 1):
        for fam in _family_pair(k):
            _divisible_check(report, f"pdo_t({fam.step}n) == 0 mod 3^{k + 2}",
                             fam, n_max + 1,
                             f"finite-depth evidence, n <= {n_max}")
    return report


def _coexistence_reads(k_max: int, bound: int):
    return ((fam.step, 0, bound + 1, fam.modulus)
            for k in range(k_max + 1) for fam in _family_pair(k))


def coexistence(k_max: int = 3, bound: int = 200) -> Report:
    """Cross-consistency of the two closed forms: multiplying each side
    by the other's product part must agree mod 3^(k+3), because the two
    companion products coincide mod 3."""
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    report = Report("coexistence", {"k_max": k_max, "bound": bound})
    plan_master_series(_coexistence_reads(k_max, bound))
    for k in range(k_max + 1):
        eight, twelve = _family_pair(k)
        modulus = eight.modulus
        lhs8 = master_progression(eight.step, 0, bound + 1, modulus)
        lhs12 = master_progression(twelve.step, 0, bound + 1, modulus)
        left = 2 ** twelve.two * f_product({2: 4}, bound + 1, modulus) * lhs8
        right = 2 ** eight.two * f_product({1: 8}, bound + 1, modulus) * lhs12
        _congruence_check(
            report,
            f"2^{twelve.two} f2^4 pdo_t({eight.step}n) == "
            f"2^{eight.two} f1^8 pdo_t({twelve.step}n)",
            left, right, modulus, bound, "finite-depth evidence")
    return report


# ---------------------------------------------------------------------------
# certificate table


# (m, t, r'_1, depth, u): each row certifies pdo_t(m n + t + 1) == 0 mod u,
# with auxiliary exponent r'_1 on f_1 and at least `depth` coefficients
# checked per progression (never less than floor(nu))
CERTIFICATE_ROWS = [
    (6, 2, 5, 6, 4), (6, 5, 5, 6, 8),
    (12, 2, 10, 11, 4), (12, 5, 10, 11, 8),
    (12, 8, 10, 10, 4), (12, 11, 10, 10, 16),
    (24, 5, 20, 20, 8), (24, 11, 20, 20, 16),
    (24, 17, 20, 20, 8), (24, 23, 20, 20, 32),
    (48, 11, 40, 40, 16), (48, 23, 40, 39, 32),
    (48, 35, 40, 39, 16), (48, 47, 40, 39, 64),
    (96, 23, 80, 78, 32), (96, 47, 80, 78, 64),
    (96, 71, 80, 77, 32), (96, 95, 80, 77, 128),
    (192, 47, 160, 155, 64), (192, 95, 160, 154, 128),
    (192, 143, 160, 154, 64), (192, 191, 160, 154, 256),
]


def _certificate_instances():
    """(instance, aux exponents, u, depth, orbit, floor(nu)) per row."""
    for m, t, rp1, depth, u in CERTIFICATE_ROWS:
        inst = RaduInstance(m=m, M=12, level=12,
                            r=dict(PDO_T_EXPONENTS), t=t)
        aux = AuxExponents(12, {1: rp1})
        orbit, nu = orbit_and_nu(inst, aux)
        yield inst, aux, u, depth, orbit, floor(nu)


def _certificate_reads():
    return [read for inst, _, u, depth, orbit, floor_nu
            in _certificate_instances()
            for read in shifted_reads(inst.m, orbit,
                                      max(floor_nu, depth) + 1, u)]


def shifted_reads(m: int, offsets, count: int, u: int):
    """The master-series reads behind c(m n + t') = pdo_t(m n + t' + 1)
    mod u, n < count, for each t' in `offsets`: the coefficients of the
    PDO_t map c_r = f2 f3^2 f12^2/(f1^2 f6) that radu_verify checks."""
    return [(m, t + 1, count, u) for t in offsets]


def shifted_progression(m: int, u: int):
    """radu_verify's progression source for the PDO_t map, read from the
    master series (the 3n series when 3 divides m and every t' + 1).  Its
    offsets ascend, so a request makes its `shifted_reads` furthest first:
    the first read of each source expands it as far as the rest need."""
    def progression(offsets, count):
        reads = reversed(shifted_reads(m, offsets, count, u))
        return [master_progression(*read).coeffs for read in reads][::-1]
    return progression


def certificate_table() -> Report:
    """Run the full certificate for every progression row, each reading
    its orbit's progressions from the shared master series."""
    report = Report("table", {"rows": len(CERTIFICATE_ROWS)})
    plan_master_series(_certificate_reads())

    for inst, aux, u, depth, _, floor_nu in _certificate_instances():
        cert = radu_verify(inst, aux, u,
                           progression=shifted_progression(inst.m, u),
                           min_depth=depth)
        name = f"pdo_t({inst.m}n+{inst.t + 1}) == 0 mod {u}"
        if cert.verdict:
            note = f", depth extended to {depth}" if floor_nu != depth else ""
            report.add(
                name, True,
                f"closure check, nu={cert.nu}, floor {cert.floor_nu}, "
                f"orbit {cert.p_set}{note}")
        else:
            report.add(name, False,
                       f"coefficient failure: {cert.failure}")
    return report


# ---------------------------------------------------------------------------
# Sturm-bound closures at the two eta-quotient levels


def _sturm_closures(k18: int, k36: int):
    """(family, weight, Sturm bound) of the two closures."""
    for fam in (family(18, k18), family(36, k36)):
        weight = sum(fam.exponents.values()) // 2
        yield fam, weight, sturm_bound(weight, fam.level)


def _sturm_reads(k18: int, k36: int):
    return [(fam.step, 0, bound + 1, fam.modulus)
            for fam, _, bound in _sturm_closures(k18, k36)]


def sturm_suite(k18: int = 2, k36: int = 3) -> Report:
    """Close the two deepest congruences by the Sturm argument: apply the
    level-respecting U(3) operator k times to the holomorphic quotient
    and compare with its companion form through the Sturm bound for that
    weight and level.  Agreement there proves agreement everywhere, and
    the master-series dissections must then show the same congruences."""
    report = Report("sturm", {"k18": k18, "k36": k36})
    plan_master_series(_sturm_reads(k18, k36))
    for fam, weight, bound in _sturm_closures(k18, k36):
        level, modulus, k = fam.level, fam.modulus, fam.k
        closure = f"closure check at Sturm bound {bound}"
        dissection, companion = quotients = fam.quotients()
        for eq, side in zip(quotients, ("dissection", "companion")):
            report.add(f"level-{level} weight-{weight} quotient holomorphic "
                       f"({side} side)", modularity_check(eq).ok,
                       "integral weight, trivial-character sums, "
                       "nonnegative cusp orders")

        closed = q_expansion(dissection, 3 ** k * (bound + 1), modulus)
        for _ in range(k):
            closed = u_operator(closed, 3)
        expanded = q_expansion(companion, bound + 1, modulus)
        _congruence_check(
            report, f"U(3)^{k} of level-{level} quotient == companion",
            closed, expanded, modulus, bound, closure)

        product = fam.companion(bound + 1)
        _congruence_check(
            report, f"level-{level} companion == scalar q {fam.product_text}",
            expanded, product, modulus, bound, "binomial congruence")
        lhs = master_progression(fam.step, 0, bound + 1, modulus)
        _congruence_check(
            report, f"pdo_t({fam.step}n) matches the level-{level} closure",
            lhs, product, modulus, bound, closure)
    return report


# "all" runs these in order, after one `plan_master_series` over all their
# `suite_reads` has expanded the master series that they read
SUITES = {
    "dissection": dissection_suite,
    "sturm": sturm_suite,
    "genfun": genfun_congruences,
    "divisibility": divisibility_suite,
    "coexistence": coexistence,
    "prime-family": nonresidue_prime_family,
    "intermediate": intermediate_steps,
    "certificates": certificate_table,
    "powers-of-two": powers_of_two_suite,
}

# suite name -> its master-series reads, as a function of the suite's
# keyword arguments
_READS = {
    "sturm": _sturm_reads,
    "genfun": _genfun_reads,
    "divisibility": _divisibility_reads,
    "coexistence": _coexistence_reads,
    "prime-family": _prime_family_reads,
    "intermediate": _intermediate_reads,
    "certificates": _certificate_reads,
    "powers-of-two": _powers_of_two_reads,
}


def suite_reads(name: str, **params):
    """The master-series reads of suite `name` run with `params`, its
    defaults filling in the rest, as an iterable; those of a suite whose
    parameters range over k are made one at a time, as they are read."""
    if name not in _READS:
        return []
    suite = SUITES[name]
    while hasattr(suite, "__wrapped__"):  # as inspect.signature unwraps
        suite = suite.__wrapped__
    names = suite.__code__.co_varnames[:suite.__code__.co_argcount]
    defaults = dict(zip(reversed(names), reversed(suite.__defaults__ or ())))
    return _READS[name](**{p: params.get(p, defaults.get(p)) for p in names})
