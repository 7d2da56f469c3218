"""Truncated formal power series over Z or Z/MZ, with the q-series builders
used everywhere else in this package.

A TruncSeries holds the coefficients c[0..T-1] of a series known modulo q^T.
The domain is either exact integers (modulus None) or the residue ring Z/MZ
(modulus M >= 2, coefficients normalized into [0, M)).  Arithmetic between
two series requires identical domains and truncates to the smaller order,
since nothing past that point is determined by the operands.

Multiplication dispatches on the order and the number of nonzero pairs.
Schoolbook convolution walks only the nonzero terms of both operands, so
its cost is the count of nonzero pairs; it takes every product below
order 128, and at any order a product whose operands have at most 16
nonzero pairs per product coefficient, such as one pentagonal-sparse
Euler factor times another.  Every other product, over Z or in a residue
ring, uses Kronecker substitution in base 10^w: each coefficient becomes
a zero-padded w-digit field of one integer `decimal.Decimal`, a single
multiply does the whole convolution, and the fields of the product are
the coefficients.  libmpdec multiplies long operands with a
number-theoretic transform, which is asymptotically faster than
CPython's Karatsuba.  This is still exact integer arithmetic, not
floating point: the operands are integers with exponent 0, the context
has precision MAX_PREC, and its Inexact and Rounded traps make any
result that would need rounding raise instead.
Exact coefficients are signed.  A field holds c + A with A the largest |c|
of its operand, and A times the repunit of the fields is subtracted again,
so the big number carries the signed values.  After the multiply a bias
H, no smaller than any |c| of the product, is added to every field, so
each field lies in [0, 2H] and none borrows from its neighbour.
A field with more digits than the interpreter converts between int and
str (M above about 10^2150, or exact coefficients about as long) is
written from Decimal(c) and read back through a Decimal, neither of
which has that limit.
Division num/den, and inversion as the division of one, dispatches on the
domain, the order and the number of nonzero terms of den.  A sparse den,
such as phi(-q) with about 2 sqrt(order) nonzero terms, is divided out in
one pass of the recurrence den[0] y[n] = num[n] - sum_{i>=1} den[i] y[n-i],
one step per nonzero den[i], so the work is nnz(den) steps per
coefficient with no inverse and no product formed.  A den with more than
10 sqrt(order) nonzero terms over Z, or 32 in a residue ring, would make
that slower than Newton iteration x -> x(2-ax), which doubles the correct
precision each step.  When x is right to half the new precision, ax is 1
plus q^half times an error e, so the step reads only coefficients half
and up of ax (the product decodes no field below them) and appends -x e
truncated to the remaining length.  Newton stops at h = ceil(order/2),
and one Karp-Markstein step finishes the quotient: y = num x to h, then
num - den y is q^h times e below order, and y + q^h x e is the quotient.
So the last full-length Newton step and the order-length product of num
and the inverse are never formed; dividing one goes the same way.

Every eta product prod f_d^(r_d) is built by `eta_product`.  Modulo a
power p^a of one prime it first lowers the exponents by the binomial
congruence (1 - x)^(p^a) == (1 - x^p)^(p^(a-1)) (mod p^a), so
f_d^(p^a) == f_pd^(p^(a-1)): walking the steps in ascending order, r_d
loses the multiple j p^a nearest it (the smaller |j| on a tie), or the
largest one below it when no exponent is negative, so a product never
becomes a quotient, and r_pd gains j p^(a-1) (`binomial_reduce`).
Modulo 243 the Sturm quotient
f1^237 f2^3 f3^-79 f6^3 becomes f1^-6 f2^3 f3^2 f6^3, and modulo 2 the
PDO_t map becomes f24.  Over Z and modulo a composite nothing changes.
Then it divides the steps by their gcd and inflates the result back,
forms each f_d^r by inflating one f_1^|r| (shared by all steps with the
same |r|), and divides the product of the positive-exponent factors by
that of the negative-exponent ones, if there are any.

Before that it pulls out theta factors.  Ramanujan's phi(-q) = f_1^2/f_2
= sum_k (-1)^k q^(k^2) and psi(q) = f_2^2/f_1 = sum_{n>=0} q^(n(n+1)/2)
(Berndt, Ramanujan's Notebooks, Part III, Entry 22) have only about
2 sqrt(order) and sqrt(2 order) nonzero terms, and are written down
directly like `jacobi_cube`.  A pair of steps d, 2d with r_d = -2 r_2d
is phi(-q^d)^(-r_2d), and one with r_2d = -2 r_d is psi(q^d)^(-r_d); the
steps are paired in ascending order, each at most once.  Where neither
holds but r_d is even and r_2d has the opposite sign, phi(-q^d)^(r_d/2)
takes all of f_d^(r_d) and the rest, r_2d + r_d/2, stays on step 2d,
which may then pair with 4d.  A theta factor joins the numerator or the
denominator by the sign of its exponent, like any other factor, so the
sparse-product dispatch and the single division apply to it unchanged.
A power f_1^(3j) is (f_1^3)^j, starting from the sparse `jacobi_cube`.
The PDO_t series q f2 f3^2 f12^2/(f1^2 f6) is q phi(-q^3) f12^2/phi(-q):
one sparse factor times f12^2, divided by the sparse phi(-q) in one
recurrence pass, where the Euler factors alone need four dense products
and an inversion.
Its 3n progression 4q f2 f4^2 f6^3/f1^4 is 4q psi(q^2) f6^3/phi(-q)^2,
built from three sparse series.
"""

from __future__ import annotations

import sys
from decimal import (
    MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded,
)
from itertools import zip_longest
from math import gcd, isqrt


class DomainMismatchError(ValueError):
    """Arithmetic attempted between series over different coefficient rings."""


class NotInvertibleError(ValueError):
    """Series inversion attempted when the constant term is not a unit."""


def _normalize(coeffs, modulus):
    if modulus is None:
        return tuple(coeffs)
    return tuple([c % modulus for c in coeffs])


def _nonzero_count(coeffs, order):
    """Nonzero entries among the first `order` coefficients, counted in C."""
    if len(coeffs) > order:
        coeffs = coeffs[:order]
    return len(coeffs) - coeffs.count(0)


def _nonzero_terms(coeffs, order):
    return [(i, c) for i, c in enumerate(coeffs[:order]) if c]


def _mul_schoolbook(a, b, order, modulus):
    # both operands as their nonzero (index, coefficient) pairs, so the
    # work is one step per pair of nonzero terms that lands below `order`
    terms_a = _nonzero_terms(a, order)
    terms_b = _nonzero_terms(b, order)
    if len(terms_a) > len(terms_b):
        terms_a, terms_b = terms_b, terms_a
    out = [0] * order
    for i, ai in terms_a:
        room = order - i
        if ai == 1:
            for j, bj in terms_b:
                if j >= room:
                    break
                out[i + j] += bj
        elif ai == -1:
            for j, bj in terms_b:
                if j >= room:
                    break
                out[i + j] -= bj
        else:
            for j, bj in terms_b:
                if j >= room:
                    break
                out[i + j] += ai * bj
    if modulus is not None:
        out = [c % modulus for c in out]
    return out


_SCHOOLBOOK_THRESHOLD = 128
# at any order, schoolbook wins while the nonzero pairs number at most
# this many per product coefficient (the sparse rows of bench/multiply.py)
_SPARSE_PAIRS_PER_COEFF = 16


# Integer arithmetic on Decimals: an exact product is returned unchanged,
# and one that would need rounding raises Inexact instead.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
_EXACT.traps[Inexact] = True
_EXACT.traps[Rounded] = True


def _repunit(value, w, n):
    """value * (1 + 10^w + ... + 10^(w(n-1))), for 0 <= value < 10^w.
    The digits come from a Decimal, so no int -> str limit applies."""
    return Decimal(str(Decimal(value)).zfill(w) * n)


def _decimal_operand(coeffs, n, bias, w, wide):
    top = coeffs[n - 1::-1]
    if bias:
        top = [c + bias for c in top]
    if wide:
        x = Decimal("".join([str(Decimal(c)).zfill(w) for c in top]))
    else:
        x = Decimal(("%0" + str(w) + "d") * n % tuple(top))
    if bias:
        x = _EXACT.subtract(x, _repunit(bias, w, n))
    return x


def _mul_decimal(a, b, order, modulus, lo=0):
    # Kronecker substitution in base 10^w, with w the digits of the field
    # bound.  Residue coefficients lie in [0, M), so no field is biased
    # and the bound is min(la, lb) (M-1)^2.  Exact ones are biased by
    # A = max |a[i]| and B = max |b[j]|; every |c[k]| is at most
    # H = min(la, lb) A B, so the product fields lie in [0, 2H].  Each
    # temporary is dropped as soon as it is consumed, to keep peak memory
    # down.
    la = min(len(a), order)
    lb = min(len(b), order)
    n = min(order, la + lb - 1)
    if modulus is None:
        bias_a = max(map(abs, a[:la]), default=0)
        bias_b = max(map(abs, b[:lb]), default=0)
        bias_h = min(la, lb) * bias_a * bias_b
        bound = 2 * bias_h
    else:
        bias_a = bias_b = bias_h = 0
        bound = min(la, lb) * (modulus - 1) * (modulus - 1)
    if not bound or lo >= n:
        return [0] * (order - lo)
    w = Decimal(bound).adjusted() + 1
    # every field, of an operand or of the product, is at most `bound`
    wide = not _fits_int_str(bound)
    x = _decimal_operand(a, la, bias_a, w, wide)
    y = _decimal_operand(b, lb, bias_b, w, wide)
    z = _EXACT.multiply(x, y)
    del x, y
    if bias_h:
        z = _EXACT.add(z, _repunit(bias_h, w, la + lb - 1))
    # only fields lo..n-1 are read: field k is digits[end - (k+1)w :
    # end - kw], and the fields above the leading digit are zero, so pad
    # up to the n fields below the window's top
    digits = str(z).zfill(n * w)
    del z
    end = len(digits)
    stops = range(end - lo * w, end - n * w, -w)
    if wide:
        if modulus is None:
            out = [int(Decimal(digits[i - w:i])) - bias_h for i in stops]
        else:
            m = Decimal(modulus)
            out = [int(_EXACT.remainder(Decimal(digits[i - w:i]), m))
                   for i in stops]
    elif modulus is None:
        out = [int(digits[i - w:i]) - bias_h for i in stops]
    else:
        out = [int(digits[i - w:i]) % modulus for i in stops]
    del digits
    out.extend([0] * (order - n))
    return out


def _fits_int_str(value):
    """Whether the digits of `value` may be converted between int and str
    under the interpreter's limit on such conversions (0 means none)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # 2^(3 limit) < 10^limit settles the usual case without the big power
    return not limit or value.bit_length() <= 3 * limit or value < 10 ** limit


def _mul_lists(a, b, order, modulus, lo=0):
    """Coefficients lo..order-1 of the product of coefficient lists."""
    if (order < _SCHOOLBOOK_THRESHOLD
            or _nonzero_count(a, order) * _nonzero_count(b, order)
            <= _SPARSE_PAIRS_PER_COEFF * order):
        out = _mul_schoolbook(a, b, order, modulus)
        return out[lo:] if lo else out
    return _mul_decimal(a, b, order, modulus, lo)


def _unit_inverse(a, modulus):
    """The inverse of the constant term of `a`, which must be a unit."""
    c0 = a[0] if a else 0
    if modulus is None:
        if c0 not in (1, -1):
            raise NotInvertibleError(
                f"constant term {c0} is not a unit over the integers"
            )
        return c0
    try:
        return pow(c0, -1, modulus)
    except ValueError:
        raise NotInvertibleError(
            f"constant term {c0} is not invertible mod {modulus}"
        ) from None


def _invert_list(a, order, modulus):
    """Newton iteration for 1/a, given a unit constant term."""
    x = [_unit_inverse(a, modulus)]
    while len(x) < order:
        # x is right below `half`, so a x = 1 + q^half e there and the
        # step x (2 - a x) = x - q^half x e only appends its new half
        half = len(x)
        prec = min(2 * half, order)
        ax = _mul_lists(a, x, prec, modulus, lo=half)
        if modulus is None:
            err = [-c for c in ax]
        else:
            err = [-c % modulus for c in ax]
        del ax
        x += _mul_lists(x, err, prec - half, modulus)
    return x


# the most nonzero terms a denominator may have for the recurrence, which
# costs that many steps per coefficient.  Over Z the limit is 10 sqrt(order),
# five times the density of phi(-q), since Newton inversion and the
# Karp-Markstein step cost more per coefficient as the order and the
# coefficients grow.  In the division rows of bench/multiply.py the
# recurrence wins on every denominator of up to 153 nonzero terms at order
# 250 and 177 at 500, and 2-5x on the sparse rows (up to 143 terms) from
# 1000 to 7600; it loses on f1^2 (258 terms at 500, 482 at 1000), on
# phi(-q)^2 at 1000 (330 terms; 17 ms against 14 by Newton) and on every
# row of 1047 terms or more.  The rule picks the slower path only near a
# tie: f1^6 at 250 (153 terms; 1.8 ms against 3.0) and 500 (289 terms,
# 7.0 ms both ways).  In a residue ring the product stays cheap and the
# crossover does not grow: mod 32 and 256 the recurrence wins up to 51-153
# terms at orders up to 1000 and 60 at 3535, and loses from 84 terms at
# 3535 and 88 at 7600; mod 4, where Newton's iterates for phi(-q) stay
# sparse, it loses on phi(-q) from order 500 (23 terms) on.  32 keeps it
# off phi(-q) mod 4 past order 1024; between 33 and about 60 terms mod 32
# and 256 that costs a few ms per division.  Certify-batch's longest
# division, phi(-q^3) f12^2 / phi(-q) to order 7488 mod 128 (87 terms),
# takes 40 ms by Newton and 49 by the recurrence.
_SPARSE_DIVISOR_SCALE = 10
_SPARSE_DIVISOR_TERMS_RESIDUE = 32


def _divide_sparse(num, den, order, modulus):
    """num/den from den[0] y[n] = num[n] - sum_{i>=1} den[i] y[n-i], one
    step per nonzero den[i] with i <= n, given a unit constant term."""
    inv0 = _unit_inverse(den, modulus)
    terms = _nonzero_terms(den, order)[1:]
    y = []
    for n in range(order):
        acc = num[n] if n < len(num) else 0
        for i, c in terms:
            if i > n:
                break
            acc -= c * y[n - i]
        y.append(acc * inv0 if modulus is None else acc * inv0 % modulus)
    return y


def _divide_newton(num, den, order, modulus):
    """num/den by one Karp-Markstein step on an inverse to half the order,
    given a unit constant term in den."""
    # x = 1/den and y = num x are right below h >= order - h, so below
    # order num - den y = q^h e, and y + q^h x e is right there
    h = -(-order // 2)
    x = _invert_list(den, h, modulus)
    y = _mul_lists(num, x, h, modulus)
    dy = _mul_lists(den, y, order, modulus, lo=h)
    err = [c - d for c, d in zip_longest(num[h:order], dy, fillvalue=0)]
    del dy
    if modulus is not None:
        err = [c % modulus for c in err]
    y += _mul_lists(x, err, order - h, modulus)
    return y


def _divide_list(num, den, order, modulus):
    """num/den truncated to `order` coefficients, given a unit constant
    term in den: by the recurrence when den is sparse, otherwise by
    Newton inversion to half the order and one Karp-Markstein step."""
    if order <= 0:
        return []
    limit = (_SPARSE_DIVISOR_SCALE * isqrt(order) if modulus is None
             else _SPARSE_DIVISOR_TERMS_RESIDUE)
    if _nonzero_count(den, order) <= limit:
        return _divide_sparse(num, den, order, modulus)
    return _divide_newton(num, den, order, modulus)


class TruncSeries:
    """A power series truncated at q^order over Z or Z/MZ."""

    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs, modulus=None):
        if modulus is not None and modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        self.coeffs = _normalize(coeffs, modulus)
        self.modulus = modulus

    @classmethod
    def _reduced(cls, coeffs, modulus) -> "TruncSeries":
        """A series from coefficients already in the domain (reduced into
        [0, M) for a residue ring), without checking or reducing them."""
        out = object.__new__(cls)
        out.coeffs = tuple(coeffs)
        out.modulus = modulus
        return out

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @classmethod
    def zero(cls, order: int, modulus=None) -> "TruncSeries":
        return cls([0] * order, modulus)

    @classmethod
    def one(cls, order: int, modulus=None) -> "TruncSeries":
        if order == 0:
            return cls([], modulus)
        return cls([1] + [0] * (order - 1), modulus)

    def __getitem__(self, n: int) -> int:
        if not 0 <= n < self.order:
            raise IndexError(
                f"coefficient {n} is beyond truncation order {self.order}"
            )
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.modulus == other.modulus
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.modulus, self.coeffs))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 6 else ""
        dom = "Z" if self.modulus is None else f"Z/{self.modulus}"
        return f"TruncSeries({dom}, order={self.order}, [{head}{tail}])"

    def _check_domain(self, other: "TruncSeries"):
        if self.modulus != other.modulus:
            raise DomainMismatchError(
                f"mixed domains: modulus {self.modulus} vs {other.modulus}"
            )

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_domain(other)
        n = min(self.order, other.order)
        return TruncSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(n)], self.modulus
        )

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_domain(other)
        n = min(self.order, other.order)
        return TruncSeries(
            [self.coeffs[i] - other.coeffs[i] for i in range(n)], self.modulus
        )

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs], self.modulus)

    def __mul__(self, other):
        if isinstance(other, int):
            # a generator, so no unreduced copy is held beside the result
            return TruncSeries((other * c for c in self.coeffs), self.modulus)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_domain(other)
        n = min(self.order, other.order)
        return TruncSeries._reduced(
            _mul_lists(self.coeffs, other.coeffs, n, self.modulus), self.modulus
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (self ** (-exponent)).invert()
        result = None
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        if result is None:
            return TruncSeries.one(self.order, self.modulus)
        return result

    def invert(self, times=None) -> "TruncSeries":
        """Multiplicative inverse, or with `times` the quotient times/self,
        formed by one division without the inverse; the constant term must
        be a unit."""
        if times is None:
            num, n = (1,), self.order
        else:
            self._check_domain(times)
            num, n = times.coeffs, min(self.order, times.order)
        return TruncSeries._reduced(
            _divide_list(num, self.coeffs, n, self.modulus), self.modulus)

    def inflate(self, m: int, order=None) -> "TruncSeries":
        """Substitute q -> q^m.  The result is known to order m*T, every
        coefficient there being either a[j] at index m*j or zero."""
        if m < 1:
            raise ValueError(f"inflation step must be >= 1, got {m}")
        n = m * self.order if order is None else min(order, m * self.order)
        out = [0] * n
        out[::m] = self.coeffs[:-(-n // m)]
        return TruncSeries._reduced(out, self.modulus)

    def dissect(self, m: int, t: int) -> "TruncSeries":
        """Extract the arithmetic progression c[m*n + t] as a new series."""
        if m < 1:
            raise ValueError(f"dissection step must be >= 1, got {m}")
        if not 0 <= t < m:
            raise ValueError(f"residue {t} out of range for step {m}")
        return TruncSeries._reduced(self.coeffs[t::m], self.modulus)

    def reduce_mod(self, modulus: int) -> "TruncSeries":
        """Map into Z/MZ.  Defined from the exact domain, or from a residue
        ring whose modulus is a multiple of the target (well defined there);
        anything else is rejected."""
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        if self.modulus is not None and self.modulus % modulus != 0:
            raise DomainMismatchError(
                f"cannot reduce mod {modulus} from Z/{self.modulus}"
            )
        return TruncSeries(self.coeffs, modulus)

    def shift(self, k: int) -> "TruncSeries":
        """Multiply by q^k (k >= 0, order grows by k) or divide by q^k
        (k < 0, dropping the leading coefficients)."""
        if k >= 0:
            return TruncSeries._reduced((0,) * k + self.coeffs, self.modulus)
        if -k > self.order:
            raise ValueError(f"cannot shift order-{self.order} series by {k}")
        return TruncSeries._reduced(self.coeffs[-k:], self.modulus)

    def truncate(self, order: int) -> "TruncSeries":
        if not 0 <= order <= self.order:
            raise ValueError(
                f"cannot truncate order-{self.order} series to {order}"
            )
        return TruncSeries._reduced(self.coeffs[:order], self.modulus)

    def valuation(self):
        """Index of the first nonzero coefficient, or None if all zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def product(factors, order: int, modulus=None) -> TruncSeries:
    """The product of the series in `factors`, left to right, or one (to
    the given order) when there are none.  It starts from the first
    factor, so no multiply by one is spent."""
    result = None
    for f in factors:
        result = f if result is None else result * f
    if result is None:
        return TruncSeries.one(order, modulus)
    return result


def euler_factor(step: int, exponent: int, order: int, modulus=None) -> TruncSeries:
    """The Euler product f_step = prod_{j>=1} (1 - q^(j*step)), raised to
    `exponent` (negative exponents invert).

    The base polynomial comes from the pentagonal number theorem,
    f_1 = sum_k (-1)^k q^(k(3k-1)/2) over all integers k, so it has only
    O(sqrt(order/step)) nonzero terms.
    """
    if step < 1:
        raise ValueError(f"Euler factor step must be >= 1, got {step}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    base = [0] * order
    if order > 0:
        base[0] = 1
    k = 1
    while True:
        lo = step * (k * (3 * k - 1) // 2)
        hi = step * (k * (3 * k + 1) // 2)
        if lo >= order:
            break
        sign = 1 if k % 2 == 0 else -1
        base[lo] = sign
        if hi < order:
            base[hi] = sign
        k += 1
    f = TruncSeries(base, modulus)
    if exponent == 1:
        return f
    return f ** exponent


def eta_product(exponents: dict, order: int, modulus=None) -> TruncSeries:
    """prod_d f_d^(r_d) for the map {d: r_d}, to the given order.

    Entries with r_d = 0 are ignored.  Modulo a prime power p^a the map is
    first lowered by f_d^(p^a) == f_pd^(p^(a-1)) (`binomial_reduce`), so
    every |r_d| is at most p^a/2 (every r_d below p^a for a map with no
    negative exponent), and a map that reduces to nothing gives one; over
    Z or modulo a composite it is used as given.  With g the gcd of the
    remaining steps, the product is the order-ceil(order/g) expansion
    for the steps d/g, inflated by g.  Walking the steps in ascending order,
    a step d whose partner 2d is unused becomes a theta factor with it:
    f_d^(r_d) f_2d^(r_2d) is phi(-q^d)^(-r_2d) when r_d = -2 r_2d, and
    psi(q^d)^(-r_d) when r_2d = -2 r_d.  Failing both, an even r_d whose
    partner has the opposite sign becomes phi(-q^d)^(r_d/2), and step 2d
    keeps the exponent r_2d + r_d/2 for its own turn, where it can still
    pair with 4d.  Every other step is a factor f_d^(r_d).  Each factor is
    its base series (f_1, phi(-q) or psi(q)) raised to |r| (one power per
    distinct base and |r|, at the largest order any step needs; f_1^(3j) is
    (f_1^3)^j from `jacobi_cube`), truncated to ceil(order/d) and inflated
    by d.  The factors with r > 0 are multiplied together, and so are
    those with r < 0; the first product (one, when there are none) is
    divided by the second once, and not at all when there is no r < 0.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    steps = {d: r for d, r in exponents.items() if r}
    for d in steps:
        if d < 1:
            raise ValueError(f"Euler factor step must be >= 1, got {d}")
    steps = binomial_reduce(steps, modulus)
    g = gcd(*steps)
    if g > 1:
        body = eta_product({d // g: r for d, r in steps.items()},
                           -(-order // g), modulus)
        return body.inflate(g, order)
    factors = []  # (base, step, exponent): base(q^step)^exponent
    left = dict(steps)  # exponents not yet taken by a factor
    for d in sorted(steps):
        r = left.pop(d, 0)
        if not r:
            continue
        r2 = left.get(2 * d, 0)
        if r == -2 * r2:
            factors.append((phi_minus, d, -r2))
            del left[2 * d]
        elif r2 == -2 * r:
            factors.append((psi, d, -r))
            del left[2 * d]
        elif r % 2 == 0 and r * r2 < 0:
            # phi(-q^d)^(r/2) takes all of f_d^r; f_2d keeps the carry
            factors.append((phi_minus, d, r // 2))
            left[2 * d] = r2 + r // 2
        else:
            factors.append((euler_factor, d, r))
    lengths = {}
    for base, d, r in factors:
        key = base, abs(r)
        lengths[key] = max(lengths.get(key, 0), -(-order // d))
    powers = {(base, e): _base_power(base, e, n, modulus)
              for (base, e), n in lengths.items()}

    def inflated(sign):
        return (powers[base, abs(r)].truncate(-(-order // d)).inflate(d, order)
                for base, d, r in factors if (r > 0) == sign)

    num = product(inflated(True), order, modulus)
    if all(r > 0 for _, _, r in factors):
        return num
    den = product(inflated(False), order, modulus)
    del powers
    return den.invert(times=num)


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, ascending."""
    return [d for d in range(1, n + 1) if n % d == 0]


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def binomial_reduce(exponents: dict, modulus=None) -> dict:
    """The exponent map {d: r_d} with each r_d brought into
    [-p^a/2, p^a/2] by f_d^(p^a) == f_pd^(p^(a-1)) (mod p^a), when the
    modulus is a power p^a of one prime; otherwise the map unchanged.
    A map with no negative exponent has each r_d brought into [0, p^a)
    instead, so a product stays a product and needs no inversion.

    The steps are walked in ascending order.  Each r_d loses j p^a, with
    j the integer nearest r_d/p^a (the smaller |j| on a tie, so
    r_d = +-p^a/2 stays), or j = floor(r_d/p^a) when no exponent is
    negative, and r_pd gains j p^(a-1), in time for its own turn.  Zero
    exponents are dropped.  Nothing is reduced over Z or modulo a
    composite, and a map with every |r_d| <= M/2 is returned before M is
    factored, since no step would change."""
    steps = {d: r for d, r in exponents.items() if r}
    if modulus is None or all(2 * abs(r) <= modulus for r in steps.values()):
        return steps
    primes = prime_factors(modulus)
    if len(primes) != 1:
        return steps
    p = primes[0]
    nearest = min(steps.values()) < 0
    done = {}
    while steps:
        d = min(steps)
        j, rest = divmod(steps.pop(d), modulus)
        if nearest and (2 * rest > modulus
                        or (2 * rest == modulus and j < 0)):
            j, rest = j + 1, rest - modulus
        if j:
            steps[p * d] = steps.get(p * d, 0) + j * (modulus // p)
        if rest:
            done[d] = rest
    return done


def _base_power(base, exponent, order, modulus):
    if base is euler_factor:
        if exponent % 3 == 0:
            # f_1^(3j) = (f_1^3)^j, and f_1^3 is the sparse Jacobi series
            return jacobi_cube(order, modulus) ** (exponent // 3)
        return euler_factor(1, exponent, order, modulus)
    return base(order, modulus) ** exponent


def phi_minus(order: int, modulus=None) -> TruncSeries:
    """Ramanujan's phi(-q) = f_1^2/f_2 written directly as its theta series
    sum over all integers k of (-1)^k q^(k^2)."""
    out = [0] * order
    if order > 0:
        out[0] = 1
    k = 1
    while k * k < order:
        out[k * k] = -2 if k % 2 else 2
        k += 1
    return TruncSeries(out, modulus)


def psi(order: int, modulus=None) -> TruncSeries:
    """Ramanujan's psi(q) = f_2^2/f_1 written directly as its theta series
    sum_{n>=0} q^(n(n+1)/2)."""
    out = [0] * order
    n = 0
    while n * (n + 1) // 2 < order:
        out[n * (n + 1) // 2] = 1
        n += 1
    return TruncSeries(out, modulus)


def jacobi_cube(order: int, modulus=None) -> TruncSeries:
    """f_1^3 written directly through Jacobi's identity
    f_1^3 = sum_{n>=0} (-1)^n (2n+1) q^(n(n+1)/2)."""
    out = [0] * order
    n = 0
    while n * (n + 1) // 2 < order:
        out[n * (n + 1) // 2] = (2 * n + 1) * (1 if n % 2 == 0 else -1)
        n += 1
    return TruncSeries(out, modulus)


def cubic_theta(order: int, modulus=None) -> TruncSeries:
    """The cubic theta series c(q) = sum over integer pairs (m, n) of
    q^(m^2 + mn + n^2).

    Since m^2 + mn + n^2 >= (m^2 + n^2)/2, pairs with max(|m|, |n|)
    above sqrt(2*order) cannot contribute below the truncation.
    """
    out = [0] * order
    bound = isqrt(2 * order) + 1
    for m in range(-bound, bound + 1):
        for n in range(-bound, bound + 1):
            v = m * m + m * n + n * n
            if v < order:
                out[v] += 1
    return TruncSeries(out, modulus)
