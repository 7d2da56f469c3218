"""Truncated formal power series over Z or Z/MZ, with the q-series builders
used everywhere else in this package.

A TruncSeries holds the coefficients c[0..T-1] of a series known modulo
q^T, over Z (modulus None) or in Z/MZ (M >= 2, residues in [0, M)).
Arithmetic between two series needs one domain and truncates to the
smaller order, since nothing past that point is determined.  Each rule of
the arithmetic is stated once, in the docstring of the function that
owns it:

- storage: a residue vector with M < 2^63 is one array('q') of machine
  words, any other a list, kept by a series as a tuple (`_vector`); every
  vector the arithmetic builds is stored by one pass (`_finish`);
- sparse series: phi(-q), psi(q), f_1^3 and every Euler factor f_k are
  laid down from their (index, value) pairs into one zero vector
  (`_theta`);
- products: schoolbook convolution over the nonzero terms or Kronecker
  substitution into one Decimal, by the count of nonzero pairs
  (`_mul_lists`); the encoding into fields and its bias (`_mul_decimal`,
  `_decimal_operand`) and the decoding (`_decode_fields`);
- division: the blocked recurrence for a sparse divisor, Newton inversion
  and one Karp-Markstein step otherwise (`_divide_list`); the operands
  that enter several products of one division keep their encodings
  (`_Operand`);
- eta products: the smaller ring, the binomial congruence and the one
  division of the plan (`eta_product`); the factor plan, which names
  each factor's base, phi(-q), psi(q), f_1^3 or f_1, and the 2-adic
  theta-unit rule, which lets phi(-q)^-2 be phi(-q)^2 mod 8
  (`_eta_factors`); the cost estimate that plans expansions
  (`eta_cost`).
"""

from __future__ import annotations

import struct
import sys
from bisect import bisect_left, bisect_right
from decimal import (
    MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_DOWN, Context, Decimal, Inexact,
    Rounded,
)
from functools import cache
from itertools import accumulate, chain, count, cycle, islice, repeat
from math import floor, gcd, isqrt, log10
from operator import add, mul, neg, sub


class DomainMismatchError(ValueError):
    """Arithmetic attempted between series over different coefficient rings."""


class NotInvertibleError(ValueError):
    """Series inversion attempted when the constant term is not a unit."""


# residues mod M < 2^63 fit a signed machine word
_WORD_MODULI = 1 << 63
# coefficients a vector is stored, and an array encoded, at a time, so that
# no full-length list or tuple of ints is built
_SLICE = 1024


def _in_words(modulus):
    """Whether vectors of residues mod `modulus` are kept as array('q'):
    in Z/M with M < 2^63, never over Z (modulus None)."""
    return modulus is not None and modulus < _WORD_MODULI


# the array type, imported with the first residue vector, so that work over
# Z never loads the module
_array = None


def _vector(modulus, values=()):
    """A new coefficient vector holding `values`.  Where `_in_words`, every
    residue fits a signed 64-bit word, so the vector is one array('q'):
    8 bytes a coefficient, where a list holds an 8-byte pointer to an int
    of 28 bytes or more.  Over Z and for M >= 2^63 (such as the wide
    fields of `expand --mod` past the int/str limit) it is a list."""
    global _array
    if not _in_words(modulus):
        return list(values)
    if _array is None:
        from array import array as _array
    return _array("q", values)


def _is_words(coeffs):
    """Whether `coeffs` is a vector of machine words (an array('q'))."""
    return hasattr(coeffs, "frombytes")


def _kept(coeffs, modulus):
    """`coeffs` as a series keeps them: an array('q') where `_in_words`
    (one already built is kept as it is), a tuple otherwise."""
    if not _in_words(modulus):
        return tuple(coeffs)
    return coeffs if _is_words(coeffs) else _vector(modulus, coeffs)


def _nonzero_count(coeffs, order):
    """Nonzero entries among the first `order` coefficients, counted in C."""
    if len(coeffs) > order:
        coeffs = coeffs[:order]
    return len(coeffs) - coeffs.count(0)


# maps every nonzero byte to 1, so the nonzero words of an array are found
# by bytes.find
_NONZERO_BYTES = bytes([0] + [1] * 255)


def _nonzero_terms(coeffs, order):
    """The (index, coefficient) pairs of the nonzero coefficients below
    `order`.  An array of more than 256 words with nonzero bytes in at
    most a quarter of them has them found by bytes.find, which skips the
    zeros in C: the inflated theta series of the products before a
    division have a few hundred nonzero terms in tens of thousands."""
    head = coeffs[:order]
    if len(head) > 256 and _is_words(head):
        flags = head.tobytes().translate(_NONZERO_BYTES)
        if 4 * flags.count(1) <= len(head):
            terms = []
            at = flags.find(1)
            while at >= 0:
                i = at >> 3
                terms.append((i, head[i]))
                at = flags.find(1, i + 1 << 3)
            return terms
    return [(i, c) for i, c in enumerate(head) if c]


def _extend(out, values):
    """Append `values` to the vector `out`: to a list as they come, to an
    array from a list of ints, packed into machine words by one struct
    call (twice as fast as array.fromlist) when there are more than 64,
    below which making the Struct costs more.  The Struct is made afresh,
    as struct.pack's own cache would keep up to 100 formats."""
    if not _is_words(out):
        out += values
    elif len(values) > 64:
        out.frombytes(struct.Struct("%dq" % len(values)).pack(*values))
    else:
        out.fromlist(values)


def _finish(values, modulus, bias=0, minuend=None, scalar=1):
    """A new vector (`_vector`) of `values`, an iterable, each less `bias`
    (a product's over Z) or times `scalar` (a scalar multiple's) and
    reduced mod M (over Z, modulus None, not reduced); with a `minuend`,
    an iterable read as zeros past its end, each subtracted from the next
    minuend item instead.  Reading an array
    boxes every item into an int, so each vector the arithmetic builds,
    from a product, a scalar multiple or a series made from a list, is
    stored by this one pass, _SLICE values at a time."""
    out = _vector(modulus)
    values = iter(values)
    mins = None if minuend is None else chain(minuend, repeat(0))
    while True:
        head = islice(values, _SLICE)
        if mins is not None:
            head = ([m + bias - v for v, m in zip(head, mins)]
                    if modulus is None
                    else [(m - v) % modulus for v, m in zip(head, mins)])
        elif modulus is not None:
            head = ([v % modulus for v in head] if scalar == 1
                    else [scalar * v % modulus for v in head])
        elif bias:
            head = [v - bias for v in head]
        else:
            head = [scalar * v for v in head] if scalar != 1 else list(head)
        _extend(out, head)
        if len(head) < _SLICE:
            return out


def _mul_schoolbook(a, b, order, modulus, lo=0, minuend=None):
    # both operands as their nonzero (index, coefficient) pairs, so the
    # work is one step per pair of nonzero terms that lands below `order`
    terms_a = _nonzero_terms(a, order)
    terms_b = _nonzero_terms(b, order)
    if len(terms_a) > len(terms_b):
        terms_a, terms_b = terms_b, terms_a
    acc = [0] * order
    for i, ai in terms_a:
        room = order - i
        for j, bj in terms_b:
            if j >= room:
                break
            acc[i + j] += ai * bj
    if modulus is None and lo == 0 and minuend is None:
        return acc
    return _finish(islice(acc, lo, None), modulus, 0, minuend)


# schoolbook wins while the nonzero pairs number at most this many per
# product coefficient (the sparse rows of bench/multiply.py, BENCH_4.json)
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


def _decimal_operand(coeffs, start, stop, w, wide):
    """sum_{start <= i < stop} coeffs[i] 10^((i - start) w) as a Decimal,
    each coefficient a zero-padded w-digit field, written by Decimal(c)
    where `wide` (past the int/str limit).  Exact coefficients are signed:
    with a negative one among them, each field is written as c + B >= 0
    for B = -min c, and B times the repunit of the fields is subtracted
    again; an array('q') of residues is never negative and is not scanned
    for one.  The fields are written _SLICE at a time, so only a slice of
    an array is boxed at once, and the pieces are joined once: grown by
    +=, the digits of a million coefficients are copied at many appends."""
    bias = 0 if _is_words(coeffs) else max(0, -min(coeffs[start:stop]))
    pieces = []
    for hi in range(stop, start, -_SLICE):
        lo = max(start, hi - _SLICE)
        top = coeffs[hi - 1:lo - 1 if lo else None:-1]
        if bias:
            top = [c + bias for c in top]
        pieces.append("".join([str(Decimal(c)).zfill(w) for c in top])
                      if wide else ("%0" + str(w) + "d") * len(top)
                      % tuple(top))
    x = Decimal(pieces[0] if len(pieces) == 1 else "".join(pieces))
    del pieces
    if bias:
        x = _EXACT.subtract(x, _repunit(bias, w, stop - start))
    return x


class _Operand:
    """A coefficient vector or tuple that enters several products of one
    Newton division (den and its inverse x), read through this wrapper
    without a copy, with the field width of that division: in a residue
    ring every product of the division takes the width of its largest,
    h (M-1)^2 for h = ceil(order/2), and the operand keeps the encoding
    sum_{i < head} c_i 10^(iw) of the longest head it was asked for
    (`_encoded`).  Over Z each product takes the width of its own bound,
    which the products of a division seldom share, so the width is 0 and
    nothing is kept."""

    __slots__ = ("coeffs", "width", "head", "value")

    def __init__(self, coeffs, width):
        self.coeffs = coeffs
        self.width = width
        self.head = 0
        self.value = None

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, index):
        return self.coeffs[index]

    def count(self, value):
        return self.coeffs.count(value)

    def __iadd__(self, more):
        # the head keeps its coefficients, so its encoding stays valid
        self.coeffs += more
        return self


def _encoded(a, n, w, wide):
    """sum_{i < n} a[i] 10^(iw) as a Decimal.  An _Operand at width w
    encodes only the coefficients past its kept head and adds them in, and
    for a shorter head subtracts the encoded fields above n, so each
    coefficient of den and of x is written once per division.  Anything
    else, an operand at another width (over Z, any width) or a plain
    vector such as num, y or a step's error, is encoded afresh."""
    if getattr(a, "width", 0) != w:
        return _decimal_operand(getattr(a, "coeffs", a), 0, n, w, wide)
    if a.head < n:
        top = _decimal_operand(a.coeffs, a.head, n, w, wide)
        a.value = (_EXACT.add(a.value, top.scaleb(a.head * w, _EXACT))
                   if a.head else top)
        a.head = n
    if a.head > n:
        top = _decimal_operand(a.coeffs, n, a.head, w, wide)
        return _EXACT.subtract(a.value, top.scaleb(n * w, _EXACT))
    return a.value


# fields decoded per slice of a product's digit string: 128 decode as fast
# as 1024 and hold an eighth of the fields at a time (BENCH_13.json)
_DECODE_FIELDS = 128


def _field_splitter(w, k):
    """Split k consecutive w-digit fields out of bytes in one C call."""
    return struct.Struct(f"{w}s" * k).unpack


@cache
def _slice_splitter(w):
    """The splitter of a full slice, kept per field width (the suites use a
    few); one for a shorter last slice is built afresh, since a 128-field
    Struct holds 4.5 KiB and the last slices come in dozens of lengths."""
    return _field_splitter(w, _DECODE_FIELDS)


def _decode_fields(digits, w, modulus, bias, wide, minuend=None, n=0,
                   order=0):
    """The w-digit fields of `digits` from its end (the lowest field) to
    its start, stored by `_finish` with `bias` and `minuend`, then zero
    fields up to n fields in all and zero coefficients up to `order`.
    They are read _DECODE_FIELDS at a time, each slice encoded on its own,
    split into bytes fields by one struct call and parsed by int(), so the
    per-field work runs in C and no copy of the whole string is made.
    Fields too wide for int() are read through a Decimal, reduced there
    mod M first in a residue ring.  The top field may lack its leading
    zeros; only its slice is padded."""
    def slices():
        for stop in range(len(digits), 0, -w * _DECODE_FIELDS):
            chunk = digits[max(0, stop - w * _DECODE_FIELDS):stop]
            chunk = chunk.zfill(-(-len(chunk) // w) * w)
            if wide:
                fields = map(Decimal, [chunk[i - w:i]
                                       for i in range(len(chunk), 0, -w)])
                if modulus is not None:
                    m = Decimal(modulus)
                    fields = [_EXACT.remainder(f, m) for f in fields]
            else:
                k = len(chunk) // w
                split = (_slice_splitter(w) if k == _DECODE_FIELDS
                         else _field_splitter(w, k))
                fields = reversed(split(chunk.encode()))
            yield map(int, fields)
        # a zero field is -bias, and a zero coefficient is bias less bias
        count = -(-len(digits) // w)
        yield repeat(0, n - count)
        yield repeat(bias, order - max(n, count))

    return _finish(chain.from_iterable(slices()), modulus, bias, minuend)


def _mul_decimal(a, b, order, modulus, lo=0, minuend=None):
    """Coefficients lo..order-1 of a product by Kronecker substitution in
    base 10^w: each coefficient becomes a w-digit field of one integer
    Decimal, a single multiply does the whole convolution, and the fields
    of the product are its coefficients.  libmpdec multiplies long
    operands by a number-theoretic transform, asymptotically faster than
    CPython's Karatsuba, and squares faster than it multiplies.  This is
    exact integer arithmetic, not floating point (`_EXACT`).  w holds the
    field bound: min(la, lb) (M-1)^2 in a residue ring; over Z, with
    A = max |a[i]| and B = max |b[j]|, every |c[k]| is at most
    H = min(la, lb) A B, and H is added to every product field, so each
    lies in [0, 2H] and none borrows from its neighbour.  Fields past the
    int/str limit (M above about 10^2150) go through Decimal both ways."""
    la = min(len(a), order)
    lb = min(len(b), order)
    n = min(order, la + lb - 1)
    if modulus is None:
        bias_a = max(map(abs, a[:la]), default=0)
        bias_b = max(map(abs, b[:lb]), default=0)
        bias_h = min(la, lb) * bias_a * bias_b
        bound = 2 * bias_h
    else:
        bias_h = 0
        bound = min(la, lb) * (modulus - 1) * (modulus - 1)
    if not bound or lo >= n:
        return _finish(repeat(0, order - lo), modulus, 0, minuend)
    # an _Operand of a residue division asks for that division's width
    w = max(Decimal(bound).adjusted() + 1, getattr(a, "width", 0),
            getattr(b, "width", 0))
    wide = too_wide(w)
    x = _encoded(a, la, w, wide)
    y = x if b is a else _encoded(b, lb, w, wide)
    z = _EXACT.multiply(x, y)
    del x, y
    if bias_h:
        z = _EXACT.add(z, _repunit(bias_h, w, la + lb - 1))
    # only fields lo..n-1 are read, so the others are cut off before the
    # product is written out: z is nonnegative, so rounding z / 10^(kw)
    # down leaves fields k and up.  to_integral_value never signals, and
    # every call names _EXACT, since the thread's default context would
    # round to 28 digits
    if n < la + lb - 1:
        top = z.scaleb(-n * w, _EXACT).to_integral_value(ROUND_DOWN, _EXACT)
        z = _EXACT.subtract(z, top.scaleb(n * w, _EXACT))
        del top
    if lo:
        z = z.scaleb(-lo * w, _EXACT).to_integral_value(ROUND_DOWN, _EXACT)
    digits = str(z)
    del z
    return _decode_fields(digits, w, modulus, bias_h, wide, minuend, n - lo,
                          order - lo)


def too_wide(w):
    """Whether w-digit numbers, or fields with leading zeros, are past the
    interpreter's limit on int <-> str conversions (0 means none)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return 0 < limit < w


def _mul_lists(a, b, order, modulus, lo=0, minuend=None):
    """Coefficients lo..order-1 of the product of coefficient vectors; with
    a `minuend`, an iterable, its k-th item less coefficient lo + k instead
    (zero past its end), the error of a Karp-Markstein step.  Schoolbook
    convolution costs one step per pair of nonzero terms, so it takes a
    product with at most _SPARSE_PAIRS_PER_COEFF nonzero pairs per product
    coefficient, such as one pentagonal-sparse Euler factor times another,
    and so every product below order 17; every other product, over Z or in
    a residue ring, goes through `_mul_decimal`."""
    if _sparse_pairs(a, b, order):
        return _mul_schoolbook(a, b, order, modulus, lo, minuend)
    return _mul_decimal(a, b, order, modulus, lo, minuend)


def _sparse_pairs(a, b, order):
    """Whether nnz(a) nnz(b) <= _SPARSE_PAIRS_PER_COEFF order below
    `order`, each operand's nonzero entries counted once in C (a square's
    one operand once)."""
    nonzero = _nonzero_count(a, order)
    return (nonzero * (nonzero if b is a else _nonzero_count(b, order))
            <= _SPARSE_PAIRS_PER_COEFF * order)


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


# the most nonzero terms a divisor may have for the recurrence: over Z five
# times phi(-q)'s density, since Newton costs more per coefficient as the
# coefficients grow; in a residue ring 32, which keeps phi(-q) mod 4 on
# Newton past order 1024.  No one limit wins every division row
# (BENCH_25.json)
_SPARSE_DIVISOR_SCALE = 10
_SPARSE_DIVISOR_TERMS_RESIDUE = 32
# quotient coefficients per block of the recurrence, and the fewest terms
# of one coefficient of den whose slices it sums (measured, BENCH_25.json)
_DIVISION_BLOCK = 32
_DIVISION_GROUP = 12


def _divide_sparse(num, den, order, modulus, known=()):
    """num/den from den[0] y[n] = num[n] - sum_{i>=1} den[i] y[n-i], given
    a unit constant term, with no inverse and no product formed, a block of
    _DIVISION_BLOCK coefficients of y at a time.  A den[i] with i of a
    block or more, whose y[n-i] all lie below the block, adds den[i] times
    the slice y[n0-i:n1-i] to it; once _DIVISION_GROUP such terms share a
    coefficient (as phi(-q)'s +-2 do), their slices are summed elementwise
    in C and the sum is scaled once.  Every other term, such as each of
    f_1^3's over Z, which are all distinct, takes one interpreted step per
    coefficient.  Each block reads only earlier y, so the recurrence
    starts after `known`, a head of the quotient taken as given."""
    inv0 = _unit_inverse(den, modulus)
    steps = _nonzero_terms(den, order)[1:]
    offsets = {}
    for i, c in steps:
        if i >= _DIVISION_BLOCK:
            offsets.setdefault(c, []).append(i)
    groups = [(c, ii) for c, ii in offsets.items()
              if len(ii) >= _DIVISION_GROUP]
    # a list, which the loop reads faster than an array
    y = list(known[:order])
    nums = chain(islice(num, len(y), None), repeat(0))
    # up to the first group's _DIVISION_GROUP-th offset, one block
    first = min((ii[_DIVISION_GROUP - 1] for _, ii in groups), default=order)
    summed = {}  # coefficient -> how many of its offsets left the steps
    n0 = len(y)
    while n0 < order:
        n1 = min(max(n0 + _DIVISION_BLOCK, first), order)
        reads = []
        for c, ii in groups:
            k = bisect_right(ii, n0)
            if k >= _DIVISION_GROUP:
                for i in ii[summed.get(c, 0):k]:
                    del steps[bisect_left(steps, (i,))]
                summed[c] = k
                reads.append(map(mul, repeat(-c), map(sum, zip(
                    *[y[n0 - i:n1 - i] for i in ii[:k]]))))
        for n, acc in zip(range(n0, n1),
                          map(sum, zip(nums, *reads)) if reads else nums):
            for i, c in steps:
                if i > n:
                    break
                acc -= c * y[n - i]
            y.append(acc * inv0 if modulus is None else acc * inv0 % modulus)
        n0 = n1
    return y if modulus is None else _vector(modulus, y)


def _divide_newton(num, den, order, modulus):
    """num/den, given a unit constant term in den, by halves (Brent and
    Zimmermann, Modern Computer Arithmetic, 4.2): 1/den to h = ceil(order/2)
    is this division with num None (one), and one Karp-Markstein step
    finishes the quotient from that half inverse x.  y = num x is right
    below h, num - den y is q^h times an error e below order, so the step
    reads only coefficients h and up of den y, and y + q^h x e is the
    quotient; with num one, y is x and the step is Newton's x(2 - den x).
    The precisions are ceil(order/2^k), built down from the target, so no
    step pays a product of the full order to add a few coefficients past a
    power of two, and neither a full-length Newton step nor the order-long
    product of num and the inverse is formed.  With num None the inverse
    comes back as an `_Operand`, whose encoding a residue division goes on
    using.  A known head of the quotient would not help: continuing would
    still need a fresh inverse to the full order."""
    if not isinstance(den, _Operand):
        den = _Operand(den, 0 if modulus is None else Decimal(
            -(-order // 2) * (modulus - 1) ** 2).adjusted() + 1)
    if order <= 1:
        x = _Operand(_vector(modulus, (_unit_inverse(den, modulus),)),
                     den.width)
        return x if num is None else _mul_lists(num, x, order, modulus)
    h = -(-order // 2)
    x = _divide_newton(None, den, h, modulus)
    y = x if num is None else _mul_lists(num, x, h, modulus)
    # e is decoded from den y as its fields are read, with no den y stored;
    # num is read from h on through an iterator, so no slice of it is held.
    # den's encoding is dropped with den once the outermost den y is formed
    err = _mul_lists(den, y, order, modulus, lo=h,
                     minuend=() if num is None else islice(num, h, order))
    del den
    y += _mul_lists(x, err, order - h, modulus)
    return y


def _divide_list(num, den, order, modulus, known=()):
    """num/den truncated to `order` coefficients, given a unit constant
    term in den: by the recurrence (`_divide_sparse`), continued after
    `known`, a head of the quotient, when den has at most 10 sqrt(order)
    nonzero terms over Z or 32 in a residue ring, such as phi(-q) with
    about 2 sqrt(order), its nonzero terms counted once in C; otherwise by
    `_divide_newton`, which ignores the head."""
    if order <= 0:
        return _vector(modulus)
    limit = (_SPARSE_DIVISOR_SCALE * isqrt(order) if modulus is None
             else _SPARSE_DIVISOR_TERMS_RESIDUE)
    if _nonzero_count(den, order) <= limit:
        return _divide_sparse(num, den, order, modulus, known)
    return _divide_newton(num, den, order, modulus)


class TruncSeries:
    """A power series truncated at q^order over Z or Z/MZ."""

    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs, modulus=None):
        if modulus is not None and modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        self.coeffs = (tuple(coeffs) if modulus is None
                       else _kept(_finish(coeffs, modulus), modulus))
        self.modulus = modulus

    @classmethod
    def _reduced(cls, coeffs, modulus) -> "TruncSeries":
        """A series from coefficients already in the domain (reduced into
        [0, M) for a residue ring), without checking or reducing them."""
        out = object.__new__(cls)
        out.coeffs = _kept(coeffs, modulus)
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
        return hash((self.modulus, tuple(self.coeffs)))

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
        return TruncSeries(map(add, self.coeffs, other.coeffs), self.modulus)

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_domain(other)
        return TruncSeries(map(sub, self.coeffs, other.coeffs), self.modulus)

    def __neg__(self):
        return TruncSeries(map(neg, self.coeffs), self.modulus)

    def __mul__(self, other):
        if isinstance(other, int):
            # `_finish` stores the scaled vector a slice at a time, so no
            # unreduced copy is held beside the result
            return TruncSeries._reduced(
                _finish(self.coeffs, self.modulus, scalar=other), self.modulus)
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

    def invert(self, times=None, known=()) -> "TruncSeries":
        """Multiplicative inverse, or with `times` the quotient times/self,
        formed by one division without the inverse; the constant term must
        be a unit.  `known`, a head of the result's coefficients, is where
        a sparse division continues from (see `_divide_list`)."""
        if times is None:
            num, n = (1,), self.order
        else:
            self._check_domain(times)
            num, n = times.coeffs, min(self.order, times.order)
        return TruncSeries._reduced(
            _divide_list(num, self.coeffs, n, self.modulus, known),
            self.modulus)

    def inflate(self, m: int, order=None) -> "TruncSeries":
        """Substitute q -> q^m.  The result is known to order m*T, every
        coefficient there being either a[j] at index m*j or zero."""
        if m < 1:
            raise ValueError(f"inflation step must be >= 1, got {m}")
        n = m * self.order if order is None else min(order, m * self.order)
        out = _vector(self.modulus, (0,)) * n
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
            zeros = _kept(_vector(self.modulus, (0,)) * k, self.modulus)
            return TruncSeries._reduced(zeros + self.coeffs, self.modulus)
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
        return not any(self.coeffs)


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
    `exponent` (negative exponents invert), from the pentagonal number
    theorem f_1 = sum_k (-1)^k q^(k(3k-1)/2) over all integers k, with
    O(sqrt(order/step)) nonzero terms, laid down by `_theta` and then
    raised to the power."""
    if step < 1:
        raise ValueError(f"Euler factor step must be >= 1, got {step}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    # q^0, then q^(step k(3k-1)/2) and q^(step k(3k+1)/2) with sign
    # (-1)^k for k = 1, 2, ...: the gaps between these indices are step
    # times 2k - 1 and k, summed in C
    gaps = chain.from_iterable(zip(count(step, 2 * step), count(step, step)))
    return _theta(order, modulus, zip(accumulate(gaps, initial=0), chain(
        (1,), cycle((-1, -1, 1, 1))))) ** exponent


def eta_product(exponents: dict, order: int, modulus=None,
                scalar: int = 1, known=()) -> TruncSeries:
    """scalar * prod_d f_d^(r_d) for the map {d: r_d}, to the given order;
    every eta product of the package is built here.

    In Z/M the product is expanded modulo M/gcd(scalar, M), since
    scalar * P mod M depends on nothing more of P, and scaled back: the 3n
    body mod 46656 for 186624, the level-18 Sturm quotient (scalar 36) mod
    27 for 243; it is zero when M divides the scalar.  Modulo a prime
    power, that ring's or M's, the map is first lowered by the binomial
    congruence (`binomial_reduce`): mod 243 the Sturm quotient
    f1^237 f2^3 f3^-79 f6^3 becomes f1^-6 f2^3 f3^2 f6^3, and mod 2 the
    PDO_t map becomes f24; a map that reduces to nothing gives one.  With
    g the gcd of the remaining steps, the product is the order-ceil(order/g)
    expansion for the steps d/g, inflated by g.

    Each factor of the plan (`_eta_factors`) is its base series raised to
    |r| (one power per base and |r|, at the largest order any step needs),
    truncated to ceil(order/d) and inflated by d.  The factors with r > 0
    are multiplied together, and so are those with r < 0; the first
    product (one, when there are none) is divided by the second once
    (`_divide_list`), and not at all when there is no r < 0.  So the
    PDO_t series q f2 f3^2 f12^2/(f1^2 f6) is q phi(-q^3) f12^2 divided by
    the sparse phi(-q) in one recurrence, and its 3n progression
    4q f2 f4^2 f6^3/f1^4 is 4q psi(q^2) f6^3/phi(-q)^2, or mod 32 the
    product 4q psi(q^2) f6^3 phi(-q)^2 with no division at all.
    `known`, a head of this very result (say a shorter expansion of the
    same map), lets a sparse divisor's recurrence continue after it.  It
    is used only where it is the quotient's own head: not with a scalar,
    nor when the steps share a factor, nor by Newton division; there, and
    when it is empty, the expansion starts from nothing.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    ring, steps = _eta_ring(exponents, modulus, scalar)
    if steps is None:
        return TruncSeries.zero(order, modulus)
    body = _eta_body(steps, order, ring, known if scalar == 1 else ())
    if scalar == 1:
        return body
    return TruncSeries._reduced(_finish(body.coeffs, modulus, scalar=scalar),
                                modulus)


def _eta_ring(exponents: dict, modulus, scalar: int):
    """(ring, map) of scalar * prod_d f_d^(r_d) mod `modulus`: the modulus
    its body is expanded modulo (None over Z) and the map that
    `binomial_reduce` leaves there, or None for the map when the product
    is zero (see `eta_product`).  In Z/2^a a map with every |r_d| <= 2^(a+1)
    whose own plan needs no division is kept as it is when the reduced
    one's would: mod 2 the 3n map's plan drops phi(-q)^-2 and keeps
    psi(q^2) = f4^2/f2, which the reduction takes to f8/f2.  The bound
    keeps out a huge exponent, which only the reduction makes cheap."""
    steps = {d: r for d, r in exponents.items() if r}
    for d in steps:
        if d < 1:
            raise ValueError(f"Euler factor step must be >= 1, got {d}")
    ring = None if modulus is None else modulus // gcd(scalar, modulus)
    if not scalar or ring == 1:
        return ring, None
    reduced = binomial_reduce(steps, ring)
    if (ring is not None and not ring & (ring - 1)
            and all(abs(r) <= 2 * ring for r in steps.values())
            and _divides(reduced, ring) and not _divides(steps, ring)):
        return ring, steps
    return ring, reduced


def _divides(steps: dict, modulus) -> bool:
    """Whether the factor plan of this map in Z/modulus divides."""
    return any(r < 0 for *_, r in _eta_factors(steps, modulus))


def eta_divides(exponents: dict, modulus=None, scalar: int = 1) -> bool:
    """Whether `eta_product` of this map, scalar and modulus divides at
    any order: whether its factor plan (`_eta_factors`) keeps a negative
    exponent."""
    ring, steps = _eta_ring(exponents, modulus, scalar)
    return steps is not None and _divides(steps, ring)


# a division costs about this many full products of its order: at order
# 38340 mod 46656 (the 3n series to 38341 terms mod 186624) the Newton
# division by phi(-q)^2 took 260 ms and one full product of its width
# 96 ms; timed again on a 2-core VM (Python 3.11), 153-160 ms against
# 59-60 ms
_DIVISION_COST = 3


def eta_cost(exponents: dict, order: int, modulus: int,
             scalar: int = 1) -> int:
    """An estimate of the work of `eta_product` of this map to `order` in
    a residue ring: the coefficients times the digits (from logarithms,
    so a huge ring is not written out) of the field ceil(order/2) (R-1)^2
    of its ring Z/R, the width every product of a Newton division takes
    (`_divide_newton`), times _DIVISION_COST when it divides
    (`eta_divides`); 0 when the product is zero."""
    ring, steps = _eta_ring(exponents, modulus, scalar)
    if steps is None or order < 1:
        return 0
    digits = floor(log10(-(-order // 2)) + 2 * log10(ring - 1)) + 1
    return order * digits * (_DIVISION_COST if _divides(steps, ring) else 1)


def _eta_factors(steps: dict, modulus) -> list:
    """The factor plan of prod_d f_d^(r_d) in Z/modulus (over Z for None),
    for a map of nonzero exponents on valid steps: (base, d, r) for each
    factor base(q^d)^r, the product divides when some r < 0.

    Theta factors come first: Ramanujan's phi(-q) = f_1^2/f_2 and
    psi(q) = f_2^2/f_1 (Berndt, Ramanujan's Notebooks, Part III, Entry 22)
    have only about 2 sqrt(order) and sqrt(2 order) nonzero terms.  In
    ascending order, a step d whose partner 2d is unused pairs with it:
    f_d^(r_d) f_2d^(r_2d) is phi(-q^d)^(-r_2d) when r_d = -2 r_2d, and
    psi(q^d)^(-r_d) when r_2d = -2 r_d.  Failing both, an even r_d whose
    partner has the opposite sign becomes phi(-q^d)^(r_d/2), and step 2d
    keeps r_2d + r_d/2 for its own turn, where it can still pair with 4d.
    Every other step is f_d^(r_d), planned as (jacobi_cube, d, r_d/3),
    the sparse f_1^3 of Jacobi's identity, when 3 divides r_d, and as
    (euler_factor, d, r_d) otherwise.

    Then the 2-adic theta-unit rule: phi(-q) == 1 (mod 2), so
    phi(-q)^(2^(a-1)) == 1 (mod 2^a), and in Z/2^a a factor phi(-q^d)^r
    with r < 0 takes the exponent r mod 2^(a-1) when that is at most |r|
    (a zero exponent drops it).  So mod 8 phi(-q)^-2 is phi(-q)^2 and mod
    4 phi(-q)^-1 is phi(-q): the 3n map mod every divisor of 32 and the
    PDO_t map mod 4 need no division.  Rings 2^a with a >= 4, and every
    other ring, keep the plan as it is."""
    factors = []
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
        elif r % 3 == 0:
            factors.append((jacobi_cube, d, r // 3))
        else:
            factors.append((euler_factor, d, r))
    if modulus is None or modulus & (modulus - 1):
        return factors
    period = modulus // 2
    units = []
    for base, d, r in factors:
        if base is phi_minus and r < 0 and r % period <= -r:
            r %= period
        if r:
            units.append((base, d, r))
    return units


def _eta_body(steps: dict, order: int, modulus, known=()) -> TruncSeries:
    """prod_d f_d^(r_d) for a map of nonzero exponents on valid steps, as
    it stands, continued after `known` if its divisor is sparse (see
    `eta_product`)."""
    g = gcd(*steps)
    if g > 1:
        body = _eta_body({d // g: r for d, r in steps.items()},
                         -(-order // g), modulus)
        return body.inflate(g, order)
    factors = _eta_factors(steps, modulus)
    lengths = {}
    for base, d, r in factors:
        key = base, abs(r)
        lengths[key] = max(lengths.get(key, 0), -(-order // d))
    # a power f_1^e is one euler_factor call, where traces count it
    powers = {(base, e): euler_factor(1, e, n, modulus)
              if base is euler_factor else base(n, modulus) ** e
              for (base, e), n in lengths.items()}

    def inflated(sign):
        return (powers[base, abs(r)].truncate(-(-order // d)).inflate(d, order)
                for base, d, r in factors if (r > 0) == sign)

    num = product(inflated(True), order, modulus)
    if all(r > 0 for _, _, r in factors):
        return num
    den = product(inflated(False), order, modulus)
    del powers
    return den.invert(times=num, known=known)


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


# the prime of a prime-power modulus is looked for by trial division up to
# this bound, so a modulus past its square with no prime factor up to it (a
# prime near 10^18, say) is left unreduced instead of taking some 10^9
# divisions; 2^k and 3^k moduli are told at the first division
_PRIME_POWER_TRIAL_BOUND = 1 << 16


def _prime_of_power(n: int):
    """p if n is a power p^a (a >= 1) of one prime that trial division up
    to _PRIME_POWER_TRIAL_BOUND finds; None if n is not one, or if it has
    no prime factor up to the bound and is past its square."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            while n % d == 0:
                n //= d
            return d if n == 1 else None
        if d == _PRIME_POWER_TRIAL_BOUND:
            return None
        d += 1
    return n if n > 1 else None


def binomial_reduce(exponents: dict, modulus=None) -> dict:
    """The exponent map {d: r_d} with each r_d brought into
    [-p^a/2, p^a/2] by f_d^(p^a) == f_pd^(p^(a-1)) (mod p^a), when the
    modulus is a power p^a of one prime; otherwise the map unchanged.
    A map with no negative exponent has each r_d brought into [0, p^a)
    instead, so a product stays a product and needs no inversion.
    Walking the steps in ascending order, r_d loses the multiple j p^a
    nearest it (the smaller |j| on a tie), or with no negative exponent the
    largest one at most r_d, and r_pd gains j p^(a-1) in time for its own
    turn.  Zero exponents are dropped.  A map with every |r_d| <= M/2 is
    returned before M is factored, and one modulo an M that
    `_prime_of_power` cannot tell is returned unreduced."""
    steps = {d: r for d, r in exponents.items() if r}
    if modulus is None or all(2 * abs(r) <= modulus for r in steps.values()):
        return steps
    p = _prime_of_power(modulus)
    if p is None:
        return steps
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


def _theta(order, modulus, terms):
    """The series to `order` whose nonzero coefficients are the (index,
    value) pairs of `terms`, an iterable in ascending index order, such as
    a theta series or a pentagonal one with O(sqrt(order)) of them: the
    zeros are laid down in C, and the pairs are read until one reaches the
    order, so the work in Python is one step per term below it."""
    out = _vector(modulus, (0,)) * order
    for i, c in terms:
        if i >= order:
            break
        out[i] = c if modulus is None else c % modulus
    return TruncSeries._reduced(out, modulus)


def phi_minus(order: int, modulus=None) -> TruncSeries:
    """Ramanujan's phi(-q) = f_1^2/f_2 written directly as its theta series
    sum over all integers k of (-1)^k q^(k^2)."""
    # k^2 is the sum of the first k odd numbers
    return _theta(order, modulus, zip(accumulate(count(1, 2), initial=0),
                                      chain((1,), cycle((-2, 2)))))


def psi(order: int, modulus=None) -> TruncSeries:
    """Ramanujan's psi(q) = f_2^2/f_1 written directly as its theta series
    sum_{n>=0} q^(n(n+1)/2)."""
    return _theta(order, modulus, zip(accumulate(count(1), initial=0),
                                      repeat(1)))


def jacobi_cube(order: int, modulus=None) -> TruncSeries:
    """f_1^3 written directly through Jacobi's identity
    f_1^3 = sum_{n>=0} (-1)^n (2n+1) q^(n(n+1)/2)."""
    return _theta(order, modulus, zip(accumulate(count(1), initial=0),
                                      map(mul, count(1, 2), cycle((1, -1)))))


def cubic_theta(order: int, modulus=None) -> TruncSeries:
    """The cubic theta series c(q) = sum over integer pairs (m, n) of
    q^(m^2 + mn + n^2); since m^2 + mn + n^2 >= (m^2 + n^2)/2, pairs with
    max(|m|, |n|) above sqrt(2*order) cannot contribute below the order."""
    out = [0] * order
    bound = isqrt(2 * order) + 1
    for m in range(-bound, bound + 1):
        for n in range(-bound, bound + 1):
            v = m * m + m * n + n * n
            if v < order:
                out[v] += 1
    return TruncSeries(out, modulus)
