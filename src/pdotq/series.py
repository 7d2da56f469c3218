"""Truncated formal power series over Z or Z/MZ, with the q-series builders
used everywhere else in this package.

A TruncSeries holds the coefficients c[0..T-1] of a series known modulo q^T.
The domain is either exact integers (modulus None) or the residue ring Z/MZ
(modulus M >= 2, coefficients normalized into [0, M)).  Arithmetic between
two series requires identical domains and truncates to the smaller order,
since nothing past that point is determined by the operands.

In Z/M with M < 2^63 every residue fits a signed 64-bit word, so the
coefficients of a series, and every vector the arithmetic below builds,
are one array('q'): 8 bytes a coefficient, where a list or tuple holds an
8-byte pointer to an int of 28 bytes or more (`_in_words` is the rule,
`_vector` makes them).  Over Z and for M >= 2^63, such as the wide fields
of `expand --mod` past the int/str limit, a series keeps a tuple and is
built in lists.  Reading an array boxes each item into an int, so passes
over one are merged: a product's fields are reduced mod M, and in a Newton
step subtracted from num, as they are decoded; schoolbook sums are reduced
as they are stored; an array operand is encoded a slice at a time, so no
full-length tuple of ints is built.  The array module is loaded with the
first residue vector.

Multiplication dispatches on the number of nonzero pairs.  Schoolbook
convolution walks only the nonzero terms of both operands, so its cost is
the count of nonzero pairs; it takes a product whose operands have at
most 16 nonzero pairs per product coefficient, such as one
pentagonal-sparse Euler factor times another, and so every product below
order 17.  Every other product, over Z or in a residue ring, uses
Kronecker substitution in base 10^w: each coefficient becomes a
zero-padded w-digit field of one integer `decimal.Decimal`, a single
multiply does the whole convolution, and the fields of the product are
the coefficients.  libmpdec multiplies long operands with a
number-theoretic transform, which is asymptotically faster than
CPython's Karatsuba.  This is still exact integer arithmetic, not
floating point: the operands are integers with exponent 0, the context
has precision MAX_PREC, and its Inexact and Rounded traps make any
result that would need rounding raise instead.
Exact coefficients are signed.  A field holds c + B with B the largest -c
of its operand, and B times the repunit of the fields is subtracted again,
so the big number carries the signed values.  After the multiply a bias
H, no smaller than any |c| of the product, is added to every field, so
each field lies in [0, 2H] and none borrows from its neighbour.
Only the fields a caller reads are written out: the product's fields
from the order up, and those below a window start, are cut off in
Decimal first (scaleb, round down, subtract, each call on the exact
context, since the thread's default one rounds to 28 digits).  The digit
string left is read in slices of 128 fields; each slice is encoded on
its own and split into its fields by one struct call, and int() parses
them, so the per-field work runs in C and no copy of the whole string is
made.
A field with more digits than the interpreter converts between int and
str (M above about 10^2150, or exact coefficients about as long) is
written from Decimal(c) and read back through a Decimal, neither of
which has that limit.
Division num/den, and inversion as the division of one, dispatches on the
domain, the order and the number of nonzero terms of den.  A sparse den,
such as phi(-q) with about 2 sqrt(order) nonzero terms, is divided out by
the recurrence den[0] y[n] = num[n] - sum_{i>=1} den[i] y[n-i], with no
inverse and no product formed, a block of 32 coefficients of y at a time.
A den[i] with i of a block or more, whose y[n-i] all lie below the
block, adds den[i] times the slice y[n0-i:n1-i] to it; once 12 such
terms share a coefficient (as phi(-q)'s +-2 do), their slices are summed
elementwise in C and the sum is scaled once.  Every other nonzero den[i],
such as each of f_1^3's over Z, which are all distinct, takes one
interpreted step per coefficient.  Each block reads only earlier y, so
given a known head of the quotient (a shorter expansion of the same
series, `eta_product`'s `known`) the recurrence continues after it and
pays only for the new coefficients.  A den with more than 10 sqrt(order)
nonzero terms over Z, or 32 in a residue ring, would make that slower
than Newton division, which goes by halves: 1/den to
h = ceil(order/2) is the division of one to h, and one Karp-Markstein
step finishes the quotient from it.  With x that half inverse, y = num x
to h, and num - den y is q^h times an error e below order, so the step
reads only coefficients h and up of den y (the product decodes no field
below them), and y + q^h x e is the quotient.  With num one, y is x and
the step is Newton's x(2 - den x), which doubles the correct precision.
So the precisions are ceil(order/2^k), built down from the target (Brent
and Zimmermann, Modern Computer Arithmetic, 4.2): each step takes the
inverse, at the last the quotient, from ceil(p/2) to p coefficients with
two products, none pays a product of the full order to add a few
coefficients past a power of two, and neither a full-length Newton step
nor the order-length product of num and the inverse is formed.
Newton division ignores a known head: continuing it would still need a
fresh inverse to the full order.
In a residue ring every product of one division takes fields of one width,
that of its largest product, h (M-1)^2, and den and x, which enter several
products, keep their encodings (`_Operand`).  Each step reads a longer
head of den and of x; only the coefficients past the encoded head are
written and added in, in Decimal, so each coefficient of den and of x is
encoded once per division, and a head one field shorter is the encoding
less its top field.  Only num, y and each step's error are written once
for their one product.  Over Z each product takes the width of its own
bound, which the products of a division seldom share, so nothing is kept
and each product encodes its operands afresh.  A square encodes its one
operand once, and libmpdec squares faster than it multiplies.

Every eta product s prod f_d^(r_d) is built by `eta_product`.  In Z/M,
s P mod M depends only on P mod M/gcd(s, M), so P is expanded in that
smaller ring and scaled back: the 3n body below mod 46656 for 186624, the
level-18 Sturm quotient (s = 36) mod 27 for 243 and the level-36 one
(s = 6) mod 81, each companion 2^a 3^b q prod f_d^(r_d) mod M/3^b, and
nothing at all when M divides s.  Modulo a power p^a of one prime, M's
or the smaller ring's, it first lowers the exponents by the binomial
congruence (1 - x)^(p^a) == (1 - x^p)^(p^(a-1)) (mod p^a), so
f_d^(p^a) == f_pd^(p^(a-1)): walking the steps in ascending order, r_d
loses the multiple j p^a nearest it (the smaller |j| on a tie), or the
largest one below it when no exponent is negative, so a product never
becomes a quotient, and r_pd gains j p^(a-1) (`binomial_reduce`).
Modulo 243 the Sturm quotient
f1^237 f2^3 f3^-79 f6^3 becomes f1^-6 f2^3 f3^2 f6^3, and modulo 2 the
PDO_t map becomes f24.  Over Z and modulo a composite nothing changes,
nor modulo an M past 2^32 with no prime factor up to 2^16, which is not
factored (`_prime_of_power`).
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

import struct
import sys
from bisect import bisect_left, bisect_right
from decimal import (
    MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_DOWN, Context, Decimal, Inexact,
    Rounded,
)
from functools import cache
from itertools import chain, islice, repeat
from math import gcd, isqrt
from operator import mul


class DomainMismatchError(ValueError):
    """Arithmetic attempted between series over different coefficient rings."""


class NotInvertibleError(ValueError):
    """Series inversion attempted when the constant term is not a unit."""


# residues mod M < 2^63 fit a signed machine word
_WORD_MODULI = 1 << 63
# a vector of machine words is encoded, and filled from Python ints, this
# many coefficients at a time, so that no full-length list or tuple of ints
# is built
_SLICE = 1024


def _in_words(modulus):
    """Whether vectors of residues mod `modulus` are kept as array('q'):
    in Z/M with M < 2^63, never over Z (modulus None)."""
    return modulus is not None and modulus < _WORD_MODULI


# the array type, imported with the first residue vector, so that work over
# Z never loads the module
_array = None


def _vector(modulus, values=()):
    """A new coefficient vector holding `values`: an array('q') of machine
    words where `_in_words`, a list of ints otherwise."""
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


def _finish(out, values, modulus, bias, mins):
    """Append each of `values` to `out`, less the bias and reduced mod M
    (over Z, modulus None, not reduced); with `mins`, an iterator, append
    next(mins) less each instead.  The values of a product are reduced,
    or subtracted, as they are stored, in one pass."""
    if mins is not None:
        values = ([m + bias - v for v, m in zip(values, mins)]
                  if modulus is None
                  else [(m - v) % modulus for v, m in zip(values, mins)])
    elif modulus is not None:
        values = [v % modulus for v in values]
    elif bias:
        values = [v - bias for v in values]
    _extend(out, values)


def _scaled(coeffs, scalar, modulus):
    """scalar times each of `coeffs` as a new vector, reduced mod M, a
    slice at a time."""
    out = _vector(modulus)
    for start in range(0, len(coeffs), _SLICE):
        values = coeffs[start:start + _SLICE]
        if modulus is not None:
            values = ([c % modulus for c in values] if scalar == 1
                      else [scalar * c % modulus for c in values])
        elif scalar != 1:
            values = [scalar * c for c in values]
        _extend(out, values)
    return out


def _sparse(terms, order, modulus):
    """The series to `order` whose coefficient i is terms[i], zero where
    `terms` has none: the zeros are laid down in C, so the work in Python
    is one step per term."""
    out = _vector(modulus, (0,)) * order
    for i, c in terms.items():
        if i < order:
            out[i] = c if modulus is None else c % modulus
    return TruncSeries._reduced(out, modulus)


def _minuend(minuend):
    """The iterator `_finish` reads a minuend from, zeros past its end."""
    return None if minuend is None else chain(minuend, repeat(0))


def _mul_schoolbook(a, b, order, modulus, lo=0, minuend=None):
    # both operands as their nonzero (index, coefficient) pairs, so the
    # work is one step per pair of nonzero terms that lands below `order`;
    # the sums are reduced as they are stored, a slice at a time
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
    out = _vector(modulus)
    mins = _minuend(minuend)
    for start in range(lo, order, _SLICE):
        _finish(out, acc[start:start + _SLICE], modulus, 0, mins)
    return out


# schoolbook wins while the nonzero pairs number at most this many per
# product coefficient (the sparse rows of bench/multiply.py); below order
# 17 every product qualifies, since there nnz(a) nnz(b) <= order^2
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
    """sum_{start <= i < stop} coeffs[i] 10^((i - start) w) as a Decimal.
    With a negative coefficient among them, each field is written as
    c + B >= 0 for B = -min c, and B times the repunit of the fields is
    subtracted again.  An array('q'), whose residues are never negative,
    is written a slice at a time, so only a slice of it is boxed at once;
    a list or tuple in one piece.  The pieces are joined once: grown by +=,
    the digits of a million coefficients are copied at many of the
    appends."""
    n = stop - start
    words = _is_words(coeffs)
    bias = 0 if words else max(0, -min(coeffs[start:stop]))
    pieces = []
    for hi in range(stop, start, -_SLICE if words else -n):
        lo = max(start, hi - _SLICE) if words else start
        top = coeffs[hi - 1:lo - 1 if lo else None:-1]
        if bias:
            top = [c + bias for c in top]
        pieces.append("".join([str(Decimal(c)).zfill(w) for c in top])
                      if wide else ("%0" + str(w) + "d") * len(top)
                      % tuple(top))
        del top
    x = Decimal(pieces[0] if len(pieces) == 1 else "".join(pieces))
    del pieces
    if bias:
        x = _EXACT.subtract(x, _repunit(bias, w, n))
    return x


class _Operand:
    """A coefficient vector or tuple that enters several products of one
    division, read through this wrapper without a copy, and the field
    width of that division (`_division_floor`).  In a residue ring every
    product of the division takes fields of that width, and the operand
    keeps the Kronecker encoding sum_{i < head} c_i 10^(iw) of its head
    (`_encoded`); over Z the width is 0, none, and nothing is kept."""

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


def _division_floor(order, modulus):
    """The field width of the largest product of a Newton division to
    `order` in Z/M, with ceil(order/2) coefficients in its shorter
    operand, which every product of the division takes; 0 over Z."""
    if modulus is None:
        return 0
    return Decimal(-(-order // 2) * (modulus - 1) ** 2).adjusted() + 1


def _encoded(a, n, w, wide):
    """sum_{i < n} a[i] 10^(iw) as a Decimal.  An _Operand keeps this for
    its head at the width of its residue division: a longer head encodes
    only the coefficients past it and adds them in, and a shorter one
    subtracts the encoded fields above n, so each coefficient is written
    once per division.  Anything else, an operand at another width (over
    Z, any width) or a plain vector, is encoded afresh."""
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


# fields decoded per slice of the product's digit string: each slice is
# encoded on its own and split by one struct call, so no copy of the whole
# string is made.  Slices of 128 decode as fast as slices of 1024 (57,508
# fields of 16 digits in about 19 ms either way on a 2-core VM, against
# 32 ms field by field) and hold an eighth of the fields at a time
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


def _decode_fields(digits, w, modulus, bias, wide, mins=None):
    """The w-digit fields of `digits` from its end (the lowest field) to
    its start, each reduced mod M or, over Z (modulus None), less the
    bias; with `mins` (see `_finish`), each subtracted from the next
    minuend instead.  They are read in slices of _DECODE_FIELDS, each
    slice encoded on its own, split into bytes fields by one struct call,
    parsed by int() and stored.  Fields too wide for int() are read
    through a Decimal, reduced there mod M first in a residue ring.  The
    top field may lack its leading zeros; only its slice is padded."""
    out = _vector(modulus)
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
        _finish(out, map(int, fields), modulus, bias, mins)
    return out


def _mul_decimal(a, b, order, modulus, lo=0, minuend=None):
    # Kronecker substitution in base 10^w, with w the digits of the field
    # bound.  Residue coefficients lie in [0, M), so the bound is
    # min(la, lb) (M-1)^2.  Over Z, with A = max |a[i]| and
    # B = max |b[j]|, every |c[k]| is at most H = min(la, lb) A B, and H is
    # added to every product field, so each lies in [0, 2H].  Each
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
        out = _vector(modulus)
        _finish(out, repeat(0, order - lo), modulus, 0, _minuend(minuend))
        return out
    # every field, of an operand or of the product, is at most `bound`;
    # an _Operand of a residue division asks for that division's width
    w = max(Decimal(bound).adjusted() + 1, getattr(a, "width", 0),
            getattr(b, "width", 0))
    wide = too_wide(w)
    x = _encoded(a, la, w, wide)
    # a square is encoded once, and libmpdec squares one operand faster
    # than it multiplies two equal ones
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
    # the fields above the leading digit of z are zero and are not written
    # out; they are read as zero fields, and those from n up as zeros
    digits = str(z)
    del z
    mins = _minuend(minuend)
    out = _decode_fields(digits, w, modulus, bias_h, wide, mins)
    del digits
    _finish(out, repeat(0, n - lo - len(out)), modulus, bias_h, mins)
    _finish(out, repeat(0, order - n), modulus, 0, mins)
    return out


def too_wide(w):
    """Whether w-digit numbers, or fields with leading zeros, are past the
    interpreter's limit on int <-> str conversions (0 means none)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return 0 < limit < w


def _mul_lists(a, b, order, modulus, lo=0, minuend=None):
    """Coefficients lo..order-1 of the product of coefficient vectors; with
    a `minuend`, an iterable, its k-th item less coefficient lo + k instead
    (zero past its end), the error of a Karp-Markstein step."""
    if _sparse_pairs(a, b, order):
        return _mul_schoolbook(a, b, order, modulus, lo, minuend)
    return _mul_decimal(a, b, order, modulus, lo, minuend)


def _sparse_pairs(a, b, order):
    """Whether nnz(a) nnz(b) <= _SPARSE_PAIRS_PER_COEFF order below
    `order`.  The heads of 16 sqrt(order) coefficients are counted first:
    operands denser than a quarter already pass the bound there, and
    every other pair is counted in full, a square's operand once."""
    bound = _SPARSE_PAIRS_PER_COEFF * order
    head = 16 * isqrt(order) + 16
    if head < order and (_nonzero_count(a, head) * _nonzero_count(b, head)
                         > bound):
        return False
    nonzero = _nonzero_count(a, order)
    return nonzero * (nonzero if b is a else _nonzero_count(b, order)) <= bound


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


# the most nonzero terms a denominator may have for the recurrence.  Over Z
# the limit is 10 sqrt(order), five times the density of phi(-q), since
# Newton inversion and the Karp-Markstein step cost more per coefficient as
# the order and the coefficients grow.  In the division rows of
# bench/multiply.py (BENCH_25.json) the blocked recurrence beats Newton
# 3-6x on the rows of up to 143 terms at 3535 and 7600, and loses from
# 258 terms at 500, 482 at 1000 and 1540 at 3535; the rule takes Newton
# only near a tie: f1^6 at 250 (153 terms; 3.2 ms against 3.5) and
# phi(-q)^2 at 1000 (330; 18 ms both ways) and 3535 (1047; 125 against
# 138).  In a residue ring the product stays cheap: mod 32 and 256 the
# recurrence wins on phi(-q) at 60 terms at 3535 and ties at 88 at 7600,
# but mod 4, where Newton's iterates for phi(-q) stay sparse, it loses
# from 32 terms at 1000 (2.0 ms against 1.3) and 2x at 3535.  No one limit
# is as fast on every row; 32 keeps phi(-q) mod 4 off it past order 1024.
_SPARSE_DIVISOR_SCALE = 10
_SPARSE_DIVISOR_TERMS_RESIDUE = 32
# quotient coefficients per block of the recurrence, and the fewest terms
# of one coefficient of den whose slices it sums (measured, BENCH_25.json)
_DIVISION_BLOCK = 32
_DIVISION_GROUP = 12


def _divide_sparse(num, den, order, modulus, known=()):
    """num/den from den[0] y[n] = num[n] - sum_{i>=1} den[i] y[n-i], given
    a unit constant term, a block of y at a time (see the module
    docstring).  The recurrence reads only earlier y, so it starts after
    `known`, a head of the quotient taken as given."""
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
    """num/den by one Karp-Markstein step on 1/den to half the order, which
    is this division with num None (one), given a unit constant term in
    den.  With num None the step is Newton's x(2 - den x), and the inverse
    comes back as an `_Operand`, whose encoding a residue division goes on
    using."""
    # x and y = num x are right below h >= order - h, so below order
    # num - den y = q^h e, and y + q^h x e is right there.  den and x enter
    # more than one product, so in a residue ring each keeps its encoding,
    # and den's is dropped with den once the outermost dy is formed
    if not isinstance(den, _Operand):
        den = _Operand(den, _division_floor(order, modulus))
    if order <= 1:
        x = _Operand(_vector(modulus, (_unit_inverse(den, modulus),)),
                     den.width)
        return x if num is None else _mul_lists(num, x, order, modulus)
    h = -(-order // 2)
    x = _divide_newton(None, den, h, modulus)
    y = x if num is None else _mul_lists(num, x, h, modulus)
    # e is decoded from den y as its fields are read, with no den y stored;
    # num is read from h on through an iterator, so no slice of it is held
    err = _mul_lists(den, y, order, modulus, lo=h,
                     minuend=() if num is None else islice(num, h, order))
    del den
    y += _mul_lists(x, err, order - h, modulus)
    return y


def _divide_list(num, den, order, modulus, known=()):
    """num/den truncated to `order` coefficients, given a unit constant
    term in den: by the recurrence when den is sparse, continued after
    `known`, a head of the quotient, otherwise by Newton inversion to half
    the order and one Karp-Markstein step, which ignores the head."""
    if order <= 0:
        return _vector(modulus)
    limit = (_SPARSE_DIVISOR_SCALE * isqrt(order) if modulus is None
             else _SPARSE_DIVISOR_TERMS_RESIDUE)
    # a dense den is told from a head of 4 limit coefficients
    if (_nonzero_count(den, 4 * limit) <= limit
            and _nonzero_count(den, order) <= limit):
        return _divide_sparse(num, den, order, modulus, known)
    return _divide_newton(num, den, order, modulus)


class TruncSeries:
    """A power series truncated at q^order over Z or Z/MZ."""

    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs, modulus=None):
        if modulus is not None and modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        if modulus is None:
            self.coeffs = tuple(coeffs)
        else:
            if not hasattr(coeffs, "__getitem__"):
                coeffs = list(coeffs)
            self.coeffs = _kept(_scaled(coeffs, 1, modulus), modulus)
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
            return TruncSeries._reduced(
                _scaled(self.coeffs, other, self.modulus), self.modulus)
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
    base = {0: 1}
    k = 1
    while True:
        lo = step * (k * (3 * k - 1) // 2)
        hi = step * (k * (3 * k + 1) // 2)
        if lo >= order:
            break
        base[lo] = base[hi] = 1 if k % 2 == 0 else -1
        k += 1
    return _sparse(base, order, modulus) ** exponent


def eta_product(exponents: dict, order: int, modulus=None,
                scalar: int = 1, known=()) -> TruncSeries:
    """scalar * prod_d f_d^(r_d) for the map {d: r_d}, to the given order.

    Entries with r_d = 0 are ignored.  In Z/M the product is expanded
    modulo M/gcd(scalar, M), since scalar * P mod M depends on nothing
    more of P, and scaled back into Z/M; it is zero when M divides the
    scalar.  Modulo a prime power p^a, that ring's or M's, the map is
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
    A dense divisor goes through Newton inversion and a Karp-Markstein
    step, which in a residue ring encode each coefficient of the
    divisor and of its inverse once (see the module docstring).
    `known`, a head of this very result (say a shorter expansion of the
    same map), lets a sparse divisor's recurrence continue after it.  It
    is used only where it is the quotient's own head: not with a scalar,
    nor when the steps share a factor, nor by Newton division; there, and
    when it is empty, the expansion starts from nothing.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    steps = {d: r for d, r in exponents.items() if r}
    for d in steps:
        if d < 1:
            raise ValueError(f"Euler factor step must be >= 1, got {d}")
    ring = None if modulus is None else modulus // gcd(scalar, modulus)
    if not scalar or ring == 1:
        return TruncSeries.zero(order, modulus)
    body = _eta_body(binomial_reduce(steps, ring), order, ring,
                     known if scalar == 1 else ())
    if scalar == 1:
        return body
    return TruncSeries._reduced(_scaled(body.coeffs, scalar, modulus), modulus)


def _eta_body(steps: dict, order: int, modulus, known=()) -> TruncSeries:
    """prod_d f_d^(r_d) for a map of nonzero exponents on valid steps, as
    it stands, continued after `known` if its divisor is sparse (see
    `eta_product`)."""
    g = gcd(*steps)
    if g > 1:
        body = _eta_body({d // g: r for d, r in steps.items()},
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

    The steps are walked in ascending order.  Each r_d loses j p^a, with
    j the integer nearest r_d/p^a (the smaller |j| on a tie, so
    r_d = +-p^a/2 stays), or j = floor(r_d/p^a) when no exponent is
    negative, and r_pd gains j p^(a-1), in time for its own turn.  Zero
    exponents are dropped.  Nothing is reduced over Z, modulo a composite,
    or modulo an M that `_prime_of_power` cannot tell within its bound,
    and a map with every |r_d| <= M/2 is returned before M is divided,
    since no step would change."""
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
    out = {0: 1}
    k = 1
    while k * k < order:
        out[k * k] = -2 if k % 2 else 2
        k += 1
    return _sparse(out, order, modulus)


def psi(order: int, modulus=None) -> TruncSeries:
    """Ramanujan's psi(q) = f_2^2/f_1 written directly as its theta series
    sum_{n>=0} q^(n(n+1)/2)."""
    out = {}
    n = 0
    while n * (n + 1) // 2 < order:
        out[n * (n + 1) // 2] = 1
        n += 1
    return _sparse(out, order, modulus)


def jacobi_cube(order: int, modulus=None) -> TruncSeries:
    """f_1^3 written directly through Jacobi's identity
    f_1^3 = sum_{n>=0} (-1)^n (2n+1) q^(n(n+1)/2)."""
    out = {}
    n = 0
    while n * (n + 1) // 2 < order:
        out[n * (n + 1) // 2] = (2 * n + 1) * (1 if n % 2 == 0 else -1)
        n += 1
    return _sparse(out, order, modulus)


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
