"""Bit-packed arithmetic for polynomials over GF(2).

A polynomial is encoded as a nonnegative integer whose bit i is the
coefficient of x^i, so x^5 + x^3 + 1 is 0b101001 = 41.  The zero
polynomial is 0 and has degree -1.  Multiplication is a shift-xor loop,
squaring a byte-spread table lookup; this integer form is what keeps
exhaustive scans over 2^n coefficient masks affordable.
"""

import random


def _build_spread():
    table = []
    for byte in range(256):
        s = 0
        for i in range(8):
            if byte >> i & 1:
                s |= 1 << (2 * i)
        table.append(s)
    return tuple(table)


_SPREAD = _build_spread()
_UNSPREAD = {s: b for b, s in enumerate(_SPREAD)}


def degree(a):
    """Degree of a; -1 for the zero polynomial."""
    return a.bit_length() - 1


def mul(a, b):
    """Product of polynomials a and b."""
    if a < b:
        a, b = b, a
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def square(a):
    """Square of polynomial a (bits spread to even positions)."""
    r = 0
    shift = 0
    while a:
        r |= _SPREAD[a & 0xFF] << shift
        a >>= 8
        shift += 16
    return r


def sqrt_even(a):
    """Square root of a perfect square (only even-exponent terms)."""
    r = 0
    shift = 0
    while a:
        chunk = a & 0xFFFF
        try:
            r |= _UNSPREAD[chunk] << shift
        except KeyError:
            raise ValueError("polynomial is not a perfect square") from None
        a >>= 16
        shift += 8
    return r


def divrem(a, b):
    """Quotient and remainder of a divided by b, for nonzero b."""
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    m = a.bit_length() - 1
    n = b.bit_length() - 1
    if m < n:
        return 0, a
    b <<= m - n
    q = 0
    for i in range(m - n + 1):
        q <<= 1
        if a >> (m - i) & 1:
            a ^= b
            q |= 1
        b >>= 1
    return q, a


def mod(a, b):
    """Remainder of a modulo b, for nonzero b."""
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    m = a.bit_length() - 1
    n = b.bit_length() - 1
    if m < n:
        return a
    b <<= m - n
    for i in range(m - n + 1):
        if a >> (m - i) & 1:
            a ^= b
        b >>= 1
    return a


def gcd(a, b):
    """Greatest common divisor (monic for free over GF(2))."""
    while b:
        a, b = b, mod(a, b)
    return a


def derivative(a):
    """Formal derivative: odd-exponent terms shift down, the rest vanish."""
    # (1 << 2k) // 3 is 0b0101...01, the even bits below 2k
    return (a >> 1) & ((1 << 2 * a.bit_length()) // 3)


def is_irreducible(a):
    """Whether a is irreducible over GF(2); constants are not."""
    n = degree(a)
    if n <= 0:
        return False
    if n == 1:
        return True
    if not a & 1:
        return False  # divisible by x, degree >= 2
    h = 2  # the polynomial x
    for _ in range(n // 2):
        h = mod(square(h), a)
        if gcd(h ^ 2, a) != 1:
            return False
    return True


def factor(a):
    """Factor nonzero a into irreducibles, sorted ascending by mask.

    Returns a list of (irreducible mask, multiplicity) pairs whose
    product reproduces a.  Squarefree split via gcd with the derivative,
    then distinct-degree splitting and randomized equal-degree splitting
    seeded from the input mask, so output is reproducible.
    """
    if a == 0:
        raise ZeroDivisionError("cannot factor the zero polynomial")
    rng = random.Random(a)
    out = {}
    tz = (a & -a).bit_length() - 1
    if tz:
        out[2] = tz
        a >>= tz
    if a > 1:
        _factor_monic(a, out, rng)
    return sorted(out.items())


def _factor_monic(a, out, rng):
    # a has nonzero constant term
    while degree(a) >= 1:
        d = derivative(a)
        if d == 0:
            # perfect square: factor the root at doubled multiplicity
            sub = {}
            _factor_monic(sqrt_even(a), sub, rng)
            for m, e in sub.items():
                out[m] = out.get(m, 0) + 2 * e
            return
        w = divrem(a, gcd(a, d))[0]  # squarefree, odd-multiplicity factors
        for p in _distinct_factors(w, rng):
            e = 0
            while True:
                q, r = divrem(a, p)
                if r:
                    break
                a = q
                e += 1
            out[p] = out.get(p, 0) + e


def _distinct_factors(w, rng):
    # distinct irreducible factors of squarefree w with w(0) != 0
    res = []
    h = 2  # x
    d = 0
    while degree(w) > 0:
        d += 1
        if 2 * d > degree(w):
            res.append(w)
            break
        h = mod(square(h), w)
        g = gcd(h ^ 2, w)
        if g != 1:
            res.extend(_split_equal_degree(g, d, rng))
            w = divrem(w, g)[0]
            if degree(w) == 0:
                break
            h = mod(h, w)
    return res


def _split_equal_degree(g, d, rng):
    # g is a squarefree product of irreducibles, all of degree d
    out = []
    stack = [g]
    while stack:
        c = stack.pop()
        if degree(c) == d:
            out.append(c)
            continue
        while True:
            r = rng.randrange(1, 1 << degree(c))
            t = r
            u = r
            for _ in range(d - 1):
                u = mod(square(u), c)
                t ^= u
            s = gcd(t, c)
            if s != 1 and s != c:
                stack.append(s)
                stack.append(divrem(c, s)[0])
                break
    return out
