"""Bit-packed arithmetic for polynomials over GF(2).

A polynomial is encoded as a nonnegative integer whose bit i is the
coefficient of x^i, so x^5 + x^3 + 1 is 0b101001 = 41.  The zero
polynomial is 0 and has degree -1.  Multiplication is a shift-xor loop,
squaring a byte-spread table lookup.  Division, remainder and gcd reduce
by the leading bit: each step xors in the divisor shifted under the
dividend's top set bit, which clears that bit, so a step is taken per
set bit met at the top and the zero bits between them cost nothing.

The package uses three entry points: `factor`, which `ffpoly.factor_fq`
and, on member codes, `sgalg`'s verdicts and factor-route scans call for
p = 2 (the coefficient-tuple kernel's equal-degree split is for odd p
only); `mul`, the product of the p = 2 residue ring in `sgalg` and of a
verdict's witness half; and `divrem`, which divides a member by that half
for its cofactor.  The rest serves `factor`.
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
    n = b.bit_length()
    q = 0
    while (k := a.bit_length() - n) >= 0:
        a ^= b << k
        q |= 1 << k
    return q, a


def mod(a, b):
    """Remainder of a modulo b, for nonzero b."""
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    n = b.bit_length()
    while (k := a.bit_length() - n) >= 0:
        a ^= b << k
    return a


def gcd(a, b):
    """Greatest common divisor (monic for free over GF(2))."""
    while b:
        n = b.bit_length()
        while (k := a.bit_length() - n) >= 0:
            a ^= b << k
        a, b = b, a
    return a


def derivative(a):
    """Formal derivative: odd-exponent terms shift down, the rest vanish."""
    # (1 << 2k) // 3 is 0b0101...01, the even bits below 2k
    return (a >> 1) & ((1 << 2 * a.bit_length()) // 3)


def factor(a):
    """Factor nonzero a into irreducibles, sorted ascending by mask.

    Returns a list of (irreducible mask, multiplicity) pairs whose
    product reproduces a.  Squarefree split via gcd with the derivative,
    then distinct-degree splitting and randomized equal-degree splitting.
    Only a product of two or more equal-degree factors draws, from a
    generator seeded with that product's mask, so output is reproducible
    and a factorization with no such product seeds nothing.
    """
    if a == 0:
        raise ZeroDivisionError("cannot factor the zero polynomial")
    out = {}
    tz = (a & -a).bit_length() - 1
    if tz:
        out[2] = tz
        a >>= tz
    if a > 1:
        _factor_monic(a, out)
    return sorted(out.items())


def _factor_monic(a, out):
    # a has nonzero constant term
    while degree(a) >= 1:
        d = derivative(a)
        if d == 0:
            # perfect square: factor the root at doubled multiplicity
            sub = {}
            _factor_monic(sqrt_even(a), sub)
            for m, e in sub.items():
                out[m] = out.get(m, 0) + 2 * e
            return
        w = _exact(a, gcd(a, d))  # squarefree, odd-multiplicity factors
        for p in _distinct_factors(w):
            e = 0
            while True:
                q, r = divrem(a, p)
                if r:
                    break
                a = _shrunk(a, p, q)
                e += 1
            out[p] = out.get(p, 0) + e


def _exact(a, b):
    # a / b for a divisor b of a, checked by its remainder and its degree
    q, r = divrem(a, b)
    if r:
        raise ArithmeticError(
            f"a degree-{degree(b)} divisor leaves a remainder on a degree-{degree(a)} polynomial")
    return _shrunk(a, b, q)


def _shrunk(a, b, q):
    # q, the exact quotient a / b, once its degree is checked: a wrong
    # quotient would keep factor's loops on a polynomial that never shrinks
    if q.bit_length() + b.bit_length() != a.bit_length() + 1:
        raise ArithmeticError(
            f"a degree-{degree(q)} quotient of a degree-{degree(a)} polynomial "
            f"by a degree-{degree(b)} divisor")
    return q


def _distinct_factors(w):
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
            # g has degree d exactly when it is one irreducible: no split, no draws
            res.extend(_split_equal_degree(g, d, random.Random(g)) if degree(g) > d else (g,))
            w = _exact(w, g)
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
        for _ in range(64):  # a valid c fails a draw with chance < 1/2, 64 in a row: < 2^-64
            r = rng.randrange(1, 1 << degree(c))
            t = r
            u = r
            for _ in range(d - 1):
                u = mod(square(u), c)
                t ^= u
            s = gcd(t, c)
            if s != 1 and s != c:
                q = divrem(c, s)[0]
                if mul(q, s) != c:  # a wrong quotient would be split forever
                    raise ArithmeticError(
                        f"a split of a degree-{degree(c)} factor does not multiply back to it")
                stack.append(s)
                stack.append(q)
                break
        else:
            raise ArithmeticError(f"64 draws found no degree-{d} split of a degree-{degree(c)} factor")
    return out
