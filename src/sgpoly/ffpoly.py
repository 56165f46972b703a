"""Dense univariate polynomials over prime fields F_p.

The `Polynomial` value is immutable and canonically trimmed (no trailing
zero coefficients; the zero polynomial has an empty tuple and degree
`ZERO_DEGREE`).  Ring arithmetic, division, gcd and the irreducibility
test run on coefficient tuples for every p.  Only factoring over F_2
goes to the bit-packed kernel in `_gf2`, since the Cantor-Zassenhaus
split here is for odd p; for p = 2 the canonical integer encoding is the
bitmask, so `mask` and `encoding` are one integer.

The tuple kernel builds only what its callers read.  Gcds, modular
powers and the distinct-degree loop take remainders by `_rem_t`, which
builds no quotient and, for a monic divisor, multiplies by no inverse.
Each of their loops raises ArithmeticError on a remainder that is not
shorter than its divisor, and factoring raises when a factor of the
squarefree part does not divide, so a faulty division fails instead of
looping.  `_powmod_t` squares only while exponent bits remain.

Each Frobenius step h -> h^p mod w, in the distinct-degree split and the
irreducibility test, goes through `_frobenius_t`.  It takes one of two
routes to the same polynomial: h(x^p), which is h^p over F_p, reduced
mod w by one division, or the square-and-multiply ladder, whose operands
stay below deg w.  The rule picks the route that reads and writes fewer
coefficients, counted from p, deg h and deg w alone, with no tuned
constant: the division's steps grow with p * deg h, the ladder's
products with log2 p.  Up to degree 12
it substitutes for every p <= 11 and climbs the ladder for every
p >= 131; in between, low degrees substitute.  Kernel output becomes a
`Polynomial` through `_from_kernel`, which skips the digit check that
the public constructor keeps.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from . import _gf2

ZERO_DEGREE = float("-inf")  # degree sentinel for the zero polynomial

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A prime field F_p, identified by its modulus."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not _is_prime(self.p):
            raise ValueError(f"field modulus must be prime, got {self.p!r}")


@dataclass(frozen=True)
class Polynomial:
    """Element of F_p[x]: coeffs[i] is the coefficient of x^i."""

    field: FieldSpec
    coeffs: tuple[int, ...]

    def __post_init__(self):
        p = self.field.p
        coeffs = tuple(self.coeffs)
        for c in coeffs:
            if not isinstance(c, int) or not 0 <= c < p:
                raise ValueError(f"coefficient {c!r} is not a residue mod {p}")
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_ints(cls, field, ints):
        """Build from arbitrary integers, reducing each mod p."""
        p = field.p
        return cls(field, tuple(c % p for c in ints))

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c % field.p,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def monomial(cls, field, e, c=1):
        return cls(field, (0,) * e + (c % field.p,))

    @classmethod
    def from_mask(cls, field, mask):
        """Decode a GF(2) bitmask (bit i = coefficient of x^i)."""
        if field.p != 2:
            raise ValueError("bitmask form is defined for p = 2 only")
        if mask < 0:
            raise ValueError("bitmask must be nonnegative")
        return _from_kernel(field, tuple(mask >> i & 1 for i in range(mask.bit_length())))

    @classmethod
    def from_encoding(cls, field, code):
        """Decode the canonical integer encoding; the inverse of `encoding`."""
        if field.p == 2:
            return cls.from_mask(field, code)  # bit shifts beat the divmod loop
        if code < 0:
            raise ValueError("encoding must be nonnegative")
        coeffs = []
        while code:
            code, c = divmod(code, field.p)
            coeffs.append(c)
        return _from_kernel(field, tuple(coeffs))  # the top digit of a code is nonzero

    # -- queries ---------------------------------------------------------

    @property
    def degree(self):
        """Degree, or ZERO_DEGREE for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else ZERO_DEGREE

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def leading_coeff(self):
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def constant_term(self):
        return self.coeffs[0] if self.coeffs else 0

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def support(self):
        """Exponents with nonzero coefficient, ascending."""
        return tuple(i for i, c in enumerate(self.coeffs) if c)

    @property
    def mask(self):
        """GF(2) bitmask encoding (p = 2 only), which is the encoding."""
        if self.field.p != 2:
            raise ValueError("bitmask form is defined for p = 2 only")
        return self.encoding

    @property
    def encoding(self):
        """Canonical integer encoding: sum of coeffs[i] * p^i."""
        return _code_t(self.coeffs, self.field.p)

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        _check_fields(self, other)
        return Polynomial(self.field, _add_t(self.coeffs, other.coeffs, self.field.p))

    def __sub__(self, other):
        _check_fields(self, other)
        return Polynomial(self.field, _add_t(self.coeffs, _neg_t(other.coeffs, self.field.p), self.field.p))

    def __neg__(self):
        return Polynomial(self.field, _neg_t(self.coeffs, self.field.p))

    def __mul__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.field, other)
        _check_fields(self, other)
        return Polynomial(self.field, _mul_t(self.coeffs, other.coeffs, self.field.p))

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other):
        return poly_divrem(self, other)

    def __floordiv__(self, other):
        return poly_divrem(self, other)[0]

    def __mod__(self, other):
        return poly_divrem(self, other)[1]

    def monic(self):
        """Scale by the inverse of the leading coefficient."""
        if self.is_zero:
            raise ValueError("the zero polynomial has no monic form")
        lc = self.leading_coeff
        if lc == 1:
            return self
        return self * pow(lc, -1, self.field.p)

    def __str__(self):
        return format_poly(self)


def _check_fields(a, b):
    if a.field != b.field:
        raise ValueError(f"field mismatch: F_{a.field.p} vs F_{b.field.p}")


def _from_kernel(field, coeffs):
    # a Polynomial of coefficient tuple coeffs, which is trimmed and holds
    # residues mod p: the constructor's check is skipped, not repeated
    f = object.__new__(Polynomial)
    vars(f).update(field=field, coeffs=coeffs)
    return f


# -- coefficient-tuple kernel ----------------------------------------------


def _code_t(a, p):
    # the canonical integer encoding of coefficient tuple a
    e = 0
    for c in reversed(a):
        e = e * p + c
    return e


def _trim(seq):
    n = len(seq)
    while n and seq[n - 1] == 0:
        n -= 1
    return tuple(seq[:n])


def _add_t(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _trim(out)


def _neg_t(a, p):
    return tuple((-c) % p for c in a)


def _mul_t(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _trim(out)


def _divrem_t(a, b, p):
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if len(a) < len(b):
        return (), _trim(a)
    rem = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + db] * inv % p
        if c:
            q[i] = c
            for j, cb in enumerate(b):
                rem[i + j] = (rem[i + j] - c * cb) % p
    return _trim(q), _trim(rem[:db])


def _rem_t(a, b, p):
    # _divrem_t(a, b, p)[1] with no quotient, and no inverse for monic b
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    db = len(b) - 1
    if len(a) <= db:
        return _trim(a)
    rem = list(a)
    inv = pow(b[-1], -1, p) if b[-1] != 1 else 1
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i] if inv == 1 else rem[i] * inv % p
        if c:
            k = i - db
            for j in range(db):
                rem[k + j] = (rem[k + j] - c * b[j]) % p
    return _trim(rem[:db])


def _reduced(r, m):
    # remainder r by divisor m, checked shorter than m by each loop that
    # takes it, so a faulty division raises there instead of feeding the
    # loop a polynomial that never shrinks
    if len(r) >= len(m):
        raise ArithmeticError(f"a remainder of degree {len(r) - 1} by a degree-{len(m) - 1} divisor")
    return r


def _gcd_t(a, b, p):
    while b:
        a, b = b, _reduced(_rem_t(a, b, p), b)
    return a


def _monic_t(a, p):
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def _powmod_t(a, e, m, p):
    r = (1,)
    a = _rem_t(a, m, p)
    while e:
        if e & 1:
            r = _reduced(_rem_t(_mul_t(r, a, p), m, p), m)
        e >>= 1
        if e:  # no square after the top bit
            a = _reduced(_rem_t(_mul_t(a, a, p), m, p), m)
    return r


def _rem_ops(n, dw):
    # coefficients _rem_t reads or writes on n of them by a monic degree-dw
    # divisor: the copy, one read and dw updates a step, the dw left
    return n + (n - dw) * (dw + 1) + dw if n > dw else n


def _ladder_ops(dh, dw, p):
    # coefficients _powmod_t(h, p, w, p) reads or writes, deg h = dh < deg w
    # = dw: on lengths i and j, a product reads i * j + i and writes its
    # i + j - 1 zeros and then its trim, and _rem_t reduces it
    ops, r, a, e = 0, 1, dh + 1, p
    while e:
        if e & 1:
            n = r + a - 1
            ops += r * a + r + 2 * n + _rem_ops(n, dw)
            r = min(n, dw)
        e >>= 1
        if e:
            n = 2 * a - 1
            ops += a * a + a + 2 * n + _rem_ops(n, dw)
            a = min(n, dw)
    return ops


def _substitutes(dh, dw, p):
    # whether h(x^p) mod w reads and writes no more coefficients than the
    # ladder: the p * dh + 1 of h(x^p) written, then reduced
    n = p * dh + 1
    return n + _rem_ops(n, dw) <= _ladder_ops(dh, dw, p)


def _frobenius_t(h, w, p):
    # h^p mod w for monic w and deg h < deg w, by the cheaper route
    if not _substitutes(len(h) - 1, len(w) - 1, p):
        return _powmod_t(h, p, w, p)
    sub = [0] * (p * (len(h) - 1) + 1)
    sub[::p] = h  # h(x^p), which is h^p over F_p
    return _reduced(_rem_t(sub, w, p), w)


def _deriv_t(a, p):
    return _trim([i * a[i] % p for i in range(1, len(a))])


def _is_irreducible_t(a, p):
    n = len(a) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    a = _monic_t(a, p)
    x = (0, 1)
    h = x
    for _ in range(n // 2):
        h = _frobenius_t(h, a, p)
        g = _gcd_t(_add_t(h, _neg_t(x, p), p), a, p)
        if len(g) != 1:
            return False
    return True


def _factor_monic_t(a, p, out):
    # a monic with nonzero constant term
    while len(a) - 1 >= 1:
        d = _deriv_t(a, p)
        if not d:
            sub = {}
            _factor_monic_t(_trim(a[::p]), p, sub)
            for k, e in sub.items():
                out[k] = out.get(k, 0) + p * e
            return
        w = _divrem_t(a, _gcd_t(a, d, p), p)[0]
        for f in _distinct_t(_monic_t(w, p), p):
            e = 0
            while True:
                q, r = _divrem_t(a, f, p)
                if r:
                    break
                a = q
                e += 1
            if not e:  # every factor of w divides a; a that does not shrink would loop forever
                raise ArithmeticError(f"a degree-{len(f) - 1} factor of the squarefree part does not divide")
            out[f] = out.get(f, 0) + e


def _distinct_t(w, p):
    res = []
    x = (0, 1)
    h = x
    d = 0
    while len(w) - 1 > 0:
        d += 1
        if 2 * d > len(w) - 1:
            res.append(w)
            break
        h = _frobenius_t(h, w, p)
        g = _gcd_t(_add_t(h, _neg_t(x, p), p), w, p)
        if len(g) > 1:
            g = _monic_t(g, p)
            # g has degree d exactly when it is one irreducible: no split, no draws
            res.extend(_split_t(g, d, p, random.Random(_code_t(g, p))) if len(g) - 1 > d else (g,))
            w = _monic_t(_divrem_t(w, g, p)[0], p)
            if len(w) == 1:
                break
            h = _reduced(_rem_t(h, w, p), w)
    return res


def _split_t(g, d, p, rng):
    # Cantor-Zassenhaus for odd p: g is a product of degree-d irreducibles
    out = []
    stack = [g]
    e = (p ** d - 1) // 2
    while stack:
        c = stack.pop()
        if len(c) - 1 == d:
            out.append(c)
            continue
        for _ in range(64):  # a valid c fails a draw with chance <= 5/9, 64 in a row: < 1e-16
            r = _trim([rng.randrange(p) for _ in range(len(c) - 1)])
            if not r:
                continue
            t = _add_t(_powmod_t(r, e, c, p), _neg_t((1,), p), p)
            s = _gcd_t(t, c, p)
            if 1 < len(s) < len(c):
                s = _monic_t(s, p)
                q = _monic_t(_divrem_t(c, s, p)[0], p)
                if _mul_t(q, s, p) != c:  # a wrong quotient would be split forever
                    raise ArithmeticError(
                        f"a split of a degree-{len(c) - 1} factor does not multiply back to it")
                stack.append(s)
                stack.append(q)
                break
        else:
            raise ArithmeticError(f"64 draws found no degree-{d} split of a degree-{len(c) - 1} factor")
    return out


# -- public operations ------------------------------------------------------


_TERM_RE = re.compile(r"(?:(\d+)\*?)?x(?:\^(\d+))?")


def parse_poly(text, field):
    """Parse a '+'-separated sum of terms c*x^e, x^e, or c.

    For p = 2 a hexadecimal bitmask form like "0x29" is also accepted,
    with bit i holding the coefficient of x^i.
    """
    s = "".join(text.split())
    if not s:
        raise ValueError("empty polynomial text")
    if field.p == 2 and s[:2].lower() == "0x":
        try:
            return Polynomial.from_mask(field, int(s, 16))
        except ValueError:
            raise ValueError(f"malformed bitmask {text!r}") from None
    coeffs: dict[int, int] = {}
    for term in s.split("+"):
        m = _TERM_RE.fullmatch(term)
        if m:
            c = int(m.group(1)) if m.group(1) else 1
            e = int(m.group(2)) if m.group(2) else 1
        elif term.isdigit():
            c, e = int(term), 0
        else:
            raise ValueError(f"malformed term {term!r}")
        if c >= field.p:
            raise ValueError(f"coefficient {c} is not reduced modulo {field.p}")
        if e in coeffs:
            raise ValueError(f"duplicate exponent {e} in {text!r}")
        coeffs[e] = c
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return Polynomial(field, tuple(out))


def format_poly(f):
    """Canonical text form, highest exponent first; inverse of parse_poly."""
    if f.is_zero:
        return "0"
    parts = []
    for e in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[e]
        if not c:
            continue
        if e == 0:
            parts.append(str(c))
            continue
        xs = "x" if e == 1 else f"x^{e}"
        parts.append(xs if c == 1 else f"{c}*{xs}")
    return "+".join(parts)


def poly_divrem(a, b):
    """Quotient and remainder with deg(remainder) < deg(b)."""
    _check_fields(a, b)
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    q, r = _divrem_t(a.coeffs, b.coeffs, a.field.p)
    return Polynomial(a.field, q), Polynomial(a.field, r)


def poly_gcd(a, b):
    """Monic greatest common divisor."""
    _check_fields(a, b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    g = _gcd_t(a.coeffs, b.coeffs, a.field.p)
    return Polynomial(a.field, _monic_t(g, a.field.p))


def is_irreducible_fq(f):
    """Irreducibility over F_p; constants are not irreducible."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no irreducibility status")
    return _is_irreducible_t(f.coeffs, f.field.p)


@dataclass(frozen=True)
class FqFactorization:
    """Unit times a product of monic irreducibles with multiplicities.

    Factors are sorted by (degree, coefficients from the top down), which
    for p = 2 is plain bitmask order, so output is deterministic.
    """

    field: FieldSpec
    unit: int
    factors: tuple[tuple[Polynomial, int], ...]

    def expand(self):
        """Re-multiply unit and factors; reproduces the factored input."""
        out = Polynomial.constant(self.field, self.unit)
        for poly, mult in self.factors:
            out = out * poly ** mult
        return out

    def format(self):
        parts = []
        if self.unit != 1 or not self.factors:
            parts.append(str(self.unit))
        solo = not parts and len(self.factors) == 1
        for poly, mult in self.factors:
            text = format_poly(poly)
            bare = len(poly.support) == 1 or (solo and mult == 1)
            base = text if bare else f"({text})"
            parts.append(base if mult == 1 else f"{base}^{mult}")
        return "*".join(parts)

    def __str__(self):
        return self.format()


def canonical_key(f):
    """Sort key ordering polynomials by degree, then top coefficients."""
    return (len(f.coeffs), tuple(reversed(f.coeffs)))


def factor_fq(f):
    """Complete factorization into monic irreducibles over F_p.

    Squarefree split by gcd with the derivative, distinct-degree split,
    then randomized equal-degree split.  Only a product of two or more
    equal-degree factors draws, from a generator seeded with that
    product's canonical integer encoding, so repeated runs give identical
    output and a factorization with no such product seeds nothing.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    field = f.field
    unit = f.leading_coeff
    if field.p == 2:
        pairs = _gf2.factor(f.mask)
        factors = tuple((Polynomial.from_mask(field, m), e) for m, e in pairs)
        return FqFactorization(field, 1, factors)
    out: dict[tuple, int] = {}
    if len(f.coeffs) > 1:
        coeffs = _monic_t(f.coeffs, field.p)
        tz = 0
        while coeffs and coeffs[0] == 0:
            tz += 1
            coeffs = coeffs[1:]
        if tz:
            out[(0, 1)] = tz
        if len(coeffs) > 1:
            _factor_monic_t(coeffs, field.p, out)
    factors = sorted((_from_kernel(field, c) for c in out), key=canonical_key)
    return FqFactorization(field, unit, tuple((g, out[g.coeffs]) for g in factors))


def reciprocal(f):
    """Reverse the coefficient sequence: x^deg(f) * f(1/x)."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no reciprocal")
    return Polynomial(f.field, tuple(reversed(f.coeffs)))


def q_transform(f):
    """x^n * f(x + 1/x) for n = deg(f): a self-reciprocal polynomial of degree 2n."""
    if f.is_zero or f.degree < 1:
        raise ValueError("transform requires a nonconstant polynomial")
    field = f.field
    n = len(f.coeffs) - 1
    u = Polynomial(field, (1, 0, 1))  # x^2 + 1
    out = Polynomial.zero(field)
    upow = Polynomial.one(field)
    for i, c in enumerate(f.coeffs):
        if c:
            out = out + Polynomial.monomial(field, n - i, c) * upow
        if i < n:
            upow = upow * u
    return out
