"""Closed-form counters, exact bounds, and the x^p + 1 prime experiment.

Everything here is exact: counts are Python ints, densities and bounds are
`fractions.Fraction`.  Decimal rendering happens only at the output layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb

from . import sgalg
from .ffpoly import FieldSpec, Polynomial, _is_prime


def _factorize(n):
    """Prime factorization of n >= 1 as ascending (prime, exponent) pairs."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def mobius(n):
    """Moebius function: 0 on squarefull n, else (-1)^(number of prime factors)."""
    if n < 1:
        raise ValueError("the Moebius function is defined on positive integers")
    factors = _factorize(n)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) & 1 else 1


def _divisors(n):
    divs = [1]
    for p, e in _factorize(n):
        divs = [d * p ** i for i in range(e + 1) for d in divs]
    return sorted(divs)


def _require_prime(q):
    if not _is_prime(q):
        raise ValueError(f"base field size must be prime, got {q}")


def count_aq(n, q):
    """Monic irreducibles of degree n over F_q: (1/n) sum mu(n/d) q^d."""
    _require_prime(q)
    if n < 1:
        raise ValueError("degree must be positive")
    total = sum(mobius(n // d) * q ** d for d in _divisors(n))
    if total % n:
        raise ArithmeticError(f"Moebius sum {total} not divisible by {n}")
    return total // n


def count_rq(n, q):
    """Monic self-reciprocal irreducibles of degree 2n over F_q.

    For odd q with n a power of two (including n = 1) the count is
    (q^n - 1)/(2n); otherwise (1/2n) * sum of mu(d) q^(n/d) over odd d | n.
    """
    _require_prime(q)
    if n < 1:
        raise ValueError("n must be positive")
    if q % 2 == 1 and n & (n - 1) == 0:
        total = q ** n - 1
    else:
        total = sum(mobius(d) * q ** (n // d) for d in _divisors(n) if d % 2 == 1)
    if total % (2 * n):
        raise ArithmeticError(f"self-reciprocal sum {total} not divisible by {2 * n}")
    return total // (2 * n)


def count_s(n):
    """Irreducibles over F_2 of degree n with nonzero linear and constant terms.

    Equals the self-reciprocal count count_rq(n, 2) for n >= 1; the
    conventions s(0) = 1 and s(n) = 0 for negative n are forced by the
    brute-force totals at degrees 2 and 3 (the pure monomials x^2, x^3).
    """
    if n < 0:
        return 0
    if n == 0:
        return 1
    return count_rq(n, 2)


def b_counts(n):
    """(classic, tame, wild, total) counts of irreducibles of F_2[x^2,x^3].

    classic = a(n) - s(n); tame = s(n-2) + s(n-3); wild pairs up factors of
    degrees k and n-k, with the binomial correction when both halves have
    equal degree.
    """
    if n < 2:
        raise ValueError("counts are defined for degree >= 2")
    b_c = count_aq(n, 2) - count_s(n)
    b_t = count_s(n - 2) + count_s(n - 3)
    if n % 2 == 0:
        b_w = sum(count_s(k) * count_s(n - k) for k in range(1, n // 2))
        b_w += comb(count_s(n // 2) + 1, 2)
    else:
        b_w = sum(count_s(k) * count_s(n - k) for k in range(1, n // 2 + 1))
    return (b_c, b_t, b_w, b_c + b_t + b_w)


def algebra_count(q, semigroup, n):
    """Number of degree-n elements of F_q[S], counting all leading units."""
    _require_prime(q)
    return (q - 1) * sgalg.member_count(sgalg.AlgebraContext(FieldSpec(q), semigroup), n)


def density(q, semigroup, n, irreducible_count):
    """Exact proportion of irreducibles among degree-n elements of F_q[S].

    Undefined at gap degrees (the algebra has no elements there).  The
    count argument is a monic count; the (q-1) unit factor cancels.
    """
    if n < 1 or not semigroup.contains(n):
        raise ValueError(f"density is undefined at degree {n} (not in the semigroup)")
    monic = algebra_count(q, semigroup, n) // (q - 1)
    return Fraction(irreducible_count, monic)


def friendly_density(n):
    """Density of irreducibles of degree n in F_2[x^2,x^3], via b_counts."""
    sgp = sgalg.friendly_context().semigroup
    return density(2, sgp, n, b_counts(n)[3])


def harmonic(n):
    """Exact harmonic number H_n."""
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def bound_density(n):
    """Exact upper bound 4/n + H_(n-1)/n on b(n)/2^n, for n >= 2."""
    if n < 2:
        raise ValueError("bound is defined for degree >= 2")
    return Fraction(4, n) + harmonic(n - 1) / n


@cache
def _psum(n, k, max_part):
    # exact sum of 1/(m_1*...*m_k) over partitions of n into k parts <= max_part
    if k == 0:
        return Fraction(1) if n == 0 else Fraction(0)
    total = Fraction(0)
    for m in range(min(max_part, n - k + 1), 0, -1):
        if m * k < n:
            break
        total += Fraction(1, m) * _psum(n - m, k - 1, m)
    return total


def partition_sum(n, k):
    """Sum of 1/(m_1*...*m_k) over all partitions of n into exactly k parts."""
    if k < 1:
        raise ValueError("partitions need at least one part")
    if n < k:
        raise ValueError(f"cannot partition {n} into {k} positive parts")
    return _psum(n, k, n)


def mult_order(a, p):
    """Least e >= 1 with a^e = 1 mod p, for an odd prime p and gcd(a, p) = 1."""
    if p == 2 or not _is_prime(p):
        raise ValueError(f"modulus must be an odd prime, got {p}")
    a %= p
    if a == 0:
        raise ValueError("argument must be coprime to the modulus")
    order = p - 1
    for f, _ in _factorize(p - 1):
        while order % f == 0 and pow(a, order // f, p) == 1:
            order //= f
    return order


@dataclass(frozen=True)
class CyclotomicRecord:
    """Verdict for x^p + 1 in F_2[x^2,x^3] together with the order data."""

    p: int
    p_mod_8: int
    ord_2: int
    primitive_root: bool
    irreducible_in_algebra: bool
    phi_factor_count: int


def cyclotomic_experiment(p):
    """Order-based verdict for x^p + 1 in F_2[x^2,x^3].

    x^p + 1 factors as (x + 1) times the p-th cyclotomic polynomial, whose
    F_2 factor count is (p-1)/ord_p(2); the whole thing stays irreducible
    in the algebra exactly when 2 generates the units mod p.  For p <= 31
    the verdict is cross-checked against the direct algebra factorization.
    """
    if p == 2 or not _is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    order = mult_order(2, p)
    primitive = order == p - 1
    record = CyclotomicRecord(
        p=p,
        p_mod_8=p % 8,
        ord_2=order,
        primitive_root=primitive,
        irreducible_in_algebra=primitive,
        phi_factor_count=(p - 1) // order,
    )
    if p <= 31:
        ctx = sgalg.friendly_context()
        f = Polynomial(ctx.field, (1,) + (0,) * (p - 1) + (1,))
        verdict = sgalg.is_irreducible_in_algebra(ctx, f)
        if verdict.is_irreducible != primitive:
            raise ArithmeticError(
                f"order-based verdict for p={p} disagrees with direct factorization"
            )
    return record


@dataclass(frozen=True)
class CountRow:
    """One line of the per-degree count table."""

    n: int
    a: int
    s: int | None
    b_c: int
    b_t: int
    b_w: int
    b: int
    algebra_size: int  # monic members of degree n
    density: Fraction | None


def friendly_count_row(n):
    """Closed-form CountRow for F_2[x^2,x^3] at degree n >= 2."""
    b_c, b_t, b_w, b = b_counts(n)
    size = 1 << (n - 1)
    return CountRow(
        n=n,
        a=count_aq(n, 2),
        s=count_s(n),
        b_c=b_c,
        b_t=b_t,
        b_w=b_w,
        b=b,
        algebra_size=size,
        density=Fraction(b, size),
    )
