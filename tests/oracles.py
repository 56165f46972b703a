"""Independent brute-force references for pinning expected values.

Nothing here touches the production factorization, membership or verdict
paths: irreducibles come from a multiplication sieve (every composite is
marked as an explicit product of smaller monic polynomials),
factorizations from trial division against that sieve, membership from
the support of a polynomial, and algebra verdicts and their witnesses
from a divisor scan over all monic member polynomials of smaller degree.
"""

from sgpoly import Polynomial, poly_divrem


def support_member(ctx, f):
    """Membership by definition: every exponent with a nonzero coefficient
    lies in S."""
    contains = ctx.semigroup.contains
    return all(contains(i) for i in f.support)


def all_monic(field, n):
    """All monic degree-n polynomials, ascending canonical (mask) order."""
    p = field.p
    for idx in range(p ** n):
        coeffs = []
        t = idx
        for _ in range(n):
            t, c = t // p, t % p
            coeffs.append(c)
        coeffs.append(1)
        yield Polynomial(field, tuple(coeffs))


def monic_members(ctx, n):
    """The monic degree-n members: all_monic(ctx.field, n) without the ones
    that have a term at a gap, built directly (none when n is a gap)."""
    contains = ctx.semigroup.contains
    if not contains(n):
        return
    free = [i for i in range(n) if contains(i)]
    p = ctx.field.p
    for idx in range(p ** len(free)):
        coeffs = [0] * n + [1]
        t = idx
        for pos in free:
            t, coeffs[pos] = t // p, t % p
        yield Polynomial(ctx.field, tuple(coeffs))


def sieve_irreducibles(field, max_degree):
    """degree -> list of monic irreducibles, found by marking all products.

    A monic polynomial of degree n is irreducible exactly when it is not
    the product of an irreducible of degree d <= n/2 and a monic cofactor,
    so marking g*h for every sieve irreducible g and every monic h of
    degree >= deg(g) catches every composite.
    """
    composite = set()
    by_degree = {}
    for n in range(1, max_degree + 1):
        by_degree[n] = [f for f in all_monic(field, n) if f.encoding not in composite]
        if 2 * n > max_degree:
            continue
        for g in by_degree[n]:
            for m in range(n, max_degree - n + 1):
                for h in all_monic(field, m):
                    composite.add((g * h).encoding)
    return by_degree


def trial_division_factor(f, sieve):
    """(unit, [(monic irreducible, multiplicity), ...]) by trial division.

    Divides by the sieve irreducibles in ascending order; once no factor
    of degree <= deg/2 remains, the leftover is itself irreducible.
    """
    unit = f.leading_coeff
    work = f.monic()
    factors = []
    for n in sorted(sieve):
        deg = work.degree
        if deg < 1:
            break
        if n > deg // 2:
            break
        for g in sieve[n]:
            mult = 0
            while True:
                q, r = poly_divrem(work, g)
                if not r.is_zero:
                    break
                work = q
                mult += 1
            if mult:
                factors.append((g, mult))
            if work.degree < 1:
                break
    if work.degree >= 1:
        factors.append((work, 1))
    return unit, factors


def divisor_scan_witness(ctx, f):
    """(g, f // g) for the first monic member g of lower degree that divides
    the member f with a member cofactor, or None when there is none.

    The scan runs by degree, then in monic_members' order, which for
    members is integer code order, so g is the least such divisor by
    canonical key, and f // g carries f's leading unit.
    """
    for d in range(1, f.degree):
        for g in monic_members(ctx, d):
            q, r = poly_divrem(f, g)
            if r.is_zero and support_member(ctx, q):
                return g, q
    return None


def divisor_scan_verdict(ctx, f):
    """Algebra verdict by scanning every monic member divisor of lower degree."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    if not support_member(ctx, f):
        return "not_member"
    if f.degree == 0:
        return "unit"
    return "irreducible" if divisor_scan_witness(ctx, f) is None else "reducible"


def is_palindrome(f):
    """Self-reciprocal check straight off the coefficient tuple."""
    return f.coeffs == tuple(reversed(f.coeffs))
