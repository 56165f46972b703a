"""Polynomial arithmetic, irreducibility, and factorization over F_p."""

import random

import pytest

from sgpoly import (
    ZERO_DEGREE,
    FieldSpec,
    Polynomial,
    factor_fq,
    format_poly,
    is_irreducible_fq,
    parse_poly,
    poly_divrem,
    poly_gcd,
    q_transform,
    reciprocal,
)
from oracles import all_monic, is_palindrome, trial_division_factor


def rand_poly(rng, field, max_degree, nonzero=False):
    while True:
        coeffs = tuple(rng.randrange(field.p) for _ in range(rng.randint(0, max_degree + 1)))
        f = Polynomial(field, coeffs)
        if not (nonzero and f.is_zero):
            return f


# -- field and value construction -------------------------------------------


def test_field_requires_prime():
    assert FieldSpec(2).p == 2
    FieldSpec(101)
    for bad in (0, 1, 4, 6, 9, 100):
        with pytest.raises(ValueError):
            FieldSpec(bad)


def test_polynomial_canonical_form(f2, f3):
    assert Polynomial(f2, (1, 0, 1, 0, 0)).coeffs == (1, 0, 1)
    assert Polynomial(f3, (0,) * 5).coeffs == ()
    with pytest.raises(ValueError):
        Polynomial(f3, (3, 1))
    with pytest.raises(ValueError):
        Polynomial(f2, (-1,))


def test_zero_degree_sentinel(f2):
    zero = Polynomial.zero(f2)
    assert zero.degree == ZERO_DEGREE
    assert zero.degree < 0 and zero.degree < -10 ** 9
    assert Polynomial.one(f2).degree == 0


# -- parse / format ----------------------------------------------------------


def test_parse_bitmask_value(f2):
    assert parse_poly("x^5+x^3+1", f2).mask == 0x29
    assert parse_poly("0x29", f2) == parse_poly("x^5+x^3+1", f2)


def test_parse_zero(f2):
    zero = parse_poly("0", f2)
    assert zero.is_zero
    assert zero.degree == ZERO_DEGREE


def test_parse_f3_coefficients(f3):
    assert parse_poly("x^2+2", f3).coeffs == (2, 0, 1)
    assert parse_poly("2*x^3+x+2", f3).coeffs == (2, 1, 0, 2)


def test_parse_ignores_whitespace(f2):
    assert parse_poly(" x^2 + 1 ", f2) == parse_poly("x^2+1", f2)


def test_parse_errors(f2, f3):
    for text in ("", "x^", "y+1", "x**2", "1++1", "x^-1"):
        with pytest.raises(ValueError):
            parse_poly(text, f2)
    with pytest.raises(ValueError):
        parse_poly("2*x", f2)  # coefficient not reduced mod 2
    with pytest.raises(ValueError):
        parse_poly("5+x", f3)
    with pytest.raises(ValueError):
        parse_poly("x+x", f2)  # duplicate exponent
    with pytest.raises(ValueError):
        parse_poly("1+x^0", f3)


def test_format_round_trip(f2, f3):
    rng = random.Random(20240)
    for field in (f2, f3):
        for _ in range(200):
            f = rand_poly(rng, field, 9)
            assert parse_poly(format_poly(f), field) == f
    assert format_poly(parse_poly("1+x^5+x^3", f2)) == "x^5+x^3+1"


def test_encoding_round_trip(f2, f3):
    rng = random.Random(31)
    for field in (f2, f3, FieldSpec(5)):
        for _ in range(200):
            f = rand_poly(rng, field, 9)
            assert Polynomial.from_encoding(field, f.encoding) == f
    assert Polynomial.from_encoding(f3, 3 ** 2 + 2) == parse_poly("x^2+2", f3)
    assert Polynomial.from_encoding(f2, 0b1011) == Polynomial.from_mask(f2, 0b1011)
    with pytest.raises(ValueError):
        Polynomial.from_encoding(f3, -1)


# -- ring laws and division --------------------------------------------------


def test_divrem_examples(f2, f3):
    q, r = poly_divrem(parse_poly("x^3+x+1", f2), parse_poly("x+1", f2))
    assert (format_poly(q), format_poly(r)) == ("x^2+x", "1")
    f = parse_poly("x^4+x^2+1", f2)
    q, r = poly_divrem(f, Polynomial.one(f2))
    assert q == f and r.is_zero
    q, r = poly_divrem(parse_poly("x^2+1", f3), parse_poly("x+1", f3))
    assert (format_poly(q), format_poly(r)) == ("x+2", "2")


def test_divrem_errors(f2, f3):
    with pytest.raises(ZeroDivisionError):
        poly_divrem(parse_poly("x", f2), Polynomial.zero(f2))
    with pytest.raises(ValueError):
        poly_divrem(parse_poly("x", f2), parse_poly("x", f3))


def test_ring_laws_and_division(f2, f3):
    rng = random.Random(7171)
    for field in (f2, f3):
        for _ in range(150):
            a = rand_poly(rng, field, 8)
            b = rand_poly(rng, field, 8)
            c = rand_poly(rng, field, 8)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - b == a + (-b)
            if not b.is_zero:
                q, r = poly_divrem(a, b)
                assert q * b + r == a
                assert r.is_zero or r.degree < b.degree
                assert poly_divrem(a * b, b) == (a, Polynomial.zero(field))


def test_gcd_examples(f2):
    assert format_poly(poly_gcd(parse_poly("x^2+1", f2), parse_poly("x+1", f2))) == "x+1"
    assert format_poly(poly_gcd(parse_poly("x^2+x+1", f2), parse_poly("x^3+1", f2))) == "x^2+x+1"


def test_gcd_with_zero_is_monic_scaling(f3):
    f = parse_poly("2*x^2+1", f3)
    g = poly_gcd(f, Polynomial.zero(f3))
    assert g.is_monic and g == f.monic()
    with pytest.raises(ValueError):
        poly_gcd(Polynomial.zero(f3), Polynomial.zero(f3))


def test_gcd_divides_both(f2, f3):
    rng = random.Random(99)
    for field in (f2, f3):
        for _ in range(100):
            a = rand_poly(rng, field, 8, nonzero=True)
            b = rand_poly(rng, field, 8)
            g = poly_gcd(a, b)
            assert poly_divrem(a, g)[1].is_zero
            if not b.is_zero:
                assert poly_divrem(b, g)[1].is_zero


# -- irreducibility ----------------------------------------------------------


def test_irreducible_examples(f2):
    assert is_irreducible_fq(parse_poly("x^2+x+1", f2))
    assert not is_irreducible_fq(parse_poly("x^2+1", f2))
    assert is_irreducible_fq(parse_poly("x^5+x^2+1", f2))
    assert not is_irreducible_fq(Polynomial.one(f2))
    with pytest.raises(ValueError):
        is_irreducible_fq(Polynomial.zero(f2))


def test_irreducible_matches_sieve_f2(f2, f2_sieve):
    for n in range(1, 11):
        found = [f for f in all_monic(f2, n) if is_irreducible_fq(f)]
        assert found == f2_sieve[n]


def test_irreducible_matches_sieve_f3(f3, f3_sieve):
    for n in range(1, 7):
        found = [f for f in all_monic(f3, n) if is_irreducible_fq(f)]
        assert found == f3_sieve[n]
    rng = random.Random(4040)
    for n in range(7, 11):
        expected = {f.encoding for f in f3_sieve[n]}
        for _ in range(120):
            coeffs = tuple(rng.randrange(3) for _ in range(n)) + (1,)
            f = Polynomial(f3, coeffs)
            assert is_irreducible_fq(f) == (f.encoding in expected)


# -- factorization -----------------------------------------------------------


def test_factor_examples(f2):
    assert factor_fq(parse_poly("x^4+x^2+1", f2)).format() == "(x^2+x+1)^2"
    assert factor_fq(parse_poly("x^5+1", f2)).format() == "(x+1)*(x^4+x^3+x^2+x+1)"
    fac = factor_fq(parse_poly("x^3", f2))
    assert fac.factors == ((Polynomial.x(f2), 3),)


def test_factor_soundness_random(f2, f3):
    rng = random.Random(31337)
    for field in (f2, f3):
        for _ in range(120):
            f = rand_poly(rng, field, 12, nonzero=True)
            fac = factor_fq(f)
            assert fac.expand() == f
            for g, mult in fac.factors:
                assert g.is_monic and mult >= 1
                assert is_irreducible_fq(g)
            keys = [(g.degree, tuple(reversed(g.coeffs))) for g, _ in fac.factors]
            assert keys == sorted(keys)


def test_factor_completeness_vs_trial_division(f2, f2_sieve):
    for n in range(1, 11):
        for f in all_monic(f2, n):
            unit, expected = trial_division_factor(f, f2_sieve)
            fac = factor_fq(f)
            assert fac.unit == unit == 1
            assert list(fac.factors) == expected, format_poly(f)


def test_factor_f3_vs_trial_division(f3, f3_sieve):
    rng = random.Random(555)
    for _ in range(150):
        f = rand_poly(rng, f3, 9, nonzero=True)
        if f.degree < 1:
            continue
        unit, expected = trial_division_factor(f, f3_sieve)
        fac = factor_fq(f)
        assert fac.unit == unit
        assert list(fac.factors) == sorted(expected, key=lambda ge: (ge[0].degree, tuple(reversed(ge[0].coeffs))))


def test_factor_high_degree_products(f2, f3, f2_sieve, f3_sieve):
    # build polynomials of degree ~25-45 out of known irreducibles and
    # demand exact recovery of the multiset
    rng = random.Random(90210)
    for field, sieve, target, rounds in ((f2, f2_sieve, 40, 12), (f3, f3_sieve, 24, 6)):
        pool = [g for n in sieve for g in sieve[n]]
        for _ in range(rounds):
            expected = {}
            f = Polynomial.one(field)
            while f.degree < target:
                g = pool[rng.randrange(len(pool))]
                e = rng.randint(1, 3)
                expected[g] = expected.get(g, 0) + e
                f = f * g ** e
            unit = rng.randrange(1, field.p)
            f = f * unit
            fac = factor_fq(f)
            assert fac.unit == unit
            assert dict(fac.factors) == expected
            assert fac.expand() == f


def test_factor_is_deterministic(f2, f3):
    rng = random.Random(8)
    for field in (f2, f3):
        for _ in range(40):
            f = rand_poly(rng, field, 14, nonzero=True)
            assert factor_fq(f) == factor_fq(f)
    with pytest.raises(ValueError):
        factor_fq(Polynomial.zero(f2))


# -- reciprocal and the doubling transform -----------------------------------


def test_reciprocal_examples(f2):
    assert format_poly(reciprocal(parse_poly("x^3+x+1", f2))) == "x^3+x^2+1"
    pal = parse_poly("x^2+x+1", f2)
    assert reciprocal(pal) == pal
    assert format_poly(reciprocal(parse_poly("x^2+x", f2))) == "x+1"
    with pytest.raises(ValueError):
        reciprocal(Polynomial.zero(f2))


def test_reciprocal_involution(f2, f3):
    rng = random.Random(606)
    for field in (f2, f3):
        for _ in range(150):
            f = rand_poly(rng, field, 10, nonzero=True)
            if f.constant_term == 0:
                continue
            assert reciprocal(reciprocal(f)) == f
            assert reciprocal(f).degree == f.degree


def test_q_transform_examples(f2):
    assert format_poly(q_transform(parse_poly("x^2+x+1", f2))) == "x^4+x^3+x^2+x+1"
    assert format_poly(q_transform(parse_poly("x^2+1", f2))) == "x^4+x^2+1"
    assert format_poly(q_transform(parse_poly("x+1", f2))) == "x^2+x+1"
    with pytest.raises(ValueError):
        q_transform(Polynomial.one(f2))


def test_q_transform_self_reciprocal(f2, f3):
    rng = random.Random(77)
    for field in (f2, f3):
        for _ in range(100):
            f = rand_poly(rng, field, 8, nonzero=True)
            if f.degree < 1:
                continue
            g = q_transform(f)
            assert g.degree == 2 * f.degree
            assert is_palindrome(g.monic()) or g == reciprocal(g)


def test_meyn_small_cases(f2, f2_sieve):
    # the transform of an irreducible stays irreducible exactly when c_1 = 1
    for n in range(2, 7):
        for f in f2_sieve[n]:
            assert is_irreducible_fq(q_transform(f)) == (f.coeff(1) == 1)
