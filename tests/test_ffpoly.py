"""Polynomial arithmetic, irreducibility, and factorization over F_p."""

import random
import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgpoly import _gf2, ffpoly
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


# masks past 2^64 span several machine words
_WIDE_MASKS = st.integers(1 << 64, (1 << 130) - 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, (1 << 33) - 1) | _WIDE_MASKS,
       st.integers(0, (1 << 17) - 1) | _WIDE_MASKS)
@example(0, 1)
@example(1, 1)
@example(0b1011, 1 << 70 | 1)  # deg a < deg b
@example((1 << 129) | 1, 0)
def test_f2_arithmetic_agrees_with_gf2_masks(a_mask, b_mask):
    # F_2 polynomials run on the coefficient-tuple kernel; the bit-packed
    # kernel in _gf2 is an independent reference on their masks
    f2 = FieldSpec(2)
    a, b = Polynomial.from_mask(f2, a_mask), Polynomial.from_mask(f2, b_mask)
    assert a.mask == a.encoding == a_mask
    assert (a * b).mask == _gf2.mul(a_mask, b_mask)
    assert (a + b).mask == (a - b).mask == a_mask ^ b_mask
    if b_mask:
        q, r = divmod(a, b)
        assert (q.mask, r.mask) == _gf2.divrem(a_mask, b_mask)
        assert _gf2.mod(a_mask, b_mask) == r.mask
    else:
        for op in (_gf2.divrem, _gf2.mod):
            with pytest.raises(ZeroDivisionError):
                op(a_mask, b_mask)
    if a_mask or b_mask:
        assert poly_gcd(a, b).mask == _gf2.gcd(a_mask, b_mask)
    for f in (a, b):
        if f.is_zero:
            continue
        pairs = _gf2.factor(f.mask)
        assert is_irreducible_fq(f) == (pairs == [(f.mask, 1)])
        assert all(is_irreducible_fq(Polynomial.from_mask(f2, g)) for g, _ in pairs)


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


def test_factor_high_degree_products(monkeypatch, f2, f3, f2_sieve, f3_sieve):
    # build polynomials of degree ~25-45 out of known irreducibles and
    # demand exact recovery of the multiset; both equal-degree splitters
    # are called only on products of two or more factors, the only ones
    # that draw
    splits = []
    for module, name, size in ((_gf2, "_split_equal_degree", lambda g: g.bit_length() - 1),
                               (ffpoly, "_split_t", lambda g: len(g) - 1)):
        def recorded(g, d, *rest, split=getattr(module, name), size=size):
            splits.append((size(g), d))
            return split(g, d, *rest)

        monkeypatch.setattr(module, name, recorded)
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
    assert splits and all(size > d for size, d in splits)


def test_factor_is_deterministic(f2, f3):
    rng = random.Random(8)
    for field in (f2, f3):
        for _ in range(40):
            f = rand_poly(rng, field, 14, nonzero=True)
            assert factor_fq(f) == factor_fq(f)
    with pytest.raises(ValueError):
        factor_fq(Polynomial.zero(f2))


def test_equal_degree_split_stops_on_an_input_it_cannot_split(f2, f3):
    # an irreducible quartic is no product of quadratics, so no draw splits
    # it: both equal-degree kernels raise after their 64 draws instead of
    # drawing forever
    g2, g3 = parse_poly("x^4+x+1", f2), parse_poly("x^4+x^3+x^2+1", f3)
    assert is_irreducible_fq(g2) and is_irreducible_fq(g3)
    message = "^64 draws found no degree-2 split of a degree-4 factor$"
    with pytest.raises(ArithmeticError, match=message):
        _gf2._split_equal_degree(g2.mask, 2, random.Random(g2.mask))
    with pytest.raises(ArithmeticError, match=message):
        ffpoly._split_t(g3.coeffs, 2, 3, random.Random(g3.encoding))


def test_equal_degree_split_raises_on_a_wrong_quotient(monkeypatch, f2, f3):
    # a division that returns a wrong quotient (with the right remainder,
    # so the draws' gcds still find splits) would feed the splitter's stack
    # cofactors it can never finish; both kernels check that each split
    # multiplies back to its factor and raise instead
    c2 = parse_poly("x^3+x+1", f2) * parse_poly("x^3+x^2+1", f2)
    c3 = parse_poly("x^2+1", f3) * parse_poly("x^2+x+2", f3)
    assert sorted(_gf2._split_equal_degree(c2.mask, 3, random.Random(1))) == [11, 13]
    assert len(ffpoly._split_t(c3.coeffs, 2, 3, random.Random(1))) == 2
    divrem, divrem_t = _gf2.divrem, ffpoly._divrem_t

    def wrong(a, b):
        q, r = divrem(a, b)
        return q ^ 2, r

    def wrong_t(a, b, p):
        q, r = divrem_t(a, b, p)
        return q + (1,), r

    monkeypatch.setattr(_gf2, "divrem", wrong)
    monkeypatch.setattr(ffpoly, "_divrem_t", wrong_t)
    message = "^a split of a degree-\\d+ factor does not multiply back to it$"
    with pytest.raises(ArithmeticError, match=message):
        _gf2._split_equal_degree(c2.mask, 3, random.Random(1))
    with pytest.raises(ArithmeticError, match=message):
        ffpoly._split_t(c3.coeffs, 2, 3, random.Random(1))


def test_gf2_factor_raises_on_a_wrong_quotient(monkeypatch):
    # a division that sets each quotient bit one place too high (the
    # remainders stay right) would leave factor's loops on a polynomial
    # that never shrinks; the exact quotients they take are checked by
    # degree and remainder, so factor raises at once.  An alarm turns a
    # hang past a second into a failure of this test
    def wrong(a, b):
        n, q = b.bit_length(), 0
        while (k := a.bit_length() - n) >= 0:
            a ^= b << k
            q |= 1 << (k + 1)
        return q, a

    def hung(signum, frame):
        raise TimeoutError("factor ran past a second")

    assert _gf2.factor(0b111) == [(0b111, 1)]
    monkeypatch.setattr(_gf2, "divrem", wrong)
    previous = signal.signal(signal.SIGALRM, hung)
    try:
        for mask in (0b111, 0b1110):
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            with pytest.raises(ArithmeticError, match="^a degree-\\d+ quotient of a degree-"):
                _gf2.factor(mask)
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
