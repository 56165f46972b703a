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
from oracles import all_monic, is_palindrome, sieve_irreducibles, trial_division_factor


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
    # kernel output skips the digit check, but the public constructor keeps
    # it: every coefficient must be an int residue mod p, wherever it sits
    f257 = FieldSpec(257)
    for field, bad in ((f3, 3), (f3, -1), (f257, 257), (f257, 10 ** 20)):
        for coeffs in ((bad,), (1, bad), (bad, 0, 1), (1, 1, bad, 0)):
            with pytest.raises(ValueError, match="is not a residue mod"):
                Polynomial(field, coeffs)
    for bad in (1.0, 2.5, "1", None, (1,)):
        for coeffs in ((bad,), (0, bad, 1)):
            with pytest.raises(ValueError, match="is not a residue mod"):
                Polynomial(f3, coeffs)
    assert Polynomial(f257, (256, 0, 1)).coeffs == (256, 0, 1)


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from((2, 3, 5, 7, 257)), st.data())
@example(3, None)
def test_rem_t_is_divrem_t_remainder(p, data):
    # the remainder-only division equals _divrem_t's remainder, for monic
    # and non-monic divisors and for dividends shorter than the divisor
    if data is None:
        cases = [((1, 2), (0, 0, 2), 3), ((), (2,), 3), ((2, 1, 1), (1, 2), 3), ((1, 0, 1), (1, 1), 3)]
    else:
        digits = st.integers(0, p - 1)
        a = data.draw(st.lists(digits, max_size=14))
        b = data.draw(st.lists(digits, max_size=8)) + [data.draw(st.integers(1, p - 1))]
        cases = [(tuple(a), tuple(b), p)]
    for a, b, p in cases:
        r = ffpoly._rem_t(a, b, p)
        assert r == ffpoly._divrem_t(a, b, p)[1]
        assert len(r) < len(b) and (not r or r[-1])
    with pytest.raises(ZeroDivisionError):
        ffpoly._rem_t((1, 1), (), p)


def _mulmod(a, b, m, p):
    return ffpoly._divrem_t(ffpoly._mul_t(a, b, p), m, p)[1]


def test_powmod_t_is_repeated_multiplication():
    # e runs over 0, 1, 2, p and (p^d - 1) / 2, the equal-degree split's
    # exponent, with d the modulus's degree; (257^3 - 1) / 2 and larger
    # would take millions of products by hand, so F_257 stops at d = 2
    rng = random.Random(2718)
    for p, degrees in ((3, (1, 2, 3, 5)), (5, (1, 2, 3, 5)), (7, (1, 2, 3, 4)), (257, (1, 2))):
        for d in degrees:
            for _ in range(3):
                m = tuple(rng.randrange(p) for _ in range(d)) + (rng.randrange(1, p),)
                a = tuple(rng.randrange(p) for _ in range(d + 3))
                for e in sorted({0, 1, 2, p, (p ** d - 1) // 2}):
                    expected = (1,)
                    for _ in range(e):
                        expected = _mulmod(expected, a, m, p)
                    assert ffpoly._powmod_t(a, e, m, p) == expected, (p, m, a, e)


def test_frobenius_routes_both_give_h_to_the_p(monkeypatch):
    # h(x^p) reduced mod w and the square-and-multiply ladder are both h^p
    # mod w, whichever the cost rule would pick
    rng = random.Random(1618)
    routes = set()
    for p in (3, 5, 7, 11, 13, 17, 31, 257):
        for dw in (2, 3, 4, 6, 9):
            for dh in sorted({1, dw // 2, dw - 1}):
                w = tuple(rng.randrange(p) for _ in range(dw)) + (1,)
                h = tuple(rng.randrange(p) for _ in range(dh)) + (rng.randrange(1, p),)
                expected = (1,)
                for _ in range(p):
                    expected = _mulmod(expected, h, w, p)
                routes.add(ffpoly._substitutes(dh, dw, p))
                for forced in (True, False):
                    monkeypatch.setattr(ffpoly, "_substitutes", lambda *_, forced=forced: forced)
                    assert ffpoly._frobenius_t(h, w, p) == expected, (p, w, h, forced)
                monkeypatch.undo()
    assert routes == {True, False}
    assert ffpoly._substitutes(8, 9, 3) and not ffpoly._substitutes(2, 3, 257)


def test_tuple_kernel_raises_on_an_unreduced_remainder(monkeypatch, f3):
    # a division whose remainder keeps a multiple of the divisor (still
    # congruent, but as long as the divisor) would leave the gcd loop and
    # the exact divisions of factor_fq on polynomials that never shrink;
    # each remainder is checked against its divisor's length, and each
    # factor of the squarefree part must divide, so both raise at once.
    # An alarm turns a hang past a second into a failure of this test
    rem_t, divrem_t = ffpoly._rem_t, ffpoly._divrem_t

    def unreduced(a, b, p):
        return ffpoly._add_t(rem_t(a, b, p), b, p)

    def unreduced_divrem(a, b, p):
        q, r = divrem_t(a, b, p)
        return q, ffpoly._add_t(r, b, p)

    def hung(signum, frame):
        raise TimeoutError("the tuple kernel ran past a second")

    f = parse_poly("x^4+x^3+2*x+1", f3)
    assert ffpoly._gcd_t((1, 0, 1), (1, 1), 3) == (2,)
    assert factor_fq(f).expand() == f
    previous = signal.signal(signal.SIGALRM, hung)
    try:
        for name, wrong in (("_divrem_t", unreduced_divrem), ("_rem_t", unreduced)):
            monkeypatch.setattr(ffpoly, name, wrong)
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            if name == "_rem_t":
                with pytest.raises(ArithmeticError, match="^a remainder of degree 1 by a degree-1 divisor$"):
                    ffpoly._gcd_t((1, 0, 1), (1, 1), 3)
            with pytest.raises(ArithmeticError):
                factor_fq(f)
            signal.setitimer(signal.ITIMER_REAL, 0)
            monkeypatch.undo()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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


@pytest.mark.parametrize("p, top, calls, routes", [
    (5, 3, 150, {True}), (7, 3, 150, {True}), (11, 3, 100, {True}), (13, 3, 100, {True}),
    (17, 3, 100, {True, False}), (257, 1, 300, {False})])
def test_factor_matches_trial_division_past_f3(monkeypatch, p, top, calls, routes):
    # factor_fq against trial division by a multiplication sieve to degree
    # top, on inputs of degree up to 2 * top + 1, which the sieve decides;
    # routes are the sides of the Frobenius cost rule its steps take (True
    # for h(x^p) reduced mod w, False for the ladder): substitution for
    # small p, the ladder at p = 257, and both at p = 17
    field = FieldSpec(p)
    sieve = sieve_irreducibles(field, top)
    taken = []
    substitutes = ffpoly._substitutes

    def recorded(dh, dw, p):
        taken.append(substitutes(dh, dw, p))
        return taken[-1]

    monkeypatch.setattr(ffpoly, "_substitutes", recorded)
    rng = random.Random(p)
    for _ in range(calls):
        n = rng.randint(1, 2 * top + 1)
        f = Polynomial(field, tuple(rng.randrange(p) for _ in range(n)) + (rng.randrange(1, p),))
        unit, expected = trial_division_factor(f, sieve)
        fac = factor_fq(f)
        assert fac.unit == unit
        assert list(fac.factors) == sorted(expected, key=lambda ge: ffpoly.canonical_key(ge[0])), format_poly(f)
    assert set(taken) == routes


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
