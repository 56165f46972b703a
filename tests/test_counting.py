"""Closed-form counters, exact bounds, and the prime experiment."""

import math
from fractions import Fraction

import pytest

from sgpoly import (
    algebra_count,
    b_counts,
    bound_density,
    count_aq,
    count_classes,
    count_rq,
    count_s,
    cyclotomic_experiment,
    density,
    friendly_context,
    friendly_density,
    from_generators,
    is_irreducible_fq,
    mobius,
    mult_order,
    partition_sum,
    q_transform,
)
from oracles import is_palindrome


MOBIUS_FIRST_20 = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0, -1, 0, -1, 0]


def test_mobius_values():
    assert [mobius(n) for n in range(1, 21)] == MOBIUS_FIRST_20
    assert mobius(30) == -1
    assert mobius(4) == 0
    with pytest.raises(ValueError):
        mobius(0)


def test_count_aq_examples():
    assert count_aq(1, 2) == 2
    assert count_aq(4, 2) == 3
    assert count_aq(2, 3) == 3
    with pytest.raises(ValueError):
        count_aq(0, 2)
    with pytest.raises(ValueError):
        count_aq(3, 4)  # not a prime field


def test_count_aq_matches_exhaustive_sieve(f2_sieve, f3_sieve):
    for n in range(1, 17):
        assert count_aq(n, 2) == len(f2_sieve[n])
    for n in range(1, 11):
        assert count_aq(n, 3) == len(f3_sieve[n])


def test_count_aq_integrality_and_positivity():
    for q in (2, 3, 5):
        for n in range(1, 65):
            a = count_aq(n, q)
            assert a >= 1
            total = sum(mobius(n // d) * q ** d for d in range(1, n + 1) if n % d == 0)
            assert a * n == total


def test_count_rq_examples():
    assert count_rq(2, 2) == 1
    assert count_rq(5, 2) == 3
    assert count_rq(1, 3) == 1
    with pytest.raises(ValueError):
        count_rq(0, 2)


def test_count_rq_oracle_small(f2, f3, f2_sieve, f3_sieve):
    # degree-4 self-reciprocal irreducibles over F_2: exactly one
    pal4 = [f for f in f2_sieve[4] if is_palindrome(f)]
    assert len(pal4) == count_rq(2, 2) == 1
    assert str(pal4[0]) == "x^4+x^3+x^2+x+1"
    # F_3, degree 2: x^2+1 is the only monic self-reciprocal irreducible
    pal2 = [f for f in f3_sieve[2] if is_palindrome(f)]
    assert len(pal2) == count_rq(1, 3) == 1
    assert pal2[0].coeffs == (1, 0, 1)


def test_count_rq_census(f2_sieve):
    for n in range(1, 9):
        census = sum(1 for f in f2_sieve[2 * n] if is_palindrome(f))
        assert census == count_rq(n, 2)


def test_count_rq_census_odd_q(f3_sieve):
    # n in {1, 2, 4} exercises the power-of-two branch, n in {3, 5} the
    # Moebius branch
    for n in range(1, 6):
        census = sum(1 for f in f3_sieve[2 * n] if is_palindrome(f))
        assert census == count_rq(n, 3)
    assert count_rq(2, 3) == 2
    assert count_rq(3, 3) == 4
    assert count_rq(4, 3) == 10


def test_count_s_conventions_and_values():
    assert count_s(4) == 2
    assert count_s(5) == 3
    assert count_s(0) == 1
    assert count_s(-1) == 0
    assert count_s(-7) == 0


def test_count_s_census(f2_sieve):
    # irreducibles with both linear and constant terms nonzero
    for n in range(1, 17):
        census = sum(
            1 for f in f2_sieve[n] if f.coeff(1) != 0 and f.constant_term != 0
        )
        assert census == count_s(n)


def test_meyn_census_connection(f2_sieve):
    # the doubling transform sends exactly the c_1 = 1 irreducibles to
    # irreducibles, surjectively onto the self-reciprocal ones
    for n in range(2, 8):
        images = set()
        for f in f2_sieve[n]:
            g = q_transform(f)
            if is_irreducible_fq(g):
                assert f.coeff(1) == 1
                images.add(g)
        targets = {f for f in f2_sieve[2 * n] if is_palindrome(f)}
        assert images == targets


def test_b_counts_examples():
    assert b_counts(4) == (1, 2, 2, 5)
    assert b_counts(5) == (3, 2, 3, 8)
    assert b_counts(6) == (4, 3, 6, 13)
    assert b_counts(2) == (0, 1, 1, 2)
    assert b_counts(3) == (1, 2, 1, 4)
    with pytest.raises(ValueError):
        b_counts(1)


def test_b_counts_against_enumeration():
    ctx = friendly_context()
    for n in range(2, 13):
        counts = count_classes(ctx, n)
        assert counts.as_tuple() == b_counts(n)


def test_algebra_count_examples():
    s23 = from_generators((2, 3))
    nat = from_generators((1,))
    assert algebra_count(2, s23, 5) == 16
    assert algebra_count(2, s23, 1) == 0
    assert algebra_count(3, nat, 2) == 18
    assert algebra_count(2, s23, 0) == 1
    assert algebra_count(3, s23, 0) == 2
    with pytest.raises(ValueError):
        algebra_count(2, s23, -1)


def test_algebra_count_closed_form_above_frobenius():
    for q in (2, 3):
        for gens in ((2, 3), (3, 4, 5), (6, 9, 20)):
            s = from_generators(gens)
            for n in range(s.frobenius + 1, s.frobenius + 8):
                assert algebra_count(q, s, n) == (q - 1) * q ** (n - s.genus)


def test_density_examples():
    assert friendly_density(4) == Fraction(5, 8)
    assert friendly_density(5) == Fraction(1, 2)
    assert friendly_density(6) == Fraction(13, 32)
    s23 = from_generators((2, 3))
    assert density(2, s23, 4, 5) == Fraction(5, 8)
    with pytest.raises(ValueError):
        density(2, s23, 1, 0)  # gap degree
    with pytest.raises(ValueError):
        density(2, s23, 0, 1)


def test_bound_density_examples():
    assert bound_density(6) == Fraction(377, 360)
    assert bound_density(2) == Fraction(5, 2)
    assert Fraction(13, 64) <= bound_density(6)
    with pytest.raises(ValueError):
        bound_density(1)


def test_partition_sum_examples():
    for n in (1, 2, 5, 9):
        assert partition_sum(n, 1) == Fraction(1, n)
    assert partition_sum(3, 2) == Fraction(1, 2)
    assert partition_sum(4, 2) == Fraction(7, 12)
    assert partition_sum(2, 2) == Fraction(1)
    assert partition_sum(4, 4) == Fraction(1)
    with pytest.raises(ValueError):
        partition_sum(3, 4)
    with pytest.raises(ValueError):
        partition_sum(3, 0)


def test_partition_sum_matches_direct_enumeration():
    # brute force over all partitions by composition filtering
    def parts(n, k, cap):
        if k == 0:
            return [[]] if n == 0 else []
        out = []
        for m in range(min(cap, n), 0, -1):
            for rest in parts(n - m, k - 1, m):
                out.append([m] + rest)
        return out

    for n in range(1, 13):
        for k in range(1, n + 1):
            expected = sum(
                Fraction(1, math.prod(p)) for p in parts(n, k, n)
            )
            assert partition_sum(n, k) == expected


def test_partition_sum_keeps_no_memo_between_calls():
    # each call memoizes in its own dict: repeated calls agree, and no
    # attribute of the module holds entries afterwards
    from sgpoly import counting

    def held():
        sizes = {}
        for name, value in vars(counting).items():
            if name.startswith("__"):
                continue
            if hasattr(value, "cache_info"):
                sizes[name] = value.cache_info().currsize
            elif isinstance(value, (dict, list, set)):
                sizes[name] = len(value)
        return sizes

    before = held()
    first = [partition_sum(n, k) for n in (30, 60) for k in (3, 7)]
    assert [partition_sum(n, k) for n in (30, 60) for k in (3, 7)] == first
    assert held() == before


def test_mult_order_examples():
    assert mult_order(2, 7) == 3
    assert mult_order(2, 3) == 2
    assert mult_order(2, 43) == 14
    assert mult_order(2, 131) == 130
    with pytest.raises(ValueError):
        mult_order(7, 14)
    with pytest.raises(ValueError):
        mult_order(2, 2)
    with pytest.raises(ValueError):
        mult_order(14, 7)


def test_mult_order_is_the_least_exponent():
    for p in (5, 7, 11, 13, 17, 19, 23):
        for a in range(1, p):
            e = mult_order(a, p)
            assert pow(a, e, p) == 1
            assert all(pow(a, d, p) != 1 for d in range(1, e))


def test_cyclotomic_examples():
    rec = cyclotomic_experiment(7)
    assert (rec.p_mod_8, rec.ord_2, rec.primitive_root) == (7, 3, False)
    assert not rec.irreducible_in_algebra
    assert rec.phi_factor_count == 2

    rec = cyclotomic_experiment(131)
    assert rec.irreducible_in_algebra and rec.p_mod_8 == 3

    rec = cyclotomic_experiment(43)
    assert not rec.irreducible_in_algebra and rec.p_mod_8 == 3

    rec = cyclotomic_experiment(409)
    assert not rec.irreducible_in_algebra and rec.p_mod_8 == 1

    with pytest.raises(ValueError):
        cyclotomic_experiment(2)
    with pytest.raises(ValueError):
        cyclotomic_experiment(9)


def test_cyclotomic_cross_check_squares_with_enumeration(monkeypatch):
    # for p <= 61 the record construction itself re-derives the verdict by
    # direct factorization in the algebra; it must never disagree
    from sgpoly import sgalg

    calls = []
    real = sgalg.is_irreducible_in_algebra

    def counted(ctx, f):
        calls.append(f.degree)
        return real(ctx, f)

    monkeypatch.setattr(sgalg, "is_irreducible_in_algebra", counted)
    primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
    for p in primes:
        rec = cyclotomic_experiment(p)
        assert rec.irreducible_in_algebra == (rec.ord_2 == p - 1)
    assert calls == list(primes)
    cyclotomic_experiment(67)  # past the cross-check's reach
    assert calls == list(primes)
