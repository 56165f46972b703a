"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Expected values are either pinned constants checked
against independent oracles (multiplication sieve, divisor scans, direct
expansion) or cross-route comparisons between closed forms and exhaustive
enumeration.
"""

import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from sgpoly import (
    AlgebraContext,
    Polynomial,
    b_counts,
    bound_density,
    count_aq,
    count_classes,
    count_rq,
    count_s,
    cyclotomic_experiment,
    find_subproduct,
    friendly_density,
    from_generators,
    is_irreducible_fq,
    is_member,
    iter_irreducible,
    mult_order,
    q_transform,
)
from oracles import all_monic, is_palindrome

SGPOLY = [sys.executable, "-m", "sgpoly"]


@contextmanager
def criterion(number, name, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget}s)"
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({elapsed:.2f}s / {budget}s)")


def test_criterion_01_degree_four_golden(friendly):
    with criterion(1, "degree-4 golden listing", 1.0):
        items = list(iter_irreducible(friendly, 4))
        texts = {str(poly) for poly, _, _ in items}
        assert texts == {
            "x^4+x^3+1",
            "x^4+x^3+x^2",
            "x^4+x^3",
            "x^4+x^3+x^2+1",
            "x^4+x^2+1",
        }
        kinds = sorted(str(cls) for _, _, cls in items)
        assert kinds == ["classic", "tame(2)", "tame(3)", "wild", "wild"]
        assert b_counts(4)[3] == 5 == len(items)


def test_criterion_02_closed_form_vs_enumeration(friendly):
    with criterion(2, "counts vs enumeration, degrees 2..18", 60.0):
        for n in range(2, 19):
            closed = b_counts(n)
            brute = count_classes(friendly, n).as_tuple()
            assert closed == brute, f"degree {n}: {closed} != {brute}"


def test_criterion_03_degree_five_adjudication(friendly):
    with criterion(3, "degree-5 class split", 1.0):
        by_kind = {"classic": set(), "tame": set(), "wild": set()}
        for poly, _, cls in iter_irreducible(friendly, 5):
            by_kind[cls.kind].add(str(poly))
        assert by_kind["classic"] == {
            "x^5+x^2+1", "x^5+x^3+1", "x^5+x^4+x^3+x^2+1",
        }
        assert by_kind["tame"] == {"x^5+x^3+x^2", "x^5+x^4+x^3"}
        assert by_kind["wild"] == {"x^5+1", "x^5+x^4+1", "x^5+x^4+x^2+1"}
        assert b_counts(5) == (3, 2, 3, 8)


def test_criterion_04_moebius_counts(f2, f3, f2_sieve, f3_sieve):
    with criterion(4, "Moebius formula vs exhaustive census", 30.0):
        for n in range(1, 15):
            assert count_aq(n, 2) == len(f2_sieve[n])
        for n in range(1, 10):
            assert count_aq(n, 3) == len(f3_sieve[n])
        # the sieve is an independent enumeration; spot-weld it to the
        # production irreducibility test at moderate degrees
        for n in (11, 12):
            census = sum(1 for f in all_monic(f2, n) if is_irreducible_fq(f))
            assert census == count_aq(n, 2)


def test_criterion_05_carlitz_chain(f2_sieve):
    with criterion(5, "linear-term census chain", 30.0):
        for n in range(1, 15):
            census = sum(
                1 for f in f2_sieve[n]
                if f.coeff(1) != 0 and f.constant_term != 0
            )
            assert count_s(n) == count_rq(n, 2) == census
        for n in range(1, 8):
            pal = sum(1 for f in f2_sieve[2 * n] if is_palindrome(f))
            assert pal == count_rq(n, 2)


def test_criterion_06_meyn_and_surjectivity(f2, f2_sieve):
    with criterion(6, "doubling transform", 10.0):
        for n in range(2, 9):
            for f in f2_sieve[n]:
                transformed = q_transform(f)
                assert is_irreducible_fq(transformed) == (f.coeff(1) == 1)
        for n in range(1, 7):
            targets = {g for g in f2_sieve[2 * n] if is_palindrome(g)}
            images = {q_transform(f) for f in all_monic(f2, n)}
            assert targets <= images


def test_criterion_07_bound_suite():
    with criterion(7, "density bounds and decay", 10.0):
        for q in (2, 3, 5):
            for n in range(2, 65):
                assert Fraction(count_aq(n, q), q ** n) <= Fraction(1, n)
        for n in range(2, 19):
            b = b_counts(n)[3]
            bound = bound_density(n)
            assert Fraction(b, 2 ** n) <= bound
            # the density itself (2 * b(n)/2^n) stays under the bound ...
            assert friendly_density(n) <= bound
            # ... and so does twice the density, except at n = 3, where every
            # degree-3 member is irreducible (rho = 1, bound 11/6): known
            # single-point failure of the doubled reading
            if n != 3:
                assert 2 * friendly_density(n) <= bound
        assert 2 * friendly_density(3) > bound_density(3) == Fraction(11, 6)
        rho4, rho8, rho18 = friendly_density(4), friendly_density(8), friendly_density(18)
        assert rho4 == Fraction(5, 8)
        assert rho8 == Fraction(21, 64)
        assert rho18 < rho8 < rho4


def test_criterion_08_structural_lemmas(f2, f3, friendly, ctx345):
    with criterion(8, "structural lemmas", 60.0):
        # subproduct clearing: 500 seeded instances
        rng = random.Random(20260809)
        cases = [(f2, 2), (f2, 3), (f2, 4), (f3, 2), (f3, 1)]
        for i in range(500):
            field, level = cases[i % len(cases)]
            p = field.p
            k = p ** (level - 1) + rng.randrange(4)
            polys = []
            for _ in range(k):
                coeffs = [rng.randrange(1, p)] + [
                    rng.randrange(p) for _ in range(rng.randint(1, 6))
                ]
                polys.append(Polynomial.from_ints(field, coeffs))
            idx = find_subproduct(polys, level)
            prod = Polynomial.one(field)
            for j in idx:
                prod = prod * polys[j]
            assert all(prod.coeff(d) == 0 for d in range(1, level))

        # divisor closedness: 500 seeded pairs per (q, S) combination
        for field in (f2, f3):
            for gens in ((2, 3), (3, 4, 5)):
                ctx = AlgebraContext(field, from_generators(gens))
                contains = ctx.semigroup.contains
                p = field.p
                pair_rng = random.Random(1000 * p + sum(gens))
                for _ in range(500):
                    gc = [0] * 13
                    gc[0] = pair_rng.randrange(1, p)
                    for i in range(1, 13):
                        if contains(i):
                            gc[i] = pair_rng.randrange(p)
                    g = Polynomial(field, tuple(gc))
                    h = Polynomial(
                        field,
                        tuple(pair_rng.randrange(p) for _ in range(pair_rng.randint(1, 13))),
                    )
                    if h.is_zero:
                        continue
                    assert is_member(ctx, g * h) == is_member(ctx, h)

        # factorization shape bounds over all irreducibles of degree <= 12
        for n in range(2, 13):
            for _, fac, _ in iter_irreducible(ctx345, n):
                m = sum(e for g, e in fac.factors if g.coeffs == (0, 1))
                k = sum(e for g, e in fac.factors if g.coeffs != (0, 1))
                assert m < 6
                assert k == 0 or k <= 4


def test_criterion_09_partition_bound():
    from sgpoly import partition_sum

    with criterion(9, "partition-sum bound, base-2 logarithm", 10.0):
        slack = 1e-12
        for n in range(2, 41):
            for k in range(1, min(n, 6) + 1):
                value = partition_sum(n, k)
                bound = (2 ** (k - 1)) * math.log2(n) ** (k - 1) / n
                assert float(value) <= bound + slack, (n, k)
        assert partition_sum(2, 2) == Fraction(1)
        assert float(partition_sum(2, 2)) == 2 * math.log2(2) / 2  # equality at (2,2)
        natural = 2 * math.log(2) / 2
        assert float(partition_sum(2, 2)) > natural + 0.3  # natural-log reading fails


def _primes_below(limit):
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, limit, i)))
    return [p for p in range(3, limit) if sieve[p]]


def test_criterion_10_cyclotomic_experiment():
    with criterion(10, "x^p+1 verdicts for 2 < p < 1000", 10.0):
        records = {p: cyclotomic_experiment(p) for p in _primes_below(1000)}
        for p, rec in records.items():
            assert rec.irreducible_in_algebra == (mult_order(2, p) == p - 1)
            if rec.irreducible_in_algebra:
                assert rec.p_mod_8 in (3, 5), p
        assert not records[7].irreducible_in_algebra
        assert not records[43].irreducible_in_algebra and records[43].p_mod_8 == 3
        assert records[131].irreducible_in_algebra and records[131].p_mod_8 == 3
        assert not records[409].irreducible_in_algebra and records[409].p_mod_8 == 1
        # records for p <= 61 were cross-checked against direct factorization
        # inside cyclotomic_experiment; reaching here means none disagreed


def test_criterion_11_worker_determinism(tmp_path):
    with criterion(11, "byte-identical output across worker counts", 120.0):
        outputs = []
        for workers in ("1", "4"):
            path = tmp_path / f"acc-count-w{workers}.csv"
            proc = subprocess.run(
                SGPOLY + [
                    "count", "--max-degree", "12",
                    "--workers", workers, "--output", str(path),
                ],
                capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

        sharded = []
        for workers in ("1", "4"):
            path = tmp_path / f"acc-scan-w{workers}.csv"
            proc = subprocess.run(
                SGPOLY + [
                    "verify", "--sgp", "3,4,5", "--max-degree", "14",
                    "--workers", workers, "--output", str(path),
                ],
                capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            sharded.append(path.read_bytes())
        assert sharded[0] == sharded[1]
