"""Algebra membership, enumeration, verdicts, classification, subproducts."""

import pickle
import random
import time
from functools import partial
from itertools import islice
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgpoly import (
    CLASSIC,
    WILD,
    AlgebraContext,
    ClassCounts,
    FieldSpec,
    FqFactorization,
    Polynomial,
    b_counts,
    classify_friendly,
    count_classes,
    enumerate_degree,
    factor_fq,
    factorization_shape,
    find_subproduct,
    format_poly,
    from_generators,
    is_irreducible_in_algebra,
    is_member,
    iter_irreducible,
    member_count,
    parse_poly,
    tame,
)
from sgpoly import sgalg
from oracles import all_monic, divisor_scan_verdict, divisor_scan_witness, support_member


def rand_member(rng, ctx, max_degree):
    # random algebra member with nonzero constant term
    contains = ctx.semigroup.contains
    p = ctx.field.p
    while True:
        coeffs = [0] * (max_degree + 1)
        coeffs[0] = rng.randrange(1, p)
        for i in range(1, max_degree + 1):
            if contains(i):
                coeffs[i] = rng.randrange(p)
        f = Polynomial(ctx.field, tuple(coeffs))
        if f.degree >= 1:
            return f


# -- membership --------------------------------------------------------------


def test_membership_examples(f2, friendly):
    assert not is_member(friendly, parse_poly("x^4+x", f2))
    assert is_member(friendly, parse_poly("x^4+x^3+1", f2))
    assert is_member(friendly, Polynomial.zero(f2))
    everything = AlgebraContext(f2, from_generators((1,)))
    rng = random.Random(3)
    for _ in range(50):
        coeffs = tuple(rng.randrange(2) for _ in range(12))
        assert is_member(everything, Polynomial(f2, coeffs))


def test_membership_is_support_based(f3):
    ctx = AlgebraContext(f3, from_generators((2, 3)))
    assert is_member(ctx, parse_poly("2*x^2+1", f3))
    assert not is_member(ctx, parse_poly("x^2+2*x", f3))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_is_member_matches_the_support_oracle(data):
    # the gap-digit test of the residue against the support, on polynomials
    # of any leading coefficient up to degree 3w, the zero one included
    q = data.draw(st.sampled_from((2, 3, 5, 7, 257)))
    gens = data.draw(st.sampled_from(RING_SEMIGROUPS + SIGNATURE_SEMIGROUPS))
    ctx = AlgebraContext(FieldSpec(q), from_generators(gens))
    w = ctx.semigroup.frobenius + 1
    f = Polynomial(ctx.field, tuple(data.draw(st.lists(st.integers(0, q - 1), max_size=3 * w + 1))))
    assert is_member(ctx, f) == support_member(ctx, f)


def test_is_member_refuses_another_field(f2, f3, friendly):
    for ctx, f in ((friendly, parse_poly("x^3+1", f3)),
                   (AlgebraContext(f3, from_generators((2, 3))), parse_poly("x^3+1", f2))):
        with pytest.raises(ValueError, match="field does not match"):
            is_member(ctx, f)


# -- enumeration -------------------------------------------------------------


def test_enumerate_gap_degree_is_empty(friendly):
    assert list(enumerate_degree(friendly, 1)) == []


def test_enumerate_degree_three(f2, friendly):
    expected = ["x^3", "x^3+1", "x^3+x^2", "x^3+x^2+1"]
    got = [format_poly(f) for f in enumerate_degree(friendly, 3)]
    assert got == expected


def test_enumerate_degree_five_count(friendly):
    items = list(enumerate_degree(friendly, 5))
    assert len(items) == 16 == member_count(friendly, 5)
    masks = [f.mask for f in items]
    assert masks == sorted(masks)
    assert list(enumerate_degree(friendly, 5, 3, 9)) == items[3:9]


def test_enumerate_matches_filtered_scan(f2, f3, ctx345):
    # the stream must equal the membership filter over all monic polynomials
    contexts = [ctx345, AlgebraContext(f3, from_generators((2, 3)))]
    for ctx in contexts:
        for n in range(0, 7):
            direct = [f for f in all_monic(ctx.field, n) if is_member(ctx, f)]
            if not ctx.semigroup.contains(n):
                direct = []
            assert list(enumerate_degree(ctx, n)) == direct


def test_enumerate_degree_zero(friendly):
    assert [f.coeffs for f in enumerate_degree(friendly, 0)] == [(1,)]
    with pytest.raises(ValueError):
        list(enumerate_degree(friendly, -1))


def test_enumerate_refuses_a_degree_over_the_scan_guard(friendly):
    # the listing decodes the scans' digit tables, of about the square root
    # of the members each, so like a scan it stops at MAX_SCAN members
    with pytest.raises(ValueError, match="member scans"):
        next(enumerate_degree(friendly, 60, 0, 1))


# -- verdicts ----------------------------------------------------------------


def test_verdict_x6_reducible(f2, friendly):
    v = is_irreducible_in_algebra(friendly, parse_poly("x^6", f2))
    assert v.is_reducible
    g, h = v.witness
    assert g * h == parse_poly("x^6", f2)
    assert is_member(friendly, g) and is_member(friendly, h)
    # smallest valid divisor first: x^2 beats the x^3 * x^3 split
    assert format_poly(g) == "x^2" and format_poly(h) == "x^4"


def test_verdict_irreducible_example(f2, friendly):
    v = is_irreducible_in_algebra(friendly, parse_poly("x^4+x^3+x^2+1", f2))
    assert v.is_irreducible
    assert v.classification == WILD


def test_verdict_witness_example(f2, friendly):
    v = is_irreducible_in_algebra(friendly, parse_poly("x^5+x^3+x^2+1", f2))
    assert v.is_reducible
    g, h = v.witness
    assert (format_poly(g), format_poly(h)) == ("x^2+1", "x^3+1")


def test_verdict_non_monic_witness(f3):
    # 2*x^4+1 = 2*(x+1)*(x+2)*(x^2+1); both degree-2 divisors are members,
    # the least key wins, and the leading unit rides on the second half
    ctx = AlgebraContext(f3, from_generators((2, 3)))
    v = is_irreducible_in_algebra(ctx, parse_poly("2*x^4+1", f3))
    assert v.is_reducible
    assert [format_poly(w) for w in v.witness] == ["x^2+1", "2*x^2+1"]


def test_verdict_witness_among_repeated_factors(f3):
    # f = x^2 * (x+2)^2 * (x^2+x+2) * (x^3+2*x^2+2*x+2) has three member
    # halves of the least degree 4: x^4+x^3+x^2 = x^2*(x+2)^2 and
    # x^4+2*x^3+x^2+2 = (x+2)^2*(x^2+x+2), both from repeated factors, and
    # x^4+x^3+1 = (x+2)*(x^3+2*x^2+2*x+2).  The last has the least key, and
    # in the divisor lattice it is only the complement of a split, listed
    # after the other two
    ctx = AlgebraContext(f3, from_generators((2, 3)))
    f = parse_poly("x^9+x^8+x^7+2*x^6+2*x^5+x^3+x^2", f3)
    v = is_irreducible_in_algebra(ctx, f)
    assert v.witness == divisor_scan_witness(ctx, f)
    assert [format_poly(w) for w in v.witness] == ["x^4+x^3+1", "x^5+x^3+x^2"]


def test_verdict_units_and_rejects(f2, friendly):
    assert is_irreducible_in_algebra(friendly, Polynomial.one(f2)).kind == "unit"
    assert is_irreducible_in_algebra(friendly, parse_poly("x^4+x", f2)).kind == "not_member"
    with pytest.raises(ValueError):
        is_irreducible_in_algebra(friendly, Polynomial.zero(f2))
    with pytest.raises(ValueError):
        is_irreducible_in_algebra(friendly, parse_poly("x^2+1", FieldSpec(3)))


def test_verdicts_match_divisor_scan_oracle(friendly, ctx345, f3):
    ctx33 = AlgebraContext(f3, from_generators((2, 3)))
    rng = random.Random(1234)
    for ctx in (friendly, ctx345, ctx33):
        exhaustive = 9 if ctx.field.p == 2 else 6
        for n in range(2, 9):
            for f in enumerate_degree(ctx, n):
                if n >= exhaustive and rng.random() < 0.92:
                    continue  # sampled above the exhaustive range
                if ctx.field.p == 2 and rng.random() < 0.55:
                    continue
                # the oracle's first divisor is the least by canonical key,
                # the witness rule, so the whole pair must match
                v = is_irreducible_in_algebra(ctx, f)
                witness = divisor_scan_witness(ctx, f)
                assert v.kind == ("irreducible" if witness is None else "reducible")
                assert v.witness == witness


def test_f2_verdicts_past_the_oracle_match_a_factor_fq_reference(monkeypatch, f2, friendly):
    # F_2[x^2,x^3] at degrees 20-30, where the divisor scan would take
    # minutes: kind, classification and witness equal a reference built
    # from factor_fq's factors, the splitting kernel on their codes, and
    # the least canonical-key half multiplied out from every member split.
    # Inputs are seeded members, x^k * g^2, and products of two distinct
    # irreducibles of one degree, whose distinct-degree step leaves a
    # product that the equal-degree split must cut
    from sgpoly.ffpoly import canonical_key

    def reference(f):
        factors = factor_fq(f).factors
        codes = [(g.encoding, e) for g, e in factors]
        splits = list(sgalg._member_splits(codes, sgalg._residue_ring(friendly)))
        if not splits:
            m, k = sgalg._shape_of(factors, Polynomial.x(f2))
            return "irreducible", sgalg._friendly_class_of(m, k), None
        sizes = [e + 1 for _, e in factors]
        last = prod(sizes) - 1

        def half(j):
            out = Polynomial.one(f2)
            for (g, _), size in zip(factors, sizes):
                j, a = divmod(j, size)
                out = out * g ** a
            return out

        g = min((half(j) for i in splits for j in (i, last - i)), key=canonical_key)
        return "reducible", None, (g, f // g)

    def irreducibles(rng, d, x_coeff):
        # distinct irreducibles of degree d with the given x coefficient
        out = set()
        while len(out) < 2:
            low = [1, x_coeff, *(rng.randrange(2) for _ in range(d - 2))]
            g = Polynomial(f2, (*low, 1))
            if factor_fq(g).factors == ((g, 1),):
                out.add(g)
        return out

    split_degrees = []
    split = sgalg._gf2._split_equal_degree

    def counted(g, d, rng):
        split_degrees.append((g.bit_length() - 1, d))
        return split(g, d, rng)

    rng = random.Random(29)
    inputs = []
    for n in range(20, 31):
        low = [1, 0, *(rng.randrange(2) for _ in range(n - 2))]
        inputs.append((Polynomial(f2, (*low, 1)), None))
        k = rng.choice([k for k in (0, 2, 3, 4) if (n - k) % 2 == 0])
        d = (n - k) // 2
        g = Polynomial(f2, (1, *(rng.randrange(2) for _ in range(d - 1)), 1))
        inputs.append((Polynomial.monomial(f2, k) * g * g, None))
    for d in range(10, 16):
        a, b = irreducibles(rng, d, d % 2)  # equal x coefficients: the product is a member
        inputs.append((a * b, d))
    monkeypatch.setattr(sgalg._gf2, "_split_equal_degree", counted)
    kinds = set()
    for f, d in inputs:
        assert is_member(friendly, f) and f.degree in range(20, 31)
        split_degrees.clear()
        v = is_irreducible_in_algebra(friendly, f)
        if d is not None:
            assert split_degrees == [(2 * d, d)]
            kinds.add(v.kind)
        assert (v.kind, v.classification, v.witness) == reference(f)
        if v.witness is not None:
            g, h = v.witness
            assert g * h == f
    assert kinds == {"irreducible", "reducible"}


# members the oracle may divide by for one verdict: keeps each example fast
ORACLE_DIVISORS = 1500


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_verdict_witnesses_property(data):
    # a random member f of degree <= 10, not necessarily monic, over random
    # (q, S): the verdict is the oracle's, and a reducible one's witness is
    # the oracle's (g, f // g), g the least monic member divisor by
    # canonical key whose cofactor is a member
    q = data.draw(st.sampled_from((2, 3, 5)))
    ctx = AlgebraContext(FieldSpec(q), from_generators(data.draw(st.sampled_from(RING_SEMIGROUPS))))
    contains = ctx.semigroup.contains
    n = data.draw(st.sampled_from([
        n for n in range(1, 11)
        if contains(n) and sum(member_count(ctx, d) for d in range(n)) <= ORACLE_DIVISORS
    ]))
    low = [data.draw(st.integers(0, q - 1)) if contains(i) else 0 for i in range(n)]
    f = Polynomial(ctx.field, (*low, data.draw(st.integers(1, q - 1))))
    v = is_irreducible_in_algebra(ctx, f)
    witness = divisor_scan_witness(ctx, f)
    assert v.kind == ("irreducible" if witness is None else "reducible")
    assert v.witness == witness


def test_degenerate_semigroup_matches_field_irreducibility(f2):
    from sgpoly import is_irreducible_fq

    ctx = AlgebraContext(f2, from_generators((1,)))
    for f in all_monic(f2, 6):
        v = is_irreducible_in_algebra(ctx, f)
        assert v.is_irreducible == is_irreducible_fq(f)
        assert v.classification is None


# -- divisor closedness (membership survives exact division) ------------------


def test_divisor_closedness_property(f2, f3):
    rng = random.Random(2022)
    for field in (f2, f3):
        for gens in ((2, 3), (3, 4, 5)):
            ctx = AlgebraContext(field, from_generators(gens))
            for _ in range(250):
                g = rand_member(rng, ctx, 12)
                hc = tuple(rng.randrange(field.p) for _ in range(rng.randint(1, 12)))
                h = Polynomial(field, hc)
                if h.is_zero:
                    continue
                assert is_member(ctx, g * h) == is_member(ctx, h)


# -- classification ----------------------------------------------------------


def test_classify_examples(f2):
    assert classify_friendly(parse_poly("x^4+x^3+1", f2)) == CLASSIC
    assert classify_friendly(parse_poly("x^5+x^3+x^2", f2)) == tame(2)
    assert classify_friendly(parse_poly("x^4+x^2+1", f2)) == WILD
    assert classify_friendly(parse_poly("x^5+x^2+1", f2)) == CLASSIC
    assert classify_friendly(parse_poly("x^2", f2)) == tame(2)
    assert classify_friendly(parse_poly("x^3", f2)) == tame(3)
    assert classify_friendly(parse_poly("x^2+1", f2)) == WILD


def test_classify_rejects(f2, f3):
    with pytest.raises(ValueError):
        classify_friendly(parse_poly("x^6", f2))  # reducible in the algebra
    with pytest.raises(ValueError):
        classify_friendly(parse_poly("x^4+x", f2))  # not a member
    with pytest.raises(ValueError):
        classify_friendly(parse_poly("x^2+1", f3))  # wrong field
    with pytest.raises(ValueError):
        classify_friendly(Polynomial.one(f2))  # unit


def test_trichotomy_degrees_2_to_16(friendly):
    # every irreducible lands in exactly one class, and wild splits carry
    # nonzero linear terms in both halves
    for n in range(2, 17):
        counts = count_classes(friendly, n)
        seen = 0
        for poly, fac, cls in iter_irreducible(friendly, n):
            seen += 1
            assert cls is not None
            assert classify_friendly(poly) == cls
            if cls == WILD:
                parts = [g for g, e in fac.factors for _ in range(e)]
                assert len(parts) == 2
                for g in parts:
                    assert g.coeff(1) == 1 and g.constant_term == 1
            elif cls.kind == "tame":
                x_power = sum(e for g, e in fac.factors if g.coeffs == (0, 1))
                assert x_power == cls.monomial_power
        assert seen == counts.total
        assert counts.classic + counts.tame + counts.wild == counts.total


# -- factorization shape ------------------------------------------------------


def test_shape_examples(f2, friendly):
    shape = factorization_shape(friendly, parse_poly("x^5+x^3+x^2", f2))
    assert (shape.m, shape.k) == (2, 1)
    shape = factorization_shape(friendly, parse_poly("x^4+x^2+1", f2))
    assert (shape.m, shape.k) == (0, 2)
    shape = factorization_shape(friendly, parse_poly("x^3", f2))
    assert (shape.m, shape.k) == (3, 0)
    with pytest.raises(ValueError):
        factorization_shape(friendly, parse_poly("x^4+x", f2))
    with pytest.raises(ValueError):
        factorization_shape(friendly, Polynomial.zero(f2))


def test_shape_bounds_for_irreducibles(friendly, ctx345):
    # m < 2*(F(S)+1) and k <= q^F(S) (or k = 0 for pure monomials)
    for ctx in (friendly, ctx345):
        frob = ctx.semigroup.frobenius
        for n in range(2, 13):
            for poly, fac, _ in iter_irreducible(ctx, n):
                shape = factorization_shape(ctx, poly)
                assert shape.m < 2 * (frob + 1)
                assert shape.k == 0 or 1 <= shape.k <= 2 ** frob


# -- subproduct search --------------------------------------------------------


def test_subproduct_level_one_picks_first(f2):
    polys = [parse_poly("x+1", f2), parse_poly("x^2+x+1", f2)]
    assert find_subproduct(polys, 1) == (0,)


def test_subproduct_examples(f2):
    polys = [parse_poly("x+1", f2), parse_poly("x+1", f2)]
    assert find_subproduct(polys, 2) == (0, 1)
    polys = [parse_poly("x+1", f2), parse_poly("x^2+x+1", f2)]
    assert find_subproduct(polys, 2) == (0, 1)
    prod = polys[0] * polys[1]
    assert format_poly(prod) == "x^3+1"


def test_subproduct_errors(f2, f3):
    good = [parse_poly("x+1", f2)] * 4
    with pytest.raises(ValueError):
        find_subproduct(good[:1], 2)  # too few
    with pytest.raises(ValueError):
        find_subproduct([parse_poly("x", f2)] * 4, 2)  # zero constant term
    with pytest.raises(ValueError):
        find_subproduct([parse_poly("x+1", f2), parse_poly("x+1", f3)], 1)
    with pytest.raises(ValueError):
        find_subproduct([], 1)
    with pytest.raises(ValueError):
        find_subproduct(good, 0)


def test_subproduct_contract_seeded(f2, f3):
    rng = random.Random(424242)
    cases = [(f2, 2), (f2, 3), (f2, 4), (f3, 2)]
    for _ in range(200):
        field, level = cases[rng.randrange(len(cases))]
        p = field.p
        k = p ** (level - 1) + rng.randrange(3)
        polys = []
        for _ in range(k):
            coeffs = [rng.randrange(1, p)] + [
                rng.randrange(p) for _ in range(rng.randint(1, 5))
            ]
            polys.append(Polynomial.from_ints(field, coeffs))
        idx = find_subproduct(polys, level)
        assert idx == tuple(sorted(set(idx)))
        assert all(0 <= i < k for i in idx)
        prod = Polynomial.one(field)
        for i in idx:
            prod = prod * polys[i]
        assert all(prod.coeff(d) == 0 for d in range(1, level))


# -- bulk scanning guts --------------------------------------------------------


def table_factors(spf, cof, a):
    # (factor, multiplicity) pairs of code a, ascending, read off a factor table
    out = {}
    while a != 1:
        g = spf[a] or a
        out[g] = out.get(g, 0) + 1
        a = cof[a]
    return list(out.items())


def reference_verdict(ctx, ring, f, fac=None):
    # (unsplit, m, k) of member code f from factor_fq (or its result fac)
    # and a lattice of its own, on a ring apart from ctx's and with equal
    # residues left unmerged
    fac = fac or factor_fq(Polynomial.from_encoding(ctx.field, f))
    codes = [(g.encoding, e) for g, e in fac.factors]
    unsplit = next(sgalg._member_splits(codes, ring), None) is None
    return (unsplit, *sgalg._shape_of(fac.factors, Polynomial.x(ctx.field)))


def check_ids(ctx, ring, table, codes):
    # each member's id, resolved on the scan's table, holds the slots of
    # factor_fq's factors, one per factor and multiplicity, and carries the
    # reference verdict; returns (member, verdict, factor_fq's
    # factorization) per member
    decode = partial(Polynomial.from_encoding, ctx.field)
    sigs = ctx.signatures
    out = []
    for f, sid in zip(codes, sigs.ids(codes, table)):
        fac = factor_fq(decode(f))
        slots = [g.encoding % sigs.slot_mod for g, e in fac.factors for _ in range(e)]
        assert sorted(sigs.slots(sid)) == sorted(slots)
        assert sigs.verdict(sid) == reference_verdict(ctx, ring, f, fac)
        out.append((f, sigs.verdict(sid), fac))
    return out


@pytest.mark.parametrize(
    "q, gens, top, sampled",
    [
        (2, (2, 3), 12, 12),
        (2, (1,), 10, 10),
        (3, (3, 4, 5), 9, 12),
        (5, (2, 3), 5, 5),
        (2, (4, 5, 6, 7), 13, 13),
    ],
    ids=["f2", "f2-N", "f3", "f5", "f2-4567"],
)
def test_scan_factor_lists_match_factor_fq(monkeypatch, q, gens, top, sampled):
    # the table route: every member's signature id holds its factors'
    # slots and carries the (unsplit, m, k) that factor_fq and a per-member
    # lattice give, and the listing gives factor_fq's factors for the
    # irreducible ones, for every member up to degree top.  Degrees are
    # scanned in turn from an empty table cache, so each scan rebuilds the
    # table to a higher degree and extends the id array the earlier scans
    # filled, and each degree is scanned in three uneven ranges, as pool
    # chunks cut it.  Over N, w = 0 and every residue is 0: only x's own
    # slot gives m.  F_3[<3,4,5>] adds 100 seeded single members at each of
    # degrees 10-12, on a table rebuilt to 12, each listed by the walk
    # iter_irreducible makes (factor_fq for all 88k members to degree 12
    # would take 18 s)
    monkeypatch.setattr(sgalg, "_TABLES", {})
    ctx = AlgebraContext(FieldSpec(q), from_generators(gens))
    ring = sgalg._residue_ring(ctx)
    lengths = []
    for n in range(1, top + 1):
        total = member_count(ctx, n)
        cuts = [0, total // 3, min(2 * total // 3 + 1, total), total]
        seen = []
        for lo, hi in zip(cuts, cuts[1:]):
            blocks, table = sgalg._scan(ctx, n, lo, hi)
            for codes in blocks:
                assert table is sgalg._TABLES[q][1]
                seen += check_ids(ctx, ring, table, codes)
        assert [f for f, _, _ in seen] == [g.encoding for g in enumerate_degree(ctx, n)]
        listed = [(f.encoding, fac) for f, fac, _ in iter_irreducible(ctx, n)]
        assert listed == [(f, fac) for f, (unsplit, _, _), fac in seen if unsplit]
        if "signatures" in vars(ctx):
            lengths.append(len(ctx.signatures.sig))
    assert lengths == sorted(lengths) and len(set(lengths)) > 1
    assert lengths[-1] == sgalg.table_entries(q, top)
    if sampled == top:
        return
    sgalg.prepare_factor_table(q, sampled)
    rng = random.Random(16)
    for n in range(top + 1, sampled + 1):
        for i in rng.sample(range(member_count(ctx, n)), 100):
            blocks, table = sgalg._scan(ctx, n, i, i + 1)
            [codes] = blocks
            [(f, (unsplit, m, k), fac)] = check_ids(ctx, ring, table, codes)
            factors = [(g.encoding, e) for g, e in fac.factors]
            walked = sgalg._walked(ctx.signatures, [codes], table)
            assert list(walked) == ([(f, factors, m, k)] if unsplit else [])
    assert len(ctx.signatures.sig) == sgalg.table_entries(q, sampled)


def test_scan_factor_lists_match_factor_fq_off_the_table(monkeypatch):
    # F_257[x^2,x^3] and F_31[x^2,x^3] at degree 5 scan by factor_fq (a
    # table would pass the cap), and 100 seeded members each of F_2[<4,7>]
    # at degree 18 and F_2[<5,7>] at 17, where a table does not pay, by
    # _gf2.factor on their codes; each member's factors, shape and verdict
    # match factor_fq's reference.  The one F_31 member scanned is
    # (x^2+c)(x^3+b*x^2+c), two irreducibles with the residue c mod x^2
    # that split it, and x^5 over F_31 splits only as x^2 * x^3, through
    # its multiplicity.  An empty table cache keeps an F_2 table that
    # other scans built from covering the F_2 degrees
    def irreducible(f):
        return factor_fq(f).factors == ((f, 1),)

    f31 = FieldSpec(31)
    c = next(c for c in range(1, 31) if irreducible(parse_poly(f"x^2+{c}", f31)))
    b = next(b for b in range(31) if irreducible(parse_poly(f"x^3+{b}*x^2+{c}", f31)))
    product = parse_poly(f"x^2+{c}", f31) * parse_poly(f"x^3+{b}*x^2+{c}", f31)
    i = sum(product.coeff(pos) * 31 ** j for j, pos in enumerate((0, 2, 3, 4)))  # its index
    monkeypatch.setattr(sgalg, "_TABLES", {})
    rng = random.Random(29)
    scans = [(257, (2, 3), 2, [(0, None)]), (257, (2, 3), 3, [(1000, 1300)]),
             (31, (2, 3), 5, [(0, 1)]), (31, (2, 3), 5, [(i, i + 1)])]
    for gens, n in (((4, 7), 18), ((5, 7), 17)):
        ctx = AlgebraContext(FieldSpec(2), from_generators(gens))
        scans.append((2, gens, n, [(j, j + 1) for j in rng.sample(range(member_count(ctx, n)), 100)]))
    items = []
    for q, gens, n, ranges in scans:
        ctx = AlgebraContext(FieldSpec(q), from_generators(gens))
        assert not sgalg.table_pays(ctx, n)
        ring = sgalg._residue_ring(ctx)
        codes = []
        for lo, hi in ranges:
            blocks, table = sgalg._scan(ctx, n, lo, hi)
            assert table is None
            codes += [f for block in blocks for f in block]
        for f in codes:
            found = list(sgalg._factored(ctx, [[f]]))
            fac = factor_fq(Polynomial.from_encoding(ctx.field, f))
            factors = [(g.encoding, e) for g, e in fac.factors]
            verdict = reference_verdict(ctx, ring, f)
            unsplit, m, k = verdict
            assert found == ([(f, factors, m, k)] if unsplit else [])
            items.append((f, verdict))
    assert len(items) == 257 + 300 + 1 + 1 + 200
    assert items[557:559] == [(31 ** 5, (False, 5, 0)), (product.encoding, (False, 0, 2))]
    assert {unsplit for _, (unsplit, _, _) in items[559:]} == {False, True}


@pytest.mark.parametrize("p, top", [(2, 8), (2, 11), (2, 13), (3, 7), (5, 5), (7, 4)])
def test_basep_tables_match_a_factor_fq_table(p, top):
    # the reference puts factor_fq's least factor and the quotient at every
    # monic code, (0, 1) at an irreducible and at every other code; a
    # table of any degree D is the reference cut to its 2*p^D entries.  The
    # walks start at a*(x^e + t) for t = 1..p-1 (six starts over F_7), where
    # a*x^e and t*a share digit e when e = deg(a), and degrees up to 2 give
    # walk arrays of one entry; over F_2, at degree 13, walks of up to 2^11
    # xor steps pin the step shift, the start and the closed-form offsets
    field = FieldSpec(p)
    size = sgalg.table_entries(p, top)
    spf, cof = [0] * size, [1] * size
    for a in range(p, size):
        f = Polynomial.from_encoding(field, a)
        if f.leading_coeff != 1:
            continue
        factors = factor_fq(f).factors
        if factors != ((f, 1),):
            g = factors[0][0]
            spf[a], cof[a] = g.encoding, (f // g).encoding
    for degree in range(top + 1):
        built = sgalg._basep_tables(p, degree)
        end = sgalg.table_entries(p, degree)
        assert [list(t) for t in built] == [spf[:end], cof[:end]]


def test_count_ranges_that_cut_digit_rows_add_up():
    # member i sits in row i // len(low) of the scans' digit tables; ranges
    # that start and end inside rows, single members among them, absorb
    # into the full-degree counts
    for ctx, n in ((AlgebraContext(FieldSpec(2), from_generators((2, 3))), 12),
                   (AlgebraContext(FieldSpec(3), from_generators((3, 4, 5))), 8)):
        total = member_count(ctx, n)
        row = len(sgalg._member_tables(ctx, n, 0, None)[2])
        assert 1 < row < total
        cuts = [0, 1, 2, row + 1, row + 2, 3 * row - 1, total - row // 2, total - 1, total]
        assert all(c % row for c in cuts[1:-1])
        merged = ClassCounts()
        for lo, hi in zip(cuts, cuts[1:]):
            merged.absorb(count_classes(ctx, n, lo, hi))
        assert merged == count_classes(ctx, n)


def test_gf2_scans_factor_without_division(monkeypatch, f2):
    # with the table cached, p = 2 scans factor by lookups alone and never
    # call the GF(2) bit-loop division
    sgalg.prepare_factor_table(2, 12)

    def refuse(*args):
        raise AssertionError("a p = 2 scan divided")

    monkeypatch.setattr(sgalg._gf2, "divrem", refuse)
    ctx = AlgebraContext(f2, from_generators((2, 3)))  # a fresh ring memo
    assert count_classes(ctx, 12).as_tuple() == b_counts(12)
    items = list(iter_irreducible(ctx, 12))
    assert len(items) == b_counts(12)[3]
    assert all(fac.expand() == f for f, fac, _ in items)


@pytest.mark.parametrize("p, top", [(2, 12), (3, 7), (5, 4)])
def test_basep_table_factors_every_monic_code(p, top):
    # built at exactly this degree, so irreducibles with 2*deg = top and the
    # Gray walk's start cofactor x^e are on the edge; a missed start once made
    # x^2 look irreducible
    field = FieldSpec(p)
    spf, cof = sgalg._basep_tables(p, top)
    for d in range(top + 1):
        for code in range(p ** d, 2 * p ** d):
            f = Polynomial.from_encoding(field, code)
            expected = [(g.encoding, e) for g, e in factor_fq(f).factors]
            assert table_factors(spf, cof, code) == expected
    x = Polynomial.x(field)
    x1 = x + Polynomial.one(field)
    g = parse_poly("x^2+x+1" if p == 2 else "x^2+x+2", field)  # irreducible over F_p
    for f, expected in ((x ** 2, [(x, 2)]), (x1 ** 3, [(x1, 3)]),
                        (x ** (top - 2) * g, [(x, top - 2), (g, 1)])):
        got = table_factors(spf, cof, f.encoding)
        assert got == [(h.encoding, e) for h, e in expected]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_table_factorization_property(data):
    # random F_3 (degree <= 11) and F_5 (degree <= 8; a degree-11 table
    # would exceed the cap) polynomials: the table's factorization multiplies
    # back to f and equals factor_fq's
    p, top = data.draw(st.sampled_from([(3, 11), (5, 8)]))
    field = FieldSpec(p)
    low = data.draw(st.lists(st.integers(0, p - 1), max_size=top))
    f = Polynomial(field, (*low, data.draw(st.integers(1, p - 1))))
    spf, cof = sgalg.prepare_factor_table(p, top)
    pairs = table_factors(spf, cof, f.monic().encoding)
    factors = tuple((Polynomial.from_encoding(field, g), e) for g, e in pairs)
    fac = FqFactorization(field, f.leading_coeff, factors)
    assert fac.expand() == f
    assert fac == factor_fq(f)


def test_scan_estimate_refuses_like_prepare_scans(monkeypatch, f2, f3):
    # scan_us prices what prepare_scans would do: the same refusals before
    # any work, a table only when none is cached, and each member on the
    # route its scan takes; it refuses an estimate over TIME_CAP_US too
    def refuse(*args):
        raise AssertionError("an estimate built a table")

    monkeypatch.setattr(sgalg, "_TABLES", {})
    monkeypatch.setattr(sgalg, "_basep_tables", refuse)
    ctx33 = AlgebraContext(f3, from_generators((2, 3)))
    with pytest.raises(ValueError, match="^degree 17 needs more than 16777216 member scans$"):
        sgalg.scan_us(ctx33, range(2, 19))
    # past degree 23 F_2[<9,...,17>]'s table does not pay, and its members
    # through factor_fq pass the time cap
    with pytest.raises(ValueError, match=r"^a scan estimated at 2503 s \(cap 252 s\)$"):
        sgalg.scan_us(AlgebraContext(f2, from_generators(range(9, 18))), range(2, 31))
    ctx345 = AlgebraContext(f3, from_generators((3, 4, 5)))
    members = sum(member_count(ctx345, n) for n in range(2, 10))
    assert sgalg.scan_us(ctx345, range(2, 10)) == (
        sgalg.table_us(3, 9) + members * sgalg.SCAN_US)
    sgalg.install_factor_table(3, (9, None))
    assert sgalg.scan_us(ctx345, range(2, 10)) == members * sgalg.SCAN_US
    # past the table's cap members go through factor_fq: 3^14 of them at
    # degree 15 are over the time cap, 4099 at degree 2 over F_4099 are not
    with pytest.raises(ValueError, match=r"^a scan estimated at 1435 s \(cap 252 s\)$"):
        sgalg.scan_us(ctx33, [15])
    ctx4099 = AlgebraContext(FieldSpec(4099), from_generators((2, 3)))
    assert sgalg.scan_us(ctx4099, [2]) == 4099 * sgalg.FACTORED_US


def test_factor_tables_are_capped(monkeypatch, f2, f3):
    # over MAX_SCAN entries no table is built: prepare_factor_table refuses,
    # and scans over every field factor with factor_fq instead
    def refuse(*args):
        raise AssertionError("a factor table over the cap was built")

    monkeypatch.setattr(sgalg, "_TABLES", {})
    monkeypatch.setattr(sgalg, "_basep_tables", refuse)
    with pytest.raises(ValueError, match="cap is 16777216"):
        sgalg.prepare_factor_table(2, 24)
    with pytest.raises(ValueError, match="cap is 16777216"):
        sgalg.prepare_factor_table(3, 15)
    wide = AlgebraContext(f2, from_generators(range(9, 18)))
    assert member_count(wide, 30) == 4_194_304 <= sgalg.MAX_SCAN
    assert sgalg.table_entries(2, 30) == 2 ** 31
    assert not sgalg.table_pays(wide, 30)
    f, fac, _ = next(iter_irreducible(wide, 30))
    assert fac == factor_fq(f)
    assert count_classes(wide, 30, 0, 40).total > 0
    # refusals come at the call, not at the first next()
    with pytest.raises(ValueError, match="^degree 33 needs more than 16777216 member scans$"):
        iter_irreducible(wide, 33)
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        iter_irreducible(wide, -1)
    # an empty range or a gap degree needs no table
    assert count_classes(wide, 30, 5, 5) == ClassCounts()
    assert count_classes(wide, 5) == ClassCounts()
    ctx33 = AlgebraContext(f3, from_generators((2, 3)))
    assert member_count(ctx33, 15) <= sgalg.MAX_SCAN < sgalg.table_entries(3, 15)
    assert not sgalg.table_pays(ctx33, 15)
    f, fac, _ = next(iter_irreducible(ctx33, 15))
    assert fac == factor_fq(f)
    assert count_classes(ctx33, 15, 0, 40).total > 0


def test_table_pays_only_with_enough_members(monkeypatch, f2, f3, ctx345):
    # a table covers every monic code of degree <= n; many gaps below n
    # make members a small share of those codes, and factor_fq is cheaper,
    # by one rule for every field
    ctx3_345 = AlgebraContext(f3, from_generators((3, 4, 5)))
    sparse = AlgebraContext(f3, from_generators(range(7, 14)))  # gaps 1..6
    sparse2 = AlgebraContext(f2, from_generators(range(11, 22)))  # gaps 1..10
    assert sgalg.table_pays(ctx345, 20)
    assert sgalg.table_pays(ctx3_345, 9)
    assert not sgalg.table_pays(sparse, 9)
    assert not sgalg.table_pays(sparse2, 14)
    assert not sgalg.table_pays(AlgebraContext(FieldSpec(4099), from_generators((2, 3))), 2)

    def refuse(*args):
        raise AssertionError("a factor table that does not pay was built")

    # the factor_fq route and the table route give the same stream
    for ctx, low, top in ((sparse, 7, 11), (sparse2, 11, 14)):
        with monkeypatch.context() as m:
            m.setattr(sgalg, "_TABLES", {})
            m.setattr(sgalg, "_basep_tables", refuse)
            by_fq = [(n, list(iter_irreducible(ctx, n)), count_classes(ctx, n))
                     for n in range(low, top + 1)]
        monkeypatch.setattr(sgalg, "_TABLES", {})
        sgalg.prepare_factor_table(ctx.field.p, top)
        by_table = [(n, list(iter_irreducible(ctx, n)), count_classes(ctx, n))
                    for n in range(low, top + 1)]
        assert by_table == by_fq
        assert sum(c.total for _, _, c in by_fq) > 0
        assert any(c.max_m for _, _, c in by_fq)  # x's multiplicity, on both routes


def test_library_scans_refuse_over_the_guard(capsys):
    # 3^999999 members at degree 10^6: refused at the call, with the CLI's
    # message, before any position list or digit table is built
    from sgpoly import cli

    ctx = AlgebraContext(FieldSpec(3), from_generators((2, 3)))
    message = f"degree {10 ** 6} needs more than 16777216 member scans"
    for scan in (lambda: count_classes(ctx, 10 ** 6, 0, 1), lambda: iter_irreducible(ctx, 10 ** 6)):
        start = time.perf_counter()
        with pytest.raises(ValueError) as refused:
            scan()
        assert time.perf_counter() - start < 1
        assert str(refused.value) == message
    assert cli.main(["enumerate", "--q", "3", "--degree", str(10 ** 6)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_table_and_factor_fq_routes_count_alike(data):
    # the same degree counted with factors looked up in a table and with
    # factor_fq per member (no table cached, none built: table_pays says no
    # even for p = 2), against the oracle's divisor scan of every member
    q = data.draw(st.sampled_from((2, 3, 5)))
    ctx = AlgebraContext(FieldSpec(q), from_generators(data.draw(st.sampled_from(RING_SEMIGROUPS))))
    n = data.draw(st.sampled_from([n for n in range(10) if member_count(ctx, n) <= 250]))

    def refuse(*args):
        raise AssertionError("the factor_fq route built a table")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(sgalg, "_TABLES", {})
        m.setattr(sgalg, "_basep_tables", refuse)
        m.setattr(sgalg, "table_pays", lambda ctx, n: False)
        by_fq = count_classes(ctx, n)
    sgalg.prepare_factor_table(q, n)
    assert count_classes(ctx, n) == by_fq
    oracle = [divisor_scan_verdict(ctx, f) for f in enumerate_degree(ctx, n)]
    assert by_fq.total == oracle.count("irreducible")


def test_count_classes_chunks_merge(friendly, ctx345, f3):
    ctx33 = AlgebraContext(f3, from_generators((2, 3)))
    for ctx, n in ((friendly, 9), (ctx345, 10), (ctx33, 7)):
        whole = count_classes(ctx, n)
        total = member_count(ctx, n)
        merged = count_classes(ctx, n, 0, total // 3)
        part2 = count_classes(ctx, n, total // 3, (2 * total) // 3)
        part3 = count_classes(ctx, n, (2 * total) // 3, total)
        merged.absorb(part2)
        merged.absorb(part3)
        assert merged == whole
    # random [lo, hi) splits over F_5[<2,3>], whose digit tables are 25 wide,
    # so chunk edges fall inside and between their blocks
    ctx53 = AlgebraContext(FieldSpec(5), from_generators((2, 3)))
    whole = count_classes(ctx53, 6)
    total = member_count(ctx53, 6)
    rng = random.Random(53)
    for _ in range(3):
        cuts = sorted(rng.sample(range(1, total), 5))
        merged = ClassCounts()
        for lo, hi in zip([0, *cuts], [*cuts, total]):
            merged.absorb(count_classes(ctx53, 6, lo, hi))
        assert merged == whole


def test_count_classes_generic_path_matches(f3, ctx345):
    # scan, listing and verdict share one kernel, so check the scan against
    # the oracle's independent divisor scan, for p > 2 and p = 2, including
    # residue rings mod 5^3, 7^2 and 3^6 (F_3[<6,...,11>] has 729 residues)
    ctx33 = AlgebraContext(f3, from_generators((2, 3)))
    ctx5_345 = AlgebraContext(FieldSpec(5), from_generators((3, 4, 5)))
    ctx73 = AlgebraContext(FieldSpec(7), from_generators((2, 3)))
    ctx3_6 = AlgebraContext(f3, from_generators(range(6, 12)))
    for ctx, top in ((ctx33, 6), (ctx345, 9), (ctx5_345, 6), (ctx73, 4), (ctx3_6, 9)):
        for n in range(2, top + 1):
            direct = [
                f for f in enumerate_degree(ctx, n)
                if divisor_scan_verdict(ctx, f) == "irreducible"
            ]
            assert [f for f, _, _ in iter_irreducible(ctx, n)] == direct
            assert count_classes(ctx, n).total == len(direct)


def test_monic_count_identity(friendly, ctx345, f3):
    # above the Frobenius number the monic member count is q^(n - genus);
    # below it, gaps have none and enumeration agrees
    contexts = [friendly, ctx345, AlgebraContext(f3, from_generators((3, 4, 5)))]
    for ctx in contexts:
        q = ctx.field.p
        genus = ctx.semigroup.genus
        for n in range(11):
            if n > ctx.semigroup.frobenius:
                assert member_count(ctx, n) == q ** (n - genus)
            assert len(list(enumerate_degree(ctx, n))) == member_count(ctx, n)
        # the scan guard refuses exactly the degrees over MAX_SCAN members
        for n in range(40):
            if member_count(ctx, n) > sgalg.MAX_SCAN:
                with pytest.raises(ValueError, match=f"^degree {n} needs more than 16777216"):
                    sgalg._member_guard(ctx, n)
            else:
                sgalg._member_guard(ctx, n)


# -- the residue ring --------------------------------------------------------


RING_SEMIGROUPS = ((1,), (2, 3), (3, 4, 5), (2, 5), tuple(range(6, 12)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_residue_ring_matches_polynomial_arithmetic(data):
    # codes mod p^w multiply and test membership like the polynomials they
    # cut, when the memo is filled (a fresh ring) and when it is read back;
    # S = N leaves w = 0, the empty residue; q = 257 gives the p > 2
    # convolution digit products far above p
    q = data.draw(st.sampled_from((2, 3, 5, 7, 257)))
    ctx = AlgebraContext(FieldSpec(q), from_generators(data.draw(st.sampled_from(RING_SEMIGROUPS))))
    coeffs = st.lists(st.integers(0, q - 1), max_size=12)
    a, b, f = (Polynomial(ctx.field, (*data.draw(coeffs), 1)) for _ in range(3))
    modulus, mul, member = sgalg._residue_ring(ctx)
    assert modulus == q ** (ctx.semigroup.frobenius + 1)
    product = (a * b).encoding % modulus
    for _ in range(2):  # a memo miss, then a hit
        assert mul(a.encoding % modulus, b.encoding % modulus) == product
        assert member(f.encoding % modulus) == support_member(ctx, f)


def test_ring_member_matches_the_support_oracle_on_every_residue():
    # every residue code mod p^w, decoded, is a member by its support
    # exactly when the ring's gap-digit test says so
    for q in (2, 3, 5):
        for gens in {*RING_SEMIGROUPS, *SIGNATURE_SEMIGROUPS}:
            ctx = AlgebraContext(FieldSpec(q), from_generators(gens))
            size = q ** (ctx.semigroup.frobenius + 1)
            if size > 3 ** 7:
                continue
            modulus, _, member = ctx.ring
            assert modulus == size
            for code in range(size):
                f = Polynomial.from_encoding(ctx.field, code)
                assert member(code) == support_member(ctx, f), (q, gens, code)


def test_ring_work_follows_the_residue_not_the_width(f3):
    # F_3[<999,1000>] has w = 996,002: a product convolves only its
    # operands' digits, and member stops once the residue has none left
    modulus, mul, member = AlgebraContext(f3, from_generators((999, 1000))).ring
    start = time.perf_counter()
    assert mul(3, 3) == 9  # x * x
    assert member(3 ** 999 % modulus)  # x^999
    assert not member(3 ** 998 % modulus)
    assert time.perf_counter() - start < 1


def test_member_splits_take_first_levels_without_products(friendly, f3):
    # each factor's first lattice level starts from the factor's own residue,
    # with no ring product, and the splits stay those of the mixed-radix
    # divisor lattice (first factor's exponent least significant)
    for ctx in (friendly, AlgebraContext(f3, from_generators((3, 4, 5)))):
        modulus, mul, member = ctx.ring
        for f in enumerate_degree(ctx, 8):
            factors = factor_fq(f).factors
            calls = []

            def counted(a, b):
                calls.append(a)
                return mul(a, b)

            codes = [(g.encoding, e) for g, e in factors]
            splits = list(sgalg._member_splits(codes, (modulus, counted, member)))
            size = prod(e + 1 for _, e in factors)
            assert len(calls) == size - 1 - len(factors)
            expected = []
            for i in range(1, (size - 1) // 2 + 1):
                j, d = i, Polynomial.one(ctx.field)
                for g, e in factors:
                    j, a = divmod(j, e + 1)
                    d = d * g ** a
                if support_member(ctx, d) and support_member(ctx, f // d):
                    expected.append(i)
            assert splits == expected


# semigroups with F(S) <= 6, S = N included
SIGNATURE_SEMIGROUPS = (
    (1,), (2, 3), (3, 4, 5), (2, 5), (3, 5, 7), (4, 5, 6, 7), (2, 7), (3, 4), (4, 5, 7),
    tuple(range(7, 14)),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_memoized_verdicts_match_the_lattice_and_the_oracle(data):
    # a scan's counts equal those of a per-member lattice and the
    # divisor-scan oracle's, whether its signature ids are cold (degrees
    # scanned in turn) or warm, and the lattice of a member's sorted,
    # unsorted and reversed residue signatures gives one verdict
    q = data.draw(st.sampled_from((2, 3, 5)))
    gens = data.draw(st.sampled_from(SIGNATURE_SEMIGROUPS))
    ctx = AlgebraContext(FieldSpec(q), from_generators(gens))
    # the oracle divides each member by every member of lower degree, so
    # keep that product small; the highest such degree is drawn first
    sizes = [member_count(ctx, n) for n in range(9)]
    tops = [n for n in range(8, 0, -1) if sizes[n] and sizes[n] * sum(sizes[1:n]) <= 20000]
    n = data.draw(st.sampled_from(tops))
    scanned = [count_classes(ctx, d) for d in range(1, n + 1)][-1]
    assert count_classes(ctx, n) == scanned
    ring = sgalg._residue_ring(ctx)  # apart from ctx's, which the scans use
    shapes, by_oracle = [], 0
    for f in enumerate_degree(ctx, n):
        factors = [(g.encoding, e) for g, e in factor_fq(f).factors]
        unsplit = next(sgalg._member_splits(factors, ring), None) is None
        signature = [(g % ring[0], e) for g, e in factors]
        for key in (sorted(signature), signature, signature[::-1]):
            assert (next(sgalg._member_splits(key, ring), None) is None) == unsplit
        if unsplit:
            shapes.append(sgalg._shape_of(factors, q))  # q is the code of x
        by_oracle += divisor_scan_verdict(ctx, f) == "irreducible"
    direct = ClassCounts(
        classic=shapes.count((0, 1)),
        tame=sum(m > 0 for m, _ in shapes),
        wild=sum(m == 0 and k > 1 for m, k in shapes),
        total=len(shapes),
        max_m=max((m for m, _ in shapes), default=0),
        max_k=max((k for _, k in shapes), default=0),
    )
    assert scanned == direct and scanned.total == by_oracle


def test_context_keeps_its_ring_out_of_equality_and_pickles(monkeypatch, f3):
    built = []
    real = sgalg._residue_ring

    def counted(ctx):
        built.append(ctx)
        return real(ctx)

    monkeypatch.setattr(sgalg, "_residue_ring", counted)
    gens = (3, 4, 5)
    ctx = AlgebraContext(f3, from_generators(gens))
    for n in (3, 5, 6, 8):
        count_classes(ctx, n)
    f = parse_poly("x^8+x^5+2*x^4+1", f3)
    verdicts = [is_irreducible_in_algebra(ctx, f) for _ in range(3)]
    assert len(built) == 1 and built[0] is ctx  # one ring, however it is used
    fresh = AlgebraContext(f3, from_generators(gens))
    assert ctx == fresh and hash(ctx) == hash(fresh)
    memos = {"ring", "signatures"}
    assert memos <= set(vars(ctx))
    assert len(ctx.signatures.sig) > 2  # the scans resolved codes
    copy = pickle.loads(pickle.dumps(ctx))
    assert not memos & set(vars(copy))  # the memos stay behind
    assert copy == fresh and hash(copy) == hash(fresh)
    assert is_irreducible_in_algebra(copy, f) == verdicts[0]
    assert count_classes(copy, 8) == count_classes(fresh, 8)


def test_residue_memo_keeps_at_most_memo_size_entries(monkeypatch):
    # a ring whose products rarely repeat holds MEMO_SIZE entries at most;
    # an evicted entry is computed again, so no count depends on the bound
    field, gens, degrees = FieldSpec(7), (2, 3), range(1, 5)
    monkeypatch.setattr(sgalg, "MEMO_SIZE", 16)
    ctx = AlgebraContext(field, from_generators(gens))
    bounded = [count_classes(ctx, n) for n in degrees]
    assert ctx.ring[1].cache_info().currsize == 16
    monkeypatch.setattr(sgalg, "MEMO_SIZE", None)
    fresh = AlgebraContext(field, from_generators(gens))
    assert [count_classes(fresh, n) for n in degrees] == bounded
    assert fresh.ring[1].cache_info().currsize > 16


def test_signature_ids_clear_past_their_bound(monkeypatch):
    # a context that keeps at most 64 signature ids clears them, with the
    # array, many times over and resolves its codes anew: it counts and
    # lists as one that keeps them all, also when its counts clear the ids
    # while a listing of its own waits between two blocks.  F_2[x^2,x^3]
    # is dense: its clears come mid-scan, between blocks of one degree,
    # and each resets the sweep mark, so the next block sweeps again
    monkeypatch.setattr(sgalg, "SCAN_BLOCK", 16)
    for q, gens, top, kept_ids in ((3, (3, 4, 5), 8, 64 * 8), (2, (2, 3), 12, 64 * 2)):
        field, degrees = FieldSpec(q), range(2, top + 1)
        kept = AlgebraContext(field, from_generators(gens))
        counts = [count_classes(kept, n) for n in degrees]
        listing = list(iter_irreducible(kept, top))
        assert len(kept.signatures.last) > kept_ids
        with monkeypatch.context() as m:
            m.setattr(sgalg, "SIGNATURE_IDS", 64)
            ctx = AlgebraContext(field, from_generators(gens))
            assert ctx.signatures.dense == (q == 2)
            clears = []
            clear = sgalg._Signatures._clear
            m.setattr(sgalg._Signatures, "_clear", lambda sigs: clears.append(1) or clear(sigs))
            stream = iter_irreducible(ctx, top)
            head = [next(stream) for _ in range(5)]
            before = len(clears)
            assert [count_classes(ctx, n) for n in degrees] == counts
            assert len(clears) > before + 8
            assert head + list(stream) == listing
            assert len(ctx.signatures.sig) == len(kept.signatures.sig)


def test_prepare_scans_returns_the_entry_its_scans_read(monkeypatch, f2, friendly, ctx345):
    # the entry is the cached table when it covers a member degree of the
    # scans, built by prepare_scans or cached before it, else None
    monkeypatch.setattr(sgalg, "_TABLES", {})
    sparse = AlgebraContext(f2, from_generators(range(11, 22)))  # gaps 1..10
    assert not sgalg.table_pays(sparse, 11)
    assert sgalg.prepare_scans(sparse, range(11, 14)) is None
    assert sgalg._TABLES == {}
    entry = sgalg.prepare_scans(friendly, range(2, 11))
    assert entry is sgalg._TABLES[2] and entry[0] == 10
    assert sgalg.prepare_scans(ctx345, (7,)) is entry  # covered, no build
    assert sgalg.prepare_scans(sparse, (11,)) is None  # past the cached table
    assert sgalg.prepare_scans(sparse, range(2, 11)) is None  # gaps only
    blocks, table = sgalg._scan(sparse, 11, 0, None)
    assert table is None and sum(map(len, blocks)) == member_count(sparse, 11)


@pytest.mark.parametrize(
    "q, gens, n, rebuilt",
    [(2, (2, 3), 12, 14), (3, (3, 4, 5), 8, 9)],
    ids=["f2-23", "f3-345"],
)
def test_listing_resumes_across_a_rebuilt_table(monkeypatch, q, gens, n, rebuilt):
    # a listing paused partway through its degree, while the field's table
    # is rebuilt to a higher degree and a count on the same context resolves
    # ids on the new table, resumes to the uninterrupted listing.  Small
    # blocks make the resumed listing resolve ids after the rebuild
    monkeypatch.setattr(sgalg, "SCAN_BLOCK", 16)
    field = FieldSpec(q)
    monkeypatch.setattr(sgalg, "_TABLES", {})
    whole = list(iter_irreducible(AlgebraContext(field, from_generators(gens)), n))
    monkeypatch.setattr(sgalg, "_TABLES", {})
    ctx = AlgebraContext(field, from_generators(gens))
    stream = iter_irreducible(ctx, n)
    assert sgalg._TABLES[q][0] == n  # the listing reads its own table
    head = list(islice(stream, len(whole) // 2))
    sgalg.prepare_factor_table(q, rebuilt)
    assert sgalg._TABLES[q][0] == rebuilt
    counted = count_classes(ctx, rebuilt)
    assert len(ctx.signatures.sig) == sgalg.table_entries(q, rebuilt)
    assert head + list(stream) == whole
    assert counted == count_classes(AlgebraContext(field, from_generators(gens)), rebuilt)


def x_free_codes(q, n):
    # the monic codes of degree below n with a nonzero constant term
    return {a for k in range(n) for a in range(q ** k, 2 * q ** k) if a % q}


@pytest.mark.parametrize(
    "q, gens, top",
    [(2, (2, 3), 14), (2, (1,), 12), (3, (1,), 8)],
    ids=["f2-23", "f2-N", "f3-N"],
)
def test_sweep_and_chains_resolve_alike(monkeypatch, q, gens, top):
    # the dense contexts, scanned degree by degree to top on each resolver
    # in turn (the density rule patched to pick it): the sweep and the
    # chains give the same counts and listings.  The sweep resolves every
    # code with a nonzero constant term below top and the members among
    # top's that have one, each to an id of the slots the chains give it;
    # the chains resolve those and the codes x divides, which the sweep
    # reads through their x-free parts and leaves at 0
    sgalg.prepare_factor_table(q, top)
    runs = []
    for dense in (True, False):
        monkeypatch.setattr(sgalg, "is_dense", lambda ctx, dense=dense: dense)
        ctx = AlgebraContext(FieldSpec(q), from_generators(gens))
        sigs = ctx.signatures
        assert sigs.dense is dense
        counts, listings = [], []
        for n in range(1, top + 1):
            counts.append(count_classes(ctx, n))
            listings.append(list(iter_irreducible(ctx, n)))
        resolved = {a: sigs.slots(sid) for a, sid in enumerate(sigs.sig) if sid}
        runs.append((counts, listings, resolved))
    (counts, listings, swept), (chained_counts, chained_listings, chained) = runs
    assert counts == chained_counts and listings == chained_listings
    members = {f.encoding for f in enumerate_degree(ctx, top)}
    x_free = x_free_codes(q, top) | {a for a in members if a % q}
    assert swept.keys() == x_free
    assert swept == {a: chained[a] for a in x_free}
    assert any(a % q == 0 for a in chained)
    assert sum(map(len, listings)) == sum(c.total for c in counts) > 0


@pytest.mark.parametrize(
    "q, gens, n",
    [(2, (2, 3), 11), (2, (1,), 9), (3, (1,), 6)],
    ids=["f2-23", "f2-N", "f3-N"],
)
def test_dense_counts_over_uneven_ranges(monkeypatch, q, gens, n):
    # a dense scan of the members with index in [lo, hi) sweeps, at degree
    # n, the codes with a nonzero constant term among those members, and
    # the whole degree's for all its members.  Ranges cut inside a p-block
    # (the p codes that differ only in their constant term), single
    # members, the first and the last member absorb into the whole-degree
    # counts, each on a fresh context and all on one context that counts
    # them, then the whole degree, then lists.  Only over N, where every
    # such code is a member, does a whole degree, by a count or a listing
    # run to its end, move the sweep mark past n.  Blocks of 3p codes cut
    # the ranges further
    monkeypatch.setattr(sgalg, "SCAN_BLOCK", 3)
    field, semigroup = FieldSpec(q), from_generators(gens)
    whole_mark = n + 1 if gens == (1,) else n

    def fresh():
        return AlgebraContext(field, semigroup)

    def mark(ctx):
        return ctx.signatures.swept

    whole, listing = count_classes(fresh(), n), list(iter_irreducible(fresh(), n))
    assert whole.total == len(listing) > 0
    ctx = fresh()
    codes = [f.encoding for f in enumerate_degree(ctx, n)]
    total = len(codes)
    cuts = [0, 1, 2, q + 2, 2 * q + 3, total // 2 + 1, total - q - 2, total - 1, total]
    assert cuts == sorted(set(cuts)) and total - 1 in cuts
    assert [codes[c] % q for c in cuts[1:3]] == [1, 2 % q]  # inside a p-block, or just past one
    ranges = list(zip(cuts, cuts[1:]))
    for lo, hi in ranges:
        alone = fresh()
        part = count_classes(alone, n, lo, hi)
        assert part == count_classes(ctx, n, lo, hi)
        sig = alone.signatures.sig
        resolved = [a for a in range(q ** n, 2 * q ** n) if sig[a]]
        assert resolved == [a for a in codes[lo:hi] if a % q]
        assert mark(alone) == n
    merged = ClassCounts()
    for lo, hi in ranges:
        merged.absorb(count_classes(fresh(), n, lo, hi))
    assert merged == whole
    assert mark(ctx) == n
    assert count_classes(ctx, n) == whole
    assert mark(ctx) == whole_mark
    assert list(iter_irreducible(ctx, n)) == listing
    merged = ClassCounts()
    for lo, hi in ranges:
        merged.absorb(count_classes(ctx, n, lo, hi))
    assert merged == whole and mark(ctx) == whole_mark
    # a listing stopped partway leaves the mark at n
    ctx = fresh()
    stream = iter_irreducible(ctx, n)
    head = [next(stream) for _ in range(3)]
    assert mark(ctx) == n
    assert head + list(stream) == listing
    assert mark(ctx) == whole_mark
    # the next degree's scan steps at n only the x-free codes n's scan
    # left unresolved, those that are not members
    handed = []
    steps = sgalg._Signatures._steps

    def spy(sigs, codes, table):
        codes = list(codes)
        handed.extend(codes)
        return steps(sigs, codes, table)

    monkeypatch.setattr(sgalg._Signatures, "_steps", spy)
    count_classes(ctx, n + 1)
    members = set(codes)
    at_n = [a for a in handed if a < q ** (n + 1)]
    assert sorted(at_n) == [a for a in range(q ** n, 2 * q ** n) if a % q and a not in members]
    assert bool(at_n) == (gens != (1,)) and handed
    assert mark(ctx) == (n + 2 if gens == (1,) else n + 1)


def x_power_cuts(codes, q):
    # member indices whose codes x^m*u, and the members just past them,
    # start or end a range whose code ends fall between the codes of
    # x^m*u and x^m*(u+1) for m = 1..3, with the first and last members
    cuts = {0, 1, len(codes) - 1, len(codes)}
    for m in (1, 2, 3):
        power = q ** m
        middle = [i for i, a in enumerate(codes) if a % power == 0 and a // power % q]
        if middle:
            i = middle[len(middle) // 2]
            cuts |= {i, i + 1}
    return sorted(c for c in cuts if 0 <= c <= len(codes))


@pytest.mark.parametrize(
    "q, gens, top",
    [(2, (2, 3), 12), (2, (1,), 10), (3, (1,), 7), (5, (1,), 4)],
    ids=["f2-23", "f2-N", "f3-N", "f5-N"],
)
def test_dense_scans_match_chains_and_factoring(monkeypatch, q, gens, top):
    # in every dense context, degree by degree to top: the sweep's counts
    # over index ranges (ends between the codes x^m*u of one u among them)
    # and whole degrees, and its listings, equal the chain resolver's and
    # those of factoring each member (_factored).  One context counts
    # only the ranges, so the next degree's sweep passes a degree its
    # ranges left ragged; another counts the ranges, the whole degree,
    # lists it and counts the ranges again.  Neither ever resolves a code
    # x divides, and _steps is handed each x-free code at most once
    # between clears.  Blocks of 3 * max(q^w, q) codes cut the ranges
    monkeypatch.setattr(sgalg, "SCAN_BLOCK", 3)
    field, semigroup = FieldSpec(q), from_generators(gens)
    sgalg.prepare_factor_table(q, top)
    handed = {}  # one dense _Signatures -> the codes handed to _steps since its last clear
    steps, clear = sgalg._Signatures._steps, sgalg._Signatures._clear

    def spy_steps(sigs, codes, table):
        if sigs.dense:
            codes = list(codes)
            seen = handed[sigs]
            assert all(a % q for a in codes) and seen.isdisjoint(codes)
            seen.update(codes)
        return steps(sigs, codes, table)

    def spy_clear(sigs):
        handed[sigs] = set()
        clear(sigs)

    monkeypatch.setattr(sgalg._Signatures, "_steps", spy_steps)
    monkeypatch.setattr(sgalg._Signatures, "_clear", spy_clear)
    ragged, whole_ctx = (AlgebraContext(field, semigroup) for _ in range(2))
    with monkeypatch.context() as m:
        m.setattr(sgalg, "is_dense", lambda ctx: False)
        chained = AlgebraContext(field, semigroup)
        assert not chained.signatures.dense
    assert ragged.signatures.dense and whole_ctx.signatures.dense

    def listed(items):
        return [(f, sorted(factors), m, k) for f, factors, m, k in items]

    for n in range(1, top + 1):
        codes = [f.encoding for f in enumerate_degree(ragged, n)]
        if not codes:
            continue
        cuts = x_power_cuts(codes, q)
        ranges = list(zip(cuts, cuts[1:]))
        factored = [ClassCounts() for _ in ranges]
        for (lo, hi), counts in zip(ranges, factored):
            for _, _, m, k in sgalg._factored(ragged, sgalg._scan(ragged, n, lo, hi)[0]):
                counts.add(m, k)
            assert count_classes(ragged, n, lo, hi) == counts
            assert count_classes(chained, n, lo, hi) == counts
            assert count_classes(AlgebraContext(field, semigroup), n, lo, hi) == counts
            assert count_classes(whole_ctx, n, lo, hi) == counts
        whole = ClassCounts()
        for counts in factored:
            whole.absorb(counts)
        assert count_classes(whole_ctx, n) == whole == count_classes(chained, n)
        listing = listed(sgalg._factored(ragged, sgalg._scan(ragged, n, 0, None)[0]))
        assert len(listing) == whole.total
        table = sgalg._TABLES[q][1]
        swept = sgalg._dense_blocks(whole_ctx.signatures, n, table)
        assert listed(sgalg._walk(swept, table)) == listing
        chains = sgalg._scan(chained, n, 0, None)[0]
        assert listed(sgalg._walked(chained.signatures, chains, table)) == listing
        assert [count_classes(whole_ctx, n, lo, hi) for lo, hi in ranges] == factored
    for ctx in (ragged, whole_ctx):
        assert not any(ctx.signatures.sig[::q])  # no code x divides resolved
        assert handed[ctx.signatures]
    assert any(chained.signatures.sig[::q])
    # the chain resolver called on a dense context gives the chains' ids,
    # but keeps none of a code x divides, which dense tallies read as 0
    codes = [f.encoding for f in enumerate_degree(ragged, top)]
    monkeypatch.setattr(sgalg._Signatures, "_steps", steps)
    ids = whole_ctx.signatures.ids(codes, table)
    assert [whole_ctx.signatures.slots(sid) for sid in ids] == [
        chained.signatures.slots(sid) for sid in chained.signatures.ids(codes, table)]
    assert not any(whole_ctx.signatures.sig[::q]) and any(a % q == 0 for a in codes)
    assert count_classes(whole_ctx, top) == whole
