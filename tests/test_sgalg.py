"""Algebra membership, enumeration, verdicts, classification, subproducts."""

import pickle
import random
import time

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
from oracles import all_monic, divisor_scan_verdict


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
                v = is_irreducible_in_algebra(ctx, f)
                assert v.kind in ("irreducible", "reducible")
                assert (v.kind == "irreducible") == (
                    divisor_scan_verdict(ctx, f) == "irreducible"
                )
                if v.is_reducible:
                    g, h = v.witness
                    assert g * h == f
                    assert g.degree >= 1 and h.degree >= 1
                    assert is_member(ctx, g) and is_member(ctx, h)


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


def test_gf2_table_factor_agrees_with_factor_fq(f2):
    spf = sgalg.prepare_factor_table(2, 10)[0]
    for mask in range(1, 1 << 11):
        expected = [(g.mask, e) for g, e in factor_fq(Polynomial.from_mask(f2, mask)).factors]
        assert sgalg._table_factor(spf, mask) == expected


def test_gf2_table_factor_matches_ddf_at_scan_degrees(f2):
    rng = random.Random(64)
    spf = sgalg.prepare_factor_table(2, 16)[0]
    for _ in range(400):
        mask = rng.randrange(2, 1 << 17)
        via_ddf = [(g.mask, e) for g, e in factor_fq(Polynomial.from_mask(f2, mask)).factors]
        assert sgalg._table_factor(spf, mask) == via_ddf


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
            assert sgalg._lookup_factor(spf, cof, code) == expected
    x = Polynomial.x(field)
    x1 = x + Polynomial.one(field)
    g = parse_poly("x^2+x+1" if p == 2 else "x^2+x+2", field)  # irreducible over F_p
    for f, expected in ((x ** 2, [(x, 2)]), (x1 ** 3, [(x1, 3)]),
                        (x ** (top - 2) * g, [(x, top - 2), (g, 1)])):
        got = sgalg._lookup_factor(spf, cof, f.encoding)
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
    pairs = sgalg._lookup_factor(spf, cof, f.monic().encoding)
    factors = tuple((Polynomial.from_encoding(field, g), e) for g, e in pairs)
    fac = FqFactorization(field, f.leading_coeff, factors)
    assert fac.expand() == f
    assert fac == factor_fq(f)


def test_factor_tables_are_capped(monkeypatch, f2, f3):
    # over MAX_SCAN entries no table is built: p = 2 entry points refuse,
    # and p > 2 scans factor with factor_fq instead
    def refuse(*args):
        raise AssertionError("a factor table over the cap was built")

    monkeypatch.setattr(sgalg, "_TABLES", {})
    monkeypatch.setattr(sgalg, "_basep_tables", refuse)
    wide = AlgebraContext(f2, from_generators(range(9, 18)))
    assert member_count(wide, 30) == 4_194_304 <= sgalg.MAX_SCAN
    assert sgalg.table_entries(2, 30) == 2 ** 31
    with pytest.raises(ValueError, match="cap is 16777216"):
        count_classes(wide, 30, 0, 1)
    with pytest.raises(ValueError, match="cap is 16777216"):
        iter_irreducible(wide, 30)  # at the call, not at the first next()
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        iter_irreducible(wide, -1)
    with pytest.raises(ValueError, match="cap is 16777216"):
        sgalg.prepare_factor_table(2, 24)
    with pytest.raises(ValueError, match="cap is 16777216"):
        sgalg.prepare_factor_table(3, 15)
    # an empty range or a gap degree needs no table
    assert count_classes(wide, 30, 5, 5) == ClassCounts()
    assert count_classes(wide, 5) == ClassCounts()
    ctx33 = AlgebraContext(f3, from_generators((2, 3)))
    assert member_count(ctx33, 15) <= sgalg.MAX_SCAN < sgalg.table_entries(3, 15)
    assert not sgalg.table_pays(ctx33, 15)
    f, fac, _ = next(iter_irreducible(ctx33, 15))
    assert fac == factor_fq(f)
    assert count_classes(ctx33, 15, 0, 40).total > 0


def test_table_pays_only_with_enough_members(monkeypatch, f3, ctx345):
    # a p > 2 table covers every monic code of degree <= n; many gaps below n
    # make members a small share of those codes, and factor_fq is cheaper
    ctx3_345 = AlgebraContext(f3, from_generators((3, 4, 5)))
    sparse = AlgebraContext(f3, from_generators(range(7, 14)))  # gaps 1..6
    assert sgalg.table_pays(ctx345, 20)  # p = 2 always uses its table
    assert sgalg.table_pays(ctx3_345, 9)
    assert not sgalg.table_pays(sparse, 9)
    assert not sgalg.table_pays(AlgebraContext(FieldSpec(4099), from_generators((2, 3))), 2)

    def refuse(*args):
        raise AssertionError("a factor table that does not pay was built")

    # the factor_fq route and the table route give the same stream
    with monkeypatch.context() as m:
        m.setattr(sgalg, "_TABLES", {})
        m.setattr(sgalg, "_basep_tables", refuse)
        by_fq = [(n, list(iter_irreducible(sparse, n)), count_classes(sparse, n))
                 for n in range(7, 12)]
    monkeypatch.setattr(sgalg, "_TABLES", {})
    sgalg.prepare_factor_table(3, 11)
    by_table = [(n, list(iter_irreducible(sparse, n)), count_classes(sparse, n))
                for n in range(7, 12)]
    assert by_table == by_fq
    assert sum(c.total for _, _, c in by_fq) > 0


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
            assert sgalg._over_scan_guard(ctx, n) == (member_count(ctx, n) > sgalg.MAX_SCAN)


# -- the residue ring --------------------------------------------------------


RING_SEMIGROUPS = ((2, 3), (3, 4, 5), (2, 5), tuple(range(6, 12)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_residue_ring_matches_polynomial_arithmetic(data):
    # codes mod p^w multiply and test membership like the polynomials they
    # cut, when the memo is filled (a fresh ring) and when it is read back
    q = data.draw(st.sampled_from((2, 3, 5, 7)))
    ctx = AlgebraContext(FieldSpec(q), from_generators(data.draw(st.sampled_from(RING_SEMIGROUPS))))
    coeffs = st.lists(st.integers(0, q - 1), max_size=12)
    a, b, f = (Polynomial(ctx.field, (*data.draw(coeffs), 1)) for _ in range(3))
    _, reduce, mul, member = sgalg._residue_ring(ctx)
    product = reduce((a * b).encoding)
    for _ in range(2):  # a memo miss, then a hit
        assert mul(reduce(a.encoding), reduce(b.encoding)) == product
        assert member(reduce(f.encoding)) == is_member(ctx, f)


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
    copy = pickle.loads(pickle.dumps(ctx))
    assert "ring" not in vars(copy)  # the memo stays behind
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
    assert [f.cache_info().currsize for f in ctx.ring[2:]] == [16, 16]
    monkeypatch.setattr(sgalg, "MEMO_SIZE", None)
    fresh = AlgebraContext(field, from_generators(gens))
    assert [count_classes(fresh, n) for n in degrees] == bounded
    assert fresh.ring[2].cache_info().currsize > 16
