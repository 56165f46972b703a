"""The class-group counting engine against brute force and the closed forms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgpoly import (
    AlgebraContext, FieldSpec, Polynomial, b_counts, count_classes, from_generators, member_count,
)
from sgpoly import classgroup
from sgpoly.classgroup import (
    ClassGroup, _counting_us, _membership_sets, _search, _weights, admit,
    degree_counts, irreducible_class_counts,
)
from oracles import divisor_scan_verdict, monic_members, support_member


def group_of(q, gens):
    return ClassGroup(AlgebraContext(FieldSpec(q), from_generators(gens)))


# (q, generators, top degree): every case the engine must match bucket by
# bucket, with max_m and max_k, at every degree from 1 up to the top
BRUTE_FORCE_CASES = [
    (2, (2, 3), 14), (2, (3, 4, 5), 14), (2, (2, 5), 14), (2, (3, 5, 7), 14),
    (2, (4, 5, 6, 7), 14), (2, (5, 6, 7, 8, 9), 14), (2, (1,), 14),
    (3, (2, 3), 9), (3, (3, 4, 5), 10), (3, (2, 5), 9), (3, (1,), 8),
    (5, (2, 3), 6), (7, (2, 3), 5),
]


@pytest.mark.parametrize("q, gens, top", BRUTE_FORCE_CASES)
def test_engine_matches_brute_force(q, gens, top):
    group = group_of(q, gens)
    sgp = group.ctx.semigroup
    rows = degree_counts(group, top)
    for n in range(1, top + 1):  # degree 1 holds x and x - c over F_q[x]
        assert rows[n] == count_classes(group.ctx, n), n
        # the transfer's bounds: x^m * (part) splits once m passes F + m(S),
        # and an atom over Q has at most D(Q) classes
        assert rows[n].max_m <= max(sgp.frobenius + sgp.min_generators[0], 1), n
        assert rows[n].max_k <= group.davenport, n


def test_engine_matches_the_closed_forms_to_degree_200():
    rows = degree_counts(group_of(2, (2, 3)), 200)
    assert [row.as_tuple() for row in rows[2:]] == [b_counts(n) for n in range(2, 201)]


# (q, generators): |Q|, D(Q), and the types with m = 0 and with m >= 1
STRUCTURE = [
    (2, (2, 3), 2, 2, 2, 4),
    (2, (3, 5, 7), 8, 8, 65, 438),
    (3, (3, 4, 5), 9, 5, 69, 555),
    (3, (2, 5), 9, 9, 119, 570),
    (5, (2, 3), 5, 5, 15, 50),
    (2, (1,), 1, 1, 1, 1),  # the m >= 1 type is x itself
]


def types_of(group, weights, budget):
    # (nodes, atoms) kept from the engine's search: every product-one-free
    # multiset U weighing at most budget with the m >= 1 that make x^m * U
    # irreducible, and every atom weighing at most budget + 1, each closed
    # once from its node or, for the identity alone, taken directly
    nodes = {}
    atoms = {(0,)} if weights[0] <= budget + 1 else set()
    for u, ms, closing, _ in _search(group, weights, budget):
        nodes[u] = ms
        if closing is not None:
            atoms.add(u + (closing,))
    return nodes, atoms


def counting_search(monkeypatch):
    # the nodes _search yields from now on, in a list
    yielded = []
    real = classgroup._search

    def counted(*args):
        for node in real(*args):
            yielded.append(node)
            yield node

    monkeypatch.setattr(classgroup, "_search", counted)
    return yielded


@pytest.mark.parametrize("q, gens, order, davenport, atoms, tame", STRUCTURE)
def test_type_counts_and_olson(monkeypatch, q, gens, order, davenport, atoms, tame):
    group = group_of(q, gens)
    assert group.order == order == q ** from_generators(gens).genus
    assert group.davenport == davenport
    nodes, found = types_of(group, [1] * order, davenport - 1)
    # Olson's D(Q) is the length of the longest atom the search lists
    assert max(map(len, found)) == davenport
    assert (len(found), sum(map(len, nodes.values()))) == (atoms, tame)
    # admission's walk, unbounded, visits every node degree_counts does
    yielded = counting_search(monkeypatch)
    for n in (2, 4, 7, 11):
        nodes = types_of(group, _weights(irreducible_class_counts(group, n)), n - 1)[0]
        yielded.clear()
        admit(group.ctx, n, float("inf"))
        assert len(yielded) == len(nodes), n


@pytest.mark.parametrize("q, gens", [case[:2] for case in STRUCTURE])
def test_membership_sets_match_the_support_oracle(q, gens):
    # T_a holds the classes c with x^a * rep_c a member, by its support
    group = group_of(q, gens)
    field, sgp = group.ctx.field, group.ctx.semigroup
    sets = _membership_sets(group)
    assert len(sets) == max(sgp.frobenius + sgp.min_generators[0], 1) + 1
    for a, found in enumerate(sets):
        expected = {c for c, rep in enumerate(group.reps)
                    if support_member(group.ctx, Polynomial.x(field) ** a
                                      * Polynomial.from_encoding(field, rep))}
        assert found == expected, a


def test_estimate_grows_with_the_degree():
    # the per-class series cost more than N^3 (shift-adds of (N+1)-slot
    # series of N log2 q bits a slot), and so must the price that admits
    # them, known before the Euler product or the type search runs
    group = group_of(3, (3, 4, 5))
    prices = [_counting_us(group, n) for n in (125, 250, 500, 1000)]
    assert all(later > 6 * earlier for earlier, later in zip(prices, prices[1:]))


def test_admitted_counts_are_degree_counts(monkeypatch):
    # admission runs the Euler product once, and the count reuses it
    group = group_of(3, (3, 4, 5))
    expected = degree_counts(group, 30)
    calls = []
    real = classgroup.irreducible_class_counts
    monkeypatch.setattr(classgroup, "irreducible_class_counts",
                        lambda *args: calls.append(args) or real(*args))
    assert admit(group.ctx, 30, float("inf"))() == expected
    assert len(calls) == 1


def test_admission_walks_no_more_than_its_share(monkeypatch):
    # F_3[<2,9>] to degree 13 prices its class table and Euler product
    # under 0.3 s, but its type search has 48,427 nodes.  The walk that
    # prices the search stops as soon as what it has priced passes the
    # limit, and in any case once it has spent 1/WALK_SHARE of the time
    # cap (here made 1/2000, 126 ms)
    ctx = group_of(3, (2, 9)).ctx
    yielded = counting_search(monkeypatch)
    for share, limit, message in (
        (classgroup.WALK_SHARE, 3e5, "a class-group count estimated at over 0 s (cap 0 s)"),
        (2000, classgroup.TIME_CAP_US, "a class-group type search over 0 s (1/2000 of the 252 s cap)"),
    ):
        monkeypatch.setattr(classgroup, "WALK_SHARE", share)
        runs = []
        for _ in range(2):
            yielded.clear()
            with pytest.raises(ValueError) as refused:
                admit(ctx, 13, limit)
            assert str(refused.value) == message
            runs.append(len(yielded))
        # each node costs at least NODE_US, and the walk stops at the first
        # node past either bound
        assert 0 < (runs[0] - 1) * classgroup.NODE_US <= min(limit, classgroup.TIME_CAP_US / share)
        # admission reads no clock: the same limit always stops at the same node
        assert runs[0] == runs[1] < 48427


# every numerical semigroup with Frobenius number at most 4, by its gaps
SMALL_SEMIGROUPS = sorted(
    {from_generators([s for s in range(1, 10) if s not in gaps])
     for gaps in ((), (1,), (1, 2), (1, 3), (1, 2, 3), (1, 2, 4), (1, 2, 3, 4))},
    key=lambda sgp: sgp.gaps,
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_engine_brute_force_and_divisor_scan_agree(data):
    q = data.draw(st.sampled_from((2, 3, 5)))
    # |Q| = q^g up to 125: a class group's product table has |Q|^2 entries
    sgp = data.draw(st.sampled_from([s for s in SMALL_SEMIGROUPS if q ** s.genus <= 125]))
    ctx = AlgebraContext(FieldSpec(q), sgp)
    # the oracle divides each member by every member of lower degree, so
    # keep that product small
    tops = [n for n in range(2, 9)
            if member_count(ctx, n) * sum(member_count(ctx, d) for d in range(1, n)) <= 3000]
    n = data.draw(st.sampled_from(tops))
    by_oracle = sum(divisor_scan_verdict(ctx, f) == "irreducible" for f in monic_members(ctx, n))
    assert degree_counts(ClassGroup(ctx), n)[n].total == count_classes(ctx, n).total == by_oracle
