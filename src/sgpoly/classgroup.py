"""Counting the irreducibles of F_q[S] from the finite class group Q = G1/H1.

Let w = F(S)+1 (w = 1 for S = N), G1 the 1-units of F_q[x]/(x^w) and H1
the subgroup of those with a zero coefficient at every gap; Q = G1/H1 has
order q^g for g gaps.  Every monic irreducible P != x of F_q[x] has the
class of P/P(0) in Q, and whether x^a * v is a member depends only on a
and the class of v.  So whether a monic member x^m * P_1 ... P_k is
irreducible in F_q[S] depends only on its type: m and the multiset of the
classes of the P_i (the transfer to zero-sum sequences over Q, Geroldinger
and Halter-Koch, Non-Unique Factorizations, 2006):

- m = 0: the classes form an atom of the block monoid B(Q), a minimal
  product-one sequence, so k <= D(Q), the Davenport constant;
- m >= 1: the classes are product-one free, and x^m * v has no split
  x^a * (part) times x^(m-a) * (rest) into two members with 0 < a < m.

degree_counts lists those types once and counts each degree's members of
every type from the per-class counts of irreducibles, which come from the
Euler product and need no factoring.  admit prices that count before it
runs, from a dry walk of the same type search, and refuses it over a time
limit; the CLI runs the engine only through it.  Nothing here decides a
single polynomial, and the brute-force scans in sgalg never consult Q:
the two routes share only the residue arithmetic of AlgebraContext.ring,
its membership test included, so each checks the other.
"""

from __future__ import annotations

from functools import cached_property
from math import comb

from .sgalg import MAX_SCAN, TIME_CAP_US, ClassCounts


class ClassGroup:
    """Q = G1/H1 of an AlgebraContext, its classes numbered 0 .. order-1.

    A class is represented by its one residue whose coefficients vanish at
    every positive non-gap below w (multiplying by 1 - c*x^j, which lies
    in H1 for j in S, clears coefficient j without touching lower ones),
    so class 0, the residue 1, is the identity.  The Davenport constant
    costs about order * log(w) * log(p) residue products; the
    multiplication table (order^2 products) is built on first use.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.p = p = ctx.field.p
        sgp = ctx.semigroup
        self.w = w = max(sgp.frobenius + 1, 1)
        self._nongaps = [j for j in range(1, w) if sgp.contains(j)]
        self._modulus, self._mul, self._member = ctx.ring
        reps = [1]
        for g in sgp.gaps:
            reps = [r + c * p ** g for c in range(p) for r in reps]
        self.reps = reps
        self.order = len(reps)
        self._index = {r: i for i, r in enumerate(reps)}

    def class_of(self, code):
        """The class of a 1-unit residue code (constant coefficient 1)."""
        p, mul = self.p, self._mul
        for j in self._nongaps:
            c = code // p ** j % p
            if c:
                code = mul(code, 1 + (p - c) * p ** j)
        return self._index[code]

    @cached_property
    def invariants(self):
        """Exponents e_i of Q = sum of Z/p^(e_i), from how many classes
        each p^i-th power kills (|Q[p^i]| = p^(sum of min(e_j, i)))."""
        p, mul = self.p, self._mul
        tops = []  # per class other than 1: the least t with c^(p^t) = 1
        for code in self.reps[1:]:
            t = 0
            while not self._member(code):  # H1 is the member 1-units
                power, base, e = 1, code, p  # code^p by squaring
                while e:
                    if e & 1:
                        power = mul(power, base)
                    base = mul(base, base)
                    e >>= 1
                code = power
                t += 1
            tops.append(t)
        top = max(tops, default=0)
        sizes = [1 + sum(t <= i for t in tops) for i in range(top + 1)]
        # ranks[i-1]: how many e_j are at least i
        ranks = [_log(sizes[i] // sizes[i - 1], p) for i in range(1, top + 1)] + [0]
        return tuple(i for i in range(1, top + 1) for _ in range(ranks[i - 1] - ranks[i]))

    @property
    def davenport(self):
        """D(Q) by Olson's formula 1 + sum(p^e_i - 1) for a p-group
        (J. E. Olson, J. Number Theory 1 (1969) 8-10)."""
        return 1 + sum(self.p ** e - 1 for e in self.invariants)

    @cached_property
    def table(self):
        """table[a][b]: the class of the product of classes a and b."""
        if self.order == 1:
            return [[0]]
        mul, reps = self._mul, self.reps
        return [[self.class_of(mul(a, b)) for b in reps] for a in reps]

    @cached_property
    def inverse(self):
        """inverse[c]: the class c^-1."""
        return [row.index(0) for row in self.table]

    def power_map(self, r):
        """out[c]: the class c^r."""
        out = []
        for c in range(self.order):
            acc, base, e = 0, c, r
            while e:
                if e & 1:
                    acc = self.table[acc][base]
                base = self.table[base][base]
                e >>= 1
            out.append(acc)
        return out


def _log(n, p):
    # floor(log_p n) for n >= 1: exact for a power of p, the degree of a code
    e = 0
    while n >= p:
        n //= p
        e += 1
    return e


def irreducible_class_counts(group, max_degree):
    """counts[d][c]: monic irreducibles P != x of degree d in class c, d >= 1.

    Over monic f with f(0) != 0, sum [f] u^deg f = prod over P != x of
    (1 - [P] u^deg P)^-1 in Z[Q][[u]].  M_d, the degree-d part on the left,
    needs no factoring: f -> f/f(0) maps the f of degree d one to one onto
    the 1-units of degree d, so for d < w it lists those residues, and for
    d >= w every class holds (q-1) q^(d-w) |H1| of them.  L = u Z'/Z gives
    d M_d = sum_{i=1..d} L_i M_(d-i) and L_d = sum_{e | d} e N_e^(d/e),
    where ^r sends [c] to [c^r]; both are solved for N_d in turn.
    """
    order, p, w, table = group.order, group.p, group.w, group.table
    h1 = p ** (w - 1) // order
    low = [[0] * order for _ in range(w)]  # M_d for 1 <= d < w
    for code in range(1 + p, p ** w, p):  # 1-units other than 1
        low[_log(code, p)][group.class_of(code)] += 1
    counts = [None]
    logs = [None]
    totals = [None]  # totals[i] = sum(logs[i])
    powers = {}
    for d in range(1, max_degree + 1):
        if d < w:
            ld = [d * v for v in low[d]]
        else:
            ld = [d * (p - 1) * p ** (d - w) * h1] * order
        uniform = 0  # the terms whose M factor has degree >= w: sum(L_i) times it
        for i in range(1, d):
            j = d - i
            if j >= w:
                uniform += totals[i] * (p - 1) * p ** (j - w) * h1
                continue
            for a, x in enumerate(logs[i]):
                if x:
                    row = table[a]
                    for b, y in enumerate(low[j]):
                        if y:
                            ld[row[b]] -= x * y
        ld = [v - uniform for v in ld]
        logs.append(ld)
        totals.append(sum(ld))
        nd = list(ld)
        for e in range(1, d):
            if d % e == 0:
                r = d // e
                if r not in powers:
                    powers[r] = group.power_map(r)
                up = powers[r]
                for c, v in enumerate(counts[e]):
                    nd[up[c]] -= e * v
        if any(v % d for v in nd):
            raise ArithmeticError(f"class counts at degree {d} are not divisible by {d}")
        counts.append([v // d for v in nd])
    return counts


def _membership_sets(group):
    # T[a] for 0 <= a <= max(F + m(S), 1): the classes c with x^a * c a
    # member (S = N has F = -1, and still needs a = 1 for the atom x)
    sgp = group.ctx.semigroup
    modulus, member = group._modulus, group._member
    return [frozenset(c for c, rep in enumerate(group.reps) if member(rep * group.p ** a % modulus))
            for a in range(max(sgp.frobenius + sgp.min_generators[0], 1) + 1)]


def _splits(member):
    # per m >= 1: the pairs (T_a, T_(m-a)), 0 < a < m, that could split x^m * U
    return [[(member[a], member[m - a]) for a in range(1, m) if member[a] and member[m - a]]
            for m in range(len(member))]


def _search(group, weights, budget):
    # Depth-first, in the order of sorted tuples (a node's prefixes come
    # before it), over the product-one-free multisets U of non-identity
    # classes weighing at most budget.  Yields (U, ms, closing, sums): ms
    # lists the m >= 1 for which x^m times classes U is irreducible, closing
    # is the class g = sigma(U)^-1 when U * g is an atom whose largest class
    # is g and that weighs at most budget + 1, else None, and sums is the
    # set of U's subset products.  An atom A has a product-one-free A minus
    # any one class, so it is closed exactly once, at A minus one copy of
    # its largest class.  Only the current path is kept, each node with its
    # sums and the classes extending it, which for a child are among its
    # parent's from its last class on (it weighs more, with more sums).
    table, inverse, order = group.table, group.inverse, group.order
    member = _membership_sets(group)
    splits = _splits(member)
    lightest = min(weights[1:], default=budget + 1)

    def node(u, weight, sigma, sums):
        row = table[sigma]
        ms = [m for m in range(1, len(member))
              if sigma in member[m]
              and not (splits[m] and any(s in ta and row[inverse[s]] in tb
                                         for ta, tb in splits[m] for s in sums))]
        g = inverse[sigma]
        closing = g if u and g >= u[-1] and weight + weights[g] <= budget + 1 else None
        return u, ms, closing, sums

    def children(u, weight, sigma, sums, cands):
        # the classes g of cands with u * g within budget (none at a leaf);
        # u * g has a product-one part exactly when g^-1 is a subset product
        return ([g for g in cands if weight + weights[g] <= budget and inverse[g] not in sums]
                if weight + lightest <= budget else [])

    root = ((), 0, 0, frozenset((0,)))
    yield node(*root)
    # each frame: u, weight, sigma, sums, the classes extending u, the next one
    stack = [[*root, children(*root, range(1, order)), 0]]
    while stack:
        frame = stack[-1]
        u, weight, sigma, sums, cands, i = frame
        if i == len(cands):
            stack.pop()
            continue
        g = cands[i]
        frame[5] = i + 1
        shifted = table[g]
        child = (u + (g,), weight + weights[g], table[sigma][g],
                 sums | {shifted[s] for s in sums})
        yield node(*child)
        stack.append([*child, children(*child, cands[i:]), 0])


def degree_counts(group, max_degree):
    """One sgalg.ClassCounts for every degree 0 .. max_degree of F_q[S],
    exactly: the buckets of sgalg.count_classes, with the largest m and k
    among the degree's irreducibles (0 when there are none).

    The types come from _search, a class weighing the least degree of its
    irreducibles, so only types with members up to max_degree are
    visited, and none is kept once the search leaves it.
    Each class c gets the generating function
    prod_d (1 - t u^d)^(-N_d(c)) of multisets of its irreducibles, kept for
    t^0 .. t^min(D(Q), max_degree); a type's members are the product of its
    classes' coefficients, shifted by u^m.  Each multiset's product is
    its longest proper prefix's times one series, so it is formed once,
    shared by all its m, and kept only while the search is below it.
    Series are packed into integers, one slot of `bits` bits per degree
    (no slot ever exceeds q^max_degree), so a product of series is one
    integer product.
    """
    return _tally(group, max_degree, irreducible_class_counts(group, max_degree))


def _weights(by_degree):
    # a class weighs its least irreducible degree, or n+1 without one up to n
    return [next((d for d, row in enumerate(by_degree[1:], 1) if row[c]), len(by_degree))
            for c in range(len(by_degree[1]))]


def _tally(group, n, by_degree):
    # degree_counts(group, n) from irreducible_class_counts(group, n)
    counts = [[by_degree[d][c] for d in range(1, n + 1)] for c in range(group.order)]
    weights = _weights(by_degree)
    bits = (group.p ** n).bit_length() + 1
    mask = (1 << (n + 1) * bits) - 1

    series = []  # series[c][k]: multisets of k irreducibles of class c, by degree
    top = min(group.davenport, n)  # no type repeats a class more often
    for row in counts:
        e = [1] + [0] * top
        for d, count in enumerate(row, 1):
            if count:
                for k in range(top, 0, -1):
                    add = e[k]
                    for j in range(1, min(k, n // d) + 1):
                        low = e[k - j] & (1 << (n - j * d + 1) * bits) - 1  # what stays below u^n
                        add += comb(count + j - 1, j) * low << j * d * bits
                    e[k] = add
        series.append(e)

    by_shape = {}  # (m, k) -> packed member counts
    if weights[0] <= n:  # the atoms of the identity class alone
        by_shape[0, 1] = series[0][1]
    path = [1]  # path[i]: the product of the current node's first i classes
    for u, ms, closing, _ in _search(group, weights, n - 1):
        k = len(u)
        if u:
            # u is its prefix without its run of its last class, then that run
            c = u[-1]
            run = k - u.index(c)
            del path[k:]
            path.append(path[k - run] * series[c][run] & mask)
        for m in ms:
            by_shape[m, k] = by_shape.get((m, k), 0) + (path[k] << m * bits)
        if closing is not None:
            run = k + 1 - (u + (closing,)).index(closing)
            by_shape[0, k + 1] = (by_shape.get((0, k + 1), 0)
                                  + (path[k + 1 - run] * series[closing][run] & mask))

    slot = (1 << bits) - 1
    out = [ClassCounts() for _ in range(n + 1)]
    for (m, k), v in by_shape.items():
        for d, counts in enumerate(out):
            counts.add(m, k, v >> d * bits & slot)
    return out


# What the engine spends, in microseconds (2-vCPU x86-64, Python 3.11), per
# unit of the work admit counts, fit over 16 type searches and 12 counts (q <= 127,
# |Q| <= 729, N <= 1000); a series has N+1 slots of bits = N log2 q + 2 bits:
COUNT_US = 1000  # a count's fixed set-up: D(Q), membership sets, output rows
RESIDUE_US = 1.2  # a residue product in class_of (0.3-1.9 us)
EULER_US = 0.03  # a class pair of the Euler product, or a degree pair per bits^0.585
SERIES_US = 2e-6  # a shift-add of a packed series, per bit and bits^0.585
NODE_US = 5  # a node of the type search
SUM_US = 0.13  # a subset product a node extends (it filters about as many classes)
SPLIT_US = 0.1  # a split a node tests for one m, per subset product
PRODUCT_US = 0.007  # a product of two series of size bits, per (size/30)^log2(3)
WALK_SHARE = 8  # admit walks the type search for at most TIME_CAP_US / WALK_SHARE


def _counting_us(group, n):
    # the Euler product to degree n, n (w-1) |Q|^2 class pairs and n^2/2 degree
    # pairs, and the series, |Q| n top (top+1)/2 shift-adds, top = min(D(Q), n)
    bits = (group.p ** n).bit_length() + 1
    order, top = group.order, min(group.davenport, n)
    return (EULER_US * n * ((group.w - 1) * order ** 2 + n / 2 * bits ** 0.585)
            + SERIES_US * order * n * top * (top + 1) / 2 * (n + 1) * bits * bits ** 0.585)


def admit(ctx, max_degree, limit):
    """degree_counts(ClassGroup(ctx), max_degree) as a function of no
    arguments when its estimated time is below limit microseconds, else
    ValueError naming the reason, raised as soon as the estimate passes it.

    The estimate adds a fixed set-up, the class table and 1-unit listing
    (at most MAX_SCAN entries each) before Q is built, the Euler product
    and the series once D(Q) is known, and, after the Euler product has
    run, the type search: a dry walk of it prices each node by its work,
    which grows with |Q|, and the series products formed there and at each
    atom it closes.  The walk stops at limit or after TIME_CAP_US /
    WALK_SHARE.  No clock is read, so an input always gets the same
    answer; the count reuses the Euler product.
    """
    p, sgp, n = ctx.field.p, ctx.semigroup, max_degree
    w = max(sgp.frobenius + 1, 1)
    # p^(w-1) >= 2^(w-1) residues, and genus < w, so the powers are formed
    # only below the cap
    if w - 1 >= MAX_SCAN.bit_length() or max(p ** (2 * sgp.genus), p ** (w - 1)) > MAX_SCAN:
        raise ValueError(f"a class group with more than {MAX_SCAN} table entries or residues")
    us = COUNT_US + RESIDUE_US * w * (p ** (2 * sgp.genus) + p ** (w - 1))
    if us < limit:
        group = ClassGroup(ctx)
        us += _counting_us(group, n)
    if us >= limit:
        raise ValueError(f"a class-group count estimated at {us / 1e6:.0f} s "
                         f"(cap {limit / 1e6:.0f} s)")
    by_degree = irreducible_class_counts(group, n)
    product = PRODUCT_US * ((n + 1) * ((p ** n).bit_length() + 1) / 30) ** 1.585
    tests = [len(pairs) for pairs in _splits(_membership_sets(group))]
    walked = 0
    for u, ms, closing, sums in _search(group, _weights(by_degree), n - 1):
        step = NODE_US + len(sums) * (SUM_US + SPLIT_US * sum(tests[m] for m in ms))
        walked += step
        us += step + product * (bool(u) + (closing is not None))
        if us >= limit:
            raise ValueError(f"a class-group count estimated at over {us / 1e6:.0f} s "
                             f"(cap {limit / 1e6:.0f} s)")
        if walked > TIME_CAP_US / WALK_SHARE:
            raise ValueError(f"a class-group type search over {walked / 1e6:.0f} s "
                             f"(1/{WALK_SHARE} of the {TIME_CAP_US / 1e6:.0f} s cap)")
    return lambda: _tally(group, n, by_degree)
