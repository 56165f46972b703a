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
Euler product and need no factoring.  Nothing here decides a single
polynomial, and the brute-force scans in sgalg never consult Q: the two
routes share only the residue arithmetic of AlgebraContext.ring, its
membership test included, so each checks the other.
"""

from __future__ import annotations

from functools import cached_property
from math import comb

from .counting import count_aq
from .sgalg import ClassCounts


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
        self.gaps = sgp.gaps
        self._nongaps = [j for j in range(1, w) if sgp.contains(j)]
        _, self._reduce, self._mul, self._member = ctx.ring
        reps = [1]
        for g in self.gaps:
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


# What the engine spends, in microseconds (2-vCPU x86-64, Python 3.11),
# per unit of the work estimated_us counts, timed over 20 (q, S, N) with q
# up to 257, |Q| up to 257 and N up to 320:
RESIDUE_US = 1.2  # a residue product in class_of (0.3-1.9 us)
EULER_US = 0.4  # an inner step of the Euler-product recursion (0.05-0.4 us)
NODE_US = 10  # a node of the type search (7-17 us)
PRODUCT_US = 0.01  # a product of two packed series, per (bits/30)^log2(3) (9-12 ns)
SERIES_US = 1.2e-4  # a shift-add of a packed series, per bit (0.1-0.15 ns)


def setup_us(p, genus, w):
    """Estimated microseconds for the class table (p^(2 genus) entries) and
    the listing of the p^(w-1) 1-units below x^w: the least the engine
    costs, known before Q is built.  Each class_of takes up to w products."""
    return RESIDUE_US * w * (p ** (2 * genus) + p ** (w - 1))


def node_bound(group, max_degree):
    """A bound on the nodes degree_counts' search visits up to max_degree.

    Nodes are multisets of at most K = min(D(Q)-1, max_degree-1)
    non-identity classes that weigh at most max_degree - 1, a class weighing
    its least irreducible degree.  No more classes weigh at most e than
    F_q[x] has monic irreducibles P != x of degree at most e, so giving the
    classes those least weights, in turn, only adds multisets.
    """
    n = max_degree
    k_max = min(group.davenport - 1, n - 1)
    ways = [[0] * n for _ in range(k_max + 1)]  # ways[k][t]: k classes weighing t
    ways[0][0] = 1
    left, e = group.order - 1, 1
    while left and e < n:
        c = min(left, count_aq(e, group.p) - (e == 1))  # classes weighing e
        left -= c
        new = [row[:] for row in ways]
        for k, row in enumerate(ways):
            for t, v in enumerate(row):
                if v:
                    for j in range(1, min(k_max - k, (n - 1 - t) // e) + 1):
                        new[k + j][t + j * e] += v * comb(c + j - 1, j)
        ways = new
        e += 1
    return sum(map(sum, ways))


def estimated_us(group, max_degree):
    """Estimated microseconds for degree_counts(group, max_degree), the
    class table included.  Beside setup_us: the Euler product's
    N^2 + N (w-1) |Q|^2 steps; node_bound nodes, each searched once and
    closing at most one atom, with one product of packed series for each;
    and the per-class series, about |Q| N top^2 / 2 shift-adds of
    (N+1)-slot series, top = min(D(Q), N).  A packed series has
    (N+1) (N log2 q + 2) bits, and CPython multiplies such integers in
    time (bits/30)^log2(3)."""
    n, order, w = max_degree, group.order, group.w
    nodes = node_bound(group, n)
    top = min(group.davenport, n)
    size = (n + 1) * ((group.p ** n).bit_length() + 1)  # bits of a packed series
    return (setup_us(group.p, len(group.gaps), w)
            + EULER_US * n * (n + (w - 1) * order ** 2)
            + nodes * (NODE_US + 2 * PRODUCT_US * (size / 30) ** 1.585)
            + SERIES_US * order * n * top * (top + 1) / 2 * size)


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
    reduce, member = group._reduce, group._member
    return [frozenset(c for c, rep in enumerate(group.reps) if member(reduce(rep * group.p ** a)))
            for a in range(max(sgp.frobenius + sgp.min_generators[0], 1) + 1)]


def _search(group, weights, budget):
    # Depth-first, in the order of sorted tuples (a node's prefixes come
    # before it), over the product-one-free multisets U of non-identity
    # classes weighing at most budget.  Yields (U, ms, closing): ms lists
    # the m >= 1 for which x^m times classes U is irreducible, and closing
    # is the class g = sigma(U)^-1 when U * g is an atom whose largest class
    # is g and that weighs at most budget + 1, else None.  An atom A has a
    # product-one-free A minus any one class, so it is closed exactly once,
    # at A minus one copy of its largest class.  Only the current path is
    # kept, each node with its set of subset products.
    table, inverse, order = group.table, group.inverse, group.order
    member = _membership_sets(group)
    # per m >= 1: the pairs (T_a, T_(m-a)), 0 < a < m, that could split x^m * U
    splits = [[(member[a], member[m - a]) for a in range(1, m) if member[a] and member[m - a]]
              for m in range(len(member))]

    def node(u, weight, sigma, sums):
        row = table[sigma]
        ms = [m for m in range(1, len(member))
              if sigma in member[m]
              and not any(s in ta and row[inverse[s]] in tb
                          for ta, tb in splits[m] for s in sums)]
        g = inverse[sigma]
        closing = g if u and g >= u[-1] and weight + weights[g] <= budget + 1 else None
        return u, ms, closing

    root = ((), 0, 0, frozenset((0,)))
    yield node(*root)
    stack = [[*root, 1]]  # each frame: u, weight, sigma, sums, next class to try
    while stack:
        frame = stack[-1]
        u, weight, sigma, sums, g = frame
        # u * g has a product-one part exactly when g^-1 is a subset product
        while g < order and (weight + weights[g] > budget or inverse[g] in sums):
            g += 1
        if g == order:
            stack.pop()
            continue
        frame[4] = g + 1
        shifted = table[g]
        child = (u + (g,), weight + weights[g], table[sigma][g],
                 sums | {shifted[s] for s in sums})
        yield node(*child)
        stack.append([*child, g])


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
    n = max_degree
    by_degree = irreducible_class_counts(group, n)
    counts = [[by_degree[d][c] for d in range(1, n + 1)] for c in range(group.order)]
    # a class weighs its least irreducible degree, or n+1 without one up to n
    weights = [next((d for d, v in enumerate(row, 1) if v), n + 1) for row in counts]
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
    for u, ms, closing in _search(group, weights, n - 1):
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
