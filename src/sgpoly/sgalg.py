"""The semigroup-algebra layer for F_p[S].

Membership is purely support-based: f lies in F_p[S] exactly when every
exponent with a nonzero coefficient belongs to S.  Irreducibility inside
the algebra is decided by scanning divisor pairs drawn from the F_p[x]
factorization; that scan is exhaustive because membership survives exact
division (if g and g*h are members and g(0) != 0, then h is a member
too), so any algebra split is visible among those divisors.

Every gap of S lies below w = F(S)+1, so whether a divisor is a member
depends only on its residue mod x^w.  One kernel, `_member_splits`,
decides every verdict on those residues: the per-polynomial API, the
counting scan and the listing all call it, and only the witness split is
ever multiplied out in full.  Scans handle members and factors as
integer codes (`Polynomial.encoding`, which is the bitmask for p = 2) and
factor members by lookup in a cached smallest-factor table, since
enumerating all coefficient combinations of a degree dominates every
verification campaign.  For p > 2 a cofactor table beside it makes
factoring pure lookups; such a table covers every monic code, not only the
members, so a p > 2 scan builds it only when it pays (see table_pays) and
otherwise calls factor_fq per member.  No table may exceed MAX_SCAN entries.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice
from math import prod

from . import _gf2
from .ffpoly import FieldSpec, FqFactorization, Polynomial, _mul_t, canonical_key, factor_fq
from .numsgp import NumericalSemigroup, from_generators


@dataclass(frozen=True)
class AlgebraContext:
    """A coefficient field together with the exponent semigroup."""

    field: FieldSpec
    semigroup: NumericalSemigroup

    @property
    def is_friendly(self):
        """True for F_2[x^2,x^3], where the three-way classification applies."""
        return self.field.p == 2 and self.semigroup.min_generators == (2, 3)

    @property
    def gap_mask(self):
        mask = 0
        for g in self.semigroup.gaps:
            mask |= 1 << g
        return mask


@lru_cache(maxsize=None)
def friendly_context():
    """The F_2[x^2,x^3] context used by the classifier."""
    return AlgebraContext(FieldSpec(2), from_generators((2, 3)))


@dataclass(frozen=True)
class FriendlyClass:
    """Classification of an irreducible of F_2[x^2,x^3]: classic, tame, or wild."""

    kind: str
    monomial_power: int | None = None  # 2 or 3, tame only

    def __post_init__(self):
        if self.kind not in ("classic", "tame", "wild"):
            raise ValueError(f"unknown class kind {self.kind!r}")
        if (self.kind == "tame") != (self.monomial_power is not None):
            raise ValueError("monomial_power is set exactly for tame polynomials")
        if self.kind == "tame" and self.monomial_power not in (2, 3):
            raise ValueError("tame monomial power must be 2 or 3")

    def __str__(self):
        if self.kind == "tame":
            return f"tame({self.monomial_power})"
        return self.kind


CLASSIC = FriendlyClass("classic")
WILD = FriendlyClass("wild")


def tame(m):
    return FriendlyClass("tame", m)


@dataclass(frozen=True)
class FactorShape:
    """Shape of a member's F_p[x] factorization: f = x^m * (k irreducibles)."""

    m: int
    k: int


@dataclass(frozen=True)
class AlgebraVerdict:
    """Outcome of the algebra irreducibility test.

    kind is one of "unit", "not_member", "irreducible", "reducible".
    A reducible verdict carries a verified witness pair (g, h) with
    g * h == f and both members of positive degree; an irreducible verdict
    in F_2[x^2,x^3] carries the classification.
    """

    kind: str
    classification: FriendlyClass | None = None
    witness: tuple[Polynomial, Polynomial] | None = None

    @property
    def is_irreducible(self):
        return self.kind == "irreducible"

    @property
    def is_reducible(self):
        return self.kind == "reducible"


def is_member(ctx, f):
    """Support-based membership: every exponent of f lies in S."""
    contains = ctx.semigroup.contains
    return all(contains(i) for i in f.support)


def enumerate_degree(ctx, n, lo=0, hi=None):
    """Yield the monic members of degree n in increasing bitmask order.

    Coefficients run over the free positions S & [0, n-1], lowest position
    least significant, which is plain bitmask order for p = 2; the stream
    is empty when n is a gap of S.  Only the members with index in
    [lo, hi) are yielded, as for count_classes.
    """
    free, lo, hi = _index_range(ctx, n, lo, hi)
    p = ctx.field.p
    for idx in range(lo, hi):
        coeffs = [0] * (n + 1)
        coeffs[n] = 1
        t = idx
        for pos in free:
            t, coeffs[pos] = t // p, t % p
        yield Polynomial(ctx.field, tuple(coeffs))


def _residue_ring(ctx):
    """(one, reduce, mul, member) for residues mod x^w, w = F(S)+1.

    Every gap lies below w, so a polynomial is a member exactly when its
    residue is.  reduce takes a polynomial's code (`Polynomial.encoding`).
    For p = 2 a residue is a mask cut to w bits; otherwise it is a
    coefficient tuple of the code's low w digits.
    """
    width = ctx.semigroup.frobenius + 1
    p = ctx.field.p
    if p == 2:
        cut = (1 << width) - 1
        gap = ctx.gap_mask
        mul = _gf2.mul
        return (
            1 & cut,
            lambda a: a & cut,
            lambda a, b: mul(a, b) & cut,
            lambda r: not r & gap,
        )
    gaps = ctx.semigroup.gaps
    modulus = p ** width

    def reduce(code):
        code %= modulus
        digits = []
        while code:
            code, c = divmod(code, p)
            digits.append(c)
        return tuple(digits)

    return (
        (1,)[:width],
        reduce,
        lambda a, b: _mul_t(a, b, p)[:width],
        lambda r: not any(r[i] for i in gaps if i < len(r)),
    )


def _member_splits(factors, ring):
    """Yield each index i of a member split, for i up to half the lattice.

    factors holds (monic irreducible, multiplicity) pairs, each irreducible
    as its code.  The divisor lattice lists the residues of every
    monic divisor in mixed-radix order over the exponent vectors, so
    entries i and len-1-i are complements; a split is a member split when
    both are members.
    """
    one, reduce, mul, member = ring
    divs = [one]
    for g, e in factors:
        r = reduce(g)
        level = divs
        for _ in range(e):
            level = [mul(d, r) for d in level]
            divs = divs + level
    last = len(divs) - 1
    for i in range(1, last // 2 + 1):
        if member(divs[i]) and member(divs[last - i]):
            yield i


def is_irreducible_in_algebra(ctx, f):
    """Full verdict for f relative to F_p[S], with a witness when reducible.

    Splits are decided on residues by the kernel the scans use; the
    witness split, when one exists, is the one whose smaller part g has the
    least canonical key (bitmask order for p = 2), paired with f // g, which
    carries the leading unit.
    """
    if f.field != ctx.field:
        raise ValueError("polynomial field does not match the context")
    if f.is_zero:
        raise ValueError("the zero polynomial has no verdict")
    if not is_member(ctx, f):
        return AlgebraVerdict("not_member")
    if f.degree == 0:
        return AlgebraVerdict("unit")
    fac = factor_fq(f)
    codes = [(g.encoding, e) for g, e in fac.factors]
    splits = list(_member_splits(codes, _residue_ring(ctx)))
    if splits:
        g = _least_half(fac.factors, splits)
        return AlgebraVerdict("reducible", witness=(g, f // g))
    classification = None
    if ctx.is_friendly:
        classification = _friendly_class_of(*_shape_of(fac.factors, Polynomial.x(f.field)))
    return AlgebraVerdict("irreducible", classification=classification)


def _least_half(factors, splits):
    # Among both halves of every member split, the divisor with the least
    # canonical key.  That key orders by degree first, so each half's degree
    # comes from its exponent vector and only the least-degree ones are built.
    last = prod(e + 1 for _, e in factors) - 1
    halves = []
    for j in [*splits, *(last - i for i in splits)]:
        exps = []
        for _, e in factors:
            j, a = divmod(j, e + 1)
            exps.append(a)
        halves.append((sum(a * g.degree for a, (g, _) in zip(exps, factors)), exps))
    low = min(degree for degree, _ in halves)
    one = Polynomial.one(factors[0][0].field)
    built = [
        prod((g ** a for a, (g, _) in zip(exps, factors)), start=one)
        for degree, exps in halves
        if degree == low
    ]
    return min(built, key=canonical_key)


def _shape_of(factors, x):
    # (m, k): multiplicity of the factor x and total multiplicity of the rest
    m = sum(e for g, e in factors if g == x)
    return m, sum(e for _, e in factors) - m


def _friendly_class_of(m, k):
    # classification of an irreducible of F_2[x^2,x^3] with shape (m, k)
    if m == 0 and k == 1:
        return CLASSIC
    if m in (2, 3) and k <= 1:
        return tame(m)
    if m == 0 and k == 2:
        return WILD
    raise ArithmeticError(
        f"factorization shape (m={m}, k={k}) escapes the three-way classification"
    )


def classify_friendly(f):
    """Classic/tame/wild classification in F_2[x^2,x^3].

    Raises unless f is over F_2 and irreducible in the algebra.
    """
    if f.field.p != 2:
        raise ValueError("classification is defined over F_2 only")
    verdict = is_irreducible_in_algebra(friendly_context(), f)
    if verdict.kind == "not_member":
        raise ValueError("polynomial has a term outside <2,3>")
    if not verdict.is_irreducible:
        raise ValueError("polynomial is not irreducible in F_2[x^2,x^3]")
    return verdict.classification


def factorization_shape(ctx, f):
    """(m, k): multiplicity of x and total multiplicity of the other factors."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no factorization shape")
    if not is_member(ctx, f):
        raise ValueError("polynomial is not a member of the algebra")
    m, k = _shape_of(factor_fq(f).factors, Polynomial.x(ctx.field))
    return FactorShape(m, k)


def find_subproduct(polys, clear_below):
    """Indices of a subproduct with no terms of degree 1 .. clear_below-1.

    Requires at least p^(clear_below-1) polynomials, all over one prime
    field and all with nonzero constant term.  Follows the constructive
    recursion: split into p blocks, recurse at level N-1, normalize the
    constant terms, and take the earliest collision among prefix sums of
    the x^(N-1) coefficients (a zero prefix collides with the empty one).
    Returns 0-based indices, sorted ascending.
    """
    if not polys:
        raise ValueError("at least one polynomial is required")
    field = polys[0].field
    p = field.p
    for f in polys:
        if f.field != field:
            raise ValueError("all polynomials must share one field")
        if f.constant_term == 0:
            raise ValueError("every polynomial must have a nonzero constant term")
    if not isinstance(clear_below, int) or clear_below < 1:
        raise ValueError("the clearing level must be a positive integer")
    if len(polys) < p ** (clear_below - 1):
        raise ValueError(
            f"need at least {p ** (clear_below - 1)} polynomials, got {len(polys)}"
        )

    def solve(indices, n):
        if n == 1:
            i = indices[0]
            return [i], polys[i]
        size = p ** (n - 2)
        blocks = [indices[t * size:(t + 1) * size] for t in range(p)]
        subs = [solve(block, n - 1) for block in blocks]
        seen = {0: 0}
        sigma = 0
        for t in range(1, p + 1):
            chosen, g = subs[t - 1]
            c = g.coeff(n - 1) * pow(g.constant_term, -1, p) % p
            sigma = (sigma + c) % p
            if sigma in seen:
                s = seen[sigma]
                picked = []
                prod = Polynomial.one(field)
                for block_chosen, block_g in subs[s:t]:
                    picked.extend(block_chosen)
                    prod = prod * block_g
                return picked, prod
            seen[sigma] = t
        raise AssertionError("pigeonhole cannot fail over p prefix sums")

    chosen, _ = solve(list(range(p ** (clear_below - 1))), clear_below)
    return tuple(sorted(chosen))


# -- bulk scanning for whole-degree verification -----------------------------


MAX_SCAN = 1 << 24  # guard: members of one degree scan, entries of one factor table
TABLE_RATIO = 512  # a p > 2 table pays with at least one member per this many entries

# p -> (degree, table); the table is the smallest-factor list for p = 2 and
# the (spf, cof) pair of arrays otherwise
_TABLES: dict = {}


def table_entries(p, degree):
    """Entries of the factor table over F_p up to degree: 2*p^degree.

    Every monic polynomial of degree at most `degree` has a code below that.
    """
    return 2 * p ** degree


def table_pays(ctx, n):
    """True when degree-n scans over ctx should build a factor table.

    Always for p = 2, whose scans have no other route (the table may then
    exceed MAX_SCAN, and the scan raises).  For p > 2 the table has
    table_entries(p, n) entries at about 0.3-0.5 us each to build, while
    factor_fq costs 150-350 us per member, so it is built only when it fits
    under MAX_SCAN and there is at least one member per TABLE_RATIO
    entries.  That share is 1 / (2 p^g) for g gaps below n, so many gaps
    or a large p leave the scan on factor_fq.
    """
    p = ctx.field.p
    if p == 2:
        return True
    entries = table_entries(p, n)
    return entries <= MAX_SCAN and member_count(ctx, n) * TABLE_RATIO >= entries


def _cached(p, max_degree, build):
    # the cached table for p, first (re)built by build(max_degree) when
    # missing or too small; the cap is checked before any cache or build
    entries = table_entries(p, max_degree)
    if entries > MAX_SCAN:
        raise ValueError(
            f"a degree-{max_degree} factor table over F_{p} needs {entries} entries "
            f"(cap is {MAX_SCAN})"
        )
    if _TABLES.get(p, (-1,))[0] < max_degree:
        _TABLES[p] = (max_degree, build(max_degree))
    return _TABLES[p][1]


def prepare_gf2_cache(max_degree):
    """Build (or extend) the smallest-factor table for GF(2) bulk scans.

    The table is filled by marking products of each irreducible with every
    monic cofactor, in increasing mask order, so entry a holds the least
    irreducible factor of a.  Degree scans factor members by repeated
    table lookup, which is several times faster than per-polynomial
    distinct-degree splitting at enumeration scale.  Raises ValueError
    when the table would exceed MAX_SCAN entries.
    """
    _cached(2, max_degree, _gf2_table)


def _gf2_table(max_degree):
    limit = 1 << (max_degree + 1)
    spf = [0] * limit
    mul = _gf2.mul
    for a in range(2, limit):
        if not spf[a]:
            spf[a] = a
            top = 1 << (max_degree - a.bit_length() + 2)
            for h in range(2, top):
                prod = mul(a, h)
                if not spf[prod]:
                    spf[prod] = a
    return spf


def prepare_factor_table(p, max_degree):
    """The factor table for scans over F_p up to max_degree, built on demand.

    For p = 2 it is prepare_gf2_cache's smallest-factor list.  Otherwise
    it is a pair (spf, cof) of arrays over codes: for a monic a, spf[a] is
    its least irreducible factor and cof[a] = a / spf[a], except that an
    irreducible a has spf[a] = 0 and cof[a] = 1.  Ascending code order is
    canonical_key order.  Raises ValueError when the table would exceed
    MAX_SCAN entries.
    """
    if p == 2:
        prepare_gf2_cache(max_degree)
        return _TABLES[2][1]
    return _cached(p, max_degree, partial(_basep_tables, p))


def _basep_tables(p, degree):
    # Each irreducible a with 2*deg(a) <= degree, met in increasing code
    # order, marks a*h for every monic h with deg(a) <= deg(h) <= degree -
    # deg(a) that no smaller irreducible marked.  The cofactors h of one
    # degree e are visited by a modular p-ary Gray walk from x^e: step k
    # raises digit v of h by one mod p, v being the p-adic valuation of k,
    # so the product gains a*x^v.  That changes only digits v..v+deg(a) of
    # its code, which one lookup in a's digit-wise addition table does.
    size = table_entries(p, degree)
    spf = array("I", [0]) * size
    cof = array("I", [1]) * size
    pw = [p ** i for i in range(degree + 1)]
    walk = pw[max(degree - 1, 0)]
    steps = array("I", [1]) * walk  # p^v for step k
    for q in pw[1:degree]:
        steps[q::q] = array("I", [q]) * len(range(q, walk, q))
    gray = array("I", [0]) * walk  # code of h - x^e after step k
    g = 0
    for k in range(1, walk):
        q = steps[k]
        g += q if g // q % p != p - 1 else (1 - p) * q
        gray[k] = g
    for d in range(1, degree // 2 + 1):
        window = pw[d + 1]
        for a in range(pw[d], 2 * pw[d]):
            if spf[a]:
                continue
            add = [0]  # add[w]: the d+1 digits w plus those of a, mod p
            for i in range(d + 1):
                digit = a // pw[i] % p
                add = [w + (v + digit) % p * pw[i] for v in range(p) for w in add]
            for e in range(d, degree - d + 1):
                h = pw[e]
                c = a * h
                if not spf[c]:
                    spf[c], cof[c] = a, h
                for q, g in islice(zip(steps, gray), 1, h):
                    w = c // q % window
                    c += (add[w] - w) * q
                    if not spf[c]:
                        spf[c], cof[c] = a, h + g
    return spf, cof


def factor_mask(a):
    """Factor a GF(2) mask via the cached table, ascending by factor mask.

    Raises ValueError when the table for a's degree would exceed MAX_SCAN
    entries.
    """
    if a <= 0:
        raise ValueError("mask must encode a nonzero polynomial")
    prepare_gf2_cache(a.bit_length() - 1)
    return _table_factor(_TABLES[2][1], a)


def _table_factor(table, a):
    # (factor, multiplicity) pairs of mask a by repeated smallest-factor lookup
    divrem = _gf2.divrem
    out = []
    while a != 1:
        f = table[a]
        e = 0
        while True:
            q, r = divrem(a, f)
            if r:
                break
            a = q
            e += 1
        out.append((f, e))
    return out


@dataclass
class ClassCounts:
    """Irreducible counts per factorization-shape bucket for one degree.

    classic: no x factor, a single irreducible (with multiplicity one);
    tame: a positive power of x times at most one irreducible;
    wild: no x factor, two or more irreducible factors with multiplicity.
    For F_2[x^2,x^3] these buckets coincide with the proper classification.
    max_m / max_k track the extreme shapes seen among irreducibles.
    """

    classic: int = 0
    tame: int = 0
    wild: int = 0
    total: int = 0
    max_m: int = 0
    max_k: int = 0

    def absorb(self, other):
        self.classic += other.classic
        self.tame += other.tame
        self.wild += other.wild
        self.total += other.total
        self.max_m = max(self.max_m, other.max_m)
        self.max_k = max(self.max_k, other.max_k)

    def as_tuple(self):
        return (self.classic, self.tame, self.wild, self.total)


def _free_positions(ctx, n):
    contains = ctx.semigroup.contains
    return [i for i in range(n) if contains(i)]


def member_count(ctx, n):
    """Number of monic degree-n members (0 when n is a gap)."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if not ctx.semigroup.contains(n):
        return 0
    return ctx.field.p ** len(_free_positions(ctx, n))


def _index_range(ctx, n, lo, hi):
    # free positions of degree n and the member index range [lo, hi), checked
    total = member_count(ctx, n)
    if hi is None:
        hi = total
    if not 0 <= lo <= hi <= total:
        raise ValueError(f"invalid scan range [{lo}, {hi}) for {total} members")
    return _free_positions(ctx, n), lo, hi


def _scan(ctx, n, lo, hi):
    """Iterator of (member, factors, m, k) per irreducible member of degree n.

    Covers the members with index in [lo, hi) of enumerate_degree's order
    and factors each exactly once, by _member_factor.  Members and factors
    are codes (`Polynomial.encoding`, the bitmask for p = 2).  (m, k) is the
    factorization shape.  A bad degree or range, or a factor table over the
    cap, raises ValueError here rather than at the first item.
    """
    free, lo, hi = _index_range(ctx, n, lo, hi)
    if n == 0 or lo == hi:
        return iter(())
    p = ctx.field.p
    factor = _member_factor(ctx, n)
    # split the free positions into two lookup halves for fast code assembly
    half = len(free) // 2
    lo_tab = _digit_table(free[:half], p)
    hi_tab = _digit_table(free[half:], p)
    size = len(lo_tab)
    base = p ** n
    ring = _residue_ring(ctx)

    def members():
        for i in range(lo, hi):
            f = base + lo_tab[i % size] + hi_tab[i // size]
            factors = factor(f)
            if next(_member_splits(factors, ring), None) is None:
                m, k = _shape_of(factors, p)  # p is the code of x
                yield f, factors, m, k

    return members()


def _member_factor(ctx, n):
    # code -> ascending (factor code, multiplicity) pairs for degree-n members:
    # by table lookup when a cached table covers n or building one pays,
    # otherwise by factor_fq
    p = ctx.field.p
    if _TABLES.get(p, (-1,))[0] >= n or table_pays(ctx, n):
        table = prepare_factor_table(p, n)
        return partial(_table_factor, table) if p == 2 else partial(_lookup_factor, *table)
    decode = partial(Polynomial.from_encoding, ctx.field)
    return lambda a: [(g.encoding, e) for g, e in factor_fq(decode(a)).factors]


def _digit_table(positions, p):
    # entry i: the code with the base-p digits of i, lowest first, at positions
    table = [0]
    for pos in positions:
        step = p ** pos
        table = [t + c * step for c in range(p) for t in table]
    return table


def _lookup_factor(spf, cof, a):
    # (factor, multiplicity) pairs of code a, ascending, by lookups alone
    out = {}
    while a != 1:
        f = spf[a] or a
        out[f] = out.get(f, 0) + 1
        a = cof[a]
    return list(out.items())


def count_classes(ctx, n, lo=0, hi=None):
    """Scan members of degree n (index range [lo, hi)) and bucket irreducibles.

    The index range refers to the canonical enumeration order of
    enumerate_degree, so disjoint ranges can run on separate workers and
    their ClassCounts absorb into the full-degree answer.
    """
    counts = ClassCounts()
    for _, _, m, k in _scan(ctx, n, lo, hi):
        counts.total += 1
        counts.max_m = max(counts.max_m, m)
        counts.max_k = max(counts.max_k, k)
        if m == 0 and k == 1:
            counts.classic += 1
        elif m > 0:
            counts.tame += 1
        else:
            counts.wild += 1
    return counts


def iter_irreducible(ctx, n):
    """Iterator of (polynomial, factorization, class) per irreducible member of degree n.

    Stream order matches enumerate_degree; class is None outside F_2[x^2,x^3].
    Like count_classes, it raises ValueError at the call, before any item.
    """
    scan = _scan(ctx, n, 0, None)
    field = ctx.field
    friendly = ctx.is_friendly
    decode = partial(Polynomial.from_encoding, field)
    return (
        (
            decode(f),
            FqFactorization(field, 1, tuple((decode(g), e) for g, e in factors)),
            _friendly_class_of(m, k) if friendly else None,
        )
        for f, factors, m, k in scan
    )
