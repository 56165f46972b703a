"""The semigroup-algebra layer for F_p[S].

Membership is defined by support: f lies in F_p[S] exactly when every
exponent with a nonzero coefficient belongs to S, and the residue ring's
gap digits decide it (see below).  Irreducibility inside
the algebra is decided by scanning divisor pairs drawn from the F_p[x]
factorization; that scan is exhaustive because membership survives exact
division (if g and g*h are members and g(0) != 0, then h is a member
too), so any algebra split is visible among those divisors.

Every gap of S lies below w = F(S)+1, so whether a polynomial is a member
depends only on its residue mod x^w: its digits at the gaps must all be
zero.  For every p a residue is an integer code mod p^w, and each context
owns one residue ring (AlgebraContext.ring), which carries that modulus;
its member, that gap-digit test, is the one membership test, is_member's
too.  One kernel, `_member_splits`, decides every verdict on those
residues: the per-polynomial API, the counting scan and the listing all
call it, and only a verdict's split halves of the least degree are ever
multiplied out, on bitmasks for p = 2 and on coefficient tuples
otherwise, to pick its witness.  The ring
memoizes products in bounded memos, so scans over several degrees and
repeated verdicts share them.  Since the kernel reads a factor only
through its residue, whether a member splits depends only on the
multiset of its factors' residues.  Scans handle members and factors as
integer codes (`Polynomial.encoding`, which is the bitmask for p = 2) and
factor members by lookup in a cached factor table where one pays, since
enumerating all coefficient combinations of a degree dominates every
verification campaign.  Every p has one table format, a smallest-factor
and a cofactor array over codes, read with no division.  A scan on the
table walks no member's factors: its context keeps one signature id per
code (AlgebraContext.signatures), the id of that multiset, resolved at
most once while the ids are kept (SIGNATURE_IDS of them at most), and
the scan tallies its members' ids and decides each id's verdict and
shape once, on the lattice of its residues.  At degree 16 the 32,768
members of F_2[x^2,x^3] have 285 ids.  They are resolved either by a
sweep over the codes with a nonzero constant term (49,152 of them: all
such codes below degree 16 and the 16,384 members among degree 16's),
from which a dense scan tallies each member x^m*u through u's id in
strided slices with no member list, or along cofactor chains, by the
rule AlgebraContext.signatures gives.
Only the listing walks the table, for the factors of its irreducible
members.  A table covers every monic code, not only the members, so a
scan over any field uses one only when it fits under MAX_SCAN entries and
pays (see table_pays); otherwise it factors each member (by
`_gf2.factor` on its code for p = 2, by factor_fq otherwise) and walks
that member's own divisor lattice.
prepare_scans refuses a degree over MAX_SCAN members and is the scans'
one door to the table cache: it builds their table and returns the entry
they read, which each scan takes for its degree and a caller of several
degrees hands its pool's workers.  scan_us refuses the same, and
estimates over TIME_CAP_US, before any work: the CLI's one scan admission.

Scans are brute force and never consult the class group of `classgroup`,
which counts whole degrees from the types of irreducibles instead; the
CLI's `count` runs a scan only where that engine would cost more, and
`verify` compares a scan's buckets with the engine's (with the closed
forms' for F_2[x^2,x^3]), so each route checks the other.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import compress, islice

from . import _gf2
from .ffpoly import FieldSpec, FqFactorization, Polynomial, _divrem_t, _from_kernel, _mul_t, factor_fq
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

    @cached_property
    def ring(self):
        """The residue ring mod x^(F(S)+1) (see _residue_ring), built on first use.

        Its memos (at most MEMO_SIZE entries each) live as long as the
        context, so scans over several degrees and repeated verdicts share
        them.  Equality, hashing and pickling see only the field and the
        semigroup.
        """
        return _residue_ring(self)

    @cached_property
    def signatures(self):
        """The table-route scans' signature ids (a _Signatures), built on first use.

        Its array sig over the factor table's codes holds, for each code a
        a scan has reached, the id of the multiset of a's factor residues
        mod x^(F(S)+1), x kept in its own slot; 0 marks a code not yet
        resolved.  sig[a] = step(sig[cof[a]], slot of spf[a] or a), with
        the steps memoized in one dict (id, slot) -> id, so a code is
        resolved at most once while its id is kept, and a scan only
        tallies ids.  Each id's verdict (unsplit, m, k) is decided once, on
        the divisor lattice of its residues.  The array grows with the
        table, 4 bytes an entry; the ids' memos, about 250 bytes an id, are
        cleared with the array once they hold SIGNATURE_IDS ids, so they
        stay bounded.  Like the ring, it is left out of pickles.

        The codes a scan asks for are resolved one of two ways, and the
        counts and listings are the same either way.  In a dense context
        (is_dense) a scan sweeps only x-free codes, those with a nonzero
        constant term: every factor of one, and its cofactor, is x-free
        too, so they need only each other, and the codes x divides stay 0.
        A degree-n scan sweeps the x-free codes [p^k, 2p^k) of each degree
        k below n that the sweep mark has not passed, in one forward pass
        whose cofactors, of lower degree, are all resolved, and then, in
        its members' code range (the whole degree, or from its first
        member's code to its last for a pool chunk), the x-free codes with
        a member residue, its members x^0*u.  A member x^m*u has the id of
        u's multiset plus m x-slots, so a count tallies strided slices of
        the array over the u of each member residue (over F_p[x], p > 2,
        one slice over every u, whose codes x divides read 0) and moves
        each id met by m, once per (id, m), with no member list.  A
        degree's other x-free codes (over F_2[x^2,x^3], those with an x^1
        term) are swept when a higher scan passes it; a sweep steps only
        the codes it finds unresolved, so no x-free code is stepped twice
        while the ids are kept.  Elsewhere
        the chain resolver resolves the codes a scan asks for in batches,
        each batch's unresolved cofactors first.  In a dense context a
        scan of degrees 2..n reaches every monic code h below n along its
        members' cofactor chains anyway: when deg h < n-1, x^(n-deg h)*h
        has no x^1 term, so it is a member, and since x is the least
        irreducible its chain strips x down to h; at degree n-1, h lies on
        the chain of x*h or (x+1)*h when either is a member, and otherwise
        (over F_2, h = 1 + x^2*g) is itself a member of degree n-1.  So
        the sweep resolves exactly the x-free codes the chains resolve,
        only faster, and reads the others through their x-free parts.  In
        a sparse context the chains reach a small share of the codes:
        F_7[<3,5,7>] to degree 8 resolves 49,712 codes to 41,463 ids by
        chains, where a sweep of every code would resolve 961,143 codes to
        750,083 ids and more than double the peak memory.
        """
        return _Signatures(self)

    def __getstate__(self):
        # the ring holds closures, and the signature array is as long as
        # the factor table; an unpickled context builds its own
        state = dict(self.__dict__)
        state.pop("ring", None)
        state.pop("signatures", None)
        return state


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
    A reducible verdict carries a witness pair (g, h) of members of
    positive degree: g is a monic product of f's own irreducible factors,
    and h = f // g is an exact quotient that carries f's leading unit, so
    g * h == f by construction (nothing multiplies them back at run
    time).  An irreducible verdict in F_2[x^2,x^3] carries the
    classification.
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
    """Whether f lies in F_p[S], by the ring's gap-digit test; ValueError for another field."""
    if f.field != ctx.field:
        raise ValueError("polynomial field does not match the context")
    modulus, _, member = ctx.ring
    return member(f.encoding % modulus)


def enumerate_degree(ctx, n, lo=0, hi=None):
    """Yield the monic members of degree n in increasing bitmask order.

    Coefficients run over the free positions S & [0, n-1], lowest position
    least significant, which is plain bitmask order for p = 2; the stream
    is empty when n is a gap of S.  Only the members with index in
    [lo, hi) are yielded, as for count_classes, whose scans share this
    order.  A degree over MAX_SCAN members raises ValueError, as a scan does.
    """
    lo, hi, low, high = _member_tables(ctx, n, lo, hi)
    field = ctx.field
    base, size = field.p ** n, len(low)
    for i in range(lo, hi):
        yield Polynomial.from_encoding(field, base + low[i % size] + high[i // size])


# entries each of a residue ring's two memos (mul, digits) keeps: room for
# the products that recur in small-q scans, and about 1.0 MB for both memos
# of a q = 257 ring over <2,3> when products rarely repeat
MEMO_SIZE = 1 << 11


def _residue_ring(ctx):
    """(modulus, mul, member) for residues mod x^w, w = F(S)+1.

    Every gap lies below w, so a polynomial is a member exactly when its
    residue is.  A residue is an integer code for every p: the code
    (`Polynomial.encoding`) of the low w coefficients, which is a
    polynomial's code mod modulus = p^w (for p = 2, the mask cut to w
    bits); this is the one place that modulus is decided.  member
    reads the residue's digits at the gaps (one AND with the gap mask for
    p = 2), none of which may be nonzero, until no digits are left.  mul
    is memoized; a miss computes the product by `_gf2.mul` for p = 2 and
    otherwise by a convolution of the residues' own digits, cut to w (a
    second memo keeps each residue's digits, so a residue is decoded at
    most once while it stays there).  Each memo keeps
    its MEMO_SIZE most recently used entries, so the ring's memory stays
    bounded however long the context lives and however rarely its products
    repeat.
    AlgebraContext.ring builds one per context.
    """
    p = ctx.field.p
    w = ctx.semigroup.frobenius + 1
    modulus = p ** w
    memo = lru_cache(maxsize=MEMO_SIZE)

    @memo
    def digits(code):
        out = []
        while code:
            code, c = divmod(code, p)
            out.append(c)
        return out

    if p == 2:
        # bit i set for a gap i, from a string: summing 1 << g is quadratic in F(S)
        gap_mask = int("0" + "".join("10"[m] for m in reversed(ctx.semigroup.membership[:w])), 2)

        def product(a, b):
            return _gf2.mul(a, b) % modulus

        def member(r):
            return not r & gap_mask
    else:
        # p^(g - previous gap), at most p^m(S) however large F(S) is
        gaps = ctx.semigroup.gaps
        steps = [p ** (g - prev) for prev, g in zip((0, *gaps), gaps)]

        def product(a, b):
            db, da = sorted((digits(a), digits(b)), key=len)  # db is the shorter
            top, rev, code = len(db) - 1, db[::-1], 0
            for k in range(min(len(da) + top, w) - 1, top - 1, -1):  # all of db meets da
                code = code * p + sum(map(operator.mul, da[k - top:k + 1], rev)) % p
            for k in range(min(top, w) - 1, -1, -1):
                code = code * p + sum(map(operator.mul, da[: k + 1], db[k::-1])) % p
            return code

        def member(r):
            for step in steps:
                if not r:  # no digits left
                    break
                r //= step  # digit g of the residue is now the lowest
                if r % p:
                    return False
            return True

    return modulus, memo(product), member


def _member_splits(factors, ring):
    """Yield each index i of a member split, for i up to half the lattice.

    factors holds (monic irreducible, multiplicity) pairs, each irreducible
    as its code or any code with its residue.  The divisor lattice lists
    the residues of every monic divisor in mixed-radix order over the
    exponent vectors, so entries i and len-1-i are complements; a split is
    a member split when both are members.
    """
    modulus, mul, member = ring
    divs = [1 % modulus]  # the residue of 1: 0 when w = 0 (S = N)
    for g, e in factors:
        r = g % modulus
        # divs[0] is one, so the first level starts with r and needs no product
        level = [r, *[mul(d, r) for d in divs[1:]]]
        divs += level
        for _ in range(e - 1):
            level = [mul(d, r) for d in level]
            divs += level
    last = len(divs) - 1
    for i in range(1, last // 2 + 1):
        if member(divs[i]) and member(divs[last - i]):
            yield i


def is_irreducible_in_algebra(ctx, f):
    """Full verdict for f relative to F_p[S], with a witness when reducible.

    Membership and splits are decided on residues by the kernel the scans
    use, from f's code, computed once.  The witness, when a split exists,
    is (g, f // g): g is the half with the least canonical key (degree,
    then integer code order; bitmask order for p = 2) among both halves of
    every member split, chosen by _least_half, and f // g, an exact
    quotient (ArithmeticError otherwise), carries the leading unit.  For
    p = 2 the work runs on the code: `_gf2.factor` factors it, g is
    multiplied out by `_gf2.mul` and f // g taken by `_gf2.divrem`;
    otherwise factor_fq factors f and both halves are coefficient tuples.
    Only the two halves become Polynomials, as kernel output whose digits
    are not checked again.
    """
    field = ctx.field
    if f.field != field:
        raise ValueError("polynomial field does not match the context")
    if f.is_zero:
        raise ValueError("the zero polynomial has no verdict")
    modulus, _, member = ctx.ring
    code = f.encoding
    if not member(code % modulus):
        return AlgebraVerdict("not_member")
    if f.degree == 0:
        return AlgebraVerdict("unit")
    p = field.p
    if p == 2:
        codes = factors = _gf2.factor(code)
    else:
        fq_factors = factor_fq(f).factors
        codes = [(g.encoding, e) for g, e in fq_factors]
        factors = [(g.coeffs, e) for g, e in fq_factors]
    splits = list(_member_splits(codes, ctx.ring))
    if splits:
        g = _least_half(factors, splits, p)
        h, r = _gf2.divrem(code, g) if p == 2 else _divrem_t(f.coeffs, g, p)
        if r:
            raise ArithmeticError("a member split's half leaves a remainder on the member")
        half = partial(Polynomial.from_mask if p == 2 else _from_kernel, field)
        return AlgebraVerdict("reducible", witness=(half(g), half(h)))
    classification = None
    if ctx.is_friendly:
        classification = _friendly_class_of(*_shape_of(codes, p))  # p is the code of x
    return AlgebraVerdict("irreducible", classification=classification)


def _least_half(factors, splits, p):
    """The half with the least canonical key among both halves of every split.

    factors holds f's (monic irreducible, multiplicity) pairs over F_p,
    each irreducible as its bitmask for p = 2 and as its coefficient tuple
    otherwise, and splits the lattice indices `_member_splits` yielded for
    them.  The key orders by degree first, so the divisor degrees are
    listed once, level by level in the kernel's mixed-radix order, and
    only the halves of the least degree are multiplied out, by `_gf2.mul`
    or on coefficient tuples.  Among monic divisors of one degree the key
    is integer code order: the masks' own order, the reversed tuples'
    order.  The winner comes back in its factors' form.
    """
    if p == 2:
        size, half_one, mul, key = int.bit_length, 1, _gf2.mul, None
    else:
        size, half_one, mul, key = len, (1,), partial(_mul_t, p=p), lambda half: half[::-1]
    degrees = [0]
    for g, e in factors:
        level = degrees
        for _ in range(e):
            level = list(map((size(g) - 1).__add__, level))
            degrees += level
    last = len(degrees) - 1
    halves = [*splits, *map(last.__sub__, splits)]
    low = min(map(degrees.__getitem__, halves))
    built = []
    for j in compress(halves, map(low.__eq__, map(degrees.__getitem__, halves))):
        half = half_one
        for g, e in factors:
            j, a = divmod(j, e + 1)
            for _ in range(a):
                half = mul(half, g)
        built.append(half)
    return min(built, key=key)


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
# the longest scan or class-group count the CLI admits, by its estimated
# time in microseconds: MAX_SCAN member scans at the 15 us a table-route
# member first cost, about 252 s; pinned so that re-measuring SCAN_US
# moves no input across it
TIME_CAP_US = 15 * MAX_SCAN
# What one process spends, in microseconds (2-vCPU x86-64, Python 3.11): a
# member on the factor table, tallied by signature id (1-12 us over F_2,
# F_3, F_5, F_7, the most where ids rarely repeat and each takes its own
# verdict; 8 stays, so no count moves between routes), a member factored
# by factor_fq (100-125 us over F_3, F_257, F_4099 at degrees 8-9, 3 and
# 2, code conversions included, and 25-90 us over F_2 at degrees 16-26,
# where _gf2.factor takes the member's code with no conversion; 300 stays,
# so no scan changes route or admission), and, building a factor table,
# one step of its Gray walks and one entry of its addition tables; see
# scan_us and table_us.  The F_2 walks step by one xor and build no
# addition table, so F_2 builds now take about half of table_us (0.017 s
# at degree 16 and 0.37 s at 20, estimated at 0.039 and 0.67 s); WALK_US
# and ADD_US stay as they are, so that no scan changes route or admission
SCAN_US = 8
FACTORED_US = 300
WALK_US = 0.27
ADD_US = 0.063

# member codes a chain-route scan resolves at once, and codes of each
# residue mod max(p^w, p) a dense sweep reads at once, so that a degree's
# scan holds one block's key lists rather than a whole degree's
SCAN_BLOCK = 1 << 12

# signature ids a context keeps (see _Signatures.ids) before it clears them
# and resolves its codes anew: at 230-270 bytes an id (measured over F_2,
# F_3 and F_5 scans), about 16 MB.  Of the scans the CLI admits, only
# F_7[<3,4,5>] to degree 8 (95,805 ids) reaches it; F_3[<3,4,5>] to 14 has
# 53,785 ids and F_5[<3,4,5>] to 9 has 51,242.  A bound of 2^15 saves at
# most 12 MB on those and, clearing twice, slows the F_5 scan from 1.0 to
# 1.6 s (2-vCPU x86-64, Python 3.11)
SIGNATURE_IDS = 1 << 16

# p -> (degree, (spf, cof)), see prepare_factor_table
_TABLES: dict = {}


def table_entries(p, degree):
    """Entries of the factor table over F_p up to degree: 2*p^degree.

    Every monic polynomial of degree at most `degree` has a code below that.
    """
    return 2 * p ** degree


def table_pays(ctx, n):
    """True when degree-n scans over ctx should build a factor table.

    The rule is the same for every p: the table is built only when it fits
    under MAX_SCAN and its estimated build time (table_us) is below what it
    saves, FACTORED_US - SCAN_US for each member of degree n.  Members are
    a share 1 / (2 p^g) of the table's entries for g gaps below n, so many
    gaps, a large p or a high degree leave the scan on factor_fq.
    """
    p = ctx.field.p
    return (table_entries(p, n) <= MAX_SCAN
            and table_us(p, n) < member_count(ctx, n) * (FACTORED_US - SCAN_US))


def prepare_factor_table(p, max_degree):
    """The factor table for scans over F_p up to max_degree, built on demand.

    It is a pair (spf, cof) of arrays over codes (`Polynomial.encoding`,
    the bitmask for p = 2), the same for every p: for a monic a, spf[a] is
    its least irreducible factor and cof[a] = a / spf[a], except that an
    irreducible a has spf[a] = 0 and cof[a] = 1.  Ascending code order is
    canonical_key order.  The table is cached per p and rebuilt only for a
    higher degree.  Raises ValueError, before any build, when the table
    would exceed MAX_SCAN entries.  Scans get theirs through prepare_scans.
    """
    entries = table_entries(p, max_degree)
    if entries > MAX_SCAN:
        raise ValueError(
            f"a degree-{max_degree} factor table over F_{p} needs {entries} entries "
            f"(cap is {MAX_SCAN})"
        )
    if _TABLES.get(p, (-1,))[0] < max_degree:
        _TABLES[p] = (max_degree, _basep_tables(p, max_degree))
    return _TABLES[p][1]


def install_factor_table(p, entry):
    """Cache an entry prepare_scans returned in another process.

    Scans here then factor exactly as scans there do, and build no table
    up to that degree.
    """
    _TABLES[p] = entry


def prepare_gf2_cache(max_degree):
    """Build (or extend) the GF(2) factor table: prepare_factor_table(2, max_degree)."""
    prepare_factor_table(2, max_degree)


def _basep_tables(p, degree):
    # Each irreducible a with 2*deg(a) <= degree, met in increasing code
    # order, marks a*h for every monic h with deg(a) <= deg(h) <= degree -
    # deg(a) that no smaller irreducible marked.  x, the least irreducible,
    # marks every x*h, code p*h, by one slice per deg(h), so a walk skips the
    # cofactors divisible by x: those of one degree e with constant term
    # t = 1..p-1 are visited by one modular p-ary Gray walk from x^e + t over
    # digits 1..e-1.  Step k raises digit v+1 of h by one mod p, v being the
    # p-adic valuation of k, so the product gains a*x^(v+1).  That changes
    # only digits v+1..v+1+deg(a) of its code, which one lookup in a's
    # digit-wise addition table does; adding t*a to a*x^e takes t of them.
    # Over F_2 adding is xor, so no addition table is built: the one walk
    # per a and e starts at code (a << e) ^ a, step k is c ^= a * 2^(v+1),
    # and h after it is x^e + 1 plus the binary reflected Gray code
    # k ^ (k >> 1) shifted up one digit, in closed form.
    size = table_entries(p, degree)
    spf = array("I", [0]) * size
    cof = array("I", [1]) * size
    pw = [p ** i for i in range(degree + 1)]
    for h in pw[1:degree]:
        spf[p * h:2 * p * h:p] = array("I", [p]) * h
        cof[p * h:2 * p * h:p] = array("I", range(h, 2 * h))
    walk = pw[max(degree - 2, 0)]
    steps = array("I", [p]) * walk  # p^(v+1) for step k
    for q in pw[1:degree - 2]:
        steps[q::q] = array("I", [p * q]) * len(range(q, walk, q))
    if p == 2:
        # from a generator: a list of the offsets would hold 11 MB at degree 20
        gray = array("I", ((k ^ k >> 1) << 1 for k in range(walk)))
        for d in range(1, degree // 2 + 1):
            for a in range(pw[d] + 1, 2 * pw[d], 2):  # even a: x divides them
                if spf[a]:
                    continue
                for e in range(d, degree - d + 1):
                    c = a << e ^ a
                    h = pw[e] + 1
                    if not spf[c]:
                        spf[c], cof[c] = a, h
                    for q, g in islice(zip(steps, gray), 1, pw[e - 1]):
                        c ^= a * q
                        if not spf[c]:
                            spf[c], cof[c] = a, h + g
        return spf, cof
    gray = array("I", [0]) * walk  # code of h - x^e - t after step k
    g = 0
    for k in range(1, walk):
        q = steps[k]
        g += q if g // q % p != p - 1 else (1 - p) * q
        gray[k] = g
    for d in range(1, degree // 2 + 1):
        window = pw[d + 1]
        for a in range(pw[d] + (d == 1), 2 * pw[d]):  # x is marked already
            if spf[a]:
                continue
            add = [0]  # add[w]: the d+1 digits w plus those of a, mod p
            for i in range(d + 1):
                digit = a // pw[i] % p
                add = [w + (v + digit) % p * pw[i] for v in range(p) for w in add]
            for e in range(d, degree - d + 1):
                start = a * pw[e]
                for h in range(pw[e] + 1, pw[e] + p):
                    w = start % window
                    c = start = start + add[w] - w
                    if not spf[c]:
                        spf[c], cof[c] = a, h
                    for q, g in islice(zip(steps, gray), 1, pw[e - 1]):
                        w = c // q % window
                        c += (add[w] - w) * q
                        if not spf[c]:
                            spf[c], cof[c] = a, h + g
    return spf, cof


@dataclass
class ClassCounts:
    """Irreducible counts per factorization-shape bucket for one degree.

    An irreducible x^m * (k irreducibles of F_q[x]) is classic when m = 0
    and k = 1, tame when m > 0, and wild otherwise (m = 0, k >= 2).  For
    F_2[x^2,x^3] these buckets coincide with the proper classification.
    max_m / max_k track the extreme shapes seen among irreducibles.  Every
    count route gives one per degree: the closed forms (counting.b_counts_to),
    the class group (classgroup.degree_counts) and the scans (count_classes).
    """

    classic: int = 0
    tame: int = 0
    wild: int = 0
    total: int = 0
    max_m: int = 0
    max_k: int = 0

    def add(self, m, k, count=1):
        """Count `count` irreducibles of shape (m, k); none moves max_m, max_k."""
        if m == 0 and k == 1:
            self.classic += count
        elif m > 0:
            self.tame += count
        else:
            self.wild += count
        self.total += count
        if count:
            self.max_m = max(self.max_m, m)
            self.max_k = max(self.max_k, k)

    def absorb(self, other):
        self.classic += other.classic
        self.tame += other.tame
        self.wild += other.wild
        self.total += other.total
        self.max_m = max(self.max_m, other.max_m)
        self.max_k = max(self.max_k, other.max_k)

    def as_tuple(self):
        return (self.classic, self.tame, self.wild, self.total)


def is_dense(ctx):
    """Whether members are at least half of each degree's monic codes: p^g <= 2 for g gaps.

    True for F_2[x^2,x^3] and every F_p[x]: the contexts whose table-route
    scans sweep (see AlgebraContext.signatures).
    """
    return ctx.field.p ** len(ctx.semigroup.gaps) <= 2


def _free_positions(ctx, n):
    contains = ctx.semigroup.contains
    return [i for i in range(n) if contains(i)]


def _free_count(ctx, n):
    # len(_free_positions(ctx, n)) without the list: n minus the gaps below n
    return n - bisect_left(ctx.semigroup.gaps, n)


def member_count(ctx, n):
    """Number of monic degree-n members (0 when n is a gap)."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if not ctx.semigroup.contains(n):
        return 0
    return ctx.field.p ** _free_count(ctx, n)


def _member_guard(ctx, n):
    # ValueError when degree n has more than MAX_SCAN monic members: decided
    # from the number k of free positions below n, without forming p^k when
    # k alone puts it over (p^k >= 2^k); a negative n is member_count's error
    if n < 0 or not ctx.semigroup.contains(n):
        return
    k = _free_count(ctx, n)
    if k >= MAX_SCAN.bit_length() or ctx.field.p ** k > MAX_SCAN:
        raise ValueError(f"degree {n} needs more than {MAX_SCAN} member scans")


def _table_degree(ctx, degrees):
    # the highest member degree whose scan uses a table (see table_pays),
    # 0 for none; ValueError for a degree over MAX_SCAN members, decided
    # before any work
    for n in degrees:
        _member_guard(ctx, n)
    return max((n for n in degrees if member_count(ctx, n) and table_pays(ctx, n)), default=0)


def prepare_scans(ctx, degrees):
    """Refuse oversized scans of ctx at degrees, else the table entry they read.

    Raises ValueError for the first degree with more than MAX_SCAN monic
    members, before any work.  Then builds the factor table once, for the
    highest member degree whose scan uses one (see table_pays, which never
    picks a table over the cap), and returns the cached entry (degree,
    (spf, cof)) when it covers a member degree of degrees, else None:
    those scans factor by factor_fq.  Each scan calls it for its own
    degree, and a process that installs the entry (install_factor_table)
    scans as this one does; it sets no time cap (see scan_us).
    """
    p = ctx.field.p
    top = _table_degree(ctx, degrees)
    if top:
        prepare_factor_table(p, top)
    entry = _TABLES.get(p)
    if entry is not None and any(n <= entry[0] and member_count(ctx, n) for n in degrees):
        return entry
    return None


def table_us(p, degree):
    """Estimated microseconds to build the factor table over F_p up to degree.

    For each irreducible a of degree d <= degree/2 other than x, whose
    multiples are marked by slices, _basep_tables builds a's addition
    table over d+1 digits (ADD_US an entry) and walks the (p-1)*p^(e-1)
    cofactors of every degree e from d to degree-d that x does not divide
    (WALK_US a step); p^d/d, an upper bound, stands for the number of such
    a.  The step counts grow with the degree, and the addition tables with
    p: at degree 2 they cost about p/2 entries per table entry.  Over
    p <= 257 and tables of up to 11.5M entries (F_7, degree 8) this came
    within 0.65-1.4x of the measured build.
    """
    us = 0
    for d in range(1, degree // 2 + 1):
        walk = sum((p - 1) * p ** (e - 1) for e in range(d, degree - d + 1))
        add = sum(p ** i for i in range(1, d + 2))
        us += (p ** d // d - (d == 1)) * (WALK_US * walk + ADD_US * add)
    return us


def scan_us(ctx, degrees):
    """Estimated microseconds for one process to scan ctx at degrees.

    Each member costs SCAN_US on the table route and FACTORED_US through
    factor_fq, and the table prepare_scans would build costs table_us
    (nothing when one is cached).  Raises ValueError, before any work, only
    for a degree over MAX_SCAN members, as prepare_scans does, and for an
    estimate over TIME_CAP_US.
    """
    p = ctx.field.p
    top = _table_degree(ctx, degrees)
    cached = _TABLES.get(p, (0,))[0]
    us = table_us(p, top) if top > cached else 0
    covered = max(top, cached)  # every degree a table covers is factored by it
    us += sum(member_count(ctx, n) * (SCAN_US if n <= covered else FACTORED_US)
              for n in degrees)
    if us > TIME_CAP_US:
        raise ValueError(f"a scan estimated at {us / 1e6:.0f} s (cap {TIME_CAP_US / 1e6:.0f} s)")
    return us


def _member_tables(ctx, n, lo, hi):
    # (lo, hi, low, high): the member index range [lo, hi) of degree n,
    # checked, and digit tables over the two halves of its free positions,
    # so that member i has the code p^n + low[i % len(low)] + high[i // len(low)].
    # A degree over the guard raises before its positions are listed.
    _member_guard(ctx, n)
    total = member_count(ctx, n)
    if hi is None:
        hi = total
    if not 0 <= lo <= hi <= total:
        raise ValueError(f"invalid scan range [{lo}, {hi}) for {total} members")
    free, p = _free_positions(ctx, n), ctx.field.p
    half = len(free) // 2
    return lo, hi, _digit_table(free[:half], p), _digit_table(free[half:], p)


def _scan(ctx, n, lo, hi):
    """(blocks, table) for the members with index in [lo, hi) of degree n.

    blocks iterates lists of member codes (`Polynomial.encoding`, the
    bitmask for p = 2) in enumerate_degree's order: the rows of the
    high-digit table, cut to [lo, hi), gathered until a list holds
    SCAN_BLOCK codes, so no list passes SCAN_BLOCK by a row (p^floor(k/2)
    codes for p^k members).  table is the factor table (spf, cof) that
    prepare_scans hands the scan, or None: the members are then factored
    one by one (see _factored).  A dense scan on a table reads no block:
    it sweeps a code range instead (see _Signatures.sweep).  A degree over
    the guard or a bad degree or range raises ValueError here rather than
    at the first block.  An empty range or a gap degree builds no table.
    """
    lo, hi, lo_tab, hi_tab = _member_tables(ctx, n, lo, hi)
    if n == 0 or lo == hi:
        return iter(()), None
    entry = prepare_scans(ctx, (n,))
    base, size = ctx.field.p ** n, len(lo_tab)

    def blocks():
        block = []
        for row in range(lo // size, (hi - 1) // size + 1):
            start = row * size
            block += map((base + hi_tab[row]).__add__, lo_tab[max(lo - start, 0):hi - start])
            if len(block) >= SCAN_BLOCK:
                yield block
                block = []
        if block:
            yield block

    return blocks(), None if entry is None else entry[1]


def _factored(ctx, blocks):
    # (member, factors, m, k) per irreducible member of blocks, each member
    # factored (its code by _gf2.factor for p = 2, by factor_fq otherwise)
    # and decided on its own divisor lattice
    p, ring = ctx.field.p, ctx.ring
    decode = partial(Polynomial.from_encoding, ctx.field)
    for codes in blocks:
        for f in codes:
            factors = (_gf2.factor(f) if p == 2
                       else [(g.encoding, e) for g, e in factor_fq(decode(f)).factors])
            if next(_member_splits(factors, ring), None) is None:
                g, e = factors[0]
                m = e if g == p else 0  # p is the code of x, the least irreducible
                yield f, factors, m, sum(e for _, e in factors) - m


class _Signatures:
    """A context's signature ids over the factor table's codes (see AlgebraContext.signatures).

    dense picks the resolver once, by is_dense: a dense context's scans
    read their ids from sweep, every other context's from ids.  A sweep
    resolves only x-free codes (those with a nonzero constant term), and
    every x-free code of degree below its mark, swept, is resolved; a
    clear of the ids resets the mark with the array.
    """

    def __init__(self, ctx):
        p, ring = ctx.field.p, ctx.ring
        self.p, self.ring, self.modulus = p, ring, ring[0]
        # a slot is a factor's residue mod p^max(w, 1): x's, p % slot_mod,
        # has constant digit 0 and every other irreducible's a nonzero one,
        # so x keeps its own slot even for S = N, where w = 0
        self.slot_mod = max(self.modulus, p)
        self.x_slot = p % self.slot_mod
        self.dense = is_dense(ctx)
        self.residues = self.x_free = self.members = None
        if self.dense:
            # residue classes (stride, residues): x_free holds every x-free
            # code, members the x-free members x^0*u (over <2,3>: 1 mod 4).
            # residues[min(m, w)] holds the u whose x^m*u is a member, mod
            # p^w below w (over <2,3>: [1] mod 4, then none); from w on, one
            # class over every x-free u, which for p > 2 is the whole range:
            # its codes x divides read 0, never resolved in a dense context
            w, modulus, member = ctx.semigroup.frobenius + 1, self.modulus, ring[2]
            free = [r for r in range(self.slot_mod) if r % p]
            self.x_free = (self.slot_mod, free)
            self.members = (self.slot_mod, [r for r in free if member(r % modulus)])
            self.residues = [(modulus, [r for r in free if member(p ** m * r % modulus)])
                             for m in range(w)] + [(2, [1]) if p == 2 else (1, [0])]
        self._clear()

    def _clear(self):
        # no code resolved and no id but the empty multiset's; the old
        # array goes before _fit extends the new one to the table.  An id
        # is stored as an edge of a trie: its multiset less its greatest
        # slot (parent) and that slot (last), so an id costs a steps entry
        # and a few array slots, whatever its size
        self.sig = array("i", [0, 1])  # 0: unresolved; 1: the empty multiset, code 1's
        self.swept = 1  # the sweep mark: code 1, of degree 0, is resolved
        self.steps = {}  # id * slot_mod + slot -> id of that multiset plus the slot
        self.powers = {}  # (id, m) -> id of that multiset plus m x-slots
        self.parent = array("i", [0, 0])
        self.last = array("i", [0, -1])  # -1: the empty multiset's, below every slot
        self.verdicts = [None, None]  # id -> (unsplit, m, k), decided on first use
        self.kinds = {}  # each (unsplit, m, k) once, shared by the ids that have it

    def _fit(self, table):
        # clear the ids once they pass SIGNATURE_IDS, and extend the array
        # to the table (a new one, or one rebuilt to a higher degree); any
        # table prepare_factor_table built over the field agrees on every
        # code it covers
        if len(self.last) > SIGNATURE_IDS:
            self._clear()
        sig = self.sig
        if len(sig) < len(table[1]):
            sig.frombytes(bytes(sig.itemsize * (len(table[1]) - len(sig))))

    def ids(self, codes, table):
        """The signature id of each code in the list codes, resolved along cofactor chains.

        table is the factor table (spf, cof) the scan reads.  The ids are
        valid until the next call: one that finds more than SIGNATURE_IDS
        ids first clears every memo and the array, so a caller reads the
        verdicts of one call's ids before it makes another.  A dense
        context's scans read their ids from sweep instead, and its tallies
        read the codes x divides as unresolved, so there the chains' ids of
        those codes are not kept.
        """
        self._fit(table)
        ids = self._ids(codes, table)
        if self.dense:
            sig = self.sig
            sig[::self.p] = array("i", [0]) * len(range(0, len(sig), self.p))
        return ids

    def sweep(self, n, lo, hi, table):
        """Resolve what the members in codes [lo, hi) of degree n read, block by block.

        It yields each block's (start, end); a block holds slot_mod *
        SCAN_BLOCK codes.  Before each, the ids are cleared once they pass
        SIGNATURE_IDS, every degree below n that the sweep mark has not
        passed is swept, and the block's x-free members x^0*u are resolved;
        its other members x^m*u, m > 0, are read through u, of lower
        degree.  The block's ids stay valid until the generator resumes, so
        a caller reads their verdicts first.  A sweep of the whole degree
        that no clear cut after its first block passes n when every x-free
        code is a member (over N).
        """
        p, first = self.p, None
        for start, end in self._blocks(lo, hi):
            self._fit(table)
            if self.swept <= n:
                self._sweep_below(n, table)
                self._sweep_codes(start, end, self.members, table)
            if first is None:
                first = self.sig
            yield start, end
        whole = (lo, hi) == (p ** n, 2 * p ** n) and self.sig is first
        if whole and self.swept == n and self.members == self.x_free:
            self.swept = n + 1

    def tally(self, start, end):
        """A Counter of the ids of the member codes in [start, end), in a dense context.

        Each strided slice of sig over the u of one member residue is
        counted (see _pieces), and each id met moved by its m x-slots.
        """
        tally = Counter()
        for m, _, ids in self._pieces(start, end):
            if m:
                for sid, count in Counter(ids).items():
                    if sid:
                        tally[self._power(sid, m)] += count
            else:
                tally.update(ids)
        tally.pop(0, None)  # codes x divides, counted through their x-free parts
        return tally

    def block_ids(self, start, end):
        """The id of each code in [start, end) in a dense context, 0 for a non-member."""
        out = array("i", [0]) * (end - start)
        for m, codes, ids in self._pieces(start, end):
            if m:
                powers = {sid: sid and self._power(sid, m) for sid in set(ids)}
                ids = array("i", map(powers.__getitem__, ids))
            out[codes.start - start:codes.stop - start:codes.step] = ids
        return out

    def _pieces(self, start, end):
        # (m, codes, ids) for the members x^m*u in [start, end) whose u, of
        # degree n - m, lies in one class of residues[min(m, w)]: codes is
        # the range of their codes, ids the slice of sig over their u, which
        # lie in [ceil(start / p^m), ceil(end / p^m)).  A slice over every u
        # (p > 2, m >= w) reads 0 at the u x divides, whose codes come
        # again, with their ids, at a higher m
        sig, residues = self.sig, self.residues
        m, power = 0, 1
        while power < end:
            u, stop = -(-start // power), -(-end // power)
            stride, rs = residues[min(m, len(residues) - 1)]
            for r in rs:
                first = u + (r - u) % stride
                yield m, range(first * power, end, stride * power), sig[first:stop:stride]
            m, power = m + 1, power * self.p

    def _power(self, sid, m):
        # the id of sid's multiset plus m x-slots, stepped once per (sid, m):
        # a tally meets the same (sid, m) in block after block and degree
        # after degree, and the memo's one lookup replaces m steps
        new = self.powers.get((sid, m))
        if new is None:
            new = self.powers[sid, m] = self._step_of(
                self._power(sid, m - 1) if m > 1 else sid, self.x_slot)
        return new

    def _blocks(self, lo, hi):
        # [lo, hi) cut into (start, end) blocks of slot_mod * SCAN_BLOCK codes
        size = self.slot_mod * SCAN_BLOCK
        return [(start, min(start + size, hi)) for start in range(lo, hi, size)]

    def _sweep_below(self, n, table):
        # resolve every x-free code of each degree from the sweep mark to n - 1
        p = self.p
        for k in range(self.swept, n):
            for start, end in self._blocks(p ** k, 2 * p ** k):
                self._sweep_codes(start, end, self.x_free, table)
            self.swept = k + 1

    def _sweep_codes(self, lo, hi, classes, table):
        # resolve the unresolved codes [lo, hi) of one degree in the
        # residue classes (stride, residues), all x-free: their cofactors,
        # x-free and of lower degree, are all resolved.  A slice with no
        # code resolved is stepped whole, one with some only at its
        # unresolved codes, and one with all of them not at all
        sig, (stride, residues) = self.sig, classes
        for r in residues:
            start = lo + (r - lo) % stride
            codes, ids = range(start, hi, stride), sig[start:hi:stride]
            if not any(ids):
                sig[start:hi:stride] = array("i", self._steps(codes, table))
            elif not all(ids):
                codes = list(compress(codes, map(operator.not_, ids)))
                for a, sid in zip(codes, self._steps(codes, table)):
                    sig[a] = sid

    def _steps(self, codes, table):
        # the id of each code a whose cofactor is resolved: the step from
        # sig[cof[a]] by the slot of a's least factor (a's own when spf[a]
        # is 0), a new id on a miss of steps
        spf, cof = table
        sig, modulus = self.sig, self.slot_mod
        keys = [sig[cof[a]] * modulus + (spf[a] or a) % modulus for a in codes]
        step = self.steps.get
        ids = list(map(step, keys))
        if None in ids:
            for i in compress(range(len(ids)), map(operator.not_, ids)):
                ids[i] = step(keys[i]) or self._step(keys[i], *divmod(keys[i], modulus))
        return ids

    def _ids(self, codes, table):
        # the chain resolver: unresolved codes are resolved in batches
        # along their cofactor chains
        sig = self.sig
        ids = list(map(sig.__getitem__, codes))
        if 0 in ids:
            self._resolve(list(dict.fromkeys(compress(codes, map(operator.not_, ids)))), table)
            ids = list(map(sig.__getitem__, codes))
        return ids

    def _resolve(self, codes, table):
        # sig[a] = step(sig[cof[a]], slot of a's least factor) for the
        # distinct unresolved codes, their unresolved cofactors first
        self._ids(list(map(table[1].__getitem__, codes)), table)
        sig = self.sig
        for a, sid in zip(codes, self._steps(codes, table)):
            sig[a] = sid

    def _step(self, key, sid, slot):
        # the id of sid's multiset plus slot, on a miss of steps[key].  A
        # slot at or above sid's greatest makes a new trie edge; a lower one
        # goes in below that greatest slot first
        top = self.last[sid]
        if slot < top:
            new = self._step_of(self._step_of(self.parent[sid], slot), top)
        else:
            new = len(self.last)
            self.parent.append(sid)
            self.last.append(slot)
            self.verdicts.append(None)
        self.steps[key] = new
        return new

    def _step_of(self, sid, slot):
        key = sid * self.slot_mod + slot
        return self.steps.get(key) or self._step(key, sid, slot)

    def slots(self, sid):
        """The slots of id sid's multiset, greatest first."""
        out = []
        while sid != 1:
            out.append(self.last[sid])
            sid = self.parent[sid]
        return out

    def verdict(self, sid):
        """(unsplit, m, k) for the members with id sid, decided once on its lattice.

        Equal residues enter the lattice as one factor, their count its
        multiplicity: x^k, say, has k equal slots.
        """
        verdict = self.verdicts[sid]
        if verdict is None:
            slots = self.slots(sid)
            m = slots.count(self.x_slot)
            merged = Counter(slot % self.modulus for slot in slots).items()
            unsplit = next(_member_splits(merged, self.ring), None) is None
            verdict = (unsplit, m, len(slots) - m)
            verdict = self.verdicts[sid] = self.kinds.setdefault(verdict, verdict)
        return verdict


def _digit_table(positions, p):
    # entry i: the code with the base-p digits of i, lowest first, at positions
    table = [0]
    for pos in positions:
        step = p ** pos
        table = [t + c * step for c in range(p) for t in table]
    return table


def count_classes(ctx, n, lo=0, hi=None):
    """Scan members of degree n (index range [lo, hi)) and bucket irreducibles.

    The index range refers to the canonical enumeration order of
    enumerate_degree, so disjoint ranges can run on separate workers and
    their ClassCounts absorb into the full-degree answer.  On the table
    route members are tallied by signature id, and each id's verdict is
    read once: a dense context (is_dense) sweeps the x-free codes below n
    and those of its members' code range, and tallies strided slices of
    the ids, each member x^m*u through u's; every other context resolves
    its members' ids block by block.
    """
    blocks, table = _scan(ctx, n, lo, hi)
    shapes = Counter()
    if table is None:
        shapes.update((m, k) for _, _, m, k in _factored(ctx, blocks))
    else:
        sigs = ctx.signatures
        if sigs.dense:
            ranges = sigs.sweep(n, *_span(ctx, n, lo, hi), table)
            tallies = (sigs.tally(start, end) for start, end in ranges)
        else:
            tallies = (Counter(sigs.ids(codes, table)) for codes in blocks)
        for tally in tallies:
            for sid, count in tally.items():
                unsplit, m, k = sigs.verdict(sid)
                if unsplit:
                    shapes[m, k] += count
    counts = ClassCounts()
    for (m, k), count in shapes.items():
        counts.add(m, k, count)
    return counts


def _span(ctx, n, lo, hi):
    # the code range a dense scan of the members with index in [lo, hi) of
    # degree n reads: the whole degree, [p^n, 2p^n), for all its members,
    # else [first, last + 1) for the codes first and last of members lo and
    # hi - 1.  Members run in increasing code order, so a member lies
    # between them exactly when its index lies in [lo, hi)
    lo, hi, low, high = _member_tables(ctx, n, lo, hi)
    base, size = ctx.field.p ** n, len(low)
    if hi - lo == size * len(high):
        return base, 2 * base
    first, last = (base + low[i % size] + high[i // size] for i in (lo, hi - 1))
    return first, last + 1


def iter_irreducible(ctx, n):
    """Iterator of (polynomial, factorization, class) per irreducible member of degree n.

    Stream order matches enumerate_degree; class is None outside F_2[x^2,x^3].
    Like count_classes, it raises ValueError at the call, before any item,
    for a degree over MAX_SCAN members or a negative degree.
    """
    blocks, table = _scan(ctx, n, 0, None)
    field = ctx.field
    friendly = ctx.is_friendly
    decode = partial(Polynomial.from_encoding, field)
    if table is None:
        items = _factored(ctx, blocks)
    elif ctx.signatures.dense:
        items = _walk(_dense_blocks(ctx.signatures, n, table), table)
    else:
        items = _walked(ctx.signatures, blocks, table)
    return (
        (
            decode(f),
            FqFactorization(field, 1, tuple((decode(g), e) for g, e in factors)),
            _friendly_class_of(m, k) if friendly else None,
        )
        for f, factors, m, k in items
    )


def _dense_blocks(sigs, n, table):
    # (members, verdicts) per block of a dense context's sweep of degree n,
    # each block's verdicts read before the sweep resumes, once an id
    p = sigs.p
    for start, end in sigs.sweep(n, p ** n, 2 * p ** n, table):
        ids = sigs.block_ids(start, end)
        codes = list(compress(range(start, end), ids))
        ids = list(filter(None, ids))
        verdicts = {sid: sigs.verdict(sid) for sid in set(ids)}
        yield codes, list(map(verdicts.__getitem__, ids))


def _walked(sigs, blocks, table):
    # _walk over blocks of member codes, each block's verdicts read from
    # ids resolved along cofactor chains before another scan's ids()
    for codes in blocks:
        yield from _walk([(codes, list(map(sigs.verdict, sigs.ids(codes, table))))], table)


def _walk(blocks, table):
    # (member, factors, m, k) per irreducible member of blocks, pairs of
    # member codes and their verdicts, its factors walked from the table:
    # equal factors come out in a row, least first
    spf, cof = table
    for codes, verdicts in blocks:
        for f, (unsplit, m, k) in zip(codes, verdicts):
            if unsplit:
                factors, a = [], f
                while a != 1:
                    g, e, a = spf[a] or a, 1, cof[a]
                    while (spf[a] or a) == g:
                        e, a = e + 1, cof[a]
                    factors.append((g, e))
                yield f, factors, m, k
