"""Correctness checks for the benchmark's outputs.

Each check takes one repetition's raw output and returns (attempted,
failed): how many operations it checked and how many of those were wrong.
The checked operations are output rows (degree rows, listing rows, prime
rows), verdict calls, and one whole-output check per repetition (header,
recorded digest or per-class totals).

The checks carry their own small polynomial arithmetic so that a fault in
sgpoly's arithmetic cannot vouch for itself.  The one value taken from
sgpoly is the closed-form count `counting.b_counts`, the independent
route that the brute-force scans are meant to agree with; callers pass it
in.
"""

import hashlib
import re

VERIFY_HEADER = ("n,closed_c,closed_t,closed_w,closed_b,"
                 "brute_c,brute_t,brute_w,brute_b,match")
ENUMERATE_HEADER = "polynomial,bitmask,class,factorization"
CYCLOTOMIC_HEADER = "p,p_mod_8,ord_2,primitive_root,irreducible"

# exponent sets outside the semigroup, by field size: the benchmark uses
# F_2[x^2,x^3] and F_3[<3,4,5>]
GAPS = {2: (1,), 3: (1, 2)}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# -- GF(2) bitmask arithmetic (bit i is the coefficient of x^i) ---------------


def gf2_mul(a, b):
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def gf2_mod(a, b):
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def gf2_is_irreducible(f):
    """Rabin's test: x^(2^d) = x mod f, and gcd(x^(2^(d/r)) - x, f) = 1
    for every prime r dividing the degree d."""
    d = f.bit_length() - 1
    if d < 1:
        return False

    def x_pow_2_pow(k):
        h = 2
        for _ in range(k):
            h = gf2_mod(gf2_mul(h, h), f)
        return h

    def coprime(a):
        b = f
        while a:
            a, b = gf2_mod(b, a), a
        return b == 1

    return x_pow_2_pow(d) == gf2_mod(2, f) and all(
        coprime(x_pow_2_pow(d // r) ^ 2) for r in _prime_divisors(d)
    )


def gf2_from_text(text):
    """Decode 'x^4+x+1' style text over F_2 into a bitmask."""
    mask = 0
    for term in text.split("+"):
        if term == "1":
            e = 0
        elif term == "x":
            e = 1
        elif term.startswith("x^") and term[2:].isdigit():
            e = int(term[2:])
        else:
            raise ValueError(f"bad term {term!r}")
        if mask >> e & 1:
            raise ValueError(f"repeated term {term!r}")
        mask |= 1 << e
    return mask


_FACTOR = re.compile(r"\(([^()]+)\)(?:\^(\d+))?|x(?:\^(\d+))?")


def gf2_factorization(text):
    """Decode '(x^2+x+1)^2*x^3' into [(mask, multiplicity), ...].

    A lone irreducible with multiplicity one is printed without brackets.
    """
    if "(" not in text and "+" in text:
        return [(gf2_from_text(text), 1)]
    out = []
    for part in text.split("*"):
        m = _FACTOR.fullmatch(part)
        if not m:
            raise ValueError(f"bad factor {part!r}")
        if m.group(1) is not None:
            out.append((gf2_from_text(m.group(1)), int(m.group(2) or 1)))
        else:
            out.append((2, int(m.group(3) or 1)))
    return out


def _gf2_member(mask, gaps=GAPS[2]):
    return not any(mask >> g & 1 for g in gaps)


def _gf2_algebra_irreducible(factors):
    """No divisor pair (g, f/g) of positive degrees with both in F_2[x^2,x^3]."""
    divs = [1]
    for f, e in factors:
        powers = [1]
        for _ in range(e):
            powers.append(gf2_mul(powers[-1], f))
        divs = [gf2_mul(d, w) for w in powers for d in divs]
    # mixed-radix order: entries i and len-1-i are complementary
    last = len(divs) - 1
    return not any(
        _gf2_member(divs[i]) and _gf2_member(divs[last - i])
        for i in range(1, last)
    )


def _friendly_class(factors):
    m = sum(e for f, e in factors if f == 2)
    k = sum(e for f, e in factors if f != 2)
    if m == 0 and k == 1:
        return "classic"
    if m in (2, 3) and k <= 1:
        return f"tame({m})"
    if m == 0 and k == 2:
        return "wild"
    return None


# -- checks --------------------------------------------------------------------


def check_verify(stdout, max_degree, b_counts):
    """`verify` rows: closed and brute columns both equal b_counts(n), match true."""
    lines = stdout.splitlines()
    body = lines[1:] if lines and lines[0] == VERIFY_HEADER else lines
    rows = {}
    failed = 0
    for line in body:
        cells = line.split(",")
        if len(cells) != 10 or not cells[0].isdigit() or cells[0] in rows:
            failed += 1
            continue
        rows[cells[0]] = cells
    for n in range(2, max_degree + 1):
        cells = rows.pop(str(n), None)
        want = [str(v) for v in b_counts(n)]
        if cells is None or cells[1:5] != want or cells[5:9] != want or cells[9] != "true":
            failed += 1
    failed += len(rows)  # rows for degrees that were not asked for
    header_ok = bool(lines) and lines[0] == VERIFY_HEADER
    return max_degree - 1 + len(rows) + 1, failed + (not header_ok)


def check_enumerate(text, degree, b_counts):
    """`enumerate` rows over F_2[x^2,x^3].

    A row passes when its polynomial is a monic member of the degree, its
    text and bitmask agree, its factorization is into F_2-irreducibles and
    multiplies back, the member is irreducible in the algebra, and the
    class matches the factorization shape.  The per-class totals of the
    listed classes must equal b_counts(degree).
    """
    lines = text.splitlines()
    body = lines[1:] if lines and lines[0] == ENUMERATE_HEADER else lines
    seen = set()
    irreducible = {}
    totals = {"classic": 0, "tame": 0, "wild": 0}
    failed = 0
    for line in body:
        try:
            poly, code, cls, fac = line.split(",")
            mask = int(code, 16)
            text_mask = gf2_from_text(poly)
            factors = gf2_factorization(fac)
        except ValueError:
            failed += 1
            continue
        kind = cls.split("(")[0]
        if kind in totals:
            totals[kind] += 1
        product = 1
        for f, e in factors:
            for _ in range(e):
                product = gf2_mul(product, f)
        for f, _ in factors:
            if f not in irreducible:
                irreducible[f] = gf2_is_irreducible(f)
        ok = (
            mask not in seen
            and mask == text_mask == product
            and mask.bit_length() - 1 == degree
            and _gf2_member(mask)
            and all(irreducible[f] for f, _ in factors)
            and _gf2_algebra_irreducible(factors)
            and cls == _friendly_class(factors)
        )
        seen.add(mask)
        failed += not ok
    b_c, b_t, b_w, b = b_counts(degree)
    totals_ok = (
        (totals["classic"], totals["tame"], totals["wild"]) == (b_c, b_t, b_w)
        and len(body) == b
        and bool(lines) and lines[0] == ENUMERATE_HEADER
    )
    return len(body) + 1, failed + (not totals_ok)


def check_lines(stdout, expected):
    """Line-by-line comparison with output recorded at the seed commit."""
    got = stdout.splitlines()
    want = expected["lines"]
    failed = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
    digest_ok = sha256(stdout) == expected["stdout_sha256"]
    return max(len(got), len(want)) + 1, failed + (not digest_ok)


def odd_primes(limit):
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit + 1, i)))
    return [i for i in range(3, limit + 1) if sieve[i]]


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_order_of_2(order, p):
    # order certificate: order | p-1, 2^order = 1, and 2^(order/r) != 1 for
    # every prime r dividing the order
    return (
        (p - 1) % order == 0
        and pow(2, order, p) == 1
        and all(pow(2, order // r, p) != 1 for r in _prime_divisors(order))
    )


def check_cyclotomic(stdout, stderr, max_prime, expected):
    """`cyclotomic` rows, each one verified from an order certificate.

    The row for prime p passes when p_mod_8 is right, ord_2 is the order of
    2 mod p, and both verdict columns say whether that order is p-1.  The
    stdout digest and stderr summary must equal those recorded at the seed
    commit.
    """
    lines = stdout.splitlines()
    body = lines[1:] if lines and lines[0] == CYCLOTOMIC_HEADER else lines
    primes = odd_primes(max_prime)
    failed = abs(len(body) - len(primes))
    for line, p in zip(body, primes):
        cells = line.split(",")
        try:
            ok = (
                len(cells) == 5
                and int(cells[0]) == p
                and int(cells[1]) == p % 8
                and _is_order_of_2(int(cells[2]), p)
            )
            full = ok and int(cells[2]) == p - 1
            ok = ok and cells[3] == cells[4] == ("true" if full else "false")
        except ValueError:
            ok = False
        failed += not ok
    whole_ok = (
        sha256(stdout) == expected["stdout_sha256"]
        and stderr.strip() == expected["stderr"]
    )
    return max(len(body), len(primes)) + 1, failed + (not whole_ok)


# -- verdicts ------------------------------------------------------------------


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _member(coeffs, q):
    return not any(g < len(coeffs) and coeffs[g] for g in GAPS[q])


def encode(coeffs):
    """Coefficients low to high as digits: x^3+2 over F_3 is '2001'."""
    return "".join(map(str, coeffs))


def decode(text):
    return [int(c) for c in text]


def check_verdicts(inputs, results):
    """One verdict per input polynomial.

    inputs: (q, coefficients, constructed) per call, constructed meaning the
    benchmark built the input as a product of two positive-degree members.
    results: (kind, classification, g, h) per call, as the repetition wrote
    them.  Every constructed product must come back reducible; every
    reducible verdict's witness must multiply back to f with both halves
    members of positive degree; an irreducible over F_2 must carry a
    classification and one over F_3 must not.
    """
    failed = abs(len(inputs) - len(results))
    for (q, f, constructed), (kind, cls, g, h) in zip(inputs, results):
        if kind == "reducible":
            g, h = decode(g), decode(h)
            ok = (
                len(g) > 1 and len(h) > 1
                and _member(g, q) and _member(h, q)
                and poly_mul(g, h, q) == list(f)
                and cls == "-"
            )
        elif kind == "irreducible":
            ok = not constructed and g == h == "-" and (
                cls in ("classic", "tame(2)", "tame(3)", "wild") if q == 2 else cls == "-"
            )
        else:
            ok = False
        failed += not ok
    return max(len(inputs), len(results)), failed
