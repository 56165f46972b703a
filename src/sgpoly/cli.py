"""Command-line front end: count tables, listings, verification campaigns,
and the prime experiment, emitted as CSV or JSON.

Exit status contract: 0 on success, 1 when a verification detects a
mismatch, 2 on usage errors.  Identical configuration yields byte-identical
output regardless of the worker count: scans shard the canonical
enumeration range into contiguous chunks and merge counts additively.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from fractions import Fraction

from . import counting, sgalg
from .ffpoly import FieldSpec, format_poly
from .numsgp import from_generators

MAX_SCAN = sgalg.MAX_SCAN  # at most 2^24 members per degree and entries per table
MAX_VERIFY_DEGREE = 20
MAX_PRIME_LIMIT = 10 ** 6
MAX_GENERATOR = 10 ** 4


class UsageError(Exception):
    pass


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sgpoly",
        description="Irreducible polynomials in numerical semigroup algebras F_q[S]",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, option) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument(option, type=int, required=True)
        p.add_argument("--q", type=int, default=2, help="prime field size (default 2)")
        p.add_argument("--sgp", default="2,3",
                       help="comma-separated semigroup generators (default 2,3)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--workers", type=int, default=1)
    return parser


def _check_args(args):
    # raise UsageError for a bad option; args.sgp becomes the generator tuple
    if args.workers < 1:
        raise UsageError("--workers must be at least 1")
    try:
        FieldSpec(args.q)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    try:
        gens = tuple(int(part) for part in args.sgp.split(","))
    except ValueError:
        raise UsageError(f"cannot parse semigroup generators {args.sgp!r}") from None
    if any(g > MAX_GENERATOR for g in gens):
        raise UsageError(f"generators above {MAX_GENERATOR} are not supported")
    try:
        from_generators(gens)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    args.sgp = gens

    if args.command in ("count", "verify"):
        if args.max_degree < 2:
            raise UsageError("--max-degree must be at least 2")
        if args.command == "verify" and args.max_degree > MAX_VERIFY_DEGREE:
            raise UsageError(
                f"verification is capped at degree {MAX_VERIFY_DEGREE}"
            )
    if args.command == "enumerate" and args.degree < 0:
        raise UsageError("--degree must be nonnegative")
    if args.command == "cyclotomic":
        if args.max_prime < 3:
            raise UsageError("--max-prime must be at least 3")
        if args.max_prime > MAX_PRIME_LIMIT:
            raise UsageError(f"primes above {MAX_PRIME_LIMIT} are not supported")


def _context(args):
    return sgalg.AlgebraContext(FieldSpec(args.q), from_generators(args.sgp))


@contextmanager
def _open_output(path):
    if path is None or path == "-":
        yield sys.stdout
    else:
        fh = open(path, "w", encoding="utf-8", newline="")
        try:
            yield fh
        finally:
            fh.close()


def _cell(v):
    # the CSV text of one row value; JSON writes the value itself
    if v is None:
        return ""
    if v is True:
        return "true"
    if v is False:
        return "false"
    if type(v) is float:
        return f"{v:.6f}"
    return str(v)


def _emit(args, fields, rows):
    with _open_output(args.output) as out:
        if args.fmt == "csv":
            out.write(",".join(fields) + "\n")
            for row in rows:
                out.write(",".join(map(_cell, row)) + "\n")
        else:
            out.write(json.dumps([dict(zip(fields, row)) for row in rows], indent=2) + "\n")


# -- worker-pool scanning ----------------------------------------------------


def _count_chunk(task):
    q, gens, n, lo, hi = task
    ctx = sgalg.AlgebraContext(FieldSpec(q), from_generators(gens))
    return sgalg.count_classes(ctx, n, lo, hi)


def _scan_counts(args, ctx, n):
    total = sgalg.member_count(ctx, n)
    if args.workers <= 1 or total < 4096:
        return sgalg.count_classes(ctx, n)
    chunk = -(-total // args.workers)
    tasks = [
        (args.q, args.sgp, n, lo, min(lo + chunk, total))
        for lo in range(0, total, chunk)
    ]
    merged = sgalg.ClassCounts()
    with ProcessPoolExecutor(max_workers=args.workers) as pool:
        for counts in pool.map(_count_chunk, tasks):
            merged.absorb(counts)
    return merged


def _prepare_scans(ctx, degrees, too_many):
    # Check the member guard at every degree, then build the factor table
    # once for the highest member degree whose scan uses one, before any scan
    # or fork so that workers inherit it.  False, after an error line, when a
    # degree has too many members (too_many formats that line) or its table
    # would exceed the cap.
    for n in degrees:
        size = sgalg.member_count(ctx, n)
        if size > MAX_SCAN:
            print("error: " + too_many.format(n=n, size=size), file=sys.stderr)
            return False
    top = max(
        (n for n in degrees if sgalg.member_count(ctx, n) and sgalg.table_pays(ctx, n)),
        default=0,
    )
    if top == 0:
        return True
    try:
        sgalg.prepare_factor_table(ctx.field.p, top)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


# -- subcommands -------------------------------------------------------------
#
# Each command builds one tuple per row, in the order of its fields, and
# _emit renders the rows as CSV or JSON.


def cmd_count(args):
    ctx = _context(args)
    friendly = ctx.is_friendly
    degrees = range(2, args.max_degree + 1)
    too_many = f"degree {{n}} needs {{size}} member scans (guard is {MAX_SCAN})"
    if not friendly and not _prepare_scans(ctx, degrees, too_many):
        return 2
    rows = []
    for n in degrees:
        if friendly:
            r = counting.friendly_count_row(n)
        else:
            size = sgalg.member_count(ctx, n)
            c = _scan_counts(args, ctx, n) if size else sgalg.ClassCounts()
            r = counting.CountRow(
                n, counting.count_aq(n, args.q),
                counting.count_s(n) if args.q == 2 else None,
                c.classic, c.tame, c.wild, c.total, size,
                Fraction(c.total, size) if size else None,
            )
        d = r.density
        rows.append((
            n, r.a, r.s, r.b_c, r.b_t, r.b_w, r.b, r.algebra_size,
            None if d is None else f"{d.numerator}/{d.denominator}",
            None if d is None else round(float(d), 6),
        ))
    fields = ("n", "a", "s", "b_c", "b_t", "b_w", "b", "algebra_size",
              "density", "density_float")
    _emit(args, fields, rows)
    return 0


def cmd_enumerate(args):
    ctx = _context(args)
    n = args.degree
    fields = ("polynomial", "bitmask", "class", "factorization")
    if n > 0 and not ctx.semigroup.contains(n):
        print(
            f"note: degree {n} is a gap of <{','.join(map(str, args.sgp))}>; "
            "the algebra has no elements there",
            file=sys.stderr,
        )
        _emit(args, fields, [])
        return 0
    too_many = f"degree {{n}} needs more than {MAX_SCAN} member scans"
    if not _prepare_scans(ctx, (n,), too_many):
        return 2
    rows = [
        (format_poly(poly), hex(poly.mask) if args.q == 2 else str(poly.encoding),
         None if cls is None else str(cls), fac.format())
        for poly, fac, cls in sgalg.iter_irreducible(ctx, n)
    ]
    _emit(args, fields, rows)
    return 0


def cmd_verify(args):
    ctx = _context(args)
    degrees = range(2, args.max_degree + 1)
    if not _prepare_scans(ctx, degrees, "degree {n} exceeds the scan guard"):
        return 2
    check, failed = (
        (_verify_friendly, "mismatch at degree") if ctx.is_friendly
        else (_verify_shapes, "shape bound violated at degree")
    )
    fields, rows = check(args, ctx, degrees)
    _emit(args, fields, rows)
    failures = [row[0] for row in rows if not row[-1]]  # the last field is the verdict
    for n in failures:
        print(f"{failed} {n}", file=sys.stderr)
    return 1 if failures else 0


def _verify_friendly(args, ctx, degrees):
    # closed-form class counts against brute force, per degree
    fields = ("n", "closed_c", "closed_t", "closed_w", "closed_b",
              "brute_c", "brute_t", "brute_w", "brute_b", "match")
    rows = []
    for n in degrees:
        closed = counting.b_counts(n)
        brute = _scan_counts(args, ctx, n).as_tuple()
        rows.append((n, *closed, *brute, closed == brute))
    return fields, rows


def _verify_shapes(args, ctx, degrees):
    # extreme factorization shapes against m < 2(F+1) and k <= q^F, per degree
    frob = ctx.semigroup.frobenius
    m_bound = 2 * (frob + 1)
    k_bound = args.q ** frob
    fields = ("n", "irreducible", "max_m", "max_k", "m_bound", "k_bound", "within")
    rows = []
    for n in degrees:
        c = _scan_counts(args, ctx, n)
        within = c.total == 0 or (c.max_m < m_bound and c.max_k <= k_bound)
        rows.append((n, c.total, c.max_m, c.max_k, m_bound, k_bound, within))
    return fields, rows


def _primes_to(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [i for i in range(3, n + 1) if sieve[i]]


def cmd_cyclotomic(args):
    fields = ("p", "p_mod_8", "ord_2", "primitive_root", "irreducible")
    rows = []
    for p in _primes_to(args.max_prime):
        rec = counting.cyclotomic_experiment(p)
        rows.append((rec.p, rec.p_mod_8, rec.ord_2, rec.primitive_root,
                     rec.irreducible_in_algebra))
    _emit(args, fields, rows)
    hits = [row[1] for row in rows if row[4]]  # p mod 8 where x^p+1 is irreducible
    pattern_ok = all(r in (3, 5) for r in hits)
    print(
        f"summary: {len(hits)} of {len(rows)} primes give an "
        f"irreducible polynomial; mod-8 pattern {{3,5}} holds: {_cell(pattern_ok)}",
        file=sys.stderr,
    )
    return 0 if pattern_ok else 1


# command -> (handler, help text, the option that sizes the run)
_COMMANDS = {
    "count": (cmd_count, "per-degree count table with densities", "--max-degree"),
    "enumerate": (cmd_enumerate, "list the irreducibles of one degree", "--degree"),
    "verify": (cmd_verify, "closed-form counts against enumeration", "--max-degree"),
    "cyclotomic": (cmd_cyclotomic, "x^p+1 verdicts for odd primes", "--max-prime"),
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _check_args(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _COMMANDS[args.command][0](args)


if __name__ == "__main__":
    sys.exit(main())
