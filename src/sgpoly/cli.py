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
import os
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from fractions import Fraction

from . import counting, sgalg
from .ffpoly import FieldSpec, format_poly
from .numsgp import from_generators

MAX_VERIFY_DEGREE = 20
MAX_COUNT_DEGREE = 1000  # closed-form rows: time grows about as N^2.2, row values as 2^n
MAX_PRIME_LIMIT = 10 ** 6
MAX_GENERATOR = 10 ** 3  # building <g, g+1> costs time and memory as g^2


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
        args.semigroup = from_generators(gens)  # built once; _context reuses it
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


def _fail(message):
    # a usage error or a refused scan: one stderr line, exit status 2
    print(f"error: {message}", file=sys.stderr)
    return 2


def _context(args):
    return sgalg.AlgebraContext(FieldSpec(args.q), args.semigroup)


@contextmanager
def _open_output(path):
    # stdout, or a regular file written through a temporary file beside it
    # that replaces it only once everything is written, so a failed run
    # leaves the path as it was; the new file keeps the old one's mode bits,
    # not its owner or hard links.  A device or pipe, or a path whose
    # directory takes no new file, is written in place.
    if path is None or path == "-":
        yield sys.stdout
        return
    target = os.path.realpath(path)  # through a symlink to its target
    tmp = f"{target}.{os.getpid()}.tmp"
    fh = None
    if os.path.isfile(target) or not os.path.exists(target):
        try:
            fh = open(tmp, "w", encoding="utf-8", newline="")
        except OSError:
            pass
    if fh is None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    try:
        with fh:
            yield fh
        if os.path.exists(target):
            shutil.copymode(target, tmp)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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


POOL_MIN = 4096  # members of the smallest degree worth a worker pool
CHUNKS_PER_WORKER = 4  # chunks of each such degree per worker, for balance

_worker_ctx = None  # a pool worker's context, set by _start_worker


def _start_worker(ctx, table):
    # pool initializer: the worker keeps the run's context for its life and
    # caches the parent's factor table, so under any start method no task
    # rebuilds either
    global _worker_ctx
    _worker_ctx = ctx
    if table is not None:
        sgalg.install_factor_table(ctx.field.p, table)


def _count_chunk(task):
    n, lo, hi = task
    return sgalg.count_classes(_worker_ctx, n, lo, hi)


def _scan_counts(args, ctx, degrees):
    # One ClassCounts per degree.  When some degree has POOL_MIN members and
    # there is more than one worker, one pool scans every degree: all chunks
    # are submitted at once, highest degree first, so the small degrees
    # (one chunk each) fill the tail.  Counts merge additively, so the
    # result is the same for any worker count.
    sizes = [sgalg.member_count(ctx, n) for n in degrees]
    # every pool worker starts at the first submit, so workers beyond the
    # CPUs would only add processes
    workers = min(args.workers, os.cpu_count() or 1)
    if workers <= 1 or max(sizes, default=0) < POOL_MIN:
        return [sgalg.count_classes(ctx, n) if size else sgalg.ClassCounts()
                for n, size in zip(degrees, sizes)]
    tasks = []
    for n, size in sorted(zip(degrees, sizes), reverse=True):
        if size:
            step = -(-size // (workers * CHUNKS_PER_WORKER)) if size >= POOL_MIN else size
            tasks += [(n, lo, min(lo + step, size)) for lo in range(0, size, step)]
    counts = {n: sgalg.ClassCounts() for n in degrees}
    table = sgalg.cached_factor_table(ctx.field.p)
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                               initargs=(ctx, table))
    try:
        futures = [(task[0], pool.submit(_count_chunk, task)) for task in tasks]
        for n, future in futures:
            counts[n].absorb(future.result())
    finally:
        pool.shutdown(cancel_futures=True)  # a failed chunk drops the queued ones
    return [counts[n] for n in degrees]


# -- subcommands -------------------------------------------------------------
#
# Each command builds one tuple per row, in the order of its fields, and
# _emit renders the rows as CSV or JSON.


def cmd_count(args):
    ctx = _context(args)
    friendly = ctx.is_friendly
    degrees = range(2, args.max_degree + 1)
    if friendly:
        if args.max_degree > MAX_COUNT_DEGREE:
            return _fail(f"closed-form counts are capped at degree {MAX_COUNT_DEGREE}")
        scans = {}
    else:
        try:
            sgalg.prepare_scans(ctx, degrees)
        except ValueError as exc:
            return _fail(exc)
        scans = dict(zip(degrees, _scan_counts(args, ctx, degrees)))
    rows = []
    for n in degrees:
        if friendly:
            r = counting.friendly_count_row(n)
        else:
            size = sgalg.member_count(ctx, n)
            c = scans[n]
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
    try:
        sgalg.prepare_scans(ctx, (n,))
    except ValueError as exc:
        return _fail(exc)
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
    try:
        sgalg.prepare_scans(ctx, degrees)
    except ValueError as exc:
        return _fail(exc)
    check = _verify_friendly if ctx.is_friendly else _verify_shapes
    fields, rows, failures = check(args, ctx, degrees)
    _emit(args, fields, rows)
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


def _verify_friendly(args, ctx, degrees):
    # closed-form class counts against brute force, per degree; a mismatch
    # names its first differing bucket
    fields = ("n", "closed_c", "closed_t", "closed_w", "closed_b",
              "brute_c", "brute_t", "brute_w", "brute_b", "match")
    rows, failures = [], []
    for n, c in zip(degrees, _scan_counts(args, ctx, degrees)):
        closed = counting.b_counts(n)
        brute = c.as_tuple()
        rows.append((n, *closed, *brute, closed == brute))
        for bucket, want, got in zip(("b_c", "b_t", "b_w", "b"), closed, brute):
            if want != got:
                failures.append(f"mismatch at degree {n}: {bucket} closed {want}, brute {got}")
                break
    return fields, rows, failures


def _verify_shapes(args, ctx, degrees):
    # extreme factorization shapes against m < 2(F+1) and k <= q^F, per
    # degree; a violation names the bound it breaks.  F(N) = -1 counts as 0,
    # whose bounds (m < 2, k <= 1) every irreducible of F_q[x] meets
    frob = max(ctx.semigroup.frobenius, 0)
    m_bound = 2 * (frob + 1)
    k_bound = args.q ** frob
    fields = ("n", "irreducible", "max_m", "max_k", "m_bound", "k_bound", "within")
    rows, failures = [], []
    for n, c in zip(degrees, _scan_counts(args, ctx, degrees)):
        broken = []
        if c.total and c.max_m >= m_bound:
            broken.append(f"max_m {c.max_m} >= m_bound {m_bound}")
        if c.total and c.max_k > k_bound:
            broken.append(f"max_k {c.max_k} > k_bound {k_bound}")
        rows.append((n, c.total, c.max_m, c.max_k, m_bound, k_bound, not broken))
        if broken:
            failures.append(f"shape bound violated at degree {n}: {', '.join(broken)}")
    return fields, rows, failures


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
        return _fail(exc)
    return _COMMANDS[args.command][0](args)


if __name__ == "__main__":
    sys.exit(main())
