"""Command-line front end: count tables, listings, verification campaigns,
and the prime experiment, emitted as CSV or JSON.

`count` answers F_2[x^2,x^3] from the paper's closed forms, and every other
(q, S) from the cheaper of two exact routes, chosen before any count runs:
a brute-force scan, priced by sgalg.scan_us, or the class-group engine,
which classgroup.admit prices from a dry walk of its own type search.
`enumerate` always scans; `verify` checks a scan against the closed forms
or the engine.  sgalg.scan_us admits every scan, and no scan or count
starts whose estimated time passes sgalg.TIME_CAP_US.

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
# count rows, on any route; time grows about as N^2.2 for the closed forms
# and N^3 for the class group (big-integer series products), row values as q^n
MAX_COUNT_DEGREE = 1000
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
    # each command gets only the options it reads: cyclotomic is over
    # F_2[x^2,x^3] alone, and only count and verify scan on a pool
    for name, (_, text, option) in _COMMANDS.items():
        p = sub.add_parser(name, help=text, description=text)
        p.add_argument(option, type=int, required=True)
        if name != "cyclotomic":
            p.add_argument("--q", type=int, default=2, help="prime field size (default 2)")
            p.add_argument("--sgp", default="2,3",
                           help="comma-separated semigroup generators (default 2,3)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        if option == "--max-degree":
            p.add_argument("--workers", type=int, default=1)
    return parser


def _check_args(args):
    # raise UsageError for a bad option of the command; args.sgp becomes
    # the generator tuple
    counts = args.command in ("count", "verify")
    if counts and args.workers < 1:
        raise UsageError("--workers must be at least 1")
    if args.command != "cyclotomic":
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

    # --output must name a file in an existing directory, checked before any
    # work; _open_output reports any other failure to open it
    out = args.output
    if out not in (None, "-"):
        if os.path.isdir(out) or not os.path.isdir(os.path.dirname(os.path.abspath(out))):
            raise UsageError(f"cannot write {out}: not a file in an existing directory")

    if counts:
        if args.max_degree < 2:
            raise UsageError("--max-degree must be at least 2")
        if args.command == "verify" and args.max_degree > MAX_VERIFY_DEGREE:
            raise UsageError(f"verification is capped at degree {MAX_VERIFY_DEGREE}")
        if args.max_degree > MAX_COUNT_DEGREE:
            raise UsageError(f"counts are capped at degree {MAX_COUNT_DEGREE}")
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
    # directory takes no new file, is written in place; a path that cannot
    # be opened even so raises UsageError.
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
        try:
            fh = open(path, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror}") from None
        with fh:
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
# the same in a dense context (sgalg.is_dense): each of its degrees with
# POOL_MIN members that a scan admits pays for a table, so its scans sweep,
# and every worker sweeps the codes with a nonzero constant term below its
# degree for itself; only the top degrees' code ranges split, and one
# process tallies whole degrees from the swept ids, so a pool pays later.
# _scan_counts alone, two workers against one process, medians of 11
# alternating runs (2-vCPU x86-64, Python 3.11), while both vCPUs ran two
# processes at full speed: the pool lost at 262,144 members (F_2[x] to
# 18, +26%), broke even at 524,288 over F_2 (F_2[x^2,x^3] to 20, +2%;
# F_2[x] to 19, -5%) and saved 13-32% from 390,625 members over F_3, F_5
# and F_7 (F_5[x] to 8, F_3[x] to 12, F_7[x] to 7).  While the host gave
# the two vCPUs one CPU's worth, every pool lost 26-124%.  More workers
# split the ranges further, so there the bound errs towards one process
# (not measured past 2 CPUs)
DENSE_POOL_MIN = 300_000
CHUNKS_PER_WORKER = 4  # chunks of each such degree per worker, for balance

_worker_ctx = None  # a pool worker's context, set by _start_worker


def _start_worker(ctx, entry):
    # pool initializer: the worker keeps the run's context for its life and
    # caches the table entry the parent's scans read, so under any start
    # method no task rebuilds either
    global _worker_ctx
    _worker_ctx = ctx
    if entry is not None:
        sgalg.install_factor_table(ctx.field.p, entry)


def _count_chunk(task):
    n, lo, hi = task
    return sgalg.count_classes(_worker_ctx, n, lo, hi)


def _scan_counts(args, ctx, degrees):
    # One ClassCounts per degree, from scans sgalg.scan_us admitted; their
    # one factor table is built here, in the parent, and its entry handed to
    # the workers.  When some degree has POOL_MIN members (DENSE_POOL_MIN in
    # a dense context) and there is more than one worker, one pool scans
    # every degree: all chunks are submitted at once, highest degree first,
    # so the small degrees (one chunk each) fill the tail.  Counts merge
    # additively, so the result is the same for any worker count.
    entry = sgalg.prepare_scans(ctx, degrees)
    sizes = [sgalg.member_count(ctx, n) for n in degrees]
    # every pool worker starts at the first submit, so workers beyond the
    # CPUs would only add processes
    workers = min(args.workers, os.cpu_count() or 1)
    bound = DENSE_POOL_MIN if sgalg.is_dense(ctx) else POOL_MIN
    if workers <= 1 or max(sizes) < bound:
        return [sgalg.count_classes(ctx, n) if size else sgalg.ClassCounts()
                for n, size in zip(degrees, sizes)]
    tasks = []
    for n, size in sorted(zip(degrees, sizes), reverse=True):
        if size:
            step = -(-size // (workers * CHUNKS_PER_WORKER)) if size >= POOL_MIN else size
            tasks += [(n, lo, min(lo + step, size)) for lo in range(0, size, step)]
    counts = {n: sgalg.ClassCounts() for n in degrees}
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                               initargs=(ctx, entry))
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


def _class_group(ctx, top, limit):
    # classgroup.admit, for count and verify; only here is classgroup loaded
    from . import classgroup

    return classgroup.admit(ctx, top, limit)


def _count_route(args, ctx, degrees):
    # count's route, chosen and admitted before any count runs: the closed
    # forms for F_2[x^2,x^3], else the class group when it is admitted under
    # the scan's estimate (sgalg.TIME_CAP_US when the scan is refused), else
    # the scan.  Returns a function giving one ClassCounts per degree;
    # raises ValueError, naming both reasons when both routes are refused.
    if ctx.is_friendly:
        return lambda: [sgalg.ClassCounts(*c) for c in counting.b_counts_to(degrees[-1])]
    try:
        limit, refused = sgalg.scan_us(ctx, degrees), None
    except ValueError as exc:
        limit, refused = sgalg.TIME_CAP_US, exc
    try:
        engine = _class_group(ctx, degrees[-1], limit)
        return lambda: engine()[degrees[0]:]
    except ValueError as why:
        if refused is not None:
            raise ValueError(f"{refused}, and {why}") from None
    return lambda: _scan_counts(args, ctx, degrees)


def cmd_count(args):
    ctx = _context(args)
    degrees = range(2, args.max_degree + 1)
    try:
        route = _count_route(args, ctx, degrees)
    except ValueError as exc:
        return _fail(exc)
    fields = ("n", "a", "s", "b_c", "b_t", "b_w", "b", "algebra_size",
              "density", "density_float")
    rows = []
    for n, c in zip(degrees, route()):
        size = sgalg.member_count(ctx, n)
        density = Fraction(c.total, size) if size else None
        rows.append((
            n, counting.count_aq(n, args.q), counting.count_s(n) if args.q == 2 else None,
            *c.as_tuple(), size,
            None if density is None else f"{density.numerator}/{density.denominator}",
            None if density is None else round(float(density), 6),
        ))
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
        sgalg.scan_us(ctx, (n,))
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
    # the scan's buckets, max_m and max_k per degree against the closed
    # forms' for F_2[x^2,x^3], else the engine's, admitted before any table
    # or scan is built; a mismatch names its first differing value
    ctx = _context(args)
    degrees = range(2, args.max_degree + 1)
    top = degrees[-1]
    try:
        sgalg.scan_us(ctx, degrees)
        if not ctx.is_friendly:
            try:
                engine = _class_group(ctx, top, sgalg.TIME_CAP_US)
            except ValueError as why:
                raise ValueError(f"no second route to verify against: {why}") from None
    except ValueError as exc:
        return _fail(exc)
    if ctx.is_friendly:
        ref, want = "closed", counting.b_counts_to(top)
    else:
        ref, want = "engine", [(*c.as_tuple(), c.max_m, c.max_k) for c in engine()[2:]]
    fields = ("n", *(f"{route}_{b}" for route in (ref, "brute") for b in "ctwb"), "match")
    rows, failures = [], []
    for n, ref_row, c in zip(degrees, want, _scan_counts(args, ctx, degrees)):
        brute = (*c.as_tuple(), c.max_m, c.max_k)
        diffs = [f"{name} {ref} {x}, brute {y}" for name, x, y
                 in zip(("b_c", "b_t", "b_w", "b", "max_m", "max_k"), ref_row, brute) if x != y]
        rows.append((n, *ref_row[:4], *brute[:4], not diffs))
        if diffs:
            failures.append(f"mismatch at degree {n}: {diffs[0]}")
    _emit(args, fields, rows)
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


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
    "verify": (cmd_verify, "scanned counts against closed forms or the class group", "--max-degree"),
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
        return _COMMANDS[args.command][0](args)
    except UsageError as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
