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
from dataclasses import dataclass
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


@dataclass
class RunConfig:
    command: str
    q: int = 2
    sgp: tuple[int, ...] = (2, 3)
    max_degree: int | None = None
    degree: int | None = None
    max_prime: int | None = None
    fmt: str = "csv"
    output: str | None = None
    workers: int = 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sgpoly",
        description="Irreducible polynomials in numerical semigroup algebras F_q[S]",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--q", type=int, default=2, help="prime field size (default 2)")
        p.add_argument("--sgp", default="2,3",
                       help="comma-separated semigroup generators (default 2,3)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--workers", type=int, default=1)

    p_count = sub.add_parser("count", help="per-degree count table with densities")
    p_count.add_argument("--max-degree", type=int, required=True)
    common(p_count)

    p_enum = sub.add_parser("enumerate", help="list the irreducibles of one degree")
    p_enum.add_argument("--degree", type=int, required=True)
    common(p_enum)

    p_verify = sub.add_parser("verify", help="closed-form counts against enumeration")
    p_verify.add_argument("--max-degree", type=int, required=True)
    common(p_verify)

    p_cyc = sub.add_parser("cyclotomic", help="x^p+1 verdicts for odd primes")
    p_cyc.add_argument("--max-prime", type=int, required=True)
    common(p_cyc)

    return parser


def _config_from_args(args):
    cfg = RunConfig(command=args.command)
    cfg.fmt = args.fmt
    cfg.output = args.output
    cfg.workers = args.workers
    if cfg.workers < 1:
        raise UsageError("--workers must be at least 1")

    try:
        FieldSpec(args.q)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    cfg.q = args.q

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
    cfg.sgp = gens

    if cfg.command in ("count", "verify"):
        cfg.max_degree = args.max_degree
        if cfg.max_degree < 2:
            raise UsageError("--max-degree must be at least 2")
        if cfg.command == "verify" and cfg.max_degree > MAX_VERIFY_DEGREE:
            raise UsageError(
                f"verification is capped at degree {MAX_VERIFY_DEGREE}"
            )
    if cfg.command == "enumerate":
        cfg.degree = args.degree
        if cfg.degree < 0:
            raise UsageError("--degree must be nonnegative")
    if cfg.command == "cyclotomic":
        cfg.max_prime = args.max_prime
        if cfg.max_prime < 3:
            raise UsageError("--max-prime must be at least 3")
        if cfg.max_prime > MAX_PRIME_LIMIT:
            raise UsageError(f"primes above {MAX_PRIME_LIMIT} are not supported")
    return cfg


def _context(cfg):
    return sgalg.AlgebraContext(FieldSpec(cfg.q), from_generators(cfg.sgp))


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


def _emit(cfg, header, csv_rows, json_rows):
    with _open_output(cfg.output) as out:
        if cfg.fmt == "csv":
            out.write(header + "\n")
            for row in csv_rows:
                out.write(row + "\n")
        else:
            out.write(json.dumps(json_rows, indent=2) + "\n")


def _frac(fr):
    return f"{fr.numerator}/{fr.denominator}"


def _bool(b):
    return "true" if b else "false"


# -- worker-pool scanning ----------------------------------------------------


def _count_chunk(task):
    q, gens, n, lo, hi = task
    ctx = sgalg.AlgebraContext(FieldSpec(q), from_generators(gens))
    c = sgalg.count_classes(ctx, n, lo, hi)
    return (c.classic, c.tame, c.wild, c.total, c.max_m, c.max_k)


def _scan_counts(cfg, ctx, n):
    total = sgalg.member_count(ctx, n)
    if cfg.workers <= 1 or total < 4096:
        return sgalg.count_classes(ctx, n)
    chunk = -(-total // cfg.workers)
    tasks = [
        (cfg.q, cfg.sgp, n, lo, min(lo + chunk, total))
        for lo in range(0, total, chunk)
    ]
    merged = sgalg.ClassCounts()
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        for tup in pool.map(_count_chunk, tasks):
            merged.absorb(sgalg.ClassCounts(*tup))
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


_COUNT_HEADER = "n,a,s,b_c,b_t,b_w,b,algebra_size,density,density_float"


def cmd_count(cfg):
    ctx = _context(cfg)
    friendly = ctx.is_friendly
    degrees = range(2, cfg.max_degree + 1)
    too_many = f"degree {{n}} needs {{size}} member scans (guard is {MAX_SCAN})"
    if not friendly and not _prepare_scans(ctx, degrees, too_many):
        return 2
    rows = []
    for n in degrees:
        if friendly:
            rows.append(counting.friendly_count_row(n))
            continue
        a = counting.count_aq(n, cfg.q)
        s = counting.count_s(n) if cfg.q == 2 else None
        if not ctx.semigroup.contains(n):
            rows.append(counting.CountRow(n, a, s, 0, 0, 0, 0, 0, None))
            continue
        size = sgalg.member_count(ctx, n)
        counts = _scan_counts(cfg, ctx, n)
        rows.append(counting.CountRow(
            n, a, s, counts.classic, counts.tame, counts.wild, counts.total,
            size, Fraction(counts.total, size),
        ))

    csv_rows = []
    json_rows = []
    for r in rows:
        s_cell = "" if r.s is None else str(r.s)
        if r.density is None:
            d_cell, f_cell, d_json, f_json = "", "", None, None
        else:
            d_cell = _frac(r.density)
            f_cell = f"{float(r.density):.6f}"
            d_json = d_cell
            f_json = float(f_cell)
        csv_rows.append(
            f"{r.n},{r.a},{s_cell},{r.b_c},{r.b_t},{r.b_w},{r.b},"
            f"{r.algebra_size},{d_cell},{f_cell}"
        )
        json_rows.append({
            "n": r.n, "a": r.a, "s": r.s, "b_c": r.b_c, "b_t": r.b_t,
            "b_w": r.b_w, "b": r.b, "algebra_size": r.algebra_size,
            "density": d_json, "density_float": f_json,
        })
    _emit(cfg, _COUNT_HEADER, csv_rows, json_rows)
    return 0


def cmd_enumerate(cfg):
    ctx = _context(cfg)
    n = cfg.degree
    header = "polynomial,bitmask,class,factorization"
    if n > 0 and not ctx.semigroup.contains(n):
        print(
            f"note: degree {n} is a gap of <{','.join(map(str, cfg.sgp))}>; "
            "the algebra has no elements there",
            file=sys.stderr,
        )
        _emit(cfg, header, [], [])
        return 0
    too_many = f"degree {{n}} needs more than {MAX_SCAN} member scans"
    if not _prepare_scans(ctx, (n,), too_many):
        return 2
    csv_rows = []
    json_rows = []
    for poly, fac, cls in sgalg.iter_irreducible(ctx, n):
        text = format_poly(poly)
        code = hex(poly.mask) if cfg.q == 2 else str(poly.encoding)
        cls_text = str(cls) if cls is not None else ""
        fac_text = fac.format()
        csv_rows.append(f"{text},{code},{cls_text},{fac_text}")
        json_rows.append({
            "polynomial": text, "bitmask": code,
            "class": cls_text or None, "factorization": fac_text,
        })
    _emit(cfg, header, csv_rows, json_rows)
    return 0


def cmd_verify(cfg):
    ctx = _context(cfg)
    if ctx.is_friendly:
        return _verify_friendly(cfg, ctx)
    return _verify_shapes(cfg, ctx)


def _verify_friendly(cfg, ctx):
    sgalg.prepare_gf2_cache(cfg.max_degree)
    header = ("n,closed_c,closed_t,closed_w,closed_b,"
              "brute_c,brute_t,brute_w,brute_b,match")
    csv_rows = []
    json_rows = []
    failures = []
    for n in range(2, cfg.max_degree + 1):
        closed = counting.b_counts(n)
        brute = _scan_counts(cfg, ctx, n).as_tuple()
        match = closed == brute
        if not match:
            failures.append(n)
        csv_rows.append(
            ",".join(map(str, (n, *closed, *brute))) + f",{_bool(match)}"
        )
        json_rows.append({
            "n": n,
            "closed_c": closed[0], "closed_t": closed[1],
            "closed_w": closed[2], "closed_b": closed[3],
            "brute_c": brute[0], "brute_t": brute[1],
            "brute_w": brute[2], "brute_b": brute[3],
            "match": match,
        })
    _emit(cfg, header, csv_rows, json_rows)
    for n in failures:
        print(f"mismatch at degree {n}", file=sys.stderr)
    return 1 if failures else 0


def _verify_shapes(cfg, ctx):
    degrees = range(2, cfg.max_degree + 1)
    if not _prepare_scans(ctx, degrees, "degree {n} exceeds the scan guard"):
        return 2
    frob = ctx.semigroup.frobenius
    m_bound = 2 * (frob + 1)
    k_bound = cfg.q ** frob
    header = "n,irreducible,max_m,max_k,m_bound,k_bound,within"
    csv_rows = []
    json_rows = []
    failures = []
    for n in degrees:
        counts = _scan_counts(cfg, ctx, n)
        within = counts.total == 0 or (
            counts.max_m < m_bound and counts.max_k <= k_bound
        )
        if not within:
            failures.append(n)
        csv_rows.append(
            f"{n},{counts.total},{counts.max_m},{counts.max_k},"
            f"{m_bound},{k_bound},{_bool(within)}"
        )
        json_rows.append({
            "n": n, "irreducible": counts.total, "max_m": counts.max_m,
            "max_k": counts.max_k, "m_bound": m_bound, "k_bound": k_bound,
            "within": within,
        })
    _emit(cfg, header, csv_rows, json_rows)
    for n in failures:
        print(f"shape bound violated at degree {n}", file=sys.stderr)
    return 1 if failures else 0


def _primes_to(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [i for i in range(3, n + 1) if sieve[i]]


def cmd_cyclotomic(cfg):
    header = "p,p_mod_8,ord_2,primitive_root,irreducible"
    csv_rows = []
    json_rows = []
    irreducible_count = 0
    pattern_ok = True
    primes = _primes_to(cfg.max_prime)
    for p in primes:
        rec = counting.cyclotomic_experiment(p)
        if rec.irreducible_in_algebra:
            irreducible_count += 1
            if rec.p_mod_8 not in (3, 5):
                pattern_ok = False
        csv_rows.append(
            f"{rec.p},{rec.p_mod_8},{rec.ord_2},"
            f"{_bool(rec.primitive_root)},{_bool(rec.irreducible_in_algebra)}"
        )
        json_rows.append({
            "p": rec.p, "p_mod_8": rec.p_mod_8, "ord_2": rec.ord_2,
            "primitive_root": rec.primitive_root,
            "irreducible": rec.irreducible_in_algebra,
        })
    _emit(cfg, header, csv_rows, json_rows)
    print(
        f"summary: {irreducible_count} of {len(primes)} primes give an "
        f"irreducible polynomial; mod-8 pattern {{3,5}} holds: {_bool(pattern_ok)}",
        file=sys.stderr,
    )
    return 0 if pattern_ok else 1


_HANDLERS = {
    "count": cmd_count,
    "enumerate": cmd_enumerate,
    "verify": cmd_verify,
    "cyclotomic": cmd_cyclotomic,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = _config_from_args(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _HANDLERS[cfg.command](cfg)


if __name__ == "__main__":
    sys.exit(main())
