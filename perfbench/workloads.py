"""The benchmark's five workloads: sizes, commands, inputs and checks.

Why each workload is there is written in BENCHMARK.json.  All five are
closed loop with a single caller: a repetition starts only after the
previous one has exited.  The only process pool is the CLI's own
--workers, which never exceeds the two CPUs the sizes were tuned on.  The
sizes make one repetition take one to six seconds there, so a 20-second
run holds four to fifteen repetitions.

Only `verdicts` draws inputs from the seed.  The other four run fixed
commands whose outputs are checked against closed forms, certificates
or output recorded at the seed commit, so the seed does not change them.
"""

import json
import os
import random
from dataclasses import dataclass

import checks

VERIFY_DEGREE = 16
COUNT_Q3_DEGREE = 9
ENUMERATE_DEGREE = 16
CYCLOTOMIC_MAX_PRIME = 400_000
VERDICT_CALLS = 6000

# verdict inputs: F_2[x^2,x^3] degrees lie above MAX_VERIFY_DEGREE, the
# largest table a scan builds, so _gf2.factor does its own splitting
VERDICT_F2_DEGREES = (21, 28)
VERDICT_F3_DEGREES = (7, 10)

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)


@dataclass(frozen=True)
class Workload:
    name: str
    item: str  # what items_per_s counts; the report names it <item>_per_s
    argv: tuple | None  # CLI arguments ("{output}" is the output file); None
    # for the in-process verdict batch
    contexts: tuple  # (q, generators) pairs built during set-up
    gf2_degree: int | None  # smallest-factor table built during set-up
    workers: int
    items: int  # members scanned, verdict calls, or primes per repetition


def _semigroup_below(gens, n):
    member = [True] + [False] * n
    for i in range(1, n + 1):
        member[i] = any(i >= g and member[i - g] for g in gens)
    return member


def member_count(q, gens, n):
    member = _semigroup_below(gens, n)
    return q ** sum(member[:n]) if member[n] else 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-f2",
            "members",
            ("verify", "--max-degree", str(VERIFY_DEGREE), "--workers", "2"),
            ((2, (2, 3)),),
            VERIFY_DEGREE,
            2,
            sum(member_count(2, (2, 3), n) for n in range(2, VERIFY_DEGREE + 1)),
        ),
        Workload(
            "count-q3",
            "members",
            ("count", "--q", "3", "--sgp", "3,4,5",
             "--max-degree", str(COUNT_Q3_DEGREE), "--workers", "1"),
            ((3, (3, 4, 5)),),
            None,
            1,
            sum(member_count(3, (3, 4, 5), n) for n in range(2, COUNT_Q3_DEGREE + 1)),
        ),
        Workload(
            "verdicts",
            "verdicts",
            None,
            ((2, (2, 3)), (3, (3, 4, 5))),
            None,
            1,
            VERDICT_CALLS,
        ),
        Workload(
            "enumerate-f2",
            "members",
            ("enumerate", "--degree", str(ENUMERATE_DEGREE), "--output", "{output}"),
            ((2, (2, 3)),),
            ENUMERATE_DEGREE,
            1,
            member_count(2, (2, 3), ENUMERATE_DEGREE),
        ),
        Workload(
            "cyclotomic",
            "primes",
            ("cyclotomic", "--max-prime", str(CYCLOTOMIC_MAX_PRIME)),
            ((2, (2, 3)),),
            None,
            1,
            len(checks.odd_primes(CYCLOTOMIC_MAX_PRIME)),
        ),
    )
}


def _random_member(rng, q, gens, n):
    member = _semigroup_below(gens, n)
    coeffs = [rng.randrange(q) if member[i] else 0 for i in range(n)]
    return coeffs + [1]


def verdict_inputs(seed, calls=VERDICT_CALLS):
    """(q, coefficients, constructed) per call, drawn from the seed.

    Per eight calls: three random F_2[x^2,x^3] members, three products of
    two random F_2 members, one random F_3[<3,4,5>] member and one product
    of two F_3 members.  Products are monic members by construction and
    reducible, with the two factors as one witness.
    """
    rng = random.Random(seed)
    out = []
    for i in range(calls):
        slot = i % 8
        q, gens, (lo, hi) = (
            (2, (2, 3), VERDICT_F2_DEGREES) if slot < 6 else (3, (3, 4, 5), VERDICT_F3_DEGREES)
        )
        n = rng.randint(lo, hi)
        constructed = slot in (3, 4, 5, 7)
        if constructed:
            d = rng.randint(min(gens), n - min(gens))
            f = checks.poly_mul(_random_member(rng, q, gens, d),
                            _random_member(rng, q, gens, n - d), q)
        else:
            f = _random_member(rng, q, gens, n)
        out.append((q, tuple(f), constructed))
    return out


def check(workload, rep, inputs, b_counts):
    """(attempted, failed) for one repetition: its rows or calls, plus its
    exit status."""
    name = workload.name
    if name == "verify-f2":
        attempted, failed = checks.check_verify(rep.stdout, VERIFY_DEGREE, b_counts)
    elif name == "count-q3":
        attempted, failed = checks.check_lines(rep.stdout, EXPECTED[name])
    elif name == "enumerate-f2":
        attempted, failed = checks.check_enumerate(rep.output, ENUMERATE_DEGREE, b_counts)
    elif name == "cyclotomic":
        attempted, failed = checks.check_cyclotomic(
            rep.stdout, rep.stderr, CYCLOTOMIC_MAX_PRIME, EXPECTED[name])
    else:
        attempted, failed = checks.check_verdicts(inputs, rep.marks["results"])
    return attempted + 1, failed + (rep.rc != 0)
