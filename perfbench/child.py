"""One benchmark repetition, in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

run.py writes SPEC and starts this script once per repetition, so every
repetition pays interpreter start, `import sgpoly` and set-up the way a
user's command does; nothing survives from one repetition to the next.

The child imports sgpoly from the checkout's src/, builds the workload's
contexts (and, for GF(2) scans, the smallest-factor table through
`sgalg.prepare_gf2_cache`), marks the end of set-up, then runs the work:
`cli.main` for CLI workloads, or one `is_irreducible_in_algebra` call per
input polynomial for the verdict batch.  Right before and right after the
work it times a fixed calibration loop on its own CPU; run.py scales the
repetition's times by it (see calibrate()).  It writes its marks to SPEC's
"marks" path and, when SPEC asks for a trace, installs perfbench/spans.py
before set-up and writes its spans at the end.  Times are CLOCK_MONOTONIC
seconds, which every process on the machine shares, so run.py can
subtract its own readings from them.
"""

import time


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


T_START = clock()
CALIBRATE_EVERY = 250  # verdict calls between calibrations inside a batch

import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def calibrate():
    """Seconds this process takes for a fixed piece of pure-Python work.

    The work mixes integer arithmetic with building tuples, lists and a
    dict, as sgpoly's scans do.  On a shared host a CPU's speed drifts by
    up to 2x as neighbours come and go; this measures the speed the
    repetition's work ran at.
    """
    t0 = clock()
    acc = 0
    for _ in range(20):  # small batches, so the peak RSS does not move
        pairs = [(i, (i * 2654435761) & 0xFFFF) for i in range(1000)]
        table = dict(pairs)
        for k, v in pairs:
            acc ^= table[k] + v
        rows = [[k, v, (k, v)] for k, v in pairs]
        acc ^= len(rows)
    return clock() - t0


def verdict_record(verdict):
    """(kind, classification, g, h) as checks.check_verdicts reads them."""
    cls = "-" if verdict.classification is None else str(verdict.classification)
    if verdict.witness is None:
        return [verdict.kind, cls, "-", "-"]
    g, h = verdict.witness
    return [verdict.kind, cls, "".join(map(str, g.coeffs)), "".join(map(str, h.coeffs))]


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    import sgpoly
    from sgpoly import FieldSpec, Polynomial, cli, numsgp, sgalg

    if not os.path.realpath(sgpoly.__file__).startswith(src + os.sep):
        raise SystemExit(f"sgpoly was imported from {sgpoly.__file__}, not from {src}")

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.install(spec["trace"]["dir"], spec["trace"]["count_calls"])
        setup_span = tracer.begin("rep.setup", T_START)

    # entry points are looked up on their modules, so traced runs see them
    contexts = {
        q: sgalg.AlgebraContext(FieldSpec(q), numsgp.from_generators(gens))
        for q, gens in spec["contexts"]
    }
    if spec["gf2_degree"] is not None:
        sgalg.prepare_gf2_cache(spec["gf2_degree"])
    polys = [Polynomial(contexts[q].field, tuple(f)) for q, f in spec["inputs"]]

    t_setup = clock()
    if tracer:
        tracer.end(setup_span, t_setup)
    calibration = [calibrate()]
    t_work = clock()
    if tracer:
        work_span = tracer.begin("rep.work", t_work)
    marks = {}
    if spec["argv"] is not None:
        marks["rc"] = cli.main(spec["argv"])
        sys.stdout.flush()
    else:
        latencies = []
        results = []
        calibrating = 0.0
        check = sgalg.is_irreducible_in_algebra
        for i, f in enumerate(polys):
            if i and i % CALIBRATE_EVERY == 0:
                # a batch is long enough for the CPU's speed to change inside it
                t0 = clock()
                calibration.append(calibrate())
                calibrating += clock() - t0
            t0 = time.perf_counter()
            verdict = check(contexts[f.field.p], f)
            latencies.append(time.perf_counter() - t0)
            results.append(verdict_record(verdict))
        marks.update(rc=0, latencies=latencies, results=results, calibrating=calibrating)
    t_end = clock()
    if tracer:
        tracer.end(work_span, t_end)
    calibration.append(calibrate())
    t_calibrated = clock()
    if tracer:
        tracer.dump()
        marks["t_dumped"] = clock()
    marks.update(
        t_start=T_START, t_setup=t_setup, t_work=t_work, t_end=t_end,
        t_calibrated=t_calibrated, calibration=calibration,
        start_method=multiprocessing.get_start_method(),
    )
    with open(spec["marks"], "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return marks["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
