"""Spans and counters for the benchmark's traced run.

install() replaces module-level entry points of sgpoly's modules (`_gf2`,
`ffpoly`, `numsgp`, `sgalg`, `counting`, `cli`) with wrappers that record
a span per call: (name, start, end, parent), the parent being the span
open in the same process when the call began.  The hot GF(2) primitives
`divrem` and `mul` get an exact call counter instead, and only when asked:
a counter costs about as much as the call it counts, so run.py counts in
one traced repetition and takes layer times from the others.  Nothing under src/ changes; wrapping
works because sgpoly looks these functions up as module attributes at
call time, so every module binding one of them is patched.

Spans stay in memory and are written out when the repetition ends.  Scan
workers forked by `cli._scan_counts` inherit the wrappers and the open
span stack, so their spans name the parent's `cli._scan_counts` span as
parent.  Pool workers exit without running exit handlers, so each worker
appends its new spans and counts to its own file after every task.  This
relies on the `fork` start method, which run.py records with the results;
under spawn the workers would run unwrapped and record nothing.

layer_metrics() turns one repetition's spans and counts into the
per-layer metrics listed in BENCHMARK.json.
"""

import functools
import glob
import json
import os
import sys
import time
from collections import Counter, defaultdict

PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")

SPANS = (
    ("sgpoly.cli", "main", "cli.main"),
    ("sgpoly.cli", "_scan_counts", "cli._scan_counts"),
    ("sgpoly.cli", "_emit", "cli._emit"),
    ("sgpoly.cli", "_primes_to", "cli._primes_to"),
    ("sgpoly.sgalg", "count_classes", "sgalg.count_classes"),
    ("sgpoly.sgalg", "is_irreducible_in_algebra", "sgalg.is_irreducible_in_algebra"),
    ("sgpoly.ffpoly", "factor_fq", "ffpoly.factor_fq"),
    ("sgpoly._gf2", "factor", "gf2.factor"),
    ("sgpoly.counting", "cyclotomic_experiment", "counting.cyclotomic_experiment"),
    ("sgpoly.counting", "mult_order", "counting.mult_order"),
    ("sgpoly.counting", "b_counts", "counting.b_counts"),
    ("sgpoly.numsgp", "from_generators", "numsgp.from_generators"),
)
COUNTED = (
    ("sgpoly._gf2", "divrem", "gf2.divrem"),
    ("sgpoly._gf2", "mul", "gf2.mul"),
)
CALL_COUNT_METRICS = ("gf2.divrem.calls_per_member", "gf2.mul.calls_per_member")
# rep.* are the repetition's top-level spans; the last three entry points
# get extra bookkeeping in install()
SPAN_NAMES = (
    ("rep.start", "rep.setup", "rep.work", "rep.trace_dump")
    + tuple(n for _, _, n in SPANS)
    + ("cli._count_chunk", "sgalg.prepare_gf2_cache", "sgalg.iter_irreducible")
)


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Spans of one process: [name, start, end, parent]; a span's id is
    (pid, index) and its parent is the id of the innermost open span."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.flushed = 0

    def begin(self, name, start=None):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, clock() if start is None else start, None, parent])
        self.stack.append((self.pid, idx))
        return idx

    def end(self, idx, end=None):
        self.spans[idx][2] = clock() if end is None else end
        self.stack.pop()

    def timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return wrapper

    def timed_iter(self, name, fn):
        # one span per item, so the consumer's work between items is not counted
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end(idx)
                yield item
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def _write(self, path, mode):
        record = {"pid": self.pid, "first": self.flushed,
                  "spans": self.spans[self.flushed:], "counts": dict(self.counts)}
        with open(os.path.join(self.out_dir, path), mode, encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        self.flushed = len(self.spans)
        self.counts.clear()

    def dump(self):
        self._write("main.jsonl", "w")

    def worker_task(self, fn):
        @functools.wraps(fn)
        def wrapper(task):
            if os.getpid() != self.pid:
                # first task in a forked worker: drop the parent's records but
                # keep its open stack, so this task's spans point at the scan
                self.pid = os.getpid()
                self.flushed = len(self.spans)
                self.counts.clear()
            try:
                return fn(task)
            finally:
                self._write(f"worker-{self.pid}.jsonl", "a")
        return wrapper


def _rss_mb():
    # resident set size now (Linux): the peak would hide a table built
    # below an earlier high-water mark
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * PAGE_BYTES / 2 ** 20


def _patch(original, wrapper):
    # rebind every sgpoly module attribute that is the original function
    for name, module in list(sys.modules.items()):
        if name == "sgpoly" or name.startswith("sgpoly."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(out_dir, count_calls):
    tracer = Tracer(out_dir)

    def fn(mod, attr):
        return getattr(sys.modules[mod], attr)

    for mod, attr, name in SPANS:
        _patch(fn(mod, attr), tracer.timed(name, fn(mod, attr)))
    for mod, attr, name in COUNTED if count_calls else ():
        _patch(fn(mod, attr), tracer.counted(name, fn(mod, attr)))

    member_count = sys.modules["sgpoly.sgalg"].member_count
    counts = tracer.counts

    chunk = fn("sgpoly.cli", "_count_chunk")
    _patch(chunk, tracer.worker_task(tracer.timed("cli._count_chunk", chunk)))

    prepare = fn("sgpoly.sgalg", "prepare_gf2_cache")
    timed_prepare = tracer.timed("sgalg.prepare_gf2_cache", prepare)

    @functools.wraps(prepare)
    def prepare_gf2_cache(max_degree):
        before = _rss_mb()
        timed_prepare(max_degree)
        counts["sgalg.prepare_gf2_cache.rss_mb"] += _rss_mb() - before
    _patch(prepare, prepare_gf2_cache)

    count_classes = fn("sgpoly.sgalg", "count_classes")  # already timed

    @functools.wraps(count_classes)
    def counted_classes(ctx, n, lo=0, hi=None):
        result = count_classes(ctx, n, lo, hi)
        counts["sgalg.count_classes.members"] += (
            member_count(ctx, n) if hi is None else hi) - lo
        counts["sgalg.count_classes.irreducibles"] += result.total
        return result
    _patch(count_classes, counted_classes)

    iterate = fn("sgpoly.sgalg", "iter_irreducible")
    timed_iterate = tracer.timed_iter("sgalg.iter_irreducible", iterate)

    @functools.wraps(iterate)
    def iter_irreducible(ctx, n):
        counts["sgalg.iter_irreducible.members"] += member_count(ctx, n)
        return timed_iterate(ctx, n)
    _patch(iterate, iter_irreducible)
    return tracer


# -- aggregation ---------------------------------------------------------------


def load(out_dir):
    """All spans of one repetition as dicts, and the summed counts."""
    spans = []
    counts = Counter()
    for path in sorted(glob.glob(os.path.join(out_dir, "*.jsonl"))):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                pid = record["pid"]
                for i, (name, start, end, parent) in enumerate(record["spans"]):
                    spans.append({
                        "id": (pid, record["first"] + i), "name": name,
                        "start": start, "end": end,
                        "parent": tuple(parent) if parent else None,
                    })
                counts.update(record["counts"])
    return spans, counts


def _covered(intervals, lo, hi):
    # length of [lo, hi] covered by the union of the intervals
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Per span name: total duration minus the part its child spans cover.

    Children running in parallel (pool workers under one scan) are merged
    first, so a span's self time is never negative.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = Counter()
    for s in spans:
        out[s["name"]] += (s["end"] - s["start"]) - _covered(
            children.get(s["id"], ()), s["start"], s["end"])
    return out


def _pool(spans, workers):
    """cli.pool.overhead_s and cli.pool.busy_frac.

    overhead: each `cli._scan_counts` span minus its critical path, the
    busiest worker's `sgalg.count_classes` time (or, without a pool, the
    in-process `count_classes` time).  busy_frac: workers' `count_classes`
    time over workers x the wall time of the scans that used the pool.
    """
    by_id = {s["id"]: s for s in spans}
    busy = defaultdict(lambda: defaultdict(float))  # scan id -> pid -> seconds
    inline = defaultdict(float)
    for s in spans:
        if s["name"] != "sgalg.count_classes" or s["parent"] not in by_id:
            continue
        parent = by_id[s["parent"]]
        if parent["name"] == "cli._count_chunk":
            busy[parent["parent"]][s["id"][0]] += s["end"] - s["start"]
        elif parent["name"] == "cli._scan_counts":
            inline[parent["id"]] += s["end"] - s["start"]
    overhead = 0.0
    pooled_wall = 0.0
    pooled_busy = 0.0
    for s in spans:
        if s["name"] != "cli._scan_counts":
            continue
        wall = s["end"] - s["start"]
        if s["id"] in busy:
            per_worker = busy[s["id"]].values()
            overhead += wall - max(per_worker)
            pooled_wall += wall
            pooled_busy += sum(per_worker)
        else:
            overhead += wall - inline[s["id"]]
    return overhead, pooled_busy / (workers * pooled_wall) if pooled_wall else 0.0


def layer_metrics(spans, counts, items, workers):
    """Per-layer metrics of one traced repetition.

    items is the repetition's work items (members scanned, verdict calls or
    primes), the base of every *_per_member figure.  A layer the workload
    never reaches reads 0.
    """
    counts = Counter(counts)
    total = Counter()
    calls = Counter()
    for s in spans:
        total[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    members = counts["sgalg.count_classes.members"]
    pool_overhead, busy_frac = _pool(spans, workers)
    out = {
        "sgalg.prepare_gf2_cache.s": total["sgalg.prepare_gf2_cache"],
        "sgalg.prepare_gf2_cache.rss_mb": counts["sgalg.prepare_gf2_cache.rss_mb"],
        "sgalg.count_classes.s": total["sgalg.count_classes"],
        "sgalg.count_classes.members": members,
        "sgalg.count_classes.us_per_member": per(total["sgalg.count_classes"], members, 1e6),
        "sgalg.count_classes.irreducible_ratio": per(
            counts["sgalg.count_classes.irreducibles"], members),
        "sgalg.iter_irreducible.s": total["sgalg.iter_irreducible"],
        "sgalg.iter_irreducible.us_per_member": per(
            total["sgalg.iter_irreducible"], counts["sgalg.iter_irreducible.members"], 1e6),
        "sgalg.is_irreducible_in_algebra.calls": calls["sgalg.is_irreducible_in_algebra"],
        "sgalg.is_irreducible_in_algebra.us_per_call": per(
            total["sgalg.is_irreducible_in_algebra"],
            calls["sgalg.is_irreducible_in_algebra"], 1e6),
        "ffpoly.factor_fq.calls_per_member": per(calls["ffpoly.factor_fq"], items),
        "ffpoly.factor_fq.us_per_call": per(
            total["ffpoly.factor_fq"], calls["ffpoly.factor_fq"], 1e6),
        "gf2.factor.calls": calls["gf2.factor"],
        "gf2.factor.us_per_call": per(total["gf2.factor"], calls["gf2.factor"], 1e6),
        "gf2.divrem.calls_per_member": per(counts["gf2.divrem"], items),
        "gf2.mul.calls_per_member": per(counts["gf2.mul"], items),
        "cli.pool.overhead_s": pool_overhead,
        "cli.pool.busy_frac": busy_frac,
        "cli._emit.s": total["cli._emit"],
        "counting.cyclotomic_experiment.us_per_call": per(
            total["counting.cyclotomic_experiment"],
            calls["counting.cyclotomic_experiment"], 1e6),
        "counting.mult_order.s": total["counting.mult_order"],
        "cli._primes_to.s": total["cli._primes_to"],
        "counting.b_counts.s": total["counting.b_counts"],
        "numsgp.from_generators.s": total["numsgp.from_generators"],
    }
    selfs = self_times(spans)
    out.update({f"{name}.self_s": selfs[name] for name in SPAN_NAMES})
    return out
