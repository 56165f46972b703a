"""Benchmark for sgpoly: five batch workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload verify-f2 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one report

It finds src/ and BENCHMARK.json next to perfbench/ and needs nothing
installed.  Each repetition is a fresh interpreter running
perfbench/child.py, started only after the previous one has exited (closed
loop, one caller).  Repetitions are started until --seconds (default:
BENCHMARK.json's run_seconds) have passed and at least three have run;
every output is checked, and the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end ones, medians
over the repetitions.  Their times are in reference seconds: each
repetition's measured times are scaled by CALIBRATION_REF_S over the time
its own process took for child.calibrate()'s fixed work, which removes the
drift of a shared host's CPU speed; the measured times are reported too.
With --trace 1 they are its per_layer ones: the run alternates untraced
and traced repetitions; the first traced repetition
counts GF(2) primitive calls, the others give the layer times, and the
untraced ones give the tracing overhead.  Lines before the last one are a
readable report under each workload's own metric names.  Details, the
environment record and, for traced runs, one repetition's spans are also
written to perfbench/out/.

Exit status: 0 when every check passed, 1 when a check failed (the JSON
line is still printed), 2 when the benchmark could not run (no JSON line).
"""

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field

import spans
from spans import clock
from workloads import WORKLOADS, check, verdict_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

DEFAULT_SEED = 1
MIN_REPS = 3
MIN_TRACED_REPS = 2
REP_DEADLINE_S = 150  # every repetition must end this long after the run starts
CALIBRATION_REF_S = 0.010  # reference speed: child.calibrate() takes 10 ms
LADDER = (99.99, 99.9, 99, 90)


class BenchError(Exception):
    pass


@dataclass
class Rep:
    mode: str
    wall: float  # measured, calibration excluded
    setup: float
    speed: float  # reference seconds per measured second
    rss_mb: float
    rc: int
    marks: dict
    stdout: str
    stderr: str
    output: str
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def digest(self):
        results = json.dumps(self.marks.get("results"))
        return hashlib.sha256(
            "\0".join((str(self.rc), self.stdout, self.stderr, self.output, results)).encode()
        ).hexdigest()


def _read(path):
    if not os.path.exists(path):
        return ""
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_rep(workload, inputs, rep_dir, mode, deadline):
    """Start one repetition, wait for it, and collect its outputs.

    mode is "plain" (untraced), "spans" (traced) or "counts" (traced, with
    exact GF(2) call counters).
    """
    os.mkdir(rep_dir)
    traced = mode != "plain"
    trace_dir = os.path.join(rep_dir, "trace")
    if traced:
        os.mkdir(trace_dir)
    output = os.path.join(rep_dir, "output.txt")
    spec = {
        "src": SRC,
        "argv": None if workload.argv is None
        else [a.format(output=output) for a in workload.argv],
        "contexts": [[q, list(gens)] for q, gens in workload.contexts],
        "gf2_degree": workload.gf2_degree,
        "inputs": [[q, list(f)] for q, f, _ in inputs],
        "trace": {"dir": trace_dir, "count_calls": mode == "counts"} if traced else None,
        "marks": os.path.join(rep_dir, "marks.json"),
    }
    spec_path = os.path.join(rep_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    stdout_path = os.path.join(rep_dir, "stdout.txt")
    stderr_path = os.path.join(rep_dir, "stderr.txt")
    with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
        t_spawn = clock()
        # own process group, so a kill also ends the child's pool workers
        proc = subprocess.Popen([sys.executable, CHILD, spec_path],
                                stdout=out, stderr=err, cwd=ROOT, start_new_session=True)
        timer = threading.Timer(max(deadline - clock(), 1.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        t_exit = clock()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = _read(stderr_path)
    if not os.path.exists(spec["marks"]):
        raise BenchError(
            f"{workload.name}: repetition exited with status {proc.returncode} "
            f"without finishing:\n{stderr[-2000:]}")
    with open(spec["marks"], encoding="utf-8") as fh:
        marks = json.load(fh)
    calibrating = (marks["t_work"] - marks["t_setup"]) + (marks["t_calibrated"] - marks["t_end"]
                                                         + marks.get("calibrating", 0.0))
    rep = Rep(
        mode=mode,
        wall=t_exit - t_spawn - calibrating,
        setup=marks["t_setup"] - t_spawn,
        speed=CALIBRATION_REF_S / statistics.mean(marks["calibration"]),
        rss_mb=usage.ru_maxrss / 1024,  # KiB on Linux: the child's and its reaped workers' peak
        rc=proc.returncode,
        marks=marks,
        stdout=_read(stdout_path),
        stderr=stderr,
        output=_read(output),
    )
    if traced:
        rep_spans, counts = spans.load(trace_dir)
        rep_spans += [
            {"id": ("run", 0), "name": "rep.start", "start": t_spawn,
             "end": marks["t_start"], "parent": None},
            {"id": ("run", 1), "name": "rep.trace_dump", "start": marks["t_calibrated"],
             "end": marks["t_dumped"], "parent": None},
        ]
        rep.layers = spans.layer_metrics(rep_spans, counts, workload.items, workload.workers)
        top = sum(s["end"] - s["start"] for s in rep_spans if s["parent"] is None)
        # calibration inside the verdict batch lies within rep.work
        rep.layers["trace.uncovered_s"] = rep.wall + marks.get("calibrating", 0.0) - top
        rep.layers["cli.output_bytes"] = len(rep.stdout.encode()) + len(rep.output.encode())
        rep.spans = rep_spans
    return rep


def check_reps(workload, reps, inputs, b_counts):
    """Check every repetition; identical outputs share one full check."""
    verdicts = {}
    attempted = failed = 0
    for rep in reps:
        key = rep.digest()
        if key not in verdicts:
            verdicts[key] = check(workload, rep, inputs, b_counts)
        a, f = verdicts[key]
        attempted += a
        failed += f
    return attempted, failed


def nearest_rank(sorted_values, pct):
    return sorted_values[max(math.ceil(pct / 100 * len(sorted_values)) - 1, 0)]


def summary(values):
    """Median, plus the highest percentile with ten or more samples beyond it."""
    xs = sorted(values)
    out = {"median": statistics.median(xs), "n": len(xs)}
    for pct in LADDER:
        if len(xs) * (1 - pct / 100) >= 10:
            out[f"p{pct:g}"] = nearest_rank(xs, pct)
            break
    return out


def environment(reps):
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = done.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "sgpoly")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "start_method": reps[0].marks["start_method"],
        "loadavg": list(os.getloadavg()),
    }


def run_workload(workload, seed, seconds, trace, b_counts):
    inputs = verdict_inputs(seed) if workload.argv is None else []
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="_work-", dir=HERE)
    loadavg_start = list(os.getloadavg())
    try:
        t0 = clock()
        reps = []
        while True:
            # a traced run alternates plain and traced repetitions; the first
            # traced one counts GF(2) calls, the others give the layer times
            i = len(reps)
            mode = "plain" if not trace or i % 2 == 0 else "counts" if i == 1 else "spans"
            rep_dir = os.path.join(work_dir, f"rep{i}")
            reps.append(run_rep(workload, inputs, rep_dir, mode, t0 + REP_DEADLINE_S))
            modes = [r.mode for r in reps]
            if (clock() - t0 >= seconds and modes.count("plain") >= MIN_REPS
                    and (not trace or modes.count("spans") >= MIN_TRACED_REPS)):
                break
        attempted, failed = check_reps(workload, reps, inputs, b_counts)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    plain = [r for r in reps if r.mode == "plain"]
    timed = [r for r in reps if r.mode == "spans"]
    walls = [r.wall * r.speed for r in plain]
    setups = [r.setup * r.speed for r in plain]
    rates = [workload.items / ((r.wall - r.setup) * r.speed) for r in plain]
    rss = [r.rss_mb for r in plain]
    detail = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "argv": workload.argv, "items": workload.items, "item": workload.item,
        "repetitions": len(plain),
        "wall_s": summary(walls), "setup_s": summary(setups),
        f"{workload.item}_per_s": summary(rates), "peak_rss_mb": summary(rss),
        "measured_wall_s": summary([r.wall for r in plain]),
        "measured_setup_s": summary([r.setup for r in plain]),
        "calibration_ms": summary([1e3 * CALIBRATION_REF_S / r.speed for r in plain]),
        "error_rate": failed / attempted, "attempted": attempted, "failed": failed,
    }
    if workload.argv is None:
        latencies = sorted(x * r.speed for r in plain for x in r.marks["latencies"])
        detail["verdict_ms"] = {k: v * 1e3 if k != "n" else v
                                for k, v in summary(latencies).items()}
        detail["verdict_p50_ms"] = nearest_rank(latencies, 50) * 1e3
        detail["verdict_p99_ms"] = nearest_rank(latencies, 99) * 1e3

    if trace:
        counted = next(r for r in reps if r.mode == "counts")
        metrics = {name: statistics.median(r.layers[name] for r in timed)
                   for name in timed[0].layers}
        metrics.update({name: counted.layers[name] for name in spans.CALL_COUNT_METRICS})
        metrics["trace.wall_s"] = statistics.median(r.wall for r in timed)
        metrics["trace.overhead_s"] = (
            metrics["trace.wall_s"] - statistics.median(r.wall for r in plain))
        detail["traced_repetitions"] = len(timed)
        detail["spans_file"] = os.path.relpath(
            _write_json(f"{workload.name}-seed{seed}-spans.json", timed[0].spans), ROOT)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "items_per_s": statistics.median(rates),
            "peak_rss_mb": statistics.median(rss),
        }
    detail["per_repetition"] = [
        {"mode": r.mode, "measured_wall_s": r.wall, "measured_setup_s": r.setup,
         "speed": r.speed, "peak_rss_mb": r.rss_mb}
        for r in reps
    ]
    detail["environment"] = environment(reps)
    detail["environment"]["loadavg_start"] = loadavg_start
    detail["metrics"] = metrics
    _write_json(f"{workload.name}-seed{seed}-trace{int(trace)}.json", detail)
    return detail, metrics, attempted, failed


def _write_json(name, obj):
    path = os.path.join(OUT, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, default=list)
    return path


def report(detail, metrics, units):
    """Readable lines, under the metric names of the workload."""
    w = detail["workload"]
    lines = [f"workload {w}  seed {detail['seed']}  {detail['repetitions']} untraced "
             f"repetitions, each a fresh interpreter; closed loop, one caller"]
    if detail["trace"]:
        lines.append(f"  traced repetitions: {detail['traced_repetitions']}; "
                     f"spans in {detail['spans_file']}")
        for name, value in metrics.items():
            lines.append(f"  {name:<46} {value:>14.6g} {units[name]}")
    else:
        for name, unit, measured in (
                ("wall_s", "s", "measured_wall_s"), ("setup_s", "s", "measured_setup_s"),
                (f"{detail['item']}_per_s", f"{detail['item']}/s", None),
                ("peak_rss_mb", "MB", None)):
            s = detail[name]
            tail = "".join(f"  {k} {v:.6g}" for k, v in s.items() if k.startswith("p"))
            if measured:
                tail += f"  (measured {detail[measured]['median']:.6g} s)"
            lines.append(f"  {name:<16} {s['median']:>12.6g} {unit:<10} median of {s['n']}{tail}")
        lines.append(f"  {'calibration_ms':<16} {detail['calibration_ms']['median']:>12.6g} ms"
                     f"         times are scaled to {CALIBRATION_REF_S * 1e3:g} ms")
        if "verdict_ms" in detail:
            s = detail["verdict_ms"]
            tail = "".join(f"  {k} {v:.6g}" for k, v in s.items() if k.startswith("p9"))
            lines.append(f"  {'verdict_p50_ms':<16} {detail['verdict_p50_ms']:>12.6g} ms"
                         f"         over {s['n']} calls")
            lines.append(f"  {'verdict_p99_ms':<16} {detail['verdict_p99_ms']:>12.6g} ms"
                         f"        {tail}")
        lines.append(f"  {'error_rate':<16} {detail['error_rate']:>12.6g}            "
                     f"{detail['failed']} failed of {detail['attempted']} checked")
    lines.append("  environment " + json.dumps(detail["environment"]))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its repetition and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    if seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "sgpoly", "__init__.py")):
        print(f"error: no sgpoly sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)  # repetitions should not pay bytecode compilation
    sys.path.insert(0, SRC)
    from sgpoly.counting import b_counts  # the closed forms the checks compare against

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        try:
            detail, metrics, attempted, failed = run_workload(
                WORKLOADS[name], args.seed, seconds, bool(args.trace), b_counts)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if set(metrics) != set(units):
            print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
                  "BENCHMARK.json", file=sys.stderr)
            return 2
        print("\n".join(report(detail, metrics, units)), flush=True)
        correct = correct and failed == 0
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
