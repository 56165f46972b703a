"""Tests for the benchmark's correctness gate and trace arithmetic.

    python3 -m pytest perfbench -q

Each check must pass sgpoly's real output and count a planted wrong row or
verdict as failed.  Sizes are small so the tests take a few seconds.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import child  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from sgpoly import AlgebraContext, FieldSpec, Polynomial, cli, from_generators  # noqa: E402
from sgpoly import is_irreducible_in_algebra  # noqa: E402
from sgpoly.counting import b_counts  # noqa: E402


def run_cli(capsys, *argv):
    assert cli.main(list(argv)) == 0
    captured = capsys.readouterr()
    return captured.out, captured.err


def replace_cell(text, row, col, value):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_verify_gate(capsys):
    out, _ = run_cli(capsys, "verify", "--max-degree", "10")
    assert checks.check_verify(out, 10, b_counts) == (10, 0)
    row = 6  # degree 7
    brute_b = out.splitlines()[row].split(",")[8]
    planted = replace_cell(out, row, 8, str(int(brute_b) + 1))
    assert checks.check_verify(planted, 10, b_counts) == (10, 1)
    assert checks.check_verify(replace_cell(out, row, 9, "false"), 10, b_counts) == (10, 1)
    dropped = "\n".join(line for i, line in enumerate(out.splitlines()) if i != row)
    assert checks.check_verify(dropped, 10, b_counts)[1] == 1


def test_enumerate_gate(capsys, tmp_path):
    path = tmp_path / "out.csv"
    run_cli(capsys, "enumerate", "--degree", "10", "--output", str(path))
    text = path.read_text()
    rows = len(text.splitlines()) - 1
    assert rows == b_counts(10)[3]
    assert checks.check_enumerate(text, 10, b_counts) == (rows + 1, 0)

    lines = text.splitlines()
    poly, code, cls, fac = lines[1].split(",")
    wrong_mask = ",".join((poly, hex(int(code, 16) ^ 1), cls, fac))
    wrong_factor = ",".join((poly, code, cls, "(x^2+x+1)^5"))
    for bad in (wrong_mask, wrong_factor):
        planted = "\n".join([lines[0], bad] + lines[2:]) + "\n"
        assert checks.check_enumerate(planted, 10, b_counts) == (rows + 1, 1)
    missing = "\n".join(lines[:-1]) + "\n"
    assert checks.check_enumerate(missing, 10, b_counts) == (rows, 1)


def test_cyclotomic_gate(capsys):
    out, err = run_cli(capsys, "cyclotomic", "--max-prime", "200")
    expected = {"stdout_sha256": checks.sha256(out), "stderr": err.strip()}
    rows = len(out.splitlines()) - 1
    assert checks.check_cyclotomic(out, err, 200, expected) == (rows + 1, 0)
    # the row for p = 7 (ord 3): a wrong order, and a wrong verdict
    assert out.splitlines()[3].startswith("7,7,3,")
    for col, value in ((2, "6"), (4, "true")):
        planted = replace_cell(out, 3, col, value)
        # the row and the whole-output digest both fail
        assert checks.check_cyclotomic(planted, err, 200, expected) == (rows + 1, 2)


def test_recorded_lines_gate(capsys):
    out, _ = run_cli(capsys, "count", "--q", "3", "--sgp", "3,4,5", "--max-degree", "6")
    expected = {"stdout_sha256": checks.sha256(out), "lines": out.splitlines()}
    lines = len(out.splitlines())
    assert checks.check_lines(out, expected) == (lines + 1, 0)
    planted = replace_cell(out, 3, 6, "10")
    assert checks.check_lines(planted, expected) == (lines + 1, 2)


def verdict_results(inputs):
    contexts = {2: AlgebraContext(FieldSpec(2), from_generators((2, 3))),
                3: AlgebraContext(FieldSpec(3), from_generators((3, 4, 5)))}
    return [
        child.verdict_record(
            is_irreducible_in_algebra(contexts[q], Polynomial(contexts[q].field, f)))
        for q, f, _ in inputs
    ]


def test_verdict_gate():
    inputs = workloads.verdict_inputs(seed=5, calls=64)
    assert inputs == workloads.verdict_inputs(seed=5, calls=64)
    results = verdict_results(inputs)
    assert checks.check_verdicts(inputs, results) == (64, 0)

    product = next(i for i, (_, _, constructed) in enumerate(inputs) if constructed)
    f2_irreducible = next(i for i, ((q, _, _), r) in enumerate(zip(inputs, results))
                          if q == 2 and r[0] == "irreducible")
    reducible = results[product]
    g = checks.decode(reducible[2])
    g[0] = (g[0] + 1) % inputs[product][0]
    plants = {
        product: [["irreducible", "-", "-", "-"]],
        f2_irreducible: [["irreducible", "-", "-", "-"], ["reducible", "-", "1", "1"]],
    }
    plants[product].append([reducible[0], reducible[1], checks.encode(g), reducible[3]])
    for index, wrong in plants.items():
        for record in wrong:
            planted = list(results)
            planted[index] = record
            assert checks.check_verdicts(inputs, planted) == (64, 1), record
    assert checks.check_verdicts(inputs, results[:-1]) == (64, 1)


def test_verdict_inputs_are_members():
    for q, f, constructed in workloads.verdict_inputs(seed=11, calls=32):
        lo, hi = workloads.VERDICT_F2_DEGREES if q == 2 else workloads.VERDICT_F3_DEGREES
        if not constructed:
            assert lo <= len(f) - 1 <= hi
        assert f[-1] == 1 and not any(f[g] for g in checks.GAPS[q])


def span(pid, idx, name, start, end, parent):
    return {"id": (pid, idx), "name": name, "start": start, "end": end, "parent": parent}


def test_pool_and_self_time_arithmetic():
    # one pooled scan from 0 to 10; two workers, busy 7 s and 6 s
    trace = [
        span(1, 0, "cli._scan_counts", 0.0, 10.0, None),
        span(2, 0, "cli._count_chunk", 1.0, 9.0, (1, 0)),
        span(2, 1, "sgalg.count_classes", 1.5, 8.5, (2, 0)),
        span(3, 0, "cli._count_chunk", 1.0, 8.0, (1, 0)),
        span(3, 1, "sgalg.count_classes", 1.5, 7.5, (3, 0)),
    ]
    metrics = spans.layer_metrics(trace, {"sgalg.count_classes.members": 100}, 100, 2)
    assert metrics["cli.pool.overhead_s"] == 3.0
    assert metrics["cli.pool.busy_frac"] == 13.0 / 20.0
    assert metrics["cli._scan_counts.self_s"] == 2.0  # parallel chunks cover 1..9 once
    assert metrics["sgalg.count_classes.s"] == 13.0
    assert metrics["sgalg.count_classes.us_per_member"] == 13.0e6 / 100
    assert metrics["gf2.factor.calls"] == 0  # a layer the trace never reached
