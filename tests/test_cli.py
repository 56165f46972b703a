"""Command-line behaviour: formats, golden rows, guards, exit codes."""

import json
import os
import stat
import subprocess
import sys
import threading

import pytest

SGPOLY = [sys.executable, "-m", "sgpoly"]


def run_cli(*args, expect=0):
    proc = subprocess.run(
        SGPOLY + list(args), capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == expect, proc.stderr
    return proc


def test_count_golden_rows():
    out = run_cli("count", "--max-degree", "6").stdout.splitlines()
    assert out[0] == "n,a,s,b_c,b_t,b_w,b,algebra_size,density,density_float"
    assert out[1] == "2,1,1,0,1,1,2,2,1/1,1.000000"
    assert out[2] == "3,2,1,1,2,1,4,4,1/1,1.000000"
    assert out[3] == "4,3,2,1,2,2,5,8,5/8,0.625000"
    assert out[4] == "5,6,3,3,2,3,8,16,1/2,0.500000"
    assert out[5] == "6,9,5,4,3,6,13,32,13/32,0.406250"
    assert len(out) == 6


def test_count_json():
    out = run_cli("count", "--max-degree", "4", "--format", "json").stdout
    rows = json.loads(out)
    assert rows[-1] == {
        "n": 4, "a": 3, "s": 2, "b_c": 1, "b_t": 2, "b_w": 2, "b": 5,
        "algebra_size": 8, "density": "5/8", "density_float": 0.625,
    }


def test_count_other_semigroup_has_blank_density_at_gaps():
    out = run_cli("count", "--sgp", "3,4,5", "--max-degree", "5").stdout.splitlines()
    # degree 2 is a gap: zero counts, blank density cells
    assert out[1] == "2,1,1,0,0,0,0,0,,"
    row3 = out[2].split(",")
    assert row3[0] == "3" and row3[7] == "2"  # two monic members at degree 3


def test_count_q3():
    out = run_cli("count", "--q", "3", "--max-degree", "4").stdout.splitlines()
    # a-column is the F_3 irreducible count; s is blank for odd q
    assert out[1].startswith("2,3,,")
    row = out[3].split(",")
    assert row[0] == "4" and row[1] == "18"


def test_count_usage_errors():
    run_cli("count", "--max-degree", "1", expect=2)
    run_cli("count", "--max-degree", "6", "--q", "4", expect=2)
    run_cli("count", "--max-degree", "6", "--sgp", "4,6", expect=2)
    run_cli("count", "--max-degree", "6", "--workers", "0", expect=2)
    # count rows are capped on every route, the closed forms' too
    proc = run_cli("count", "--max-degree", "1001", expect=2)
    assert proc.stdout == ""
    assert proc.stderr == "error: counts are capped at degree 1000\n"
    run_cli("count", expect=2)  # missing --max-degree


def test_enumerate_degree_four_listing():
    out = run_cli("enumerate", "--degree", "4").stdout.splitlines()
    assert out[0] == "polynomial,bitmask,class,factorization"
    rows = [line.split(",") for line in out[1:]]
    assert len(rows) == 5
    polys = {r[0] for r in rows}
    assert polys == {
        "x^4+x^3+1", "x^4+x^3+x^2", "x^4+x^3", "x^4+x^3+x^2+1", "x^4+x^2+1",
    }
    classes = sorted(r[2] for r in rows)
    assert classes == ["classic", "tame(2)", "tame(3)", "wild", "wild"]
    by_poly = {r[0]: r for r in rows}
    assert by_poly["x^4+x^3+1"][1] == "0x19"
    assert by_poly["x^4+x^2+1"][3] == "(x^2+x+1)^2"
    assert by_poly["x^4+x^3"][3] == "x^3*(x+1)"


def test_enumerate_gap_degree_is_note_plus_header():
    proc = run_cli("enumerate", "--degree", "1")
    assert proc.stdout.splitlines() == ["polynomial,bitmask,class,factorization"]
    assert "gap" in proc.stderr


def test_enumerate_degree_five_count():
    out = run_cli("enumerate", "--degree", "5").stdout.splitlines()
    assert len(out) == 1 + 8


def test_enumerate_size_guard():
    run_cli("enumerate", "--degree", "26", expect=2)


def test_enumerate_json_other_semigroup():
    out = run_cli(
        "enumerate", "--degree", "6", "--sgp", "3,4,5", "--format", "json"
    ).stdout
    rows = json.loads(out)
    assert all(r["class"] is None for r in rows)
    assert {r["polynomial"] for r in rows} >= {"x^6+x^5+x^4+x^3+1"}


def test_verify_friendly_all_match():
    proc = run_cli("verify", "--max-degree", "12")
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("n,closed_c")
    assert len(lines) == 12
    assert all(line.endswith(",true") for line in lines[1:])


def test_verify_other_semigroup_against_the_engine():
    # without closed forms the scan is checked against the class-group
    # engine, with the same columns and the same comparison rule
    from sgpoly import AlgebraContext, FieldSpec, from_generators, sgalg

    proc = run_cli("verify", "--sgp", "3,4,5", "--max-degree", "12")
    lines = proc.stdout.splitlines()
    assert lines[0] == ("n,engine_c,engine_t,engine_w,engine_b,"
                        "brute_c,brute_t,brute_w,brute_b,match")
    ctx = AlgebraContext(FieldSpec(2), from_generators((3, 4, 5)))
    for line, n in zip(lines[1:], range(2, 13), strict=True):
        want = ",".join(map(str, sgalg.count_classes(ctx, n).as_tuple()))
        assert line == f"{n},{want},{want},true"


def test_verify_guard():
    run_cli("verify", "--max-degree", "25", expect=2)


def test_verify_natural_semigroup_matches_field_counts(capsys):
    # S = N has a trivial class group: every irreducible of F_2[x] is a
    # classic irreducible of the algebra, on both routes
    from sgpoly import cli, count_aq

    assert cli.main(["verify", "--sgp", "1", "--max-degree", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [f"{n},{a},0,0,{a},{a},0,0,{a},true"
                         for n in range(2, 9) for a in [count_aq(n, 2)]]


def test_scan_guard_has_one_message(capsys):
    # F_3[x^2,x^3] has 3^16 > 2^24 members at degree 17: verify refuses
    # with the same line as enumerate, before any row
    from sgpoly import cli

    for argv in (["verify", "--q", "3", "--max-degree", "18"],
                 ["enumerate", "--q", "3", "--degree", "17"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: degree 17 needs more than 16777216 member scans\n")


def test_scans_over_the_time_cap_are_refused(monkeypatch, capsys, tmp_path):
    # under the member guard, but estimated (sgalg.scan_us) past
    # sgalg.TIME_CAP_US: one line and exit 2, before any table, scan or
    # --output file; count refuses so only when the engine is refused too,
    # here for F_5[<4,5>]'s 5^10 classes before any walk of its search
    from sgpoly import classgroup, cli, sgalg

    def refuse(*args):
        raise AssertionError("work started before the refusal")

    monkeypatch.setattr(sgalg, "_TABLES", {})
    monkeypatch.setattr(sgalg, "_basep_tables", refuse)
    monkeypatch.setattr(sgalg, "_scan", refuse)
    monkeypatch.setattr(classgroup, "_search", refuse)
    path = tmp_path / "rows.csv"
    for argv, message in (
        (["verify", "--q", "3", "--max-degree", "16"], "a scan estimated at 5762 s (cap 252 s)"),
        (["enumerate", "--q", "3", "--degree", "15"], "a scan estimated at 1435 s (cap 252 s)"),
        (["verify", "--q", "5", "--max-degree", "10", "--workers", "2"],
         "a scan estimated at 591 s (cap 252 s)"),
        (["count", "--q", "5", "--sgp", "4,5", "--max-degree", "15"],
         "a scan estimated at 732 s (cap 252 s), and a class group with more than "
         "16777216 table entries or residues"),
    ):
        assert cli.main(argv + ["--output", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not path.exists()


def test_count_refuses_when_both_routes_pass_the_cap(monkeypatch, capsys):
    # count refuses with one line naming both routes' reasons, before any
    # factor table or count is built
    from sgpoly import classgroup, cli, sgalg

    def refuse(*args):
        raise AssertionError("work started before the refusal")

    monkeypatch.setattr(sgalg, "_basep_tables", refuse)
    monkeypatch.setattr(classgroup, "_tally", refuse)
    # F_3[<9,...,17>] has 3^22 members at degree 24, and its class group
    # 3^8 classes, so a class table of 3^16 entries: Q is not even built
    with monkeypatch.context() as m:
        m.setattr(classgroup, "ClassGroup", refuse)
        wide = "9,10,11,12,13,14,15,16,17"
        assert cli.main(["count", "--q", "3", "--sgp", wide, "--max-degree", "40"]) == 2
        assert capsys.readouterr() == ("", (
            "error: degree 24 needs more than 16777216 member scans, and a class "
            "group with more than 16777216 table entries or residues\n"))
    # the engine's price grows with the degree: 16 classes, and a type
    # search of 4,963 nodes, but each of its products of series is 1001
    # slots of 1002 bits, so the walk stops once its price passes the cap
    assert cli.main(["count", "--sgp", "5,6,7,8,9", "--max-degree", "1000"]) == 2
    assert capsys.readouterr() == ("", (
        "error: degree 29 needs more than 16777216 member scans, and a "
        "class-group count estimated at over 252 s (cap 252 s)\n"))


def test_count_degree_cap_holds_on_every_route(monkeypatch, capsys):
    # one usage error for every (q, S), before any table, class group or
    # scan: F_3[<999,1000>] has 12 members up to degree 1001 and passes the
    # scan's caps, so it was scanned past the degree cap (and hung there)
    from sgpoly import classgroup, cli, sgalg

    def refuse(*args):
        raise AssertionError("work started before the refusal")

    monkeypatch.setattr(sgalg, "_basep_tables", refuse)
    monkeypatch.setattr(sgalg, "_scan", refuse)
    monkeypatch.setattr(classgroup, "ClassGroup", refuse)
    for argv in (["--q", "3", "--sgp", "999,1000"], ["--q", "3"], []):
        assert cli.main(["count", *argv, "--max-degree", "1001"]) == 2
        assert capsys.readouterr() == ("", "error: counts are capped at degree 1000\n")


def test_count_q3_to_degree_16_comes_from_the_class_group(monkeypatch, capsys):
    # 3^15 members at degree 16 pass the member guard, and scanning them
    # takes about 25 minutes; the engine answers without a scan, with the
    # scan's rows where both run
    from sgpoly import AlgebraContext, FieldSpec, cli, from_generators, sgalg

    with monkeypatch.context() as m:
        m.setattr(sgalg, "_scan", lambda *args: pytest.fail("count scanned"))
        assert cli.main(["count", "--q", "3", "--max-degree", "16"]) == 0
        rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 16
    ctx = AlgebraContext(FieldSpec(3), from_generators((2, 3)))
    for line, n in zip(rows[1:10], range(2, 11)):
        c = sgalg.count_classes(ctx, n)
        assert line.split(",")[3:7] == [str(v) for v in c.as_tuple()], n


def test_count_q67_degree_2_comes_from_the_class_group(monkeypatch, capsys):
    # a degree-2 factor table over F_67 has 8,978 entries, but building it
    # fills 67 addition tables of 67^2 entries each, so the scan costs more
    # than the engine and count takes the engine, with the scan's row
    from sgpoly import AlgebraContext, FieldSpec, cli, from_generators, sgalg

    monkeypatch.setattr(sgalg, "_TABLES", {})  # no cached table prices the scan
    with monkeypatch.context() as m:
        m.setattr(sgalg, "_scan", lambda *args: pytest.fail("count scanned"))
        assert cli.main(["count", "--q", "67", "--max-degree", "2"]) == 0
        rows = capsys.readouterr().out.splitlines()
    c = sgalg.count_classes(AlgebraContext(FieldSpec(67), from_generators((2, 3))), 2)
    assert rows[1].split(",")[3:7] == [str(v) for v in c.as_tuple()]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_count_rows_do_not_depend_on_the_route(monkeypatch, capsys, fmt):
    # every route gives ClassCounts and one builder prints them, so forcing
    # another route changes no byte: the engine against the closed forms,
    # and the scan against the engine
    from sgpoly import classgroup, cli, counting, sgalg

    def fail(*args):
        pytest.fail("count took another route")

    def refuse_engine(*args):
        raise ValueError("the engine is refused")

    def run(*argv):
        assert cli.main(["count", *argv, "--format", fmt]) == 0
        return capsys.readouterr()

    with monkeypatch.context() as m:
        m.setattr(classgroup, "_tally", fail)
        closed = run("--max-degree", "40")
    with monkeypatch.context() as m:
        m.setattr(sgalg.AlgebraContext, "is_friendly", property(lambda self: False))
        m.setattr(counting, "b_counts", fail)
        m.setattr(sgalg, "_scan", fail)
        assert run("--max-degree", "40") == closed
    for argv in (("--sgp", "3,5,7", "--max-degree", "12"),
                 ("--q", "3", "--sgp", "3,4,5", "--max-degree", "10")):
        with monkeypatch.context() as m:
            m.setattr(sgalg, "_scan", fail)
            engine = run(*argv)
        with monkeypatch.context() as m:
            m.setattr(classgroup, "admit", refuse_engine)
            m.setattr(classgroup, "_tally", fail)
            assert run(*argv) == engine, argv


def test_count_below_the_switch_scans(monkeypatch, capsys):
    # F_2[<3,5,7>] to degree 9 scans faster than the engine would set up
    from sgpoly import classgroup, cli

    monkeypatch.setattr(classgroup, "_tally",
                        lambda *args: pytest.fail("count took the class group"))
    assert cli.main(["count", "--sgp", "3,5,7", "--max-degree", "9"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 9


def test_generator_limit_refuses_before_building(monkeypatch, capsys):
    # building <g, g+1> costs time and memory as g^2, so generators over
    # 1000 are refused before any semigroup is built
    from sgpoly import cli, numsgp

    def refuse(gens):
        raise AssertionError("a semigroup over the generator limit was built")

    monkeypatch.setattr(cli, "from_generators", refuse)
    monkeypatch.setattr(numsgp, "from_generators", refuse)
    assert cli.main(["count", "--sgp", "1001,1002", "--max-degree", "3"]) == 2
    assert capsys.readouterr() == ("", "error: generators above 1000 are not supported\n")


def test_verify_json():
    out = run_cli("verify", "--max-degree", "6", "--format", "json").stdout
    rows = json.loads(out)
    assert rows[0] == {
        "n": 2,
        "closed_c": 0, "closed_t": 1, "closed_w": 1, "closed_b": 2,
        "brute_c": 0, "brute_t": 1, "brute_w": 1, "brute_b": 2,
        "match": True,
    }
    assert all(r["match"] for r in rows)


def test_verify_mismatch_exits_one(monkeypatch, capsys, tmp_path):
    # force a wrong closed form for one degree and watch the contract fire
    from sgpoly import cli, counting

    real = counting.b_counts_to

    def skewed(top):
        return [(c + 1, *rest) if n == 4 else (c, *rest)
                for n, (c, *rest) in enumerate(real(top), 2)]

    monkeypatch.setattr(cli.counting, "b_counts_to", skewed)
    code = cli.main(["verify", "--max-degree", "5"])
    captured = capsys.readouterr()
    assert code == 1
    # the first differing bucket, with both values
    assert captured.err == "mismatch at degree 4: b_c closed 2, brute 1\n"
    assert "4,2,2,2,5,1,2,2,5,false" in captured.out
    # the rows of a failed verification still replace an --output file
    path = tmp_path / "verify.csv"
    path.write_text("earlier output\n")
    assert cli.main(["verify", "--max-degree", "5", "--output", str(path)]) == 1
    assert path.read_text() == captured.out
    assert list(tmp_path.iterdir()) == [path]
    capsys.readouterr()

    # the closed forms' max_m and max_k are compared like the engine's:
    # max_k has no column, but it sets match to false just the same
    def skewed_k(top):
        return [(*rest, k + 1) if n == 5 else (*rest, k)
                for n, (*rest, k) in enumerate(real(top), 2)]

    monkeypatch.setattr(cli.counting, "b_counts_to", skewed_k)
    assert cli.main(["verify", "--max-degree", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "mismatch at degree 5: max_k closed 3, brute 2\n"
    assert captured.out.splitlines()[3:] == ["4,1,2,2,5,1,2,2,5,true", "5,3,2,3,8,3,2,3,8,false"]


def test_engine_mismatch_names_the_bucket(monkeypatch, capsys):
    # the scan and the engine are independent routes: skew one bucket, or
    # the largest k, of the engine at one degree and verify must catch it
    from sgpoly import classgroup, cli

    real = classgroup._tally

    def skewed(degree, attr):
        def tally(group, n, by_degree):
            out = real(group, n, by_degree)
            setattr(out[degree], attr, getattr(out[degree], attr) + 1)
            return out
        return tally

    monkeypatch.setattr(classgroup, "_tally", skewed(5, "tame"))
    assert cli.main(["verify", "--sgp", "3,4,5", "--max-degree", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[4:] == ["5,1,5,3,8,1,4,3,8,false", "6,2,6,5,13,2,6,5,13,true"]
    assert captured.err == "mismatch at degree 5: b_t engine 5, brute 4\n"
    # max_k has no column, but it sets match to false just the same
    monkeypatch.setattr(classgroup, "_tally", skewed(6, "max_k"))
    assert cli.main(["verify", "--sgp", "3,4,5", "--max-degree", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[4:] == ["5,1,4,3,8,1,4,3,8,true", "6,2,6,5,13,2,6,5,13,false"]
    assert captured.err == "mismatch at degree 6: max_k engine 5, brute 4\n"


def test_verify_without_a_second_route_is_refused(monkeypatch, capsys):
    # F_2[<5,7>] has 12 gaps: its class table alone is estimated past the
    # cap, so verify exits 2 before any factor table, class table or scan
    from sgpoly import classgroup, cli, sgalg

    def refuse(*args):
        raise AssertionError("work started before the refusal")

    monkeypatch.setattr(sgalg, "prepare_scans", refuse)
    monkeypatch.setattr(sgalg, "_basep_tables", refuse)
    monkeypatch.setattr(sgalg, "_scan", refuse)
    monkeypatch.setattr(classgroup, "ClassGroup", refuse)
    assert cli.main(["verify", "--sgp", "5,7", "--max-degree", "8"]) == 2
    assert capsys.readouterr() == ("", (
        "error: no second route to verify against: a class-group count "
        "estimated at 725 s (cap 252 s)\n"))


def test_closed_form_verify_does_not_load_the_engine():
    # F_2[x^2,x^3] verifies against the closed forms, so a fresh process
    # never imports the class-group module
    code = ("import sys\n"
            "from sgpoly import cli\n"
            "assert cli.main(['verify', '--max-degree', '6']) == 0\n"
            "assert 'sgpoly.classgroup' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, timeout=600)


def test_each_command_builds_the_semigroup_once(monkeypatch, capsys):
    # the semigroup _check_args validates is the one the command uses
    from sgpoly import cli

    real = cli.from_generators
    calls = []
    monkeypatch.setattr(cli, "from_generators", lambda gens: calls.append(gens) or real(gens))
    for argv in (
        ["count", "--sgp", "3,4,5", "--max-degree", "6"],
        ["enumerate", "--sgp", "3,4,5", "--degree", "6"],
        ["verify", "--max-degree", "6"],
    ):
        calls.clear()
        assert cli.main(argv) == 0
        assert len(calls) == 1, argv
    capsys.readouterr()


def test_table_cap_exits_before_any_work(monkeypatch, capsys):
    # no factor table over MAX_SCAN entries is ever built: a GF(2) scan
    # whose table would pass the cap factors with factor_fq, as every
    # field's does.  F_2[<14,...,27>] to degree 24 (a 2^25-entry table) is
    # admitted; no two members of positive degree sum to 24, so all 2,048
    # members there are irreducible.  The refusals left, an estimate over
    # the time cap and a degree over the member cap, exit 2 before any scan
    from sgpoly import cli, sgalg

    real = sgalg._basep_tables

    def capped(p, degree):
        if sgalg.table_entries(p, degree) > sgalg.MAX_SCAN:
            raise AssertionError("a factor table over the cap was built")
        return real(p, degree)

    monkeypatch.setattr(sgalg, "_basep_tables", capped)
    wide = ",".join(map(str, range(14, 28)))
    assert cli.main(["enumerate", "--sgp", wide, "--degree", "24"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2048
    assert cli.main(["count", "--sgp", wide, "--max-degree", "24", "--workers", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split(",")[6:8] == ["2048", "2048"]

    def refuse(*args):
        raise AssertionError("a refused scan started")

    monkeypatch.setattr(sgalg, "_scan", refuse)
    for argv, err in (
        (["enumerate", "--degree", "24"], "a scan estimated at 2517 s (cap 252 s)"),
        (["enumerate", "--degree", "26"], "degree 26 needs more than 16777216 member scans"),
        (["count", "--sgp", wide, "--max-degree", "40"],
         "degree 38 needs more than 16777216 member scans, "
         "and a class group with more than 16777216 table entries or residues"),
    ):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"


def test_member_guard_does_not_list_free_positions(monkeypatch, capsys):
    # the guard counts free positions from the gaps, so a huge degree is
    # refused at once instead of after building a list of its positions
    from sgpoly import cli, sgalg

    real = sgalg._free_positions

    def bounded(ctx, n):
        if n > 10 ** 4:
            raise AssertionError("the guard listed the free positions")
        return real(ctx, n)

    monkeypatch.setattr(sgalg, "_free_positions", bounded)
    assert cli.main(["enumerate", "--degree", "1000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: degree 1000000000 needs more than 16777216 member scans\n"


def test_workers_are_clamped_to_the_cpus(monkeypatch, capsys):
    # every pool worker starts at the first submit, so --workers beyond the
    # CPUs would only start processes; the output is the same either way
    from concurrent.futures import ProcessPoolExecutor

    from sgpoly import cli

    argv = ["verify", "--sgp", "3,4,5", "--max-degree", "15"]
    assert cli.main(argv + ["--workers", "1"]) == 0
    serial = capsys.readouterr()
    pools = []

    def small_pool(max_workers, **kwargs):
        if max_workers > 2:
            raise AssertionError(f"a pool of {max_workers} workers was opened")
        pools.append(max_workers)
        return ProcessPoolExecutor(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", small_pool)
    assert cli.main(argv + ["--workers", "64"]) == 0
    assert capsys.readouterr() == serial
    assert pools == [2]  # degrees 14 and 15 have 4096 and 8192 members: one pool


def test_p_odd_scans_without_a_table_when_it_does_not_pay(monkeypatch, capsys):
    # a p > 2 table covers every monic code, members or not; with many gaps
    # or a large field it costs more than it saves, or passes the cap, and
    # the scan factors each member with factor_fq instead of refusing
    from sgpoly import cli, sgalg

    def refuse(*args):
        raise AssertionError("a factor table that does not pay was built")

    wide = ["count", "--q", "3", "--sgp", "9,10,11,12,13,14,15,16,17", "--max-degree", "11"]
    with monkeypatch.context() as m:
        m.setattr(sgalg, "_TABLES", {})
        m.setattr(sgalg, "_basep_tables", refuse)
        # 4,099 members at degree 2 and a table of 2*4099^2 entries, over the cap
        assert cli.main(["count", "--q", "4099", "--max-degree", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1].startswith("2,") and out[1].split(",")[7] == "4099"
        # 27 members at degree 11 against a table of 354,294 entries
        assert cli.main(wide) == 0
        by_fq = capsys.readouterr()
    assert sgalg.table_entries(3, 11) < 10 ** 6
    sgalg.prepare_factor_table(3, 11)  # a cached table is used whenever it covers n
    assert cli.main(wide) == 0
    assert capsys.readouterr() == by_fq


def test_count_builds_the_table_once(monkeypatch, capsys):
    # one table for the top degree, not one per degree as the scan grows
    from sgpoly import cli, sgalg

    builds = []
    monkeypatch.setattr(sgalg, "_TABLES", {})
    real = sgalg._basep_tables
    monkeypatch.setattr(sgalg, "_basep_tables", lambda *a: builds.append(a) or real(*a))
    assert cli.main(["verify", "--q", "3", "--sgp", "3,4,5", "--max-degree", "8"]) == 0
    assert cli.main(["verify", "--sgp", "3,4,5", "--max-degree", "12"]) == 0
    assert cli.main(["verify", "--max-degree", "13"]) == 0
    capsys.readouterr()
    assert builds == [(3, 8), (2, 12), (2, 13)]


def test_each_command_builds_its_table_once_in_the_parent(monkeypatch, capsys):
    # _scan_counts builds the table a command's scans share before any
    # pool opens, and enumerate's scan builds its own: one build each, and
    # none in a worker (a forked worker that built one fails its chunk).
    # Both pool thresholds are lowered, so that verify on dense
    # F_2[x^2,x^3] and count to degree 19 scan on a pool (F_2[<3,5,7>]
    # has 32 members at degree 9)
    from concurrent.futures import ProcessPoolExecutor

    from sgpoly import cli, sgalg

    parent, builds = os.getpid(), []
    real = sgalg._basep_tables

    def build(p, degree):
        assert os.getpid() == parent, "a pool worker built a factor table"
        builds.append((p, degree))
        return real(p, degree)

    monkeypatch.setattr(sgalg, "_basep_tables", build)
    monkeypatch.setattr(cli, "POOL_MIN", 256)  # a pool at these small degrees
    monkeypatch.setattr(cli, "DENSE_POOL_MIN", 256)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    pools = []

    def counted_pool(**kwargs):
        pools.append(kwargs["max_workers"])
        return ProcessPoolExecutor(**kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", counted_pool)
    for argv, table, pooled in (
        (["verify", "--max-degree", "12", "--workers", "2"], (2, 12), [2]),
        (["count", "--sgp", "3,5,7", "--max-degree", "9", "--workers", "2"], (2, 9), []),
        # past degree 15 the table stops paying: workers factor with factor_fq
        (["count", "--sgp", "5,7", "--max-degree", "19", "--workers", "2"], (2, 15), [2]),
        (["enumerate", "--degree", "12"], (2, 12), []),
    ):
        monkeypatch.setattr(sgalg, "_TABLES", {})
        builds.clear()
        pools.clear()
        assert cli.main(argv) == 0
        assert builds == [table], argv
        assert pools == pooled, argv
    capsys.readouterr()


@pytest.mark.parametrize(
    "q, gens",
    [(2, (2, 3)), *((p, (1,)) for p in (2, 3, 5, 7, 257, 1031, 4093))],
    ids=["f2-23", *(f"f{p}-N" for p in (2, 3, 5, 7, 257, 1031, 4093))],
)
def test_dense_degrees_worth_a_pool_pay_for_a_table(monkeypatch, q, gens):
    # _scan_counts picks DENSE_POOL_MIN for every degree of a dense context
    # without asking whether its scan sweeps: every dense degree with
    # POOL_MIN members is refused (by the member guard or scan_us, from an
    # empty table cache) or pays for a table, so its scan does sweep
    from sgpoly import cli, sgalg
    from sgpoly.ffpoly import FieldSpec
    from sgpoly.numsgp import from_generators

    def refuse(*args):
        raise AssertionError("a price built a table")

    monkeypatch.setattr(sgalg, "_TABLES", {})
    monkeypatch.setattr(sgalg, "_basep_tables", refuse)
    ctx = sgalg.AlgebraContext(FieldSpec(q), from_generators(gens))
    assert sgalg.is_dense(ctx)
    big = [n for n in range(1, 64) if sgalg.member_count(ctx, n) >= cli.POOL_MIN]
    assert big
    for n in big:
        try:
            sgalg.scan_us(ctx, (n,))
        except ValueError:
            continue  # refused, by the guard or the time cap
        assert sgalg.table_pays(ctx, n), n


def test_each_command_takes_only_its_own_options(monkeypatch, capsys, tmp_path):
    # cyclotomic reads no --q, --sgp or --workers and enumerate no
    # --workers, so argparse refuses them (exit 2); every argv of the
    # benchmark's workloads still parses and passes _check_args
    from sgpoly import cli

    for argv in (
        ["cyclotomic", "--max-prime", "20", "--q", "3"],
        ["cyclotomic", "--max-prime", "20", "--sgp", "5,7"],
        ["cyclotomic", "--max-prime", "20", "--workers", "9"],
        ["enumerate", "--degree", "4", "--workers", "2"],
    ):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err, argv
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench"))
    import workloads

    argvs = [w.argv for w in workloads.WORKLOADS.values() if w.argv]
    assert {argv[0] for argv in argvs} == set(cli._COMMANDS)
    for argv in argvs:
        args = cli._build_parser().parse_args([a.format(output=tmp_path / "out") for a in argv])
        cli._check_args(args)


def test_count_natural_semigroup_reduces_to_field_counts():
    # S = N: algebra irreducibility coincides with F_2[x] irreducibility
    out = run_cli("count", "--sgp", "1", "--max-degree", "8").stdout.splitlines()
    for line in out[1:]:
        f = line.split(",")
        n, a, b_c, b_t, b_w, b = int(f[0]), int(f[1]), int(f[3]), int(f[4]), int(f[5]), int(f[6])
        assert b == b_c == a
        assert b_t == b_w == 0
        assert int(f[7]) == 2 ** n


def test_count_q3_natural_semigroup_rows():
    # S = N leaves residues mod x^0, so every p > 2 ring product is the empty code
    out = run_cli("count", "--q", "3", "--sgp", "1", "--max-degree", "6").stdout.splitlines()
    assert out[1:] == [
        "2,3,,3,0,0,3,9,1/3,0.333333",
        "3,8,,8,0,0,8,27,8/27,0.296296",
        "4,18,,18,0,0,18,81,2/9,0.222222",
        "5,48,,48,0,0,48,243,16/81,0.197531",
        "6,116,,116,0,0,116,729,116/729,0.159122",
    ]


def test_cyclotomic_rows():
    proc = run_cli("cyclotomic", "--max-prime", "150")
    lines = proc.stdout.splitlines()
    assert lines[0] == "p,p_mod_8,ord_2,primitive_root,irreducible"
    rows = {line.split(",")[0]: line for line in lines[1:]}
    assert rows["7"] == "7,7,3,false,false"
    assert rows["43"] == "43,3,14,false,false"
    assert rows["131"] == "131,3,130,true,true"
    assert "summary:" in proc.stderr
    run_cli("cyclotomic", "--max-prime", "2", expect=2)


def test_output_file_uses_lf(tmp_path):
    path = tmp_path / "table.csv"
    run_cli("count", "--max-degree", "5", "--output", str(path))
    data = path.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")
    assert data.decode().splitlines()[3] == "4,3,2,1,2,2,5,8,5/8,0.625000"


def test_failed_run_leaves_no_half_written_output(monkeypatch, tmp_path):
    # _emit fails after the first row: no file appears, and a file that was
    # already there keeps its bytes
    from sgpoly import cli

    real = cli._emit

    def fail_after_first_row(args, fields, rows):
        def rows_then_fail():
            yield rows[0]
            raise RuntimeError("write failed")

        real(args, fields, rows_then_fail())

    monkeypatch.setattr(cli, "_emit", fail_after_first_row)
    path = tmp_path / "table.csv"
    for fmt in ("csv", "json"):
        argv = ["count", "--max-degree", "5", "--format", fmt, "--output", str(path)]
        with pytest.raises(RuntimeError, match="write failed"):
            cli.main(argv)
        assert list(tmp_path.iterdir()) == []
        path.write_bytes(b"earlier output\n")
        with pytest.raises(RuntimeError, match="write failed"):
            cli.main(argv)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"earlier output\n"
        path.unlink()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_output_to_a_pipe_is_written_in_place(tmp_path):
    # a pipe or device cannot be replaced by a file; it is written directly
    from sgpoly import cli

    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
    reader.start()
    assert cli.main(["count", "--max-degree", "5", "--output", str(pipe)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got[0].decode().splitlines()[3] == "4,3,2,1,2,2,5,8,5/8,0.625000"
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert list(tmp_path.iterdir()) == [pipe]


def test_output_beside_no_new_file_is_written_in_place(monkeypatch, capsys, tmp_path):
    # a directory that takes no new file (read-only, say) gets no temporary
    # file: PATH is rewritten in place, so a hard link still sees the rows
    from sgpoly import cli

    path = tmp_path / "table.csv"
    path.write_text("earlier output\n")
    link = tmp_path / "link.csv"
    os.link(path, link)
    real_open = open

    def no_new_files(name, *args, **kwargs):
        if str(name).endswith(".tmp"):
            raise PermissionError(13, "Permission denied", str(name))
        return real_open(name, *args, **kwargs)

    monkeypatch.setattr(cli, "open", no_new_files, raising=False)
    inode = os.stat(path).st_ino
    assert cli.main(["count", "--max-degree", "5", "--output", str(path)]) == 0
    assert os.stat(path).st_ino == inode
    assert link.read_text().splitlines()[3] == "4,3,2,1,2,2,5,8,5/8,0.625000"
    assert sorted(tmp_path.iterdir()) == [link, path]

    # a path that cannot be opened in place either is one error line, exit 2
    def no_files(name, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(name))

    monkeypatch.setattr(cli, "open", no_files, raising=False)
    assert cli.main(["count", "--max-degree", "5", "--output", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write {path}: Permission denied\n")
    assert path.read_text().splitlines()[3] == "4,3,2,1,2,2,5,8,5/8,0.625000"
    assert sorted(tmp_path.iterdir()) == [link, path]


def test_output_that_cannot_be_written_is_refused_before_any_work(monkeypatch, capsys, tmp_path):
    # a missing directory or a directory as PATH: one error line and exit 2,
    # not a traceback and exit 1, before any count and with no temporary file
    from sgpoly import cli, counting, sgalg

    def refuse(*args):
        raise AssertionError("work started before the refusal")

    monkeypatch.setattr(sgalg, "prepare_scans", refuse)
    monkeypatch.setattr(counting, "b_counts_to", refuse)
    missing = tmp_path / "absent" / "v.csv"
    for argv, path in (
        (["verify", "--max-degree", "14", "--output", str(missing)], missing),
        (["count", "--max-degree", "5", "--output", str(tmp_path)], tmp_path),
    ):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: cannot write {path}: not a file in an existing directory\n")
        assert list(tmp_path.iterdir()) == []


def test_count_determinism_across_workers(tmp_path):
    paths = []
    for workers in ("1", "4"):
        path = tmp_path / f"count-w{workers}.csv"
        run_cli(
            "count", "--max-degree", "10", "--workers", workers,
            "--output", str(path),
        )
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_scan_determinism_across_workers(tmp_path):
    # the non-friendly path actually shards member scans over the pool
    paths = []
    for workers in ("1", "3"):
        path = tmp_path / f"scan-w{workers}.csv"
        run_cli(
            "verify", "--sgp", "3,4,5", "--max-degree", "14",
            "--workers", workers, "--output", str(path),
        )
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_scan_output_does_not_depend_on_the_start_method(monkeypatch, capsys):
    # spawned workers import sgpoly afresh and inherit nothing: they get the
    # context and the factor table from the pool's initializer
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from sgpoly import cli

    pools = []

    def spawn_pool(**kwargs):
        pools.append(kwargs["max_workers"])
        return ProcessPoolExecutor(mp_context=multiprocessing.get_context("spawn"), **kwargs)

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # a pool on any host
    # a pool for dense F_2[x^2,x^3] from degree 13 on, whose spawned
    # workers each sweep the codes with a nonzero constant term below
    # their degrees for themselves
    monkeypatch.setattr(cli, "DENSE_POOL_MIN", cli.POOL_MIN)
    for argv in (
        ["verify", "--sgp", "3,4,5", "--max-degree", "15"],  # degrees 14 and 15 pooled
        ["verify", "--q", "3", "--sgp", "3,4,5", "--max-degree", "11"],  # 10 and 11
        ["verify", "--max-degree", "14"],  # 13 and 14
    ):
        with monkeypatch.context() as m:
            assert cli.main(argv + ["--workers", "1"]) == 0
            serial = capsys.readouterr()
            m.setattr(cli, "ProcessPoolExecutor", spawn_pool)
            pools.clear()
            assert cli.main(argv + ["--workers", "2"]) == 0
            assert capsys.readouterr() == serial
            assert pools == [2], argv  # one pool for the whole command


def test_pool_worker_scans_with_the_parent_table(monkeypatch):
    # a worker started with the parent's context and table entry, as a
    # spawned one receives them, counts every chunk without building a table
    import pickle

    from sgpoly import cli, sgalg
    from sgpoly.ffpoly import FieldSpec
    from sgpoly.numsgp import from_generators

    def refuse(*args):
        raise AssertionError("a pool worker built a factor table")

    for q, gens, degrees in ((2, (2, 3), (11, 12)), (3, (3, 4, 5), (7, 8))):
        ctx = sgalg.AlgebraContext(FieldSpec(q), from_generators(gens))
        entry = sgalg.prepare_scans(ctx, degrees)
        assert entry is not None and entry[0] >= max(degrees)
        serial = [sgalg.count_classes(ctx, n) for n in degrees]
        handed = pickle.loads(pickle.dumps((ctx, entry)))
        with monkeypatch.context() as m:
            m.setattr(sgalg, "_TABLES", {})
            m.setattr(sgalg, "_basep_tables", refuse)
            m.setattr(cli, "_worker_ctx", None)
            cli._start_worker(*handed)
            for n, want in zip(degrees, serial):
                size = sgalg.member_count(ctx, n)
                merged = sgalg.ClassCounts()
                for lo in range(0, size, 700):
                    merged.absorb(cli._count_chunk((n, lo, min(lo + 700, size))))
                assert merged == want, (q, n)


def test_csv_and_json_carry_the_same_rows(capsys):
    # one row model: the JSON keys are the CSV header, and each CSV line is
    # the JSON row with every value rendered by the documented cell rule
    from sgpoly import cli

    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return f"{v:.6f}"
        return str(v)

    for argv in (
        ["count", "--max-degree", "8"],
        ["count", "--sgp", "3,4,5", "--max-degree", "8"],
        ["enumerate", "--degree", "6"],
        ["enumerate", "--sgp", "3,4,5", "--degree", "6"],
        ["verify", "--max-degree", "8"],
        ["verify", "--sgp", "3,4,5", "--max-degree", "8"],
        ["cyclotomic", "--max-prime", "200"],
    ):
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert cli.main(argv + ["--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == len(lines) - 1 > 0, argv
        for row, line in zip(rows, lines[1:]):
            assert ",".join(row) == lines[0], argv
            assert ",".join(map(cell, row.values())) == line, argv
