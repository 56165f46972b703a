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
    # closed-form rows are capped; a scanned context has the member guard instead
    proc = run_cli("count", "--max-degree", "1001", expect=2)
    assert proc.stdout == ""
    assert proc.stderr == "error: closed-form counts are capped at degree 1000\n"
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


def test_verify_shape_bounds_other_semigroup():
    proc = run_cli("verify", "--sgp", "3,4,5", "--max-degree", "12")
    lines = proc.stdout.splitlines()
    assert lines[0] == "n,irreducible,max_m,max_k,m_bound,k_bound,within"
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[4] == "6" and fields[5] == "4"
        assert fields[6] == "true"


def test_verify_guard():
    run_cli("verify", "--max-degree", "25", expect=2)


def test_verify_natural_semigroup_holds_its_bounds(capsys):
    # S = N has F = -1, taken as 0: m < 2 and k <= 1, which every
    # irreducible of F_2[x] of degree >= 2 meets with m = 0 and k = 1
    from sgpoly import cli

    assert cli.main(["verify", "--sgp", "1", "--max-degree", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert all(line.endswith(",2,1,true") for line in lines[1:])


def test_scan_guard_has_one_message(capsys):
    # F_3[x^2,x^3] has 3^16 > 2^24 members at degree 17: count and verify
    # refuse with the same line as enumerate, before any row
    from sgpoly import cli

    for argv in (["count", "--q", "3", "--max-degree", "18"],
                 ["verify", "--q", "3", "--max-degree", "18"],
                 ["enumerate", "--q", "3", "--degree", "17"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: degree 17 needs more than 16777216 member scans\n")


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

    real = counting.b_counts

    def skewed(n):
        out = real(n)
        return (out[0] + 1, *out[1:]) if n == 4 else out

    monkeypatch.setattr(cli.counting, "b_counts", skewed)
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


def test_shape_violation_names_the_bound(monkeypatch, capsys):
    # the scans never break a bound, so feed the check counts that do
    from sgpoly import cli, sgalg

    def skewed(args, ctx, degrees):
        return [sgalg.ClassCounts(total=1, max_m=6 if n == 3 else 1, max_k=5) for n in degrees]

    monkeypatch.setattr(cli, "_scan_counts", skewed)
    assert cli.main(["verify", "--sgp", "3,4,5", "--max-degree", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == ["2,1,1,5,6,4,false", "3,1,6,5,6,4,false"]
    assert captured.err == (
        "shape bound violated at degree 2: max_k 5 > k_bound 4\n"
        "shape bound violated at degree 3: max_m 6 >= m_bound 6, max_k 5 > k_bound 4\n"
    )


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
    # 4,194,304 members pass the member guard at degree 30, but their table
    # would hold 2^31 entries; no table over the cap may ever be built
    from sgpoly import cli, sgalg

    def refuse(*args):
        raise AssertionError("a factor table over the cap was built")

    monkeypatch.setattr(sgalg, "_basep_tables", refuse)
    wide = "9,10,11,12,13,14,15,16,17"
    for argv in (
        ["count", "--sgp", wide, "--max-degree", "30"],
        ["count", "--sgp", wide, "--max-degree", "30", "--workers", "2"],
        ["enumerate", "--sgp", wide, "--degree", "30"],
    ):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "cap is 16777216" in captured.err


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

    argv = ["count", "--sgp", "3,4,5", "--max-degree", "15"]
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
    assert cli.main(["count", "--q", "3", "--sgp", "3,4,5", "--max-degree", "8"]) == 0
    assert cli.main(["count", "--sgp", "3,4,5", "--max-degree", "12"]) == 0
    assert cli.main(["verify", "--max-degree", "13"]) == 0
    capsys.readouterr()
    assert builds == [(3, 8), (2, 12), (2, 13)]


def test_count_natural_semigroup_reduces_to_field_counts():
    # S = N: algebra irreducibility coincides with F_2[x] irreducibility
    out = run_cli("count", "--sgp", "1", "--max-degree", "8").stdout.splitlines()
    for line in out[1:]:
        f = line.split(",")
        n, a, b_c, b_t, b_w, b = int(f[0]), int(f[1]), int(f[3]), int(f[4]), int(f[5]), int(f[6])
        assert b == b_c == a
        assert b_t == b_w == 0
        assert int(f[7]) == 2 ** n


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


def test_output_beside_no_new_file_is_written_in_place(monkeypatch, tmp_path):
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
    # a missing directory fails on PATH itself, as a plain open would
    missing = tmp_path / "absent" / "table.csv"
    with pytest.raises(FileNotFoundError) as err:
        cli.main(["count", "--max-degree", "5", "--output", str(missing)])
    assert err.value.filename == str(missing)


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
            "count", "--sgp", "3,4,5", "--max-degree", "14",
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
    for argv in (
        ["count", "--sgp", "3,4,5", "--max-degree", "15"],  # degrees 14 and 15 pooled
        ["count", "--q", "3", "--sgp", "3,4,5", "--max-degree", "11"],  # 10 and 11
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
        sgalg.prepare_factor_table(q, max(degrees))
        serial = [sgalg.count_classes(ctx, n) for n in degrees]
        handed = pickle.loads(pickle.dumps((ctx, sgalg.cached_factor_table(q))))
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
