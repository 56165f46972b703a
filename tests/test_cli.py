"""Command-line behaviour: formats, golden rows, guards, exit codes."""

import json
import subprocess
import sys

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


def test_verify_mismatch_exits_one(monkeypatch, capsys):
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
    assert "mismatch at degree 4" in captured.err
    assert "4,2,2,2,5,1,2,2,5,false" in captured.out


def test_table_cap_exits_before_any_work(monkeypatch, capsys):
    # 4,194,304 members pass the member guard at degree 30, but their table
    # would hold 2^31 entries; no table over the cap may ever be built
    from sgpoly import cli, sgalg

    def refuse(*args):
        raise AssertionError("a factor table over the cap was built")

    monkeypatch.setattr(sgalg, "_gf2_table", refuse)
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
        m.setattr(sgalg, "_gf2_table", refuse)
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
    for name in ("_gf2_table", "_basep_tables"):
        real = getattr(sgalg, name)
        monkeypatch.setattr(sgalg, name, lambda *a, real=real: builds.append(a) or real(*a))
    assert cli.main(["count", "--q", "3", "--sgp", "3,4,5", "--max-degree", "8"]) == 0
    assert cli.main(["count", "--sgp", "3,4,5", "--max-degree", "12"]) == 0
    assert cli.main(["verify", "--max-degree", "13"]) == 0
    capsys.readouterr()
    assert builds == [(3, 8), (12,), (13,)]


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
    # spawned workers import sgpoly afresh and inherit no factor table
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from sgpoly import cli

    argv = ["count", "--sgp", "3,4,5", "--max-degree", "14"]
    assert cli.main(argv + ["--workers", "1"]) == 0
    serial = capsys.readouterr()
    pools = []

    def spawn_pool(**kwargs):
        pools.append(kwargs)
        return ProcessPoolExecutor(mp_context=multiprocessing.get_context("spawn"), **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", spawn_pool)
    assert cli.main(argv + ["--workers", "2"]) == 0
    assert capsys.readouterr() == serial
    assert pools == [{"max_workers": 2}]  # degree 14 has 4096 members: one pool


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
