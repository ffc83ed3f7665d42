"""End-to-end subprocess tests of the command line front end."""
import io
import json
import math
import multiprocessing
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import robinlab.cli
import robinlab.primes
import robinlab.robin
from robinlab.arithmetic import factorize, is_prime, sigma_of
from robinlab.cli import RowSink, main
from robinlab.euler_products import product_condition
from robinlab.gap_series import gap_terms, series_scan
from robinlab.primes import primes_up_to
from robinlab.summation import PREFIX_BYTES_PER_TERM, prefix_sums

PRIMES_30 = [
    "n,p_n", "1,2", "2,3", "3,5", "4,7", "5,11",
    "6,13", "7,17", "8,19", "9,23", "10,29",
]


def test_primes_small(run_cli):
    cp = run_cli(["primes", "--limit", "30"])
    assert cp.returncode == 0
    assert cp.stdout.splitlines() == PRIMES_30
    assert "primes: limit=30 count=10" in cp.stderr


def test_theta_row(run_cli):
    cp = run_cli(["theta", "--limit", "10"])
    assert cp.returncode == 0
    assert cp.stdout.splitlines() == ["x,theta,pi_x", "10,5.3471075307174685,4"]


def test_robin_eval_values(run_cli):
    cp = run_cli(["robin-eval", "5040", "5041"])
    assert cp.returncode == 0
    lines = cp.stdout.splitlines()
    assert lines[0] == "n,sigma,sigma_ratio,bound_ratio,delta,violates"
    assert lines[1] == "5040,19344,3.8380952380952382,3.8168772880285116,0.06195191379525028,true"
    assert lines[2] == "5041,5113,1.0142828803808768,3.816918735715479,-8.1831974647971428,false"


def test_robin_eval_prints_scan_rows(run_cli):
    # one row per n: every line the scan prints, robin-eval prints for that n
    scan = run_cli(["robin-scan", "--lo", "5000", "--hi", "5040"])
    ev = run_cli(["robin-eval", *map(str, range(5000, 5041))])
    assert scan.returncode == 0 and ev.returncode == 0
    by_n = {line.split(",")[0]: line for line in ev.stdout.splitlines()[1:]}
    assert len(by_n) == 41
    scanned = scan.stdout.splitlines()[1:]
    assert len(scanned) == 11  # 5040, then the ten largest excesses
    for line in scanned:
        assert by_n[line.split(",")[0]] == line


def test_robin_extremal_chunks_do_not_change_rows(capsys, monkeypatch):
    args = ["robin-extremal", "--m-max", "8", "--budget", "300"]
    outputs = []
    for chunk in (300, 1, 7):
        monkeypatch.setattr(robinlab.cli, "EXTREMAL_CHUNK", chunk)
        assert main(args) == 0
        outputs.append(capsys.readouterr().out)
    assert len(outputs[0].splitlines()) == 301
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    log_n = [float(line.split(",")[0]) for line in outputs[0].splitlines()[1:]]
    assert log_n == sorted(log_n)  # the walk's heap key is the printed log n


_COLUMNS = [
    [0, -7, 2**70, 12, 5],
    [0.0, -0.0, 1e-300, math.pi, float("inf")],
    [True, False, False, True, True],
    ["4 2 1", "normal", "", " lead", "x y"],
    [1, 2.5, True, "x y", np.float64(0.1)],  # mixed: fmt_value per value
]
# string columns the csv module quotes (or, for a lone empty field, writes as "")
_NEEDS_CSV = ["a,b", 'say "hi"', "line\nbreak", "cr\r"]


def _rows_and_columns(fmt, columns):
    names = [f"c{i}" for i in range(len(columns))]
    by_row, by_column = io.StringIO(), io.StringIO()
    rows = RowSink(by_row, fmt, names)
    for row in zip(*columns):
        rows.write(list(row))
    rows.finish()
    cols = RowSink(by_column, fmt, names)
    cols.write_columns(columns)
    cols.finish()
    return by_row.getvalue(), by_column.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_columns_equals_row_writes(fmt):
    cases = [_COLUMNS, [c[:0] for c in _COLUMNS], [["only", ""]], [[""] * 3]]
    cases += [[c[:1] for c in _COLUMNS] + [[special]] for special in _NEEDS_CSV]
    for columns in cases:
        by_row, by_column = _rows_and_columns(fmt, columns)
        assert by_column == by_row, columns
    with pytest.raises(ValueError):
        RowSink(io.StringIO(), fmt, ["a", "b"]).write_columns([[1, 2], [3]])
    with pytest.raises(ValueError):
        RowSink(io.StringIO(), fmt, ["a", "b"]).write_columns([[1, 2]])


def _array_columns(rows, text):
    rng = np.random.default_rng(rows)
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    floats[: min(rows, 4)] = [-0.0, math.inf, math.nan, 5e-324][: min(rows, 4)]
    columns = [rng.integers(-2**62, 2**62, rows), floats, rng.random(rows) < 0.5]
    if text:  # the csv module quotes a chunk with a comma or a quote in it
        columns.append(np.array([["plain", "a,b", 'say "hi"', ""][i % 4] for i in range(rows)]))
    return columns


@pytest.mark.parametrize("fmt, text", [("csv", False), ("csv", True), ("json", True)])
def test_write_columns_of_arrays_equals_row_writes(fmt, text):
    chunk = robinlab.cli.WRITE_CHUNK
    for rows in (0, 1, chunk, chunk + 1):
        columns = _array_columns(rows, text)
        names = [f"c{i}" for i in range(len(columns))]
        by_row, by_column = io.StringIO(), io.StringIO()
        sink = RowSink(by_row, fmt, names)
        for row in zip(*[c.tolist() for c in columns]):
            sink.write(list(row))
        sink.finish()
        sink = RowSink(by_column, fmt, names)
        sink.write_columns(columns)
        sink.finish()
        assert by_column.getvalue() == by_row.getvalue(), (fmt, text, rows)


def _written(command, rows):
    out = io.StringIO()
    sink = RowSink(out, "csv", robinlab.cli.CSV_HEADERS[command])
    for row in rows:
        sink.write(row)
    sink.finish()
    return out.getvalue()


def test_dense_runs_equal_one_shot_rows(capsys, monkeypatch):
    table = primes_up_to(20_000)
    primes = table.primes
    segments = robinlab.primes.prime_segments
    monkeypatch.setattr(robinlab.primes, "prime_segments",
                        lambda lo, hi, **kw: segments(lo, hi, **{**kw, "segment_size": 100}))
    monkeypatch.setattr(robinlab.cli, "WRITE_CHUNK", 97)

    want = []
    for m in range(1, 301):
        for k in (1, 3):
            v = product_condition(m, k, table=table)
            want.append([m, table.nth(m), k, v.lhs_log, v.rhs_log, v.holds])
    assert main(["condition7", "--m-max", "300", "--k", "1,3", "--checkpoint-every", "1"]) == 0
    assert capsys.readouterr().out == _written("condition7", want)

    terms = gap_terms(primes)
    sums = prefix_sums(terms)
    columns = [primes[:-1], np.diff(primes), terms, sums, np.maximum.accumulate(sums)]
    want = [[n, *row] for n, row in enumerate(zip(*[c.tolist() for c in columns]), start=1)]
    assert main(["gap-series", "--limit", "20000", "--checkpoint-every", "1"]) == 0
    assert capsys.readouterr().out == _written("gap-series", want)

    lp = np.log(primes)
    theta = prefix_sums(lp)
    c_needed = (theta - primes) / (np.sqrt(primes) * lp * lp)
    for c0 in (0.0, -0.4):  # never fails, and fails first past p = 2
        at = set(range(6, primes.size, 7)) | {primes.size - 1}
        if (c_needed > c0).any():
            at.add(int(np.argmax(c_needed > c0)))
        want = [[int(primes[i]), float(theta[i]), float(c_needed[i]), bool(c_needed[i] <= c0)] for i in sorted(at)]
        assert main(["theta-check", "--limit", "20000", "--c0", str(c0), "--checkpoint-every", "7"]) == 0
        assert capsys.readouterr().out == _written("theta-check", want), c0


def test_robin_eval_rejects_unit(run_cli):
    cp = run_cli(["robin-eval", "1"])
    assert cp.returncode == 2
    assert cp.stderr.startswith("error:")


def test_robin_eval_rejects_sigma_past_64_bits(capsys):
    # 2**64 - 2 is even, so sigma(n) >= 1.5 n passes 2**64 while n does not
    assert main(["robin-eval", "5040", str(2**64 - 2)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: sigma(n) leaves 64 bits\n"


def _semiprimes(seed, count):
    """count products of a 31-bit and a 32-bit prime: the slowest n to factor."""
    rng = random.Random(seed)

    def prime(bits):
        while True:
            c = rng.getrandbits(bits - 1) | (1 << (bits - 1)) | 1
            if is_prime(c):
                return c

    return [prime(31) * prime(32) for _ in range(count)]


def test_robin_eval_rows_do_not_depend_on_workers(run_cli, capsys, monkeypatch):
    # the subprocess splits its rho work over this machine's CPUs; the
    # timeout also catches a pool that never returns
    rng = random.Random(15)
    ns = _semiprimes(15, 4) + [(1 << 60) + rng.getrandbits(60) for _ in range(20)] + [5040, 5041]
    rng.shuffle(ns)
    args = ["robin-eval", *map(str, ns)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(args) == 0
    serial = capsys.readouterr().out
    assert len(serial.splitlines()) == len(ns) + 1
    cp = run_cli(args, timeout=60)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == serial


def test_robin_eval_rejects_bad_n_before_any_pool(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was built")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    for bad in ("0", str(2**64)):
        for ns in (["5"], list(map(str, _semiprimes(16, 2)))):
            assert main(["robin-eval", *ns, bad]) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.startswith(f"error: factorize needs 1 <= n < 2**64, got {bad}")


def test_robin_eval_small_cofactors_run_in_process(capsys, monkeypatch):
    # 1022117 = 1009 * 1013 and 1034273 = 1013 * 1021: rho splits them in
    # microseconds, far less than a pool costs to start
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was built")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    assert main(["robin-eval", "1022117", "1034273"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["1022117", "1024140"], ["1034273", "1036308"]]


def test_cli_import_leaves_multiprocessing_unloaded():
    code = "import sys, robinlab.cli; print('multiprocessing' in sys.modules)"
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "False\n"


def test_robin_scan_classic_range(run_cli):
    cp = run_cli(["robin-scan", "--lo", "3", "--hi", "5040"])
    assert cp.returncode == 0
    lines = cp.stdout.splitlines()
    data = lines[1:]
    # 26 violators ascending, then the 10 largest-delta rows (all violators here)
    assert len(data) == 36
    assert all(line.endswith(",true") for line in data)
    assert data[0].startswith("3,")
    assert data[25].startswith("5040,19344,")
    assert "robin-scan: last violator n=5040" in cp.stderr


def test_robin_scan_nothing_above_5040(run_cli):
    cp = run_cli(["robin-scan", "--lo", "5041", "--hi", "100000"])
    assert cp.returncode == 0
    lines = cp.stdout.splitlines()
    assert len(lines) == 11  # header + 10 top rows
    assert not any(",true" in line for line in lines)
    assert "violators=0" in cp.stderr


def test_robin_extremal_single_prime(run_cli):
    cp = run_cli(["robin-extremal", "--m-max", "1", "--budget", "3"])
    assert cp.returncode == 0
    lines = cp.stdout.splitlines()
    assert lines[0] == "log_n,exponents,sigma_ratio,bound_ratio,delta,violates,special"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[1] for r in rows] == ["1", "2", "3"]  # 2, 4, 8
    for r, n in zip(rows, (2, 4, 8)):
        assert math.isclose(float(r[0]), math.log(n), rel_tol=1e-15)
        assert r[5] == "true"
    assert rows[0][6] == "loglog_nonpositive"
    assert rows[1][6] == "normal"


def test_condition7_rows_and_footers(run_cli):
    cp = run_cli(["condition7", "--m-max", "3", "--k", "1"])
    assert cp.returncode == 0
    lines = cp.stdout.splitlines()
    assert lines[0] == "m,p_m,k,lhs_log,rhs_log,holds"
    assert len(lines) == 4
    assert lines[1].endswith(",false") and lines[3].endswith(",true")
    m, p_m, k, lhs, rhs, holds = lines[3].split(",")
    assert (m, p_m, k, holds) == ("3", "5", "1", "true")
    assert math.isclose(float(lhs), 0.8754687373539001, rel_tol=1e-15)
    assert math.isclose(float(rhs), 1.0531006602286435, rel_tol=1e-15)
    assert "condition7: k=1 first holds at m=3" in cp.stderr
    assert "deviation=0.26865517975367603" in cp.stderr


def test_condition7_says_where_the_condition_holds_from(capsys):
    assert main(["condition7", "--m-max", "100", "--k", "1,4,5", "--checkpoint-every", "100"]) == 0
    assert capsys.readouterr().err.splitlines()[:3] == [
        "# condition7: k=1 first holds at m=3; holds on [3, 100]",
        "# condition7: k=4 first holds at m=17, fails again at 2 m, last at m=21; holds on [22, 100]",
        "# condition7: k=5 first holds at m=35, fails again at 4 m, last at m=46; holds on [47, 100]",
    ]
    assert main(["condition7", "--m-max", "42", "--k", "5,6"]) == 0
    assert capsys.readouterr().err.splitlines()[:2] == [
        "# condition7: k=5 first holds at m=35, fails again at 2 m, last at m=42",
        "# condition7: k=6 never holds for m <= 42",
    ]


def test_zeta_row(run_cli):
    cp = run_cli(["zeta", "--k", "1", "--m", "4"])
    assert cp.returncode == 0
    assert cp.stdout.splitlines()[1] == (
        "1,4,7,1.5950520833333324,2.1225552628554754,0.52750317952214298")


def test_gap_series_row_and_footer(run_cli):
    cp = run_cli(["gap-series", "--limit", "5"])
    assert cp.returncode == 0
    lines = cp.stdout.splitlines()
    assert lines[0] == "n,p_n,gap,term,partial_sum,running_sup"
    assert lines[1] == "2,3,2,-0.43118346730363438,-0.88279414132724465,-0.45161067402361027"
    assert ("gap-series: limit=5 n=2 partial_sum=-0.88279414132724465 "
            "running_sup=-0.45161067402361027 sup_at=1") in cp.stderr


def test_gap_series_checkpoint_cadence(run_cli):
    cp = run_cli(["gap-series", "--limit", "100", "--checkpoint-every", "10"])
    ns = [line.split(",")[0] for line in cp.stdout.splitlines()[1:]]
    assert ns == ["10", "20", "24"]


def test_json_output(run_cli):
    cp = run_cli(["gap-series", "--limit", "100", "--checkpoint-every", "5",
                  "--format", "json"])
    assert cp.returncode == 0
    rows = json.loads(cp.stdout)
    assert [r["n"] for r in rows] == [5, 10, 15, 20, 24]
    assert set(rows[0]) == {"n", "p_n", "gap", "term", "partial_sum", "running_sup"}
    assert math.isclose(rows[-1]["partial_sum"], -1.319914033672075, rel_tol=1e-14)


def test_json_booleans_and_ints(run_cli):
    cp = run_cli(["robin-eval", "5040", "5041", "--format", "json"])
    rows = json.loads(cp.stdout)
    assert rows[0]["violates"] is True and rows[1]["violates"] is False
    assert rows[0]["n"] == 5040 and rows[0]["sigma"] == 19344


def test_out_file_matches_stdout(run_cli, tmp_path):
    path = tmp_path / "rows.csv"
    direct = run_cli(["gap-series", "--limit", "5"])
    routed = run_cli(["gap-series", "--limit", "5", "--out", str(path)])
    assert routed.returncode == 0
    assert routed.stdout == ""
    assert path.read_text() == direct.stdout


def test_reruns_never_change_output(run_cli):
    args = ["condition7", "--m-max", "50", "--k", "1,2"]
    one = run_cli(args)
    two = run_cli(args)
    assert one.stdout == two.stdout
    assert one.stderr == two.stderr


def test_bad_configs_exit_2(run_cli):
    cases = [
        ["primes", "--limit", "100", "--segment-size", "1000"],
        ["primes", "--limit", "100", "--checkpoint-every", "0"],
        ["theta-check", "--limit", "100", "--c0", "1", "--c0-source", "series_sup"],
        ["theta-check", "--limit", "100", "--c0-source", "explicit"],
    ]
    for args in cases:
        cp = run_cli(args)
        assert cp.returncode == 2, args
        assert cp.stderr.startswith("error:"), args
    cp = run_cli(["primes", "--limit", "100", "--format", "xml"])
    assert cp.returncode == 2
    assert "invalid choice" in cp.stderr
    cp = run_cli(["primes", "--limit", "100", "--threads", "0"])  # no such option
    assert cp.returncode == 2
    assert "unrecognized arguments: --threads 0" in cp.stderr


@pytest.mark.parametrize("args", [
    ["condition7", "--m-max", "0", "--k", "1"],
    ["gap-series", "--limit", "2"],
    ["robin-extremal", "--m-max", "0", "--budget", "5"],
])
def test_rejected_input_prints_no_header(capsys, args):
    assert main(args) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:")


def test_zero_row_run_prints_header(capsys):
    assert main(["primes", "--limit", "1"]) == 0
    assert capsys.readouterr().out == "n,p_n\n"


def test_memory_budget_env(run_cli):
    cp = run_cli(["primes", "--limit", "10000000"],
                 env_extra={"ROBINLAB_MEM_BUDGET_MB": "1"})
    assert cp.returncode == 2
    assert "budget" in cp.stderr
    assert cp.stdout == ""


def test_gap_series_fits_a_budget_of_one_segment(run_cli, table7, row_log):
    # the prefix sums over the whole table below 1e7 alone need 15.9 MB
    assert PREFIX_BYTES_PER_TERM * 664_578 > 8 << 20
    cp = run_cli(["gap-series", "--preset", "paper45"], env_extra={"ROBINLAB_MEM_BUDGET_MB": "8"})
    assert cp.returncode == 0, cp.stderr
    # the default run's rows, from the table path of the same scan
    out = io.StringIO()
    sink = RowSink(out, "csv", robinlab.cli.CSV_HEADERS["gap-series"])
    checkpoints = row_log("gap-series")
    series_scan(10_000_000, checkpoint_every=100_000, table=table7, on_rows=checkpoints)
    for row in checkpoints:
        sink.write(list(row))
    assert cp.stdout == out.getvalue()


def test_theta_check_explicit_c0(run_cli):
    cp = run_cli(["theta-check", "--limit", "100", "--c0", "1"])
    assert cp.returncode == 0
    assert "theta-check: c0=1 explicit" in cp.stderr
    assert "all_satisfied=true" in cp.stderr
    assert "max_c_needed=-0.045290683533358335 at p=73" in cp.stderr
    lines = cp.stdout.splitlines()
    assert lines[0] == "p_n,theta,c_needed,satisfied"
    assert len(lines) == 2 and lines[1].startswith("97,")


def test_theta_check_series_sup_default(run_cli):
    cp = run_cli(["theta-check", "--limit", "100"])
    assert cp.returncode == 0
    assert "c0=-0.45161067402361027 from series running sup" in cp.stderr
    assert "all_satisfied=false" in cp.stderr
    assert "first failure at p=5" in cp.stderr
    failing = [line for line in cp.stdout.splitlines()[1:] if line.startswith("5,")]
    assert len(failing) == 1 and failing[0].endswith(",false")


def test_near_tie_warnings_use_hash_channel(capsys, monkeypatch):
    args = ["robin-scan", "--lo", "3", "--hi", "200"]
    assert main(args) == 0
    plain = capsys.readouterr()
    monkeypatch.setattr(robinlab.robin, "NEAR_TIE_BAND", 10.0)
    assert main(args) == 0
    flagged = capsys.readouterr()
    assert flagged.out == plain.out
    assert "values within 10 of the bound" in flagged.err
    lines = flagged.err.splitlines()
    assert len(lines) > len(plain.err.splitlines())
    assert all(line.startswith("# ") for line in lines), lines


def test_robin_scan_far_window_within_default_budget(run_cli):
    # a window ending at 1e9 sieves only itself; a table up to hi would need 8 GB
    cp = run_cli(["robin-scan", "--lo", "999900000", "--hi", "1000000000"],
                 env_extra={"ROBINLAB_MEM_BUDGET_MB": ""})
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.splitlines()
    assert lines[0] == "n,sigma,sigma_ratio,bound_ratio,delta,violates"
    assert len(lines) == 11  # no violators, ten top rows
    for line in lines[1:]:
        n, sigma = (int(v) for v in line.split(",")[:2])
        assert 999_900_000 <= n <= 1_000_000_000
        assert sigma == sigma_of(factorize(n)), n
