"""End-to-end subprocess tests of the command line front end."""
import json
import math

import robinlab.cli
import robinlab.robin
from robinlab.arithmetic import factorize, sigma_of
from robinlab.cli import main

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


def test_robin_eval_rejects_unit(run_cli):
    cp = run_cli(["robin-eval", "1"])
    assert cp.returncode == 2
    assert cp.stderr.startswith("error:")


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


def test_zeta_row(run_cli):
    cp = run_cli(["zeta", "--k", "1", "--m", "4"])
    assert cp.returncode == 0
    assert cp.stdout.splitlines()[1] == (
        "1,4,7,1.5950520833333333,2.1225552628554736,0.52750317952214032")


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


def test_memory_budget_env(run_cli):
    cp = run_cli(["primes", "--limit", "10000000"],
                 env_extra={"ROBINLAB_MEM_BUDGET_MB": "1"})
    assert cp.returncode == 2
    assert "budget" in cp.stderr
    assert cp.stdout == ""


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
