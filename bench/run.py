"""robinlab benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each command of the workload runs
as its own `python3 -m robinlab.cli` process with src/ on PYTHONPATH, one
after another from this process: a closed loop with one client and the
default --threads 1. The command sequence repeats until S seconds of
command time are measured, and every command's stdout is checked against
the oracles in oracles.py outside the timed region.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
passes with passes whose commands run under tracer.py, and reports the
per-layer metrics. The last stdout line is the result JSON; the line before
it carries the details (machine facts, samples, digests, problems found).
See README.md in this directory for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 9
# median time of a fresh interpreter's `import numpy` on the baseline VM of README.md
NUMPY_IMPORT_NOMINAL_S = 0.124
WORKLOADS = ("divisor-scan", "prime-series", "pointwise")
# the ReferenceProbe each workload's *_x metrics are measured in
PROBE_KIND = {"divisor-scan": "numpy", "prime-series": "python", "pointwise": "python"}
# command -> the metric name its wall time is reported under with --trace 1
COMMAND_METRICS = {
    "robin-scan": "robin_scan_s",
    "gap-series": "gap_series_s",
    "theta-check": "theta_check_s",
    "condition7": "condition7_s",
    "robin-eval": "robin_eval_s",
    "robin-extremal": "robin_extremal_s",
}
SCAN_HI = 10_000_000
SERIES_LIMIT = 10_000_000
SERIES_EVERY = 100_000
SWEEP_M, SWEEP_KS = 664_579, [1, 2, 3, 4, 5]
EXTREMAL_M, EXTREMAL_BUDGET = 200, 20_000
POINTWISE_BATCHES = 4


def pointwise_inputs(seed: int, batch: int) -> tuple[list[int], dict[int, int]]:
    """1000 n uniform in [2^60, 2^61) and 50 products of a 31-bit and a 32-bit prime, shuffled.

    sigma(n)/n < 6.9 below 2^61 (Robin's unconditional bound), so every
    uniform n keeps sigma(n) below 2^64, the CLI's exact-integer limit.
    Also returns sigma of each semiprime p*q, (p+1)*(q+1), known by construction.
    """
    import sympy

    rng = random.Random(f"pointwise:{seed}:{batch}")
    ns = [(1 << 60) + rng.getrandbits(60) for _ in range(1000)]

    def prime(bits: int) -> int:
        while True:
            c = rng.getrandbits(bits - 1) | (1 << (bits - 1)) | 1
            if sympy.isprime(c):
                return c

    known = {}
    for _ in range(50):
        p, q = prime(31), prime(32)
        known[p * q] = (p + 1) * (q + 1)
        ns.append(p * q)
    rng.shuffle(ns)
    return ns, known


@dataclass
class Step:
    command: str
    argv: list[str]
    check: Callable[[str], list[str]]

    @property
    def inputs_sha256(self) -> str:
        return _sha256(" ".join(self.argv))


class Workload:
    """The command sequence of one pass, with an oracle for each command.

    divisor-scan and prime-series run fixed inputs. pointwise cycles through
    POINTWISE_BATCHES robin-eval batches drawn from the seeded stream:
    factorize cost is heavy-tailed, so with one batch per run its time would
    be a property of the seed more than of the code. Oracle set-up is paid
    here, outside the timed region.
    """

    def __init__(self, name: str, seed: int) -> None:
        import oracles

        self.name, self.seed = name, seed
        self._batches: dict[int, Step] = {}
        if name == "divisor-scan":
            self.fixed = [Step("robin-scan", ["robin-scan", "--lo", "3", "--hi", str(SCAN_HI)],
                               oracles.robin_scan_checker(SCAN_HI))]
        elif name == "prime-series":
            series = oracles.PrimeSeries(SERIES_LIMIT, SERIES_EVERY)
            sweep_ks = ",".join(map(str, SWEEP_KS))
            self.fixed = [
                Step("gap-series", ["gap-series", "--preset", "paper45"], series.gap_series),
                Step("theta-check", ["theta-check", "--limit", str(SERIES_LIMIT), "--c0-source", "series_sup"],
                     series.theta_check),
                Step("condition7", ["condition7", "--m-max", str(SWEEP_M), "--k", sweep_ks,
                                    "--checkpoint-every", str(SERIES_EVERY)],
                     lambda text: series.condition7(text, SWEEP_M, SWEEP_KS)),
            ]
        else:
            self.fixed = [Step("robin-extremal", ["robin-extremal", "--m-max", str(EXTREMAL_M),
                                                  "--budget", str(EXTREMAL_BUDGET)],
                               oracles.robin_extremal_checker(EXTREMAL_M, EXTREMAL_BUDGET))]

    def steps(self, pass_index: int) -> list[Step]:
        if self.name != "pointwise":
            return self.fixed
        batch = pass_index % POINTWISE_BATCHES
        if batch not in self._batches:
            import oracles

            ns, known = pointwise_inputs(self.seed, batch)
            self._batches[batch] = Step("robin-eval", ["robin-eval", *map(str, ns)],
                                        oracles.robin_eval_checker(ns, known))
        return [self._batches[batch], *self.fixed]


def _sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


@dataclass
class CommandRun:
    command: str
    inputs_sha256: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    stderr_tail: str
    trace: dict | None = None
    probe_s: float = 0.0  # mean of the reference timings just before and after


class ReferenceProbe:
    """A fixed computation timed on this CPU between commands.

    A shared host's CPU throughput can drift by 1.5x over tens of seconds,
    for every process at once, so raw times vary more between runs than any
    bound worth having. Dividing each command's time by this probe's, taken
    right before and after it, cancels much of that drift: the *_x metrics
    are command time in units of the probe. The probe matches what the
    workload spends its time on: a Python integer loop for the interpreter-
    bound workloads, or numpy streaming over 2 x 100 MB for divisor-scan,
    whose sieve and scan are memory-bound. It imports nothing from robinlab,
    so no change to the program can move it.
    """

    def __init__(self, kind: str) -> None:
        import numpy as np

        self.kind = kind
        if kind == "numpy":
            self._multiply = np.multiply
            self._src = np.ones(12_500_000)
            self._dst = np.empty_like(self._src)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        if self.kind == "python":
            acc = 0
            for i in range(2_000_000):
                acc += i * i
        else:
            for _ in range(6):
                self._multiply(self._src, 2.0, out=self._dst)
        return time.perf_counter() - t0


class Launcher:
    """Client of launcher.py, which spawns every timed command for this process."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._proc = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)

    def run(self, argv: list[str]) -> tuple[dict, bytes, str]:
        """Run argv to completion; returns the launcher's reply, stdout and stderr."""
        out, err = OUT / "stdout.bin", OUT / "stderr.txt"
        self._proc.stdin.write(json.dumps({"argv": argv, "stdout": str(out), "stderr": str(err)}) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        return json.loads(line), out.read_bytes(), err.read_text(errors="replace")

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()


def run_command(launcher: Launcher, step: Step, traced: bool) -> CommandRun:
    """One CLI process; wall from spawn to reap, cpu and peak RSS from its rusage."""
    spans_path = OUT / "spans.json"
    if traced:
        spans_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), *step.argv]
    else:
        argv = [sys.executable, "-m", "robinlab.cli", *step.argv]
    reply, out, err = launcher.run(argv)
    trace = json.loads(spans_path.read_text()) if traced and reply["returncode"] == 0 else None
    return CommandRun(step.command, step.inputs_sha256, reply["wall_s"], reply["cpu_s"],
                      reply["maxrss_kb"] * 1024 / 1e6, reply["returncode"], out, err[-2000:], trace)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # (command, inputs digest) -> stdout digests seen
    digests: dict[tuple[str, str], set] = field(default_factory=dict)
    # (command, inputs digest, stdout digest) -> what the oracle found; the
    # same bytes for the same inputs are not checked twice
    verdicts: dict[tuple[str, str, str], list[str]] = field(default_factory=dict)

    def check(self, run: CommandRun, step: Step) -> None:
        """Oracle check of one command, outside any timed region."""
        self.attempted += 1
        key = (run.command, run.inputs_sha256, _sha256(run.stdout))
        self.digests.setdefault(key[:2], set()).add(key[2])
        if run.returncode != 0:
            found = [f"exit code {run.returncode}: {run.stderr_tail.strip()[-500:]}"]
        elif key in self.verdicts:
            found = self.verdicts[key]
        else:
            try:
                found = step.check(run.stdout.decode())
            except (ValueError, IndexError, KeyError) as exc:
                found = [f"unparseable output: {exc!r}"]
            self.verdicts[key] = found
        if found:
            self.failed += 1
            self.problems.extend(f"{run.command}: {msg}" for msg in found[:5])


def run_pass(launcher: Launcher, probe: ReferenceProbe, workload: Workload, index: int, tally: Tally,
             traced: bool) -> list[CommandRun]:
    runs = []
    before = probe()
    for step in workload.steps(index):
        run = run_command(launcher, step, traced)
        after = probe()
        run.probe_s = (before + after) / 2
        before = after
        tally.check(run, step)
        runs.append(run)
    return runs


def setup_seconds(launcher: Launcher) -> dict[str, list[float]]:
    """Fresh interpreter until `import robinlab.cli` returns, at the baseline VM's speed.

    The child prints the monotonic clock, which is system-wide, right after
    the import; the launcher's spawn time is subtracted from it. Import time
    drifts with the host by up to 1.5x from one run to the next, so each
    sample is bracketed by a fresh interpreter that imports only numpy, timed
    the same way. setup_s is a sample's ratio to the mean of its two brackets,
    times NUMPY_IMPORT_NOMINAL_S: seconds on the baseline VM. The raw series
    are returned too.
    """

    def timed_import(module: str) -> float:
        code = f"import {module}, time; print(repr(time.perf_counter()))"
        reply, out, err = launcher.run([sys.executable, "-c", code])
        if reply["returncode"] != 0:
            raise RuntimeError(f"importing {module} failed: {err[-500:]}")
        return float(out) - reply["t0"]

    raw, numpy_s = [], [timed_import("numpy")]
    for _ in range(SETUP_SAMPLES):
        raw.append(timed_import("robinlab.cli"))
        numpy_s.append(timed_import("numpy"))
    scaled = [s / ((a + b) / 2) * NUMPY_IMPORT_NOMINAL_S for s, a, b in zip(raw, numpy_s, numpy_s[1:])]
    return {"setup_s": scaled, "setup_raw_s": raw, "numpy_import_s": numpy_s}


def machine_facts() -> dict:
    import numpy
    from numpy._core import _multiarray_umath as umath
    features = getattr(umath, "__cpu_features__", {})
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_dispatch_active": [t for t in getattr(umath, "__cpu_dispatch__", []) if features.get(t)],
        "cpu_baseline": list(getattr(umath, "__cpu_baseline__", [])),
        "caches": caches,
    }


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "q1": q[0], "median": statistics.median(values), "q3": q[2], "values": values}


def stdout_report(tally: Tally) -> dict:
    """stdout digest per command and input, and whether it moved since the seed commit.

    The reference table holds digests recorded at the seed commit for the
    fixed-input commands; a robin-eval batch has no reference (null).
    """
    refs = json.loads((BENCH / "reference_digests.json").read_text())
    report: dict[str, list] = {}
    for (command, inputs), seen in sorted(tally.digests.items()):
        ref = refs.get(command, {}).get(inputs)
        report.setdefault(command, []).append({
            "inputs_sha256": inputs,
            "stdout_sha256": sorted(seen),
            "repeatable": len(seen) == 1,
            "changed_since_seed_commit": None if ref is None else sorted(seen) != [ref],
        })
    return report


def end_to_end(passes: list[list[CommandRun]], setup: dict[str, list[float]], tally: Tally) -> tuple[dict, dict]:
    series = {
        "setup_s": setup["setup_s"],
        "wall_x": [sum(r.wall_s / r.probe_s for r in p) for p in passes],
        "cpu_x": [sum(r.cpu_s / r.probe_s for r in p) for p in passes],
        "first_cmd_x": [p[0].wall_s / p[0].probe_s for p in passes],
        "last_cmd_x": [p[-1].wall_s / p[-1].probe_s for p in passes],
        "peak_rss_mb": [max(r.peak_rss_mb for r in p) for p in passes],
    }
    units = {"setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {k: {"value": statistics.median(v), "unit": units.get(k, "x")} for k, v in series.items()}
    metrics["success_rate"] = {"value": (tally.attempted - tally.failed) / tally.attempted, "unit": "fraction"}
    # the raw figures behind the ratios, for the detail line only
    series["setup_raw_s"] = setup["setup_raw_s"]
    series["numpy_import_s"] = setup["numpy_import_s"]
    series["wall_s"] = [sum(r.wall_s for r in p) for p in passes]
    series["cpu_s"] = [sum(r.cpu_s for r in p) for p in passes]
    series["probe_s"] = [statistics.mean(r.probe_s for r in p) for p in passes]
    return metrics, {k: quartiles(v) for k, v in series.items()}


def _unit(metric: str) -> str:
    for suffix, unit in (("_s", "s"), ("_us", "us"), ("_per_n", "ns"), ("_mb", "MB"), ("_bytes", "bytes")):
        if metric.endswith(suffix):
            return unit
    return "count"


def per_layer(plain: list[list[CommandRun]], traced: list[list[CommandRun]], tally: Tally) -> tuple[dict, dict]:
    """Per-command wall times from the untraced passes, layer metrics from the traced ones."""
    import tracer

    samples: dict[str, list[float]] = {name: [] for name in COMMAND_METRICS.values()}
    for p in plain:
        for run in p:
            samples[COMMAND_METRICS[run.command]].append(run.wall_s)
    layer_series: dict[str, list[float]] = {}
    for p in traced:
        total: dict[str, float] = {"cli.stdout_bytes": 0}
        factorize_us: list[float] = []
        for run in p:
            total["cli.stdout_bytes"] += len(run.stdout)
            if run.trace is None:
                continue
            layers, durations_us = tracer.layer_metrics(run.trace)
            factorize_us += durations_us
            for k, v in layers.items():
                total[k] = total.get(k, 0) + v
        total["arithmetic.factorize_p50_us"], total["arithmetic.factorize_p99_us"] = \
            tracer.factorize_percentiles(factorize_us)
        scan_n = total.get("robin.scan_n", 0)
        total["robin.scan_ns_per_n"] = total.get("robin.scan_range_self_s", 0) * 1e9 / scan_n if scan_n else 0.0
        for k, v in total.items():
            layer_series.setdefault(k, []).append(v)
    consistent = True
    for k, v in layer_series.items():
        # stdout bytes follow the robin-eval batch, which changes from pass to pass
        if _unit(k) in ("count", "MB") and len(set(v)) > 1:
            tally.problems.append(f"count {k} differs between traced passes: {v}")
            consistent = False
    plain_wall = [sum(r.wall_s for r in p) for p in plain]
    traced_wall = [sum(r.wall_s for r in p) for p in traced]
    samples["probe_s"] = [statistics.mean(r.probe_s for r in p) for p in plain]
    metrics = {name: {"value": statistics.median(v) if v else 0.0, "unit": "s"} for name, v in samples.items()}
    for k, v in sorted(layer_series.items()):
        metrics[k] = {"value": statistics.median(v), "unit": _unit(k)}
    metrics["trace.overhead_s"] = {"value": statistics.median(traced_wall) - statistics.median(plain_wall),
                                   "unit": "s"}
    series = {**{k: v for k, v in samples.items() if v}, **layer_series,
              "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall}
    return metrics, {k: quartiles(v) for k, v in series.items()}, consistent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "robinlab" / "cli.py").is_file():
        print(f"error: no robinlab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    # started before numpy and sympy are imported here, so it stays small
    launcher = Launcher()
    try:
        workload = Workload(args.workload, args.seed)
        probe = ReferenceProbe(PROBE_KIND[args.workload])
        # also warms the page cache for the interpreter and numpy before any timed pass
        setup = setup_seconds(launcher)
        tally = Tally()
        plain: list[list[CommandRun]] = []
        traced: list[list[CommandRun]] = []
        # command time only: oracle checks between commands do not use up the budget
        measured = 0.0
        while measured < args.seconds or not plain:
            index = len(plain)
            plain.append(run_pass(launcher, probe, workload, index, tally, traced=False))
            measured += sum(r.wall_s for r in plain[-1])
            if args.trace:
                traced.append(run_pass(launcher, probe, workload, index, tally, traced=True))
                measured += sum(r.wall_s for r in traced[-1])
    finally:
        launcher.close()

    consistent = True
    if args.trace:
        metrics, summary, consistent = per_layer(plain, traced, tally)
        (OUT / f"spans-{args.workload}.json").write_text(json.dumps({r.command: r.trace for r in traced[-1]}))
    else:
        metrics, summary = end_to_end(plain, setup, tally)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine_facts(),
        "passes": len(plain),
        "traced_passes": len(traced),
        "samples": summary,
        "stdout": stdout_report(tally),
        "problems": tally.problems[:50],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": tally.failed == 0 and consistent, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
