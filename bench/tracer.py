"""Traced robinlab CLI run: spans around each layer's public functions.

Run as a child process by run.py:

    python3 bench/tracer.py SPANS_PATH ARGV...

It wraps the public functions as they are bound in robinlab.cli,
robinlab.robin, robinlab.euler_products and robinlab.gap_series, runs
robinlab.cli.main(ARGV) in this process, keeps every span in memory and
writes them to SPANS_PATH as JSON when main returns. Because the wrappers
replace module bindings, internal calls such as scan_range -> sigma_sieve or
condition_sweep -> table_for_count are caught too. Nothing under src/ is
changed. run.py turns the spans into per-layer metrics with layer_metrics().
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# module attribute -> names to wrap there; robin_check and factorize are
# bound only in cli, table_for_count is re-bound in four modules
WRAPPED = {
    "robinlab.cli": ("factorize", "sigma_sieve", "condition_sweep", "series_scan",
                     "theta_inequality_check", "primes_up_to", "table_for_count",
                     "robin_check", "scan_range"),
    "robinlab.robin": ("sigma_sieve", "table_for_count"),
    "robinlab.euler_products": ("table_for_count",),
    "robinlab.gap_series": ("primes_up_to", "table_for_count"),
}
GENERATORS = {"robinlab.cli": ("extremal_candidates",)}


def _layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """In-memory span recorder. A span is [name_id, start_ns, end_ns, parent]."""

    def __init__(self) -> None:
        self.names: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._wrapped: dict[object, object] = {}

    def _name_id(self, name: str) -> int:
        return self.names.setdefault(name, len(self.names))

    def _open(self, nid: int) -> int:
        idx = len(self.spans)
        self.spans.append([nid, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter_ns()

    def wrap(self, fn, name: str | None = None):
        if fn in self._wrapped:
            return self._wrapped[fn]
        name = name or _layer_name(fn)
        nid = self._name_id(name)
        count = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        self._wrapped[fn] = traced
        return traced

    def wrap_generator(self, fn):
        """Each span covers one next() of the generator, not the consumer's work."""
        name = _layer_name(fn)
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.counts["robin.candidates"] += 1
                yield item

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": list(self.names), "counts": dict(self.counts), "spans": self.spans}, fh)


def _count_scan(counts, args, kwargs, result) -> None:
    lo, hi = args[0], args[1]
    start = max(lo, 3)
    if kwargs.get("odd_only") and start % 2 == 0:
        start += 1
    step = 2 if kwargs.get("odd_only") else 1
    counts["robin.scan_n"] += max(0, (hi - start) // step + 1)
    counts["robin.violators"] += len(result.violator_rows)
    counts["robin.near_ties"] += len(result.near_ties)


def _count_primes(counts, args, kwargs, result) -> None:
    counts["primes.primes_emitted"] += result.count


def _count_sweep(counts, args, kwargs, result) -> None:
    counts["euler_products.prime_k_steps"] += args[0] * len(args[1])


_COUNTERS = {
    "robin.scan_range": _count_scan,
    "primes.primes_up_to": _count_primes,
    "primes.table_for_count": _count_primes,
    "arithmetic.sigma_sieve": lambda c, a, k, r: c.update({"arithmetic.sigma_table_bytes": 8 * (r.limit + 1)}),
    "gap_series.series_scan": lambda c, a, k, r: c.update({"gap_series.terms": r.n}),
    "euler_products.condition_sweep": _count_sweep,
}


def install(tracer: Tracer):
    """Replace the module bindings listed above; returns the traced cli.main."""
    import importlib

    for mod_name, attrs in WRAPPED.items():
        mod = importlib.import_module(mod_name)
        for attr in attrs:
            setattr(mod, attr, tracer.wrap(getattr(mod, attr)))
    for mod_name, attrs in GENERATORS.items():
        mod = importlib.import_module(mod_name)
        for attr in attrs:
            setattr(mod, attr, tracer.wrap_generator(getattr(mod, attr)))
    cli = importlib.import_module("robinlab.cli")
    cli.RowSink.write = tracer.wrap(cli.RowSink.write, "cli.RowSink.write")
    cli.RowSink.finish = tracer.wrap(cli.RowSink.finish, "cli.RowSink.finish")
    return tracer.wrap(cli.main, "cli.main")


def layer_metrics(trace: dict) -> tuple[dict[str, float], list[float]]:
    """Per-layer times and counts of one traced command, from its spans.

    Also returns each factorize call's duration in microseconds. Self time
    is a span's duration minus its direct children's durations; spans come
    from one thread, so children never overlap.
    """
    names = trace["names"]
    spans = trace["spans"]
    child = [0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    factorize_us: list[float] = []
    sweep_rows = 0
    for i, (nid, start, end, parent) in enumerate(spans):
        name = names[nid]
        self_s[name] += (end - start - child[i]) / 1e9
        calls[name] += 1
        if name == "arithmetic.factorize":
            factorize_us.append((end - start) / 1e3)
        elif name == "cli.RowSink.write" and parent >= 0 and names[spans[parent][0]] == "euler_products.condition_sweep":
            sweep_rows += 1
    counts = trace["counts"]

    def prefixed(prefix: str, table) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))

    out = {
        "primes.sieve_s": prefixed("primes.", self_s),
        "primes.sieve_calls": prefixed("primes.", calls),
        "primes.primes_emitted": counts.get("primes.primes_emitted", 0),
        "arithmetic.sigma_sieve_s": self_s["arithmetic.sigma_sieve"],
        "arithmetic.sigma_table_mb": counts.get("arithmetic.sigma_table_bytes", 0) / 1e6,
        "arithmetic.factorize_s": sum(factorize_us) / 1e6,
        "arithmetic.factorize_calls": len(factorize_us),
        "robin.scan_range_self_s": self_s["robin.scan_range"],
        "robin.scan_n": counts.get("robin.scan_n", 0),
        "robin.violators": counts.get("robin.violators", 0),
        "robin.near_ties": counts.get("robin.near_ties", 0),
        "robin.extremal_walk_s": self_s["robin.extremal_candidates"],
        "robin.candidates": counts.get("robin.candidates", 0),
        "robin.robin_check_s": self_s["robin.robin_check"],
        "robin.robin_check_calls": calls["robin.robin_check"],
        "gap_series.series_scan_s": self_s["gap_series.series_scan"],
        "gap_series.theta_inequality_check_s": self_s["gap_series.theta_inequality_check"],
        "gap_series.terms": counts.get("gap_series.terms", 0),
        "euler_products.condition_sweep_s": self_s["euler_products.condition_sweep"],
        "euler_products.prime_k_steps": counts.get("euler_products.prime_k_steps", 0),
        "euler_products.rows": sweep_rows,
        "cli.self_s": prefixed("cli.", self_s),
        "cli.rows": calls["cli.RowSink.write"],
    }
    return out, factorize_us


def factorize_percentiles(samples_us: list[float]) -> tuple[float, float]:
    """Median and 99th percentile of per-call factorize time, in microseconds."""
    if len(samples_us) < 2:
        return (samples_us[0], samples_us[0]) if samples_us else (0.0, 0.0)
    q = statistics.quantiles(samples_us, n=100, method="inclusive")
    return q[49], q[98]


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    traced_main = install(tracer)
    try:
        return traced_main(cli_argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
