"""Command line front end.

Every subcommand writes machine-readable rows (CSV or JSON) to stdout or
--out, with human summaries on stderr. Floats are serialized at 17
significant digits and all computation orders are fixed, so reruns print
the same bytes. Exit code 0 means the run
completed (violations and failed conditions are data, not errors); exit
code 2 means a configuration or capacity problem.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import logging
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

# factorize, sigma_sieve and robin_check are unused here, but bench/tracer.py
# wraps cli.factorize, cli.sigma_sieve and cli.robin_check by name
from .arithmetic import factorize, factorize_all, sigma_of, sigma_sieve  # noqa: F401
from .errors import CapacityError
from .euler_products import condition_sweep, zeta_enclosure
from .gap_series import (
    DEFAULT_CHECKPOINT_EVERY,
    series_scan,
    theta_inequality_check,
)
from .primes import DEFAULT_SEGMENT_ODDS, _segments, chebyshev_theta, primes_up_to, table_for_count
from .robin import extremal_candidates, robin_check, robin_columns, scan_range  # noqa: F401

PAPER45_LIMIT = 10_000_000
PAPER45_REFERENCE = 1.231
# robin-extremal candidates per robin_columns call and per write_columns
# write: one numpy call per candidate doubles the row time, holding every
# candidate or the whole output at once grows peak memory with --budget
EXTREMAL_CHUNK = 256
# rows that write_columns formats at a time, so a dense run's Python values
# and text stay this small however many rows a segment hands over; larger
# chunks were no faster and cost peak memory
WRITE_CHUNK = 1 << 8

CSV_HEADERS = {
    "primes": ["n", "p_n"],
    "theta": ["x", "theta", "pi_x"],
    "robin-scan": ["n", "sigma", "sigma_ratio", "bound_ratio", "delta", "violates"],
    "robin-eval": ["n", "sigma", "sigma_ratio", "bound_ratio", "delta", "violates"],
    "robin-extremal": ["log_n", "exponents", "sigma_ratio", "bound_ratio", "delta", "violates", "special"],
    "condition7": ["m", "p_m", "k", "lhs_log", "rhs_log", "holds"],
    "zeta": ["k", "m", "p_m", "lo", "hi", "width"],
    "gap-series": ["n", "p_n", "gap", "term", "partial_sum", "running_sup"],
    "theta-check": ["p_n", "theta", "c_needed", "satisfied"],
}


@dataclass
class RunConfig:
    limit: int | None = None
    format: str = "csv"
    segment_size: int = DEFAULT_SEGMENT_ODDS
    checkpoint_every: int | None = None
    output_path: str | None = None

    def validate(self) -> None:
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if self.segment_size < (1 << 16) or self.segment_size & (self.segment_size - 1):
            raise ValueError(f"--segment-size must be a power of two >= 65536, got {self.segment_size}")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError(f"--checkpoint-every must be >= 1, got {self.checkpoint_every}")


def fmt_value(v: object) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def fmt_column(values: Sequence[object]) -> list[str]:
    """[fmt_value(v) for v in values], one pass per column of a single exact type."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return [f"{v:.17g}" for v in values]
    if kinds == {bool}:
        return ["true" if v else "false" for v in values]
    if kinds == {int} or kinds == {str}:
        return list(map(str, values))
    return [fmt_value(v) for v in values]


class RowSink:
    """Writes rows as CSV (with header) or as a JSON array of objects.

    The CSV header, or the JSON array's opening bracket, goes out with the
    first row, or at finish() if there is none, so a command that rejects
    its input before any row prints nothing. Rows are written as they come.
    """

    def __init__(self, stream, fmt: str, columns: Sequence[str]) -> None:
        self.stream = stream
        self.fmt = fmt
        self.columns = list(columns)
        self._csv = csv.writer(stream, lineterminator="\n") if fmt == "csv" else None
        self._started = False

    def _write_header(self) -> None:
        if not self._started:
            self._started = True
            self._csv.writerow(self.columns)

    def write(self, values: Sequence[object]) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"row has {len(values)} fields, header has {len(self.columns)}")
        if self._csv is not None:
            self._write_header()
            self._csv.writerow([fmt_value(v) for v in values])
            return
        fields = []
        for name, v in zip(self.columns, values):
            if isinstance(v, str):
                body = '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
            else:
                body = fmt_value(v)
            fields.append(f'"{name}": {body}')
        self.stream.write((",\n" if self._started else "[\n") + "  {" + ", ".join(fields) + "}")
        self._started = True

    def write_columns(self, columns: Sequence[Sequence[object]]) -> None:
        """The rows zip(*columns), the same bytes as one write per row.

        Columns are numpy arrays or lists, formatted WRITE_CHUNK rows at a
        time; an array's values are those of its tolist(). CSV formats each
        column of a chunk once and writes the chunk in one stream.write.
        The fields are joined as they are unless one of them holds a comma,
        quote or line break; then the csv module quotes them as write does.
        JSON takes the row path.
        """
        rows = len(columns[0]) if columns else 0
        if len(columns) != len(self.columns):
            raise ValueError(f"got {len(columns)} columns, header has {len(self.columns)}")
        if any(len(c) != rows for c in columns):
            raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
        for lo in range(0, rows, WRITE_CHUNK):
            chunk = [c[lo : lo + WRITE_CHUNK] for c in columns]
            chunk = [c.tolist() if isinstance(c, np.ndarray) else c for c in chunk]
            if self._csv is None:
                for row in zip(*chunk):
                    self.write(row)
                continue
            self._write_header()
            size = len(chunk[0])
            texts = [fmt_column(c) for c in chunk]
            body = "".join([",".join(row) + "\n" for row in zip(*texts)])
            if (len(texts) < 2 or '"' in body or "\r" in body or body.count("\n") != size
                    or body.count(",") != size * (len(texts) - 1)):
                buf = io.StringIO()
                csv.writer(buf, lineterminator="\n").writerows(zip(*texts))
                body = buf.getvalue()
            self.stream.write(body)

    def finish(self) -> None:
        if self._csv is not None:
            self._write_header()
        else:
            self.stream.write("\n]\n" if self._started else "[]\n")


def _info(msg: str) -> None:
    print(f"# {msg}", file=sys.stderr)


class _InfoHandler(logging.Handler):
    """Sends robinlab log records to the `#`-prefixed stderr channel.

    Resolves sys.stderr per record, so it follows redirection after setup.
    """

    def emit(self, record: logging.LogRecord) -> None:
        try:
            for line in self.format(record).splitlines():
                _info(line)
        except Exception:
            self.handleError(record)


def _route_logging() -> None:
    logger = logging.getLogger("robinlab")
    if not any(isinstance(h, _InfoHandler) for h in logger.handlers):
        logger.addHandler(_InfoHandler())


@contextmanager
def _open_sink(cfg: RunConfig, command: str) -> Iterator[RowSink]:
    """A RowSink on --out or stdout, finished when the block ends without an exception."""
    to_file = cfg.output_path not in (None, "", "-")
    with open(cfg.output_path, "w", newline="") if to_file else nullcontext(sys.stdout) as stream:
        sink = RowSink(stream, cfg.format, CSV_HEADERS[command])
        yield sink
        sink.finish()


def cmd_primes(cfg: RunConfig) -> int:
    if cfg.limit is None:
        raise ValueError("primes needs --limit")
    count = 0
    with _open_sink(cfg, "primes") as sink:
        for primes, done, rows in _segments(cfg.checkpoint_every or 1, limit=cfg.limit,
                                            segment_size=cfg.segment_size):
            sink.write_columns([done + rows + 1, primes[rows]])
            count = done + primes.size
    _info(f"primes: limit={cfg.limit} count={count}")
    return 0


def cmd_theta(cfg: RunConfig) -> int:
    if cfg.limit is None:
        raise ValueError("theta needs --limit")
    table = primes_up_to(cfg.limit, segment_size=cfg.segment_size)
    rec = chebyshev_theta(cfg.limit, table)
    with _open_sink(cfg, "theta") as sink:
        sink.write([rec.x, rec.theta, rec.pi_x])
    _info(f"theta: x={rec.x} theta={fmt_value(rec.theta)} pi_x={rec.pi_x}")
    return 0


def cmd_robin_scan(cfg: RunConfig, lo: int, hi: int, odd_only: bool) -> int:
    result = scan_range(lo, hi, odd_only=odd_only)
    rows = result.violator_rows + result.top_rows
    with _open_sink(cfg, "robin-scan") as sink:
        # the header names RobinRow's fields
        sink.write_columns([[getattr(row, name) for row in rows] for name in sink.columns])
    _info(f"robin-scan: range=[{lo}, {hi}] odd_only={str(odd_only).lower()} "
          f"violators={len(result.violator_rows)} near_ties={len(result.near_ties)}")
    if result.violator_rows:
        _info(f"robin-scan: last violator n={result.violator_rows[-1].n}")
    return 0


def cmd_robin_eval(cfg: RunConfig, ns: Sequence[int]) -> int:
    fs = factorize_all(ns)
    sigmas = [sigma_of(f) for f in fs]  # each n and sigma(n) below 2**64
    _, _, ratio, bound, delta, violates, _ = robin_columns(fs)
    with _open_sink(cfg, "robin-eval") as sink:
        sink.write_columns([list(ns), sigmas, ratio, bound, delta, violates])
    return 0


def cmd_robin_extremal(cfg: RunConfig, m_max: int, budget: int, exponent_cap: int | None) -> int:
    cands = extremal_candidates(m_max, budget, exponent_cap=exponent_cap)
    with _open_sink(cfg, "robin-extremal") as sink:
        while fs := list(itertools.islice(cands, EXTREMAL_CHUNK)):
            log_n, _, ratio, bound, delta, violates, special = robin_columns(fs)
            exps = [" ".join([str(e) for _, e in f.factors]) for f in fs]
            sink.write_columns([log_n, exps, ratio, bound, delta, violates, special])
    _info(f"robin-extremal: m_max={m_max} budget={budget}")
    return 0


def cmd_condition7(cfg: RunConfig, m_max: int, k_list: Sequence[int]) -> int:
    with _open_sink(cfg, "condition7") as sink:
        # the sweep's last three columns are its cross-check, not printed
        summary = condition_sweep(m_max, k_list, checkpoint_every=cfg.checkpoint_every or 1,
                                  on_rows=lambda columns: sink.write_columns(columns[:6]),
                                  segment_size=cfg.segment_size)
    for k in k_list:
        at, last = summary.first_hold[k], summary.last_failure[k]
        if at is None:
            _info(f"condition7: k={k} never holds for m <= {m_max}")
            continue
        line = f"condition7: k={k} first holds at m={at}"
        if summary.fails_after_hold[k]:
            line += f", fails again at {summary.fails_after_hold[k]} m, last at m={last}"
        if last is None or last < m_max:
            line += f"; holds on [{1 if last is None else last + 1}, {m_max}]"
        _info(line)
    _info(f"condition7: m_max={summary.m_max} p_max={summary.p_max} "
          f"deviation={fmt_value(summary.final_deviation)}")
    return 0


def cmd_zeta(cfg: RunConfig, k: int, m: int) -> int:
    table = table_for_count(m)
    box = zeta_enclosure(k, m, table=table)
    with _open_sink(cfg, "zeta") as sink:
        sink.write([k, m, table.nth(m), box.lo, box.hi, box.width])
    _info(f"zeta: k={k} m={m} enclosure=[{fmt_value(box.lo)}, {fmt_value(box.hi)}]")
    return 0


def cmd_gap_series(cfg: RunConfig, limit: int | None, preset: str | None) -> int:
    if preset == "paper45":
        if limit is not None:
            raise ValueError("--preset paper45 conflicts with --limit")
        limit = PAPER45_LIMIT
    if limit is None:
        raise ValueError("gap-series needs --limit or --preset")
    every = cfg.checkpoint_every or DEFAULT_CHECKPOINT_EVERY
    with _open_sink(cfg, "gap-series") as sink:
        state = series_scan(limit, checkpoint_every=every, on_rows=sink.write_columns,
                            segment_size=cfg.segment_size)
    _info(f"gap-series: limit={limit} n={state.n} partial_sum={fmt_value(state.partial_sum)} "
          f"running_sup={fmt_value(state.running_sup)} sup_at={state.sup_at}")
    if preset == "paper45":
        diff = state.partial_sum - PAPER45_REFERENCE
        _info(f"gap-series: preset=paper45 reference={PAPER45_REFERENCE} "
              f"value={fmt_value(state.partial_sum)} difference={fmt_value(diff)}")
    return 0


def cmd_theta_check(cfg: RunConfig, limit: int, c0_source: str | None, c0: float | None) -> int:
    # --c0 implies an explicit source; naming both only works when they agree
    if c0_source is None:
        c0_source = "explicit" if c0 is not None else "series_sup"
    elif c0_source == "series_sup" and c0 is not None:
        raise ValueError("--c0-source series_sup conflicts with an explicit --c0")
    if c0_source == "series_sup":
        # a first constant-memory pass: the check below needs c0 from its first prime on
        c0 = series_scan(limit, segment_size=cfg.segment_size).running_sup
        _info(f"theta-check: c0={fmt_value(c0)} from series running sup at {limit}")
    else:
        if c0 is None:
            raise ValueError("theta-check with --c0-source explicit needs --c0")
        _info(f"theta-check: c0={fmt_value(c0)} explicit")
    every = cfg.checkpoint_every or DEFAULT_CHECKPOINT_EVERY
    with _open_sink(cfg, "theta-check") as sink:
        result = theta_inequality_check(limit, c0, checkpoint_every=every, on_rows=sink.write_columns,
                                        segment_size=cfg.segment_size)
    _info(f"theta-check: limit={limit} checked={result.checked} "
          f"all_satisfied={str(result.all_satisfied).lower()} "
          f"max_c_needed={fmt_value(result.max_c_needed)} at p={result.max_c_needed_at}")
    if result.first_failure is not None:
        _info(f"theta-check: first failure at p={result.first_failure}")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=["csv", "json"], default="csv")
    sub.add_argument("--segment-size", type=int, default=DEFAULT_SEGMENT_ODDS,
                     help="odd entries per sieve segment, power of two >= 65536")
    sub.add_argument("--checkpoint-every", type=int, default=None)
    sub.add_argument("--out", default=None, help="output path, default stdout")


def _parse_k_list(text: str) -> list[int]:
    try:
        ks = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad k list {text!r}") from exc
    if not ks:
        raise argparse.ArgumentTypeError("k list is empty")
    return ks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robinlab",
                                     description="Divisor-sum bounds, Euler products, prime-gap series")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("primes", help="enumerate primes up to a limit")
    p.add_argument("--limit", type=int, required=True)
    _add_common(p)

    p = commands.add_parser("theta", help="log-weighted prime sum at a point")
    p.add_argument("--limit", type=int, required=True)
    _add_common(p)

    p = commands.add_parser("robin-scan", help="scan a range for divisor bound violations")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--odd-only", action="store_true")
    _add_common(p)

    p = commands.add_parser("robin-eval", help="evaluate the divisor bound at specific n")
    p.add_argument("n", type=int, nargs="+")
    _add_common(p)

    p = commands.add_parser("robin-extremal", help="walk extremal exponent-vector candidates")
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--exponent-cap", type=int, default=None)
    _add_common(p)

    p = commands.add_parser("condition7", help="sweep the finite product condition")
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--k", type=_parse_k_list, required=True, help="comma separated, e.g. 1,2,5")
    _add_common(p)

    p = commands.add_parser("zeta", help="two-sided zeta enclosure from partial Euler products")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)

    p = commands.add_parser("gap-series", help="sum the prime-gap series with checkpoints")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--preset", choices=["paper45"], default=None)
    _add_common(p)

    p = commands.add_parser("theta-check", help="pointwise theta inequality over primes")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--c0", type=float, default=None)
    p.add_argument("--c0-source", choices=["series_sup", "explicit"], default=None)
    _add_common(p)

    return parser


def config_from(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(
        limit=getattr(args, "limit", None),
        format=args.format,
        segment_size=args.segment_size,
        checkpoint_every=args.checkpoint_every,
        output_path=args.out,
    )
    cfg.validate()
    return cfg


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _route_logging()
    try:
        cfg = config_from(args)
        if args.command == "primes":
            return cmd_primes(cfg)
        if args.command == "theta":
            return cmd_theta(cfg)
        if args.command == "robin-scan":
            return cmd_robin_scan(cfg, args.lo, args.hi, args.odd_only)
        if args.command == "robin-eval":
            return cmd_robin_eval(cfg, args.n)
        if args.command == "robin-extremal":
            return cmd_robin_extremal(cfg, args.m_max, args.budget, args.exponent_cap)
        if args.command == "condition7":
            return cmd_condition7(cfg, args.m_max, args.k)
        if args.command == "zeta":
            return cmd_zeta(cfg, args.k, args.m)
        if args.command == "gap-series":
            return cmd_gap_series(cfg, args.limit, args.preset)
        if args.command == "theta-check":
            return cmd_theta_check(cfg, args.limit, args.c0_source, args.c0)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
