"""Per-module metrics of one traced workload iteration, from its spans.

Spans come as the columns launch.py writes (parent, name index, start,
end, bytes); parents precede their children, so one forward pass gives
every span the set of span groups it runs inside.  Self time is
a span's duration minus the durations of its children (calls are nested
and sequential, so the children never overlap).
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from pathlib import Path

# Span columns as launch.py writes them, one after the other; only the
# standard library is imported here, because launch.py imports this module.
SPAN_FIELDS = (("parent", "q"), ("name", "q"), ("start", "d"), ("end", "d"),
               ("bytes", "q"))

# Span groups.  "step" and "ledger" bound the per-step work; the other
# groups are summed over their outermost spans, so nested calls of the same
# group (build_symbol_table calling green_hat) are not counted twice.
GROUPS = {
    "solver.step_semilinear": "step",
    "analysis.EnergyLedger.record": "ledger",
    "symbols.green_hat": "symbols",
    "symbols.green_hat_dt": "symbols",
    "symbols.green_band": "symbols",
    "symbols.build_symbol_table": "symbols",
    "analysis.lp_norm": "observer",
    "analysis.weighted_profile": "observer",
    "analysis.e0_norm": "observer",
    "analysis.fit_decay_rate": "fit",
    "analysis.fit_exponential_rate": "fit",
    "analysis.write_series_csv": "csv",
    "analysis.write_report_csv": "csv",
    "grid.inverse_transform": "inverse_transform",
    "grid.write_snapshot": "snapshot",
    "solver.linear_solution": "linear_solution",
    "oracle.heat_reference": "heat_reference",
}


def read_spans(path: Path, count: int) -> tuple[array, ...]:
    """The span columns launch.py wrote (parent, name, start, end, bytes)."""
    columns = []
    with open(path, "rb") as fh:
        for _name, code in SPAN_FIELDS:
            column = array(code)
            column.fromfile(fh, count)
            columns.append(column)
    return tuple(columns)


def span_totals(processes: list[dict]) -> dict:
    """Counts, times (s) and bytes of one iteration, summed over processes.

    Each process record holds the span names and the span columns
    (read_spans).
    """
    tot: dict = defaultdict(float)
    step_ms: list[float] = []
    for rec in processes:
        names = rec["names"]
        columns = rec["spans"]
        name_col = columns[1]
        group = [GROUPS.get(n) for n in names]
        is_fft = [n.startswith("numpy.fft.") for n in names]
        inside: list[frozenset] = []
        children = [0.0] * len(name_col)
        extend: dict = {}
        for parent, nid, t0, t1, nbytes in zip(*columns):
            if parent < 0:
                ctx = frozenset()
            else:
                pg = group[name_col[parent]]
                ctx = inside[parent]
                if pg is not None:
                    key = (ctx, pg)
                    if key not in extend:
                        extend[key] = ctx | {pg}
                    ctx = extend[key]
                children[parent] += t1 - t0
            inside.append(ctx)
            g = group[nid]
            if g is not None:
                tot[f"calls.{g}"] += 1
                if g not in ctx:
                    tot[f"time.{g}"] += t1 - t0
            if is_fft[nid]:
                zone = "step" if "step" in ctx else \
                    "ledger" if "ledger" in ctx else None
                if zone is not None:
                    tot[f"fft_calls.{zone}"] += 1
                    tot[f"fft_time.{zone}"] += t1 - t0
                    tot[f"fft_bytes.{zone}"] += nbytes
            elif "step" in ctx and names[nid] == "solver.apply_nonlinearity":
                tot["time.step_nonlinearity"] += t1 - t0
            elif "step" in ctx and names[nid] == "solver.linear_step":
                tot["time.step_linear"] += t1 - t0
        for i, (nid, t0, t1) in enumerate(zip(*columns[1:4])):
            if group[nid] == "step":
                step_ms.append(1e3 * (t1 - t0))
                tot["time.step_self"] += t1 - t0 - children[i]
    tot["step_ms"] = step_ms
    return tot


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_metrics(tot: dict) -> dict:
    """The per-module metrics of one iteration (per-step values are 0 on a
    workload that does not step)."""
    steps = tot["calls.step"]
    records = tot["calls.ledger"]

    def per_step(key: str) -> float:
        return _per(tot[f"{key}.step"], steps) + _per(tot[f"{key}.ledger"],
                                                      records)

    return {
        "grid.fft_calls_per_step": per_step("fft_calls"),
        "grid.fft_ms_per_step": 1e3 * per_step("fft_time"),
        "grid.fft_mb_per_step": 1e-6 * per_step("fft_bytes"),
        "grid.inverse_transform_ms": 1e3 * tot["time.inverse_transform"],
        "grid.snapshot_write_ms": 1e3 * tot["time.snapshot"],
        "symbols.green_hat_calls": tot["calls.symbols"],
        "symbols.green_hat_ms": 1e3 * tot["time.symbols"],
        "solver.steps": steps,
        "solver.nonlinearity_ms_per_step":
            1e3 * _per(tot["time.step_nonlinearity"], steps),
        "solver.linear_step_ms_per_step":
            1e3 * _per(tot["time.step_linear"], steps),
        "solver.step_self_ms": 1e3 * _per(tot["time.step_self"], steps),
        "solver.linear_solution_ms": 1e3 * tot["time.linear_solution"],
        "analysis.ledger_ms_per_step": 1e3 * _per(tot["time.ledger"], records),
        "analysis.observer_ms": 1e3 * tot["time.observer"],
        "analysis.fit_ms": 1e3 * tot["time.fit"],
        "analysis.csv_write_ms": 1e3 * tot["time.csv"],
        "oracle.heat_reference_ms": 1e3 * tot["time.heat_reference"],
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 100]); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
