"""Plain-text table rendering for the benchmark harnesses.

The benches print paper-style tables to stdout (pytest-benchmark captures
and shows them with ``-s``); this module keeps the formatting in one place.
"""

from __future__ import annotations

__all__ = ["format_table", "format_si", "format_kernel_counters",
           "format_resilience_stats"]


def format_si(x: float, digits: int = 3) -> str:
    """Engineering-notation formatting: 1.23e+04 -> '12.3K'."""
    if x == 0:
        return "0"
    units = [(1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "K")]
    ax = abs(x)
    for scale, suffix in units:
        if ax >= scale:
            return f"{x / scale:.{digits}g}{suffix}"
    return f"{x:.{digits}g}"


def format_table(headers: list[str], rows: list[list], title: str = "",
                 floatfmt: str = ".3g") -> str:
    """Render an aligned ASCII table.

    Cells may be any type; floats are formatted with ``floatfmt``.
    """
    def render(cell) -> str:
        if isinstance(cell, float):
            return f"{cell:{floatfmt}}"
        return str(cell)

    str_rows = [[render(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match headers")
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))

    def line(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    out = []
    if title:
        out.append(title)
    out.append(line(headers))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(r) for r in str_rows)
    return "\n".join(out)


def format_kernel_counters(sim, result, title: str = "kernel counters") -> str:
    """Summarize the batched-kernel perf counters of a factorization run.

    ``sim`` is the :class:`repro.comm.Simulator` that executed the run and
    ``result`` a ``Factor2DResult`` or ``Factor3DResult``. Shows the
    batched-GEMM count and fill ratio (how much of each gathered
    ``W = L @ U`` product landed in a destination block) next to the
    simulator's per-kind event counts, so a bench can see at a glance how
    much of the Schur work went through the batched path and what event
    mix the run produced.
    """
    rows: list[list] = [
        ["batched panel GEMMs", getattr(result, "n_batched_gemms", 0)],
        ["schur block updates", getattr(result, "schur_block_updates", 0)],
        ["batch fill ratio", float(getattr(result, "batch_fill_ratio", 0.0))],
    ]
    for kind in sorted(sim.event_counts):
        rows.append([f"events[{kind}]", int(sim.event_counts[kind])])
    return format_table(["counter", "value"], rows, title=title)


def format_resilience_stats(stats, title: str = "resilience") -> str:
    """Overhead attribution of a resilient factorization run.

    ``stats`` is a :class:`repro.resilience.ResilienceStats` (found on
    ``Factor3DResult.resilience`` or ``Factor2DResult.extras['resilience']``).
    Times are aggregate rank-seconds, so the overhead percentage compares
    like with like: total fault-tolerance overhead (lost work + recovery
    replay + checkpoint/recovery I/O + downtime) over total booked compute.
    """
    rows: list[list] = [
        ["recovery policy", stats.policy],
        ["checkpoint interval [tasks]",
         stats.checkpoint_every if stats.checkpoint_every else "off"],
        ["faults planned", int(stats.n_faults)],
        ["faults fired", int(stats.faults_fired)],
        ["faults survived", int(stats.faults_survived)],
        ["grid crashes", int(stats.crashes)],
        ["checkpoints taken", int(stats.checkpoints_taken)],
        ["checkpoint volume [words]", format_si(stats.checkpoint_words)],
        ["checkpoint I/O [s]", float(stats.checkpoint_io_seconds)],
        ["lost work [s]", float(stats.lost_work_seconds)],
        ["recovery compute [s]", float(stats.recovery_compute_seconds)],
        ["recovery volume [words]", format_si(stats.recovery_words)],
        ["recovery I/O [s]", float(stats.recovery_io_seconds)],
        ["downtime [s]", float(stats.downtime_seconds)],
        ["total overhead [s]", float(stats.overhead_seconds)],
        ["overhead [% of compute]", float(stats.overhead_pct)],
    ]
    out = [format_table(["counter", "value"], rows, title=title)]
    for note in stats.notes:
        out.append(f"note: {note}")
    return "\n".join(out)
