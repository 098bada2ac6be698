"""Report rendering: side-by-side text tables in the usual benchmark
layout, CSV emission, and dependency-free SVG scatter / line plots."""

from __future__ import annotations

import csv
from io import StringIO

import numpy as np

from .io import write_file
from .metrics import MetricReport

__all__ = ["render_table", "write_report_csv", "svg_scatter", "svg_coverage_curve"]


def render_table(reports: dict[str, MetricReport]) -> str:
    """Columns r / RMSE / CE per named model, one row per parameter role."""
    names = list(reports)
    roles = []
    for rep in reports.values():
        for role in rep.per_role:
            if role not in roles:
                roles.append(role)
    header = ["role"] + [f"{n}:{m}" for n in names for m in ("r", "RMSE", "CE")]
    rows = [header]
    for role in roles:
        row = [role]
        for name in names:
            stats = reports[name].per_role.get(role)
            if stats is None:
                row += ["-", "-", "-"]
            else:
                row += [f"{stats['r']:.3f}", f"{stats['rmse']:.3f}", f"{stats['ce_mean']:+.3f}"]
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("-" * len(lines[0]))
    return "\n".join(lines)


def write_report_csv(path, reports: dict[str, MetricReport]):
    rows = [{"model": name, "n_datasets": rep.n_datasets, **rep.descriptors, **rep.provenance,
             "role": role, "r": stats["r"], "rmse": stats["rmse"], "bias": stats["bias"],
             "ce_mean": stats["ce_mean"], **{f"ce_{alpha}": ce for alpha, ce in stats["ce"].items()}}
            for name, rep in reports.items() for role, stats in rep.per_role.items()]
    keys: list[str] = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    buf = StringIO()
    writer = csv.DictWriter(buf, fieldnames=keys)
    writer.writeheader()
    writer.writerows(rows)
    write_file(path, buf.getvalue())


def _write_svg(path, size, body, x_label, y_label, title):
    """A size x size white canvas holding `body`, the axis labels and the title."""
    mid = f"{size / 2:.0f}"
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">',
             f'<title>{title}</title>',
             f'<rect width="{size}" height="{size}" fill="white"/>',
             *body,
             f'<text x="{mid}" y="{size - 8}" text-anchor="middle" font-size="12">{x_label}</text>',
             f'<text x="12" y="{mid}" text-anchor="middle" font-size="12" '
             f'transform="rotate(-90 12 {mid})">{y_label}</text>',
             f'<text x="{mid}" y="18" text-anchor="middle" font-size="13">{title}</text>',
             "</svg>"]
    write_file(path, "\n".join(parts))


def _axis_map(values, lo_px, hi_px):
    values = np.asarray(values, dtype=np.float64)
    vmin, vmax = float(values.min()), float(values.max())
    if vmax <= vmin:
        vmax = vmin + 1.0
    span = vmax - vmin
    vmin -= 0.05 * span
    vmax += 0.05 * span

    def to_px(v):
        return lo_px + (np.asarray(v) - vmin) / (vmax - vmin) * (hi_px - lo_px)

    return to_px, vmin, vmax


def svg_scatter(path, truths, means, title="recovery", size=420):
    """Truth on x, posterior mean on y, with the identity line."""
    truths = np.asarray(truths, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    pad = 40
    both = np.concatenate([truths, means])
    to_px, vmin, vmax = _axis_map(both, pad, size - pad)
    y_of = lambda v: size - to_px(v)  # flip y
    lo_px, hi_px = float(to_px(vmin)), float(to_px(vmax))
    body = [f'<line x1="{lo_px:.1f}" y1="{size - lo_px:.1f}" x2="{hi_px:.1f}" '
            f'y2="{size - hi_px:.1f}" stroke="#999" stroke-dasharray="4 3"/>']
    for t, m in zip(truths, means):
        body.append(f'<circle cx="{float(to_px(t)):.1f}" cy="{float(y_of(m)):.1f}" '
                    f'r="2.5" fill="#1f6fb2" fill-opacity="0.6"/>')
    _write_svg(path, size, body, "truth", "posterior mean", title)


def svg_coverage_curve(path, alphas, coverages_by_name: dict[str, list[float]],
                       title="coverage", size=420):
    """Empirical coverage against nominal mass (1 - alpha) per model."""
    pad = 45
    nominal = [1.0 - a for a in alphas]
    to_px, _, _ = _axis_map([0.0, 1.0], pad, size - pad)
    y_of = lambda v: size - float(to_px(v))
    body = [f'<line x1="{float(to_px(0)):.1f}" y1="{y_of(0):.1f}" '
            f'x2="{float(to_px(1)):.1f}" y2="{y_of(1):.1f}" '
            f'stroke="#999" stroke-dasharray="4 3"/>']
    palette = ["#1f6fb2", "#b2451f", "#3a9e4e", "#8e44ad"]
    for ci, (name, cov) in enumerate(coverages_by_name.items()):
        color = palette[ci % len(palette)]
        order = np.argsort(nominal)
        pts = " ".join(f"{float(to_px(nominal[i])):.1f},{y_of(cov[i]):.1f}" for i in order)
        body.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        body.append(f'<text x="{pad + 4}" y="{pad + 14 * (ci + 1)}" font-size="11" '
                    f'fill="{color}">{name}</text>')
    _write_svg(path, size, body, "nominal mass", "empirical coverage", title)
