"""Minimal SVG line plots (polylines and axes, no external dependencies).

Data files are the primary deliverable; these plots exist so a report run
can be eyeballed without separate tooling.
"""

from pathlib import Path

import numpy as np

__all__ = ["svg_line_plot"]

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 70, 20, 40, 50  # margins


def _map(vals, lo, hi, out_lo, out_hi):
    vals = np.asarray(vals, dtype=float)
    if hi == lo:
        hi = lo + 1.0
    return out_lo + (vals - lo) * (out_hi - out_lo) / (hi - lo)


def svg_line_plot(x, series, title, path, x_label="", y_label=""):
    """Write a simple multi-series line plot.

    series: list of (label, y_array) drawn over the common x grid.
    """
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(y, dtype=float) for _, y in series]
    finite = np.concatenate([y[np.isfinite(y)] for y in ys])
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    y_lo, y_hi = float(np.min(finite)), float(np.max(finite))
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    px = _map(x, x_lo, x_hi, _ML, _W - _MR)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="22" text-anchor="middle" font-size="15">'
        f"{title}</text>",
        # axes
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        f'stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
        f'stroke="black"/>',
        f'<text x="{_ML}" y="{_H - _MB + 18}" text-anchor="middle">'
        f"{x_lo:.3g}</text>",
        f'<text x="{_W - _MR}" y="{_H - _MB + 18}" text-anchor="middle">'
        f"{x_hi:.3g}</text>",
        f'<text x="{_ML - 8}" y="{_H - _MB}" text-anchor="end">'
        f"{y_lo:.3g}</text>",
        f'<text x="{_ML - 8}" y="{_MT + 6}" text-anchor="end">'
        f"{y_hi:.3g}</text>",
        f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 12}" '
        f'text-anchor="middle">{x_label}</text>',
        f'<text x="18" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(_MT + _H - _MB) / 2})">{y_label}</text>',
    ]
    for i, (label, y) in enumerate(series):
        y = np.asarray(y, dtype=float)
        good = np.isfinite(y)
        py = _map(y, y_lo, y_hi, _H - _MB, _MT)
        xy = np.column_stack((px[good], py[good])).ravel().tolist()
        pts = ("%.2f,%.2f " * (len(xy) // 2) % tuple(xy))[:-1]
        color = _COLORS[i % len(_COLORS)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 16 * i}" '
            f'text-anchor="end" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
