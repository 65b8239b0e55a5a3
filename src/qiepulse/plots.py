"""Minimal SVG line plots (polylines and axes, no external dependencies).

Data files are the primary deliverable; these plots exist so a report run
can be eyeballed without separate tooling.
"""

from pathlib import Path

import numpy as np

from .errors import ParameterError

__all__ = ["svg_line_plot"]

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 70, 20, 40, 50  # margins

# A polyline's points are '%.2f,%.2f' per point, joined by ' ', built from
# numpy arrays: a coordinate v with 0 <= v < 999.995 (every point on the
# canvas) is rounded to n = 100 v exactly (_hundredths) and written as the
# 4 bytes of n // 100 and its point, then the 4 bytes of n % 100 and the
# separator after it, one uint32 each.  A polyline with any other
# coordinate is formatted by '%' itself.
_FILL = 0  # a byte no coordinate prints; dropped before the points are joined
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves
_N = np.arange(1000)
# 'ddd.' right-aligned on fill, for 0..999
_INT4 = np.column_stack([
    np.where(_N >= 100, _N // 100 + ord("0"), _FILL),
    np.where(_N >= 10, _N // 10 % 10 + ord("0"), _FILL),
    _N % 10 + ord("0"),
    np.full(1000, ord(".")),
]).astype(np.uint8).view(np.uint32).ravel()
# 'dd' for 00..99, then the separator after an x (',') or a y (' ')
_FRAC4 = {sep: np.column_stack([
    _N[:100] // 10 + ord("0"),
    _N[:100] % 10 + ord("0"),
    np.full(100, ord(sep)),
    np.full(100, _FILL),
]).astype(np.uint8).view(np.uint32).ravel() for sep in ", "}


def _escape(text) -> str:
    """text with '&', '<' and '>' as XML entities, as
    xml.sax.saxutils.escape gives it (whose import pulls in urllib.request
    and ssl: about 37 ms and 7 MB)."""
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _map(vals, lo, hi, out_lo, out_hi):
    vals = np.asarray(vals, dtype=float)
    if hi == lo:
        hi = lo + 1.0
    # a constant past 2^53 has no unit range: it maps to out_lo
    return out_lo + (vals - lo) * (out_hi - out_lo) / ((hi - lo) or 1.0)


def _hundredths(v):
    """100 v rounded half to even, as '%.2f' rounds it, for 0 <= v < 1000;
    a larger or non-finite v gives at least 100000 or NaN."""
    t = np.floor(v * 100.0)
    t += 0.5
    # the sign of 100 v - t, exactly: v = hi + lo with hi and lo of 26 bits,
    # so hi 100 and lo 100 are exact; next to the tie hi 100 - t is exact
    # too (Sterbenz), and away from it the two roundings (each below 2^-37
    # for v < 1000) cannot flip the sign.  t + sign / 4 then rounds up above
    # the tie, down below it, and on it rint rounds t half to even.
    c = v * _SPLIT
    hi = c - (c - v)
    d = hi * 100.0
    d -= t
    d += (v - hi) * 100.0
    d = np.sign(d, out=d)
    d *= 0.25
    d += t
    return np.rint(d, out=d)


def _coordinates(v, sep):
    """Each v's '%.2f' text and sep as 8 bytes (one uint64), or None when
    the tables do not hold every v."""
    n = _hundredths(v)
    if not (n.min(initial=0.0) >= 0 and n.max(initial=0.0) < 100000
            and not np.signbit(v).any()):
        return None
    q, r = np.divmod(n.astype(np.intp), 100)
    return np.column_stack((_INT4[q], _FRAC4[sep][r])).view(np.uint64).ravel()


def _points(px, py, x_codes, y_codes) -> str:
    """The points text of the coordinates px, py; x_codes and y_codes are
    their _coordinates."""
    if x_codes is None or y_codes is None:
        xy = np.column_stack((px, py)).ravel().tolist()
        return ("%.2f,%.2f " * (len(xy) // 2) % tuple(xy))[:-1]
    buf = np.empty((len(py), 2), np.uint64)
    buf[:, 0] = x_codes
    buf[:, 1] = y_codes
    return buf.tobytes().translate(None, b"\0")[:-1].decode("ascii")


def svg_line_plot(x, series, title, path, x_label="", y_label=""):
    """Write a simple multi-series line plot.

    series: list of (label, y_array) drawn over the common x grid; a
    non-finite y leaves a gap.  An empty series list, an empty, non-1-D or
    non-finite x, a y of another shape than x, or no finite y at all raises
    ParameterError.
    """
    x = np.asarray(x, dtype=float)
    if not series:
        raise ParameterError("svg_line_plot needs at least one series")
    if x.ndim != 1 or x.size == 0:
        raise ParameterError(f"x must be a non-empty 1-D array, got shape "
                             f"{x.shape}")
    if not np.isfinite(x).all():
        raise ParameterError(f"x[{int(np.argmin(np.isfinite(x)))}] is not "
                             f"finite")
    ys = [np.asarray(y, dtype=float) for _, y in series]
    for (label, _), y in zip(series, ys):
        if y.shape != x.shape:
            raise ParameterError(f"series {label!r} has shape {y.shape}, "
                                 f"x has {x.shape}")
    finite = np.concatenate([y[np.isfinite(y)] for y in ys])
    if not finite.size:
        raise ParameterError("no series has a finite value")
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    y_lo, y_hi = float(np.min(finite)), float(np.max(finite))
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    px = _map(x, x_lo, x_hi, _ML, _W - _MR)
    x_codes = _coordinates(px, ",")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="22" text-anchor="middle" font-size="15">'
        f"{_escape(title)}</text>",
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
        f'text-anchor="middle">{_escape(x_label)}</text>',
        f'<text x="18" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(_MT + _H - _MB) / 2})">'
        f"{_escape(y_label)}</text>",
    ]
    for i, ((label, _), y) in enumerate(zip(series, ys)):
        good = np.isfinite(y)
        py = _map(y[good], y_lo, y_hi, _H - _MB, _MT)
        pts = _points(px[good], py,
                      None if x_codes is None else x_codes[good],
                      _coordinates(py, " "))
        color = _COLORS[i % len(_COLORS)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 16 * i}" '
            f'text-anchor="end" fill="{color}">{_escape(label)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
