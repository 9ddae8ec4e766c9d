"""Minimal deterministic SVG charts (bars and lines), NumPy-only.

CSV files are the canonical data artifacts; these drawings are a quick
visual check.  All coordinates are formatted with fixed precision so the
same data always yields the same markup; an optional metadata comment
(e.g. a timestamp) is emitted outside the drawing proper.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bar_chart", "line_chart"]

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 60, 20, 40, 50


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _frame(title: str, xlabel: str, ylabel: str, comment: str | None) -> list[str]:
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
    ]
    if comment:
        parts.append(f"<!-- {comment} -->")
    parts.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    parts.append(
        f'<text x="{_W / 2:.0f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>')
    parts.append(
        f'<text x="{_W / 2:.0f}" y="{_H - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>')
    parts.append(
        f'<text x="16" y="{_H / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_H / 2:.0f})">{ylabel}</text>')
    parts.append(
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        f'stroke="black"/>')
    parts.append(
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>')
    return parts


def _y_axis(parts: list[str], values) -> float:
    """Append six evenly spaced y-axis ticks from 0 to the largest of
    ``values`` (NaN ignored; 1 when none is positive) and return that top."""
    vmax = max([v for v in values if v == v] + [0.0])
    vmax = vmax if vmax > 0 else 1.0
    step = vmax / 5
    for i in range(6):
        tick = i * step
        y = _y_pos(tick, vmax)
        parts.append(
            f'<line x1="{_ML - 4}" y1="{_fmt(y)}" x2="{_ML}" y2="{_fmt(y)}" '
            f'stroke="black"/>')
        parts.append(
            f'<text x="{_ML - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{tick:.3g}</text>')
    return vmax


def _y_pos(v: float, vmax: float) -> float:
    span = _H - _MT - _MB
    return _H - _MB - (v / vmax) * span


def _marker(parts: list[str], cx: float, value: float) -> None:
    """Append a dashed vertical marker at ``cx`` labelled with ``value``."""
    parts.append(
        f'<line x1="{_fmt(cx)}" y1="{_MT}" x2="{_fmt(cx)}" y2="{_H - _MB}" '
        f'stroke="crimson" stroke-dasharray="5,4" stroke-width="1.5"/>')
    parts.append(
        f'<text x="{_fmt(cx + 4)}" y="{_MT + 12}" font-family="sans-serif" '
        f'font-size="11" fill="crimson">{value:.3g}</text>')


def bar_chart(xs, heights, marker_x: float | None = None, title: str = "",
              xlabel: str = "", ylabel: str = "", comment: str | None = None) -> str:
    """Bar chart over numeric x positions with an optional vertical marker."""
    xs = [float(v) for v in xs]
    heights = [float(v) for v in heights]
    parts = _frame(title, xlabel, ylabel, comment)
    vmax = _y_axis(parts, heights)
    span_x = _W - _ML - _MR
    lo, hi = min(xs), max(xs)
    width = span_x / max(len(xs), 1) * 0.8

    def x_pos(v: float) -> float:
        if hi == lo:
            return _ML + span_x / 2
        return _ML + (v - lo) / (hi - lo) * (span_x - width) + width / 2

    for x, h in zip(xs, heights):
        cx = x_pos(x)
        y = _y_pos(h, vmax)
        parts.append(
            f'<rect x="{_fmt(cx - width / 2)}" y="{_fmt(y)}" '
            f'width="{_fmt(width)}" height="{_fmt(_H - _MB - y)}" '
            f'fill="steelblue"/>')
    step = max(1, len(xs) // 8)
    for i, x in enumerate(xs):
        if i % step == 0 or i == len(xs) - 1:
            cx = x_pos(x)
            parts.append(
                f'<text x="{_fmt(cx)}" y="{_H - _MB + 16}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="10">{x:g}</text>')
    if marker_x is not None:
        _marker(parts, x_pos(float(marker_x)), float(marker_x))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def line_chart(xs, ys, marker_x: float | None = None, title: str = "",
               xlabel: str = "", ylabel: str = "", comment: str | None = None) -> str:
    """Line-with-points chart; x positions are spaced by rank, not value."""
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    parts = _frame(title, xlabel, ylabel, comment)
    vmax = _y_axis(parts, ys)
    span_x = _W - _ML - _MR

    def rank_x(pos: float) -> float:
        if len(xs) == 1:
            return _ML + span_x / 2
        return _ML + pos / (len(xs) - 1) * span_x

    pts = " ".join(f"{_fmt(rank_x(i))},{_fmt(_y_pos(v, vmax))}"
                   for i, v in enumerate(ys))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="steelblue" '
                 f'stroke-width="2"/>')
    for i, v in enumerate(ys):
        parts.append(
            f'<circle cx="{_fmt(rank_x(i))}" cy="{_fmt(_y_pos(v, vmax))}" '
            f'r="3" fill="steelblue"/>')
        parts.append(
            f'<text x="{_fmt(rank_x(i))}" y="{_H - _MB + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{xs[i]:g}</text>')
    if marker_x is not None:
        mx = float(marker_x)
        # The marker's rank position, interpolated between tested x values.
        _marker(parts, rank_x(float(np.interp(mx, xs, range(len(xs))))), mx)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
