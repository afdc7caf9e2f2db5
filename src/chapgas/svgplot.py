"""Minimal self-contained SVG line plots (fixed 800x600 viewport, no scripts)."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import NumericalLimitError

WIDTH = 800
HEIGHT = 600
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 40
_MARGIN_B = 50

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf"]


@dataclass
class Series:
    xs: list[float]
    ys: list[float]
    label: str = ""
    dashed: bool = False
    marker: bool = False


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    """Round ticks on [lo, hi].

    An axis the floats cannot draw raises NumericalLimitError: a span that
    is not positive and finite, or below five times the smallest normal
    float, where the tick step can underflow to 0; or a tick step below the
    spacing of the floats at a tick, which would never reach ``hi``.
    """
    raw = (hi - lo) / count
    if not sys.float_info.min <= raw < math.inf:
        raise NumericalLimitError(f"cannot draw a plot axis from {lo:.17g} to {hi:.17g}")
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    while v <= hi + 1e-12 * abs(step):
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        if v + step == v:
            raise NumericalLimitError(f"cannot draw a plot axis from {lo:.17g} to {hi:.17g}")
        v += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render(series: list[Series], title: str, xlabel: str, ylabel: str) -> str:
    xs_all = [x for s in series for x in s.xs if math.isfinite(x)]
    ys_all = [y for s in series for y in s.ys if math.isfinite(y)]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    pw = WIDTH - _MARGIN_L - _MARGIN_R
    ph = HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{title}</text>',
    ]
    # Axes box and ticks.
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    for tx in _ticks(x_lo, x_hi):
        X = px(tx)
        parts.append(
            f'<line x1="{X:.2f}" y1="{_MARGIN_T + ph}" x2="{X:.2f}" '
            f'y2="{_MARGIN_T + ph + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{X:.2f}" y="{_MARGIN_T + ph + 18}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        Y = py(ty)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{Y:.2f}" x2="{_MARGIN_L}" '
            f'y2="{Y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{Y + 4:.2f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{_fmt(ty)}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + pw / 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + ph / 2}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 18 {_MARGIN_T + ph / 2})">'
        f"{ylabel}</text>"
    )
    # Data.
    legend_y = _MARGIN_T + 14
    for k, s in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        pts = [
            (px(x), py(y))
            for x, y in zip(s.xs, s.ys)
            if math.isfinite(x) and math.isfinite(y)
        ]
        if s.marker:
            for X, Y in pts:
                parts.append(
                    f'<circle cx="{X:.2f}" cy="{Y:.2f}" r="4" fill="{color}"/>'
                )
        elif pts:
            d = " ".join(f"{X:.2f},{Y:.2f}" for X, Y in pts)
            dash = ' stroke-dasharray="6,4"' if s.dashed else ""
            parts.append(
                f'<polyline points="{d}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"{dash}/>'
            )
        if s.label:
            parts.append(
                f'<text x="{WIDTH - _MARGIN_R - 8}" y="{legend_y}" text-anchor="end" '
                f'font-size="12" font-family="sans-serif" fill="{color}">{s.label}</text>'
            )
            legend_y += 16
    parts.append("</svg>")
    return "\n".join(parts)
