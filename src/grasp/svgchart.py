"""Tiny SVG line charts, no plotting dependency.

Only what the sweep command needs: one x axis, a couple of series,
legend, ticks at round numbers.  Output is deterministic text.
"""

import math

PALETTE = ("#2a8f4e", "#444444", "#b4552d", "#2b6cb0")
WIDTH, HEIGHT = 720, 460
TICKS = 5  # about this many ticks per axis


def _nice_step(span):
    raw = span / TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _ticks(lo, hi):
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + step * 1e-9:
        out.append(round(v, 10))
        v += step
    return out


def line_chart(xs, series, title, xlabel, ylabel):
    """Render labeled series of equal length against xs; returns SVG text."""
    left, right, top, bottom = 64, 16, 36, 48
    plot_w = WIDTH - left - right
    plot_h = HEIGHT - top - bottom

    ys_all = [y for _, ys in series for y in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys_all + [0.0]), max(ys_all)
    # ticks advance by adding a step to a float, so an x axis narrower than
    # its values' rounding is widened as a one-point axis is
    if x_hi - x_lo <= 1e-12 * x_hi:
        x_hi = x_lo + max(1.0, 1e-12 * x_lo)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    y_hi *= 1.05

    def px(x):
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d" font-family="sans-serif" font-size="12">' % (WIDTH, HEIGHT, WIDTH, HEIGHT),
        '<rect width="%d" height="%d" fill="white"/>' % (WIDTH, HEIGHT),
        '<text x="%d" y="20" text-anchor="middle" font-size="14">%s</text>' % (WIDTH // 2, title),
    ]

    for tx in _ticks(x_lo, x_hi):
        if tx < x_lo - 1e-9:
            continue
        x = px(tx)
        parts.append(
            '<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" stroke="#dddddd"/>' % (x, top, x, top + plot_h)
        )
        parts.append(
            '<text x="%.2f" y="%d" text-anchor="middle">%s</text>' % (x, top + plot_h + 18, "%.15g" % tx)
        )
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        parts.append(
            '<line x1="%d" y1="%.2f" x2="%d" y2="%.2f" stroke="#dddddd"/>' % (left, y, left + plot_w, y)
        )
        parts.append(
            '<text x="%d" y="%.2f" text-anchor="end" dominant-baseline="middle">%s</text>'
            % (left - 8, y, "%.15g" % ty)
        )

    parts.append(
        '<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#333333"/>'
        % (left, top, plot_w, plot_h)
    )
    parts.append(
        '<text x="%d" y="%d" text-anchor="middle">%s</text>' % (left + plot_w // 2, HEIGHT - 10, xlabel)
    )
    parts.append(
        '<text x="16" y="%d" text-anchor="middle" transform="rotate(-90 16 %d)">%s</text>'
        % (top + plot_h // 2, top + plot_h // 2, ylabel)
    )

    for i, (label, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join("%.2f,%.2f" % (px(x), py(y)) for x, y in zip(xs, ys))
        parts.append(
            '<polyline points="%s" fill="none" stroke="%s" stroke-width="1.8"/>' % (points, color)
        )
        ly = top + 14 + 16 * i
        lx = left + plot_w - 150
        parts.append(
            '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="1.8"/>'
            % (lx, ly - 4, lx + 22, ly - 4, color)
        )
        parts.append('<text x="%d" y="%d">%s</text>' % (lx + 28, ly, label))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
