"""Minimal deterministic SVG emission for batch figures.

Figures are written as plain strings with fixed two-decimal coordinate
formatting and no generated ids, so identical inputs yield byte-identical
files and golden-file comparisons stay stable.
"""

import numpy as np


def _f(x):
    return format(float(x), ".2f")


def _esc(text):
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _diverging_color(value, vmax):
    """Blue-white-red map on [-vmax, vmax]."""
    if vmax <= 0 or not np.isfinite(value):
        return "#dddddd"
    t = float(np.clip(value / vmax, -1.0, 1.0))
    if t >= 0:
        r, g, b = 255, round(255 * (1 - t * 0.82)), round(255 * (1 - t * 0.82))
    else:
        r, g, b = round(255 * (1 + t * 0.82)), round(255 * (1 + t * 0.82)), 255
    return f"#{int(r):02x}{int(g):02x}{int(b):02x}"


class SvgCanvas:
    """Accumulates elements; render() emits the final document."""

    def __init__(self, width, height):
        self.width = width
        self.height = height
        self.parts = []

    def rect(self, x, y, w, h, fill, stroke=None):
        s = f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" fill="{fill}"'
        if stroke:
            s += f' stroke="{stroke}" stroke-width="0.5"'
        self.parts.append(s + "/>")

    def line(self, x1, y1, x2, y2, stroke="#000000", width=1.0, dash=None):
        s = (f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
             f'stroke="{stroke}" stroke-width="{_f(width)}"')
        if dash:
            s += f' stroke-dasharray="{dash}"'
        self.parts.append(s + "/>")

    def polyline(self, xs, ys, stroke="#000000", width=1.5):
        pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in zip(xs, ys))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_f(width)}"/>'
        )

    def polygon(self, xs, ys, fill, opacity=1.0):
        pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in zip(xs, ys))
        self.parts.append(
            f'<polygon points="{pts}" fill="{fill}" opacity="{_f(opacity)}"/>'
        )

    def text(self, x, y, content, size=11, anchor="start"):
        self.parts.append(
            f'<text x="{_f(x)}" y="{_f(y)}" font-size="{_f(size)}" '
            f'font-family="sans-serif" text-anchor="{anchor}" '
            f'fill="#000000">{_esc(content)}</text>'
        )

    def render(self):
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'width="{_f(self.width)}" height="{_f(self.height)}" '
                f'viewBox="0 0 {_f(self.width)} {_f(self.height)}">')
        return "\n".join([head, *self.parts, "</svg>"]) + "\n"


def fan_chart(horizons, estimate, lo, hi, title):
    """Impulse-response path with its confidence band and a zero line."""
    width, height = 560, 360
    horizons = np.asarray(horizons, dtype=float)
    ml, mr, mt, mb = 52, 16, 34, 34
    pw, ph = width - ml - mr, height - mt - mb
    ymin = float(min(np.min(lo), 0.0))
    ymax = float(max(np.max(hi), 0.0))
    pad = 0.05 * max(ymax - ymin, 1e-12)
    ymin, ymax = ymin - pad, ymax + pad

    def sx(h):
        return ml + pw * (h - horizons[0]) / max(horizons[-1] - horizons[0], 1)

    def sy(v):
        return mt + ph * (ymax - v) / (ymax - ymin)

    c = SvgCanvas(width, height)
    c.rect(0, 0, width, height, "#ffffff")
    c.text(ml, 20, title, size=13)
    for tv in np.linspace(ymin, ymax, 5):   # ymin < 0 < ymax: pad > 0
        c.line(ml, sy(tv), ml + pw, sy(tv), "#eeeeee")
        c.text(ml - 6, sy(tv) + 4, format(tv, ".3g"), size=9, anchor="end")
    for h in horizons[:: max(len(horizons) // 8, 1)]:
        c.text(sx(h), height - mb + 16, format(h, ".0f"), size=9, anchor="middle")
    band_x = np.concatenate([horizons, horizons[::-1]])
    band_y = np.concatenate([np.asarray(hi), np.asarray(lo)[::-1]])
    c.polygon([sx(x) for x in band_x], [sy(v) for v in band_y],
              "#9ecbe8", opacity=0.5)
    c.line(ml, sy(0.0), ml + pw, sy(0.0), "#888888", 1.0, dash="4,3")
    c.polyline([sx(h) for h in horizons], [sy(v) for v in estimate],
               "#13385c", 2.0)
    c.text(ml + pw / 2, height - 8, "horizon (months)", size=10, anchor="middle")
    return c.render()


def heatmap(matrix, row_labels, col_labels, title):
    """Row-by-column heatmap on a symmetric diverging scale, as a canvas."""
    matrix = np.asarray(matrix, dtype=float)
    n_rows, n_cols = matrix.shape
    cw = max(min(32, 640 // max(n_cols, 1)), 10)
    ch = max(min(22, 480 // max(n_rows, 1)), 10)
    ml, mt = 86, 40
    w = ml + n_cols * cw + 20
    h = mt + n_rows * ch + 40
    vmax = float(np.nanmax(np.abs(matrix))) if matrix.size else 0.0
    c = SvgCanvas(w, h)
    c.rect(0, 0, w, h, "#ffffff")
    c.text(ml, 22, title, size=13)
    for i in range(n_rows):
        c.text(ml - 6, mt + i * ch + ch * 0.7, row_labels[i], size=9, anchor="end")
        for j in range(n_cols):
            c.rect(ml + j * cw, mt + i * ch, cw, ch,
                   _diverging_color(matrix[i, j], vmax), stroke="#ffffff")
    step = max(n_cols // 12, 1)
    for j in range(0, n_cols, step):
        c.text(ml + j * cw + cw / 2, mt + n_rows * ch + 14, col_labels[j],
               size=9, anchor="middle")
    c.text(ml, h - 8, f"scale: +/-{format(vmax, '.3g')}", size=9)
    return c


def surface_map(domain, values, title):
    """Raster map of one surface as a canvas; masked cells are grey."""
    width = 380
    values = np.asarray(values, dtype=float)
    n_lat, n_lon = domain.shape
    ml, mt = 46, 40
    cw = (width - ml - 16) / n_lon
    ch = cw  # square-ish cells; latitude rows flipped so north is up
    h = mt + n_lat * ch + 36
    finite = values[np.isfinite(values)]
    vmax = float(np.max(np.abs(finite))) if finite.size else 0.0
    c = SvgCanvas(width, h)
    c.rect(0, 0, width, h, "#ffffff")
    c.text(ml, 22, title, size=13)
    for i in range(n_lat):
        for j in range(n_lon):
            row = n_lat - 1 - i  # largest latitude on top
            c.rect(ml + j * cw, mt + row * ch, cw, ch,
                   _diverging_color(values[i, j], vmax))
    c.text(ml, h - 8,
           f"lat {format(domain.lat_min, '.4g')}..{format(domain.lat_max, '.4g')}  "
           f"lon {format(domain.lon_min, '.4g')}..{format(domain.lon_max, '.4g')}  "
           f"scale +/-{format(vmax, '.3g')}",
           size=9)
    return c


def fira_figure(domain, shock_values, response, sector_ids, horizons, title):
    """Shock map beside the sector-by-horizon response heatmap."""
    left = surface_map(domain, shock_values, "shock surface")
    right = heatmap(response.T, list(sector_ids),
                    [format(h, ".0f") for h in horizons],
                    "responses (sector x horizon)")
    # sizes as the two-decimal text of a rendered document reads them
    total_w = float(_f(left.width)) + float(_f(right.width)) + 30
    total_h = max(float(_f(left.height)), float(_f(right.height))) + 50
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(total_w)}" '
        f'height="{_f(total_h)}" viewBox="0 0 {_f(total_w)} {_f(total_h)}">',
        f'<rect x="0" y="0" width="{_f(total_w)}" height="{_f(total_h)}" fill="#ffffff"/>',
        f'<text x="16" y="20" font-size="14" font-family="sans-serif">{_esc(title)}</text>',
    ]
    for canvas, dx in ((left, 10), (right, left.width + 20)):
        parts += [f'<g transform="translate({_f(dx)},30)">', *canvas.parts,
                  "</g>"]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
