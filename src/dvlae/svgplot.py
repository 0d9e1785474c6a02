"""Dependency-free SVG scatter plots for embeddings.

Points are circles colored by tag; highlighted ids are drawn on top as
diamonds in a reserved color.  Output bytes are deterministic for a given
input: fixed float formatting, tags in sorted order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from .embedding import Embedding
from .errors import UserInputError
from .ioutil import atomic_write_text

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8",
)
HIGHLIGHT_COLOR = "#d62728"
_UNTAGGED = "(untagged)"
_POINT_RADIUS = 3.0
_HIGHLIGHT_SIZE = 6.0      # half-diagonal of a highlight diamond, pixels
_MARGIN = 40.0


@dataclass(frozen=True)
class PlotSpec:
    width: int = 800
    height: int = 600
    highlight: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.width < 100 or self.height < 100:
            raise UserInputError("plot must be at least 100x100 pixels")
        object.__setattr__(self, "highlight", tuple(self.highlight))


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _scale(values, lo_px: float, hi_px: float):
    vmin = min(values)
    vmax = max(values)
    if vmax == vmin:
        mid = (lo_px + hi_px) / 2.0
        return lambda v: mid
    span = hi_px - lo_px
    return lambda v: lo_px + (v - vmin) / (vmax - vmin) * span


def render_scatter_svg(emb: Embedding, spec: PlotSpec = PlotSpec()) -> str:
    """Render the embedding as a standalone SVG document."""
    if len(emb.ids) == 0:
        raise UserInputError("embedding has no points to plot")
    known = set(emb.ids)
    for ident in spec.highlight:
        if ident not in known:
            raise UserInputError(f"highlight id {ident!r} is not in the embedding")

    tags = [t if t is not None else _UNTAGGED for t in emb.tags]
    tag_order = sorted(set(tags))
    color_of = {t: PALETTE[i % len(PALETTE)] for i, t in enumerate(tag_order)}

    w, h, m = spec.width, spec.height, _MARGIN
    sx = _scale(emb.coords[:, 0], m, w - m)
    sy = _scale(emb.coords[:, 1], h - m, m)   # SVG y grows downward

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        '<g class="points">',
    ]
    highlight = set(spec.highlight)
    for ident, tag, (x, y) in zip(emb.ids, tags, emb.coords):
        if ident in highlight:
            continue
        out.append(
            f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="{_POINT_RADIUS:g}" '
            f'fill="{color_of[tag]}" fill-opacity="0.75"/>'
        )
    out.append("</g>")

    out.append('<g class="highlights">')
    for ident, (x, y) in zip(emb.ids, emb.coords):
        if ident not in highlight:
            continue
        cx, cy, s = sx(x), sy(y), _HIGHLIGHT_SIZE
        points = (
            f"{_fmt(cx)},{_fmt(cy - s)} {_fmt(cx + s)},{_fmt(cy)} "
            f"{_fmt(cx)},{_fmt(cy + s)} {_fmt(cx - s)},{_fmt(cy)}"
        )
        out.append(
            f'<polygon class="highlight" points="{points}" fill="{HIGHLIGHT_COLOR}" '
            f'stroke="black" stroke-width="0.5"/>'
        )
    out.append("</g>")

    out.append('<g class="legend" font-family="sans-serif" font-size="12">')
    for row, tag in enumerate(tag_order):
        y0 = m / 2 + row * 18
        out.append(
            f'<g class="legend-entry">'
            f'<rect x="{_fmt(w - m - 120)}" y="{_fmt(y0)}" width="12" height="12" '
            f'fill="{color_of[tag]}"/>'
            f'<text x="{_fmt(w - m - 102)}" y="{_fmt(y0 + 10)}">{_escape(tag)}</text>'
            f"</g>"
        )
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_scatter_svg(emb: Embedding, spec: PlotSpec, path: str | Path) -> None:
    atomic_write_text(path, render_scatter_svg(emb, spec))
