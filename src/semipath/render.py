"""ASCII and SVG pictures of staircase paths.

The drawing uses the package coordinate convention: x grows to the right,
y grows downward from alpha, so the path starts top-left at (0, alpha) and
ends bottom-right at (beta, 0).  Output is deterministic byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from .leansets import LeanSet
from .paths import _corners, path_from_lean_set
from .semigroup import SemigroupPair, _require_int, _require_kind, gaps

__all__ = ["RenderSpec", "render"]

_FORMATS = ("ascii", "svg")


@dataclass(frozen=True)
class RenderSpec:
    """What to draw and how large.  Labels are honored by the svg format only."""

    format: str = "ascii"
    cell: int = 20
    diagonal: bool = True
    markers: bool = True
    labels: bool = False

    def __post_init__(self) -> None:
        for switch in ("diagonal", "markers", "labels"):
            if not isinstance(getattr(self, switch), bool):
                raise ValueError(f"{switch} must be a bool, got {getattr(self, switch)!r}")
        if self.format not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}, got {self.format!r}")
        if self.format == "svg":
            _require_int(self.cell, "svg cell size", 4)


def render(semigroup: SemigroupPair, lean: LeanSet, spec: RenderSpec = RenderSpec()) -> str:
    """Render the path of a lean set as text; no trailing newline."""
    _require_kind(spec, RenderSpec)
    corners = _corners(semigroup, path_from_lean_set(semigroup, lean))
    return (_ascii if spec.format == "ascii" else _svg)(semigroup, corners, spec)


def _ascii(semigroup: SemigroupPair, corners: list[tuple[int, int]], spec: RenderSpec) -> str:
    alpha, beta = semigroup.alpha, semigroup.beta
    grid = [[" "] * (beta + 1) for _ in range(alpha + 1)]

    def put(x: int, y: int, mark: str) -> None:
        grid[alpha - y][x] = mark

    if spec.diagonal:
        for x in range(beta + 1):
            y = (2 * alpha * (beta - x) + beta) // (2 * beta)
            put(x, y, ".")
    x, y = 0, alpha
    for a, b in corners:  # straight down or straight right, so one range is one cell
        for x in range(x, a + 1):
            for y in range(y, b - 1, -1):
                put(x, y, "#")
    if spec.markers:
        for a, b in corners[0::2]:
            put(a, b, "S")
        for a, b in corners[1:-1:2]:
            put(a, b, "E")
    return "\n".join("".join(row).rstrip() for row in grid)


def _svg(semigroup: SemigroupPair, corners: list[tuple[int, int]], spec: RenderSpec) -> str:
    alpha, beta = semigroup.alpha, semigroup.beta
    cell = spec.cell
    margin = 2 * cell
    width = 2 * margin + beta * cell
    height = 2 * margin + alpha * cell

    def px(a: int) -> int:
        return margin + a * cell

    def py(b: int) -> int:
        return margin + (alpha - b) * cell

    radius = max(2, cell // 6)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    ]
    grid = 'stroke="#cccccc" stroke-width="1"'
    lines = [((x, alpha), (x, 0), grid) for x in range(beta + 1)]
    lines += [((0, y), (beta, y), grid) for y in range(alpha + 1)]
    if spec.diagonal:
        lines.append(((0, alpha), (beta, 0), 'stroke="#444444" stroke-width="1" stroke-dasharray="4 3"'))
    for (a, b), (c, d), style in lines:
        parts.append(f'<line x1="{px(a)}" y1="{py(b)}" x2="{px(c)}" y2="{py(d)}" {style}/>')
    trail = " ".join(f"{px(a)},{py(b)}" for a, b in [(0, alpha)] + corners)
    parts.append(f'<polyline points="{trail}" fill="none" stroke="#000000" stroke-width="3"/>')
    if spec.markers:
        for a, b in corners[0::2]:
            parts.append(
                f'<circle cx="{px(a)}" cy="{py(b)}" r="{radius}" '
                f'fill="#ffffff" stroke="#000000" stroke-width="1"/>'
            )
        for a, b in corners[1:-1:2]:
            parts.append(f'<circle cx="{px(a)}" cy="{py(b)}" r="{radius}" fill="#000000"/>')
    if spec.labels:
        size = max(cell // 2, 6)
        for point in gaps(semigroup):
            parts.append(
                f'<text x="{px(point.a) + cell // 8}" y="{py(point.b) - cell // 8}" '
                f'font-size="{size}" font-family="monospace">{point.value}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
