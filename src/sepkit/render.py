"""Deterministic SVG diagrams of cylinder rows with overlap markers.

Level 1 shows all first-level cylinders; level n >= 2 shows the
children of the previous level's tracked pair in two rows, with
vertical guide lines at the endpoints of the new overlap.  Coordinates
are produced by exact evaluation and decimal rounding, so identical
inputs yield byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .exact import AffineExpr, Param
from .ifs import Cylinder, IfsSystem, Word, cylinder
from .construction import ConstructionRun

MARGIN = 40
ROW_HEIGHT = 46
RECT_HEIGHT = 22
HEADER = 26


@dataclass(frozen=True)
class CylinderDiagram:
    """Rows of labelled cylinders plus vertical overlap markers."""

    rows: tuple[tuple[str, tuple[Cylinder, ...]], ...]
    markers: tuple[AffineExpr, ...]
    point: Param
    scale: int = 900
    decimals: int = 12


def diagram_for_level(
    sys: IfsSystem,
    pt: Param,
    run: ConstructionRun,
    level: int,
    scale: int = 900,
    decimals: int = 12,
) -> CylinderDiagram:
    """Diagram of the cylinders witnessing the level-n overlap.

    For n = 1 a single row of all level-1 cylinders; for n >= 2 the
    expansions of the previous level's two tracked words, upper row for
    the left word's children.  Markers sit at the exact endpoints of
    the new overlap: the right word's origin and the left word's
    right cylinder endpoint.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    if level > run.states[-1].level:
        raise ValueError(f"run has no level {level} state")
    state = run.state(level)
    if level == 1:
        rows = (
            ("level 1", tuple(cylinder(sys, Word.of(i)) for i in sys.symbols)),
        )
    else:
        previous = run.state(level - 1)
        rows = (
            (
                f"children of {previous.left}",
                tuple(cylinder(sys, previous.left.append(i)) for i in sys.symbols),
            ),
            (
                f"children of {previous.right}",
                tuple(cylinder(sys, previous.right.append(i)) for i in sys.symbols),
            ),
        )
    overlap_left = cylinder(sys, state.right).left
    overlap_right = cylinder(sys, state.left).right
    return CylinderDiagram(rows, (overlap_left, overlap_right), pt, scale, decimals)


def _coord(diagram: CylinderDiagram, e: AffineExpr) -> str:
    shifted = e.scale(diagram.scale).shift(MARGIN)
    return diagram.point.eval_decimal(shifted, diagram.decimals)


def _length(diagram: CylinderDiagram, e: AffineExpr) -> str:
    return diagram.point.eval_decimal(e.scale(diagram.scale), diagram.decimals)


def emit_svg(diagram: CylinderDiagram, path) -> Path:
    """Write the diagram; same diagram and path content are byte-stable."""
    width = diagram.scale + 2 * MARGIN
    height = HEADER + ROW_HEIGHT * len(diagram.rows) + MARGIN
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
    ]
    for row_index, (label, cylinders) in enumerate(diagram.rows):
        top = HEADER + ROW_HEIGHT * row_index
        lines.append(f'  <g data-row="{row_index}">')
        lines.append(
            f'    <text x="{MARGIN}" y="{top - 4}" font-size="11" '
            f'font-family="monospace">{label}</text>'
        )
        for cyl in cylinders:
            x = _coord(diagram, cyl.left)
            w = _length(diagram, cyl.right - cyl.left)
            word = str(cyl.word)
            lines.append(
                f'    <rect data-word="{word}" x="{x}" y="{top}" width="{w}" '
                f'height="{RECT_HEIGHT}" fill="#7aa6c2" fill-opacity="0.45" '
                f'stroke="#1f4e66" stroke-width="1"/>'
            )
            lines.append(
                f'    <text x="{x}" y="{top + RECT_HEIGHT + 12}" font-size="10" '
                f'font-family="monospace">{word}</text>'
            )
        lines.append("  </g>")
    marker_top = HEADER - 10
    marker_bottom = HEADER + ROW_HEIGHT * len(diagram.rows) - 10
    for marker in diagram.markers:
        x = _coord(diagram, marker)
        lines.append(
            f'  <line x1="{x}" y1="{marker_top}" x2="{x}" y2="{marker_bottom}" '
            f'stroke="#b03a2e" stroke-width="1" stroke-dasharray="4 2"/>'
        )
    lines.append("</svg>")
    out = Path(path)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def render_levels(
    sys: IfsSystem,
    pt: Param,
    run: ConstructionRun,
    levels: int,
    out_dir,
    example_name: str,
    scale: int = 900,
    decimals: int = 12,
) -> list[Path]:
    """Emit one SVG per level 1..levels into the output directory.

    Bad sizes, and a name that is not one plain path component (empty,
    ``.``, ``..``, or holding a ``/`` or ``\\``), raise ``ValueError``
    before the directory is made, so every file lands inside it.
    """
    if example_name in ("", ".", "..") or "/" in example_name or "\\" in example_name:
        raise ValueError(f"name {example_name!r} is not one plain path component")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if decimals < 1:
        raise ValueError("decimals must be >= 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for level in range(1, levels + 1):
        diagram = diagram_for_level(sys, pt, run, level, scale=scale, decimals=decimals)
        paths.append(emit_svg(diagram, out / f"{example_name}-level{level}.svg"))
    return paths
