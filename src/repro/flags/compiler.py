"""Compile a :class:`FlagSpec` into a flat :class:`PaintProgram`.

The compiler lowers the layered region description into per-cell strokes in
a legal order (layers in spec order, cells row-major within a layer —
matching the numbered-cell instructions of Figure 1).  Two optimization
passes are available:

- **occlusion elimination** (``skip_occluded=True``): drop strokes that a
  later layer will overpaint anyway.  Students naturally discover this
  ("why color cells that the triangle will cover?"); it trades the simple
  layered technique for intersection tests, exactly the tension Section
  III-D describes.
- **blank elision** (``skip_optional_blank=True``): drop layers marked
  ``optional_on_blank`` (white on white paper), the Section V-C allowance.

A program is a pure function of its arguments and immutable (frozen
dataclasses, tuple ops), so :func:`compile_flag` memoizes it (at most
:data:`COMPILE_MEMO_SIZE` programs, least recently used first out, per
process): every trial of a cell shares one program.
"""

from __future__ import annotations

import functools
from typing import List

import numpy as np

from ..grid.canvas import Canvas
from ..grid.regions import iter_cells_rowmajor
from .spec import FlagSpec, PaintOp, PaintProgram

#: Compiled programs kept in memory by :func:`compile_flag`.  A catalog
#: flag at its default raster is tens of KiB; the bound caps what odd
#: raster overrides can pin.
COMPILE_MEMO_SIZE = 64


def compile_flag(
    spec: FlagSpec,
    rows: int | None = None,
    cols: int | None = None,
    *,
    skip_occluded: bool = False,
    skip_optional_blank: bool = False,
) -> PaintProgram:
    """Lower a flag spec to an ordered stroke list.

    Args:
        spec: the flag to compile.
        rows, cols: grid size (defaults to the spec's canonical size).
        skip_occluded: omit strokes later layers fully overpaint.
        skip_optional_blank: omit whole layers that may stay blank paper.

    Returns:
        A :class:`PaintProgram` whose ops, replayed in order on a blank
        canvas (with overpaint allowed), reproduce ``spec.final_image()``.
        Equal arguments return the same (immutable) program object; a
        spec that cannot be hashed (a list where a tuple is annotated)
        compiles afresh on every call.
    """
    rows = rows or spec.default_rows
    cols = cols or spec.default_cols
    try:
        hash(spec)
    except TypeError:
        return _compile(spec, rows, cols, skip_occluded, skip_optional_blank)
    return _compile_memo(spec, rows, cols, skip_occluded,
                         skip_optional_blank)


def _compile(spec: FlagSpec, rows: int, cols: int, skip_occluded: bool,
             skip_optional_blank: bool) -> PaintProgram:
    """The lowering itself, on a resolved raster size."""
    ops: List[PaintOp] = []
    layer_order: List[str] = []
    for layer in spec.layers:
        if skip_optional_blank and layer.optional_on_blank:
            continue
        layer_order.append(layer.name)
        if skip_occluded:
            mask = spec.visible_cells(layer.name, rows, cols)
        else:
            mask = layer.region.mask(rows, cols)
        boundary = layer.region.boundary_mask(rows, cols)
        intricacy = layer.region.intricacy()
        for seq, cell in enumerate(iter_cells_rowmajor(mask)):
            complexity = intricacy if boundary[cell] else 1.0
            ops.append(PaintOp(cell=cell, color=layer.color,
                               layer=layer.name, seq=seq,
                               complexity=complexity))
    return PaintProgram(flag=spec.name, rows=rows, cols=cols,
                        ops=tuple(ops), layer_order=tuple(layer_order))


_compile_memo = functools.lru_cache(maxsize=COMPILE_MEMO_SIZE)(_compile)


def execute(program: PaintProgram, canvas: Canvas | None = None) -> Canvas:
    """Replay a compiled program stroke by stroke onto a canvas.

    This is the *sequential reference executor*: it ignores timing and
    agents and simply verifies that the program is executable (no paints on
    out-of-range cells, overpaint legality).  The simulation engine replays
    the same ops with timing, contention and agents.
    """
    if canvas is None:
        canvas = Canvas(program.rows, program.cols, allow_overpaint=True)
    for op in program.ops:
        canvas.paint(op.cell, op.color)
    return canvas


def care_mask(spec: FlagSpec, program: PaintProgram) -> np.ndarray:
    """Cells where a replay of ``program`` must match ``spec.final_image``.

    Cells visible only through optional-on-blank layers that the program
    elided are excluded: blank paper legitimately stands in for the
    missing white there (the Section V-C allowance).
    """
    rows, cols = program.rows, program.cols
    elided = [l for l in spec.layers
              if l.optional_on_blank and l.name not in program.layer_order]
    allowed_blank = np.zeros((rows, cols), dtype=bool)
    for l in elided:
        allowed_blank |= spec.visible_cells(l.name, rows, cols)
    return ~allowed_blank


def image_matches(codes: np.ndarray, spec: FlagSpec,
                  program: PaintProgram) -> bool:
    """Whether a painted color-code plane is an acceptable rendering of the
    spec, given which layers the program actually painted."""
    target = spec.final_image(program.rows, program.cols)
    care = care_mask(spec, program)
    return bool(np.array_equal(codes[care], target[care]))


def verify_program(program: PaintProgram, spec: FlagSpec) -> bool:
    """Check that replaying the program reproduces the spec's final image.

    The comparison ignores cells that belong only to elided optional-blank
    layers: a program compiled with ``skip_optional_blank`` is still
    correct because blank paper stands in for the missing white.
    """
    return image_matches(execute(program).codes, spec, program)


def program_stats(program: PaintProgram) -> dict:
    """Summary statistics: strokes per layer and per color, total strokes."""
    per_layer: dict = {}
    per_color: dict = {}
    for op in program.ops:
        per_layer[op.layer] = per_layer.get(op.layer, 0) + 1
        per_color[op.color.name.lower()] = per_color.get(op.color.name.lower(), 0) + 1
    return {
        "flag": program.flag,
        "rows": program.rows,
        "cols": program.cols,
        "total_ops": program.n_ops,
        "ops_per_layer": per_layer,
        "ops_per_color": per_color,
    }
