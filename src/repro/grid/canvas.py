"""The gridded paper: a numpy-backed raster canvas of colored cells.

A :class:`Canvas` records, for every cell, which color it carries, how well
it was filled (coverage quality), who colored it, and at what simulated time.
It is the shared mutable state the simulated student-processors write into,
and the artifact the "instructor" inspects afterwards.

The color plane is a dense ``int8`` array indexed ``[row, col]``; bulk
queries (coverage, correctness against a target image, per-color counts) are
vectorized numpy reductions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .palette import Color
from .regions import Region

Cell = Tuple[int, int]


class CanvasError(Exception):
    """Raised for out-of-range cells or invalid canvas operations."""


def codes_match(codes: np.ndarray, target: np.ndarray, *,
                ignore_blank_target: bool = True) -> bool:
    """Whether a color-code plane reproduces a target color-code image.

    The one grading rule behind :meth:`Canvas.matches` and the vector
    backend's stand-in canvases.

    Args:
        codes: int array of shape (rows, cols) of painted color codes.
        target: int array of the same shape of expected color codes.
        ignore_blank_target: when True, cells the target leaves blank may
            be anything (mirrors the "white stripe can be omitted because
            paper is white" grading rule from Section V-C).

    Raises:
        CanvasError: if the two shapes differ.
    """
    if target.shape != codes.shape:
        rows, cols = codes.shape
        raise CanvasError(
            f"target shape {target.shape} != canvas {rows}x{cols}")
    if ignore_blank_target:
        care = target != 0
        return bool(np.array_equal(codes[care], target[care]))
    return bool(np.array_equal(codes, target))


@dataclass(frozen=True)
class Stroke:
    """One cell-coloring action, as recorded in the canvas history.

    Attributes:
        cell: the (row, col) colored.
        color: the color applied.
        agent: identifier of the processor/student who colored it
            (None for direct library writes outside a simulation).
        time: simulated completion time of the stroke (None outside a sim).
        coverage: fraction of the cell area actually inked, in (0, 1];
            reflects the fill style (minimal dot vs scribble vs full fill)
            discussed in Section IV of the paper.
    """

    cell: Cell
    color: Color
    agent: Optional[str] = None
    time: Optional[float] = None
    coverage: float = 1.0


@dataclass
class Canvas:
    """A ``rows x cols`` sheet of gridded paper.

    The canvas enforces single-assignment per cell by default
    (``allow_overpaint=False``): coloring an already-colored cell raises.
    Layered paint programs (Great Britain, Jordan) set
    ``allow_overpaint=True`` so later layers can paint over earlier ones,
    exactly like the layered coloring technique the paper describes.
    """

    rows: int
    cols: int
    allow_overpaint: bool = False
    codes: np.ndarray = field(init=False, repr=False)
    coverage: np.ndarray = field(init=False, repr=False)
    history: List[Stroke] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise CanvasError(f"canvas must be non-empty, got {self.rows}x{self.cols}")
        self.codes = np.zeros((self.rows, self.cols), dtype=np.int8)
        self.coverage = np.zeros((self.rows, self.cols), dtype=np.float32)

    # -- basic cell access ---------------------------------------------------
    def _check(self, cell: Cell) -> None:
        r, c = cell
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise CanvasError(f"cell {cell} outside {self.rows}x{self.cols} canvas")

    def color_at(self, cell: Cell) -> Color:
        """The color currently on a cell (``Color.BLANK`` if untouched)."""
        self._check(cell)
        return Color(int(self.codes[cell]))

    def is_colored(self, cell: Cell) -> bool:
        """True once any non-blank color has been applied to the cell."""
        self._check(cell)
        return self.codes[cell] != Color.BLANK

    def paint(
        self,
        cell: Cell,
        color: Color,
        *,
        agent: Optional[str] = None,
        time: Optional[float] = None,
        coverage: float = 1.0,
    ) -> Stroke:
        """Color one cell, recording the stroke in the history.

        Raises:
            CanvasError: on out-of-range cells, blank color, coverage outside
                (0, 1], or overpainting when ``allow_overpaint`` is False.
        """
        self._check(cell)
        if color is Color.BLANK or color == Color.BLANK:
            raise CanvasError("cannot paint with BLANK; cells start blank")
        if not 0.0 < coverage <= 1.0:
            raise CanvasError(f"coverage must be in (0, 1], got {coverage}")
        if self.is_colored(cell) and not self.allow_overpaint:
            raise CanvasError(
                f"cell {cell} already colored {self.color_at(cell).name}; "
                "overpainting disabled"
            )
        self.codes[cell] = int(color)
        self.coverage[cell] = coverage
        stroke = Stroke(cell=cell, color=Color(color), agent=agent, time=time,
                        coverage=coverage)
        self.history.append(stroke)
        return stroke

    def paint_region(
        self,
        region: Region,
        color: Color,
        *,
        agent: Optional[str] = None,
        coverage: float = 1.0,
    ) -> int:
        """Bulk-paint every cell of a region (row-major); returns cell count.

        This is the vectorized "library" path used to compute reference
        images; simulated students instead paint cell by cell through
        :meth:`paint` so their strokes carry timestamps.
        """
        mask = region.mask(self.rows, self.cols)
        if color is Color.BLANK:
            raise CanvasError("cannot paint with BLANK")
        if not self.allow_overpaint and (self.codes[mask] != 0).any():
            raise CanvasError("region overlaps already-colored cells")
        self.codes[mask] = int(color)
        self.coverage[mask] = coverage
        n = int(mask.sum())
        rs, cs = np.nonzero(mask)
        for r, c in zip(rs.tolist(), cs.tolist()):
            self.history.append(
                Stroke(cell=(r, c), color=color, agent=agent, coverage=coverage)
            )
        return n

    # -- bulk queries ----------------------------------------------------------
    @property
    def n_cells(self) -> int:
        """Total number of cells on the sheet."""
        return self.rows * self.cols

    def n_colored(self) -> int:
        """How many cells carry some color."""
        return int((self.codes != 0).sum())

    def fraction_colored(self) -> float:
        """Colored cells as a fraction of the whole sheet."""
        return self.n_colored() / self.n_cells

    def color_counts(self) -> Dict[Color, int]:
        """Cell count per non-blank color currently on the canvas."""
        out: Dict[Color, int] = {}
        vals, counts = np.unique(self.codes, return_counts=True)
        for v, n in zip(vals.tolist(), counts.tolist()):
            if v != 0:
                out[Color(v)] = n
        return out

    def matches(self, target: np.ndarray, *, ignore_blank_target: bool = True) -> bool:
        """Whether this canvas reproduces a target color-code image.

        See :func:`codes_match` for the grading rule.

        Raises:
            CanvasError: if the target's shape is not (rows, cols).
        """
        return codes_match(self.codes, target,
                           ignore_blank_target=ignore_blank_target)

    def diff(self, target: np.ndarray) -> List[Cell]:
        """Cells whose color differs from a target image (blank-sensitive)."""
        if target.shape != (self.rows, self.cols):
            raise CanvasError(
                f"target shape {target.shape} != canvas {self.rows}x{self.cols}"
            )
        rs, cs = np.nonzero(self.codes != target)
        return list(zip(rs.tolist(), cs.tolist()))

    def mean_coverage(self) -> float:
        """Average fill quality over colored cells (0.0 if none colored)."""
        mask = self.codes != 0
        if not mask.any():
            return 0.0
        return float(self.coverage[mask].mean())

    def agent_cell_counts(self) -> Dict[str, int]:
        """How many strokes each agent contributed (latest-stroke-wins not
        applied; every stroke counts, matching 'work done' not 'cells owned')."""
        out: Dict[str, int] = {}
        for s in self.history:
            if s.agent is not None:
                out[s.agent] = out.get(s.agent, 0) + 1
        return out

    def copy_blank(self) -> "Canvas":
        """A fresh blank canvas with the same dimensions and overpaint mode."""
        return Canvas(self.rows, self.cols, allow_overpaint=self.allow_overpaint)

    def snapshot(self) -> np.ndarray:
        """An independent copy of the color-code plane."""
        return self.codes.copy()
