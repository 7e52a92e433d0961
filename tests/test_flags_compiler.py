"""Tests for repro.flags.compiler."""

import dataclasses

import numpy as np
import pytest

from repro.flags.catalog import (
    canada,
    france,
    great_britain,
    jordan,
    mauritius,
)
from repro.flags.compiler import (
    care_mask,
    compile_flag,
    execute,
    image_matches,
    program_stats,
    verify_program,
)
from repro.grid.canvas import Canvas, CanvasError
from repro.flags.spec import PaintOp
from repro.grid.palette import Color


class TestCompile:
    def test_flat_flag_op_count(self):
        prog = compile_flag(mauritius())
        assert prog.n_ops == 96

    def test_layered_flag_counts_hidden_work(self):
        spec = great_britain()
        prog = compile_flag(spec)
        assert prog.n_ops == spec.total_work()

    def test_custom_grid_size(self):
        prog = compile_flag(mauritius(), rows=16, cols=24)
        assert prog.rows == 16 and prog.cols == 24
        assert prog.n_ops == 16 * 24

    def test_layer_order_preserved(self):
        prog = compile_flag(jordan())
        assert prog.layer_order == jordan().layer_names

    def test_skip_optional_blank(self):
        full = compile_flag(jordan())
        skipped = compile_flag(jordan(), skip_optional_blank=True)
        assert "white_stripe" not in skipped.layer_order
        assert skipped.n_ops < full.n_ops

    def test_skip_occluded_reduces_ops(self):
        spec = great_britain()
        full = compile_flag(spec)
        lean = compile_flag(spec, skip_occluded=True)
        assert lean.n_ops < full.n_ops
        # Occlusion-eliminated program covers exactly the grid once.
        assert lean.n_ops == spec.default_rows * spec.default_cols

    def test_ops_within_bounds(self):
        prog = compile_flag(canada_like := jordan())
        for op in prog.ops:
            r, c = op.cell
            assert 0 <= r < prog.rows and 0 <= c < prog.cols


class TestExecute:
    def test_reproduces_final_image(self):
        spec = great_britain()
        prog = compile_flag(spec)
        canvas = execute(prog)
        assert np.array_equal(canvas.codes, spec.final_image())

    def test_flat_flag_on_strict_canvas(self):
        prog = compile_flag(mauritius())
        canvas = Canvas(prog.rows, prog.cols, allow_overpaint=False)
        execute(prog, canvas)
        assert canvas.n_colored() == prog.n_ops

    def test_layered_flag_needs_overpaint(self):
        prog = compile_flag(great_britain())
        strict = Canvas(prog.rows, prog.cols, allow_overpaint=False)
        with pytest.raises(CanvasError):
            execute(prog, strict)


class TestVerify:
    @pytest.mark.parametrize("factory", [mauritius, france, great_britain, jordan])
    def test_all_paper_flags_verify(self, factory):
        spec = factory()
        assert verify_program(compile_flag(spec), spec)

    def test_verify_with_optional_blank_elision(self):
        spec = jordan()
        prog = compile_flag(spec, skip_optional_blank=True)
        assert verify_program(prog, spec)

    def test_verify_with_occlusion_elimination(self):
        spec = great_britain()
        prog = compile_flag(spec, skip_occluded=True)
        assert verify_program(prog, spec)

    def test_care_mask_excludes_elided_white(self):
        spec = jordan()
        prog = compile_flag(spec, skip_optional_blank=True)
        care = care_mask(spec, prog)
        vis_white = spec.visible_cells("white_stripe")
        assert not care[vis_white].any()
        assert care[~vis_white].all()

    def test_image_matches_rejects_wrong_colors(self):
        spec = mauritius()
        prog = compile_flag(spec)
        wrong = spec.final_image().copy()
        wrong[0, 0] = int(Color.GREEN)
        assert not image_matches(wrong, spec, prog)


class TestStats:
    def test_program_stats_totals(self):
        prog = compile_flag(mauritius())
        stats = program_stats(prog)
        assert stats["total_ops"] == 96
        assert stats["ops_per_layer"]["red_stripe"] == 24
        assert stats["ops_per_color"]["red"] == 24
        assert sum(stats["ops_per_layer"].values()) == 96


class TestCompileMemo:
    def test_equal_arguments_share_one_program(self):
        # Catalog factories build a fresh (equal) spec on every call.
        prog = compile_flag(canada(), 12, 24, skip_occluded=True)
        assert compile_flag(canada(), 12, 24, skip_occluded=True) is prog
        assert compile_flag(mauritius()) is compile_flag(mauritius(), 8, 12)

    @pytest.mark.parametrize("kw", [
        {"rows": 16, "cols": 24},
        {"rows": 8, "cols": 13},
        {"skip_occluded": True},
        {"skip_optional_blank": True},
    ])
    def test_other_raster_or_flag_is_another_program(self, kw):
        base = compile_flag(jordan())
        other = compile_flag(jordan(), **kw)
        assert other is not base
        listed = dataclasses.replace(jordan(), layers=list(jordan().layers))
        assert other.ops == compile_flag(listed, **kw).ops

    def test_unhashable_spec_compiles_uncached(self):
        spec = jordan()
        listed = dataclasses.replace(spec, layers=list(spec.layers))
        with pytest.raises(TypeError):
            hash(listed)
        first = compile_flag(listed)
        assert compile_flag(listed) is not first
        assert first == compile_flag(spec)

    def test_shared_program_is_immutable(self):
        prog = compile_flag(great_britain())
        assert type(prog.ops) is tuple
        assert all(type(op) is PaintOp for op in prog.ops)
        with pytest.raises(dataclasses.FrozenInstanceError):
            prog.ops[0].color = Color.GREEN
        with pytest.raises(dataclasses.FrozenInstanceError):
            prog.ops = ()
