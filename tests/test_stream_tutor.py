"""Tests for repro.stream.tutor — the guided live-lesson driver.

A lesson is a real seeded engine run watched through the stream bus;
the narration is derived entirely from the reassembled feed, so local
and remote (SSE) sessions of the same seed must tell the same story.
"""

import pytest

from repro.serve import BackgroundServer, ServeConfig
from repro.stream import (
    ACTIVITY_RUN_LABELS,
    LESSONS,
    LessonReport,
    TutorError,
    available_lessons,
    lesson_catalog,
    run_lesson,
)


class TestCatalog:
    def test_four_lessons_in_catalog(self):
        assert sorted(LESSONS) == ["contention", "pipelining",
                                   "speedup", "warmup"]
        assert available_lessons().keys() == LESSONS.keys()
        text = lesson_catalog()
        for name in LESSONS:
            assert name in text

    def test_cli_choices_are_pinned_to_the_catalog(self):
        # The tutor parser hardcodes its --lesson choices so building
        # the parser stays import-free; this is the pin.
        from repro.cli import build_parser
        parser = build_parser()
        args = parser.parse_args(["tutor", "--lesson", "speedup"])
        assert args.lesson == "speedup"
        for name in LESSONS:
            parser.parse_args(["tutor", "--lesson", name])
        with pytest.raises(SystemExit):
            parser.parse_args(["tutor", "--lesson", "nonsense"])

    def test_unknown_lesson_raises(self):
        with pytest.raises(TutorError, match="unknown lesson"):
            run_lesson("osmosis")


class TestLocalLessons:
    @pytest.fixture(scope="class")
    def speedup(self):
        return run_lesson("speedup", seed=7)

    def test_report_shape(self, speedup):
        assert isinstance(speedup, LessonReport)
        assert speedup.name == "speedup"
        assert speedup.remote is False
        assert set(speedup.makespans) == set(ACTIVITY_RUN_LABELS)
        assert speedup.frames > len(ACTIVITY_RUN_LABELS) * 2

    def test_narration_tells_the_speedup_story(self, speedup):
        text = speedup.text()
        assert "lesson: speedup" in text
        assert "speedup x1.00" in text       # scenario1 vs itself
        assert "never linearly" in text
        assert "timeline:" in text
        assert "agents waiting:" in text

    def test_speedup_numbers_are_seeded(self, speedup):
        again = run_lesson("speedup", seed=7)
        assert again.makespans == speedup.makespans
        assert again.text() == speedup.text()
        # Scenario 3 beats scenario 1, but sublinearly — the paper's
        # core observation, straight from the streamed feed.
        span1 = speedup.makespans["scenario1"]
        span3 = speedup.makespans["scenario3"]
        assert span3 < span1

    @pytest.mark.parametrize("name", sorted(LESSONS))
    def test_every_lesson_completes_headless(self, name):
        report = run_lesson(name, seed=11)
        assert report.lines and report.lines[0].startswith(
            f"lesson: {name}")

    def test_out_sink_receives_every_line(self):
        sunk = []
        report = run_lesson("warmup", seed=5, out=sunk.append)
        assert sunk == report.lines


class TestRemoteLessons:
    def test_remote_lesson_matches_local(self, tmp_path):
        config = ServeConfig(cache_dir=str(tmp_path / "cache"))
        with BackgroundServer(config) as bg:
            remote = run_lesson("contention", seed=7,
                                serve=("127.0.0.1", bg.port))
        local = run_lesson("contention", seed=7)
        assert remote.remote is True
        assert remote.makespans == local.makespans
        # Same feed, same story — only the header's transport differs.
        assert remote.lines[2] != local.lines[2]
        assert remote.lines[:2] == local.lines[:2]
        assert remote.lines[3:] == local.lines[3:]
