"""Tests for io, timing, and validation utilities."""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.utils.io import atomic_write_json, atomic_write_npz, read_json, read_npz
from repro.utils.timing import Stopwatch, format_hours, format_seconds
from repro.utils.validation import (
    ValidationError,
    ensure_finite,
    ensure_in_range,
    ensure_non_negative,
    ensure_positive,
    ensure_probability,
)


class TestAtomicJson:
    def test_round_trip(self, tmp_path):
        payload = {"a": 1, "b": [1.5, 2.5], "c": "x"}
        path = atomic_write_json(tmp_path / "doc.json", payload)
        assert read_json(path) == payload

    def test_numpy_types_serialized(self, tmp_path):
        payload = {
            "i": np.int64(3),
            "f": np.float64(2.5),
            "b": np.bool_(True),
            "arr": np.arange(3),
        }
        path = atomic_write_json(tmp_path / "np.json", payload)
        loaded = read_json(path)
        assert loaded == {"i": 3, "f": 2.5, "b": True, "arr": [0, 1, 2]}

    def test_creates_parent_dirs(self, tmp_path):
        path = atomic_write_json(tmp_path / "deep" / "nested" / "doc.json", {})
        assert path.exists()

    def test_no_tmp_files_left_behind(self, tmp_path):
        atomic_write_json(tmp_path / "doc.json", {"x": 1})
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_overwrites_atomically(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"v": 1})
        atomic_write_json(path, {"v": 2})
        assert read_json(path) == {"v": 2}


class TestUnchangedJsonIsNotRewritten:
    def test_same_bytes_leave_the_file_alone(self, tmp_path, monkeypatch):
        path = atomic_write_json(tmp_path / "doc.json", {"v": [1, 2.5], "w": "x"})
        before = path.stat()

        def no_temporary(*args, **kwargs):
            raise AssertionError("a temporary was created for an unchanged target")

        monkeypatch.setattr("repro.utils.io.tempfile.mkstemp", no_temporary)
        assert atomic_write_json(path, {"w": "x", "v": [1, 2.5]}) == path
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    @pytest.mark.parametrize(
        "old", [{"v": 1}, {"v": 123456}, {}], ids=["one-byte", "longer-target", "shorter-target"]
    )
    def test_different_bytes_are_replaced_atomically(self, tmp_path, monkeypatch, old):
        path = atomic_write_json(tmp_path / "doc.json", old)
        old_bytes, old_inode = path.read_bytes(), path.stat().st_ino
        seen = []
        replace = os.replace

        def watching_replace(src, dst):
            # at the rename the target is still whole and the temporary is complete
            seen.append((Path(dst).read_bytes(), Path(src).read_bytes(), Path(src).suffix))
            replace(src, dst)

        monkeypatch.setattr("repro.utils.io.os.replace", watching_replace)
        atomic_write_json(path, {"v": 2})
        assert seen == [(old_bytes, path.read_bytes(), ".tmp")]
        assert read_json(path) == {"v": 2}
        assert path.stat().st_ino != old_inode
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_unreadable_target_is_written(self, tmp_path, monkeypatch):
        path = atomic_write_json(tmp_path / "doc.json", {"v": 1})
        inode = path.stat().st_ino

        def denied(self):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_bytes", denied)
        atomic_write_json(path, {"v": 1})
        monkeypatch.undo()
        assert path.stat().st_ino != inode and read_json(path) == {"v": 1}


class TestAtomicNpz:
    def test_round_trip(self, tmp_path):
        arrays = {"a": np.arange(6).reshape(2, 3), "b": np.ones(4)}
        path = atomic_write_npz(tmp_path / "arrays.npz", arrays)
        loaded = read_npz(path)
        assert set(loaded) == {"a", "b"}
        np.testing.assert_array_equal(loaded["a"], arrays["a"])
        np.testing.assert_array_equal(loaded["b"], arrays["b"])


class TestStopwatch:
    def test_accumulates_laps(self):
        sw = Stopwatch()
        for _ in range(3):
            with sw:
                time.sleep(0.001)
        assert len(sw.laps) == 3
        assert sw.total >= 0.003
        assert sw.mean_lap == pytest.approx(sw.total / 3)

    def test_variance_zero_below_two_laps(self):
        sw = Stopwatch()
        assert sw.lap_variance == 0.0
        with sw:
            pass
        assert sw.lap_variance == 0.0

    def test_double_start_raises(self):
        sw = Stopwatch().start()
        with pytest.raises(RuntimeError):
            sw.start()

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()


class TestFormatting:
    def test_format_seconds_styles(self):
        assert format_seconds(5.25) == "5.25s"
        assert format_seconds(65) == "1m 05.0s"
        assert format_seconds(3723.4) == "1h 02m 03.4s"

    def test_format_seconds_negative(self):
        assert format_seconds(-5).startswith("-")

    def test_format_hours(self):
        assert format_hours(46.55 * 3600) == "46.55 h"


class TestValidation:
    def test_ensure_positive(self):
        assert ensure_positive(1.5, "x") == 1.5
        with pytest.raises(ValidationError, match="x must be positive"):
            ensure_positive(0, "x")

    def test_ensure_non_negative(self):
        assert ensure_non_negative(0, "x") == 0
        with pytest.raises(ValidationError):
            ensure_non_negative(-1, "x")

    def test_ensure_in_range_inclusive_and_exclusive(self):
        assert ensure_in_range(5, "x", 0, 5) == 5
        with pytest.raises(ValidationError):
            ensure_in_range(5, "x", 0, 5, inclusive=False)

    def test_ensure_probability(self):
        assert ensure_probability(0.5, "p") == 0.5
        with pytest.raises(ValidationError):
            ensure_probability(1.5, "p")

    def test_ensure_finite(self):
        assert ensure_finite(1.0, "x") == 1.0
        with pytest.raises(ValidationError):
            ensure_finite(float("nan"), "x")
        with pytest.raises(ValidationError):
            ensure_finite(float("inf"), "x")
