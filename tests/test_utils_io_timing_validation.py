"""Tests for io, timing, and validation utilities."""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.utils.io import atomic_write_json, atomic_write_npz, read_json, read_npz
from repro.utils.timing import Stopwatch, format_hours
from repro.utils.validation import (
    ValidationError,
    ensure_in_range,
    ensure_non_negative,
    ensure_positive,
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
    """A target whose bytes change is replaced through a temporary and one rename."""

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


@pytest.fixture
def umask_022():
    previous = os.umask(0o022)
    yield
    os.umask(previous)


class TestPublishedFilesTakeTheUmask:
    """Temporaries are created 0666 and the kernel applies the umask,
    which the rename keeps: other users can read the commons."""

    def test_every_published_file_is_0644_under_umask_022(self, tmp_path, umask_022):
        from repro.nas import NSGANetConfig
        from repro.workflow import WorkflowConfig, run_workflow
        from repro.xfel import DatasetConfig

        config = WorkflowConfig(
            nas=NSGANetConfig(
                population_size=3, offspring_per_generation=3, generations=1, max_epochs=4
            ),
            engine=None,
            dataset=DatasetConfig(images_per_class=20, image_size=16),
            mode="surrogate",
            seed=5,
        )
        run_workflow(config, commons_path=tmp_path)
        published = [p for p in tmp_path.rglob("*") if p.is_file()]
        kinds = {"model_*.json" if p.name.startswith("model_") else p.name for p in published}
        assert kinds == {"manifest.json", "run.json", "model_*.json"}
        assert {oct(p.stat().st_mode & 0o777) for p in published} == {oct(0o644)}
        npz = atomic_write_npz(tmp_path / "arrays.npz", {"a": np.arange(3)})
        assert npz.stat().st_mode & 0o777 == 0o644

    def test_a_stale_temporary_is_stepped_over(self, tmp_path, monkeypatch, umask_022):
        import itertools

        monkeypatch.setattr("repro.utils.io._TMP_SERIAL", itertools.count())
        stale = tmp_path / f".doc.json.{os.getpid()}.0.tmp"
        stale.write_bytes(b"left by a killed writer")
        path = atomic_write_json(tmp_path / "doc.json", {"v": 1})
        assert read_json(path) == {"v": 1} and path.stat().st_mode & 0o777 == 0o644
        assert stale.read_bytes() == b"left by a killed writer"
        assert sorted(p.name for p in tmp_path.iterdir()) == [stale.name, "doc.json"]


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
