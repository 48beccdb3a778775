"""The shared atomic-write helpers (repro.ioutil)."""

import json
import os

import pytest

from repro.ioutil import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    open_jsonl_append,
)


class TestAtomicWrite:
    def test_bytes_round_trip(self, tmp_path):
        path = tmp_path / "payload.bin"
        returned = atomic_write_bytes(path, b"\x00\x01\x02")
        assert returned == path
        assert path.read_bytes() == b"\x00\x01\x02"

    def test_text_round_trip(self, tmp_path):
        path = tmp_path / "note.txt"
        atomic_write_text(path, "héllo\n")
        assert path.read_text(encoding="utf-8") == "héllo\n"

    def test_json_is_canonical_and_newline_terminated(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"b": 2, "a": 1})
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == {"a": 1, "b": 2}
        # sorted keys: byte-stable across runs regardless of insertion order
        assert text == json.dumps({"a": 1, "b": 2}, indent=2, sort_keys=True) + "\n"

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "state.txt"
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "c.txt"
        atomic_write_text(path, "deep")
        assert path.read_text() == "deep"

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "clean.txt"
        atomic_write_text(path, "x")
        assert [p.name for p in tmp_path.iterdir()] == ["clean.txt"]

    def test_failed_write_leaves_original_intact(self, tmp_path,
                                                 monkeypatch):
        path = tmp_path / "precious.txt"
        atomic_write_text(path, "original")

        def exploding_replace(src, dst):
            raise OSError("simulated crash at publish time")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_text(path, "half-written")
        monkeypatch.undo()
        # the original survives untouched and the temp file is cleaned up
        assert path.read_text() == "original"
        assert [p.name for p in tmp_path.iterdir()] == ["precious.txt"]

    def test_fsync_false_still_atomic(self, tmp_path):
        path = tmp_path / "fast.bin"
        atomic_write_bytes(path, b"payload", fsync=False)
        assert path.read_bytes() == b"payload"
        assert [p.name for p in tmp_path.iterdir()] == ["fast.bin"]


class TestJsonlAppend:
    @pytest.mark.parametrize("before, after", [
        (None, '{"i": 2}\n'),  # missing file is created
        ("", '{"i": 2}\n'),
        ('{"i": 0}\n', '{"i": 0}\n{"i": 2}\n'),
        ('{"i": 0}\n{"i": 1, "sta', '{"i": 0}\n{"i": 1, "sta\n{"i": 2}\n'),
    ])
    def test_torn_tail_is_terminated_once(self, tmp_path, before, after):
        path = tmp_path / "journal.jsonl"
        if before is not None:
            path.write_text(before, encoding="utf-8")
        with open_jsonl_append(path) as fh:
            fh.write('{"i": 2}\n')
        assert path.read_text(encoding="utf-8") == after


class TestAdoption:
    """The repo's derived-artifact writers all route through ioutil."""

    def test_bench_record_write_is_atomic(self, tmp_path, monkeypatch):
        from repro.harness import bench

        calls = []
        real = bench.atomic_write_text

        def spy(path, text, **kw):
            calls.append(str(path))
            return real(path, text, **kw)

        monkeypatch.setattr(bench, "atomic_write_text", spy)
        record_path = tmp_path / "BENCH_core.json"
        bench.write_record(record_path, {"m": {"rate": 1.0, "seconds": 1.0}})
        bench.append_history(tmp_path / "hist", {"current": {}})
        assert any("BENCH_core.json" in c for c in calls)
        assert any(os.sep + "hist" + os.sep in c for c in calls)

    def test_resultset_exports_are_atomic(self, tmp_path, monkeypatch):
        from repro.api import resultset as resultset_mod
        from repro.api.resultset import ResultSet
        from repro.harness.runner import RunRecord

        calls = []
        real = resultset_mod.atomic_write_text

        def spy(path, text, **kw):
            calls.append(str(path))
            return real(path, text, **kw)

        monkeypatch.setattr(resultset_mod, "atomic_write_text", spy)
        results = ResultSet([
            RunRecord(scenario="s", params={"seed": 0}, result={"v": 1.0}),
        ])
        results.to_csv(tmp_path / "out.csv")
        results.to_json(tmp_path / "out.json")
        assert len(calls) == 2
        assert (tmp_path / "out.csv").exists()
        assert json.loads((tmp_path / "out.json").read_text())
