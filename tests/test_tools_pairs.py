"""tools/pairs.py keeps sweeping past a failing run.

``bench_spine/run.py`` exits 1 when a check fails; a crashed run prints
no result line at all.  Both are recorded as failing, the sweep goes on,
and the summary's medians and wins come from correct runs only.  The
subprocess is stubbed: no tree is extracted and nothing is run.
"""

import importlib.util
import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

REPO = Path(__file__).resolve().parents[1]


def _load_pairs():
    spec = importlib.util.spec_from_file_location("pairs", REPO / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_failing_run_is_counted_and_left_out_of_the_medians(tmp_path, monkeypatch, capsys):
    pairs = _load_pairs()
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text((REPO / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]]
    # seed 2's change run fails a check, seed 3's crashes; the rest are correct
    plan = {("change", 2): "check", ("change", 3): "crash"}
    compiled = []

    def fake_run(command, cwd=None, **_):
        if "compileall" in command:
            compiled.append(Path(cwd))
        if command[0] in ("git", "tar") or "compileall" in command:
            return subprocess.CompletedProcess(command, 0, stdout=b"")
        side = "change" if Path(cwd) == change else "parent"
        seed = int(command[command.index("--seed") + 1])
        outcome = plan.get((side, seed), "ok")
        if outcome == "crash":
            return subprocess.CompletedProcess(command, 1, stdout="", stderr="Traceback")
        out = Path(cwd) / "bench_spine" / "out"
        out.mkdir(parents=True, exist_ok=True)
        (out / f"run_real_serial_s{seed}_t0.json").write_text(json.dumps(
            {"executions": 3, "digest": "b7d7b69a3254ffff",
             "setup_parts": {"import_s": 0.1, "generate_s": 0.2}}))
        value = {"parent": 100.0, "change": 90.0}[side] if outcome == "ok" else 1000.0
        line = {"correct": outcome == "ok", "failed": int(outcome != "ok"),
                "metrics": {name: {"value": value} for name in metrics}}
        return subprocess.CompletedProcess(
            command, int(outcome != "ok"), stdout=f"run file: x\n{json.dumps(line)}\n")

    monkeypatch.setattr(pairs, "ROOT", change)
    monkeypatch.setattr(pairs, "subprocess", SimpleNamespace(run=fake_run))
    out = tmp_path / "pairs.jsonl"
    pairs.main(["--parent", "HEAD", "--workload", "real_serial", "--seeds", "1-3",
                "--out", str(out)])

    printed = capsys.readouterr().out
    # both trees are compiled once, before the first run
    assert len(compiled) == 2 and compiled[1] == change != compiled[0]
    assert "parent: 3 runs, 0 incorrect or failing" in printed
    assert "change: 3 runs, 2 incorrect or failing" in printed
    assert ("peak_rss_mb: parent 100 (100-100)  change 90 (90-90)  change better in 1/1"
            in printed)
    assert "peak_rss_mb change at 3 executions: median 90.0 over 1" in printed
    assert [json.loads(row)["ok"] for row in out.read_text().splitlines()] == [
        True, True, True, False, False, True]
