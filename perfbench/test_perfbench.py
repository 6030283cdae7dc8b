"""The benchmark's own tests, at smoke size.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def smoke_size(monkeypatch):
    monkeypatch.setattr(workloads, "FULL", workloads.SMOKE)
    monkeypatch.chdir(ROOT)


def bench(workload: str, trace: int, capsys, seed: int = 3) -> tuple[int, str]:
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)])
    return code, capsys.readouterr().out


def result(code: int, out: str) -> dict:
    assert code == 0
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    out = result(*bench(workload, trace, capsys))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in out["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_same_seed_gives_same_counts(workload, capsys):
    runs = []
    for _ in range(2):
        out = result(*bench(workload, 1, capsys, seed=5))
        counts = {k: v["value"] for k, v in out["metrics"].items() if v["unit"] in ("count", "bytes")}
        record = json.loads((ROOT / f".perfbench/results/{workload}-seed5-trace1.json").read_text())
        runs.append((counts, record.get("experiment_sha256")))
    assert runs[0] == runs[1]
    if workload == "mc-grid":
        assert runs[0][0]["fast.runner_calls"] > 0 and len(runs[0][1]) == len(workloads.GRID_PI_A) * len(workloads.GRID_MU_N)
    else:
        assert runs[0][0]["core.step_calls"] > 0 and runs[0][0]["cli.records"] > 0 and runs[0][0]["audit.rows"] > 0


def test_flipped_rejected_bit_is_a_failed_operation(tmp_path, monkeypatch):
    import fwerstream.cli

    workload = workloads.StreamDense(tmp_path, 3, workloads.SMOKE)
    workload.prepare()
    victim = workload.ops[1]
    real_main = fwerstream.cli.main

    def main_then_flip(argv):
        code = real_main(argv)
        if list(victim.argv) == argv:
            lines = victim.out.read_text().splitlines()
            row = lines[1].split(",")
            row[3] = "0" if row[3] == "1" else "1"
            lines[1] = ",".join(row)
            victim.out.write_text("\n".join(lines) + "\n")
        return code

    monkeypatch.setattr(fwerstream.cli, "main", main_then_flip)
    phase = run.measure(workload, rounds=2)
    assert phase.attempted == 2 * len(workload.ops)
    assert phase.failed == 2
    assert all("rejected differs from run_stream at index 1" in p for p in phase.problems)


def test_fails_without_the_sources(tmp_path, monkeypatch, capsys):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    monkeypatch.chdir(tmp_path)
    code, out = bench("stream-sparse", 0, capsys)
    assert code != 0
    assert '"metrics"' not in out
