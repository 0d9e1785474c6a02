"""Tests of the benchmark itself, on tiny inputs:

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs as gen  # noqa: E402
from workloads import greedy_leader_oracle  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_all_workloads_pass_their_checks(trace):
    lines = run_bench("--workload", "all", "--smoke", "--seconds", "0.1", "--seed", "3",
                      "--trace", trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, "\n".join(lines)
    wanted = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    for w in BENCH["workloads"]:
        for m in wanted:
            got = result["metrics"][f"{w['name']}.{m['name']}"]
            assert got["unit"] == m["unit"]
            assert np.isfinite(got["value"])


def test_single_workload_reports_exactly_the_declared_metrics():
    result = json.loads(run_bench("--workload", "bulk", "--smoke", "--seconds", "0.1")[-1])
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCH["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_layer_times_account_for_the_traced_wall():
    result = json.loads(run_bench("--workload", "curate", "--smoke", "--seconds", "0.1",
                                  "--trace", "1")[-1])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    own = sum(v for k, v in m.items()
              if k.endswith("_s") and not k.startswith(("trace.", "cli.startup")))
    assert own == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["descriptors.calls_per_structure"] == 1.0


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes((HERE.parent / "BENCHMARK.json").read_bytes())
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "curate"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_inputs_depend_only_on_the_seed():
    a = gen.to_extxyz(gen.demo_corpus(np.random.default_rng(5), 4, 2)[0])
    b = gen.to_extxyz(gen.demo_corpus(np.random.default_rng(5), 4, 2)[0])
    c = gen.to_extxyz(gen.demo_corpus(np.random.default_rng(6), 4, 2)[0])
    assert a == b != c


def test_greedy_oracle_against_brute_force():
    rng = np.random.default_rng(0)
    packed = rng.integers(0, 256, (40, 3), dtype=np.uint8)
    packed[10] = gen.flip_bits(packed[3], [1, 7])
    ids = [f"s{i}" for i in range(len(packed))]
    kept, removed = greedy_leader_oracle(ids, packed, 6)
    bits = np.unpackbits(packed, axis=1)
    leaders = []
    for i in range(len(packed)):
        near = [j for j in leaders if (bits[i] != bits[j]).sum() <= 6]
        if near:
            assert removed[ids[i]] == ids[near[0]]
        else:
            leaders.append(i)
    assert kept == [ids[j] for j in leaders]


def test_flip_bits_is_msb_first():
    row = np.zeros(2, dtype=np.uint8)
    assert gen.flip_bits(row, [0, 15]).tolist() == [0x80, 0x01]
