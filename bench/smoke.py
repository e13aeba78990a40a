"""Quick self-test of the benchmark.

Run from the repository root:

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json for one episode, untraced and traced,
and checks the result line: every named metric is present with the unit
BENCHMARK.json gives it, the direction there matches bench/run.py, values
are finite (end-to-end ones non-zero), no step failed, and the traced run
reproduced the untraced checksum.  Last, it checks that the benchmark exits
non-zero without a result in a directory holding only BENCHMARK.json and
bench/.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
from run import DEFAULT_SEED, END_TO_END, PER_LAYER  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(command, cwd):
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec, workload, trace) -> str:
    proc = run(spec["command"] + ["--workload", workload, "--seed", str(DEFAULT_SEED),
                                  "--seconds", "0.1", "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])
    assert set(result) == RESULT_KEYS, f"{workload}: result keys {sorted(result)}"
    assert result["correct"] is True and result["failed"] == 0, f"{workload}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    table = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == {m["name"] for m in listed}, f"{workload}: metric names"
    for m in listed:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] == table[m["name"]][0], f"{m['name']}: unit"
        assert m["better"] == table[m["name"]][1] in ("higher", "lower"), f"{m['name']}: better"
        assert isinstance(value["value"], float) and math.isfinite(value["value"]), m["name"]
        assert trace or value["value"] != 0.0, f"{workload}: {m['name']} reads 0"
    if trace:
        assert detail["untraced_checksum"] == detail["checksum"], f"{workload}: checksums"
    return detail["checksum"]


def check_bare_directory(spec) -> None:
    """Without src/ the benchmark must fail and print no result."""
    work = BENCH_DIR / ".work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns(".work"))
        proc = run(spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                                      "--seconds", "1", "--trace", "0"], bare)
        assert proc.returncode != 0, "bare directory: exit code 0"
        assert '"correct"' not in proc.stdout, "bare directory: printed a result"
    finally:
        shutil.rmtree(bare)
        if not any(work.iterdir()):
            work.rmdir()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    for w in spec["workloads"]:
        untraced = check_result(spec, w["name"], 0)
        traced = check_result(spec, w["name"], 1)
        assert untraced == traced, f"{w['name']}: traced and untraced checksums differ"
        print(f"ok {w['name']} {untraced[:16]}", flush=True)
    check_bare_directory(spec)
    print("ok bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
