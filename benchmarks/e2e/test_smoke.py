"""Schema test of the benchmark's ``--smoke`` tier (about 40 s).

``python -m pytest benchmarks/e2e/test_smoke.py``; tier-1 collects
``tests/`` only, and ``make bench`` skips it (it is no ``bench_*.py``).
"""

import json
import math
import os
import re
import subprocess
import sys

import pytest

from compare import exact_rows

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Two smoke runs of every workload, each with its traced pass."""
    out = []
    for tag in ("a", "b"):
        path = str(tmp_path_factory.mktemp("e2e") / f"{tag}.json")
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
             "--traced", "--out", path],
            cwd=ROOT, stdout=subprocess.DEVNULL, timeout=300)
        assert done.returncode == 0
        with open(path, encoding="utf-8") as fh:
            out.append(json.load(fh)["workloads"])
    return out


def test_every_declared_metric_is_reported_with_its_unit(bench, reports):
    for workload in bench["workloads"]:
        passes = reports[0][workload["name"]]
        for kind in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in bench[kind]}
            reported = passes[kind]["metrics"]
            assert set(reported) == set(declared)
            for name, entry in reported.items():
                assert entry["unit"] == declared[name]
                assert math.isfinite(entry["value"])
                assert NAME.fullmatch(name) and UNIT.fullmatch(entry["unit"])
        assert all(entry["value"] > 0
                   for entry in passes["end_to_end"]["metrics"].values())


def test_no_run_fails_its_check(reports):
    for report in reports:
        for passes in report.values():
            for child in passes.values():
                assert child["correct"] and child["failed"] == 0
                assert child["attempted"] >= 1
                assert child["detail"]["failed_ops_share"] == 0
                assert child["exit_code"] == 0


def test_simulated_statistics_and_exact_counts_repeat(reports):
    first, second = reports
    for name in first:
        rows = exact_rows(first[name], second[name])
        assert len(rows) > 40
        assert [row for row in rows if row[1] != row[2]] == []


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only the benchmark, fail without a result."""
    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bare / name).write_bytes(
                open(os.path.join(HERE, name), "rb").read())
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "chain_commit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
