"""Tests of the benchmark's own helpers.  Run with: python3 -m pytest bench"""

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import ROOT, p90  # noqa: E402
from spans import Tracer, layer_seconds  # noqa: E402


def test_p90_is_nearest_rank():
    assert p90(list(range(1, 101))) == 90
    assert p90([5.0]) == 5.0
    assert p90([3, 1, 2]) == 3


def test_layer_seconds_counts_nested_same_name_once():
    spans = [
        {"id": 0, "name": "a", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "b", "start": 1.0, "end": 4.0, "parent": 0},
        {"id": 2, "name": "a", "start": 2.0, "end": 3.0, "parent": 1},
        {"id": 3, "name": "b", "start": 5.0, "end": 6.0, "parent": 0},
    ]
    assert layer_seconds(spans) == {"a": 10.0, "b": 4.0}


def test_tracer_records_parents_through_wrapped_functions():
    class Box:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Box.inner(x) * 2

    t = Tracer("test")
    t.wrap(Box, "inner", "box.inner")
    assert t.call("box.outer", Box.outer, 1) == 4
    outer, inner = t.spans()
    assert (outer["name"], outer["parent"]) == ("box.outer", None)
    assert (inner["name"], inner["parent"]) == ("box.inner", outer["id"])
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert {s["run"] for s in (outer, inner)} == {"test"}


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    r = subprocess.run([sys.executable, *cmd[1:], "--workload", "cli-chain", "--seed", "1",
                        "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert r.returncode != 0
    assert '"correct"' not in r.stdout
