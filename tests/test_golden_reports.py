"""Seeded experiment reports pinned against a committed golden file.

``golden_reports.json`` holds the ``report_to_json`` output of each run in
``RUNS``: noiseless and noisy sampled runs, exact runs, and the 8x8 seed-5
run whose failed batch keeps its status.  Every number must match to 1e-12
and every string (each batch status among them), integer, bool and None
exactly.  A tolerance rather than a hash, because LAPACK's last bits may
differ between machines.

The file changes only with a change that moves reports on purpose.  To
rewrite it from the code on the path, run ``python tests/test_golden_reports.py``.
"""

import json
import math
from pathlib import Path

from aaqpt.serialize import report_to_json
from aaqpt.tomography import NoiseModel, run_experiment

GOLDEN = Path(__file__).with_name("golden_reports.json")

NOISY = {"depolarizing_1q": 0.01, "depolarizing_2q": 0.03}

# keyword arguments of run_experiment; "noise" holds NoiseModel's
RUNS = [
    {"shots": 10240, "batches": 10, "seed": 7},
    {"shots": 10240, "batches": 10, "seed": 7, "noise": NOISY},
    {"shots": 2560, "batches": 5, "seed": 11},
    {"shots": 1280, "batches": 4, "seed": 9,
     "noise": {"depolarizing_1q": 0.2, "depolarizing_2q": 0.3}},
    {"shots": 64, "batches": 4, "seed": 3},
    {"shots": 64, "batches": 4, "seed": 11, "noise": NOISY},
    {"shots": 8, "batches": 8, "seed": 5},
    {"shots": 8, "batches": 8, "seed": 3},
    {"shots": 0, "batches": 1, "seed": 7, "exact": True},
    {"shots": 0, "batches": 10, "seed": 7, "exact": True, "noise": NOISY},
]


def report(run: dict) -> dict:
    kwargs = dict(run, noise=NoiseModel(**run.get("noise", {})))
    return report_to_json(run_experiment(**kwargs))


def assert_matches(got, want, path="report"):
    if isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)), path
        assert (math.isnan(got) and math.isnan(want)) or abs(got - want) <= 1e-12, (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def test_golden_file_covers_the_runs():
    golden = json.loads(GOLDEN.read_text())
    assert [entry["run"] for entry in golden] == RUNS
    statuses = [d["status"] for entry in golden for d in entry["report"]["batch_details"]]
    assert any(s.startswith("failed: ") for s in statuses)


def test_reports_match_golden_file():
    for entry in json.loads(GOLDEN.read_text()):
        assert_matches(report(entry["run"]), entry["report"], str(entry["run"]))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([{"run": run, "report": report(run)} for run in RUNS]) + "\n")
