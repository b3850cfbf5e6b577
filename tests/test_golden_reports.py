"""Seeded experiment reports pinned against a committed golden file.

``golden_reports.json`` holds the ``report_to_json`` output of each run in
``RUNS``: noiseless and noisy sampled runs, exact runs, and runs of one shot
per setting and batch.  Every number must match to 1e-12 and every string
(each batch status among them), integer, bool and None exactly.  A
tolerance rather than a hash, because LAPACK's last bits may differ between
machines.

The file changes only with a change that moves reports on purpose.  To
rewrite it from the code on the path, run ``python tests/test_golden_reports.py``:
it prints the largest absolute shift of each field against the file it
replaces, for the change to state.  With ``--check`` it prints the same
shifts against the committed file and writes nothing.
"""

import json
import math
import os
import subprocess
import sys
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
    assert set(statuses) == {"ok"}


def test_reports_match_golden_file():
    for entry in json.loads(GOLDEN.read_text()):
        assert_matches(report(entry["run"]), entry["report"], str(entry["run"]))


def largest_shifts(old, new, path="report", out=None) -> dict:
    """Per field of two reports, over every batch and matrix entry: the
    largest ``|new - old|`` between numbers, and how many entries changed
    otherwise (a string, bool or None that changed, or a NaN on one side
    only).  A field is its path with the list indices left out."""
    out = {} if out is None else out
    if isinstance(old, dict) and isinstance(new, dict):
        for key in old.keys() & new.keys():
            largest_shifts(old[key], new[key], f"{path}.{key}", out)
    elif isinstance(old, list) and isinstance(new, list):
        for o, n in zip(old, new):
            largest_shifts(o, n, f"{path}[]", out)
    else:
        shift, changed = out.get(path, (0.0, 0))
        if all(type(x) in (int, float) for x in (old, new)) and not math.isnan(old - new):
            shift = max(shift, abs(new - old))
        elif not (old == new or all(type(x) is float and math.isnan(x) for x in (old, new))):
            changed += 1
        out[path] = shift, changed
    return out


def test_largest_shifts_per_field():
    old = {"a": [1.0, 2.0], "s": "ok", "m": None, "f": math.nan, "n": math.nan}
    new = {"a": [1.5, 1.0], "s": "failed", "m": [[0.5]], "f": 0.25, "n": math.nan}
    assert largest_shifts(old, new) == {
        "report.a[]": (1.0, 0),
        "report.s": (0.0, 1),
        "report.m": (0.0, 1),
        "report.f": (0.0, 1),
        "report.n": (0.0, 0),
    }


def test_check_prints_shifts_and_writes_nothing():
    before = GOLDEN.read_bytes()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, __file__, "--check"],
                          env=env, capture_output=True, text=True, check=True)
    assert GOLDEN.read_bytes() == before
    # one line per field of the reports; test_reports_match_golden_file
    # bounds the shifts themselves
    fields = {}
    for entry in json.loads(before):
        largest_shifts(entry["report"], entry["report"], out=fields)
    assert {line.split(": ")[0] for line in done.stdout.splitlines()} == set(fields)


if __name__ == "__main__":
    entries = [{"run": run, "report": report(run)} for run in RUNS]
    if GOLDEN.exists():
        old = {json.dumps(e["run"]): e["report"] for e in json.loads(GOLDEN.read_text())}
        shifts = {}
        for entry in entries:
            if json.dumps(entry["run"]) in old:
                largest_shifts(old[json.dumps(entry["run"])], entry["report"], out=shifts)
        for path, (shift, changed) in sorted(shifts.items()):
            print(f"{path}: {shift:.3g}" + (f", {changed} changed otherwise" if changed else ""))
    if "--check" not in sys.argv[1:]:
        GOLDEN.write_text(json.dumps(entries) + "\n")
