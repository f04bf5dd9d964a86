"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures.  They run
the full simulators, so every sweep is executed exactly once per benchmark
(``rounds=1``); pytest-benchmark still records the wall-clock cost, and the
rendered table for each figure is attached to the benchmark's ``extra_info``
and written to ``benchmarks/results/`` so the numbers can be inspected after
the run.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(__file__), capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


@pytest.fixture
def record_figure():
    """Return a helper that saves a rendered figure/table to disk."""
    def _record(name: str, text: str) -> str:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        return path

    return _record


TRAJECTORY_PATH = os.path.join(RESULTS_DIR, "trajectory.jsonl")


def _append_trajectory(document: dict) -> None:
    """Append one provenance-stamped record to ``trajectory.jsonl``.

    The trajectory is the long-lived, append-only history of benchmark
    numbers: one JSON line per recorded result, stamped like the result
    store's provenance (release, git sha, host, timestamp), so rates can
    be plotted across commits from the accumulated CI artifacts.
    """
    import repro
    from repro.store import current_git_sha, utc_now_iso

    record = dict(document)
    record["repro_version"] = repro.__version__
    record["git_sha"] = current_git_sha()
    record["created_at"] = utc_now_iso()
    with open(TRAJECTORY_PATH, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


@pytest.fixture
def record_results():
    """Return a helper that saves machine-readable results to disk.

    Writes ``benchmarks/results/<name>.json`` next to the rendered text
    tables and appends a provenance-stamped line to
    ``benchmarks/results/trajectory.jsonl``.  Every document carries the
    host fingerprint and the git revision so numbers archived from
    different runners (CI artifacts, laptops) stay attributable and
    comparable.
    """
    def _record(name: str, payload: dict) -> str:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        document = dict(payload)
        document.setdefault("benchmark", name)
        document["host"] = {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        }
        document["git_sha"] = _git_sha()
        path = os.path.join(RESULTS_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        _append_trajectory(document)
        return path

    return _record


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark and return its value."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


def interleaved_ratio(measure_a, measure_b, trials: int):
    """Median ratio of two rates measured in alternating trials.

    ``measure_a``/``measure_b`` each return one rate sample.  Taking them
    A, B, A, B, ... exposes both sides to the same host drift, and the
    median of the per-trial ratios ignores the odd trial a load spike
    hits (Georges, Buytaert and Eeckhout, "Statistically Rigorous Java
    Performance Evaluation", OOPSLA 2007).  Returns ``(median ratio,
    median rate A, median rate B, per-trial ratios)``.
    """
    samples = [(measure_a(), measure_b()) for _ in range(trials)]
    ratios = [a / b for a, b in samples]
    return (statistics.median(ratios),
            statistics.median(a for a, _ in samples),
            statistics.median(b for _, b in samples),
            ratios)
