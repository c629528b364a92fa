"""The verdict ``tools/bench_record.py`` writes for each workload, on
synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "score", "better": "higher", "bound": 0.15},
]


def runs(wall, score):
    return [{"wall_s": w, "score": s} for w, s in zip(wall, score)]


def test_within_and_beyond_bound():
    base = runs([1.0, 1.02, 0.98, 1.01, 0.99], [10.0, 10.1, 9.9, 10.0, 10.05])
    # slower in every pair by 50 %; the score higher in four pairs of five
    change = runs([1.5, 1.53, 1.47, 1.5, 1.49], [10.1, 10.2, 9.8, 10.1, 10.1])
    v = bench_record.verdict(base, change, METRICS)
    assert v["wall_s"]["base_quartiles"] == [0.99, 1.0, 1.01]
    assert v["wall_s"]["base_median"] == 1.0 and v["wall_s"]["change_median"] == 1.5
    assert v["wall_s"]["move"] == pytest.approx(0.5)
    assert v["wall_s"]["better_pairs"] == 0
    assert v["wall_s"]["status"] == "beyond bound"
    assert v["score"]["move"] == pytest.approx(0.01)
    assert v["score"]["better_pairs"] == 4
    assert v["score"]["status"] == "within bound"


def test_gain_beyond_bound_and_unresolved_spread():
    base = runs([1.0, 1.0, 1.0, 1.0], [5.0, 10.0, 10.0, 20.0])
    change = runs([0.5, 0.5, 0.5, 0.5], [5.0, 10.0, 10.0, 20.0])
    v = bench_record.verdict(base, change, METRICS)
    assert v["wall_s"]["move"] == pytest.approx(-0.5)
    assert v["wall_s"]["better_pairs"] == 4
    assert v["wall_s"]["status"] == "beyond bound"
    # the base's interquartile range is 3.75 / 10 of its median, beyond 0.15
    assert v["score"]["status"] == "unresolved"
    assert v["score"]["better_pairs"] == 0
