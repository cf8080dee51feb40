"""The bound checker on synthetic result sets."""

import json

import pytest

import compare

SPEC = {
    "end_to_end": [
        {"name": "run_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.1},
        {"name": "run_rps", "unit": "req/s", "better": "higher",
         "bound": 0.1},
    ]
}


def _write(tmp_path, tag, values):
    """One result file per run; ``values`` maps metric -> list of runs."""
    paths = []
    runs = len(next(iter(values.values())))
    for i in range(runs):
        doc = {"envelope": {}, "workloads": {"serve-small": {"metrics": {
            m: {"value": xs[i], "unit": "x"} for m, xs in values.items()
        }}}}
        path = tmp_path / f"{tag}{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return paths


def _verdicts(tmp_path, a, b):
    rows = compare.compare(_write(tmp_path, "a", a), _write(tmp_path, "b", b),
                           SPEC)
    return {r["metric"]: r["verdict"] for r in rows}


def test_same_distribution_passes(tmp_path):
    a = {"run_p50_ms": [10.0, 10.2, 9.9, 10.1, 10.0],
         "run_rps": [100, 101, 99, 100, 100]}
    b = {"run_p50_ms": [10.1, 9.95, 10.05, 10.2, 10.0],
         "run_rps": [100, 99, 101, 100, 102]}
    assert _verdicts(tmp_path, a, b) == {"run_p50_ms": "pass",
                                         "run_rps": "pass"}


def test_worse_median_past_the_bound_regresses_in_either_direction(tmp_path):
    a = {"run_p50_ms": [10.0, 10.2, 9.9, 10.1, 10.0],
         "run_rps": [100, 101, 99, 100, 100]}
    b = {"run_p50_ms": [11.5, 11.0, 12.0, 9.0, 11.6],
         "run_rps": [85, 86, 110, 84, 88]}
    assert _verdicts(tmp_path, a, b) == {"run_p50_ms": "regressed",
                                         "run_rps": "regressed"}


def test_better_median_passes(tmp_path):
    a = {"run_p50_ms": [10.0, 10.2, 9.9, 10.1, 10.0],
         "run_rps": [100, 101, 99, 100, 100]}
    b = {"run_p50_ms": [8.0, 8.1, 10.5, 8.2, 8.0],
         "run_rps": [120, 118, 95, 121, 119]}
    assert set(_verdicts(tmp_path, a, b).values()) == {"pass"}


def test_wide_reference_spread_is_unresolved(tmp_path):
    a = {"run_p50_ms": [8.0, 12.0, 10.0, 7.0, 13.0],
         "run_rps": [100, 101, 99, 100, 100]}
    b = {"run_p50_ms": [10.0, 9.0, 12.5, 8.0, 11.0],
         "run_rps": [100, 99, 101, 100, 102]}
    assert _verdicts(tmp_path, a, b)["run_p50_ms"] == "unresolved"


def test_wide_spread_still_passes_when_every_run_is_better(tmp_path):
    a = {"run_p50_ms": [8.0, 12.0, 10.0, 7.0, 13.0],
         "run_rps": [100, 101, 99, 100, 100]}
    b = {"run_p50_ms": [5.0, 6.0, 5.5, 6.5, 6.9],
         "run_rps": [100, 99, 101, 100, 102]}
    assert _verdicts(tmp_path, a, b)["run_p50_ms"] == "pass"


def test_quartiles_match_statistics_quantiles():
    assert compare.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
        (1.5, 3.0, 4.5))
    assert compare.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_main_exit_codes(tmp_path, capsys):
    a = _write(tmp_path, "a", {"run_p50_ms": [10.0, 10.1, 9.9]})
    same = _write(tmp_path, "s", {"run_p50_ms": [10.0, 10.05, 9.95]})
    worse = _write(tmp_path, "w", {"run_p50_ms": [13.0, 13.1, 12.9]})
    assert compare.main(a + ["--"] + same) == 0
    assert compare.main(a + ["--"] + worse) == 1
    assert compare.main(a) == 2
    assert "regressed" in capsys.readouterr().out
