"""A tier-1 slice of `tests/survey.py`: three of its settings, 440 runs
in about a second, each held to the counts the estimator reaches today.

The paper row is the paper's depolarized (0.002, 5000) setting on its
six systems over 40 sampler seeds; the chain rows are 100 random linear
chains in exact mode and at 2000 shots.  The paper row has a few runs
more than 0.05 J off (6 of 240), so only its accuracy band is asserted.
"""
import pytest

from survey import settings, survey

SLICE = {
    # name: (runs, runs below the 85 % band, runs off by more than 0.05 J)
    "paper noisy p=0.002 shots=5000": (240, 0, None),
    "random chain exact": (100, 0, 0),
    "random chain shots=2000": (100, 0, 0),
}


@pytest.mark.parametrize("name", SLICE)
def test_survey_slice_counts(name):
    runs = dict(settings())[name]
    expected_runs, below_band, error_over_limit = SLICE[name]
    row = survey(runs)
    assert row["runs"] == expected_runs
    assert row["reasons"]["converged"] == expected_runs, row["reasons"]
    assert row["below_band"] == below_band
    if error_over_limit is not None:
        assert row["error_over_limit"] == error_over_limit
