"""Unit tests for the benchmark statistics and table rendering."""

import pytest

from repro.bench import Measurement, Table, format_value
from repro.bench.stats import median, median_ci, summarize


# ------------------------------------------------------------------- stats --
def test_median_odd_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert median([7.0]) == 7.0


def test_median_empty_rejected():
    with pytest.raises(ValueError):
        median([])
    with pytest.raises(ValueError):
        median_ci([])


def test_median_ci_single_sample():
    assert median_ci([5.0]) == (5.0, 5.0)


def test_median_ci_contains_median_and_shrinks():
    data20 = list(range(20))
    lo20, hi20 = median_ci(data20)
    assert lo20 <= median(data20) <= hi20
    data6 = list(range(6))
    lo6, hi6 = median_ci(data6)
    # More samples -> relatively tighter interval around the median.
    rel20 = (hi20 - lo20) / 19
    rel6 = (hi6 - lo6) / 5
    assert rel20 < rel6


def test_median_ci_tiny_samples_degenerate_to_range():
    data = [1.0, 2.0, 3.0]
    assert median_ci(data) == (1.0, 3.0)


def test_measurement_summary():
    m = summarize([3.0, 1.0, 2.0])
    assert isinstance(m, Measurement)
    assert m.median == 2.0
    assert m.n == 3
    lo, hi = m.ci95
    assert lo <= 2.0 <= hi


def test_identical_samples_collapse_ci():
    m = summarize([5.0] * 20)
    assert m.ci95 == (5.0, 5.0)


# ------------------------------------------------------------------- table --
def test_format_value():
    assert format_value(3) == "3"
    assert format_value("x") == "x"
    assert format_value(0.0) == "0"
    assert format_value(1234.5678) == "1235"
    assert "e" in format_value(1e-9)
    assert "e" in format_value(1e9)


def test_table_render_alignment_and_notes():
    t = Table("demo", ["a", "long_column"], notes=[])
    t.add_row(1, 2.5)
    t.add_row(100, 3.25e-7)
    t.add_note("hello")
    text = t.render()
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert "a" in lines[2] and "long_column" in lines[2]
    assert "note: hello" in text
    # All data lines have equal width.
    data_lines = lines[4:6]
    assert len(set(map(len, data_lines))) == 1


def test_table_row_width_validation():
    t = Table("t", ["a", "b"])
    with pytest.raises(ValueError):
        t.add_row(1)


def test_table_column_accessor():
    t = Table("t", ["x", "y"])
    t.add_row(1, 10)
    t.add_row(2, 20)
    assert t.column("y") == [10, 20]
    with pytest.raises(ValueError):
        t.column("z")
