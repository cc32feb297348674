"""Tests for the benchmark harness utilities."""

import pytest

from repro.bench import format_table, measure
from repro.errors import ParameterError


class TestMeasure:
    def test_returns_result(self):
        elapsed, result = measure(lambda: 42, repeat=2)
        assert result == 42
        assert elapsed >= 0.0

    def test_best_of_repeat(self):
        calls = []

        def fn():
            calls.append(1)
            return len(calls)

        _, result = measure(fn, repeat=3)
        assert len(calls) == 3
        assert result == 3

    def test_bad_repeat(self):
        with pytest.raises(ParameterError):
            measure(lambda: 1, repeat=0)


class TestFormatTable:
    def test_alignment_and_floats(self):
        out = format_table(
            [["naive", 1.23456789, 100], ["sweep", 0.001234, 100]],
            headers=["method", "seconds", "n"],
            title="Table X",
        )
        lines = out.splitlines()
        assert lines[0] == "Table X"
        assert "method" in lines[1]
        assert "1.235" in out  # 4 significant digits
        assert "0.001234" in out

    def test_ragged_rows_rejected(self):
        with pytest.raises(ParameterError, match="headers"):
            format_table([[1, 2]], headers=["a"])

    def test_empty_body(self):
        out = format_table([], headers=["a", "b"])
        assert "a" in out
