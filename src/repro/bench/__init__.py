"""Benchmark harness utilities: best-of timing and paper-style table printing."""

from .charts import ascii_chart
from .tables import format_table, print_table
from .timing import measure

__all__ = ["ascii_chart", "format_table", "measure", "print_table"]
