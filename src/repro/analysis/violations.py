"""Violation records emitted by reprolint rules.

A :class:`Violation` is a single finding: a rule identifier, a location
(path/line/column), the enclosing symbol (used for stable baseline
fingerprints that survive line-number churn) and a human-readable message.
"""

from __future__ import annotations

import dataclasses

__all__ = ["Violation", "PARSE_ERROR_ID"]

#: Pseudo-rule id reported when a file cannot be parsed at all.
PARSE_ERROR_ID = "RPR000"


@dataclasses.dataclass(frozen=True)
class Violation:
    """One static-analysis finding, addressable by ``path:line:col``."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    symbol: str = "<module>"

    def fingerprint(self) -> tuple[str, str, str]:
        """Line-number-free identity used to match baseline entries."""
        return (self.path, self.rule_id, self.symbol)

    def to_dict(self) -> dict:
        """JSON-serialisable representation (the ``--format json`` shape)."""
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
        }

    def render(self) -> str:
        """One-line ``path:line:col: RULE message (in symbol)`` rendering."""
        where = f" (in {self.symbol})" if self.symbol != "<module>" else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}{where}"
