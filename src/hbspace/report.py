"""The base of every result that carries a certified number or verdict
(stdlib only)."""

from dataclasses import dataclass


@dataclass(kw_only=True)
class Report:
    """How a result is certified, in keyword-only fields after the result's own:
    ``residual``, the backward error of the reported value (None where the
    result has none); ``conclusive``, False where the verdict holds only for
    a truncation; ``note``, a caveat, printed by the CLI when not empty."""

    residual: float | None = None
    conclusive: bool = True
    note: str = ""
