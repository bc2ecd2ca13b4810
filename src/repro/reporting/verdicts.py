"""The developer's aggregated decision states.

:meth:`repro.reporting.server.ReportServer.verdict` returns one of these
with the offending key; the enum lives in its own module so the market
and the report pipeline share it without importing each other.
"""

from __future__ import annotations

import enum


class AggregatedVerdict(enum.Enum):
    CLEAN = "clean"
    SUSPECT = "suspect"          # a few reports; below action threshold
    TAKEDOWN = "takedown"        # enough evidence for a market request
