"""User-side simulation: the decentralized half of the scheme.

The defense's power comes from difference D1/D2: thousands of diverse
devices playing every corner of the app.  This package simulates that
population -- play sessions on sampled devices (Table 3's time-to-first
-trigger), and the market (ratings, downloads, takedowns with remote
removal) of Section 4.2.  Developer reports reach the market through
the signed :mod:`repro.reporting` pipeline.
"""

from repro.userside.simulation import (
    PlaySession,
    FirstTriggerStats,
    simulate_first_triggers,
)
from repro.userside.market import Market, Listing, InstallRecord

__all__ = [
    "PlaySession",
    "FirstTriggerStats",
    "simulate_first_triggers",
    "Market",
    "Listing",
    "InstallRecord",
]
