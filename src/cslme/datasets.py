"""Bundled example data."""

from pathlib import Path


def sleepstudy_path() -> Path:
    """Long-format CSV of the public sleep-deprivation study.

    Columns: Reaction (ms), Days (0-9), Subject (18 ids); one row per
    subject-day.
    """
    return Path(__file__).parent / "data" / "sleepstudy.csv"
