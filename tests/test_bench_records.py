"""The committed BENCH_<topic>.json measurement records are well formed."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
# what a record needs to be rerun and read: how it was run, on what, and what it shows
REQUIRED = ("command", "protocol", "machine", "claim")


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_its_topic_and_protocol(path):
    record = json.loads(path.read_text())
    assert record["topic"] == path.stem.removeprefix("BENCH_")
    assert [key for key in REQUIRED if key not in record] == []
