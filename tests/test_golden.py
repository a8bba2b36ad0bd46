"""CLI stdout and exit codes, byte for byte, against tests/golden/cli.json.

The recording covers the README's CLI examples, a few rational inputs and
every verify key at its defaults in text and json; tests/golden/capture.py
writes it and says when to record it again.
"""

import json
from pathlib import Path

import pytest

from pfecalc.cli import main
from pfecalc.identities import IDENTITY_KEYS

GOLDEN = Path(__file__).parent / "golden"
RECORDS = json.loads((GOLDEN / "cli.json").read_text())


def test_the_recording_covers_every_verify_key():
    assert {r["argv"][1] for r in RECORDS if r["argv"][0] == "verify"} >= set(IDENTITY_KEYS)


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_cli_output_matches_the_recording(record, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(record["argv"])
    assert (code, capsys.readouterr().out) == (record["exit"], record["stdout"])
