"""The byte-stable outputs of the CLI, checked in process through ``cli.main``.

Each row is an argv and the sha256 of the standard output it must print,
the same digests the CI workflow checks on ``python -m cka`` runs.
"""

import hashlib

import pytest

from cka.cli import main

LAW_REPORTS = [
    ((), "18ee3df3d0e90333f37536db3a371cad3cd67f70d087d36fa3e1cd0b68767470"),
    (
        ("--cases", "20", "--max-events", "4"),
        "a6d84e7e9f2832d0e724e0bbb5faf4c6ee8f53bcb3b5ffbeee2e46da633986d7",
    ),
    (
        ("--cases", "200", "--max-events", "5", "--seed", "7"),
        "7f8edbadbc7483963d8aae8afc0a53d8433c749040556af30409f8ffcfdbe71b",
    ),
    (
        ("--cases", "100", "--max-events", "7", "--seed", "3"),
        "86684e7ac4ee4e19ecf1e74621b6e84500d2b0626be58cc309452d5f1ac7c80e",
    ),
]


@pytest.mark.parametrize(
    "args, digest", LAW_REPORTS, ids=[" ".join(a) or "defaults" for a, _ in LAW_REPORTS]
)
def test_law_report_matches_its_pinned_digest(capsys, args, digest):
    code = main(["laws", *args])
    out = capsys.readouterr().out
    assert code == 0
    assert "result: PASS" in out.splitlines()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
