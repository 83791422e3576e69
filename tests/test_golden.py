"""The CLI's output contract: one table, run in process through ``cli.main``.

Each row is an argv, the exit status, the standard output and, if
anything is written there, the last line of standard error.  The standard
output, with its ``elapsed-ms:`` lines dropped, is either the exact text
or a triple: a line prefix, how many lines start with it (``events:``
counts a star's generators) and the sha256 of the text (``None``: only
the count is pinned).  A change that alters an output on purpose edits
its row.  The checks that need a real process (a closed or full stdout,
an unreadable file, ``python -m cka`` and the imports a start pays for)
are subprocess tests in ``test_cli.py``, beside in-process tests that a
row cannot express, such as witness validity and call counts.
"""

import hashlib

import pytest

from cka.cli import main

ROWS = [
    (("lang", "a|b|c", "--max-display", "6"), 0, "a b c\na c b\nb a c\nb c a\nc a b\nc b a\n"),
    (("lang", "a|b|c", "--max-display", "2"), 0, "a b c\na c b\n# 4 more words omitted\n"),
    (("lang", "(" * 10000 + "a" + ")" * 10000), 0, "a\n"),
    (("lang", "a;;b"), 2, "", "error: unexpected token ';' (offset 2)"),
    (("lang", "a", "b"), 2, "", "cka: error: unrecognized arguments: b"),
    ((), 2, "", "cka: error: the following arguments are required: command"),
    (("star", "--help"), 0, ("usage: cka star", 1, None)),
    (
        ("equal", "a;b", "a|b", "--weak-dep", "a:b:c"),
        2,
        "",
        "error: bad dependence item 'a:b:c'; use label:label, 'full' or 'empty'",
    ),
    # The law reports; at nine events the shuffles draw 4-bit swap indices.
    (
        ("laws",),
        0,
        ("result: PASS", 1, "18ee3df3d0e90333f37536db3a371cad3cd67f70d087d36fa3e1cd0b68767470"),
    ),
    (
        ("laws", "--cases", "20", "--max-events", "4"),
        0,
        ("result: PASS", 1, "a6d84e7e9f2832d0e724e0bbb5faf4c6ee8f53bcb3b5ffbeee2e46da633986d7"),
    ),
    (
        ("laws", "--cases", "200", "--max-events", "5", "--seed", "7"),
        0,
        ("result: PASS", 1, "7f8edbadbc7483963d8aae8afc0a53d8433c749040556af30409f8ffcfdbe71b"),
    ),
    (
        ("laws", "--cases", "100", "--max-events", "7", "--seed", "3"),
        0,
        ("result: PASS", 1, "86684e7ac4ee4e19ecf1e74621b6e84500d2b0626be58cc309452d5f1ac7c80e"),
    ),
    (
        ("laws", "--cases", "100", "--max-events", "9", "--seed", "5"),
        0,
        ("result: PASS", 1, "58b8f90d6c768adafaac5635fc8d292a94848fb65445a5d1e4d9aa215af3b3d2"),
    ),
    # Bounded stars: 2^12 - 1, 13, 121, 2^14 - 1, C(14,3), C(31,2), 2^12 - 1,
    # 2^9 - 1, 2*8 - 1 and 1 generators.
    (
        ("star", "a+b", "12"),
        0,
        ("events:", 4095, "d55c642288068853c63a4419603dc5b7191580da9a776d84007fd368b7987212"),
    ),
    (
        ("star", "(a;b)|c+a|(b;c)+(a;c)|b", "3"),
        0,
        ("events:", 13, "4e1424425111ce87e53dc772af4ef89f0df9837446388a90d06f179342951928"),
    ),
    (
        ("star", "(a;b)|c+a|(b;c)+(a;c)|b", "5"),
        0,
        ("events:", 121, "5774e6a6cf8c291e03a8a5871a97ec145e4fa313ddb7d9ba18f4f7943926282f"),
    ),
    (
        ("star", "a+b", "14"),
        0,
        ("events:", 16383, "f17639507157b120070c1f59da176d62492b1ca9695f6374a7edf98b8b6497d3"),
    ),
    (
        ("star", "a+b+c", "12", "--op", "par"),
        0,
        ("events:", 364, "c627c118e533e4516ab1449a08e0e674142b37fe1d1383fd22c13e61102137d8"),
    ),
    (
        ("star", "a+b", "30", "--op", "par"),
        0,
        ("events:", 465, "d87a2535753938ff142486b2c1c7f71580a9765eaaf613c45453f0b0cb10dd51"),
    ),
    (
        ("star", "a;b+c", "12"),
        0,
        ("events:", 4095, "7ce3206004020e112647488eadfd6b47c6e927f3677df7cd1606b32c3a3085d7"),
    ),
    (
        ("star", "a|b+c", "9"),
        0,
        ("events:", 511, "ac09c0d00e1f863009931f5472f7709cd4184237874dae1a9a945731088c4de1"),
    ),
    (("star", "a+a;a", "8", "--op", "par"), 0, ("events:", 15, None)),
    (("star", "1", "1000000"), 0, "events:\n"),
    # Word counts 2^12 - 1, 9!/(3!3!3!) and the Catalan number C5.
    (("lang", "seqstar(a+b,12)", "--max-display", "0"), 0, "# 4095 more words omitted\n"),
    (("lang", "a|b|c|a|b|c|a|b|c", "--max-display", "0"), 0, "# 1680 more words omitted\n"),
    (("lang", "(a;b)|(a;b)|(a;b)|(a;b)|(a;b)", "--max-display", "0"), 0, "# 42 more words omitted\n"),
    # Refinement and equality between stars.
    (("refines", "seqstar(a+b,9)", "seqstar(a+b,10)"), 0, "holds\n"),
    (("refines", "seqstar(a+b,10)", "seqstar(a+b,9)"), 1, "fails\n"),
    (("equal", "seqstar(a+b,10)", "1+(a+b);seqstar(a+b,9)"), 0, "holds\n"),
    (("equal", "seqstar(a+b,10)", "seqstar(a+b,11)"), 1, "fails\n"),
]


def _row_id(row):
    shown = " ".join(row[0]) or "(no arguments)"
    return shown if len(shown) <= 60 else shown[:57] + "..."


@pytest.mark.parametrize("row", ROWS, ids=[_row_id(row) for row in ROWS])
def test_cli_output_matches_its_row(capsys, row):
    argv, status, out, *err = row
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's own exits
        code = exc.code
    captured = capsys.readouterr()
    lines = captured.out.splitlines(keepends=True)
    text = "".join(line for line in lines if not line.startswith("elapsed-ms:"))
    assert code == status
    if isinstance(out, str):
        assert text == out
    else:
        prefix, count, digest = out
        assert sum(line.startswith(prefix) for line in text.splitlines()) == count
        assert digest is None or hashlib.sha256(text.encode()).hexdigest() == digest
    assert captured.err.splitlines()[-1:] == err
