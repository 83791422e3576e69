import os
import random
import subprocess
import sys

import pytest

from cka import (
    LAWS,
    DependenceRelation,
    Morphism,
    SeqStar,
    brute_force_refines,
    contains,
    evaluate,
    lang_subset,
    language,
    par,
    pretty,
    program_from_text,
    program_to_text,
    seq,
    star,
    to_dot,
    weakseq,
)
from cka.cli import build_parser, example_strings, main
from cka.language import WordAutomaton
from cka.program import _kleene_chain
from cka.testkit import Law
import cka.cli
import cka.testkit
from test_expr import _random_expr


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_refines_holds(capsys):
    code, out, _ = run_cli(capsys, "refines", "a;b", "a|b")
    assert code == 0
    assert out.splitlines()[0] == "holds"


def test_refines_fails(capsys):
    code, out, _ = run_cli(capsys, "refines", "a|b", "a;b + b;a")
    assert code == 1
    assert out.splitlines()[0] == "fails"


def test_refines_self(capsys):
    code, out, _ = run_cli(capsys, "refines", "x", "x")
    assert code == 0


def test_refines_pomset_witness_is_printed_and_valid(capsys):
    cases = [
        ("a;b", "a|b", "witness: 0->0 1->1"),
        # Two witnesses exist; the search backtracks once before it finds this one.
        ("a;((a;a)|a)", "(a;a)|(a;a)", "witness: 0->0 1->3 2->1 3->2"),
    ]
    for x, y, witness in cases:
        code, out, _ = run_cli(capsys, "refines", x, y, "--pomset")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "holds"
        assert lines[1] == witness


def test_refines_pomset_empty_witness_has_no_trailing_space(capsys):
    code, out, _ = run_cli(capsys, "refines", "1", "1", "--pomset")
    assert code == 0
    assert out.splitlines()[:2] == ["holds", "witness:"]


def test_refines_pomset_failure_has_no_witness(capsys):
    code, out, _ = run_cli(capsys, "refines", "a|b", "a;b", "--pomset")
    lines = out.splitlines()
    assert code == 1
    assert lines[0] == "fails"
    assert not any(line.startswith("witness") for line in lines)


def test_refines_pomset_rejects_multi_generator(capsys):
    code, _, err = run_cli(capsys, "refines", "a+b", "a", "--pomset")
    assert code == 2
    assert "single generator" in err and "2 generators" in err


def test_named_examples(capsys):
    code, out, _ = run_cli(capsys, "refines", "P4", "N4")
    assert code == 1
    code, out, _ = run_cli(capsys, "refines", "N4", "P4")
    assert code == 0
    code, out, _ = run_cli(capsys, "equal", "N4", "P4")
    assert code == 1
    assert example_strings() is example_strings()


def test_equal_holds(capsys):
    code, out, _ = run_cli(capsys, "equal", "a+b", "b+a")
    assert code == 0
    assert out.splitlines()[0] == "holds"


def test_member(capsys):
    code, _, _ = run_cli(capsys, "member", "a;b", "a|b")
    assert code == 0
    code, _, _ = run_cli(capsys, "member", "a|b", "a;b")
    assert code == 1


def test_member_from_file(tmp_path, capsys):
    path = tmp_path / "chain.txt"
    path.write_text("events: a b\norder: 0 < 1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "member", "--file", str(path), "a|b")
    assert code == 0
    assert out.splitlines()[0] == "holds"


def test_lang_output_sorted(capsys):
    code, out, _ = run_cli(capsys, "lang", "a|b")
    assert code == 0
    assert out.splitlines() == ["a b", "b a"]


def test_lang_of_one_is_empty_line(capsys):
    code, out, _ = run_cli(capsys, "lang", "1")
    assert code == 0
    assert out == "\n"


def test_lang_star(capsys):
    code, out, _ = run_cli(capsys, "lang", "seqstar(a,3)")
    assert code == 0
    assert out.splitlines() == ["", "a", "a a"]


def test_lang_max_display(capsys):
    code, out, _ = run_cli(capsys, "lang", "a|b|c", "--max-display", "2")
    lines = out.splitlines()
    assert code == 0
    assert lines[:2] == ["a b c", "a c b"]
    assert lines[2] == "# 4 more words omitted"


def test_lang_rejects_negative_max_display(capsys):
    code, out, err = run_cli(capsys, "lang", "a", "--max-display", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --max-display must be nonnegative\n"


def test_lang_max_display_beyond_maxsize_lists_every_word(capsys):
    code, out, err = run_cli(capsys, "lang", "a", "--max-display", str(sys.maxsize + 1))
    assert (code, out, err) == (0, "a\n", "")
    code, out, _ = run_cli(capsys, "lang", "a|b", "--max-display", str(2**80))
    assert (code, out) == (0, "a b\nb a\n")


def test_lang_counts_words_only_under_max_display(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("count called")

    monkeypatch.setattr(WordAutomaton, "count", refuse)
    assert run_cli(capsys, "lang", "a|b") == (0, "a b\nb a\n", "")
    calls = []
    monkeypatch.setattr(WordAutomaton, "count", lambda self: calls.append(self) or 2)
    code, out, err = run_cli(capsys, "lang", "a|b", "--max-display", "1")
    assert (code, out, err) == (0, "a b\n# 1 more words omitted\n", "")
    assert len(calls) == 1


def test_dot_of_expression(capsys):
    code, out, _ = run_cli(capsys, "dot", "a;b")
    assert code == 0
    assert "e0 -> e1;" in out


def test_dot_named_example(capsys):
    code, out, _ = run_cli(capsys, "dot", "N4")
    assert code == 0
    assert "e0 -> e2;" in out and "e1 -> e3;" in out


def test_dot_antichain_has_no_edges(capsys):
    code, out, _ = run_cli(capsys, "dot", "a|b")
    assert code == 0
    assert "->" not in out


def test_equal_agrees_with_library_on_random_regressions(capsys):
    from cka import equals
    from cka.cli import _eval_operand
    from cka.partial_string import seq as seq_op

    pairs = [
        ("a;(b|c)", "(a;b)|c"),
        ("seqstar(a,2)+b", "b+1+a"),
        ("a|b|a", "a|a|b"),
        ("(a+b);c", "a;c + b;c"),
    ]
    for left, right in pairs:
        expected = equals(_eval_operand(left, seq_op), _eval_operand(right, seq_op))
        code, _, _ = run_cli(capsys, "equal", left, right)
        assert code == (0 if expected else 1)


def test_dot_rejects_multi_generator_with_count(capsys):
    code, _, err = run_cli(capsys, "dot", "a+b+c")
    assert code == 2
    assert "3 generators" in err


def test_dot_from_file(tmp_path, capsys):
    path = tmp_path / "n.txt"
    path.write_text(
        "events: a a b b\norder: 0 < 2\norder: 0 < 3\norder: 1 < 3\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "dot", "--file", str(path))
    assert code == 0
    assert "e0 -> e3;" in out


def test_dot_file_with_order_but_no_events_is_input_error(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("events:\norder: 0 < 1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "dot", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == "error: order pair (0, 1) outside events: the string has no events\n"


@pytest.mark.parametrize("pair", ["\u0661 < 0", "\uff10 < 1", "1_0 < 1", "-1 < 0"])
def test_dot_file_with_non_decimal_index_is_input_error(tmp_path, capsys, pair):
    path = tmp_path / "pair.txt"
    path.write_text(f"events: a b\norder: {pair}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "dot", "--file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed order line")


def test_dot_file_failure_is_input_error(tmp_path, capsys):
    path = tmp_path / "cycle.txt"
    path.write_text("events: a b\norder: 0 < 1\norder: 1 < 0\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "dot", "--file", str(path))
    assert code == 2
    assert "antisymmetry" in err


@pytest.mark.parametrize(
    "command, shown", [(["dot"], "  e0 -> e1;\n"), (["member", "a|b"], "holds\n")]
)
def test_file_with_byte_order_mark_is_read(tmp_path, capsys, command, shown):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbfevents: a b\norder: 0 < 1\n")
    code, out, err = run_cli(capsys, *command, "--file", str(path))
    assert (code, err) == (0, "")
    assert shown in out


@pytest.mark.parametrize("command", [["dot"], ["member", "a"]])
def test_file_with_self_loop_is_input_error(tmp_path, capsys, command):
    path = tmp_path / "loop.txt"
    path.write_text("events: a\norder: 0 < 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, *command, "--file", str(path))
    assert (code, out) == (2, "")
    assert "(0, 0) is not strict" in err


@pytest.mark.parametrize(
    "command, what",
    [(["dot", "a"], "an expression"), (["member", "a", "b"], "an element expression")],
)
def test_expression_and_file_together_is_input_error(tmp_path, capsys, command, what):
    path = tmp_path / "a.txt"
    path.write_text("events: a\n", encoding="utf-8")
    code, out, err = run_cli(capsys, *command, "--file", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: give either {what} or --file, not both\n"


def test_star_command_output(capsys):
    code, out, _ = run_cli(capsys, "star", "a", "3")
    assert code == 0
    assert out == "events:\n---\nevents: a\n---\nevents: a a\norder: 0 < 1\n"


def test_star_par_flag(capsys):
    code, out, _ = run_cli(capsys, "star", "a", "2", "--op", "par")
    assert code == 0
    assert "events: a" in out


def test_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "refines", "a ; $", "b")
    assert code == 2
    assert "offset 4" in err


def test_star_rejects_zero_bound(capsys):
    code, _, err = run_cli(capsys, "star", "a", "0")
    assert code == 2
    assert "at least 1" in err


def test_member_requires_element_or_file(capsys):
    code, _, err = run_cli(capsys, "member", "a|b")
    assert code == 2
    assert "required" in err


def test_laws_rejects_zero_cases(capsys):
    code, _, err = run_cli(capsys, "laws", "--cases", "0")
    assert code == 2
    assert "at least 1" in err


def test_example_names_are_plain_labels_inside_expressions(capsys):
    # as a sub-term, N4 is just a one-event label
    code, _, _ = run_cli(capsys, "equal", "N4;N4", "N4|N4")
    assert code == 1
    code, out, _ = run_cli(capsys, "lang", "N4;x")
    assert code == 0
    assert out.splitlines() == ["N4 x"]


def test_weak_dep_full_matches_strong_seq(capsys):
    code, _, _ = run_cli(capsys, "equal", "a;b", "a;b", "--weak-dep", "full")
    assert code == 0


def test_weak_dep_empty_turns_seq_into_par(capsys):
    code, _, _ = run_cli(capsys, "equal", "a;b", "a|b", "--weak-dep", "empty")
    assert code == 0
    code, _, _ = run_cli(capsys, "equal", "a;b", "a|b")
    assert code == 1


def test_weak_dep_pairs(capsys):
    # only a-before-b ordering is forced, so b;a behaves like b|a
    code, _, _ = run_cli(capsys, "equal", "b;a", "b|a", "--weak-dep", "a:b")
    assert code == 0
    code, _, _ = run_cli(capsys, "refines", "a;b", "a|b", "--weak-dep", "a:b")
    assert code == 0
    code, _, _ = run_cli(capsys, "equal", "a;b", "a|b", "--weak-dep", "a:b")
    assert code == 1


def test_weak_dep_stars_share_one_kleene_chain(capsys):
    # main reads the spec once, so both stars of a+b get one composition
    # object and so one chain: the bound-3 star reads the bound-4 star's.
    argv = ("equal", "seqstar(a+b,4)", "1+(a+b);seqstar(a+b,3)", "--weak-dep", "a:b")
    _kleene_chain.cache_clear()
    assert run_cli(capsys, *argv)[0] == 0
    info = _kleene_chain.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_laws_does_not_offer_weak_dep(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["laws", "--weak-dep", "a:b"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --weak-dep a:b" in capsys.readouterr().err


def test_a_valid_query_builds_only_its_subcommands_parser(capsys):
    valid = [
        ["refines", "a", "a"],
        ["equal", "a", "a"],
        ["member", "a", "a"],
        ["lang", "a"],
        ["dot", "a"],
        ["star", "a", "1"],
        ["laws", "--cases", "1"],
    ]
    build_parser.cache_clear()
    for argv in valid:
        assert main(argv) == 0, argv
    assert build_parser.cache_info().currsize == 0
    # Leftover arguments and top-level help are the full parser's to report.
    for argv in (["lang", "a", "b"], ["--help"]):
        build_parser.cache_clear()
        with pytest.raises(SystemExit):
            main(argv)
        assert build_parser.cache_info().currsize == 1, argv
    capsys.readouterr()


_SUBCOMMANDS = ("refines", "equal", "member", "lang", "dot", "star", "laws")
_ARGV_SHAPES = [[name, "--help"] for name in _SUBCOMMANDS] + [
    [],
    ["bogus"],
    ["--", "lang", "a"],
    ["lang"],
    ["lang", "a", "b"],
    ["lang", "a", "--bogus"],
    ["lang", "--max-display", "x", "a"],
    ["star", "a+b", "x"],
    ["star", "a+b", "3", "--op", "foo"],
    ["laws", "--weak-dep", "a:b"],
    ["lang", "a|b", "--max-d", "1"],
]


@pytest.mark.parametrize("columns", [None, "60"])
@pytest.mark.parametrize("argv", _ARGV_SHAPES, ids=" ".join)
def test_main_parses_as_the_full_parser_does(capsys, monkeypatch, argv, columns):
    # main against its route through the full parser alone, on this Python.
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)

    def outcome():
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    fast = outcome()
    monkeypatch.setattr(cka.cli, "_parse", lambda argv: build_parser().parse_args(argv))
    assert fast == outcome()


def test_weak_dep_bad_spec(tmp_path, capsys):
    code, _, err = run_cli(capsys, "equal", "a;b", "a;b", "--weak-dep", "nonsense")
    assert code == 2
    assert "bad dependence item" in err
    path = tmp_path / "a.txt"
    path.write_text("events: a\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "dot", "--file", str(path), "--weak-dep", "nonsense")
    assert (code, out) == (2, "")
    assert "bad dependence item" in err


def test_laws_report_is_byte_identical_across_runs(capsys):
    code1 = main(["laws", "--cases", "5", "--seed", "7"])
    out1 = capsys.readouterr().out
    code2 = main(["laws", "--cases", "5", "--seed", "7"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()
    assert "seed: 7" in out1
    assert "#law exchange pass" in out1


def test_laws_nonzero_exit_on_failure(capsys, monkeypatch):
    broken = [
        Law(law.name, law.group, lambda rng, cfg: False)
        if law.name == "par-commutative"
        else law
        for law in LAWS
    ]
    monkeypatch.setattr(cka.testkit, "LAWS", broken)
    code, out, _ = run_cli(capsys, "laws", "--cases", "2", "--seed", "3")
    assert code == 1
    assert "#law par-commutative fail" in out


@pytest.mark.parametrize(
    "name, fake, argv",
    [
        # A witness that fails revalidation is a bug, not a failing query.
        ("find_morphism", lambda *_: Morphism((0, 0, 0, 0)), ["--pomset", "N4", "P4"]),
        ("subset", lambda p, q: {}[p], ["a", "b"]),
    ],
)
def test_unexpected_exception_is_internal_error(capsys, monkeypatch, name, fake, argv):
    monkeypatch.setattr(cka.cli, name, fake)
    code, out, err = run_cli(capsys, "refines", *argv)
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cka", "refines", "a;b", "a|b"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "holds"


def test_closed_stdout_exits_141_silently():
    # The reader leaves after one line of a 4095-generator star.
    src = os.path.dirname(os.path.dirname(cka.cli.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cka", "star", "a+b", "12"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.readline().startswith(b"events:")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")


def test_no_stdout_at_all_is_not_an_error():
    # With descriptor 1 closed, sys.stdout is None and print writes nothing.
    src = os.path.dirname(os.path.dirname(cka.cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "cka", "lang", "a|b"],
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=lambda: os.close(1),
    )
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_output_exits_74_and_unreadable_file_exits_2(tmp_path):
    src = os.path.dirname(os.path.dirname(cka.cli.__file__))

    def run(*argv, stdout=subprocess.DEVNULL):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "cka", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        return proc.returncode, proc.stderr

    with open("/dev/full", "wb") as full:
        assert run("lang", "a|b", stdout=full) == (
            74, b"error: cannot write output: [Errno 28] No space left on device\n"
        )
    missing = tmp_path / "missing.txt"
    assert run("dot", "--file", str(missing)) == (
        2, f"error: [Errno 2] No such file or directory: {str(missing)!r}\n".encode()
    )
    assert run("dot", "--file", str(tmp_path)) == (
        2, f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n".encode()
    )


def test_startup_imports_no_dataclass_machinery():
    # The import a CLI start pays for, in an isolated interpreter.
    src = os.path.dirname(os.path.dirname(cka.cli.__file__))
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cka, cka.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, src], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_long_operator_chain_evaluates(capsys):
    code, out, err = run_cli(capsys, "dot", ";".join(["a"] * 1000))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert sum(" [label=" in line for line in lines) == 1000
    assert sum(" -> " in line for line in lines) == 999


def test_deep_parentheses_evaluate(capsys):
    code, out, err = run_cli(capsys, "lang", "(" * 3000 + "a" + ")" * 3000)
    assert (code, out, err) == (0, "a\n", "")


def _weak(a, b):
    dependence = DependenceRelation.of([(a, b)])
    return lambda x, y: weakseq(x, y, dependence)


# Each --weak-dep spelling, with the composition its ';' should mean.
_WEAK_DEP_SPELLINGS = [
    ((), seq),
    (("--weak-dep", "full"), seq),
    (("--weak-dep", "empty"), par),
    (("--weak-dep", "none"), par),
    (("--weak-dep", "a:b"), _weak("a", "b")),
    (("--weak-dep", "b:a"), _weak("b", "a")),
]


def test_cli_agrees_with_the_library_on_random_terms(capsys):
    def run(*argv):
        code, out, err = run_cli(capsys, *argv, *flag)
        assert code in (0, 1, 2), (argv, flag, err)
        return code, out

    verdicts = set()
    for seed in range(100):
        rng = random.Random(seed)
        e, f = (_random_expr(rng, 4, ("a", "b", "c"), 3) for _ in range(2))
        bound = rng.randint(1, 3)
        te, tf = pretty(e), pretty(f)
        for flag, compose in _WEAK_DEP_SPELLINGS:
            p, q = evaluate(e, compose), evaluate(f, compose)
            if any(g.n_events > 6 for g in p.generators + q.generators):
                continue
            holds = all(
                any(brute_force_refines(g, h) for h in q.generators)
                for g in p.generators
            )
            verdicts.add(holds)
            assert run("refines", te, tf)[0] == (0 if holds else 1)
            assert not holds or lang_subset(p, q)
            back = run("refines", tf, te)[0] == 0
            assert run("equal", te, tf)[0] == (0 if holds and back else 1)

            if len(p.generators) == 1:
                (g,) = p.generators
                assert run("member", te, tf)[0] == (0 if contains(q, g) else 1)
                assert run("dot", te) == (0, to_dot(g) + "\n")
            else:
                assert run("member", te, tf)[0] == 2
                assert run("dot", te) == (2, "")
            code, out = run("lang", te)
            assert code == 0
            assert sorted(out.splitlines()) == sorted(" ".join(w) for w in language(p))

            # Under --weak-dep, cka star still iterates with strong ';'.
            code, out = run("star", te, str(bound))
            assert code == 0
            result = program_from_text(out)
            assert result == star(p, seq, bound)
            assert program_to_text(result) + "\n" == out
            if not flag:
                assert out.rstrip("\n") == program_to_text(evaluate(SeqStar(e, bound)))
    assert verdicts == {True, False}
