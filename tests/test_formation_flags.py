"""``repro serve`` and ``repro-experiments`` share one formation flag group."""

from __future__ import annotations

import pytest

from repro.cli import build_parser as experiments_parser
from repro.cli import main as experiments_main
from repro.service.cli import build_parser as serve_parser
from repro.service.cli import main as serve_main

FLAGS = ("--backend", "--kernel-threads", "--store")


def _formation_actions(parser) -> dict:
    if parser.prog == "repro":
        parser = parser._subparsers._group_actions[0].choices["serve"]
    return {
        action.option_strings[0]: action
        for action in parser._actions
        if action.option_strings and action.option_strings[0] in FLAGS
    }


def test_both_clis_define_the_same_flags_and_choices():
    serve = _formation_actions(serve_parser())
    experiments = _formation_actions(experiments_parser())
    assert set(serve) == set(experiments) == set(FLAGS)
    for flag in FLAGS:
        ours, theirs = serve[flag], experiments[flag]
        assert (ours.dest, ours.choices, ours.type, ours.metavar,
                ours.default, ours.help) == (
            theirs.dest, theirs.choices, theirs.type, theirs.metavar,
            theirs.default, theirs.help,
        ), flag


@pytest.mark.parametrize(
    "argv",
    [
        ["--backend", "reference"],
        ["--store", "sparse"],
        ["--kernel-threads", "2"],
    ],
)
def test_both_clis_parse_the_same_values(argv):
    serve = serve_parser().parse_args(["serve", *argv])
    experiments = experiments_parser().parse_args(["fig1", *argv])
    dest = argv[0][2:].replace("-", "_")
    assert getattr(serve, dest) == getattr(experiments, dest)


def _one_error_line(main, argv, capsys) -> str:
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error" in line]
    assert len(errors) == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""
    return errors[0]


@pytest.mark.parametrize(
    "cli, flag",
    [
        (("repro serve", serve_main, "serve"), "--kernel-threads"),
        (("repro-experiments", experiments_main, "table3"), "--kernel-threads"),
    ],
    ids=["serve-kernel-threads", "experiments-kernel-threads"],
)
def test_non_positive_counts_exit_2_with_one_error_line(cli, flag, capsys):
    prog, main, command = cli
    assert _one_error_line(main, [command, flag, "0"], capsys) == (
        f"{prog}: error: argument {flag}: must be a positive integer, got '0'"
    )


@pytest.mark.parametrize(
    "main, argv, prog",
    [
        (serve_main, ["serve"], "repro"),
        (experiments_main, ["table3"], "repro-experiments"),
    ],
    ids=["serve", "experiments"],
)
def test_neither_cli_has_a_shards_flag(main, argv, prog, capsys):
    error = _one_error_line(main, [*argv, "--shards", "4"], capsys)
    assert error == f"{prog}: error: unrecognized arguments: --shards 4"
