"""``repro serve`` and ``repro-experiments`` share one formation flag group."""

from __future__ import annotations

import pytest

from repro.cli import build_parser as experiments_parser
from repro.cli import main as experiments_main
from repro.service.cli import build_parser as serve_parser
from repro.service.cli import main as serve_main

FLAGS = ("--backend", "--kernel-threads", "--shards", "--store")


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
        assert (ours.dest, ours.choices, ours.type, ours.metavar) == (
            theirs.dest, theirs.choices, theirs.type, theirs.metavar
        ), flag
        if flag != "--shards":
            assert (ours.default, ours.help) == (theirs.default, theirs.help)
    # The one per-script difference: serve caches 8 shard summaries,
    # experiments run unsharded unless asked.
    assert serve["--shards"].default == 8
    assert experiments["--shards"].default is None


@pytest.mark.parametrize(
    "argv",
    [
        ["--backend", "reference"],
        ["--store", "sparse"],
        ["--shards", "3"],
        ["--kernel-threads", "2"],
    ],
)
def test_both_clis_parse_the_same_values(argv):
    serve = serve_parser().parse_args(["serve", *argv])
    experiments = experiments_parser().parse_args(["fig1", *argv])
    dest = argv[0][2:].replace("-", "_")
    assert getattr(serve, dest) == getattr(experiments, dest)


@pytest.mark.parametrize("flag", ["--shards", "--kernel-threads"])
@pytest.mark.parametrize(
    "cli", [("repro serve", serve_main, "serve"),
            ("repro-experiments", experiments_main, "table3")],
    ids=["serve", "experiments"],
)
def test_non_positive_counts_exit_2_with_one_error_line(cli, flag, capsys):
    prog, main, command = cli
    with pytest.raises(SystemExit) as excinfo:
        main([command, flag, "0"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error" in line]
    assert errors == [
        f"{prog}: error: argument {flag}: must be a positive integer, got '0'"
    ]
    assert "Traceback" not in captured.err
    assert captured.out == ""
