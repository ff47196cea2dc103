"""README.md states the user contract: it names every option, config key,
environment variable and error type, and its Quick start runs only commands
whose output the golden files pin."""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

import pytest

from test_cli import GOLDEN_RUNS
from litmetrics import errors
from litmetrics.cli import CONFIG_KEYS, build_parser

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def long_options(parser: argparse.ArgumentParser) -> set[str]:
    """The long options of ``parser`` and of its subcommands, but `--help`."""
    found = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= long_options(sub)
        found.update(o for o in action.option_strings if o.startswith("--") and o != "--help")
    return found


ERROR_TYPES = sorted(name for name, obj in vars(errors).items()
                     if isinstance(obj, type) and issubclass(obj, errors.LitmetricsError))
ENVIRONMENT = ("S2_API_KEY", "LLM_BASE_URL", "LLM_API_KEY")


@pytest.mark.parametrize("option", sorted(long_options(build_parser())))
def test_every_option_is_named(option):
    assert re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", README), option


@pytest.mark.parametrize("name", [*CONFIG_KEYS, *ENVIRONMENT, *ERROR_TYPES])
def test_every_config_key_environment_variable_and_error_type_is_named(name):
    assert f"`{name}`" in README, name


def test_the_error_types_are_found():
    assert {"LitmetricsError", "ParseError", "StorageError"} <= set(ERROR_TYPES)


def quick_start_runs() -> list[list[str]]:
    """The argv of each `litmetrics` line in the Quick start's fenced block,
    less the global options that pick the snapshot and the date."""
    section = README.split("\n## Quick start", 1)[1].split("\n## ", 1)[0]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    runs = []
    for line in block.splitlines():
        words = shlex.split(line)
        if words[:1] != ["litmetrics"]:
            continue
        argv, rest = [], iter(words[1:])
        for word in rest:
            if word in ("--db", "--now"):
                next(rest)
            elif word != "--offline" and not word.startswith(("--db=", "--now=")):
                argv.append(word)
        runs.append(argv)
    return runs


def test_the_quick_start_runs_only_golden_runs():
    runs = quick_start_runs()
    assert runs, "the Quick start names no litmetrics run"
    for argv in runs:
        assert argv in GOLDEN_RUNS.values(), argv
