"""The README's "Library use" example runs as written and prints the values
its comments give, its "Command line" usage block names each subcommand's
options in the parser's order with their defaults, and shows exactly its
mutually exclusive options as ``[A | B]``, every config in its "Scenario
config" section loads, and every error its code spans name exists."""

from __future__ import annotations

import argparse
import builtins
import contextlib
import io
import json
import re
from pathlib import Path

from bxsim import errors
from bxsim.cli import build_parser
from bxsim.model import Scenario, scenario_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_section(title: str) -> str:
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_use_runs_as_documented():
    section = readme_section("Library use")
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        for block in blocks:  # the second block reads the first one's names
            exec(block, namespace)
    out = printed.getvalue()
    assert out.startswith("0.263")
    assert re.search(r"^3\.9 0\.0999\d* 1\.95$", out, re.M)
    assert "\n[[10.0, 10.0], [10.0, 10.0]]\n" in out


def test_usage_block_matches_the_parser():
    # The usage block's first code block: "bxsim COMMAND" starts each
    # command, whose options may continue on the lines below it.
    block = re.search(r"```\n(bxsim .*?)```", readme_section("Command line"), re.S).group(1)
    usage = dict(re.findall(r"^bxsim (\w+)(.*?)(?=^bxsim |\Z)", block, re.S | re.M))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(usage) == sorted(sub.choices)
    for command, text in usage.items():
        shown = re.findall(r"(--[\w-]+)(?: ([^\s\[\]|-][^\s\[\]|]*))?", text)  # (option, value shown or "")
        actions = {a.option_strings[0]: a for a in sub.choices[command]._actions if a.option_strings and a.dest != "help"}
        assert [option for option, _ in shown] == list(actions), command  # in the parser's order
        for option, value in shown:
            action = actions[option]
            # An upper-case value (N, LIST) is a placeholder, not a default.
            if action.default is not None and value and not value.isupper():
                assert (action.type or str)(value) == action.default, (command, option)
        brackets = [sorted(re.findall(r"--[\w-]+", b)) for b in re.findall(r"\[([^\[\]]*\|[^\[\]]*)\]", text)]
        groups = [sorted(a.option_strings[0] for a in g._group_actions) for g in sub.choices[command]._mutually_exclusive_groups]
        assert sorted(brackets) == sorted(groups), command
        for option in {"--seeds", "--files"} & actions.keys():  # the lists that one grammar reads
            assert actions[option].help == "comma-separated nonnegative integers and ranges a-b of them", command


def test_scenario_configs_load():
    blocks = re.findall(r"```json\n(.*?)```", readme_section("Scenario config"), re.S)
    assert blocks
    for block in blocks:
        assert isinstance(scenario_from_dict(json.loads(block)), Scenario)


def test_code_spans_name_only_live_errors():
    named = set(re.findall(r"\b\w+Error\b", " ".join(re.findall(r"`[^`\n]+`", README.read_text()))))
    assert {"ValueError", "NoEquilibriumError", "StallError"} <= named
    assert sorted(name for name in named if not hasattr(builtins, name) and not hasattr(errors, name)) == []
