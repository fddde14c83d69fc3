"""The README's documented paths work: its scenario, every ``euler-ss``
command of its command-line block, and its Python example, run in a
scratch directory."""

import re
import shlex
from pathlib import Path

from euler_ss.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_sections(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(),
                      flags=re.M | re.S)


def commands(block: str) -> list[list[str]]:
    """The ``euler-ss`` lines of a shell block, continuations joined, as
    argument lists without the program name."""
    text = block.replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("euler-ss ")]


def test_readme_scenario_commands_and_example(tmp_path, monkeypatch,
                                              capsys):
    (scenario,) = fenced_sections("json")
    (cli_block,) = [b for b in fenced_sections("sh") if "euler-ss" in b]
    (example,) = fenced_sections("python")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenario.json").write_text(scenario)
    argvs = commands(cli_block)
    assert [a[0] for a in argvs] == ["mesh", "mesh", "mesh", "simulate",
                                     "certify", "stability"]
    for argv in argvs:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if argv[0] in ("certify", "stability"):
            assert out.splitlines()[-1] == f"{argv[0]}: PASS"
    exec(compile(example, str(README), "exec"), {})
