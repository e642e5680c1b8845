"""The README's library example runs as written against the package's
exports."""

import pathlib
import re
import shlex

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text()
    match = re.search(r"^## Library example\n+```python\n(.*?)^```", text, re.S | re.M)
    assert match, "README.md has no python block under '## Library example'"
    return match.group(1)


def cli_commands() -> list[list[str]]:
    """The arguments of every command in the sh block under '## CLI',
    without the leading ``rosefold``."""
    match = re.search(r"^## CLI\n+```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    assert match, "README.md has no sh block under '## CLI'"
    commands = [shlex.split(line) for line in match.group(1).splitlines()]
    assert commands and all(argv[0] == "rosefold" for argv in commands)
    return [argv[1:] for argv in commands]


def test_library_example_runs():
    namespace: dict = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert namespace["trace"].terminal.has_rose_lift()
    assert str(namespace["witness"]) == "a1 a1"
    assert namespace["values"]
