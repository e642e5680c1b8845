"""The README's library example runs as written against the package's
exports."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text()
    match = re.search(r"^## Library example\n+```python\n(.*?)^```", text, re.S | re.M)
    assert match, "README.md has no python block under '## Library example'"
    return match.group(1)


def test_library_example_runs():
    namespace: dict = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert namespace["trace"].terminal.has_rose_lift()
    assert str(namespace["witness"]) == "a1 a1"
    assert namespace["values"]
