"""The library example in README.md runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The python block of the README's "Library example" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under 'Library example'"
    return match.group(1)


def test_readme_library_example_runs():
    exec(compile(library_example(), "README.md", "exec"), {})
