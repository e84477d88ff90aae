"""The README's code examples run as written, and it names only live config keys."""

import os
import re

from conftest import ROOT

from adaptive_pp.cli import TOP_KEYS_OPTIONAL


def _python_block(section: str) -> str:
    """The first ```python block under the README heading `section`."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", body, re.S)
    assert match, f"no python block under '## {section}'"
    return match.group(1)


def test_library_use_snippet_runs():
    # the block ends in an assert that every audit passes
    exec(compile(_python_block("Library use"), "README.md", "exec"), {})


def test_readme_lists_exactly_the_optional_config_keys():
    # the "Optional:" paragraph introduces each key as `key` (...), or `sweep` block (...)
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    paragraph = text.split("\nOptional: ", 1)[1].split("\n\n", 1)[0]
    named = re.findall(r"`(\w+)`\s+(?:block\s+)?\(", paragraph)
    assert sorted(named) == sorted(TOP_KEYS_OPTIONAL)
