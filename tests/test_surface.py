"""The public surface has callers: every name in katolab.__all__ is used by the
package itself, documented in README "Library" or "CLI", or called by the
acceptance tests or the benchmark, not only by the unit tests."""

import re
from pathlib import Path

import katolab

ROOT = Path(__file__).resolve().parents[1]


def _caller_lines():
    texts = [p.read_text() for p in sorted((ROOT / "src" / "katolab").glob("*.py"))
             if p.name != "__init__.py"]
    texts += [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    texts.append((ROOT / "tests" / "test_acceptance.py").read_text())
    readme = (ROOT / "README.md").read_text()
    texts += [part for part in re.split(r"^## ", readme, flags=re.M)
              if part.startswith(("CLI\n", "Library\n"))]
    return "\n".join(texts).splitlines()


def test_every_public_name_is_referenced_beyond_its_definition():
    lines = _caller_lines()

    def referenced(name):
        word, own = rf"\b{re.escape(name)}\b", rf"\s*(def|class) {re.escape(name)}\b"
        return any(re.search(word, line) and not re.match(own, line) for line in lines)

    assert [name for name in katolab.__all__ if not referenced(name)] == []
