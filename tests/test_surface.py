"""Every name that ``ramforge`` exports has a reader: a caller in another
line of ``src/ramforge`` (not its own ``def`` or ``class`` line, and not
``__init__.py``), the benchmark in ``perfbench/``, or the README, which
names each function kept without a caller in ``src`` and says why."""

import re
import types
from pathlib import Path

import ramforge

ROOT = Path(__file__).resolve().parents[1]


def exported():
    return sorted(name for name, value in vars(ramforge).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType))


def callers_text():
    texts = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py"))]
    texts.append((ROOT / "README.md").read_text(encoding="utf-8"))
    for path in sorted((ROOT / "src" / "ramforge").glob("*.py")):
        if path.name != "__init__.py":
            texts.append(path.read_text(encoding="utf-8"))
    return "\n".join(texts)


def has_reader(name, text):
    """Whether text names name on a line other than its own def or class line."""
    body = re.sub(rf"^\s*(?:def|class)\s+{name}\b.*$", "", text, flags=re.MULTILINE)
    return re.search(rf"\b{name}\b", body) is not None


def test_every_export_has_a_reader():
    text = callers_text()
    assert [name for name in exported() if not has_reader(name, text)] == []
