"""docs/PAPER_MAP.md stays navigable: every named line reference holds.

A named reference is a backticked ``path.py:LINE`` — or ``:LINE``,
continuing the last path named before it on the same row — followed by
a backticked symbol in parentheses, for example
``src/repro/serving/replica.py:NNN`` (``ReplicaPool``).  The referenced
line must name the symbol (its last dotted component), so a reference
goes stale the moment the code under it moves, and this test says
where each stale symbol is defined now.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PAPER_MAP = ROOT / "docs" / "PAPER_MAP.md"

_PATH = r"(?:src|tests|benchmarks|examples)/[\w/.]+\.py"
REFERENCE = re.compile(rf"`({_PATH})?:(\d+)` \(`([A-Za-z_][\w.]*)`")
PATH = re.compile(rf"`({_PATH})")


def named_references():
    """``(row, path, line, symbol)`` for every named reference."""
    refs = []
    for row, text in enumerate(PAPER_MAP.read_text().splitlines(), start=1):
        for match in REFERENCE.finditer(text):
            path = match.group(1)
            if path is None:
                earlier = PATH.findall(text[: match.start()])
                assert earlier, f"row {row}: {match.group(0)} has no path before it"
                path = earlier[-1]
            refs.append((row, path, int(match.group(2)), match.group(3)))
    return refs


def definition_lines(source, name):
    name = re.escape(name)
    pattern = re.compile(rf"\s*(?:def|class)\s+{name}\b|\s*{name}\s*[:=]")
    return [i for i, text in enumerate(source, start=1) if pattern.match(text)]


def test_references_are_found():
    refs = named_references()
    assert len(refs) >= 50
    assert all((ROOT / path).is_file() for _, path, _, _ in refs)


def test_every_reference_names_its_symbol():
    stale = []
    for row, path, line, symbol in named_references():
        source = (ROOT / path).read_text().splitlines()
        name = symbol.split(".")[-1]
        named = line <= len(source) and re.search(
            rf"\b{re.escape(name)}\b", source[line - 1]
        )
        if not named:
            stale.append(
                f"PAPER_MAP.md row {row}: {path}:{line} does not name {symbol!r}"
                f" (defined at {definition_lines(source, name)})"
            )
    assert not stale, "\n".join(stale)
