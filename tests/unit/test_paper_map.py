"""docs/PAPER_MAP.md stays navigable: every line reference holds.

A reference is a backticked ``path.py:LINE`` — or ``:LINE``, continuing
the last path named before it on the same row — and every one must lie
inside its file.  A named reference is followed by a backticked symbol
in parentheses, for example ``src/repro/serving/replica.py:NNN``
(``ReplicaPool``).  The referenced line must name the symbol (its last
dotted component), so a reference goes stale the moment the code under
it moves, and this test says where each stale symbol is defined now.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PAPER_MAP = ROOT / "docs" / "PAPER_MAP.md"

_PATH = r"(?:src|tests|benchmarks|examples)/[\w/.]+\.py"
REFERENCE = re.compile(rf"`({_PATH})?:(\d+)`(?: \(`([A-Za-z_][\w.]*)`)?")
PATH = re.compile(rf"`({_PATH})")


def references():
    """``(row, path, line, symbol)`` for every reference; ``symbol`` is
    ``None`` for an unnamed one."""
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


def named_references():
    """``(row, path, line, symbol)`` for every named reference."""
    return [ref for ref in references() if ref[3] is not None]


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


def test_every_reference_lies_inside_its_file():
    refs = references()
    assert len(refs) > len(named_references())
    outside = []
    for row, path, line, _ in refs:
        n_lines = len((ROOT / path).read_text().splitlines())
        if not 1 <= line <= n_lines:
            outside.append(
                f"PAPER_MAP.md row {row}: {path}:{line} lies outside its "
                f"{n_lines} lines"
            )
    assert not outside, "\n".join(outside)
