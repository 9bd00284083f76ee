"""Nothing in `geomatch` but `artifacts` writes JSON or CSV, and its
readers name the file of every error they raise.

Every artifact's layout is decided in `artifacts.py`, so a format change
(such as a version stamp) lands in one place. The guard reads the package
source, in the style of `test_trace_names.py`, so a new hand-rolled writer
fails here first.
"""

import re
from pathlib import Path

import pytest

from geomatch.artifacts import parsing
from geomatch.errors import SchemaError

SRC = Path(__file__).resolve().parent.parent / "src" / "geomatch"
WRITERS = re.compile(r"\bjson\.dump\b|\bcsv\.(writer|DictWriter)\b")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_artifacts_writes_json_or_csv(path):
    hits = [ln for ln, line in enumerate(path.read_text().splitlines(), start=1)
            if WRITERS.search(line)]
    if path.name == "artifacts.py":
        assert hits, "artifacts.py should hold the writers"
    else:
        assert not hits, f"{path.name} writes JSON or CSV itself at lines {hits}"


@pytest.mark.parametrize("raised", [KeyError("pose"), IndexError("short row"),
                                    ValueError("not a float"),
                                    SchemaError("pose t must be finite")])
def test_parsing_names_the_location(raised):
    with pytest.raises(SchemaError) as info:
        with parsing("f.jsonl:3"):
            raise raised
    assert str(info.value).startswith("f.jsonl:3: ")
    assert str(info.value).count("f.jsonl") == 1
