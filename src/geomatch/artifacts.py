"""The one reader and writer of every JSON, JSON-lines and CSV artifact.

Readers extract fields inside `parsing(where)`, which turns what a
malformed file raises (a missing key, a wrong type, a value that does not
parse or fails a check like `finite_array`'s) into a `SchemaError` naming
`path` or `path:line`, so bad input exits with code 2; checks inside it
leave the location out. Only extraction, checks and lookups go inside it,
never solver or model code, whose own errors are program bugs.

Every JSON file has one layout, `write_json`'s: one-space indent, sorted
keys.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager

import numpy as np

from .errors import SchemaError


@contextmanager
def parsing(where):
    try:
        yield
    except KeyError as exc:
        raise SchemaError(f"{where}: missing or unknown key {exc}") from exc
    except (IndexError, TypeError, ValueError, OverflowError, SchemaError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def finite_array(values, what: str) -> np.ndarray:
    """`values` as a float64 array; SchemaError unless every entry is finite."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise SchemaError(f"{what} must be finite, got {arr.tolist()}")
    return arr


def read_json(path):
    with open(path) as fh, parsing(path):
        return json.load(fh)


def read_jsonl(path, parse) -> list:
    """`parse(doc)` for each non-blank line; errors name `path:line`."""
    out = []
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            if line.strip():
                with parsing(f"{path}:{ln}"):
                    out.append(parse(json.loads(line)))
    return out


def write_jsonl(path, docs) -> None:
    with open(path, "w") as fh:
        for doc in docs:
            fh.write(json.dumps(doc) + "\n")


def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
