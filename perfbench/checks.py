"""Checks on the files each pipeline stage writes.

A failed check is counted, not raised, so one bad output shows up in
`failed` / `attempted` while the run goes on and still reports its timings.
Outputs are parsed here with `csv` and `json`; only the inputs (clouds and
gripper models) and `keypoint_positions`, the function under test for IK,
come from the program.
"""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np

from geomatch import dataset as ds
from geomatch.kinematics import (PREGRASP_OFFSET, keypoint_positions,
                                 pose_from_dict, pregrasp_targets)

# the IK stage stores per-keypoint errors rounded only by float formatting
IK_ERROR_TOL_MM = 1e-6
TRAIN_LINE = re.compile(r"trained on (\d+) samples for (\d+) epochs")


class Checks:
    """Tally of attempted and failed operations with the failures' reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def read_jsonl(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def train_steps(stdout: str) -> int | None:
    """Samples x epochs from the `train` stage's summary line."""
    match = TRAIN_LINE.search(stdout)
    return int(match.group(1)) * int(match.group(2)) if match else None


def check_loss_log(checks: Checks, path, epochs: int) -> float:
    """One finite row per epoch, epochs numbered 1..n; returns the last loss."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    ok = len(rows) == epochs and all(
        int(r["epoch"]) == i + 1
        and all(math.isfinite(float(r[k])) for k in ("loss_total", "loss_f", "loss_m"))
        for i, r in enumerate(rows))
    checks.check(ok, f"{path}: expected {epochs} finite loss rows, got {len(rows)}")
    return float(rows[-1]["loss_total"]) if rows else math.nan


def check_proposals(checks: Checks, path, manifest) -> list[dict]:
    """Every contact vertex is in range and carries that vertex's coordinates."""
    clouds = ds.load_object_clouds(manifest)
    rows = read_jsonl(path)
    for i, row in enumerate(rows):
        pts = clouds[row["object"]].points
        ok = len(row["contacts"]) > 0
        for contact in row["contacts"]:
            v = contact["vertex"]
            ok = ok and 0 <= v < len(pts) and np.array_equal(pts[v], contact["xyz"])
        checks.check(ok, f"{path}:{i + 1}: contact vertex out of range or moved")
    return rows


def check_ik_reports(checks: Checks, path, manifest) -> list[dict]:
    """Per-keypoint error recomputed from the stored pose matches the report."""
    clouds = ds.load_object_clouds(manifest)
    ees = ds.load_ee_models(manifest)
    rows = read_jsonl(path)
    for i, row in enumerate(rows):
        contacts = np.array([c["xyz"] for c in row["contacts"]])
        targets = pregrasp_targets(contacts, clouds[row["object"]], PREGRASP_OFFSET)
        kp = keypoint_positions(ees[row["ee"]], pose_from_dict(row["pose"]))
        err_mm = np.linalg.norm(kp - targets, axis=1) * 1000.0
        reported = np.asarray(row["per_keypoint_mm"], dtype=np.float64)
        ok = (reported.shape == err_mm.shape
              and bool(np.all(np.abs(reported - err_mm) <= IK_ERROR_TOL_MM)))
        checks.check(ok, f"{path}:{i + 1}: per_keypoint_mm disagrees with the pose")
    return rows


def check_eval(checks: Checks, path, n_ik_rows: int) -> list[dict]:
    """As many evaluation rows as IK rows."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    checks.check(len(rows) == n_ik_rows,
                 f"{path}: {len(rows)} eval rows for {n_ik_rows} IK rows")
    return rows
