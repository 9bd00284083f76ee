#!/usr/bin/env python3
"""Stage-level benchmark of the geomatch pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload toy-train --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload drives the real CLI stages in-process through
`geomatch.cli.main`, on a dataset generated from `--seed`, in a fresh
single-threaded process (`--workload all` starts one per workload).

A run sets up several times and reports the median set-up time, then runs
passes of the workload's measured stages for up to `--seconds` (always at
least one) and reports medians over them. Every stage's exit code and
output files are checked; a failed check counts in `failed` / `attempted`
instead of stopping the run.

Untraced runs sample the machine's speed while each stage runs (speed.py).
The gated times, `setup_s` and `pass_norm_s`, are times at the reference
speed, so that the host's drift from one minute to the next does not move
them; the wall times are reported beside them.

With `--trace 0` the run is untraced and the last line of standard output
holds the end-to-end metrics of BENCHMARK.json. With `--trace 1` it makes
one untraced pass as a reference, then traces one set-up and one pass
(see layers.py) and reports the per-layer metrics; it also checks that the
traced call counts agree with the counts read from the outputs.

Every end-to-end quantity the run measures, including those BENCHMARK.json
does not gate because they exist on some workloads only, is printed with its
unit before the last line, followed by one JSON line with them, the machine
and the seed. metrics.json lists each with its unit, direction and the
workloads it applies to.
"""

import os
import time

T_START = time.perf_counter()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# must precede the first numpy import; the pipeline is single-threaded and
# the test suite pins BLAS the same way
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np
    from geomatch import cli
    from geomatch import dataset as ds
except ImportError as exc:
    sys.exit(f"perfbench: cannot import geomatch from {ROOT / 'src'}: {exc}")

import checks as ck
from layers import LAYERS, TrfProbe, per_layer_catalog, per_layer_values
from speed import SpeedSampler
from tracer import Layer, Tracer, difference

IMPORT_S = time.perf_counter() - T_START
CATALOG = json.loads((HERE / "metrics.json").read_text())
# a run sets up at least SETUP_MIN times and, while set-ups stay cheap, up
# to SETUP_MAX times or SETUP_BUDGET_S seconds: a median over more set-ups is
# steadier where each one takes a fraction of a second
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 3.0
TRIO = "sphere_small,sphere_large,cyl_wide"
# the one wrapper of untraced runs: it times the call inside the train stage
TRAIN_CALL = Layer("model.train", "geomatch.model", "train")
# How hard the IK problems are depends on the seed: one toy-grasp pass takes
# roughly 950 to 1850 solver iterations. pass_norm_s scales the ik stage to
# this many iterations, so that the seed's IK difficulty does not move it.
NOMINAL_IK_ITERATIONS = 1500


@dataclass(frozen=True)
class Workload:
    name: str
    s_o: int
    s_g: int
    stages: tuple            # measured stages of one pass, in order
    epochs: int = 1          # train epochs of one pass
    setup_epochs: int = 0    # train epochs inside set-up; 0 trains nothing
    split: str = "val"       # object split of the infer stage
    ranks: str = "0,20,50,100"


# The reason for each workload is in BENCHMARK.json and metrics.json.
WORKLOADS = {w.name: w for w in (
    Workload("toy-train", 128, 128, ("train",), epochs=3),
    Workload("paper-scale", ds.FULL_SCALE_POINTS_OBJECT,
             ds.FULL_SCALE_POINTS_GRIPPER, ("train", "infer"), epochs=1),
    Workload("toy-grasp", 128, 128, ("infer", "ik", "eval"), setup_epochs=1,
             split="all", ranks="0,10,20,35,50,70,100,120"),
)}


# ---------------------------------------------------------------------------
# stages, set-up and passes
# ---------------------------------------------------------------------------

def call_stage(argv):
    """Run one CLI stage in-process: (exit code, wall seconds, stdout)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main([str(a) for a in argv])
    except SystemExit as exc:       # argument errors exit through argparse
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:               # a raw traceback is a failed stage
        traceback.print_exc(file=sys.stderr)
        rc = -1
    return rc, time.perf_counter() - t0, out.getvalue()


def new_record(out_dir: Path) -> dict:
    out_dir.mkdir(parents=True)
    return {"dir": out_dir, "ok": True, "stage_s": {}, "norm_s": {}, "exit": {},
            "stdout": {}, "delta": {}, "train_call_s": 0.0, "sampling_s": 0.0}


class Session:
    """One workload at one seed: set-ups, passes and their output checks."""

    def __init__(self, wl: Workload, seed: int, checks: ck.Checks):
        self.wl = wl
        self.seed = seed
        self.checks = checks
        self.tracer = None          # the layer tracer, while it is installed
        self.timer = None           # the model.train timer, while installed
        self.speed = None           # the machine-speed sampler of untraced runs

    def stage(self, rec: dict, name: str, argv) -> bool:
        before = self.tracer.snapshot() if self.tracer else None
        t_before = self.timer.stats[TRAIN_CALL.label][1] if self.timer else 0.0
        if self.speed:
            with self.speed:
                rc, secs, out = call_stage(argv)
            secs -= self.speed.spent_s
            rec["sampling_s"] += self.speed.spent_s
            rec["norm_s"][name] = self.speed.normalize(secs)
        else:
            rc, secs, out = call_stage(argv)
            rec["norm_s"][name] = secs
        rec["stage_s"][name] = secs
        rec["exit"][name] = rc
        rec["stdout"][name] = out
        if before is not None:
            rec["delta"][name] = difference(self.tracer.snapshot(), before)
        if self.timer:
            rec["train_call_s"] += self.timer.stats[TRAIN_CALL.label][1] - t_before
        ok = self.checks.check(rc == 0, f"{name}: exit code {rc}")
        rec["ok"] = rec["ok"] and ok
        return ok

    def set_up(self, d: Path) -> dict:
        """Dataset from the seed and, where the workload needs them, weights."""
        rec = new_record(d)
        t0 = time.perf_counter()
        (d / "pass.json").write_text(json.dumps(
            {"seed": self.seed, "epochs": self.wl.epochs}))
        (d / "setup.json").write_text(json.dumps(
            {"seed": self.seed, "epochs": max(1, self.wl.setup_epochs)}))
        ok = self.stage(rec, "gen-data", [
            "gen-data", "--out", d / "ds", "--objects", TRIO,
            "--s-o", self.wl.s_o, "--s-g", self.wl.s_g, "--seed", self.seed])
        if ok and self.wl.setup_epochs:
            self.stage(rec, "train", [
                "train", "--manifest", d / "ds", "--out", d / "weights",
                "--config", d / "setup.json"])
        rec["s"] = time.perf_counter() - t0 - rec["sampling_s"]
        # the milliseconds outside the stages count at wall-clock speed
        rec["norm"] = (sum(rec["norm_s"].values()) + rec["s"]
                       - sum(rec["stage_s"].values()))
        return rec

    def run_pass(self, setup: Path, d: Path) -> dict:
        """The workload's measured stages, once, on the data of one set-up."""
        rec = new_record(d)
        common = ["--manifest", setup / "ds", "--config", setup / "pass.json"]
        weights = (d if "train" in self.wl.stages else setup) / "weights"
        argv = {
            "train": ["train", "--out", d / "weights", *common],
            "infer": ["infer", "--weights", weights, "--split", self.wl.split,
                      "--ranks", self.wl.ranks, "--out", d / "proposals.jsonl",
                      *common],
            "ik": ["ik", "--proposals", d / "proposals.jsonl",
                   "--out", d / "ik.jsonl", *common],
            "eval": ["eval", "--ik", d / "ik.jsonl", "--out", d / "eval", *common],
        }
        for i, name in enumerate(self.wl.stages):
            if not self.stage(rec, name, argv[name]):
                # every later stage reads this one's output
                for rest in self.wl.stages[i + 1:]:
                    self.checks.check(False, f"{rest}: not run after {name} failed")
                break
        rec["s"] = sum(rec["stage_s"].values())
        rec["norm"] = sum(rec["norm_s"].values())
        return rec

    def check_outputs(self, rec: dict, setup: Path, epochs: int) -> None:
        """Output checks of every stage of a set-up or pass that exited 0."""
        c, d = self.checks, rec["dir"]
        ran = {name for name, rc in rec["exit"].items() if rc == 0}
        manifest = ds.load_manifest(setup / "ds")
        if "train" in ran:
            rec["loss_last"] = ck.check_loss_log(c, d / "weights" / "loss.csv", epochs)
            rec["train_steps"] = ck.train_steps(rec["stdout"]["train"])
            c.check(rec["train_steps"] is not None, "train: no summary line")
        if "infer" in ran:
            rec["proposals"] = len(ck.check_proposals(c, d / "proposals.jsonl", manifest))
        if "ik" in ran:
            rows = ck.check_ik_reports(c, d / "ik.jsonl", manifest)
            rec["ik_rows"] = len(rows)
            rec["ik_iterations"] = sum(r["iterations"] for r in rows)
            rec["converged"] = sum(r["status"] == "Converged" for r in rows)
        if "eval" in ran:
            rows = ck.check_eval(c, d / "eval" / "evaluation.csv",
                                 rec.get("ik_rows", -1))
            rec["eval_rows"] = len(rows)
            rec["successes"] = sum(int(r["success"]) for r in rows)

    def check_trace_counts(self, rec: dict) -> None:
        """Traced call counts agree with the counts read from the outputs."""
        c, delta = self.checks, rec["delta"]
        pairs = []
        if "train_steps" in rec:
            pairs.append(("model.encode calls in train", delta["train"]["model.encode"][0],
                          rec["train_steps"]))
        if "proposals" in rec:
            pairs.append(("inference.rollout calls", delta["infer"]["inference.rollout"][0],
                          rec["proposals"]))
        if "ik_rows" in rec:
            pairs.append(("ik.solve_ik calls", delta["ik"]["ik.solve_ik"][0],
                          rec["ik_rows"]))
            pairs.append(("ik.iterations", delta["ik"]["ik.iterations"],
                          rec["ik_iterations"]))
        if "eval_rows" in rec:
            pairs.append(("evaluation.evaluate_grasp calls",
                          delta["eval"]["evaluation.evaluate_grasp"][0],
                          rec["eval_rows"]))
        for what, traced, expected in pairs:
            c.check(traced == expected, f"{what}: traced {traced}, outputs {expected}")


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    checks = ck.Checks()
    session = Session(wl, seed, checks)
    if not trace:
        session.speed = SpeedSampler()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-{seed}-", dir=WORK_ROOT))
    try:
        with Tracer([TRAIN_CALL]) as session.timer:
            setups = []
            while len(setups) < SETUP_MIN or (
                    len(setups) < SETUP_MAX
                    and sum(r["s"] for r in setups) < SETUP_BUDGET_S):
                setups.append(session.set_up(work / f"setup{len(setups)}"))
            for rec in setups:
                session.check_outputs(rec, rec["dir"], max(1, wl.setup_epochs))
            setup = setups[-1]["dir"]
            passes = []
            t0 = time.perf_counter()
            # start a pass only if it should end within the measuring window
            while setups[-1]["ok"] and (not passes or (
                    not trace and passes[-1]["ok"]
                    and time.perf_counter() - t0 + passes[-1]["s"] <= seconds)):
                rec = session.run_pass(setup, work / f"pass{len(passes)}")
                session.check_outputs(rec, setup, wl.epochs)
                shutil.rmtree(rec["dir"])
                passes.append(rec)
        session.timer = None
        measured = summarize(wl, setups, passes, session.speed)
        values = (traced_run(session, work, setups, passes) if trace
                  else end_to_end(measured))
        out = finish(checks, measured, values, seed)
        out["detail"]["samples"] = {
            "setup_s": [r["norm"] for r in setups],
            "setup_wall_s": [r["s"] for r in setups],
            "pass_norm_s": [norm_pass_s(r) for r in passes if r["ok"]],
            "pass_s": [r["s"] for r in passes]}
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced_run(session: Session, work: Path, setups, passes) -> dict:
    """Trace one set-up and one pass; per-layer metric values."""
    tracer = Tracer(LAYERS, probes=[TrfProbe()])
    session.tracer = tracer
    with tracer:
        t_setup = session.set_up(work / "traced-setup")
        t_pass = (session.run_pass(t_setup["dir"], work / "traced-pass")
                  if t_setup["ok"] else None)
    session.tracer = None
    stages = {}
    for rec, refs in ((t_setup, setups), (t_pass, passes[:1])):
        if rec is None:
            continue
        epochs = max(1, session.wl.setup_epochs) if rec is t_setup else session.wl.epochs
        session.check_outputs(rec, t_setup["dir"], epochs)
        session.check_trace_counts(rec)
        for name, secs in rec["stage_s"].items():
            ref = [r["stage_s"][name] for r in refs if name in r["stage_s"]]
            stages[name] = {"traced_s": secs, "delta": rec["delta"][name],
                            "untraced_s": statistics.median(ref) if ref else secs,
                            "proposals": rec.get("proposals", 0)}
    return per_layer_values(tracer, stages)


def norm_pass_s(rec: dict) -> float:
    """Pass time at the reference machine speed (speed.py), with the ik
    stage scaled to NOMINAL_IK_ITERATIONS."""
    times = dict(rec["norm_s"])
    if "ik" in times:
        times["ik"] *= NOMINAL_IK_ITERATIONS / max(1, rec["ik_iterations"])
    return sum(times.values())


def median_of(values) -> float:
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else 0.0


def summarize(wl: Workload, setups, passes, speed: SpeedSampler | None) -> dict:
    """Every end-to-end quantity of the untraced set-ups and passes."""
    ok = [p for p in passes if p["ok"]]
    last = ok[-1] if ok else {}

    def per_pass(fn):
        return median_of(fn(p) for p in ok)

    def stage(p, name):
        return p["stage_s"][name]

    out = {"setup_s": median_of(s["norm"] for s in setups),
           "setup_wall_s": median_of(s["s"] for s in setups),
           "pass_s": per_pass(lambda p: p["s"]),
           "pass_norm_s": per_pass(norm_pass_s),
           "slowdown": speed.median_slowdown() if speed else 1.0,
           "passes": len(ok),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "import_s": IMPORT_S}
    if "train" in wl.stages:
        out["train_samples_per_s"] = per_pass(
            lambda p: p["train_steps"] and p["train_steps"] / p["train_call_s"])
        out["train_stage_s"] = per_pass(lambda p: stage(p, "train"))
    loss_from = last if "train" in wl.stages else setups[-1]
    out["train_loss_last"] = loss_from.get("loss_last", 0.0)
    if "infer" in wl.stages:
        out["infer_proposals_per_s"] = per_pass(
            lambda p: p["proposals"] / stage(p, "infer"))
    if "ik" in wl.stages:
        out["ik_solves_per_s"] = per_pass(lambda p: p["ik_rows"] / stage(p, "ik"))
        out["ik_iterations"] = last.get("ik_iterations", 0)
        out["grasps_per_s"] = per_pass(lambda p: p["proposals"] / p["s"])
        out["ik_converged_n"] = last.get("ik_rows", 0)
        out["ik_converged_frac"] = last.get("converged", 0) / max(1, out["ik_converged_n"])
        out["grasp_success_n"] = last.get("eval_rows", 0)
        out["grasp_success_frac"] = last.get("successes", 0) / max(1, out["grasp_success_n"])
    return out


def end_to_end(measured: dict) -> dict:
    return {name: measured[name] for name, spec in CATALOG["end_to_end"].items()
            if spec["gated"]}


def finish(checks: ck.Checks, measured: dict, values: dict, seed: int) -> dict:
    units = {name: spec["unit"] for name, spec in CATALOG["end_to_end"].items()}
    units.update((m["name"], m["unit"]) for m in per_layer_catalog())
    measured["ops_failed_frac"] = checks.failed / max(1, checks.attempted)
    return {
        "detail": {"machine": machine(seed), "measured": measured,
                   "failures": checks.failures[:20]},
        "result": {"correct": checks.failed == 0 and measured["passes"] > 0,
                   "attempted": checks.attempted, "failed": checks.failed,
                   "metrics": {name: {"value": value, "unit": units[name]}
                               for name, value in values.items()}},
    }


# ---------------------------------------------------------------------------
# machine log
# ---------------------------------------------------------------------------

def machine(seed: int) -> dict:
    threads = {var: os.environ.get(var) for var in THREAD_VARS}
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_version(), "threads": threads,
            "blas_threads_pinned": all(v == "1" for v in threads.values()),
            "seed": seed, "git_commit": git_commit()}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def print_report(name: str, out: dict) -> None:
    measured = out["detail"]["measured"]
    specs = CATALOG["end_to_end"]
    print(f"== {name}: {measured['passes']} pass(es), "
          f"{out['result']['failed']}/{out['result']['attempted']} checks failed")
    for key, value in measured.items():
        unit = specs[key]["unit"] if key in specs else ""
        print(f"  {key:<24} {value:>14.6g} {unit}")
    machine_info = out["detail"]["machine"]
    if not machine_info["blas_threads_pinned"]:
        print(f"  WARNING: BLAS threads not pinned to 1: {machine_info['threads']}")
    for failure in out["detail"]["failures"]:
        print(f"  FAILED: {failure}")


def run_all(args) -> int:
    """Each workload in its own process; prints their reports."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"][name] = result["metrics"]
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="measuring window for passes (default 24)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    out = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace))
    print_report(args.workload, out)
    print(json.dumps(out["detail"], default=str))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
