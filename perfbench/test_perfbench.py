"""Tests of the benchmark itself: python3 -m pytest perfbench

They run a small copy of the pipeline (64-point clouds, two ranks), so they
take about half a minute.
"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

# run pins BLAS threads and puts src/ on the path before anything imports numpy
import run
import checks as ck
from layers import LAYERS, TrfProbe, per_layer_catalog
from speed import SpeedSampler
from tracer import Tracer

TINY = run.Workload("tiny", 64, 64, ("train", "infer", "ik", "eval"),
                    epochs=1, split="all", ranks="0,3")
TINY_PROPOSALS = 3 * 2 * 2      # objects x grippers x ranks


def test_benchmark_json_matches_the_runner():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["perfbench"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert list(run.CATALOG["workloads"]) == list(run.WORKLOADS)
    gated = {name: spec for name, spec in run.CATALOG["end_to_end"].items()
             if spec["gated"]}
    assert [m["name"] for m in doc["end_to_end"]] == list(gated)
    for metric in doc["end_to_end"]:
        spec = gated[metric["name"]]
        assert (metric["unit"], metric["better"]) == (spec["unit"], spec["better"])
        assert 0 < metric["bound"] <= 0.25
    assert doc["per_layer"] == per_layer_catalog()


def test_tracer_wraps_every_binding_and_restores_them():
    from geomatch import cli, contact_maps, dataset, evaluation, ik, kinematics
    from geomatch.model import GeoMatchModel

    originals = (ik.solve_ik, kinematics.keypoint_positions,
                 contact_maps.build_contact_maps, GeoMatchModel.encode)
    with Tracer(LAYERS, probes=[TrfProbe()]):
        assert cli.solve_ik is ik.solve_ik is not originals[0]
        assert (cli.keypoint_positions is dataset.keypoint_positions
                is ik.keypoint_positions is evaluation.keypoint_positions
                is kinematics.keypoint_positions is not originals[1])
        assert (cli.build_contact_maps is dataset.build_contact_maps
                is contact_maps.build_contact_maps is not originals[2])
        assert GeoMatchModel.encode is not originals[3]
    assert (ik.solve_ik, kinematics.keypoint_positions,
            contact_maps.build_contact_maps, GeoMatchModel.encode) == originals
    assert cli.solve_ik is originals[0]
    assert dataset.build_contact_maps is originals[2]


@pytest.fixture(scope="module")
def tiny_outputs(tmp_path_factory):
    """One set-up and one pass of the tiny workload; outputs kept on disk."""
    work = tmp_path_factory.mktemp("tiny")
    session = run.Session(TINY, 5, ck.Checks())
    setup = session.set_up(work / "setup")
    rec = session.run_pass(setup["dir"], work / "pass")
    session.check_outputs(rec, setup["dir"], TINY.epochs)
    return session, setup["dir"], rec


def test_clean_outputs_pass_every_check(tiny_outputs):
    session, _, rec = tiny_outputs
    assert session.checks.failures == []
    # stages, loss log, train summary, proposals, IK rows, eval count
    assert session.checks.attempted == 5 + 2 + 2 * TINY_PROPOSALS + 1
    assert rec["proposals"] == rec["ik_rows"] == rec["eval_rows"] == TINY_PROPOSALS


def _tamper(path: Path, edit) -> None:
    rows = ck.read_jsonl(path)
    edit(rows[0])
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def test_tampered_outputs_are_counted_not_raised(tiny_outputs, tmp_path):
    _, setup, rec = tiny_outputs
    manifest = run.ds.load_manifest(setup / "ds")
    props = tmp_path / "proposals.jsonl"
    props.write_text((rec["dir"] / "proposals.jsonl").read_text())
    _tamper(props, lambda r: r["contacts"][0].update(vertex=10 ** 6))
    reports = tmp_path / "ik.jsonl"
    reports.write_text((rec["dir"] / "ik.jsonl").read_text())
    _tamper(reports, lambda r: r["per_keypoint_mm"].__setitem__(0, 1e3))

    checks = ck.Checks()
    ck.check_proposals(checks, props, manifest)
    ck.check_ik_reports(checks, reports, manifest)
    ck.check_eval(checks, rec["dir"] / "eval" / "evaluation.csv", TINY_PROPOSALS + 1)
    assert checks.attempted == 2 * TINY_PROPOSALS + 1
    assert checks.failed == 3


def test_traced_counts_match_the_outputs():
    out = run.run_workload(TINY, 5, 0.0, trace=True)
    result, measured = out["result"], out["detail"]["measured"]
    assert out["detail"]["failures"] == []
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in per_layer_catalog()}
    assert metrics["inference.rollout.calls"] == TINY_PROPOSALS
    assert metrics["ik.solve_ik.calls"] == TINY_PROPOSALS
    assert metrics["evaluation.evaluate_grasp.calls"] == TINY_PROPOSALS
    assert metrics["ik.iterations"] > 0
    assert sum(metrics[f"ik.status.{s}"] for s in ("Converged", "MaxIterations",
                                                   "SmallStep")) == TINY_PROPOSALS
    assert 0.9 < metrics["trace.coverage_frac"] <= 1.0
    assert measured["passes"] == 1


def test_speed_sampler_takes_its_own_time_out():
    sampler = SpeedSampler()
    t0 = time.perf_counter()
    with sampler:
        while time.perf_counter() - t0 < 0.4:
            sum(range(1000))
    wall = time.perf_counter() - t0
    assert len(sampler.slowdowns) >= 5
    assert 0 < sampler.spent_s < wall / 2
    assert 0 < sampler.normalize(wall - sampler.spent_s)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_untraced_run_reports_the_gated_metrics():
    out = run.run_workload(TINY, 5, 0.0, trace=False)
    result, measured = out["result"], out["detail"]["measured"]
    assert out["detail"]["failures"] == []
    assert result["correct"] and result["failed"] == 0
    gated = [name for name, spec in run.CATALOG["end_to_end"].items() if spec["gated"]]
    assert list(result["metrics"]) == gated
    assert all(result["metrics"][name]["value"] > 0 for name in gated)
    assert measured["slowdown"] > 0
    assert set(measured) <= set(run.CATALOG["end_to_end"])
