"""The layers the traced run reports, and how their metrics are named.

Per-layer metrics (all totals over the traced set-up and the traced pass):

- `<layer>.calls` and, for timed layers, `<layer>.self_s`;
- `cli.<stage>.s`: wall time of each traced CLI stage;
- `inference.encodes_per_proposal`: encoder passes in `infer` per proposal;
- `ik.iterations`, `ik.accepted_step_frac`, `ik.status.<status>`: read from
  each `TrfResult` that `solve_trf` returns;
- `ik.fk_calls_per_iteration`: forward-kinematics calls made inside
  `solve_trf`, per solver iteration;
- `trace.overhead_frac` and `trace.coverage_frac`, overall and per stage
  (`trace.<stage>.*`): traced minus untraced wall time over untraced, and
  summed layer self time over traced wall time.

A quantity of a stage or layer that did not run in a workload reads 0.
"""

from __future__ import annotations

from tracer import Layer

STAGES = ("gen-data", "train", "infer", "ik", "eval")
IK_STATUSES = ("Converged", "MaxIterations", "SmallStep")

# Counted, not timed. A timed wrapper costs about 1.1 us per call and a
# counted one about 0.3 us (Python 3.11 on a 2-vCPU Xeon VM), so a function
# of under ~10 us per call is counted: quat_to_matrix takes ~10 us and runs
# ~3.6 times per forward-kinematics call, ~110k times in one toy-grasp ik
# stage. Every other layer costs at least ~15 us per call.
COUNTED = {"kinematics.quat_to_matrix"}

_SPECS = (
    ("dataset.generate_toy_dataset", "geomatch.dataset", "generate_toy_dataset"),
    ("dataset.load_records", "geomatch.dataset", "load_records"),
    ("contact_maps.build_contact_maps", "geomatch.contact_maps", "build_contact_maps"),
    ("geometry.build_knn_graph", "geomatch.geometry", "build_knn_graph"),
    ("geometry.normalize_adjacency", "geomatch.geometry", "normalize_adjacency"),
    ("sparse.matmul", "geomatch.sparse", "SparseCOO.matmul"),
    ("sparse.rmatmul", "geomatch.sparse", "SparseCOO.rmatmul"),
    ("diffnet.matmul", "geomatch.diffnet", "matmul"),
    ("diffnet.backward", "geomatch.diffnet", "backward"),
    ("diffnet.adam_step", "geomatch.diffnet", "adam_step"),
    ("diffnet.gather_rows", "geomatch.diffnet", "gather_rows"),
    ("diffnet.concat_cols", "geomatch.diffnet", "concat_cols"),
    ("diffnet.glorot_init", "geomatch.diffnet", "glorot_init"),
    ("diffnet.load_weights", "geomatch.diffnet", "load_weights"),
    ("rng.randoms", "geomatch.rng", "Rng.randoms"),
    ("model.init", "geomatch.model", "GeoMatchModel.__init__"),
    ("model.encode", "geomatch.model", "GeoMatchModel.encode"),
    ("model.ar_logits", "geomatch.model", "GeoMatchModel.ar_logits"),
    ("model.total_loss", "geomatch.model", "GeoMatchModel.total_loss"),
    ("model.load_model", "geomatch.model", "load_model"),
    ("inference.propose_grasps", "geomatch.inference", "propose_grasps"),
    ("inference.rollout", "geomatch.inference", "rollout"),
    ("kinematics.forward_kinematics", "geomatch.kinematics", "forward_kinematics"),
    ("kinematics.keypoint_positions", "geomatch.kinematics", "keypoint_positions"),
    ("kinematics.quat_to_matrix", "geomatch.kinematics", "quat_to_matrix"),
    ("ik.solve_ik", "geomatch.ik", "solve_ik"),
    ("ik.solve_trf", "geomatch.ik", "solve_trf"),
    ("ik.numeric_jacobian", "geomatch.ik", "numeric_jacobian"),
    ("evaluation.evaluate_grasp", "geomatch.evaluation", "evaluate_grasp"),
    ("evaluation.nonnegative_combination_exists", "geomatch.evaluation",
     "nonnegative_combination_exists"),
)

LAYERS = tuple(Layer(label, module, attr, timed=label not in COUNTED)
               for label, module, attr in _SPECS)


class TrfProbe:
    """Reads every `TrfResult` returned by `solve_trf` into tracer counters."""

    label = "ik.solve_trf"

    def attach(self, tracer) -> None:
        self._counters = tracer.counters
        self._fk = tracer.stats["kinematics.forward_kinematics"]
        for key in ("ik.iterations", "ik.accepted_steps", "ik.fk_calls_in_trf",
                    *(f"ik.status.{s}" for s in IK_STATUSES)):
            self._counters[key] = 0

    def wrap(self, fn):
        counters, fk = self._counters, self._fk

        def probed(*args, **kwargs):
            before = fk[0]
            result = fn(*args, **kwargs)
            counters["ik.fk_calls_in_trf"] += fk[0] - before
            counters["ik.iterations"] += result.iterations
            # x_history holds the start point and then each accepted iterate
            counters["ik.accepted_steps"] += len(result.x_history) - 1
            key = f"ik.status.{result.status}"
            counters[key] = counters.get(key, 0) + 1
            return result

        return probed


def per_layer_catalog() -> list[dict]:
    """Every per-layer metric: name, unit and better direction, in order."""
    out = [{"name": f"cli.{stage}.s", "unit": "s", "better": "lower"}
           for stage in STAGES]
    for layer in LAYERS:
        out.append({"name": f"{layer.label}.calls", "unit": "count",
                    "better": "lower"})
        if layer.timed:
            out.append({"name": f"{layer.label}.self_s", "unit": "s",
                        "better": "lower"})
    out += [
        {"name": "inference.encodes_per_proposal", "unit": "ratio", "better": "lower"},
        {"name": "ik.iterations", "unit": "count", "better": "lower"},
        {"name": "ik.fk_calls_per_iteration", "unit": "calls/iteration",
         "better": "lower"},
        {"name": "ik.accepted_step_frac", "unit": "fraction", "better": "higher"},
    ]
    out += [{"name": f"ik.status.{s}", "unit": "count",
             "better": "higher" if s == "Converged" else "lower"}
            for s in IK_STATUSES]
    for scope in ("", *(f"{stage}." for stage in STAGES)):
        out.append({"name": f"trace.{scope}overhead_frac", "unit": "fraction",
                    "better": "lower"})
        out.append({"name": f"trace.{scope}coverage_frac", "unit": "fraction",
                    "better": "higher"})
    return out


def per_layer_values(tracer, stages: dict) -> dict:
    """Per-layer metric values from a tracer and its traced stages.

    `stages` maps a stage name to a dict with the stage's traced wall time
    `traced_s`, the untraced wall time of the same stage `untraced_s`, and
    the tracer snapshot difference `delta` over the stage.
    """
    snap = tracer.snapshot()
    values = {}
    for stage in STAGES:
        values[f"cli.{stage}.s"] = stages[stage]["traced_s"] if stage in stages else 0.0
    for layer in LAYERS:
        calls, _, self_s = snap[layer.label]
        values[f"{layer.label}.calls"] = calls
        if layer.timed:
            values[f"{layer.label}.self_s"] = self_s
    infer = stages.get("infer")
    proposals = infer["proposals"] if infer else 0
    encodes = infer["delta"]["model.encode"][0] if infer else 0
    values["inference.encodes_per_proposal"] = _ratio(encodes, proposals)
    iterations = snap["ik.iterations"]
    values["ik.iterations"] = iterations
    values["ik.fk_calls_per_iteration"] = _ratio(snap["ik.fk_calls_in_trf"], iterations)
    values["ik.accepted_step_frac"] = _ratio(snap["ik.accepted_steps"], iterations)
    for status in IK_STATUSES:
        values[f"ik.status.{status}"] = snap[f"ik.status.{status}"]
    traced = untraced = covered = 0.0
    for stage in STAGES:
        info = stages.get(stage)
        if info is None:
            values[f"trace.{stage}.overhead_frac"] = 0.0
            values[f"trace.{stage}.coverage_frac"] = 0.0
            continue
        layer_s = tracer.self_time(info["delta"])
        values[f"trace.{stage}.overhead_frac"] = _ratio(
            info["traced_s"] - info["untraced_s"], info["untraced_s"])
        values[f"trace.{stage}.coverage_frac"] = _ratio(layer_s, info["traced_s"])
        traced += info["traced_s"]
        untraced += info["untraced_s"]
        covered += layer_s
    values["trace.overhead_frac"] = _ratio(traced - untraced, untraced)
    values["trace.coverage_frac"] = _ratio(covered, traced)
    return values


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0
