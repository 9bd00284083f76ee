"""Batch front-end: gen-data / maps / train / infer / ik / eval / augment / plot.

Every stage reads files written by earlier stages plus a JSON config and is
deterministic for a fixed seed. Exit codes: 1 usage, 2 bad data or schema,
3 numerical failure. The environment variable GEOMATCH_SEED, a JSON integer
like a config seed, overrides the configured seed everywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import FORMAT_VERSION, __version__
from . import dataset as ds
from . import evaluation as ev
from . import inference as inf
from . import model as gm
from .artifacts import parsing, read_json, read_jsonl, write_jsonl
from .contact_maps import DEFAULT_M, DEFAULT_THRESHOLD, build_contact_maps, save_maps
from .errors import DataError, GeomatchError, NumericalError, SchemaError
from .geometry import (DEFAULT_KNN_K, crop_table_top, estimate_normals,
                       knn_graph, load_cloud, perturb_cloud, save_cloud_csv)
from .ik import ik_result_to_dict, solve_ik
from .kinematics import N_KEYPOINTS, keypoint_positions, pose_from_dict

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


@dataclass
class RunConfig:
    """All pipeline hyperparameters; JSON files may override any subset."""

    seed: int = 0
    knn_k: int = DEFAULT_KNN_K
    m: int = DEFAULT_M
    threshold: float = DEFAULT_THRESHOLD
    squared_threshold: bool = False
    s_o: int = ds.DEFAULT_TOY_POINTS
    s_g: int = ds.DEFAULT_TOY_POINTS
    alpha: float = gm.DEFAULT_ALPHA
    beta: float = gm.DEFAULT_BETA
    lambda_a: float = gm.DEFAULT_LAMBDA_A
    lambda_b: float = gm.DEFAULT_LAMBDA_B
    lr: float = gm.DEFAULT_LR
    epochs: int = gm.DEFAULT_EPOCHS
    ranks: tuple = inf.DEFAULT_RANKS
    friction_mu: float = 0.5
    cone_edges: int = 8
    snap_radius: float = 0.01

    _RANGES = {
        "knn_k": (1, 64), "m": (1, 4096), "threshold": (1e-6, 1.0),
        "s_o": (16, 65536), "s_g": (16, 65536), "alpha": (0.0, 1e6),
        "beta": (0.0, 1e6), "lambda_a": (1e-9, 1e9), "lambda_b": (1e-9, 1e9),
        "lr": (1e-12, 1.0), "epochs": (1, 1_000_000),
        "friction_mu": (1e-9, 100.0), "cone_edges": (3, 64),
        "snap_radius": (1e-6, 1.0),
    }

    def validate(self) -> "RunConfig":
        for name, (lo, hi) in self._RANGES.items():
            value = getattr(self, name)
            if not lo <= value <= hi:
                raise SchemaError(f"config {name}={value} outside [{lo}, {hi}]")
        if any(r < 0 for r in self.ranks):
            raise SchemaError("ranks must be nonnegative")
        return self

    def eval_config(self) -> ev.EvalConfig:
        return ev.EvalConfig(friction_mu=self.friction_mu,
                             cone_edges=self.cone_edges,
                             snap_radius=self.snap_radius)


# JSON values each config type accepts: no bool as a number, no float as an int
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float)}


def _typed(path, key: str, value, kind: type):
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise SchemaError(f"{path}: config {key} must be a JSON {kind.__name__}, "
                          f"got {json.dumps(value)}")
    return kind(value)


def load_config(path=None, seed_override=None) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        doc = read_json(path)
        with parsing(path):
            unknown = set(doc) - {f.name for f in fields(RunConfig)}
            if unknown:
                raise SchemaError(f"{path}: unknown config keys {sorted(unknown)}")
            for key, value in doc.items():
                if key == "ranks":
                    if not isinstance(value, list):
                        raise SchemaError(f"{path}: config ranks must be a JSON list")
                    value = tuple(_typed(path, key, v, int) for v in value)
                else:
                    value = _typed(path, key, value, type(getattr(cfg, key)))
                setattr(cfg, key, value)
    env_seed = os.environ.get("GEOMATCH_SEED")
    if env_seed is not None:    # a JSON integer, like a config seed
        with parsing("GEOMATCH_SEED"):
            cfg.seed = _typed("GEOMATCH_SEED", "seed", json.loads(env_seed), int)
    if seed_override is not None:
        cfg.seed = int(seed_override)
    return cfg.validate()


def save_config(cfg: RunConfig, path) -> None:
    doc = {f.name: getattr(cfg, f.name) for f in fields(RunConfig)}
    doc["ranks"] = list(doc["ranks"])
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    cfg = load_config(args.config, args.seed)
    for key in ("s_o", "s_g"):
        if getattr(args, key) is not None:
            setattr(cfg, key, getattr(args, key))
    cfg.validate()
    object_ids = args.objects.split(",") if args.objects else None
    manifest = ds.generate_toy_dataset(cfg.seed, args.out, s_o=cfg.s_o, s_g=cfg.s_g,
                                       object_ids=object_ids,
                                       contact_threshold=cfg.threshold)
    print(f"wrote {len(manifest.records)} records, "
          f"{len(manifest.objects)} objects, "
          f"{len(manifest.end_effectors)} end-effectors to {args.out}")
    return 0


def cmd_maps(args) -> int:
    cfg = load_config(args.config, args.seed)
    manifest = ds.load_manifest(args.manifest)
    clouds = ds.load_object_clouds(manifest)
    ees = ds.load_ee_models(manifest, cfg.knn_k)
    os.makedirs(args.out, exist_ok=True)
    count = 0
    for i, record in enumerate(manifest.records):
        kp = keypoint_positions(ees[record.ee_id], record.pose)
        maps = build_contact_maps(clouds[record.object_id], kp, cfg.m,
                                  cfg.threshold, cfg.squared_threshold)
        save_maps(maps, os.path.join(
            args.out, f"{i:05d}_{record.object_id}_{record.ee_id}.json"))
        count += 1
    print(f"wrote {count} contact map files to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.seed)
    manifest = ds.load_manifest(args.manifest)
    if args.ee_filter:
        manifest = ds.filter_by_ee(manifest, args.ee_filter.split(","))
    samples = ds.load_records(manifest, split="train", m=cfg.m,
                              threshold=cfg.threshold, knn_k=cfg.knn_k,
                              squared_threshold=cfg.squared_threshold)
    model = gm.GeoMatchModel(seed=cfg.seed)
    os.makedirs(args.out, exist_ok=True)
    gm.train(model, samples, epochs=cfg.epochs, lr=cfg.lr, seed=cfg.seed,
             alpha=cfg.alpha, beta=cfg.beta, lambda_a=cfg.lambda_a,
             lambda_b=cfg.lambda_b,
             loss_csv=os.path.join(args.out, "loss.csv"),
             log_every=args.log_every)
    gm.save_model(model, args.out)
    save_config(cfg, os.path.join(args.out, "run_config.json"))
    print(f"trained on {len(samples)} samples for {cfg.epochs} epochs "
          f"-> {args.out}")
    return 0


def cmd_infer(args) -> int:
    cfg = load_config(args.config, args.seed)
    manifest = ds.load_manifest(args.manifest)
    model = gm.load_model(args.weights)
    ranks = args.ranks or cfg.ranks
    clouds = ds.load_object_clouds(manifest)
    ees = ds.load_ee_models(manifest, cfg.knn_k)
    object_ids = sorted(set(
        r.object_id for r in manifest.records_for_split(args.split)))
    proposals = []
    for obj_id in object_ids:
        graph = knn_graph(clouds[obj_id], cfg.knn_k)
        for ee_id in sorted(ees):
            proposals.extend(inf.propose_grasps(model, graph, ees[ee_id],
                                                ranks, object_id=obj_id))
    inf.save_proposals(proposals, args.out)
    print(f"wrote {len(proposals)} proposals ({len(object_ids)} objects x "
          f"{len(ees)} end-effectors x {len(ranks)} ranks) to {args.out}")
    return 0


def cmd_ik(args) -> int:
    cfg = load_config(args.config, args.seed)
    manifest = ds.load_manifest(args.manifest)
    clouds = ds.load_object_clouds(manifest)
    ees = ds.load_ee_models(manifest, cfg.knn_k)

    def job(doc):
        p = inf.proposal_from_dict(doc)
        return p, ees[p.ee_id], clouds[p.object_id]

    rows = []
    for p, ee, cloud in read_jsonl(args.proposals, job):
        result = solve_ik(ee, p.contact_points, cloud, max_iter=args.max_iter)
        row = ik_result_to_dict(result)
        # carry the proposal context so later stages need no extra inputs
        row.update(inf.proposal_to_dict(p))
        rows.append(row)
    write_jsonl(args.out, rows)
    converged = sum(1 for r in rows if r["status"] == "Converged")
    print(f"solved {len(rows)} IK problems ({converged} converged) "
          f"-> {args.out}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config, args.seed)
    manifest = ds.load_manifest(args.manifest)
    clouds = ds.load_object_clouds(manifest)
    ees = ds.load_ee_models(manifest, cfg.knn_k)

    def job(rep):
        row = {"object": rep["object"], "ee": rep["ee"], "rank": rep["rank"]}
        contacts = np.array([c["xyz"] for c in rep["contacts"]],
                            dtype=np.float64).reshape(N_KEYPOINTS, 3)
        return (row, pose_from_dict(rep["pose"]), ees[rep["ee"]],
                clouds[rep["object"]], contacts)

    jobs = read_jsonl(args.ik, job)
    eval_cfg = cfg.eval_config()
    os.makedirs(args.out, exist_ok=True)
    rows = []
    poses_by_ee: dict[str, list] = {}
    for row, pose, ee, cloud, contact_pts in jobs:
        outcome = ev.evaluate_grasp(cloud, ee, pose, eval_cfg)
        errors = np.linalg.norm(outcome.keypoints - contact_pts, axis=1)
        row.update(success=int(outcome.success),
                   active_contacts=len(outcome.active_contacts),
                   mean_contact_error_mm=round(float(errors.mean()) * 1000.0, 6))
        for tag, _ in ev.AXIS_DIRECTIONS:
            row[f"resisted_{tag}"] = int(outcome.resisted[tag])
        rows.append(row)
        if outcome.success:
            poses_by_ee.setdefault(row["ee"], []).append(pose)
    ev.write_eval_csv(rows, os.path.join(args.out, "evaluation.csv"))
    ev.write_eval_summary(rows, poses_by_ee,
                          os.path.join(args.out, "summary.json"))
    wins = sum(r["success"] for r in rows)
    print(f"evaluated {len(rows)} grasps: {wins} successes "
          f"-> {args.out}/evaluation.csv, summary.json")
    return 0


def cmd_augment(args) -> int:
    cfg = load_config(args.config, args.seed)
    if args.noise is None and not args.crop_table:
        raise SchemaError("augment: pass --noise SIGMA and/or --crop-table")
    cloud = load_cloud(args.cloud)
    if args.crop_table:
        cloud = crop_table_top(cloud)
    if args.noise is not None:
        cloud = perturb_cloud(cloud, args.noise, cfg.seed)
    if args.renormal:
        cloud = estimate_normals(cloud)
    save_cloud_csv(cloud, args.out)
    print(f"wrote augmented cloud ({len(cloud)} points) to {args.out}")
    return 0


def cmd_plot(args) -> int:
    history = gm.read_loss_csv(args.loss)
    if not history:
        raise SchemaError(f"{args.loss}: empty loss log")
    write_loss_curve_svg(history, args.out)
    print(f"wrote loss curve ({len(history)} epochs) to {args.out}")
    return 0


def write_loss_curve_svg(history: list[dict], path,
                         width: int = 640, height: int = 400) -> None:
    """Hand-emitted SVG: axes, tick labels and one polyline per series."""
    pad = 50
    series = [("loss_total", "#d62728"), ("loss_f", "#1f77b4"),
              ("loss_m", "#2ca02c")]
    xs = [row["epoch"] for row in history]
    all_vals = [row[name] for row in history for name, _ in series]
    lo, hi = min(all_vals), max(all_vals)
    if hi <= lo:
        hi = lo + 1.0
    x0, x1 = min(xs), max(xs)
    if x1 <= x0:
        x1 = x0 + 1

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - lo) / (hi - lo) * (height - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
             f'y2="{height - pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
             f'stroke="black"/>']
    for frac in (0.0, 0.5, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = lo + frac * (hi - lo)
        parts.append(f'<text x="{sx(xv):.1f}" y="{height - pad + 16}" '
                     f'font-size="11" text-anchor="middle">{xv:.0f}</text>')
        parts.append(f'<text x="{pad - 6}" y="{sy(yv):.1f}" font-size="11" '
                     f'text-anchor="end">{yv:.3g}</text>')
    parts.append(f'<text x="{width / 2:.0f}" y="{height - 12}" font-size="12" '
                 f'text-anchor="middle">epoch</text>')
    for name, color in series:
        pts = " ".join(f"{sx(r['epoch']):.2f},{sy(r[name]):.2f}"
                       for r in history)
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
    for i, (name, color) in enumerate(series):
        y = pad + 14 * i
        parts.append(f'<rect x="{width - pad - 90}" y="{y - 8}" width="10" '
                     f'height="10" fill="{color}"/>')
        parts.append(f'<text x="{width - pad - 76}" y="{y + 1}" '
                     f'font-size="11">{name}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _ranks(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(r) for r in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma list of integers: {text!r}") from None


def _positive_int(text: str) -> int:
    if not (text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"not an integer >= 1: {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geomatch",
                     description="grasp contact prediction pipeline")
    parser.add_argument("--version", action="version",
                        version=f"geomatch {__version__} "
                                f"(format v{FORMAT_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config overriding defaults")
        p.add_argument("--seed", type=int,
                       help="seed override (also via GEOMATCH_SEED; default 0)")

    p = sub.add_parser("gen-data", help="generate the synthetic toy dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--objects", help="comma list restricting the object set "
                                     "(default: all six primitives)")
    p.add_argument("--s-o", type=int, dest="s_o",
                   help="points per object cloud (default 256)")
    p.add_argument("--s-g", type=int, dest="s_g",
                   help="points per gripper cloud (default 256)")
    common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("maps", help="write per-record contact map files")
    p.add_argument("--manifest", required=True, help="dataset dir or manifest.json")
    p.add_argument("--out", required=True, help="output directory for map JSON files")
    common(p)
    p.set_defaults(func=cmd_maps)

    p = sub.add_parser("train", help="train the model on the train split")
    p.add_argument("--manifest", required=True, help="dataset dir or manifest.json")
    p.add_argument("--out", required=True, help="weights output directory")
    p.add_argument("--ee-filter", help="comma list of end-effector ids "
                                       "(default: all)")
    p.add_argument("--log-every", type=int, default=0,
                   help="print a loss line every N epochs (default 0 = quiet)")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="sample grasp proposals")
    p.add_argument("--weights", required=True, help="trained weights directory")
    p.add_argument("--manifest", required=True, help="dataset dir or manifest.json")
    p.add_argument("--split", default="val", choices=("train", "val", "all"),
                   help="object split to propose on (default val)")
    p.add_argument("--ranks", type=_ranks,
                   help="comma list of keypoint-0 score ranks (default 0,20,50,100)")
    p.add_argument("--out", required=True, help="output proposals JSONL file")
    common(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("ik", help="solve IK for each proposal")
    p.add_argument("--proposals", required=True, help="proposals JSONL from infer")
    p.add_argument("--manifest", required=True, help="dataset dir or manifest.json")
    p.add_argument("--max-iter", type=_positive_int, default=100,
                   help="solver iteration cap (default 100)")
    p.add_argument("--out", required=True, help="output IK reports JSONL file")
    common(p)
    p.set_defaults(func=cmd_ik)

    p = sub.add_parser("eval", help="wrench-feasibility evaluation")
    p.add_argument("--ik", required=True, help="IK reports JSONL from ik")
    p.add_argument("--manifest", required=True, help="dataset dir or manifest.json")
    p.add_argument("--out", required=True,
                   help="output directory (evaluation.csv, summary.json)")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("augment", help="noise / table-crop a point cloud")
    p.add_argument("--cloud", required=True, help="input cloud CSV or PLY")
    p.add_argument("--noise", type=float,
                   help="clipped Gaussian sigma in meters (e.g. 0.001)")
    p.add_argument("--crop-table", action="store_true",
                   help="remove points below (z_max - z_min) / 6")
    p.add_argument("--renormal", action="store_true",
                   help="re-estimate normals after augmentation")
    p.add_argument("--out", required=True, help="output cloud CSV file")
    common(p)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("plot", help="loss-curve SVG from a loss CSV")
    p.add_argument("--loss", required=True, help="loss CSV from train")
    p.add_argument("--out", required=True, help="output SVG file")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: cannot access file: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except GeomatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
