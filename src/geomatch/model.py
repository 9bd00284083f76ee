"""The grasp-matching network and its training objective.

Two GCN encoders (object, gripper) produce per-vertex embeddings that a
bias-free linear layer projects down; contact likelihood is the dot product
between object-vertex and gripper-keypoint embeddings. Keypoints 1..5 get
autoregressive MLP heads fed with distances to the previously chosen
contacts; keypoint 0's marginal is its score-map column.
"""

from __future__ import annotations

import csv
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from . import diffnet as dn
from .artifacts import parsing, read_json, write_csv, write_json
from .contact_maps import ContactMapSet
from .errors import EmptyDataset, IndexOutOfRange, SchemaError
from .geometry import GeometryGraph
from .kinematics import EndEffectorModel, N_KEYPOINTS, Pose
from .rng import Rng

DEFAULT_ALPHA = 0.5
DEFAULT_BETA = 0.5
DEFAULT_LAMBDA_A = 500.0
DEFAULT_LAMBDA_B = 200.0
DEFAULT_LR = 1e-4
DEFAULT_EPOCHS = 200

_LOG = logging.getLogger(__name__)


@dataclass(frozen=True)
class ModelConfig:
    """Layer widths; defaults are the full-size network."""

    gcn_hidden: tuple[int, ...] = (256, 256, 256)
    gcn_out: int = 512
    proj_dim: int = 64
    ar_hidden: tuple[int, ...] = (256, 256, 256)

    @property
    def distance_slots(self) -> int:
        return N_KEYPOINTS - 1

    @property
    def ar_input_dim(self) -> int:
        return 2 * self.proj_dim + self.distance_slots

    def to_dict(self) -> dict:
        return {"gcn_hidden": list(self.gcn_hidden), "gcn_out": self.gcn_out,
                "proj_dim": self.proj_dim, "ar_hidden": list(self.ar_hidden),
                "n_keypoints": N_KEYPOINTS}

    @staticmethod
    def from_dict(doc: dict) -> "ModelConfig":
        config = ModelConfig(gcn_hidden=tuple(int(n) for n in doc["gcn_hidden"]),
                             gcn_out=int(doc["gcn_out"]),
                             proj_dim=int(doc["proj_dim"]),
                             ar_hidden=tuple(int(n) for n in doc["ar_hidden"]))
        if min(*config.gcn_hidden, *config.ar_hidden, config.gcn_out,
               config.proj_dim) < 1:
            raise ValueError(f"layer widths must be positive: {doc}")
        # every later stage reads six contacts per proposal
        if int(doc["n_keypoints"]) != N_KEYPOINTS:
            raise ValueError(f"n_keypoints is {doc['n_keypoints']}, "
                             f"the grippers have {N_KEYPOINTS}")
        return config


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in store (and weight file) order."""
    shapes = {}
    enc_dims = [3, *config.gcn_hidden, config.gcn_out]
    for enc in ("obj", "grip"):
        for i in range(len(enc_dims) - 1):
            shapes[f"{enc}_enc.w{i}"] = (enc_dims[i], enc_dims[i + 1])
            shapes[f"{enc}_enc.b{i}"] = (enc_dims[i + 1],)
        shapes[f"{enc}_proj.w"] = (config.gcn_out, config.proj_dim)
    ar_dims = [config.ar_input_dim, *config.ar_hidden, 1]
    for n in range(1, N_KEYPOINTS):
        for i in range(len(ar_dims) - 1):
            shapes[f"ar{n}.w{i}"] = (ar_dims[i], ar_dims[i + 1])
            shapes[f"ar{n}.b{i}"] = (ar_dims[i + 1],)
    return shapes


def distance_scale(points: np.ndarray) -> float:
    """RMS distance of a cloud's points from their mean: the unit of the
    encoders' coordinates and of the heads' distance inputs."""
    centered = points - points.mean(axis=0)
    return float(np.sqrt((centered ** 2).mean()))


def contact_distances(points: np.ndarray, contact, scale: float) -> np.ndarray:
    """Every point's distance to vertex `contact` in `scale` units: the
    column a chosen contact adds to the heads' distance input."""
    if not 0 <= contact < points.shape[0]:
        raise IndexOutOfRange(f"contact vertex {contact} out of range")
    return np.linalg.norm(points - points[contact], axis=1) / scale


@dataclass
class TrainingSample:
    """One grasp record with everything derived for supervision."""

    object_id: str
    ee_id: str
    object_graph: GeometryGraph
    ee: EndEffectorModel
    pose: Pose
    maps: ContactMapSet
    keypoint_world: np.ndarray          # (6, 3)
    gt_contacts: np.ndarray             # (6,) object vertex indices


class GeoMatchModel:
    """Encoders + projections + autoregressive heads, all in one store."""

    def __init__(self, config: ModelConfig = ModelConfig(),
                 seed: int | None = 0):
        """Glorot-initialized weights from `seed`; seed=None allocates
        zeros, for `load_weights` to overwrite. Biases start at zero."""
        self.config = config
        self.store = dn.ParameterStore()
        shapes = parameter_shapes(config)
        # the weights draw in store order from one stream: one bulk draw
        # for all of them, each weight scaling its slice
        n_draws = sum(math.prod(s) for s in shapes.values() if len(s) == 2)
        uniforms = Rng(seed).randoms(n_draws) if seed is not None else None
        offset = 0
        for name, shape in shapes.items():
            if uniforms is None or len(shape) == 1:
                self.store.add(name, dn.zeros_param(shape))
            else:
                size = shape[0] * shape[1]
                self.store.add(name, dn.glorot_init(
                    shape, uniforms[offset:offset + size]))
                offset += size
        self._n_enc_layers = len(config.gcn_hidden) + 1

    # -- forward pieces -----------------------------------------------------

    def _encode_one(self, prefix: str, graph: GeometryGraph,
                    keep=None) -> dn.Tensor:
        """Projected embeddings of the sorted unique vertices `keep`, or of
        every vertex without it. With `keep`, each layer takes its input
        only on the closed neighbourhood of the rows it outputs (A_hat's
        padded slots hold the self-loop): one hop more per layer inward."""
        adj = graph.normalized_adjacency
        pts = graph.cloud.points
        scale = distance_scale(pts)
        if scale <= 0:
            raise SchemaError("degenerate cloud: zero spatial extent")
        x = (pts - pts.mean(axis=0)) / scale
        blocks = [adj] * self._n_enc_layers
        if keep is not None:
            rows = [keep]       # rows[i + 1]: what layer i outputs from rows[i]
            for _ in range(self._n_enc_layers):
                rows.insert(0, np.unique(adj.nbr[rows[0]]))
            blocks = [adj.block(out, inp) for inp, out in zip(rows, rows[1:])]
            x = x[rows[0]]
        h = dn.Tensor(x)
        for i, block in enumerate(blocks):
            h = dn.dense(dn.spmm(block, h),
                         self.store[f"{prefix}_enc.w{i}"],
                         self.store[f"{prefix}_enc.b{i}"])
        return dn.matmul(h, self.store[f"{prefix}_proj.w"])

    def encode(self, object_graph: GeometryGraph | None = None,
               gripper_graph: GeometryGraph | None = None, keypoint_vertices=None
               ) -> tuple[dn.Tensor | None, dn.Tensor | None]:
        """Projected embeddings of every object vertex (S_O x p) and of the
        gripper's keypoint vertices (N_KEYPOINTS x p, in keypoint order).

        Each half is computed only when its input is given (the object
        graph; the gripper graph with its keypoint vertices) and is None
        otherwise, so a caller can encode each cloud once and pair the
        halves. The gripper encoder runs each layer only on the rows that
        the keypoint embeddings depend on.
        """
        v_obj = v_kp = None
        if object_graph is not None:
            v_obj = self._encode_one("obj", object_graph)
        if gripper_graph is not None:
            kp = np.asarray(keypoint_vertices, dtype=np.int64).reshape(-1)
            if kp.size and (kp.min() < 0 or kp.max() >= gripper_graph.size):
                raise IndexOutOfRange("keypoint vertex outside gripper graph")
            keep = np.unique(kp)
            v_keep = self._encode_one("grip", gripper_graph, keep)
            v_kp = dn.gather_rows(v_keep, np.searchsorted(keep, kp))
        return v_obj, v_kp

    def score_map(self, v_obj: dn.Tensor, v_kp: dn.Tensor) -> dn.Tensor:
        """(S_O, N_KEYPOINTS) dot-product contact scores."""
        return dn.matmul(v_obj, dn.transpose(v_kp))

    def ar_logits(self, v_obj: dn.Tensor, v_kp: dn.Tensor, contacts,
                  object_points: np.ndarray) -> list[dn.Tensor]:
        """Per-object-vertex logits of every head n = 1..N_KEYPOINTS - 1,
        one (S, 1) tensor each, head n given contacts[:n]; `v_kp` holds the
        keypoint embeddings from `encode`. `contacts` holds the contacts of
        keypoints 0 to N_KEYPOINTS - 2, in keypoint order, or of every
        keypoint (the last is not read). The heads run as one
        `dn.dense_chains` call."""
        slots = self.config.distance_slots
        prev = np.asarray(contacts, dtype=np.int64).reshape(-1)
        if prev.size not in (slots, slots + 1):
            raise SchemaError(f"the heads need {slots} or {slots + 1} "
                              f"contacts, got {prev.size}")
        scale = distance_scale(object_points)
        dists = np.column_stack([contact_distances(object_points, c, scale)
                                 for c in prev[:slots]])
        return dn.dense_chains([
            ([v_obj, dn.gather_rows(v_kp, [n]),
              np.where(np.arange(slots) < n, dists, 0.0)], self.head_layers(n))
            for n in range(1, N_KEYPOINTS)])

    def head_layers(self, n: int) -> list:
        """Head n's (w, b, relu) layers, the ReLU on all but the last. The
        first takes [object embeddings | keypoint n's one row, broadcast
        over the S vertices | distances to the first n contacts, zeros
        after]: row blocks [:p], [p:2p] and [2p:] of its weight."""
        last = len(self.config.ar_hidden)
        return [(self.store[f"ar{n}.w{i}"], self.store[f"ar{n}.b{i}"], i < last)
                for i in range(last + 1)]

    # -- objective ----------------------------------------------------------

    def total_loss(self, sample: TrainingSample,
                   alpha: float = DEFAULT_ALPHA, beta: float = DEFAULT_BETA,
                   lambda_a: float = DEFAULT_LAMBDA_A,
                   lambda_b: float = DEFAULT_LAMBDA_B):
        """alpha * score-map loss + beta * teacher-forced head loss.

        Returns (total, loss_f, loss_m) tensors. Each part is one
        `dn.bce_with_pos_weight` over its logit columns (the score map's;
        the heads'): a sum of per-keypoint mean BCE terms. The heads see the
        ground-truth previous contacts (teacher forcing), never their own
        predictions.
        """
        v_obj, v_kp = self.encode(sample.object_graph, sample.ee.rest_graph,
                                  sample.ee.keypoint_vertices)
        scores = self.score_map(v_obj, v_kp)
        co = sample.maps.co

        loss_f = dn.bce_with_pos_weight(scores, co, lambda_a)
        heads = self.ar_logits(v_obj, v_kp, sample.gt_contacts,
                               sample.object_graph.cloud.points)
        loss_m = dn.bce_with_pos_weight(heads, co[:, 1:], lambda_b)
        total = alpha * loss_f + beta * loss_m
        return total, loss_f, loss_m


def train(model: GeoMatchModel, samples: list[TrainingSample],
          epochs: int = DEFAULT_EPOCHS, lr: float = DEFAULT_LR,
          seed: int = 0, alpha: float = DEFAULT_ALPHA, beta: float = DEFAULT_BETA,
          lambda_a: float = DEFAULT_LAMBDA_A, lambda_b: float = DEFAULT_LAMBDA_B,
          loss_csv=None, log_every: int = 0) -> list[dict]:
    """Per-sample Adam steps over seeded shuffles; returns per-epoch means.

    The sample order is reshuffled every epoch from one deterministic
    stream, so a fixed seed reproduces the loss log exactly.
    """
    if not samples:
        raise EmptyDataset("no training samples")
    rng = Rng(seed)
    history = []
    order = list(range(len(samples)))
    for epoch in range(1, epochs + 1):
        rng.shuffle(order)
        sums = np.zeros(3)
        for idx in order:
            total, loss_f, loss_m = model.total_loss(
                samples[idx], alpha, beta, lambda_a, lambda_b)
            dn.backward(total)
            dn.adam_step(model.store, lr=lr)
            sums += (total.item(), loss_f.item(), loss_m.item())
            del total, loss_f, loss_m   # this step's tape goes before the next forward
        mean = sums / len(order)
        history.append({"epoch": epoch, "loss_total": float(mean[0]),
                        "loss_f": float(mean[1]), "loss_m": float(mean[2])})
        if log_every and (epoch % log_every == 0 or epoch == epochs):
            _LOG.info("epoch %4d  total %.6f  f %.6f  m %.6f", epoch, *mean)
    if loss_csv is not None:
        write_loss_csv(history, loss_csv)
    return history


def write_loss_csv(history: list[dict], path) -> None:
    write_csv(path, ["epoch", "loss_total", "loss_f", "loss_m"],
              ([row["epoch"], repr(row["loss_total"]), repr(row["loss_f"]),
                repr(row["loss_m"])] for row in history))


def read_loss_csv(path) -> list[dict]:
    with open(path, newline="") as fh, parsing(path):
        return [{"epoch": int(r["epoch"]),
                 "loss_total": float(r["loss_total"]),
                 "loss_f": float(r["loss_f"]),
                 "loss_m": float(r["loss_m"])} for r in csv.DictReader(fh)]


def save_model(model: GeoMatchModel, directory) -> None:
    dn.save_weights(model.store, directory)
    write_json(os.path.join(directory, "model_config.json"), model.config.to_dict())


def load_model(directory) -> GeoMatchModel:
    path = os.path.join(directory, "model_config.json")
    doc = read_json(path)
    with parsing(path):
        config = ModelConfig.from_dict(doc)
    # a damaged config can name more memory than exists: check it against
    # the weight files before any parameter is allocated
    dn.check_weight_files(directory, parameter_shapes(config))
    model = GeoMatchModel(config, seed=None)
    dn.load_weights(model.store, directory)
    return model
