"""Grasp proposal generation from a trained model.

Diversity comes from the choice of the first contact: the score-map column
for keypoint 0 is sorted and the vertices at the requested ranks (default
0, 20, 50, 100) each seed one deterministic argmax rollout of the
autoregressive heads.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import diffnet as dn
from .artifacts import finite_array, write_jsonl
from .errors import EmptyScores, IndexOutOfRange, SchemaError
from .geometry import GeometryGraph
from .kinematics import EndEffectorModel, N_KEYPOINTS
from .model import GeoMatchModel, contact_distances, distance_scale

log = logging.getLogger(__name__)

DEFAULT_RANKS = (0, 20, 50, 100)


@dataclass(frozen=True)
class GraspProposal:
    object_id: str
    ee_id: str
    keypoint0_rank: int
    contacts: np.ndarray        # (6,) object vertex indices
    contact_points: np.ndarray  # (6, 3) coordinates
    score: float                # sum of the selected logits (reporting only)


def sample_keypoint0(score_column: np.ndarray, ranks) -> list[int]:
    """Vertices at the requested ranks of the descending score order.

    Ties sort toward the lower vertex index; ranks beyond the vertex count
    are clamped to the last vertex with a warning.
    """
    scores = np.asarray(score_column, dtype=np.float64).reshape(-1)
    if scores.size == 0:
        raise EmptyScores("empty score column")
    order = np.lexsort((np.arange(scores.size), -scores))
    picked = []
    for rank in ranks:
        if rank < 0:
            raise IndexOutOfRange(f"negative rank {rank}")
        if rank >= scores.size:
            log.warning("rank %d clamped to %d (only %d vertices)",
                        rank, scores.size - 1, scores.size)
            rank = scores.size - 1
        picked.append(int(order[rank]))
    return picked


def rollout(model: GeoMatchModel, object_graph: GeometryGraph,
            ee: EndEffectorModel, c0: int, keypoint0_rank: int = -1,
            pair=None) -> GraspProposal:
    """Greedy head-by-head contact prediction starting from vertex c0.

    `pair` is `pair_inputs` of these graphs, computed here when not given.
    Each head runs forward-only through `dn.forward_chains`, and each
    chosen contact adds one column to the heads' distance input.
    """
    pts = object_graph.cloud.points
    if not 0 <= c0 < pts.shape[0]:
        raise IndexOutOfRange(f"c0={c0} outside object graph")
    if pair is None:
        pair = pair_inputs(model, object_graph, ee)
    scores, scale, heads = pair
    dists = np.zeros((pts.shape[0], model.config.distance_slots))
    contacts = [int(c0)]
    total = float(scores[c0, 0])
    for n, (formed, layers) in enumerate(heads, start=1):
        dists[:, n - 1] = contact_distances(pts, contacts[-1], scale)
        logits = dn.forward_chains([(formed + [dists], layers)])[0][:, 0]
        c_n = int(np.argmax(logits))   # argmax takes the lowest index on ties
        contacts.append(c_n)
        total += float(logits[c_n])
    contacts = np.array(contacts, dtype=np.int64)
    return GraspProposal(object_id="", ee_id=ee.name,
                         keypoint0_rank=keypoint0_rank, contacts=contacts,
                         contact_points=pts[contacts].copy(), score=total)


def pair_inputs(model: GeoMatchModel, object_graph: GeometryGraph,
                ee: EndEffectorModel, embeddings=None) -> tuple:
    """What every rollout of one (object, gripper) pair shares: the score
    map (an array), the object's distance scale and each head n's layers
    with first-layer parts (v_obj, v_obj @ W_n[:p]) and (v_kp[n], v_kp[n] @
    W_n[p:2p]), products formed. `embeddings` is (v_obj, v_kp) from
    `model.encode`; without it the pair is encoded here."""
    if embeddings is None:
        embeddings = model.encode(object_graph, ee.rest_graph,
                                  ee.keypoint_vertices)
    v_obj, v_kp = embeddings
    p = model.config.proj_dim
    heads = []
    for n in range(1, model.config.n_keypoints):
        layers, kp = model.head_layers(n), v_kp.data[[n]]
        w = layers[0][0].data
        heads.append(([(v_obj.data, v_obj.data @ w[:p]), (kp, kp @ w[p:2 * p])],
                      layers))
    return (model.score_map(v_obj, v_kp).data,
            distance_scale(object_graph.cloud.points), heads)


def propose_grasps(model: GeoMatchModel, object_graph: GeometryGraph,
                   ee: EndEffectorModel, ranks=DEFAULT_RANKS,
                   object_id: str = "", embeddings=None) -> list[GraspProposal]:
    """One proposal per requested keypoint-0 rank, from one encoder pass
    and one `pair_inputs` of the pair, `embeddings` as there."""
    pair = pair_inputs(model, object_graph, ee, embeddings)
    seeds = sample_keypoint0(pair[0][:, 0], ranks)
    return [replace(rollout(model, object_graph, ee, c0, int(rank), pair=pair),
                    object_id=object_id)
            for rank, c0 in zip(ranks, seeds)]


# ---------------------------------------------------------------------------
# proposal files: one JSON object per line
# ---------------------------------------------------------------------------

def proposal_to_dict(p: GraspProposal) -> dict:
    return {"object": p.object_id, "ee": p.ee_id, "rank": p.keypoint0_rank,
            "contacts": [{"vertex": int(v), "xyz": [float(c) for c in xyz]}
                         for v, xyz in zip(p.contacts, p.contact_points)],
            "score": float(p.score)}


def proposal_from_dict(doc: dict) -> GraspProposal:
    vertices = [c["vertex"] for c in doc["contacts"]]
    if not all(type(v) is int for v in vertices):   # no bool, no float
        raise SchemaError(f"contact vertices must be integers, got {vertices}")
    rank, score = doc["rank"], doc["score"]
    if type(rank) is not int:
        raise SchemaError(f"rank must be an integer, got {rank!r}")
    if type(score) not in (int, float) or not math.isfinite(score):     # no bool
        raise SchemaError(f"score must be a finite number, got {score!r}")
    contacts = np.array(vertices, dtype=np.int64)
    points = finite_array([c["xyz"] for c in doc["contacts"]],
                          "contact coordinates").reshape(N_KEYPOINTS, 3)
    return GraspProposal(object_id=doc["object"], ee_id=doc["ee"],
                         keypoint0_rank=rank, contacts=contacts,
                         contact_points=points, score=float(score))


def save_proposals(proposals, path) -> None:
    write_jsonl(path, map(proposal_to_dict, proposals))
