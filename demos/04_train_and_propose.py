"""Train a small model on one object and roll out diverse proposals.

A short run for demonstration; the acceptance suite trains the full 200
epochs. Takes about 20 seconds.

Run: python demos/04_train_and_propose.py
"""

import logging
import tempfile

import numpy as np

from geomatch.dataset import generate_toy_dataset, load_records
from geomatch.inference import propose_grasps
from geomatch.model import GeoMatchModel, train

logging.basicConfig(level=logging.INFO, format="%(message)s")   # train's loss lines

with tempfile.TemporaryDirectory() as d:
    manifest = generate_toy_dataset(seed=3, out_dir=d, s_o=64, s_g=64,
                                    object_ids=["sphere_small"])
    samples = load_records(manifest, split="all")
    print(f"{len(samples)} training samples "
          f"({len(manifest.objects)} object x 2 grippers x 4 grasps)")

    model = GeoMatchModel(seed=0)
    history = train(model, samples, epochs=40, lr=1e-4, seed=0, log_every=10)
    ratio = history[-1]["loss_total"] / history[0]["loss_total"]
    print(f"loss dropped to {100 * ratio:.1f}% of epoch 1")

    # diversity mechanism: four rank seeds for keypoint 0 give up to four
    # different contact chains
    s = samples[0]
    proposals = propose_grasps(model, s.object_graph, s.ee,
                               ranks=(0, 20, 50, 63),
                               object_id=s.object_id)
    distinct = {tuple(p.contacts) for p in proposals}
    for p in proposals:
        print(f"rank {p.keypoint0_rank:3d}: contacts {p.contacts.tolist()} "
              f"score {p.score:+.2f}")
    print(f"distinct proposals: {len(distinct)} of {len(proposals)}")
