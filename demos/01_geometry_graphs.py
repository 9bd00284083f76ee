"""Point clouds into k-NN geometry graphs, plus the augmentation ops.

Run: python demos/01_geometry_graphs.py
"""

import numpy as np

from geomatch.dataset import sample_object
from geomatch.geometry import (build_knn_graph, crop_table_top,
                               estimate_normals, normalize_adjacency,
                               perturb_cloud)
from geomatch.rng import Rng

# a sphere sampled with analytic normals, like the toy dataset does
cloud = sample_object("sphere", {"r": 0.04}, count=200, rng=Rng(0))
print(f"cloud: {len(cloud)} points")

# each vertex connects to its 8 nearest neighbours; the normalized
# adjacency is what the graph convolutions consume
edges = build_knn_graph(cloud, k=8)
adj = normalize_adjacency(edges, len(cloud))
print(f"graph: {edges.shape[0]} directed edges, "
      f"adjacency nnz={adj.nnz} over {adj.shape}")
dense = adj.to_dense()
print(f"adjacency symmetric to {np.abs(dense - dense.T).max():.1e}, "
      f"diagonal in [{dense.diagonal().min():.3f}, {dense.diagonal().max():.3f}]")

# estimated normals agree with the analytic radial direction
est = estimate_normals(cloud, neighbors=8)
angles = np.degrees(np.arccos(np.clip(
    np.sum(est.normals * cloud.normals, axis=1), -1, 1)))
print(f"estimated normals vs analytic: worst {angles.max():.2f} degrees")

# robustness augmentations: clipped Gaussian noise and a table-top crop
noisy = perturb_cloud(cloud, sigma=0.001, seed=7)
print(f"noise: max displacement "
      f"{np.abs(noisy.points - cloud.points).max() * 1000:.3f} mm (<= 1 mm)")

cropped = crop_table_top(cloud)
print(f"table crop: {len(cloud)} -> {len(cropped)} points "
      f"(z >= (z_max - z_min) / 6)")
