"""Train the three item-space variants and poke at what they learned.

The collaborative space (cf) embeds items from who-liked-what tokens, the
content space (cb) from review words, and the vsm space is the raw
normalized user-dimension matrix. In all three, nearby items should be
substitutable: the mini corpus builds items in clusters of 18, so an
item's nearest neighbours should come from its own cluster.
"""

from pathlib import Path

import numpy as np

import spacerank as sr
from spacerank.minicorpus import generate_minicorpus

out = Path("demo_out")
ratings_path, reviews_path = generate_minicorpus(out / "data")
events = sr.load_ratings(ratings_path)
counts = sr.mark_counts(events)
split = sr.build_split(events, counts)

# Final-evaluation regime: train on everything except the test pairs.
train = [e for e in events if (e.user_id, e.item_id) not in split.test]
profiles = sr.build_profiles(train)

print("training cf space (rating observations) ...")
cf = sr.train_space(
    sr.ratings_to_observations(train, profiles),
    sr.SpaceTrainConfig(dimensions=32, iterations=20, seed=5),
    provenance="cf",
)

print("training cb space (review-word observations) ...")
cb = sr.train_space(
    sr.reviews_to_observations(sr.load_reviews(reviews_path)),
    sr.SpaceTrainConfig(dimensions=32, iterations=10, seed=5),
    provenance="cb",
)

print("building vsm space (one dimension per user) ...")
vsm = sr.build_vsm_space(train, profiles)


def neighbours(space, item_id, k=5):
    matrix = space.row_values(slice(None))  # float64 values, whether the space holds float32 rows or int8 levels
    v = space.vector(item_id)
    norms = np.linalg.norm(matrix, axis=1) * np.linalg.norm(v)
    norms[norms == 0] = 1.0
    sims = (matrix @ v) / norms
    order = np.argsort(-sims)
    return [int(space.item_ids[i]) for i in order[1 : k + 1]]


probe = 1  # cluster of an item is (id - 1) % 18
for name, space in (("cf", cf), ("cb", cb), ("vsm", vsm)):
    near = neighbours(space, probe)
    clusters = [(i - 1) % 18 for i in near]
    print(f"{name:>3}: item {probe} (cluster 0) neighbours {near} in clusters {clusters}")

for name, space in (("cf", cf), ("cb", cb), ("vsm", vsm)):
    path = out / f"{name}.space"
    sr.save_space(space, path)
    print(f"saved {name} -> {path} ({len(space)} items x {space.dimensions} dims)")

vec_file = out / "cf_vectors.txt"
sr.export_vectors(cf, vec_file)
print(f"exported plain vectors for projection tools -> {vec_file}")
