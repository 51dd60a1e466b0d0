"""Learn one user's hyperplane and turn a space into recommendations.

The user-independent space never changes; personalization is a single
direction vector w learned from pairwise preferences, and w . v projects
every item to a one-dimensional preference score.
"""

from pathlib import Path

import numpy as np

import spacerank as sr
from spacerank.minicorpus import generate_minicorpus

out = Path("demo_out")
ratings_path, _ = generate_minicorpus(out / "data")
events = sr.load_ratings(ratings_path)
split = sr.build_split(events, sr.mark_counts(events))
train = [e for e in events if (e.user_id, e.item_id) not in split.test]
profiles = sr.build_profiles(train)

space = sr.train_space(
    sr.ratings_to_observations(train, profiles),
    sr.SpaceTrainConfig(dimensions=32, iterations=20, seed=5),
)

user = 1
mine = [e for e in train if e.user_id == user]
print(f"user {user}: {len(mine)} train ratings, mean {profiles[user].mean_rating:.2f}")

# Rated items keep their binarized level (1 below the mean, 2 at or
# above); every other item in the space is level 0. Pairs are oriented
# (lower, higher) and the rated-vs-unrated ones are downsampled.
config = sr.RankerConfig(phi_i=10, phi_t="all", phi_d=5.0, seed=sr.derive_seed(1, user))
preferences = sr.build_preferences(mine, space, config.phi_t)
unrated, disliked, liked = np.bincount(preferences.level, minlength=3)
print(f"preference levels: {liked} liked, {disliked} disliked, {unrated} unrated")

pairs = sr.pair_stream(preferences, config.phi_i, config.phi_d, config.seed)
print(f"pair stream: {len(pairs)} training pairs over {config.phi_i} passes")

model = sr.train_hyperplane(pairs, space, config, user_id=user)
rated_items = {e.item_id for e in mine}
top = sr.recommend_topk(model, space, rated_items, 10)
scores = sr.score_items(model, space)

liked_clusters = sorted(
    {(e.item_id - 1) % 18 for e in mine if sr.binarize(e.rating, profiles[user].mean_rating) == 2}
)
print(f"\nuser {user} mostly likes clusters {liked_clusters}; top-10 recommendations:")
for item in top:
    print(f"  item {item:3d} (cluster {(item - 1) % 18:2d})  score {scores[item]: .4f}")

held_out = [i for (u, i) in split.test if u == user]
hits = [i for i in held_out if i in top]
print(f"\nheld-out test items for user {user}: {held_out}; retrieved in top-10: {hits or 'none'}")

# The ranking only uses the direction of w, never its length.
doubled = sr.HyperplaneModel(user, 2.0 * model.w)
assert sr.recommend_topk(doubled, space, rated_items, 10) == top
print("scaling w leaves the recommendation list unchanged")
