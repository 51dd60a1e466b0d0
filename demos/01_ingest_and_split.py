"""Walk through corpus ingestion and the deterministic holdout split.

Generates the bundled synthetic mini corpus, shows how raw ratings become
binarized observation tokens, then samples the validation/test split and
verifies its bookkeeping.
"""

from pathlib import Path

import spacerank as sr
from spacerank.minicorpus import generate_minicorpus

out = Path("demo_out")
ratings_path, reviews_path = generate_minicorpus(out / "data")
print(f"mini corpus written to {ratings_path} and {reviews_path}")

events = sr.load_ratings(ratings_path)
print(f"\nloaded {len(events)} rating events; first three:")
for e in events[:3]:
    print(f"  user {e.user_id} rated item {e.item_id} a {e.rating} at t={e.timestamp}")

# Ratings are interpreted relative to each user's own average, which
# removes per-user anchoring: a 3 from a generous rater means "disliked".
profiles = sr.build_profiles(events)
u1 = profiles[1]
print(f"\nuser 1 averages {u1.mean_rating:.2f} over {u1.rating_count} ratings")
for e in events[:3]:
    b = sr.binarize(e.rating, profiles[e.user_id].mean_rating)
    print(f"  rating {e.rating} -> level {b} -> token {sr.ratings_to_observations([e], profiles)[0].token}")

docs = sr.load_reviews(reviews_path)
obs = sr.reviews_to_observations(docs[:1])
print(f"\nitem {docs[0].item_id} review tokens: {[o.token for o in obs[:8]]} ...")

# Every 25th rating (ordered by user activity, then time) is held out;
# per user the earlier half of her held-out tail is validation, the
# later half test, so nothing in training lies in any user's future.
counts = sr.mark_counts(events)
split = sr.build_split(events, counts)
# A split holds only the held-out pairs; train is every other rating.
n_train = len(events) - len(split.validation) - len(split.test)
print(f"\nsplit: {n_train} train / {len(split.validation)} validation / {len(split.test)} test")
print(f"held-out total = {len(events)} // 25 = {len(events) // 25}")

targets = sr.test_targets(split, events)
print(f"test targets rated 4 or 5: {len(targets)}")

split_file = out / "split.tsv"
sr.save_split(split, split_file)
print(f"split exported to {split_file} (shareable so every system evaluates identically)")
