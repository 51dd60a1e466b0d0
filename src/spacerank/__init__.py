"""Item-embedding spaces plus per-user hyperplane rankers for top-k
recommendation, with the split/evaluate/compare protocol around them."""

__version__ = "0.1.0"

from .baselines import (
    KnnModel,
    PopularityModel,
    build_popularity,
    knn_scores,
    knn_topk,
    popularity_topk,
)
from .corpus import (
    Observation,
    RatingEvent,
    ReviewDocument,
    UserProfile,
    binarize,
    build_profiles,
    load_ratings,
    load_reviews,
    rating_levels,
    ratings_to_observations,
    reviews_to_observations,
)
from .errors import (
    CannotRankError,
    FormatError,
    NoSuchTokenError,
    NoSuchUserError,
    ParseError,
    SpaceRankError,
    UndefinedTestError,
    ValidationError,
)
from .evaluate import (
    ContingencyTable,
    EvalResult,
    HitRecord,
    contingency,
    evaluate_system,
    load_results,
    mcnemar_one_tailed,
    recall_at_k,
    save_results,
)
from .hsoftmax import (
    HuffmanTree,
    Vocabulary,
    build_huffman,
    build_vocabulary,
    hs_probability,
    hs_train_step,
    new_node_matrix,
    sigmoid,
)
from .ranker import (
    HyperplaneModel,
    RankerConfig,
    build_preferences,
    derive_seed,
    pair_stream,
    recommend_topk,
    score_items,
    top_k,
    train_hyperplane,
)
from .spaces import (
    EmbeddingSpace,
    SpaceTrainConfig,
    build_vsm_space,
    export_vectors,
    load_space,
    save_space,
    train_space,
)
from .splits import (
    EvalSplit,
    build_split,
    load_split,
    mark_counts,
    save_split,
    test_targets,
)
