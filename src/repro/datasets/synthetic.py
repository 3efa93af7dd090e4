"""Synthetic rating generators with controllable preference structure.

Every generator returns a :class:`~repro.recsys.matrix.RatingMatrix` on an
integer 1–5 scale by default.  The central generator,
:func:`clustered_population`, draws users from a small number of latent
"taste clusters"; the degree of within-cluster coherence is what drives the
qualitative behaviour of group formation (how many users share top-k
sequences, how balanced groups are, how far baselines lag behind), so it is
an explicit parameter rather than an accident of the data.

Ratings are produced by a latent-factor model

``r(u, i) = clip(round(mu + bias_i + taste_u . quality_i + noise))``

with item popularity drawn from a long-tailed distribution, which mimics the
shape of the MovieLens and Yahoo! Music catalogues well enough for the
group-formation experiments (the algorithms only see the resulting matrix).
"""

from __future__ import annotations

import numpy as np

from repro.recsys.matrix import RatingMatrix, RatingScale
from repro.utils.arrays import sorted_unique
from repro.utils.rng import ensure_rng
from repro.utils.validation import require_positive_int, require_probability

__all__ = [
    "synthetic_ratings",
    "archetype_population",
    "clustered_population",
    "uniform_random_ratings",
    "iter_synthetic_triples",
    "synthetic_sparse_store",
]


def _latent_factor_ratings(
    n_users: int,
    n_items: int,
    n_clusters: int,
    n_factors: int,
    cluster_spread: float,
    noise: float,
    mean_rating: float,
    popularity_skew: float,
    scale: RatingScale,
    integer_ratings: bool,
    rng: np.random.Generator,
) -> np.ndarray:
    """Dense rating array from the clustered latent-factor model."""
    # Cluster centres and per-user tastes scattered around their centre.
    centres = rng.normal(0.0, 1.0, size=(n_clusters, n_factors))
    assignments = rng.integers(0, n_clusters, size=n_users)
    tastes = centres[assignments] + rng.normal(
        0.0, cluster_spread, size=(n_users, n_factors)
    )
    qualities = rng.normal(0.0, 1.0, size=(n_items, n_factors))

    # Long-tailed item popularity bias (a few broadly liked items, many niche
    # ones), normalised to zero mean so `mean_rating` stays interpretable.
    popularity = rng.exponential(popularity_skew, size=n_items)
    popularity = popularity - popularity.mean()

    raw = (
        mean_rating
        + popularity[None, :]
        + tastes @ qualities.T / np.sqrt(n_factors)
        + rng.normal(0.0, noise, size=(n_users, n_items))
    )
    clipped = scale.clip(raw)
    if integer_ratings:
        clipped = scale.round_to_scale(clipped)
    return np.asarray(clipped, dtype=float)


def synthetic_ratings(
    n_users: int,
    n_items: int,
    density: float = 1.0,
    n_clusters: int = 8,
    n_factors: int = 6,
    cluster_spread: float = 0.35,
    noise: float = 0.6,
    mean_rating: float = 3.3,
    popularity_skew: float = 0.5,
    scale: RatingScale | None = None,
    integer_ratings: bool = True,
    rng: int | np.random.Generator | None = None,
) -> RatingMatrix:
    """General-purpose synthetic rating matrix.

    Parameters
    ----------
    n_users, n_items:
        Matrix dimensions.
    density:
        Fraction of entries that are observed.  ``1.0`` (default) yields a
        complete matrix ready for group formation; lower values produce a
        sparse matrix for exercising the collaborative-filtering substrate.
    n_clusters:
        Number of latent taste clusters users are drawn from.
    n_factors:
        Latent dimensionality of tastes and item qualities.
    cluster_spread:
        Standard deviation of users around their cluster centre; small values
        give strongly clustered populations (many shared top-k sequences),
        large values approach an unstructured population.
    noise:
        Standard deviation of the per-rating Gaussian noise.
    mean_rating:
        Target mean of the generated ratings before clipping.
    popularity_skew:
        Scale of the exponential item-popularity bias (0 disables it).
    scale:
        Rating scale (default 1–5).
    integer_ratings:
        Round ratings to integer levels (as in MovieLens / Yahoo! Music).
    rng:
        Seed or generator.

    Returns
    -------
    RatingMatrix
    """
    n_users = require_positive_int(n_users, "n_users")
    n_items = require_positive_int(n_items, "n_items")
    n_clusters = require_positive_int(n_clusters, "n_clusters")
    n_factors = require_positive_int(n_factors, "n_factors")
    density = require_probability(density, "density")
    if density == 0.0:
        raise ValueError("density must be positive")
    scale = scale if scale is not None else RatingScale(1.0, 5.0)
    generator = ensure_rng(rng)

    values = _latent_factor_ratings(
        n_users=n_users,
        n_items=n_items,
        n_clusters=n_clusters,
        n_factors=n_factors,
        cluster_spread=cluster_spread,
        noise=noise,
        mean_rating=mean_rating,
        popularity_skew=popularity_skew,
        scale=scale,
        integer_ratings=integer_ratings,
        rng=generator,
    )
    if density < 1.0:
        observed = generator.random(size=values.shape) < density
        # Guarantee at least one rating per user and per item so the matrix
        # stays usable by the CF predictors.
        for user in range(n_users):
            if not observed[user].any():
                observed[user, generator.integers(n_items)] = True
        for item in range(n_items):
            if not observed[:, item].any():
                observed[generator.integers(n_users), item] = True
        values = np.where(observed, values, np.nan)
    return RatingMatrix(values, scale=scale)


#: Cells per row chunk when :func:`archetype_population` applies dislikes.
_DISLIKE_CHUNK_CELLS = 1 << 20


def archetype_population(
    n_users: int,
    n_items: int,
    n_archetypes: int = 12,
    fidelity: float = 0.95,
    dislike_rate: float = 0.03,
    head_fraction: float = 0.3,
    favorites_per_archetype: int = 8,
    popularity_skew: float = 0.8,
    scale: RatingScale | None = None,
    rng: int | np.random.Generator | None = None,
) -> RatingMatrix:
    """Complete matrix of users who are noisy copies of discrete taste archetypes.

    Real explicit-feedback communities have two properties that drive the
    paper's quality results and that a smooth latent-factor model misses:

    1. **Exact agreement on the head.**  Large blocks of users give the
       maximum rating to the same handful of genre favourites, so many users
       share an *identical* top-k item sequence — which is what lets the GRD
       algorithms form sizeable intermediate groups (Table 4 reports median
       group sizes of 14–25 out of 200 users).
    2. **Idiosyncrasy in the tail.**  Away from their favourites, users'
       ratings are largely personal.  A clustering baseline that measures
       Kendall-Tau distance over *all* items is therefore dominated by tail
       noise, and its semantics-agnostic clusters mix archetypes — a single
       dissenting member then drags the cluster's Least-Misery score down.

    The generator realises both properties explicitly:

    * the first ``head_fraction`` of the catalogue are "head" items; each
      archetype marks ``favorites_per_archetype`` of them (sampled with a
      popularity bias so some head items are favourites of several
      archetypes) as rated ``r_max``; the remaining head items get a
      middling rating (2 or 3);
    * each user copies her archetype's head ratings with probability
      ``fidelity`` per item (otherwise shifting by ±1) and, independently
      with probability ``dislike_rate``, overrides an item with a personal
      low rating (1 or 2);
    * tail items are rated independently per user, uniformly between the
      scale minimum and ``r_max - 1`` (so the tail can never displace an
      intact favourite from a user's top-k).

    Parameters
    ----------
    n_users, n_items:
        Matrix dimensions.
    n_archetypes:
        Number of taste archetypes users are drawn from.
    fidelity:
        Per-head-item probability that a user copies her archetype's rating
        exactly (controls how much exact top-k sharing exists).
    dislike_rate:
        Per-item probability of an idiosyncratic low rating overriding the
        archetype (controls how fragile semantics-agnostic clusters are
        under LM).
    head_fraction:
        Fraction of the catalogue forming the shared "head".
    favorites_per_archetype:
        Number of head items each archetype rates at the scale maximum.
    popularity_skew:
        Concentration of archetype favourites on the first head items
        (0 = uniform; larger values make a few hits shared by many
        archetypes).
    scale:
        Rating scale (default 1–5).
    rng:
        Seed or generator.
    """
    n_users = require_positive_int(n_users, "n_users")
    n_items = require_positive_int(n_items, "n_items")
    n_archetypes = require_positive_int(n_archetypes, "n_archetypes")
    fidelity = require_probability(fidelity, "fidelity")
    dislike_rate = require_probability(dislike_rate, "dislike_rate")
    head_fraction = require_probability(head_fraction, "head_fraction")
    favorites_per_archetype = require_positive_int(
        favorites_per_archetype, "favorites_per_archetype"
    )
    scale = scale if scale is not None else RatingScale(1.0, 5.0)
    generator = ensure_rng(rng)

    r_max = scale.maximum
    r_min = scale.minimum
    n_head = int(np.clip(round(head_fraction * n_items), 1, n_items))
    n_favorites = min(favorites_per_archetype, n_head)

    # Archetype prototypes over the head: favourites at r_max, the rest at a
    # middling level (2 or 3 on a 1-5 scale).
    weights = 1.0 / np.power(np.arange(1, n_head + 1), popularity_skew)
    weights = weights / weights.sum()
    middling = np.clip(np.array([2.0, 3.0]), r_min, r_max)
    prototypes = np.empty((n_archetypes, n_head))
    for archetype in range(n_archetypes):
        prototypes[archetype] = generator.choice(middling, size=n_head)
        favourites = generator.choice(n_head, size=n_favorites, replace=False, p=weights)
        prototypes[archetype, favourites] = r_max

    assignments = generator.integers(0, n_archetypes, size=n_users)
    # One output array, filled in place: the head copies the prototypes and
    # takes the perturbation where drawn, the tail is written into its
    # slice, and dislikes are applied row chunk by row chunk, so no
    # matrix-sized float temporary outlives its draw.  The draws' order,
    # sizes and dtypes define the seeded instance; keep them.
    values = np.empty((n_users, n_items))
    head = values[:, :n_head]
    np.take(prototypes, assignments, axis=0, out=head)
    perturb = generator.random(size=head.shape) > fidelity
    shifted = generator.choice(np.array([-1.0, 1.0]), size=head.shape)
    shifted += head
    np.clip(shifted, r_min, r_max, out=shifted)
    np.copyto(head, shifted, where=perturb)
    del perturb, shifted

    # Idiosyncratic tail: personal ratings strictly below r_max.
    tail_levels = np.arange(int(np.ceil(r_min)), int(r_max))
    if tail_levels.size == 0:
        tail_levels = np.array([int(r_min)])
    values[:, n_head:] = generator.choice(
        tail_levels.astype(float), size=(n_users, n_items - n_head)
    )

    if dislike_rate > 0.0:
        dislikes = generator.random(size=values.shape) < dislike_rate
        lows = generator.integers(0, 2, size=values.shape)
        step = max(1, _DISLIKE_CHUNK_CELLS // n_items)
        for start in range(0, n_users, step):
            rows = slice(start, start + step)
            np.minimum(
                values[rows], r_min + lows[rows], out=values[rows],
                where=dislikes[rows],
            )
        del dislikes, lows
    return RatingMatrix(values, scale=scale)


def clustered_population(
    n_users: int,
    n_items: int,
    n_clusters: int = 8,
    coherence: float = 0.8,
    scale: RatingScale | None = None,
    rng: int | np.random.Generator | None = None,
) -> RatingMatrix:
    """Complete matrix whose users belong to well-separated taste clusters.

    ``coherence`` in ``[0, 1]`` controls how tightly users follow their
    cluster: 1.0 makes all cluster members nearly identical (group formation
    becomes easy and GRD ≈ OPT), 0.0 reduces to an unstructured population.
    This is the workhorse dataset of the quality experiments.
    """
    coherence = require_probability(coherence, "coherence")
    spread = 0.05 + (1.0 - coherence) * 1.5
    noise = 0.1 + (1.0 - coherence) * 1.0
    return synthetic_ratings(
        n_users=n_users,
        n_items=n_items,
        density=1.0,
        n_clusters=n_clusters,
        cluster_spread=spread,
        noise=noise,
        scale=scale,
        rng=rng,
    )


def _sparse_block_coords(
    n_block_users: int,
    n_items: int,
    density: float,
    levels: np.ndarray,
    generator: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random explicit cells for one user block, without a dense canvas.

    Draws :func:`_block_target` cells *with* replacement over the block's
    ``n_block_users * n_items`` flat cell space and de-duplicates them by an
    in-place sort (:func:`~repro.utils.arrays.sorted_unique`), so cost is
    proportional to the number of ratings rather than the number of cells:
    about 0.1 s per 5M drawn cells on a 2-core Xeon, where numpy 2.4's
    hash-based ``np.unique`` takes 4-8 s.  The cells come out in CSR (row-major)
    order.  The realised density is marginally below the request (birthday
    collisions, well under 1% relative at the densities this generator
    targets).
    """
    target = _block_target(n_block_users, n_items, density)
    flat = sorted_unique(
        generator.integers(0, n_block_users * n_items, size=target, dtype=np.int64),
        overwrite_input=True,
    )
    rows, cols = np.divmod(flat, n_items)
    ratings = generator.choice(levels, size=flat.size)
    return rows, cols, ratings


def _block_target(n_block_users: int, n_items: int, density: float) -> int:
    """Cells drawn for one block: the requested density, at least one."""
    return max(int(round(density * n_block_users * n_items)), 1)


def iter_synthetic_triples(
    n_users: int,
    n_items: int,
    density: float = 0.01,
    scale: RatingScale | None = None,
    rng: int | np.random.Generator | None = None,
    block_users: int = 65_536,
):
    """Stream ``(user, item, rating)`` triples of a sparse synthetic instance.

    Positional integer indices, uniform integer ratings on the scale, users
    emitted in ascending blocks of ``block_users`` — the streaming source
    behind :func:`synthetic_sparse_store`: for the same ``rng`` seed and
    ``block_users`` (the defaults match) the streamed triples reproduce that
    store's instance exactly.  Also usable to exercise any ``from_triples``
    consumer without materialising the instance.
    """
    n_users = require_positive_int(n_users, "n_users")
    n_items = require_positive_int(n_items, "n_items")
    density = require_probability(density, "density")
    if density == 0.0:
        raise ValueError("density must be positive")
    scale = scale if scale is not None else RatingScale(1.0, 5.0)
    generator = ensure_rng(rng)
    levels = scale.integer_levels().astype(np.float64)
    for start in range(0, n_users, block_users):
        stop = min(start + block_users, n_users)
        rows, cols, ratings = _sparse_block_coords(
            stop - start, n_items, density, levels, generator
        )
        # The global-index shift is vectorised and the triples are zipped in
        # C from pre-converted lists — the generator's only per-triple
        # Python work is the yield itself.
        yield from zip((rows + start).tolist(), cols.tolist(), ratings.tolist())


def synthetic_sparse_store(
    n_users: int,
    n_items: int,
    density: float = 0.01,
    scale: RatingScale | None = None,
    fill_value: float | None = None,
    rng: int | np.random.Generator | None = None,
    block_users: int = 65_536,
):
    """Million-user-scale sparse synthetic instance as a ``SparseStore``.

    Generates explicit ratings block by block straight into the CSR
    ``indices``/``data`` arrays, preallocated at the number of drawn cells
    and trimmed in place — cost and memory are proportional to the number
    of *ratings* (``density * n_users * n_items``), never to the dense cell
    count.  On a 2-core Xeon a 1M-user x 10k-item instance at 1% density
    (99.5M ratings, a 1.12 GiB CSR) builds in ~5 s with a 1.48 GiB process
    peak, and the 50k x 10k one in ~0.3 s.  Ratings are uniform integer
    levels on the scale (the structure-free worst case for the greedy
    algorithms); unobserved cells read back as ``fill_value`` (default:
    scale minimum).
    """
    from repro.recsys.store import SparseStore
    from scipy import sparse as sp

    n_users = require_positive_int(n_users, "n_users")
    n_items = require_positive_int(n_items, "n_items")
    density = require_probability(density, "density")
    if density == 0.0:
        raise ValueError("density must be positive")
    scale = scale if scale is not None else RatingScale(1.0, 5.0)
    generator = ensure_rng(rng)
    levels = scale.integer_levels().astype(np.float64)

    # Dedup only removes cells, so the drawn targets bound the nnz: every
    # block writes straight into arrays of that size, trimmed in place once
    # the count is known (no per-block chunk lists, no concatenation).
    blocks = [
        (start, min(start + block_users, n_users))
        for start in range(0, n_users, block_users)
    ]
    bound = sum(_block_target(stop - start, n_items, density) for start, stop in blocks)
    indptr = np.zeros(n_users + 1, dtype=np.int64)
    indices = np.empty(bound, dtype=np.int32)
    data = np.empty(bound, dtype=np.float64)
    nnz = 0
    for start, stop in blocks:
        rows, cols, ratings = _sparse_block_coords(
            stop - start, n_items, density, levels, generator
        )
        indptr[start + 1:stop + 1] = np.bincount(rows, minlength=stop - start)
        indices[nnz:nnz + cols.size] = cols
        data[nnz:nnz + cols.size] = ratings
        nnz += cols.size
    np.cumsum(indptr, out=indptr)
    # Shrinking resizes reallocate in place; nothing else references them.
    indices.resize(nnz, refcheck=False)
    data.resize(nnz, refcheck=False)
    if nnz <= np.iinfo(np.int32).max:
        # Matching 32-bit index arrays stop scipy from upcasting (and
        # copying) 10^8-entry column indices to int64.
        indptr = indptr.astype(np.int32)
    csr = sp.csr_matrix((data, indices, indptr), shape=(n_users, n_items))
    return SparseStore(csr, fill_value=fill_value, scale=scale)


def uniform_random_ratings(
    n_users: int,
    n_items: int,
    scale: RatingScale | None = None,
    rng: int | np.random.Generator | None = None,
) -> RatingMatrix:
    """Complete matrix of uniformly random integer ratings (no structure).

    The adversarial end of the spectrum: with no shared preferences the
    greedy algorithms degenerate to mostly singleton intermediate groups,
    which is useful for property tests and worst-case benchmarks.
    """
    n_users = require_positive_int(n_users, "n_users")
    n_items = require_positive_int(n_items, "n_items")
    scale = scale if scale is not None else RatingScale(1.0, 5.0)
    generator = ensure_rng(rng)
    levels = scale.integer_levels()
    values = generator.choice(levels, size=(n_users, n_items)).astype(float)
    return RatingMatrix(values, scale=scale)
