"""Logical sensor: pairwise geometry to subjective-logic opinions.

For every pair of individuals an observer can see, the relative distance
and a mutual-facing feature are turned into a likelihood of an ongoing
social interaction, either through a parametric distance-sigmoid times
facing term or through a two-class Gaussian mixture posterior. The
likelihood is embedded into an opinion with a configured floor of
uncertainty; sensor noise is injected here so one trace can be observed
at several accuracy levels.
"""

from __future__ import annotations

import math
from collections.abc import KeysView, Mapping
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, compress, repeat
from typing import Literal, NamedTuple, Optional, Sequence

import numpy as np

from . import _kernels
from .messages import PairIndex
from .mobility import TraceFrame
from .opinions import FUSION_BOUND_TOL, Opinion
from .schema import FINITE, NON_NEGATIVE, POSITIVE, UNIT, UNIT_ABOVE_ZERO, check, ranged


class DegenerateDataError(ValueError):
    """Raised when mixture fitting collapses despite regularization."""


@dataclass
class GmmModel:
    """Two class-conditional Gaussian mixtures over (distance, facing)."""

    means: tuple[np.ndarray, np.ndarray]  # per class: (K, 2)
    covariances: tuple[np.ndarray, np.ndarray]  # per class: (K, 2, 2)
    weights: tuple[np.ndarray, np.ndarray]  # per class: (K,)
    class_priors: tuple[float, float]

    def posterior(self, d: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """P(interaction | d, phi) under the fitted mixtures."""
        x = np.stack([np.asarray(d, float), np.asarray(phi, float)], axis=-1)
        like0 = _mixture_density(x, self.means[0], self.covariances[0], self.weights[0])
        like1 = _mixture_density(x, self.means[1], self.covariances[1], self.weights[1])
        p0, p1 = self.class_priors
        denom = p0 * like0 + p1 * like1
        out = np.where(denom > 0, p1 * like1 / np.where(denom > 0, denom, 1.0), p1)
        return out


@dataclass
class PerceptConfig:
    model: Literal["parametric", "gmm"] = "parametric"
    distance_midpoint: float = ranged(FINITE, 1.5)
    distance_steepness: float = ranged(FINITE, 4.0)
    facing_weight: float = ranged(NON_NEGATIVE, 1.0)
    base_uncertainty: float = ranged(UNIT_ABOVE_ZERO, 0.1)
    noise_sigma_pos: float = ranged(NON_NEGATIVE, 0.0)
    noise_sigma_angle: float = ranged(NON_NEGATIVE, 0.0)
    observation_radius: float = ranged(POSITIVE, 10.0)
    base_rate: float = ranged(UNIT, 0.2)
    gmm: Optional[GmmModel] = None

    def __post_init__(self) -> None:
        check(self)
        if self.model == "gmm" and self.gmm is None:
            raise ValueError("gmm model selected but no fitted model supplied")


class ObservedIndex(Mapping):
    """One observer's pair index for one period, read-only and built on first
    read: an opinion about every unordered pair ``(lo, hi)``, ``lo < hi``, of
    the individuals it sees, in ``observe_block``'s pair order.

    It holds the block's pair rows, its own range of them and the ids it
    sees, and builds its ``{(lo, hi): opinion}`` dict when a value, an item or
    the key order is first read; from then on it reads that dict, and the
    block's rows are no longer held by it. ``len``, truthiness, ``pair in
    index`` and ``a.keys() <= b.keys()`` between two observed indices never
    build it: an observer's pairs are all pairs of what it sees."""

    __slots__ = ("_rows", "_start", "_end", "_seen", "_index")

    def __init__(self, rows: tuple, start: int, end: int, seen: frozenset[int]):
        # the block's lo and hi lists and belief and disbelief arrays (kept
        # as arrays: a float costs 8 bytes there and 32 in a list), then the
        # uncertainty and the base rate that every opinion shares
        self._rows = rows
        self._start, self._end = start, end
        self._seen = seen
        self._index: Optional[PairIndex] = None

    @property
    def is_built(self) -> bool:
        """Whether the dict of opinions has been built."""
        return self._index is not None

    def as_dict(self) -> PairIndex:
        """The index as a dict, built on the first call; every call returns
        that same dict, which callers must not change."""
        index = self._index
        if index is None:
            lo, hi, belief, disbelief, u0, base_rate = self._rows
            s, e = self._start, self._end
            pairs = zip(lo[s:e], hi[s:e])
            fields = zip(
                belief[s:e].tolist(), disbelief[s:e].tolist(), repeat(u0), repeat(base_rate)
            )
            index = self._index = _BuiltIndex(zip(pairs, map(_new_opinion, fields)))
            index._seen = self._seen
            self._rows = None
        return index

    def __getitem__(self, pair: tuple[int, int]) -> Opinion:
        return self.as_dict()[pair]

    def __iter__(self):
        return iter(self.as_dict())

    def __len__(self) -> int:
        return self._end - self._start

    def __contains__(self, pair) -> bool:
        if not isinstance(pair, tuple) or len(pair) != 2:
            return False
        lo, hi = pair
        return lo in self._seen and hi in self._seen and lo < hi

    def keys(self) -> KeysView:
        return _ObservedKeys(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.as_dict()!r})"


class _BuiltIndex(dict):
    """The dict an ``ObservedIndex`` builds: read as a plain dict, while its
    key view still compares what its observer saw."""

    __slots__ = ("_seen",)

    def keys(self) -> KeysView:
        return _ObservedKeys(self)


class _ObservedKeys(KeysView):
    """Key view of an observed index, built or not. ``a <= b`` between two
    such views compares the seen sets and builds neither index."""

    def __le__(self, other):
        if isinstance(other, _ObservedKeys):
            return self._mapping._seen <= other._mapping._seen
        return super().__le__(other)


_new_opinion = partial(tuple.__new__, Opinion)


# A block of periods holds whole periods up to this many observer x individual
# entries, and at least one period: the entries, and the numpy temporaries
# that grow with the pairs seen, stay bounded whatever the period's size. A
# block's fixed cost is a few dozen numpy calls; twice this cap saved no
# measurable time and added 0.5 MB to a 12-agent replay's peak RSS.
BLOCK_ENTRIES = 2048

Percept = dict[int, tuple[ObservedIndex, list[tuple[int, float]], tuple[tuple[int, int], ...]]]
RangeTable = dict[int, tuple[int, ...]]


class _Entries(NamedTuple):
    """A block's geometry: its frames' columns laid end to end, one row per
    (period, observer) in order, and one entry per row and column of the
    row's own frame, row-major."""

    ids: np.ndarray  # per column
    pos: np.ndarray
    angle: np.ndarray
    obs_col: np.ndarray  # per row: the observer's own column
    row: np.ndarray  # per entry
    col: np.ndarray
    other: np.ndarray  # the column is not the row's observer
    dx: np.ndarray  # column minus observer
    dy: np.ndarray
    dist: np.ndarray
    within: np.ndarray  # dist within the observation radius


def observe_block(
    frames: Sequence[TraceFrame],
    observers: Sequence[Sequence[int]],
    config: PerceptConfig,
    rng: np.random.Generator,
    request_threshold: float = 0.5,
    u_min: float = 0.0,
    comm_range: float | None = None,
) -> list[tuple[Percept, RangeTable]]:
    """The percept and the range table of consecutive periods in one
    vectorised pass, ``observers[p]`` the observers of ``frames[p]``.

    Per period, the percept maps each observer to its pair index, an opinion
    about every unordered pair with both individuals within the observation
    radius, as an ``ObservedIndex`` built on first read; its (id, true
    distance) list of the other individuals within that radius; and the
    pairs of its index whose opinion passes ``opinions.may_pass`` at the
    protocol's ``request_threshold`` and ``u_min``, in index order. Each
    observer perturbs the positions and shoulder angles it sees with the
    configured sensor noise before the geometry features are computed, so
    the opinion about (i, j) does not depend on pair ordering. The noise of
    the block is one draw, laid out period by period and, within a period,
    per observer in ``observers`` order as its (m, 2) position block
    followed by its m angles, so it equals one draw per period; observers
    seeing fewer than two individuals draw nothing.

    The range table maps each observer to the ascending ids of the other
    observers of its period within ``comm_range`` (``dx * dx + dy * dy <=
    comm_range ** 2``): the observers are a period's agents, and only agents
    receive messages. Without a ``comm_range`` no range is computed and no
    observer has another in range."""
    e = _visibility(frames, observers, config.observation_radius)
    n_rows = len(e.obs_col)
    visible = np.bincount(e.row[e.within], minlength=n_rows)
    per_row = np.where(visible >= 2, visible, 0)
    # one slot per individual seen by an observer that sees a pair, in
    # row-major order: the order of the noise draws
    slots = np.flatnonzero(e.within & (per_row > 0)[e.row])
    rows, cols = e.row[slots], e.col[slots]
    first = (np.cumsum(per_row) - per_row)[rows]  # first slot of the row
    rank = np.arange(len(rows)) - first
    pos = e.pos[cols]
    ang = e.angle[cols]
    sigma_pos, sigma_ang = config.noise_sigma_pos, config.noise_sigma_angle
    if len(rows) and (sigma_pos > 0.0 or sigma_ang > 0.0):
        draws = 2 * (sigma_pos > 0.0) + (sigma_ang > 0.0)
        noise = rng.standard_normal(len(rows) * draws)
        start = draws * first
        if sigma_pos > 0.0:
            at = start + 2 * rank
            pos = pos + sigma_pos * np.stack([noise[at], noise[at + 1]], axis=1)
            start = start + 2 * per_row[rows]
        if sigma_ang > 0.0:
            ang = ang + sigma_ang * noise[start + rank]
    # slot pairs i < j within each row, in the order of np.triu_indices
    partners = per_row[rows] - 1 - rank
    i_slot = np.repeat(np.arange(len(rows)), partners)
    offset = np.arange(len(i_slot)) - np.repeat(np.cumsum(partners) - partners, partners)
    j_slot = i_slot + 1 + offset
    pair_rows = rows[i_slot]
    dist_ij, phi = _kernels.pair_geometry(pos, ang, i_slot, j_slot)
    likelihood = _likelihood(dist_ij, phi, config)
    u0, base_rate = config.base_uncertainty, config.base_rate
    seen = e.ids[cols]
    a, b = seen[i_slot], seen[j_slot]
    lo, hi = np.minimum(a, b).tolist(), np.maximum(a, b).tolist()
    belief, disbelief = likelihood * (1.0 - u0), (1.0 - likelihood) * (1.0 - u0)
    # opinions.may_pass elementwise, floor_uncertainty's operations in its order
    if u0 >= u_min:
        expected = belief + base_rate * u0
    else:
        expected = belief * ((1.0 - u_min) / (belief + disbelief)) + base_rate * u_min
    strong = expected >= request_threshold - FUSION_BOUND_TOL
    mask = strong.tolist()
    strong_pairs = tuple(zip(compress(lo, mask), compress(hi, mask)))
    strong_lists = _split(strong_pairs, pair_rows[strong], n_rows)
    neighbours = _neighbour_lists(e)
    receivers = [()] * n_rows if comm_range is None else _receivers(e, comm_range)
    ends = np.cumsum(np.bincount(pair_rows, minlength=n_rows)).tolist()
    seen_ids = seen.tolist()
    seen_ends = np.cumsum(per_row).tolist()
    block_rows = (lo, hi, belief, disbelief, u0, base_rate)
    percepts = [
        (ObservedIndex(block_rows, start, end, frozenset(seen_ids[seen_start:seen_end])), *row)
        for start, end, seen_start, seen_end, *row in zip(
            [0] + ends, ends, [0] + seen_ends, seen_ends, neighbours, strong_lists
        )
    ]
    bounds = list(accumulate(map(len, observers), initial=0))
    return [
        (dict(zip(ids, percepts[r:q])), dict(zip(ids, receivers[r:q])))
        for ids, r, q in zip(observers, bounds, bounds[1:])
    ]


def observe_period(
    frame: TraceFrame,
    observers: Sequence[int],
    config: PerceptConfig,
    rng: np.random.Generator,
    request_threshold: float = 0.5,
    u_min: float = 0.0,
) -> Percept:
    """One period's percept for every observer: ``observe_block`` of one period."""
    [(percept, _)] = observe_block([frame], [observers], config, rng, request_threshold, u_min)
    return percept


def observe(
    frame: TraceFrame,
    observer: int,
    config: PerceptConfig,
    rng: np.random.Generator,
) -> ObservedIndex:
    """Pair index of one observer; see ``observe_block``."""
    return observe_period(frame, [observer], config, rng)[observer][0]


def neighbors_within(frame: TraceFrame, observer: int, radius: float) -> list[tuple[int, float]]:
    """(id, true distance) for every other individual within ``radius``."""
    if observer not in frame.ids:
        return []
    return _neighbour_lists(_visibility([frame], [[observer]], radius))[0]


def _visibility(
    frames: Sequence[TraceFrame], observers: Sequence[Sequence[int]], radius: float
) -> _Entries:
    """The block's entries, with each one's true distance from its row's
    observer to its column and whether that lies within ``radius``."""
    own_cols: list[int] = []
    widths: list[int] = []  # per row: the columns of its frame
    bases: list[int] = []  # per row: its frame's first column
    n_cols = 0
    for frame, period_observers in zip(frames, observers):
        index = {aid: n_cols + k for k, aid in enumerate(frame.ids)}
        for o in period_observers:
            if o not in index:
                raise ValueError(f"observer {o} not present in frame at t={frame.time}")
            own_cols.append(index[o])
        widths += repeat(len(index), len(period_observers))
        bases += repeat(n_cols, len(period_observers))
        n_cols += len(index)
    ids = np.fromiter(chain.from_iterable(f.ids for f in frames), np.int64, n_cols)
    pos = np.concatenate([f.pos for f in frames])
    angle = np.concatenate([f.angle for f in frames])
    obs_col = np.array(own_cols, dtype=np.intp)
    width = np.array(widths, dtype=np.intp)
    row = np.repeat(np.arange(len(obs_col)), width)
    # an entry's column: its frame's first column plus its place in the row
    shift = np.array(bases, dtype=np.intp) - (np.cumsum(width) - width)
    col = np.arange(len(row)) + np.repeat(shift, width)
    own = obs_col[row]
    x, y = pos[:, 0], pos[:, 1]  # gathers from one axis, not pos[col, 0]: a third the time
    dx = x[col] - x[own]
    dy = y[col] - y[own]
    dist = np.hypot(dx, dy)
    return _Entries(ids, pos, angle, obs_col, row, col, col != own, dx, dy, dist, dist <= radius)


def _receivers(e: _Entries, comm_range: float) -> list[tuple[int, ...]]:
    """Each row's ascending ids of the other observers of its frame within
    ``comm_range``."""
    is_agent = np.zeros(len(e.ids), dtype=bool)
    is_agent[e.obs_col] = True
    in_range = (e.dx * e.dx + e.dy * e.dy <= comm_range**2) & is_agent[e.col] & e.other
    in_range = np.flatnonzero(in_range)
    rows, ids = e.row[in_range], e.ids[e.col[in_range]]
    # a frame's columns need not ascend by id: an opinion provider's comes
    # last whatever its id
    ids = ids[np.lexsort((ids, rows))]
    return _split(tuple(ids.tolist()), rows, len(e.obs_col))


def _split(flat: Sequence, rows: np.ndarray, n_rows: int) -> list:
    """``flat`` grouped by ``rows`` (ascending row indices, one per item):
    one slice of it per row of ``n_rows``."""
    ends = np.cumsum(np.bincount(rows, minlength=n_rows)).tolist()
    return [flat[start:end] for start, end in zip([0] + ends, ends)]


def _neighbour_lists(e: _Entries) -> list[list[tuple[int, float]]]:
    """Each row's (id, true distance) of the other individuals within the radius."""
    others = np.flatnonzero(e.within & e.other)
    pairs = list(zip(e.ids[e.col[others]].tolist(), e.dist[others].tolist()))
    return _split(pairs, e.row[others], len(e.obs_col))


def _likelihood(dist: np.ndarray, phi: np.ndarray, config: PerceptConfig) -> np.ndarray:
    if config.model == "gmm":
        assert config.gmm is not None
        return np.clip(config.gmm.posterior(dist, phi), 0.0, 1.0)
    z = config.distance_steepness * (config.distance_midpoint - dist)
    sig = 1.0 / (1.0 + np.exp(-z))
    return sig * np.power(np.clip(phi, 0.0, 1.0), config.facing_weight)


# ----------------------------------------------------------------------
# Gaussian mixture fitting (two classes over (distance, facing))

_MIN_SAMPLES_PER_CLASS = 10


def fit_gmm(
    labeled: Sequence[tuple[float, float, int]],
    n_components: int = 2,
    seed: int = 0,
    reg: float = 1e-6,
    max_iter: int = 200,
    tol: float = 1e-8,
) -> GmmModel:
    """EM-fit class-conditional mixtures from (distance, facing, label)
    samples; deterministic for a fixed seed."""
    data = {0: [], 1: []}
    for d, phi, label in labeled:
        if label not in (0, 1):
            raise ValueError(f"labels must be 0 or 1, got {label!r}")
        data[label].append((float(d), float(phi)))
    for label, rows in data.items():
        if len(rows) < _MIN_SAMPLES_PER_CLASS:
            raise ValueError(
                f"need at least {_MIN_SAMPLES_PER_CLASS} samples per class, "
                f"class {label} has {len(rows)}"
            )
    rng = np.random.default_rng(seed)
    means, covs, weights = [], [], []
    for label in (0, 1):
        x = np.asarray(data[label])
        mu, cov, w = _fit_single_mixture(x, n_components, rng, reg, max_iter, tol)
        means.append(mu)
        covs.append(cov)
        weights.append(w)
    n0, n1 = len(data[0]), len(data[1])
    total = n0 + n1
    return GmmModel(
        means=(means[0], means[1]),
        covariances=(covs[0], covs[1]),
        weights=(weights[0], weights[1]),
        class_priors=(n0 / total, n1 / total),
    )


def _fit_single_mixture(x, k, rng, reg, max_iter, tol):
    n = x.shape[0]
    picks = rng.choice(n, size=min(k, n), replace=False)
    mu = x[picks].copy()
    if len(picks) < k:
        mu = np.vstack([mu, x[rng.choice(n, size=k - len(picks))]])
    base_cov = np.cov(x.T) + reg * np.eye(2)
    cov = np.stack([base_cov.copy() for _ in range(k)])
    w = np.full(k, 1.0 / k)
    prev = -np.inf
    for _ in range(max_iter):
        dens = np.stack(
            [w[c] * _gaussian_density(x, mu[c], cov[c]) for c in range(k)], axis=1
        )
        total = dens.sum(axis=1, keepdims=True)
        total = np.maximum(total, 1e-300)
        resp = dens / total
        loglik = float(np.sum(np.log(total)))
        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-12)
        w = nk / n
        mu = (resp.T @ x) / nk[:, None]
        for c in range(k):
            centered = x - mu[c]
            cov[c] = (resp[:, c][:, None] * centered).T @ centered / nk[c]
            cov[c] += reg * np.eye(2)
        if abs(loglik - prev) < tol:
            break
        prev = loglik
    for c in range(k):
        det = float(np.linalg.det(cov[c]))
        if not math.isfinite(det) or det <= 0:
            raise DegenerateDataError("singular component covariance after regularization")
    return mu, cov, w


def _gaussian_density(x, mean, cov):
    det = float(np.linalg.det(cov))
    if det <= 0:
        raise DegenerateDataError("singular covariance in density evaluation")
    inv = np.linalg.inv(cov)
    diff = x - mean
    expo = -0.5 * np.einsum("ni,ij,nj->n", diff, inv, diff)
    return np.exp(expo) / (2.0 * math.pi * math.sqrt(det))


def _mixture_density(x, means, covs, weights):
    flat = x.reshape(-1, 2)
    dens = np.zeros(flat.shape[0])
    for c in range(means.shape[0]):
        dens += weights[c] * _gaussian_density(flat, means[c], covs[c])
    return dens.reshape(x.shape[:-1])
