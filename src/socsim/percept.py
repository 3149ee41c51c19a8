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

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .mobility import TraceFrame
from .opinions import Opinion


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

    def to_json(self) -> str:
        payload = {
            "classes": [
                {
                    "means": self.means[c].tolist(),
                    "covariances": self.covariances[c].tolist(),
                    "weights": self.weights[c].tolist(),
                }
                for c in (0, 1)
            ],
            "class_priors": list(self.class_priors),
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GmmModel":
        payload = json.loads(text)
        classes = payload["classes"]
        return cls(
            means=tuple(np.asarray(c["means"], float) for c in classes),
            covariances=tuple(np.asarray(c["covariances"], float) for c in classes),
            weights=tuple(np.asarray(c["weights"], float) for c in classes),
            class_priors=tuple(payload["class_priors"]),
        )


@dataclass
class PerceptConfig:
    model: str = "parametric"  # "parametric" | "gmm"
    distance_midpoint: float = 1.5
    distance_steepness: float = 4.0
    facing_weight: float = 1.0
    base_uncertainty: float = 0.1
    noise_sigma_pos: float = 0.0
    noise_sigma_angle: float = 0.0
    observation_radius: float = 10.0
    base_rate: float = 0.2
    gmm: Optional[GmmModel] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.base_uncertainty <= 1.0:
            raise ValueError("base_uncertainty must lie in (0, 1]")
        if self.observation_radius <= 0:
            raise ValueError("observation_radius must be positive")
        if self.model not in ("parametric", "gmm"):
            raise ValueError(f"unknown percept model {self.model!r}")
        if self.model == "gmm" and self.gmm is None:
            raise ValueError("gmm model selected but no fitted model supplied")


def observe_period(
    frame: TraceFrame,
    observers: Sequence[int],
    config: PerceptConfig,
    rng: np.random.Generator,
) -> dict[int, tuple[list[tuple[int, int, Opinion]], list[tuple[int, float]]]]:
    """One period's percept for every observer in one vectorised pass.

    Maps each observer to its opinions about every unordered pair with both
    individuals within the observation radius, and its (id, true distance)
    list of the other individuals within that radius. Each observer perturbs
    the positions and shoulder angles it sees with the configured sensor
    noise before the geometry features are computed, so the opinion about
    (i, j) does not depend on pair ordering. The noise of all observers is
    one draw, laid out per observer in ``observers`` order as its (m, 2)
    position block followed by its m angles; observers seeing fewer than
    two individuals draw nothing."""
    obs_idx, dist, within = _visibility(frame, observers, config.observation_radius)
    visible = within.sum(axis=1)
    per_row = np.where(visible >= 2, visible, 0)
    # one slot per individual seen by an observer that sees a pair, in
    # row-major order: the order of the noise draws
    rows, cols = np.nonzero(within & (per_row > 0)[:, None])
    first = (np.cumsum(per_row) - per_row)[rows]  # first slot of the row
    rank = np.arange(len(rows)) - first
    pos = frame.pos[cols]
    ang = frame.angle[cols]
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
    ids = np.asarray(frame.ids)
    a, b = ids[cols[i_slot]], ids[cols[j_slot]]
    opinions = [
        (lo, hi, Opinion(belief, disbelief, u0, base_rate))
        for lo, hi, belief, disbelief in zip(
            np.minimum(a, b).tolist(),
            np.maximum(a, b).tolist(),
            (likelihood * (1.0 - u0)).tolist(),
            ((1.0 - likelihood) * (1.0 - u0)).tolist(),
        )
    ]
    neighbours = _neighbour_lists(frame, obs_idx, dist, within)
    ends = np.cumsum(np.bincount(pair_rows, minlength=len(obs_idx))).tolist()
    return {
        observer: (opinions[start:end], neighbours[r])
        for r, (observer, start, end) in enumerate(zip(observers, [0] + ends, ends))
    }


def observe(
    frame: TraceFrame,
    observer: int,
    config: PerceptConfig,
    rng: np.random.Generator,
) -> list[tuple[int, int, Opinion]]:
    """Opinions of one observer; see ``observe_period``."""
    return observe_period(frame, [observer], config, rng)[observer][0]


def neighbors_within(frame: TraceFrame, observer: int, radius: float) -> list[tuple[int, float]]:
    """(id, true distance) for every other individual within ``radius``."""
    if frame.index_of(observer) is None:
        return []
    obs_idx, dist, within = _visibility(frame, [observer], radius)
    return _neighbour_lists(frame, obs_idx, dist, within)[0]


def _visibility(
    frame: TraceFrame, observers: Sequence[int], radius: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frame rows of the observers, their (observers, n) true distance rows
    to every individual, and which of those lie within ``radius``."""
    index = {aid: k for k, aid in enumerate(frame.ids)}
    missing = [o for o in observers if o not in index]
    if missing:
        raise ValueError(f"observer {missing[0]} not present in frame at t={frame.time}")
    obs_idx = np.array([index[o] for o in observers], dtype=np.intp)
    dx = frame.pos[:, 0] - frame.pos[obs_idx, 0][:, None]
    dy = frame.pos[:, 1] - frame.pos[obs_idx, 1][:, None]
    dist = np.hypot(dx, dy)
    return obs_idx, dist, dist <= radius


def _neighbour_lists(
    frame: TraceFrame, obs_idx: np.ndarray, dist: np.ndarray, within: np.ndarray
) -> list[list[tuple[int, float]]]:
    others = within.copy()
    others[np.arange(len(obs_idx)), obs_idx] = False
    rows, cols = np.nonzero(others)
    pairs = list(zip(np.asarray(frame.ids)[cols].tolist(), dist[rows, cols].tolist()))
    ends = np.cumsum(others.sum(axis=1)).tolist()
    return [pairs[start:end] for start, end in zip([0] + ends, ends)]


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
