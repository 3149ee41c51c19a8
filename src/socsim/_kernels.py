"""Hot numeric kernels (numpy).

``HAVE_NUMBA`` is always false: the kernels are plain numpy.
"""

from __future__ import annotations

import numpy as np

HAVE_NUMBA = False


def pair_geometry(pos, ang, i_idx, j_idx):
    """Pair geometry of the index pairs (``i_idx[k]``, ``j_idx[k]``) of
    agents with positions ``pos`` (m, 2) and shoulder normals ``ang`` (m,)
    radians.

    Returns (dist, phi). ``phi`` is the mutual-facing feature in [0, 1]:
    (cos a_ij + cos a_ji + 2) / 4 with a_xy the angle between x's shoulder
    normal and the direction from x to y; coincident points score 1.
    """
    x, y = pos[:, 0], pos[:, 1]  # gathers from one axis, not pos[j_idx, 0]: a third the time
    dx = x[j_idx] - x[i_idx]
    dy = y[j_idx] - y[i_idx]
    dist = np.hypot(dx, dy)
    safe = np.where(dist > 0.0, dist, 1.0)
    ux, uy = dx / safe, dy / safe
    cos_ij = np.cos(ang[i_idx]) * ux + np.sin(ang[i_idx]) * uy
    cos_ji = -(np.cos(ang[j_idx]) * ux + np.sin(ang[j_idx]) * uy)
    phi = (cos_ij + cos_ji + 2.0) / 4.0
    phi = np.where(dist > 0.0, phi, 1.0)
    return dist, phi


def pairwise_features(pos, ang):
    """``pair_geometry`` over every unordered index pair i < j.

    Returns flat arrays (i_idx, j_idx, dist, phi).
    """
    i_idx, j_idx = np.triu_indices(pos.shape[0], k=1)
    dist, phi = pair_geometry(pos, ang, i_idx, j_idx)
    return i_idx.astype(np.int64), j_idx.astype(np.int64), dist, phi


def force_step(pos, center, k_center, k_repel, eps, max_disp, dt):
    """One explicit-Euler step of the group arrangement force model.

    Each agent is attracted to ``center`` and repelled by its two nearest
    neighbors with force k_repel / d (distance clamped below ``eps``).
    Per-step displacement is capped at ``max_disp``.
    """
    m = pos.shape[0]
    force = k_center * (center[None, :] - pos)
    if m >= 2:
        diff = pos[:, None, :] - pos[None, :, :]
        d2 = np.sum(diff * diff, axis=2)
        np.fill_diagonal(d2, np.inf)
        n_nb = min(2, m - 1)
        nearest = np.argpartition(d2, n_nb - 1, axis=1)[:, :n_nb]
        rows = np.arange(m)[:, None]
        dvec = diff[rows, nearest]
        dist = np.maximum(np.sqrt(d2[rows, nearest]), eps)
        force += np.sum(k_repel * dvec / (dist * dist)[..., None], axis=1)
    disp = force * dt
    norm = np.hypot(disp[:, 0], disp[:, 1])
    scale = np.where(norm > max_disp, max_disp / np.where(norm > 0, norm, 1.0), 1.0)
    return pos + disp * scale[:, None]
