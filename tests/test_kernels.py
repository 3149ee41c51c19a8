"""The numpy kernels against scalar reference loops, and a numba-free run."""

import math
import subprocess
import sys

import numpy as np
import pytest

from socsim import _kernels


def random_geometry(rng, m):
    pos = rng.uniform(0.0, 20.0, size=(m, 2))
    ang = rng.uniform(0.0, 2 * np.pi, size=m)
    return pos, ang


def pairwise_features_loop(pos, ang):
    """Scalar reference for ``_kernels.pairwise_features``."""
    i_idx, j_idx, dist, phi = [], [], [], []
    m = pos.shape[0]
    for i in range(m):
        for j in range(i + 1, m):
            dx = pos[j, 0] - pos[i, 0]
            dy = pos[j, 1] - pos[i, 1]
            d = math.sqrt(dx * dx + dy * dy)
            if d > 0.0:
                ux, uy = dx / d, dy / d
                cos_ij = math.cos(ang[i]) * ux + math.sin(ang[i]) * uy
                cos_ji = -(math.cos(ang[j]) * ux + math.sin(ang[j]) * uy)
                phi.append((cos_ij + cos_ji + 2.0) / 4.0)
            else:
                phi.append(1.0)
            i_idx.append(i)
            j_idx.append(j)
            dist.append(d)
    return np.array(i_idx), np.array(j_idx), np.array(dist), np.array(phi)


def force_step_loop(pos, center, k_center, k_repel, eps, max_disp, dt):
    """Scalar reference for ``_kernels.force_step``."""
    m = pos.shape[0]
    out = np.empty_like(pos)
    for i in range(m):
        fx = k_center * (center[0] - pos[i, 0])
        fy = k_center * (center[1] - pos[i, 1])
        nearest = sorted(
            (float(np.sum((pos[i] - pos[j]) ** 2)), j) for j in range(m) if j != i
        )[:2]
        for _, nb in nearest:
            dx, dy = pos[i, 0] - pos[nb, 0], pos[i, 1] - pos[nb, 1]
            d = max(math.sqrt(dx * dx + dy * dy), eps)
            fx += k_repel * dx / (d * d)
            fy += k_repel * dy / (d * d)
        mx, my = fx * dt, fy * dt
        norm = math.sqrt(mx * mx + my * my)
        if norm > max_disp:
            mx, my = mx * max_disp / norm, my * max_disp / norm
        out[i] = pos[i, 0] + mx, pos[i, 1] + my
    return out


@pytest.mark.parametrize("m", [2, 3, 7, 25])
def test_pairwise_features_backends_agree(m):
    rng = np.random.default_rng(m)
    pos, ang = random_geometry(rng, m)
    i1, j1, d1, p1 = _kernels.pairwise_features(pos, ang)
    i2, j2, d2, p2 = pairwise_features_loop(pos, ang)
    assert np.array_equal(i1, i2)
    assert np.array_equal(j1, j2)
    assert np.allclose(d1, d2, atol=1e-12)
    assert np.allclose(p1, p2, atol=1e-12)
    assert ((p1 >= 0.0) & (p1 <= 1.0)).all()


def test_pairwise_features_coincident_points():
    pos = np.zeros((2, 2))
    ang = np.array([0.0, 1.0])
    for impl in (_kernels.pairwise_features, pairwise_features_loop):
        _, _, d, phi = impl(pos, ang)
        assert d[0] == 0.0
        assert phi[0] == 1.0


@pytest.mark.parametrize("m", [2, 3, 6, 12])
def test_force_step_backends_agree(m):
    rng = np.random.default_rng(100 + m)
    pos = rng.uniform(0.0, 5.0, size=(m, 2))
    center = np.array([2.5, 2.5])
    a = _kernels.force_step(pos, center, 1.0, 0.5, 0.01, 0.7, 0.05)
    b = force_step_loop(pos, center, 1.0, 0.5, 0.01, 0.7, 0.05)
    assert np.allclose(a, b, atol=1e-12)


def test_force_step_displacement_cap():
    pos = np.array([[0.0, 0.0], [100.0, 100.0]])
    center = np.array([50.0, 50.0])
    stepped = _kernels.force_step(pos, center, 1.0, 0.5, 0.01, 0.7, 1.0)
    disp = np.hypot(*(stepped - pos).T)
    assert (disp <= 0.7 + 1e-12).all()


def test_pipeline_runs_without_numba(tmp_path):
    code = (
        "import sys; sys.modules['numba'] = None; "
        "from socsim.harness import Scenario, SyntheticSource, run; "
        "from socsim.mobility import MobilityConfig; "
        "sc = Scenario(source=SyntheticSource(MobilityConfig(n_agents=4, seed=1)), "
        "duration=10.0, dt=0.5, seed=2); "
        "res = run(sc); print(len(res.metrics_rows))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True
    )
    assert out.stdout.strip() == "11"
