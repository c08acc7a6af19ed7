"""Assignment-variance functional (MC and quadrature) and VIF checks."""

import math
import multiprocessing

import numpy as np
import pytest

from _oracles import variance_functional_mc_reference
from bnt import theory, workers
from bnt.linalg import gram_schmidt
from bnt.rng import Rng
from bnt.theory import (
    correlated_unit_centers,
    orthonormal_centers,
    variance_functional_2d,
    variance_functional_mc,
    vif,
)

# quadrature values for two unit centers phi apart, radius 3, 64 nodes;
# doubling the node count moves these by < 1e-8
QUAD_LADDER = {
    math.pi / 8: 0.0384561725,
    math.pi / 4: 0.1152385321,
    3 * math.pi / 8: 0.1837164524,
    math.pi / 2: 0.2324204848,
}


def test_quadrature_zero_angle_is_exactly_zero():
    assert variance_functional_2d(0.0, 3.0) == 0.0


def test_quadrature_ladder_values_and_monotonicity():
    values = [variance_functional_2d(phi, 3.0) for phi in QUAD_LADDER]
    for got, want in zip(values, QUAD_LADDER.values()):
        assert got == pytest.approx(want, abs=1e-8)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_quadrature_node_convergence():
    for phi in (math.pi / 4, math.pi / 2):
        coarse = variance_functional_2d(phi, 3.0, quad_nodes=64)
        fine = variance_functional_2d(phi, 3.0, quad_nodes=128)
        assert abs(coarse - fine) < 1e-8


def test_quadrature_input_validation():
    with pytest.raises(ValueError):
        variance_functional_2d(0.5, 0.0)
    with pytest.raises(ValueError):
        variance_functional_2d(0.5, 3.0, quad_nodes=1)


def test_mc_agrees_with_quadrature_in_2d():
    phi = math.pi / 3
    centers = np.array([[1.0, 0.0], [math.cos(phi), math.sin(phi)]])
    exact = variance_functional_2d(phi, 3.0, quad_nodes=128)
    est = variance_functional_mc(centers, radius=3.0, n_samples=200_000, seed=42)
    assert abs(est.value - exact) < 5.0 * est.standard_error
    assert est.standard_error > 0.0
    assert est.n_samples == 200_000


def test_mc_deterministic_and_jobs_invariant():
    centers = orthonormal_centers(3, 5, seed=7)
    a = variance_functional_mc(centers, 2.5, 40_000, seed=11)
    b = variance_functional_mc(centers, 2.5, 40_000, seed=11)
    c = variance_functional_mc(centers, 2.5, 40_000, seed=11, block_size=10_000, jobs=4)
    d = variance_functional_mc(centers, 2.5, 40_000, seed=11, block_size=10_000)
    assert (a.value, a.standard_error) == (b.value, b.standard_error)
    assert (c.value, c.standard_error) == (d.value, d.standard_error)
    # estimates are plain Python floats so downstream repr() is portable
    assert type(a.value) is float and type(a.standard_error) is float


@pytest.mark.parametrize("k, dim", [(2, 2), (3, 5), (4, 7), (4, 8)])
def test_mc_chunks_match_the_whole_block_reference(k, dim):
    # 4095/4097 straddle the 4,096-sample chunk at dim 8; 65537 and 200003
    # end in partial blocks, the first of a single sample
    centers = correlated_unit_centers(k, dim, 0.3) if dim > k else orthonormal_centers(k, dim, 1)
    for n in (2, 4095, 4097, 65537, 200003):
        want = variance_functional_mc_reference(centers, 2.5, n, seed=n)
        for jobs in (1, 3):
            est = variance_functional_mc(centers, 2.5, n, seed=n, jobs=jobs)
            assert (est.value, est.standard_error) == want, (n, jobs)


def test_mc_pool_size_is_bounded_by_blocks_and_cpus(monkeypatch):
    sizes = []
    fork_pool = workers._fork_pool

    def recorder(n, fn, items):
        sizes.append(n)
        return fork_pool(n, fn, items)

    monkeypatch.setattr(workers, "_fork_pool", recorder)
    centers = orthonormal_centers(2, 3, seed=0)
    serial = variance_functional_mc(centers, 3.0, 2_500, seed=4, block_size=1_000)
    for jobs, cpus in ((8, 64), (8, 2), (2, 64), (3, 1), (1, 64)):
        monkeypatch.setattr(theory, "usable_cpus", lambda: cpus)
        est = variance_functional_mc(centers, 3.0, 2_500, seed=4, block_size=1_000, jobs=jobs)
        assert (est.value, est.standard_error) == (serial.value, serial.standard_error)
    # three blocks; no pool of one is made
    assert sizes == [3, 2, 2]
    assert multiprocessing.active_children() == []


def test_mc_rotation_invariance():
    rng = Rng(19)
    centers = orthonormal_centers(3, 5, seed=3)
    q = gram_schmidt(rng.normal(25).reshape(5, 5))  # orthogonal 5x5
    a = variance_functional_mc(centers, 3.0, 100_000, seed=5)
    b = variance_functional_mc(centers @ q, 3.0, 100_000, seed=6)
    combined = math.hypot(a.standard_error, b.standard_error)
    assert abs(a.value - b.value) < 5.0 * combined


def test_mc_orthonormal_beats_correlated():
    # the geometric claim at small scale: more separated centers push
    # assignments further from uniform
    orth = variance_functional_mc(orthonormal_centers(4, 8, seed=0), 3.0, 50_000, seed=1)
    corr = variance_functional_mc(correlated_unit_centers(4, 8, 0.5), 3.0, 50_000, seed=1)
    combined = math.hypot(orth.standard_error, corr.standard_error)
    assert orth.value - corr.value > 5.0 * combined


def test_mc_input_validation():
    centers = orthonormal_centers(2, 4, seed=0)
    with pytest.raises(ValueError):
        variance_functional_mc(np.zeros(4), 3.0, 100, seed=0)
    with pytest.raises(ValueError):
        variance_functional_mc(centers, -1.0, 100, seed=0)
    with pytest.raises(ValueError):
        variance_functional_mc(centers, 3.0, 1, seed=0)
    with pytest.raises(ValueError, match="jobs"):
        variance_functional_mc(centers, 3.0, 100, seed=0, jobs=0)


def test_center_factories():
    e = orthonormal_centers(4, 9, seed=2)
    assert e.shape == (4, 9)
    assert np.abs(e @ e.T - np.eye(4)).max() < 1e-10

    c = correlated_unit_centers(3, 7, 0.4)
    assert c.shape == (3, 7)
    norms = np.sqrt((c * c).sum(axis=1))
    assert np.abs(norms - 1.0).max() < 1e-12
    gram = c @ c.T
    off = gram[~np.eye(3, dtype=bool)]
    assert np.abs(off - 0.4).max() < 1e-12

    with pytest.raises(ValueError):
        correlated_unit_centers(3, 3, 0.4)  # needs dim >= k + 1
    with pytest.raises(ValueError):
        correlated_unit_centers(3, 7, 1.0)
    with pytest.raises(ValueError):
        correlated_unit_centers(3, 7, -0.1)


# ---------------------------------------------------------------------------
# VIF


def _correlated_design(seed, s=400, r=4):
    rng = Rng(seed)
    x = rng.normal(s * r).reshape(s, r)
    shared = rng.normal(s)
    return x + 0.6 * shared[:, None]


def test_vif_matches_correlation_inverse_oracle():
    # for columns regressed with an intercept, VIF_p equals the p-th
    # diagonal of the inverse correlation matrix
    x = _correlated_design(31)
    report = vif(x)
    oracle = np.diag(np.linalg.inv(np.corrcoef(x, rowvar=False)))
    assert np.allclose(report.vif, oracle, rtol=1e-9, atol=0)
    assert report.mean_vif == pytest.approx(np.mean(report.vif), rel=1e-15)
    assert all(v >= 1.0 - 1e-12 for v in report.vif)
    assert all(0.0 <= r2 < 1.0 for r2 in report.r_squared)


def test_vif_orthogonal_columns_are_one():
    rng = Rng(8)
    s, r = 256, 4
    rows = np.vstack([np.ones(s), rng.normal(s * r).reshape(r, s)])
    design = gram_schmidt(rows)[1:].T  # columns orthogonal to 1 and each other
    report = vif(design)
    assert np.abs(np.array(report.vif) - 1.0).max() < 1e-9


def test_vif_flags_exact_collinearity():
    rng = Rng(12)
    s = 100
    x1 = rng.normal(s)
    x2 = rng.normal(s)
    x4 = rng.normal(s)
    design = np.column_stack([x1, x2, 2.0 * x1 - x2, x4])
    report = vif(design)
    assert report.vif[0] == math.inf
    assert report.vif[1] == math.inf
    assert report.vif[2] == math.inf
    assert math.isfinite(report.vif[3])
    assert report.mean_vif == math.inf


def test_vif_input_validation():
    rng = Rng(0)
    with pytest.raises(ValueError):
        vif(rng.normal(10))  # not 2-D
    with pytest.raises(ValueError):
        vif(rng.normal(12).reshape(12, 1))  # one variable
    with pytest.raises(ValueError):
        vif(rng.normal(12).reshape(4, 3))  # too few samples
    with pytest.raises(ValueError):
        vif(np.column_stack([np.ones(10), rng.normal(10)]))  # constant column
    bad = rng.normal(30).reshape(10, 3)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        vif(bad)
