"""Numerical checks of the readout-geometry theory.

Two claims are made executable here:

1. Center geometry and assignment variance.  For cluster centers E and
   a node embedding Z drawn uniformly from the radius-r ball, the
   functional

       F = (1/vol) * integral over the ball of sum_k (P_k(Z) - 1/K)^2

   (P = softmax of the inner products with the centers) measures how far
   soft assignments sit from uniform.  Orthonormal centers should score
   higher than correlated ones.  ``variance_functional_mc`` estimates F
   for arbitrary centers by Monte Carlo; ``variance_functional_2d``
   evaluates the two-center planar case, where both unit centers are an
   angle phi apart and F reduces to a polar double integral

       F(phi) = (1/(pi r^2)) * int_0^r int_0^{2pi} 2*(p1 - 1/2)^2 rho dtheta drho,
       p1 = 1 / (1 + exp(rho*(cos(theta - phi) - cos(theta)))),

   by tensor-product quadrature (periodic trapezoid in theta,
   Gauss-Legendre in rho).  F(0) = 0 and F increases on [0, pi/2].

2. Feature-column redundancy.  ``vif`` computes each design column's
   variance inflation factor 1/(1 - R_p^2), where R_p^2 comes from the
   ordinary least squares regression of column p on the remaining
   columns plus an intercept.  Orthogonal centered columns give
   VIF_p = 1 exactly; correlation inflates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .rng import Rng
from .workers import ordered_map, usable_cpus

_DEFAULT_BLOCK = 1 << 16
# Samples are drawn and scored in chunks whose (samples, dim) array stays
# in cache; the chunking changes no bit of any estimate.
_MC_CHUNK_BYTES = 1 << 18
_COLLINEAR_R2 = 1.0 - 1e-12


@dataclass
class VarianceFunctionalEstimate:
    value: float
    standard_error: float
    n_samples: int
    radius: float
    seed: int


@dataclass
class VifReport:
    vif: list[float]  # per column; math.inf marks exact collinearity
    r_squared: list[float]
    mean_vif: float


def variance_functional_mc(
    centers,
    radius: float,
    n_samples: int,
    seed: int,
    block_size: int = _DEFAULT_BLOCK,
    jobs: int = 1,
) -> VarianceFunctionalEstimate | list[VarianceFunctionalEstimate]:
    """Monte Carlo estimate of the ball-averaged assignment variance.

    ``centers`` is one (clusters, dim) set, which gives one
    VarianceFunctionalEstimate, or a (sets, clusters, dim) stack, which
    gives a list of them: every set is scored on the same draws (common
    random numbers), each estimate bit for bit the one its set gets alone.
    Samples are generated in independent blocks, each from its own
    derived stream keyed by (seed, block index), and block sums are
    reduced in index order, so the result does not depend on `jobs`, the
    number of worker processes (at most one per block or CPU).
    A block of n samples is ``normal(n * dim)`` then n radius uniforms,
    drawn and scored in cache-sized chunks; each chunk draws its own words
    of the counter-based stream, so the chunking changes no bit.
    """
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim not in (2, 3):
        raise ValueError("centers must be 2-D (clusters x dim) or a 3-D stack of such sets")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    stack = centers.reshape(-1, *centers.shape[-2:])
    k, dim = centers.shape[-2:]
    base = Rng(seed)
    sizes = [
        min(block_size, n_samples - start) for start in range(0, n_samples, block_size)
    ]
    step = max(1, _MC_CHUNK_BYTES // (8 * dim))

    def run_block(block):
        index, size = block
        rng = base.derive(index)
        radius_word = 2 * ((size * dim + 1) // 2)  # the counter after normal(size * dim)
        vals = np.empty((len(stack), size))
        for s0 in range(0, size, step):
            s1 = min(s0 + step, size)
            rng.counter = 0  # where the block's normal(size * dim) draw starts
            g = rng.normal_span(size * dim, s0 * dim, s1 * dim).reshape(s1 - s0, dim)
            rng.counter = radius_word + s0
            norms = np.maximum(np.sqrt(linalg.sum_lastaxis(g * g)), 1e-300)
            g *= radius * rng.uniform(s1 - s0)[:, None] ** (1.0 / dim) / norms  # in the ball
            for row, c in zip(vals, stack):
                p = linalg.softmax_lastaxis(g @ c.T)
                p -= 1.0 / k
                p *= p
                row[s0:s1] = linalg.sum_lastaxis(p)[:, 0]
        return [(row.sum(), (row * row).sum()) for row in vals]

    estimates = []
    for per_block in zip(*ordered_map(run_block, enumerate(sizes), min(jobs, usable_cpus()))):
        total = total_sq = 0.0
        for s, sq in per_block:  # fixed reduction order
            total += s
            total_sq += sq
        mean = float(total) / n_samples
        var = max(float(total_sq) / n_samples - mean * mean, 0.0)
        se = math.sqrt(var / n_samples)
        estimates.append(VarianceFunctionalEstimate(
            value=mean, standard_error=se, n_samples=n_samples, radius=radius, seed=seed
        ))
    return estimates if centers.ndim == 3 else estimates[0]


def variance_functional_2d(phi: float, radius: float, quad_nodes: int = 64) -> float:
    """Quadrature value of F(phi) for two unit centers phi radians apart.

    Trapezoid rule over the periodic angle, Gauss-Legendre over the
    radial coordinate (with the polar Jacobian), normalized by the disk
    area.  Doubling quad_nodes moves the defaults by < 1e-8.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if quad_nodes < 2:
        raise ValueError("quad_nodes must be >= 2")
    theta = np.arange(quad_nodes) * (2.0 * np.pi / quad_nodes)
    w_theta = 2.0 * np.pi / quad_nodes
    x, w = np.polynomial.legendre.leggauss(quad_nodes)
    rho = 0.5 * radius * (x + 1.0)
    w_rho = 0.5 * radius * w

    # p1 via the logit difference; phi = 0 gives d = 0 and p1 = 1/2 exactly.
    d = rho[:, None] * (np.cos(theta[None, :] - phi) - np.cos(theta[None, :]))
    p1 = linalg.sigmoid(d)
    integrand = 2.0 * (p1 - 0.5) ** 2
    inner = integrand.sum(axis=1) * w_theta  # angle integral per radius
    integral = float(((inner * rho) * w_rho).sum())
    return integral / (np.pi * radius * radius)


def orthonormal_centers(k: int, dim: int, seed: int) -> np.ndarray:
    """k orthonormal center rows in R^dim drawn from the given seed."""
    return linalg.orthonormal_rows(k, dim, Rng(seed))


def correlated_unit_centers(k: int, dim: int, cosine: float) -> np.ndarray:
    """k unit rows in R^dim with every pairwise inner product equal.

    Built as sqrt(c) * e_0 + sqrt(1-c) * e_i for i = 1..k, which needs
    dim >= k + 1 and 0 <= cosine < 1.
    """
    if not 0.0 <= cosine < 1.0:
        raise ValueError("cosine must lie in [0, 1)")
    if dim < k + 1:
        raise ValueError(f"need dim >= k + 1, got k={k}, dim={dim}")
    e = np.zeros((k, dim))
    e[:, 0] = math.sqrt(cosine)
    for i in range(k):
        e[i, i + 1] = math.sqrt(1.0 - cosine)
    return e


def vif(design) -> VifReport:
    """Variance inflation factors of the design's columns.

    Each column is regressed (with intercept) on all the others via the
    normal equations; VIF_p = 1/(1 - R_p^2).  An R_p^2 within 1e-12 of
    1 is reported as an infinite VIF (exact collinearity).
    """
    x = np.asarray(design, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("design must be 2-D (samples x variables)")
    s, r = x.shape
    if r < 2:
        raise ValueError("need at least two variables")
    if s <= r + 1:
        raise ValueError(f"need more samples than variables + 1, got {s} x {r}")
    if not np.isfinite(x).all():
        raise ValueError("design must be finite")

    vifs: list[float] = []
    r2s: list[float] = []
    for p in range(r):
        y = x[:, p]
        others = np.delete(x, p, axis=1)
        a = np.hstack([np.ones((s, 1)), others])
        gram = a.T @ a
        rhs = a.T @ y
        try:
            beta = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            beta, *_ = np.linalg.lstsq(a, y, rcond=None)
        resid = y - a @ beta
        sst = float(((y - y.mean()) ** 2).sum())
        if sst == 0.0:
            raise ValueError(f"column {p} is constant; VIF is undefined")
        r2 = 1.0 - float((resid * resid).sum()) / sst
        r2s.append(r2)
        vifs.append(math.inf if r2 >= _COLLINEAR_R2 else 1.0 / (1.0 - r2))
    return VifReport(vif=vifs, r_squared=r2s, mean_vif=sum(vifs) / r)
