"""Tomogravity TM estimation (paper §5.1; Zhang et al. 2003).

Given link byte counts ``y``, a routing matrix ``A`` and a gravity prior
``g``, tomogravity picks the TM that satisfies the link constraints while
deviating least from the prior under a weighted least-squares norm:

    minimize   ||(x - g) / sqrt(w)||²  subject to  A x ≈ y,  x ≥ 0

with weights ``w ∝ g`` so that relative (not absolute) deviations are
penalised.  The equality constraints are folded into the objective with a
large penalty and the bounded problem is solved with
``scipy.optimize.lsq_linear`` — robust, dependency-free, and exact enough
for the estimation-error analysis the paper performs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["tomogravity_estimate"]

#: Relative weight of the link-count constraints vs. the prior pull.
_CONSTRAINT_PENALTY = 300.0


def tomogravity_estimate(
    routing: np.ndarray,
    link_counts: np.ndarray,
    prior: np.ndarray,
    max_iterations: int = 200,
) -> np.ndarray:
    """Estimate TM pair volumes from link counts and a prior.

    Returns a non-negative vector aligned with the routing matrix's pair
    columns.  A zero-traffic instance returns the zero vector.
    ``scipy.optimize`` loads on the first call, so a process that never
    solves does not pay its ~40 MB and ~0.4 s.
    """
    from scipy.optimize import lsq_linear

    matrix = np.asarray(routing, dtype=float)
    counts = np.asarray(link_counts, dtype=float)
    prior_vec = np.asarray(prior, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("routing matrix must be 2-D")
    num_links, num_pairs = matrix.shape
    if counts.shape != (num_links,):
        raise ValueError("link_counts length must match routing rows")
    if prior_vec.shape != (num_pairs,):
        raise ValueError("prior length must match routing columns")
    if np.any(counts < 0) or np.any(prior_vec < 0):
        raise ValueError("link counts and prior must be non-negative")

    total = counts.sum()
    if total <= 0 or prior_vec.sum() <= 0:
        return np.zeros(num_pairs)

    # Normalise to O(1) so the solver tolerances behave uniformly.
    scale = prior_vec.sum()
    prior_n = prior_vec / scale
    counts_n = counts / scale

    # Relative-deviation weights; floor keeps zero-prior pairs feasible.
    weights = np.sqrt(np.maximum(prior_n, 1e-6 * prior_n.mean()))
    design = np.vstack([
        _CONSTRAINT_PENALTY * matrix,
        np.diag(1.0 / weights),
    ])
    target = np.concatenate([
        _CONSTRAINT_PENALTY * counts_n,
        prior_n / weights,
    ])
    result = lsq_linear(
        design,
        target,
        bounds=(0.0, np.inf),
        max_iter=max_iterations,
        lsmr_tol="auto",
    )
    estimate = np.maximum(result.x, 0.0) * scale
    return estimate
