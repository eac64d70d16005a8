"""Sparsity-maximising TM estimation (paper §5.2).

"Given the sparse nature of datacenter TMs, we consider an estimation
method that favors sparser TMs among the many possible.  Specifically,
we formulated a mixed integer linear program (MILP) that generates the
sparsest TM subject to link traffic constraints."

The MILP, for pair volumes ``x`` and indicator binaries ``z``:

    minimize    Σ_k z_k
    subject to  |A x − y| ≤ tol · y   (per link)
                0 ≤ x_k ≤ M_k z_k
                z_k ∈ {0, 1}

with big-M per pair tightened to the smallest link count on the pair's
path (a pair cannot carry more than any link it crosses).  Solved with
``scipy.optimize.milp`` (HiGHS) under a time limit; the incumbent is
returned even when optimality is not proven, mirroring practical use.

The paper's finding — reproduced by experiment F14 — is that the
sparsest consistent TM is *much* sparser than the ground truth and its
non-zeros rarely coincide with true heavy hitters, so it estimates even
worse than tomogravity.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

__all__ = ["sparsity_max_estimate"]


@contextlib.contextmanager
def _silence_stdout():
    """Suppress HiGHS's C-level progress chatter during the solve."""
    stdout_fd = os.dup(1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, 1)
        yield
    finally:
        os.dup2(stdout_fd, 1)
        os.close(devnull)
        os.close(stdout_fd)


def sparsity_max_estimate(
    routing: np.ndarray,
    link_counts: np.ndarray,
    tolerance: float = 0.02,
    time_limit: float = 20.0,
) -> np.ndarray:
    """Sparsest non-negative TM consistent with the link counts.

    ``tolerance`` relaxes each link constraint to ``± tolerance * y_l``
    (plus a small absolute slack for zero-count links).  Returns the pair
    volume vector; raises ``RuntimeError`` if the solver finds no
    feasible point (which, given the slack, indicates inconsistent
    inputs).

    ``scipy.sparse`` and ``scipy.optimize`` load on the first call, so a
    process that never solves does not pay their ~40 MB and ~0.4 s.
    """
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    matrix = np.asarray(routing, dtype=float)
    counts = np.asarray(link_counts, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("routing matrix must be 2-D")
    num_links, num_pairs = matrix.shape
    if counts.shape != (num_links,):
        raise ValueError("link_counts length must match routing rows")
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    total = counts.sum()
    if total <= 0:
        return np.zeros(num_pairs)

    # Per-pair big-M: a pair's volume is bounded by the smallest byte
    # count among links its traffic must cross.
    big_m = np.full(num_pairs, total)
    for k in range(num_pairs):
        on_path = matrix[:, k] > 0
        if on_path.any():
            big_m[k] = counts[on_path].min()
    big_m = np.maximum(big_m, 1e-9)

    # Variables: [x (continuous), z (binary)].
    objective = np.concatenate([np.zeros(num_pairs), np.ones(num_pairs)])

    slack = tolerance * counts + 1e-6 * max(total, 1.0)
    link_constraint = LinearConstraint(
        sparse.hstack([sparse.csr_matrix(matrix),
                       sparse.csr_matrix((num_links, num_pairs))]),
        counts - slack,
        counts + slack,
    )
    # x_k - M_k z_k <= 0
    coupling = LinearConstraint(
        sparse.hstack([sparse.eye(num_pairs), sparse.diags(-big_m)]),
        -np.inf,
        np.zeros(num_pairs),
    )
    bounds = Bounds(
        lb=np.zeros(2 * num_pairs),
        ub=np.concatenate([big_m, np.ones(num_pairs)]),
    )
    integrality = np.concatenate([np.zeros(num_pairs), np.ones(num_pairs)])
    with _silence_stdout():
        result = milp(
            c=objective,
            constraints=[link_constraint, coupling],
            bounds=bounds,
            integrality=integrality,
            options={"time_limit": time_limit, "presolve": True},
        )
    if result.x is None:
        raise RuntimeError(f"sparsity MILP found no feasible point: {result.message}")
    estimate = np.maximum(result.x[:num_pairs], 0.0)
    # Zero-out numerically open indicators that carry no volume.
    estimate[estimate < 1e-6 * max(total, 1.0)] = 0.0
    return estimate
