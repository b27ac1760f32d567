"""Pairwise comparison matrices and principal-eigenvector priority weights.

Attribute priorities are derived with the analytic hierarchy process:
pairwise scores on the Saaty scale populate a positive reciprocal matrix,
the normalized principal eigenvector gives the weights, and the
consistency ratio gates the quality of the chosen scores.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from ._checked import Checked, finite

SAATY_MIN = 1.0 / 9.0
SAATY_MAX = 9.0

RECIPROCITY_TOL = 1e-12

# Power iteration: relative residual tolerance and iteration cap.
EIGEN_TOL = 1e-10
MAX_ITER = 10_000

# Random consistency index per matrix size. Values for n >= 4 are the
# standard published table; sizes without an entry are rejected. Every 2x2
# reciprocal matrix is consistent: its index is 0, and so is its ratio.
RANDOM_INDEX: dict[int, float] = {
    2: 0.0,
    3: 0.58,
    4: 0.90,
    5: 1.12,
    6: 1.24,
    7: 1.32,
    8: 1.41,
    9: 1.45,
    10: 1.49,
}

CONSISTENCY_LIMIT = 0.1


class ComparisonMatrix(Checked, namedtuple("ComparisonMatrix", "labels entries")):
    """Positive reciprocal matrix of pairwise attribute scores (an immutable tuple).

    ``labels`` is stored as a tuple, and ``entries`` is taken from any nested
    sequence of rows and stored as a tuple of float tuples. Entries must lie
    on the Saaty scale [1/9, 9], the diagonal must be exactly 1, and
    ``entries[j][k] * entries[k][j]`` must equal 1 within ``RECIPROCITY_TOL``.
    """

    __slots__ = ()

    def __new__(cls, labels: Sequence[str], entries: Sequence[Sequence[float]]) -> ComparisonMatrix:
        labels = tuple(labels)
        if len(labels) < 2:
            raise ValueError(f"need at least 2 attributes, got {len(labels)}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate attribute labels in {labels}")
        n = len(labels)
        entries = tuple(tuple(float(v) for v in row) for row in entries)
        lengths = [len(row) for row in entries]
        if lengths != [n] * n:
            raise ValueError(f"expected a {n}x{n} matrix, got row lengths {lengths}")
        for j in range(n):
            if entries[j][j] != 1.0:
                raise ValueError(f"diagonal entry for {labels[j]!r} is {entries[j][j]}, must be 1")
            for k in range(n):
                score = entries[j][k]
                if not (SAATY_MIN <= score <= SAATY_MAX):
                    raise ValueError(
                        f"score {score:g} for pair ({labels[j]}, {labels[k]}) is outside "
                        f"the Saaty range [1/9, 9]"
                    )
                if abs(entries[j][k] * entries[k][j] - 1.0) > RECIPROCITY_TOL:
                    raise ValueError(
                        f"entries for pair ({labels[j]}, {labels[k]}) are not reciprocal: "
                        f"{entries[j][k]!r} vs {entries[k][j]!r}"
                    )
        return tuple.__new__(cls, (labels, entries))

    @property
    def n(self) -> int:
        return len(self.labels)


class EigenSolution(Checked, namedtuple("EigenSolution", "lambda_max weights")):
    """Dominant eigenvalue and the unit-sum normalized eigenvector, as floats."""

    __slots__ = ()

    def __new__(cls, lambda_max: float, weights: Sequence[float]) -> EigenSolution:
        finite("lambda_max", lambda_max)
        weights = tuple(float(w) for w in weights)
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {sum(weights)!r}, expected 1")
        if not all(0.0 <= w <= 1.0 for w in weights):
            raise ValueError(f"weights outside [0, 1]: {weights}")
        return tuple.__new__(cls, (lambda_max, weights))


class ConsistencyReport(namedtuple("ConsistencyReport",
                                   "consistency_index random_index consistency_ratio acceptable")):
    """Consistency check of an eigensolution against the random index; ``acceptable`` is a bool."""

    __slots__ = ()


def principal_eigenvector(m: ComparisonMatrix) -> EigenSolution:
    """Dominant eigenpair of a comparison matrix by power iteration.

    The iterate starts uniform, is renormalized to unit sum each step, and
    the eigenvalue is estimated with the Rayleigh quotient. Iteration stops
    when ``max|M w - lambda w| <= EIGEN_TOL * lambda``.

    Raises:
        RuntimeError: if the residual does not reach EIGEN_TOL within MAX_ITER steps.
    """
    n = m.n
    w = [1.0 / n] * n
    residual = math.inf
    for _ in range(MAX_ITER):
        y = [_dot(row, w) for row in m.entries]
        lam = _dot(w, y) / _dot(w, w)
        residual = max(abs(yi - lam * wi) for yi, wi in zip(y, w))
        if residual <= EIGEN_TOL * lam:
            return EigenSolution(lambda_max=lam, weights=tuple(w))
        total = sum(y)
        w = [yi / total for yi in y]
    raise RuntimeError(f"power iteration did not converge in {MAX_ITER} iterations (residual {residual:.3e})")


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    return sum(a * b for a, b in zip(u, v))


def consistency(sol: EigenSolution) -> ConsistencyReport:
    """Consistency index and ratio of an eigensolution; n is its number of weights.

    The ratio compares the consistency index (lambda_max - n)/(n - 1)
    against the random index for n; matrices with a ratio below 0.1 are
    acceptably consistent.

    Raises:
        ValueError: if no random-index entry exists for n.
    """
    n = len(sol.weights)
    if n not in RANDOM_INDEX:
        raise ValueError(
            f"no random consistency index for n={n}; supported sizes are "
            f"{sorted(RANDOM_INDEX)}"
        )
    c_i = max(0.0, (sol.lambda_max - n) / (n - 1))  # lambda_max >= n; below n is rounding
    r_i = RANDOM_INDEX[n]
    c_r = c_i / r_i if r_i else 0.0
    return ConsistencyReport(
        consistency_index=c_i,
        random_index=r_i,
        consistency_ratio=c_r,
        acceptable=c_r < CONSISTENCY_LIMIT,
    )
