import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voinet import ahp
from conftest import (
    ORACLE_SAFETY_LAMBDA,
    ORACLE_SAFETY_WEIGHTS,
    ORACLE_TRAFFIC_LAMBDA,
    ORACLE_TRAFFIC_WEIGHTS,
    SAFETY_ROWS,
    TRAFFIC_ROWS,
    oracle_eigen,
)

LABELS = ("timeliness", "proximity", "quality")

SAATY_CHOICES = [1.0 / k for k in range(2, 10)] + [float(k) for k in range(1, 10)]


def matrix_from_rows(rows, labels=LABELS):
    return ahp.ComparisonMatrix(tuple(labels), np.array(rows, dtype=float))


def test_oracle_reproduces_frozen_values():
    lam, weights = oracle_eigen(SAFETY_ROWS)
    assert lam == pytest.approx(ORACLE_SAFETY_LAMBDA, abs=1e-12)
    assert weights == pytest.approx(ORACLE_SAFETY_WEIGHTS, abs=1e-12)
    lam, weights = oracle_eigen(TRAFFIC_ROWS)
    assert lam == pytest.approx(ORACLE_TRAFFIC_LAMBDA, abs=1e-12)
    assert weights == pytest.approx(ORACLE_TRAFFIC_WEIGHTS, abs=1e-12)


@pytest.mark.parametrize(
    "rows,lam,weights",
    [
        (SAFETY_ROWS, ORACLE_SAFETY_LAMBDA, ORACLE_SAFETY_WEIGHTS),
        (TRAFFIC_ROWS, ORACLE_TRAFFIC_LAMBDA, ORACLE_TRAFFIC_WEIGHTS),
    ],
)
def test_power_iteration_agrees_with_oracle(rows, lam, weights):
    solution = ahp.principal_eigenvector(matrix_from_rows(rows))
    assert solution.lambda_max == pytest.approx(lam, abs=1e-8)
    assert solution.weights == pytest.approx(weights, abs=1e-8)


def test_consistency_reports(monkeypatch):
    safety = ahp.consistency(ahp.principal_eigenvector(matrix_from_rows(SAFETY_ROWS)))
    assert safety.consistency_ratio == pytest.approx(0.0109, abs=1e-3)
    assert safety.random_index == 0.58
    assert safety.acceptable
    solution = ahp.principal_eigenvector(matrix_from_rows(TRAFFIC_ROWS))
    traffic = ahp.consistency(solution)
    assert traffic.consistency_ratio == pytest.approx(0.069, abs=2e-3)
    assert traffic.acceptable
    # A ratio must fall below the limit; one equal to it is not acceptable.
    monkeypatch.setattr(ahp, "CONSISTENCY_LIMIT", traffic.consistency_ratio)
    assert not ahp.consistency(solution).acceptable


def test_consistent_matrix_gives_lambda_n_and_exact_weights():
    w = (0.6, 0.3, 0.1)
    rows = [[wi / wj for wj in w] for wi in w]
    solution = ahp.principal_eigenvector(matrix_from_rows(rows))
    assert solution.lambda_max == pytest.approx(3.0, abs=1e-9)
    assert solution.weights == pytest.approx(w, abs=1e-9)
    report = ahp.consistency(solution)
    assert report.consistency_index == pytest.approx(0.0, abs=1e-9)
    assert report.acceptable


def test_all_ones_matrix_gives_uniform_weights():
    solution = ahp.principal_eigenvector(matrix_from_rows(np.ones((3, 3))))
    assert solution.weights == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)
    assert ahp.consistency(solution).consistency_ratio == pytest.approx(0.0, abs=1e-12)


def test_matrix_validation_errors():
    with pytest.raises(ValueError, match="Saaty range"):
        matrix_from_rows([[1, 15, 1], [1 / 15, 1, 1], [1, 1, 1]])
    with pytest.raises(ValueError, match="recipro"):
        matrix_from_rows([[1, 2, 3], [0.6, 1, 1], [1 / 3, 1, 1]])
    with pytest.raises(ValueError, match="diagonal"):
        matrix_from_rows([[2, 1, 1], [1, 1, 1], [1, 1, 1]])
    with pytest.raises(ValueError, match=r"got row lengths \[2, 2, 2\]"):
        ahp.ComparisonMatrix(LABELS, np.ones((3, 2)))
    with pytest.raises(ValueError, match="labels"):
        ahp.ComparisonMatrix(("a", "a", "b"), np.ones((3, 3)))
    with pytest.raises(ValueError, match="at least 2"):
        ahp.ComparisonMatrix(("only",), np.ones((1, 1)))


def test_entries_accept_any_nested_sequence_of_rows():
    rows = [list(row) for row in SAFETY_ROWS]
    for entries in (rows, SAFETY_ROWS, np.array(SAFETY_ROWS)):
        assert ahp.ComparisonMatrix(LABELS, entries).entries == tuple(tuple(row) for row in rows)
    with pytest.raises(ValueError, match=r"got row lengths \[3, 3\]"):
        ahp.ComparisonMatrix(LABELS, rows[:2])
    with pytest.raises(ValueError, match=r"got row lengths \[3, 2, 3\]"):
        ahp.ComparisonMatrix(LABELS, [rows[0], rows[1][:2], rows[2]])


def test_entries_are_frozen():
    matrix = matrix_from_rows(SAFETY_ROWS)
    with pytest.raises(TypeError):
        matrix.entries[0][1] = 2.0


def test_permutation_invariance():
    base = ahp.principal_eigenvector(matrix_from_rows(TRAFFIC_ROWS))
    perm = [2, 0, 1]
    rows = np.array(TRAFFIC_ROWS)[np.ix_(perm, perm)]
    labels = tuple(LABELS[i] for i in perm)
    permuted = ahp.principal_eigenvector(ahp.ComparisonMatrix(labels, rows))
    assert permuted.lambda_max == pytest.approx(base.lambda_max, abs=1e-10)
    by_label = dict(zip(labels, permuted.weights))
    for label, weight in zip(LABELS, base.weights):
        assert by_label[label] == pytest.approx(weight, abs=1e-10)


def test_non_convergence_raises(monkeypatch):
    monkeypatch.setattr(ahp, "MAX_ITER", 1)
    with pytest.raises(RuntimeError, match="did not converge in 1 iterations"):
        ahp.principal_eigenvector(matrix_from_rows(TRAFFIC_ROWS))


def test_consistency_rejects_unsupported_sizes():
    eleven = ahp.ComparisonMatrix([f"c{i}" for i in range(11)], np.ones((11, 11)))
    solution = ahp.principal_eigenvector(eleven)
    with pytest.raises(ValueError, match="n=11"):
        ahp.consistency(solution)


def test_every_2x2_matrix_is_consistent():
    two = ahp.ComparisonMatrix(("a", "b"), np.array([[1.0, 3.0], [1 / 3, 1.0]]))
    report = ahp.consistency(ahp.principal_eigenvector(two))
    assert (report.random_index, report.consistency_ratio, report.acceptable) == (0.0, 0.0, True)


@st.composite
def saaty_matrices(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    entries = np.ones((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            value = draw(st.sampled_from(SAATY_CHOICES))
            entries[j, k] = value
            entries[k, j] = 1.0 / value
    labels = tuple(f"c{i}" for i in range(n))
    return ahp.ComparisonMatrix(labels, entries)


@settings(max_examples=150, deadline=None)
@given(saaty_matrices())
def test_random_saaty_matrix_properties(matrix):
    solution = ahp.principal_eigenvector(matrix)
    assert solution.lambda_max >= matrix.n - 1e-9
    assert sum(solution.weights) == pytest.approx(1.0, abs=1e-12)
    assert all(w > 0 for w in solution.weights)
    report = ahp.consistency(solution)
    assert report.consistency_index >= 0.0
    assert report.acceptable == (report.consistency_ratio < 0.1)
    # A positive matrix has one real eigenvalue of largest modulus (Perron).
    values, vectors = np.linalg.eig(np.array(matrix.entries))
    top = int(np.argmax(values.real))
    vector = vectors[:, top].real
    assert solution.lambda_max == pytest.approx(values[top].real, abs=1e-8)
    assert solution.weights == pytest.approx(tuple(vector / vector.sum()), abs=1e-8)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=3, max_size=4))
def test_consistent_matrices_have_a_non_negative_consistency_index(w):
    # M[j][k] = w_j / w_k has lambda_max = n exactly; the Rayleigh quotient may round
    # below n, and the index must not come out as a negative zero.
    matrix = ahp.ComparisonMatrix([f"c{i}" for i in range(len(w))], [[a / b for b in w] for a in w])
    report = ahp.consistency(ahp.principal_eigenvector(matrix))
    assert report.consistency_index >= 0.0 and math.copysign(1.0, report.consistency_index) == 1.0
    assert report.consistency_ratio == pytest.approx(0.0, abs=1e-9)
