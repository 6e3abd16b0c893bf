"""First-principles check of the probe-optimization matrices.

Rebuilds Eve's unnormalized probe states for the two key values directly
from the channel's pure-state decomposition: the joint state for bit j is

    sqrt(T (1 - eps/2)) |signal_j> |a1>  +  sqrt(T eps/2) |flip_j> |a2>
                        +  sqrt(1 - T) |vac> |a_v>

so projecting Bob's conclusive outcome onto it leaves a two-component
coefficient vector over the probe basis.  The overlap of the two probe
states is then a bilinear form c^T X d in the probe-evolution block X, and
the unitarity inner product gives a second bilinear form.  These forms,
built here from nothing but state overlaps, must coincide with the
library's closed-form matrices; for flipped bits they must coincide after
conjugating by diag(1, -1), which is the re-labeling that turns the
substituted problem into the physical one.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from b92sec.evebound import build_matrices

from conftest import DEG, bar_ket, ket, sym_matrix


def coefficient_vectors(alpha, theta, eps, t, flipped=False):
    """(c, d): probe coefficients for key value 0 and 1 conclusive events."""
    w1 = math.sqrt(t * (1.0 - eps / 2.0))
    w2 = math.sqrt(t * eps / 2.0)
    # channel outputs for bit 0 and bit 1 (signal and its orthogonal partner)
    out0 = (ket(-(alpha + theta)), bar_ket(-(alpha + theta)))
    out1 = (ket(alpha + theta), bar_ket(alpha + theta))
    if not flipped:
        bob0 = bar_ket(alpha)    # conclusive outcome assigning value 0
        bob1 = bar_ket(-alpha)   # conclusive outcome assigning value 1
    else:
        bob0 = bar_ket(-alpha)   # bit 0 read out as 1: a flipped event
        bob1 = bar_ket(alpha)
    c = np.array([w1 * float(bob0 @ out0[0]), w2 * float(bob0 @ out0[1])])
    d = np.array([w1 * float(bob1 @ out1[0]), w2 * float(bob1 @ out1[1])])
    return c, d


def unitarity_form(alpha, theta, eps, t):
    """Matrix of the bilinear form in <0|<w| U'U |1>|w> = T Tr[B X] + ..."""
    w = (math.sqrt(1.0 - eps / 2.0), math.sqrt(eps / 2.0))
    out0 = (ket(-(alpha + theta)), bar_ket(-(alpha + theta)))
    out1 = (ket(alpha + theta), bar_ket(alpha + theta))
    return np.array([[w[i] * w[j] * float(out0[i] @ out1[j])
                      for j in (0, 1)] for i in (0, 1)])


CASES = [(10 * DEG, 15 * DEG, 0.05), (40 * DEG, 0.0, 0.3),
         (25 * DEG, -20 * DEG, 0.7), (70 * DEG, 10 * DEG, 0.12)]


@pytest.mark.parametrize("alpha,theta,eps", CASES)
def test_overlap_matrix_from_probe_states(alpha, theta, eps):
    c, d = coefficient_vectors(alpha, theta, eps, t=0.8)
    # the coefficient vectors are parallel, which is why the overlap
    # functional is a rank-1 symmetric form
    assert abs(c[0] * d[1] - c[1] * d[0]) < 1e-14
    direct = np.outer(c, d) / (np.linalg.norm(c) * np.linalg.norm(d))
    a, _ = build_matrices(alpha, theta, eps)
    assert_allclose(direct, sym_matrix(a), atol=1e-12)


@pytest.mark.parametrize("alpha,theta,eps", CASES)
def test_constraint_matrix_from_unitarity(alpha, theta, eps):
    direct = unitarity_form(alpha, theta, eps, t=0.8)
    assert_allclose(direct, direct.T, atol=1e-14)
    _, b = build_matrices(alpha, theta, eps)
    assert_allclose(direct, sym_matrix(b), atol=1e-12)


@pytest.mark.parametrize("alpha,theta,eps", CASES)
def test_flipped_problem_is_the_conjugated_substitution(alpha, theta, eps):
    # physical flipped-bit matrices equal the theta -> -2 alpha - theta
    # substitution conjugated by S = diag(1, -1); S is orthogonal, so the
    # two constrained problems share their minimum
    s = np.diag([1.0, -1.0])
    c, d = coefficient_vectors(alpha, theta, eps, t=0.8, flipped=True)
    direct = np.outer(c, d) / (np.linalg.norm(c) * np.linalg.norm(d))
    a_sub, b_sub = build_matrices(alpha, -2.0 * alpha - theta, eps)
    assert_allclose(direct, s @ sym_matrix(a_sub) @ s, atol=1e-12)
    constraint = unitarity_form(alpha, theta, eps, t=0.8)
    assert_allclose(constraint, s @ sym_matrix(b_sub) @ s, atol=1e-12)


def test_overlap_values_agree_on_random_probe_blocks(rng):
    # the bilinear form and Tr[A X] agree for arbitrary (non-symmetric)
    # probe-evolution blocks, not just on the stationary families
    alpha, theta, eps = 33 * DEG, 7 * DEG, 0.21
    c, d = coefficient_vectors(alpha, theta, eps, t=1.0)
    norm = np.linalg.norm(c) * np.linalg.norm(d)
    a, _ = build_matrices(alpha, theta, eps)
    for _ in range(50):
        x = rng.uniform(-1.0, 1.0, size=(2, 2))
        direct = float(c @ x @ d) / norm
        via_trace = float(np.trace(sym_matrix(a) @ x))
        assert direct == pytest.approx(via_trace, abs=1e-12)
