import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualunitary import invariants as iv
from dualunitary import tensor_ops as to
from dualunitary.constructions import cat_map, fixtures
from dualunitary.haar_mc import substream
from dualunitary.qubit_exact import cartan_gate, ep_cartan
from dualunitary.tensor_ops import sample_haar
from dualunitary.tolerances import DUALITY_TOL

DCNOT = to.swap_operator(2) @ np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def test_schmidt_spectrum_product_gate():
    u1 = sample_haar(3, substream(0, "schmidt", 0))
    u2 = sample_haar(3, substream(0, "schmidt", 1))
    spec = iv.schmidt_spectrum(np.kron(u1, u2))
    assert abs(spec.gamma[0] - 9.0) < 1e-10
    assert np.abs(spec.gamma[1:]).max() < 1e-10


def test_schmidt_spectrum_swap_and_dual():
    spec = iv.schmidt_spectrum(to.swap_operator(2).astype(complex))
    assert np.allclose(spec.gamma, np.ones(4), atol=1e-12)
    spec3 = iv.schmidt_spectrum(fixtures()["dual_q3_ep8over9"])
    assert np.allclose(spec3.gamma, np.ones(9), atol=1e-10)


def test_schmidt_normalization_and_nonunitary_flag():
    U = sample_haar(9, substream(1, "schmidt-n", 0))
    spec = iv.schmidt_spectrum(U)
    assert abs(spec.gamma.sum() - 9.0) < 1e-9
    # a non-unitary input still has a spectrum: gamma sums to ||U||_F^2
    bad = iv.schmidt_spectrum(np.ones((4, 4), dtype=complex))
    assert abs(bad.gamma.sum() - 16.0) < 1e-12


def test_operator_entanglement_reference_values():
    S = to.swap_operator(2).astype(complex)
    assert abs(iv.operator_entanglement(S) - 0.75) < 1e-14
    assert abs(iv.operator_entanglement(np.eye(4, dtype=complex))) < 1e-14
    assert abs(iv.operator_entanglement_swapped(np.eye(4, dtype=complex)) - 0.75) < 1e-14
    # the q=3 cat is 2-unitary: both operator entanglements maximal
    U = cat_map(3)
    assert abs(iv.operator_entanglement(U) - 8 / 9) < 1e-12
    assert abs(iv.operator_entanglement_swapped(U) - 8 / 9) < 1e-12


def test_entangling_power_reference_values():
    assert iv.entangling_power(to.swap_operator(2).astype(complex)) == 0.0
    assert iv.entangling_power(np.eye(9, dtype=complex)) == 0.0
    assert abs(iv.entangling_power(cartan_gate(0.0)) - 2 / 3) < 1e-12
    assert abs(iv.entangling_power(cartan_gate(math.pi / 4))) < 1e-12
    for q, expect in [(2, 2 / 3), (3, 1.0), (4, 14 / 15), (5, 1.0)]:
        assert abs(iv.entangling_power(cat_map(q)) - expect) < 1e-12


@pytest.mark.parametrize("J", np.linspace(0.0, math.pi / 4, 7))
def test_entangling_power_cartan_closed_form(J):
    assert abs(iv.entangling_power(cartan_gate(J)) - ep_cartan(J)) < 1e-12


def test_classify_duality_reference_gates():
    S = to.swap_operator(2).astype(complex)
    dc = iv.classify_duality(S)
    assert dc.is_dual and not dc.is_t_dual and not dc.is_two_unitary
    dc1 = iv.classify_duality(np.eye(4, dtype=complex))
    assert dc1.is_t_dual and not dc1.is_dual
    assert iv.classify_duality(DCNOT).is_dual
    dc2 = iv.classify_duality(fixtures()["two_unitary_q3"])
    assert dc2.is_two_unitary and dc2.is_dual and dc2.is_t_dual


def test_classify_duality_accepts_defect_equal_to_tolerance():
    # U^R1 = 1 + d |0><1| has max-entry defect exactly d (1 + d^2 rounds to 1)
    for d, dual in ((DUALITY_TOL, True), (np.nextafter(DUALITY_TOL, 1.0), False)):
        R = np.eye(4, dtype=complex)
        R[0, 1] = d
        dc = iv.classify_duality(to.realign_r1(R))
        assert dc.residuals["dual"] == d
        assert dc.is_dual is dual


def test_two_unitary_implies_dual_and_t_dual_consistency():
    dc = iv.classify_duality(cat_map(3))
    assert dc.is_two_unitary == (dc.is_dual and dc.is_t_dual)


def test_dual_iff_flat_schmidt():
    U = fixtures()["dual_q3_ep3over4"]
    assert iv.classify_duality(U).is_dual
    assert np.abs(iv.schmidt_spectrum(U).gamma - 1.0).max() < 1e-10


def test_t_dual_iff_swapped_compositions_dual():
    S = to.swap_operator(3)
    D = fixtures()["d3_q3"]  # T-dual, not dual
    assert iv.classify_duality(D).is_t_dual
    assert iv.classify_duality(S @ D).is_dual
    assert iv.classify_duality(D @ S).is_dual


def test_mixing_thresholds():
    assert abs(iv.mixing_thresholds(2)[0] - 2 / 3) < 1e-15
    t3 = iv.mixing_thresholds(3)
    assert abs(t3[0] - 7 / 8) < 1e-15
    assert abs(t3[-1]) < 1e-15
    assert abs(iv.mixing_thresholds(6)[0] - 34 / 35) < 1e-15


def test_threshold_report_boundary_flag():
    rep = iv.threshold_report(3, 7 / 8)
    assert rep["boundary"]
    rep2 = iv.threshold_report(3, 0.9)
    assert not rep2["boundary"]
    assert rep2["guaranteed_mixing_modes"] == 8
    assert iv.threshold_report(3, 0.5)["guaranteed_mixing_modes"] == 4


@settings(derandomize=True, max_examples=24, deadline=None)
@given(q=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1))
def test_local_unitary_invariance(q, seed):
    # e_p, E(U) and E(US) depend on U only up to single-site unitaries
    U = sample_haar(q * q, substream(seed, "lui-gate"))
    Up = to.sandwich_locals(U, *(sample_haar(q, substream(seed, "lui", i)) for i in range(4)))
    assert abs(iv.entangling_power(Up) - iv.entangling_power(U)) < 1e-11
    assert abs(iv.operator_entanglement(Up) - iv.operator_entanglement(U)) < 1e-11
    assert abs(
        iv.operator_entanglement_swapped(Up) - iv.operator_entanglement_swapped(U)
    ) < 1e-11


def test_ep_one_iff_two_unitary():
    for U in (cat_map(3), cat_map(5), fixtures()["two_unitary_q3"]):
        assert iv.classify_duality(U).is_two_unitary
        assert iv.entangling_power(U) > 1 - 1e-12
    U = fixtures()["dual_q3_ep8over9"]
    assert not iv.classify_duality(U).is_two_unitary
    assert iv.entangling_power(U) < 1 - 1e-3


def test_invariants_report_shape():
    rep = iv.invariants_report(cat_map(3))
    assert rep["duality"]["two_unitary"]
    assert abs(rep["e_p"] - 1.0) < 1e-12
    assert len(rep["gamma"]) == 9
