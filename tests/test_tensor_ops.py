import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dualunitary import tensor_ops as to
from dualunitary.haar_mc import sample_haar, substream
from dualunitary.tolerances import RESHUFFLE_TOL


def random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_r1_matches_explicit_4x4_display():
    X = np.arange(16, dtype=float).reshape(4, 4) + 1j * np.arange(50, 66).reshape(4, 4)
    expected = np.array(
        [
            [X[0, 0], X[2, 0], X[0, 2], X[2, 2]],
            [X[1, 0], X[3, 0], X[1, 2], X[3, 2]],
            [X[0, 1], X[2, 1], X[0, 3], X[2, 3]],
            [X[1, 1], X[3, 1], X[1, 3], X[3, 3]],
        ]
    )
    assert np.array_equal(to.realign_r1(X), expected)


def test_r2_t1_t2_match_explicit_4x4_displays():
    X = random_complex(4, 0)
    r2 = np.array(
        [
            [X[0, 0], X[0, 1], X[1, 0], X[1, 1]],
            [X[0, 2], X[0, 3], X[1, 2], X[1, 3]],
            [X[2, 0], X[2, 1], X[3, 0], X[3, 1]],
            [X[2, 2], X[2, 3], X[3, 2], X[3, 3]],
        ]
    )
    t1 = np.array(
        [
            [X[0, 0], X[0, 1], X[2, 0], X[2, 1]],
            [X[1, 0], X[1, 1], X[3, 0], X[3, 1]],
            [X[0, 2], X[0, 3], X[2, 2], X[2, 3]],
            [X[1, 2], X[1, 3], X[3, 2], X[3, 3]],
        ]
    )
    t2 = np.array(
        [
            [X[0, 0], X[1, 0], X[0, 2], X[1, 2]],
            [X[0, 1], X[1, 1], X[0, 3], X[1, 3]],
            [X[2, 0], X[3, 0], X[2, 2], X[3, 2]],
            [X[2, 1], X[3, 1], X[2, 3], X[3, 3]],
        ]
    )
    assert np.array_equal(to.realign_r2(X), r2)
    assert np.array_equal(to.partial_transpose_t1(X), t1)
    assert np.array_equal(to.partial_transpose_t2(X), t2)


def test_identity_realigns_to_maximally_entangled_projector():
    for q in (2, 3, 5):
        phi = to.max_entangled_vector(q)
        assert np.allclose(
            to.realign_r1(np.eye(q * q)), q * np.outer(phi, phi.conj()), atol=1e-15
        )


def draw_operator(data, q):
    """A complex q^2 x q^2 operator with real and imaginary entries in [-1, 1]."""
    part = arrays(np.float64, (q * q, q * q), elements=st.floats(-1.0, 1.0))
    return data.draw(part) + 1j * data.draw(part)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(q=st.integers(2, 4), data=st.data())
def test_reshuffles_are_involutive_and_bit_exact(q, data):
    X = draw_operator(data, q)
    for reshuffle in (to.realign_r1, to.realign_r2, to.partial_transpose_t1, to.partial_transpose_t2):
        assert np.array_equal(reshuffle(reshuffle(X)), X)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(q=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_reshuffle_identities_hold_for_random_operators(q, seed, data):
    X = draw_operator(data, q)
    locals_ = [sample_haar(q, substream(seed, "identity-locals", k)) for k in range(4)]
    res = to.verify_reshuffle_identities(X, locals_=locals_)
    assert max(res.values()) <= RESHUFFLE_TOL


def test_t1_then_t2_is_full_transpose():
    X = random_complex(16, 2)
    assert np.array_equal(to.partial_transpose_t2(to.partial_transpose_t1(X)), X.T)


def test_diagonal_fixed_by_partial_transposes():
    D = np.diag(np.arange(9, dtype=complex))
    assert np.array_equal(to.partial_transpose_t1(D), D)
    assert np.array_equal(to.partial_transpose_t2(D), D)


def test_swap_operator_action():
    for q in (2, 3):
        S = to.swap_operator(q)
        assert np.array_equal(S @ S, np.eye(q * q))
        rng = np.random.default_rng(3)
        phi = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        psi = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        assert np.allclose(S @ np.kron(phi, psi), np.kron(psi, phi), atol=1e-14)
    u1 = sample_haar(3, substream(0, "swap-test", 0))
    u2 = sample_haar(3, substream(0, "swap-test", 1))
    S = to.swap_operator(3)
    assert np.abs(S @ np.kron(u1, u2) @ S - np.kron(u2, u1)).max() < 1e-14


def test_sandwich_identity_locals_and_shape_check():
    U = random_complex(9, 4)
    I = np.eye(3)
    assert np.array_equal(to.sandwich_locals(U, I, I, I, I), U)
    with pytest.raises(ValueError):
        to.sandwich_locals(U, np.eye(2), I, I, I)


def test_sandwich_t2_covariance():
    U = random_complex(9, 5)
    locs = [sample_haar(3, substream(1, "cov", i)) for i in range(4)]
    u1, u2, v1, v2 = locs
    lhs = to.partial_transpose_t2(to.sandwich_locals(U, u1, u2, v1, v2))
    rhs = np.kron(u1, v2.T) @ to.partial_transpose_t2(U) @ np.kron(v1, u2.T)
    assert np.abs(lhs - rhs).max() < 1e-13


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
def test_reshuffle_identities_random(q):
    X = random_complex(q * q, 10 + q)
    locals_ = [sample_haar(q, substream(10 + q, "identity-locals", k)) for k in range(4)]
    res = to.verify_reshuffle_identities(X, locals_)
    assert max(res.values()) < 1e-12


def test_reshuffle_identities_on_swap_are_exact():
    S = to.swap_operator(3).astype(complex)
    res = to.verify_reshuffle_identities(S, locals_=[np.eye(3)] * 4)
    assert max(res.values()) == 0.0


def test_r1_r2_composition_closed_form():
    X = random_complex(9, 6)
    S = to.swap_operator(3)
    assert np.abs(to.realign_r2(to.realign_r1(X)) - S @ X.T @ S).max() < 1e-13


def test_vectorization_round_trip_and_abc_identity():
    rng = np.random.default_rng(7)
    rho = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.array_equal(to.devectorize(to.vectorize(rho)), rho)
    A, B, C = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3))
    assert np.abs(to.vectorize(A @ B @ C) - np.kron(A, C.T) @ to.vectorize(B)).max() < 1e-13


def test_local_times_conjugate_fixes_max_entangled_vector():
    for q in (2, 4):
        u = sample_haar(q, substream(2, "phi-fix", q))
        phi = to.max_entangled_vector(q)
        assert np.abs(np.kron(u, u.conj()) @ phi - phi).max() < 1e-13


def test_gate_json_round_trip():
    U = random_complex(9, 8)
    back = to.gate_from_json(to.gate_to_json(U))
    assert np.abs(back - U).max() < 1e-15
    with pytest.raises(ValueError):
        to.gate_from_json({"q": 2, "re": [[1.0]], "im": [[0.0]]})
    # JSON text is parsed once, at the boundary, never by the gate reader
    with pytest.raises(ValueError, match="JSON object"):
        to.gate_from_json(json.dumps(to.gate_to_json(U)))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(q=st.integers(2, 4), data=st.data())
def test_gate_json_round_trip_is_exact(q, data):
    # every finite float survives gate_to_json -> JSON text -> gate_from_json
    finite = arrays(np.float64, (q * q, q * q),
                    elements=st.floats(allow_nan=False, allow_infinity=False))
    U = np.empty((q * q, q * q), dtype=complex)
    U.real, U.imag = data.draw(finite), data.draw(finite)
    payload = to.gate_to_json(U)
    assert payload["q"] == q
    for obj in (payload, json.loads(json.dumps(payload))):
        assert np.array_equal(to.gate_from_json(obj), U)


def test_unitarity_defect_and_require():
    u = sample_haar(4, substream(3, "ud", 0))
    assert to.unitarity_defect(u) < 1e-12
    with pytest.raises(ValueError):
        to.require_unitary(np.ones((4, 4)))
    nan = u.copy()
    nan[1, 2] = np.nan
    with pytest.raises(ValueError, match="not unitary"):
        to.require_unitary(nan)


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_gate_json_rejects_non_finite_entries(part, bad):
    payload = to.gate_to_json(np.eye(4))
    payload[part][0][3] = bad
    for obj in (payload, json.loads(json.dumps(payload))):
        with pytest.raises(ValueError, match="non-finite"):
            to.gate_from_json(obj)
