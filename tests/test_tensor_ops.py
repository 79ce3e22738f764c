import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dualunitary import tensor_ops as to
from dualunitary.haar_mc import substream
from dualunitary.tensor_ops import sample_haar
from dualunitary.tolerances import GATE_UNITARY_TOL, RESHUFFLE_TOL


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


def test_row_vectorization_abc_identity():
    # row-major vec: vec(A B C) = (A x C^T) vec(B)
    rng = np.random.default_rng(7)
    A, B, C = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3))
    assert np.abs((A @ B @ C).reshape(-1) - np.kron(A, C.T) @ B.reshape(-1)).max() < 1e-13


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


def test_expi_hermitian_matches_expm_and_is_unitary():
    # the kicks of perturbed_two_unitary (d = q^2) and of the max-rate
    # hill-climb (d = q) at q = 2-4, against scipy's Pade expm
    import scipy.linalg

    rng = np.random.default_rng(22)
    for d in (2, 3, 4, 9, 16):
        for _ in range(40):
            H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            H = (H + H.conj().T) / 2
            eps = rng.uniform(0.005, 0.5)
            E = to.expi_hermitian(H, eps)
            assert np.abs(E - scipy.linalg.expm(1j * eps * H)).max() < 1e-13
            assert to.unitarity_defect(E) <= GATE_UNITARY_TOL


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_gate_json_rejects_non_finite_entries(part, bad):
    payload = to.gate_to_json(np.eye(4))
    payload[part][0][3] = bad
    for obj in (payload, json.loads(json.dumps(payload))):
        with pytest.raises(ValueError, match="non-finite"):
            to.gate_from_json(obj)


def _recursive_json_array(value, key, shape, kind="integer"):
    """The reader `_json_array` replaced: one recursive type test per entry."""
    import reprlib

    types = (int,) if kind == "integer" else (int, float)

    def fits(v, dims):
        if not dims:
            return type(v) in types
        return type(v) is list and len(v) == dims[0] and all(fits(x, dims[1:]) for x in v)

    if not fits(value, shape):
        what = "an integer" if shape == () else "a {} x {} matrix of {}s".format(*shape, kind)
        raise to.ValidationError(f"{key} must be {what}, got {reprlib.repr(value)}")
    try:
        return np.array(value, dtype=int if kind == "integer" else float)
    except OverflowError:
        raise to.ValidationError(f"{key} holds a number out of range") from None


# every kind of JSON scalar, and ints beyond int64 and beyond float
_JSON_LEAVES = (st.integers(-3, 3) | st.integers(-2**80, 2**80)
                | st.sampled_from([2**63, -2**63 - 1, 10**400, -10**400])
                | st.floats() | st.booleans() | st.none() | st.text(max_size=2))


@st.composite
def _json_arrays(draw):
    """(value, shape): a JSON integer (shape ()) or an r x c matrix of ints or
    numbers, then at most one flaw: a stray leaf or list for an entry or a
    row, a short or long row, or one level of nesting too many."""
    shape = draw(st.sampled_from([(), (1, 1), (2, 2), (2, 3), (3, 2), (0, 2), (2, 0)]))
    leaf = draw(st.sampled_from([st.integers(-9, 9), st.integers(-9, 9) | st.floats(),
                                 st.integers(-2**70, 2**70), _JSON_LEAVES]))
    stray = _JSON_LEAVES | st.lists(_JSON_LEAVES, max_size=2)
    if shape == ():
        return draw(leaf | stray), shape
    value = draw(st.lists(st.lists(leaf, min_size=shape[1], max_size=shape[1]),
                          min_size=shape[0], max_size=shape[0]))
    flaw = draw(st.sampled_from(["none", "entry", "row", "short", "long", "deeper"]))
    if flaw != "none" and value and value[0]:
        k, m = draw(st.integers(0, len(value) - 1)), draw(st.integers(0, len(value[0]) - 1))
        if flaw == "entry":
            value[k][m] = draw(stray)
        elif flaw == "row":
            value[k] = draw(stray)
        elif flaw == "short":
            del value[k][m]
        elif flaw == "long":
            value[k].append(draw(leaf))
        else:
            value = [value] if draw(st.booleans()) else [[[x] for x in row] for row in value]
    return value, shape


def _outcome(read, value, key, shape, kind):
    try:
        A = read(value, key, shape, kind)
    except to.ValidationError as exc:
        return "refused", str(exc)
    return "accepted", A.dtype, A.shape, A.tolist()


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=_json_arrays(), kind=st.sampled_from(["integer", "number"]))
def test_json_array_accepts_and_refuses_what_the_recursive_reader_did(case, kind):
    value, shape = case
    want = _outcome(_recursive_json_array, value, "K", shape, kind)
    assert _outcome(to._json_array, value, "K", shape, kind) == want


def test_json_array_refusals_keep_their_messages():
    for value, shape, kind, message in (
            (True, (), "integer", "q must be an integer, got True"),
            ([[1, 2], [3]], (2, 2), "integer",
             "q must be a 2 x 2 matrix of integers, got [[1, 2], [3]]"),
            ([[1, 2.0], [3, 4]], (2, 2), "integer", "q must be a 2 x 2 matrix of integers"),
            ([[1, None], [3, 4]], (2, 2), "number", "q must be a 2 x 2 matrix of numbers"),
            ([[1, [2]], [3, 4]], (2, 2), "number", "q must be a 2 x 2 matrix of numbers"),
            ([[1, 2], [3, 2**64]], (2, 2), "integer", "q holds a number out of range"),
            ([[1, 2], [3, 10**400]], (2, 2), "number", "q holds a number out of range")):
        with pytest.raises(to.ValidationError) as info:
            to._json_array(value, "q", shape, kind)
        assert str(info.value).startswith(message)
