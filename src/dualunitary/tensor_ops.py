"""Index reshuffles, partial transposes, swap, vectorization and Haar
sampling for two-qudit operators.

A two-qudit operator X lives on C^q (x) C^q with the composite basis index
(i, a) -> i*q + a, i.e. the first tensor factor is the slow index.  The four
reshuffles used throughout are defined element-for-element by

    <b a| X^R1 |j i> = <i a| X |j b>       (realignment, first kind)
    <i j| X^R2 |a b> = <i a| X |j b>       (realignment, second kind)
    <j a| X^T1 |i b> = <i a| X |j b>       (partial transpose, factor 1)
    <i b| X^T2 |j a> = <i a| X |j b>       (partial transpose, factor 2)

All of them are implemented as pure index permutations (a reshape, one axis
transpose, a reshape back), so they are bit-exact and involutive.
"""

import json
import math
import numbers
import reprlib

import numpy as np

from .tolerances import GATE_UNITARY_TOL


class ValidationError(ValueError):
    """Input the library refuses: a malformed gate, spec, config or argument."""


def require_int(value, what, least):
    """value, if it is an integer >= least; anything else, a bool, a float
    with an integer value and a NaN among them, is refused naming `what`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValidationError(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def require_finite(value, what):
    """value, if it is a finite number; a NaN or an infinity is refused naming `what`."""
    if not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value}")
    return value


def require_positive(value, what):
    """value, if it is a finite number > 0; a bool, a NaN, an infinity and
    anything <= 0 are refused naming `what`."""
    if isinstance(value, bool) or not 0 < value < math.inf:
        raise ValidationError(f"{what} must be a finite positive number, got {value!r}")
    return value


def local_dim(X):
    """Local dimension q of a q^2 x q^2 matrix; validates squareness."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {X.shape}")
    q = math.isqrt(X.shape[0])
    if q * q != X.shape[0] or q < 2:
        raise ValidationError(f"matrix side {X.shape[0]} is not q^2 with q >= 2")
    return q


def _axis_permute(X, perm):
    q = local_dim(X)
    return np.ascontiguousarray(
        np.asarray(X).reshape(q, q, q, q).transpose(perm).reshape(q * q, q * q)
    )


def realign_r1(X):
    """Realignment R1: output[(b,a),(j,i)] = X[(i,a),(j,b)]."""
    return _axis_permute(X, (3, 1, 2, 0))


def realign_r2(X):
    """Realignment R2: output[(i,j),(a,b)] = X[(i,a),(j,b)]."""
    return _axis_permute(X, (0, 2, 1, 3))


def partial_transpose_t1(X):
    """Partial transpose on the first factor: output[(j,a),(i,b)] = X[(i,a),(j,b)]."""
    return _axis_permute(X, (2, 1, 0, 3))


def partial_transpose_t2(X):
    """Partial transpose on the second factor: output[(i,b),(j,a)] = X[(i,a),(j,b)]."""
    return _axis_permute(X, (0, 3, 2, 1))


def swap_operator(q):
    """The swap S on C^q (x) C^q, S|xy> = |yx>.  Exact 0/1 matrix."""
    require_int(q, "q", 2)
    S = np.zeros((q * q, q * q))
    for i in range(q):
        for a in range(q):
            S[a * q + i, i * q + a] = 1.0
    return S


def max_entangled_vector(q):
    """Row-vectorization of 1_q/sqrt(q): the maximally entangled |Phi+>."""
    require_int(q, "q", 2)
    v = np.zeros(q * q, dtype=complex)
    v[:: q + 1] = 1.0 / math.sqrt(q)
    return v


def sandwich_locals(U, u1, u2, v1, v2):
    """(u1 (x) u2) U (v1 (x) v2) for single-particle unitaries u_i, v_i."""
    q = local_dim(U)
    for w in (u1, u2, v1, v2):
        w = np.asarray(w)
        if w.shape != (q, q):
            raise ValidationError(f"local has shape {w.shape}, expected {(q, q)}")
    return np.kron(u1, u2) @ np.asarray(U) @ np.kron(v1, v2)


def haar_from_ginibre(z):
    """Haar unitaries from Ginibre matrices z (one d x d matrix or a stack of
    them): the QR factor Q with the phases of diag(R) folded back in, so the
    distribution is exactly Haar (Mezzadri, Notices AMS 54, 592 (2007))."""
    Q, R = np.linalg.qr(z)
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (diag / np.abs(diag))[..., None, :]


def sample_haar(d, rng):
    """One Haar-distributed d x d unitary drawn from the generator rng."""
    require_int(d, "d", 1)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    return haar_from_ginibre(z)


def expi_hermitian(H, eps):
    """exp(i eps H) = V e^{i eps Lambda} V^dag of a Hermitian H = V Lambda V^dag."""
    lam, V = np.linalg.eigh(H)
    return (V * np.exp(1j * eps * lam)) @ V.conj().T


def unitarity_defect(U):
    """Max-entry norm of U U^dag - 1."""
    U = np.asarray(U)
    G = U @ U.conj().T
    return float(np.abs(G - np.eye(G.shape[0])).max())


def require_unitary(U, what="matrix"):
    d = unitarity_defect(U)
    if not d <= GATE_UNITARY_TOL:
        raise ValidationError(f"{what} is not unitary: max-entry defect {d:.3e} > "
                              f"{GATE_UNITARY_TOL:.1e}")
    return U


def _maxabs(A):
    return float(np.abs(A).max())


def verify_reshuffle_identities(X, locals_):
    """Residuals of the closed-form reshuffle algebra on a given operator X.

    Checks the six identity groups that tie R1, R2, T1, T2, the swap S and
    the full transpose together, plus the four covariance rules under
    sandwiching with the four single-particle operators locals_.  Returns a
    dict mapping a short identity label to the max-entry residual.
    """
    X = np.asarray(X, dtype=complex)
    q = local_dim(X)
    S = swap_operator(q)
    T = X.T
    res = {
        "t1_t2_full_transpose": max(
            _maxabs(partial_transpose_t2(partial_transpose_t1(X)) - T),
            _maxabs(partial_transpose_t1(partial_transpose_t2(X)) - T),
            _maxabs(partial_transpose_t1(X).T - partial_transpose_t1(T)),
        ),
        "r1_r2_swap_transpose": max(
            _maxabs(realign_r2(realign_r1(X)) - S @ T @ S),
            _maxabs(realign_r1(realign_r2(X)) - S @ T @ S),
        ),
        "r1_from_r2": _maxabs(realign_r1(X) - (S @ realign_r2(X) @ S).T),
        "swap_times_r2_t1": max(
            _maxabs(realign_r2(S @ X) - S @ partial_transpose_t1(X)),
            _maxabs(realign_r1(X @ S) - partial_transpose_t1(X) @ S),
        ),
        "swap_times_t2_r1": max(
            _maxabs(partial_transpose_t2(S @ X) - S @ realign_r1(X)),
            _maxabs(partial_transpose_t1(X @ S) - realign_r1(X) @ S),
        ),
        "swap_times_t2_r2": max(
            _maxabs(partial_transpose_t2(X @ S) - realign_r2(X) @ S),
            _maxabs(partial_transpose_t1(S @ X) - S @ realign_r2(X)),
        ),
    }

    u1, u2, u3, u4 = locals_
    Y = np.kron(u1, u2) @ X @ np.kron(u3, u4)
    res["local_covariance_r1"] = _maxabs(
        realign_r1(Y) - np.kron(u4.T, u2) @ realign_r1(X) @ np.kron(u3, u1.T)
    )
    res["local_covariance_r2"] = _maxabs(
        realign_r2(Y) - np.kron(u1, u3.T) @ realign_r2(X) @ np.kron(u2.T, u4)
    )
    res["local_covariance_t1"] = _maxabs(
        partial_transpose_t1(Y) - np.kron(u3.T, u2) @ partial_transpose_t1(X) @ np.kron(u1.T, u4)
    )
    res["local_covariance_t2"] = _maxabs(
        partial_transpose_t2(Y) - np.kron(u1, u4.T) @ partial_transpose_t2(X) @ np.kron(u3, u2.T)
    )
    return res


def gate_to_json(U):
    """Serialize a gate to the interchange dict {"q", "re", "im"}."""
    U = np.asarray(U, dtype=complex)
    return {"q": local_dim(U), "re": U.real.tolist(), "im": U.imag.tolist()}


def _parse_json(text, what):
    """The JSON value of `text` (str or UTF-8 bytes); text that is not JSON is refused."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also UnicodeDecodeError
        raise ValidationError(f"{what} is not UTF-8 JSON: {exc}") from None


def _json_array(value, key, shape, kind="integer"):
    """A JSON integer (shape ()), or nested lists of JSON integers or numbers
    (kind) of the given shape, as a numpy array; bools, strings and ragged
    lists are refused, never coerced."""
    types = {int} if kind == "integer" else {int, float}

    def fits(v, dims):
        if type(v) is not list or len(v) != dims[0]:
            return False
        if len(dims) == 1:  # an innermost row: one test of its set of types
            return {*map(type, v)} <= types
        return all(fits(x, dims[1:]) for x in v)

    if not (type(value) in types if shape == () else fits(value, shape)):
        what = "an integer" if shape == () else "a {} x {} matrix of {}s".format(*shape, kind)
        raise ValidationError(f"{key} must be {what}, got {reprlib.repr(value)}")
    try:
        return np.array(value, dtype=int if kind == "integer" else float)
    except OverflowError:
        raise ValidationError(f"{key} holds a number out of range") from None


def _json_object(obj, what, keys):
    """The local dimension q of a JSON object that must hold `keys`, q among
    them; q is a JSON integer >= 2."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValidationError(f"{what} lacks the keys {missing}")
    return require_int(int(_json_array(obj["q"], "q", ())), "q", 2)


def gate_from_json(obj):
    """Inverse of gate_to_json: the gate of a parsed JSON value.  A JSON
    string is refused as not an object, never parsed a second time."""
    q = _json_object(obj, "a gate", ("q", "re", "im"))
    re, im = (_json_array(obj[k], k, (q * q, q * q), "number") for k in ("re", "im"))
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValidationError("gate payload has non-finite entries")
    return re + 1j * im
