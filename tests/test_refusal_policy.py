"""The package refuses input with one exception type, ValidationError."""

import ast
import inspect
import math
import pathlib

import numpy as np
import pytest

import dualunitary
from dualunitary import ValidationError
from dualunitary.channels import ChannelSpectrum, lightcone_correlation_prediction
from dualunitary.circuit_sim import CircuitConfig, weyl_basis
from dualunitary.constructions import (block_channel_forms, block_diagonal_gate, cat_family,
                                       cat_fourier_local_lambda1, cat_map, classify_permutation,
                                       diagonal_dual_sample, enumerate_dual_permutations,
                                       mr_iterate, mrt_iterate, ols_pair, permutation_gate,
                                       two_unitary_permutation)
from dualunitary.haar_mc import (MCEstimate, avg_mixing_rate, avg_norm_power,
                                 avg_spectral_radius, haar_monomial_oracle, max_mixing_rate,
                                 spectral_radius_samples)
from dualunitary.invariants import (SchmidtSpectrum, classify_duality, mixing_thresholds,
                                    swap_entanglement, threshold_report)
from dualunitary.qubit_exact import (cartan_gate, critical_theta, ep_cartan, general_su2_cubic,
                                     min_lambda1_general, mu_prime, nu_plus_exact, nu_prime,
                                     restricted_v_cubic, restricted_w_spectrum)
from dualunitary.tensor_ops import max_entangled_vector, sample_haar, swap_operator


def test_no_module_raises_a_bare_value_error():
    # a bare ValueError would reach the CLI as an internal fault (exit 1)
    # instead of a refused input (exit 3)
    assert issubclass(ValidationError, ValueError)
    offenders = []
    for path in sorted(pathlib.Path(dualunitary.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


NAN = float("nan")
SZ = np.diag([1.0, -1.0])
# (parameter the message names, the exported callable it checks, the call of that
# one scalar or None for the callable itself, its out-of-domain values)
OUT_OF_DOMAIN = [
    ("q", cat_map, None, (0, 1, -2, 2.5, NAN, True)),
    ("q", cat_family, lambda q: cat_family(q, 1), (0, 1, -2, 2.5, NAN, True)),
    ("q", ols_pair, None, (0, 1, -2, 2.5, NAN, True)),
    ("L", CircuitConfig, lambda L: CircuitConfig(q=2, L=L, gate=cartan_gate(0.3)),
     (0, -2, 2.5, NAN, True)),
    ("t", lightcone_correlation_prediction,
     lambda t: lightcone_correlation_prediction(cartan_gate(0.3), SZ, SZ, t),
     (-2, 2.5, NAN, True)),
    ("max_iter", mr_iterate, lambda n: mr_iterate(cartan_gate(0.3), max_iter=n),
     (0, -2, 2.5, NAN, True)),
    ("max_iter", mrt_iterate, lambda n: mrt_iterate(cartan_gate(0.3), max_iter=n),
     (0, -2, 2.5, NAN, True)),
    ("tol", mr_iterate, lambda tol: mr_iterate(cartan_gate(0.3), tol=tol),
     (0, -2, NAN, math.inf, True)),
    ("tol", mrt_iterate, lambda tol: mrt_iterate(cartan_gate(0.3), tol=tol),
     (0, -2, NAN, math.inf, True)),
    ("q", swap_operator, None, (0, 1, -2, 2.5, NAN, True)),
    ("q", max_entangled_vector, None, (0, 1, -2, 2.5, NAN, True)),
    ("q", swap_entanglement, None, (0, 1, -2, 2.5, NAN, True)),
    ("q", weyl_basis, None, (0, 1, -2, 2.5, NAN, True)),
    ("q", diagonal_dual_sample, lambda q: diagonal_dual_sample(q, 1.0, np.random.default_rng(0)),
     (0, 1, -2, 2.5, NAN, True)),
    ("q", enumerate_dual_permutations, lambda q: list(enumerate_dual_permutations(q)),
     (0, 1, -2, 2.5, NAN, True)),
    ("d", sample_haar, lambda d: sample_haar(d, np.random.default_rng(0)),
     (0, -2, 2.5, NAN, True)),
    ("J", cartan_gate, None, (NAN, math.inf, -math.inf)),
    ("N", spectral_radius_samples, lambda n: spectral_radius_samples(cartan_gate(0.3), n, 1),
     (0, -2, 2.5, NAN, True)),
    ("N", avg_spectral_radius, lambda n: avg_spectral_radius(cartan_gate(0.3), n, 1),
     (0, -2, 2.5, NAN, True)),
    ("N", avg_mixing_rate, lambda n: avg_mixing_rate(cartan_gate(0.3), n, 1),
     (0, -2, 2.5, NAN, True)),
    ("N", max_mixing_rate, lambda n: max_mixing_rate(cartan_gate(0.3), n, 1),
     (0, -2, 2.5, NAN, True)),
    ("N", avg_norm_power, lambda n: avg_norm_power(cartan_gate(0.3), 2, n, 1),
     (0, -2, 2.5, NAN, True)),
    ("N", haar_monomial_oracle, lambda n: haar_monomial_oracle(np.eye(4), np.eye(4), n, 1),
     (0, -2, 2.5, NAN, True)),
    ("workers", spectral_radius_samples,
     lambda w: spectral_radius_samples(cartan_gate(0.3), 5, 1, workers=w),
     (0, -2, 1.5, NAN, True)),
    ("workers", avg_spectral_radius,
     lambda w: avg_spectral_radius(cartan_gate(0.3), 5, 1, workers=w),
     (0, -2, 1.5, NAN, True)),
    ("k", avg_norm_power, lambda k: avg_norm_power(cartan_gate(0.3), k, 5, 1),
     (1, -2, 2.5, NAN, True)),
    ("refine_steps", max_mixing_rate,
     lambda s: max_mixing_rate(cartan_gate(0.3), 5, 1, refine_steps=s),
     (-3, 2.5, NAN, True)),
    ("J", ep_cartan, None, (NAN, math.inf, -math.inf)),
    # the closed forms are defined where sin 2J >= 0: -0.3 and 2.0 lie outside
    ("J", nu_prime, None, (NAN, math.inf, -math.inf, -0.3, 2.0)),
    ("J", mu_prime, None, (NAN, math.inf, -math.inf, -0.3, 2.0)),
    ("J", nu_plus_exact, None, (NAN, math.inf, -math.inf, -0.3, 2.0)),
    ("J", critical_theta, None, (NAN, math.inf, -math.inf, -0.3, 2.0)),
    ("J", min_lambda1_general, None, (NAN, math.inf, -math.inf, -0.3, 2.0)),
    ("q", CircuitConfig, lambda q: CircuitConfig(q=q, L=2, gate=cartan_gate(0.3)),
     (0, 1, -2, 2.5, NAN, True)),
    ("q", block_channel_forms, lambda q: block_channel_forms(q, [np.eye(4)]),
     (0, 1, -2, 2.5, NAN, True)),
    ("q", block_diagonal_gate, lambda q: block_diagonal_gate(q, [np.eye(4)]),
     (0, 1, -2, 2.5, NAN, True)),
    ("q", cat_fourier_local_lambda1, lambda q: cat_fourier_local_lambda1(q, 0.0, 0.5),
     (0, 1, -2, 2.5, NAN, True)),
    ("q", mixing_thresholds, None, (0, 1, -2, 2.5, NAN, True)),
    ("q", threshold_report, lambda q: threshold_report(q, 0.5), (0, 1, -2, 2.5, NAN, True)),
    ("q", two_unitary_permutation, None, (0, 1, -2, 2.5, NAN, True)),
    ("tol", classify_duality, lambda tol: classify_duality(cartan_gate(0.3), tol=tol),
     (0, -2, NAN, math.inf, True)),
    ("J", restricted_w_spectrum, lambda J: restricted_w_spectrum(J, 0.3),
     (NAN, math.inf, -math.inf)),
    ("J", restricted_v_cubic, lambda J: restricted_v_cubic(J, 0.3), (NAN, math.inf, -math.inf)),
    ("J", general_su2_cubic, lambda J: general_su2_cubic(J, 0.3, 0.2),
     (NAN, math.inf, -math.inf)),
]

# the exported parameters a scalar row must exercise, each with the name its
# message gives it (the sample count n is refused as N, the CLI's -N)
SCALAR_PARAMETERS = {"q": "q", "L": "L", "t": "t", "n": "N", "d": "d", "J": "J", "k": "k",
                     "workers": "workers", "refine_steps": "refine_steps",
                     "max_iter": "max_iter", "tol": "tol"}
EXEMPT = {
    (ChannelSpectrum, "q"): "a record of a computed spectrum, built by channel_spectrum",
    (MCEstimate, "n"): "a record of an estimate, built by the estimators after their checks",
    (SchmidtSpectrum, "q"): "a record of a computed spectrum, built by schmidt_spectrum",
    (permutation_gate, "L"): "L is the matrix of second targets, checked as a matrix with K",
    (classify_permutation, "L"): "L is the matrix of second targets, checked as a matrix with K",
}


@pytest.mark.parametrize("name, call, value", [
    pytest.param(name, call or target, value, id=f"{name}-{k}-{value!r}")
    for k, (name, target, call, values) in enumerate(OUT_OF_DOMAIN) for value in values])
def test_an_out_of_domain_scalar_is_a_validation_error(name, call, value):
    # never a result, and never a bare TypeError, ValueError or ZeroDivisionError
    with pytest.raises(ValidationError, match=f"^{name} must be"):
        call(value)


def test_every_exported_scalar_parameter_has_an_out_of_domain_row():
    covered = {(target, name) for name, target, _, _ in OUT_OF_DOMAIN}
    missing = []
    for attr, obj in sorted(vars(dualunitary).items()):
        if attr.startswith("_") or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # ValidationError: an exception type with no signature
            continue
        missing += [f"{attr}({p})" for p in params if p in SCALAR_PARAMETERS
                    and (obj, p) not in EXEMPT and (obj, SCALAR_PARAMETERS[p]) not in covered]
    assert missing == []
