"""The package refuses input with one exception type, ValidationError."""

import ast
import math
import pathlib

import numpy as np
import pytest

import dualunitary
from dualunitary import ValidationError
from dualunitary.channels import lightcone_correlation_prediction
from dualunitary.circuit_sim import CircuitConfig, weyl_basis
from dualunitary.constructions import (cat_family, cat_map, diagonal_dual_sample,
                                       enumerate_dual_permutations, mr_iterate, mrt_iterate,
                                       ols_pair)
from dualunitary.haar_mc import (avg_mixing_rate, avg_norm_power, avg_spectral_radius,
                                 haar_monomial_oracle, max_mixing_rate, spectral_radius_samples)
from dualunitary.invariants import swap_entanglement
from dualunitary.qubit_exact import (cartan_gate, critical_theta, ep_cartan, min_lambda1_general,
                                     mu_prime, nu_plus_exact, nu_prime)
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
# (parameter the message names, the call of that one scalar, its out-of-domain values)
OUT_OF_DOMAIN = [
    ("q", cat_map, (0, 1, -2, 2.5, NAN, True)),
    ("q", lambda q: cat_family(q, 1), (0, 1, -2, 2.5, NAN, True)),
    ("q", ols_pair, (0, 1, -2, 2.5, NAN, True)),
    ("L", lambda L: CircuitConfig(q=2, L=L, gate=cartan_gate(0.3)), (0, -2, 2.5, NAN, True)),
    ("t", lambda t: lightcone_correlation_prediction(cartan_gate(0.3), SZ, SZ, t),
     (-2, 2.5, NAN, True)),
    ("max_iter", lambda n: mr_iterate(cartan_gate(0.3), max_iter=n), (0, -2, 2.5, NAN, True)),
    ("max_iter", lambda n: mrt_iterate(cartan_gate(0.3), max_iter=n), (0, -2, 2.5, NAN, True)),
    ("tol", lambda tol: mr_iterate(cartan_gate(0.3), tol=tol), (0, -2, NAN, math.inf, True)),
    ("tol", lambda tol: mrt_iterate(cartan_gate(0.3), tol=tol), (0, -2, NAN, math.inf, True)),
    ("q", swap_operator, (0, 1, -2, 2.5, NAN, True)),
    ("q", max_entangled_vector, (0, 1, -2, 2.5, NAN, True)),
    ("q", swap_entanglement, (0, 1, -2, 2.5, NAN, True)),
    ("q", weyl_basis, (0, 1, -2, 2.5, NAN, True)),
    ("q", lambda q: diagonal_dual_sample(q, 1.0, np.random.default_rng(0)),
     (0, 1, -2, 2.5, NAN, True)),
    ("q", lambda q: list(enumerate_dual_permutations(q)), (0, 1, -2, 2.5, NAN, True)),
    ("d", lambda d: sample_haar(d, np.random.default_rng(0)), (0, -2, 2.5, NAN, True)),
    ("J", cartan_gate, (NAN, math.inf, -math.inf)),
    ("N", lambda n: spectral_radius_samples(cartan_gate(0.3), n, 1), (0, -2, 2.5, NAN, True)),
    ("N", lambda n: avg_spectral_radius(cartan_gate(0.3), n, 1), (0, -2, 2.5, NAN, True)),
    ("N", lambda n: avg_mixing_rate(cartan_gate(0.3), n, 1), (0, -2, 2.5, NAN, True)),
    ("N", lambda n: max_mixing_rate(cartan_gate(0.3), n, 1), (0, -2, 2.5, NAN, True)),
    ("N", lambda n: avg_norm_power(cartan_gate(0.3), 2, n, 1), (0, -2, 2.5, NAN, True)),
    ("N", lambda n: haar_monomial_oracle(np.eye(4), np.eye(4), n, 1), (0, -2, 2.5, NAN, True)),
    ("workers", lambda w: spectral_radius_samples(cartan_gate(0.3), 5, 1, workers=w),
     (0, -2, 1.5, NAN, True)),
    ("workers", lambda w: avg_spectral_radius(cartan_gate(0.3), 5, 1, workers=w),
     (0, -2, 1.5, NAN, True)),
    ("k", lambda k: avg_norm_power(cartan_gate(0.3), k, 5, 1), (1, -2, 2.5, NAN, True)),
    ("refine_steps", lambda s: max_mixing_rate(cartan_gate(0.3), 5, 1, refine_steps=s),
     (-3, 2.5, NAN, True)),
    ("J", ep_cartan, (NAN, math.inf, -math.inf)),
    ("J", nu_prime, (NAN, math.inf, -math.inf)),
    ("J", mu_prime, (NAN, math.inf, -math.inf)),
    ("J", nu_plus_exact, (NAN, math.inf, -math.inf)),
    ("J", critical_theta, (NAN, math.inf, -math.inf)),
    ("J", min_lambda1_general, (NAN, math.inf, -math.inf)),
]


@pytest.mark.parametrize("name, call, value", [
    pytest.param(name, call, value, id=f"{name}-{k}-{value!r}")
    for k, (name, call, values) in enumerate(OUT_OF_DOMAIN) for value in values])
def test_an_out_of_domain_scalar_is_a_validation_error(name, call, value):
    # never a result, and never a bare TypeError, ValueError or ZeroDivisionError
    with pytest.raises(ValidationError, match=f"^{name} must be"):
        call(value)
