import math

import numpy as np
import pytest

import viscosolve.solvers as solvers
from viscosolve import (
    AffineMap,
    ConstantAnchor,
    Identity,
    LeastSquaresGradient,
    NonFiniteError,
    NonnegOrthant,
    ParameterError,
    ProblemSpec,
    ScheduleViolationWarning,
    Simplex,
    TrigContraction,
    ls_lipschitz,
    norm,
    project,
    register_mapping,
    viscosity_map,
)

from oracles import inner


def theta_map(x, problem, lam):
    """P_Q(x - lam A x) as the rules apply it: the explicit step at mixing weight 0 (S is the identity here)."""
    step = solvers._build_step(problem, solvers.EXPLICIT_VISCOSITY)
    return step(np.asarray(x, dtype=float), 0.0, 1.0, lam, None, None, None, None)


def test_apply_gradient_example(problem):
    out = problem.map_A(np.array([2.0, 3.0]))
    assert np.allclose(out, [12.0, 12.0], atol=1e-12)


def test_apply_identity():
    x = np.array([0.3, -1.7, 4.0])
    assert np.array_equal(Identity(3)(x), x)


def test_trig_contraction_refuses_an_infinite_coordinate_sum():
    # math.cos used to raise a bare "ValueError: math domain error" here
    f = TrigContraction()
    for x in ([1e308, 1e308], [np.inf, 0.0], [-1e308, -1e308]):
        with pytest.raises(NonFiniteError, match="not finite"):
            f(np.array(x))
        with pytest.raises(NonFiniteError, match="not finite"), np.errstate(over="ignore"):  # numpy's sum warns
            f.rows(np.array([[2.0, 3.0], x]))
    assert np.isnan(f(np.array([np.nan, 0.0]))).all()  # a NaN sum is no refusal: the step's test finds it


def test_apply_trig_contraction():
    out = TrigContraction()(np.array([2.0, 3.0]))
    assert np.allclose(out, [2.64183, 3.47946], atol=5e-6)
    assert out[0] == (5.0 + math.cos(5.0)) / 2.0
    assert out[1] == (6.0 - math.sin(5.0)) / 2.0


def test_forward_step_examples(problem, qstar):
    # x - lam A x stays in Q at these points, so P_Q leaves it as it is
    out = theta_map(np.array([2.0, 3.0]), problem, 0.1)
    assert np.allclose(out, [0.8, 1.8], atol=1e-12)
    x = np.array([1.0, 2.5])
    assert np.array_equal(theta_map(x, problem, 0.0), x)
    # the reference point is stationary: A vanishes there
    assert np.allclose(theta_map(qstar, problem, 0.15), qstar, atol=1e-12)


def test_forward_step_schedule_violation(problem):
    x = np.array([1.0, 1.0])
    with pytest.warns(ScheduleViolationWarning):
        viscosity_map(x, problem, 0.5, 0.25)  # 2*nu = 0.2


def test_theta_map_examples(problem, qstar):
    out = theta_map(np.array([2.0, 3.0]), problem, 0.1)
    assert np.allclose(out, [0.8, 1.8], atol=1e-12)
    # fixed-point property at the reference solution
    assert norm(theta_map(qstar, problem, 0.1) - qstar) <= 1e-6


def test_theta_map_with_zero_operator():
    zero = register_mapping("zero_op_2d", lambda x: np.zeros(2), dim=2, role="ism", modulus=1.0)
    prob = ProblemSpec(
        set_Q=NonnegOrthant(2), map_S=Identity(2), map_A=zero, map_f=TrigContraction()
    )
    x = np.array([-1.0, 2.0])
    assert np.array_equal(theta_map(x, prob, 0.5), project(prob.set_Q, x))


def test_viscosity_map_examples(problem):
    x = np.array([2.0, 3.0])
    for mu in (0.05, 0.1, 0.2):
        assert np.allclose(viscosity_map(x, problem, 1.0, mu), problem.map_f(x), atol=1e-15)
    out = viscosity_map(x, problem, 0.5, 0.1)
    assert np.allclose(out, [1.72092, 2.63973], atol=5e-6)
    with pytest.raises(ParameterError):
        viscosity_map(x, problem, 0.0, 0.1)
    with pytest.raises(ParameterError):
        viscosity_map(x, problem, 1.5, 0.1)


def test_viscosity_contraction_factor(problem, rng):
    # ||T x - T y|| <= (1 - sigma t) ||x - y||
    sigma = problem.sigma
    for _ in range(300):
        t = rng.uniform(0.01, 1.0)
        x, y = np.abs(rng.normal(scale=3.0, size=(2, 2)))
        lhs = norm(viscosity_map(x, problem, t, 0.1) - viscosity_map(y, problem, t, 0.1))
        assert lhs <= (1 - sigma * t) * norm(x - y) + 1e-12


def test_ls_lipschitz_values():
    assert ls_lipschitz([[1.0, 1.0], [2.0, 2.0]]) == pytest.approx(10.0, abs=1e-12)
    assert ls_lipschitz(np.eye(2)) == pytest.approx(1.0, abs=1e-12)
    assert ls_lipschitz([[3.0]]) == pytest.approx(9.0, abs=1e-12)


def test_ls_gradient_modulus_is_derived():
    A = LeastSquaresGradient(B=[[1.0, 1.0], [2.0, 2.0]], b=[3.0, 5.0])
    assert A.lipschitz == pytest.approx(10.0, abs=1e-12)
    assert A.ism_modulus == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize("B, b", [([[1e308, 1.0], [2.0, 2.0]], [3.0, 5.0]), ([[1.0, 1.0], [2.0, 2.0]], [1e308, 1e308])])
def test_ls_gradient_whose_products_overflow_is_refused(B, b):
    # B^T B overflowed with a numpy warning and left a nan modulus
    with pytest.raises(NonFiniteError, match="B\\^T B or B\\^T b overflows"):
        LeastSquaresGradient(B=B, b=b)


def test_ism_inequality(problem, rng):
    A, nu = problem.map_A, problem.nu
    for _ in range(500):
        x, y = np.abs(rng.normal(scale=3.0, size=(2, 2)))
        assert inner(A(x) - A(y), x - y) >= nu * norm(A(x) - A(y)) ** 2 - 1e-10


def test_descent_inequality(problem, rng):
    A, nu = problem.map_A, problem.nu
    for lam in (0.05, 0.1, 0.19, 0.2):
        for _ in range(200):
            x, y = np.abs(rng.normal(scale=3.0, size=(2, 2)))
            lhs = norm((x - lam * A(x)) - (y - lam * A(y))) ** 2
            rhs = norm(x - y) ** 2 - lam * (2 * nu - lam) * norm(A(x) - A(y)) ** 2
            assert lhs <= rhs + 1e-10


def test_theta_map_nonexpansive(problem, rng):
    for _ in range(300):
        x, y = np.abs(rng.normal(scale=3.0, size=(2, 2)))
        assert norm(theta_map(x, problem, 0.1) - theta_map(y, problem, 0.1)) <= norm(x - y) + 1e-10


def test_trig_contraction_measured_modulus(rng):
    f = TrigContraction()
    bound = math.sqrt(2) / 2
    for _ in range(500):
        x, y = np.abs(rng.normal(scale=3.0, size=(2, 2)))
        if norm(x - y) == 0:
            continue
        assert norm(f(x) - f(y)) / norm(x - y) <= bound + 1e-8


def test_gradient_matches_finite_differences(problem, rng):
    A = problem.map_A
    h = 1e-6
    for _ in range(50):
        x = np.abs(rng.normal(scale=3.0, size=2))
        g = A(x)
        fd = np.empty(2)
        for i in range(2):
            dx = np.zeros(2)
            dx[i] = h * max(1.0, abs(x[i]))
            fd[i] = (A.objective(x + dx) - A.objective(x - dx)) / (2 * dx[i])
        assert norm(fd - g) / max(norm(g), 1e-12) <= 1e-6


def test_affine_map():
    m = AffineMap(M=[[0.0, 1.0], [1.0, 0.0]], c=[1.0, -1.0])
    assert np.allclose(m(np.array([2.0, 3.0])), [4.0, 1.0])
    assert m.lipschitz == pytest.approx(1.0, abs=1e-12)


def test_register_mapping_rejects_false_modulus():
    with pytest.raises(ValueError, match="violates"):
        register_mapping("doubler", lambda x: 2.0 * x, dim=2, role="contraction", modulus=0.5)


def test_register_mapping_roles():
    entry = register_mapping("halver", lambda x: 0.5 * x, dim=3, role="contraction", modulus=0.5)
    assert entry.lipschitz == 0.5 and entry.ism_modulus is None
    assert np.array_equal(entry(np.array([2.0, 4.0, 6.0])), [1.0, 2.0, 3.0])
    # no name registry: a name may be checked again, and each call returns its own mapping
    again = register_mapping("halver", lambda x: 0.25 * x, dim=3, role="contraction", modulus=0.5)
    assert again is not entry and again.fn is not entry.fn
    assert register_mapping("id", lambda x: x, dim=2, role="nonexpansive").lipschitz == 1.0
    with pytest.raises(ValueError):
        register_mapping("bad_role", lambda x: x, dim=2, role="wat", modulus=0.5)
    with pytest.raises(ValueError):
        register_mapping("bad_mod", lambda x: x, dim=2, role="contraction", modulus=1.0)


def test_problem_spec_validation():
    # f must be a strict contraction
    with pytest.raises(ValueError, match="contraction"):
        ProblemSpec(
            set_Q=NonnegOrthant(2),
            map_S=Identity(2),
            map_A=LeastSquaresGradient(B=np.eye(2), b=[0.0, 0.0]),
            map_f=Identity(2),
        )
    # f must map Q into Q
    with pytest.raises(ValueError, match="into Q"):
        ProblemSpec(
            set_Q=NonnegOrthant(2),
            map_S=Identity(2),
            map_A=LeastSquaresGradient(B=np.eye(2), b=[0.0, 0.0]),
            map_f=ConstantAnchor([-1.0, -1.0]),
        )


def test_problem_spec_derived_moduli(problem):
    assert problem.rho == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
    assert problem.sigma == pytest.approx(1 - math.sqrt(2) / 2, abs=1e-15)
    assert problem.nu == pytest.approx(0.1, abs=1e-15)
    assert problem.dim == 2
    assert isinstance(problem.reference_set_omega, Simplex)


def test_degenerate_mixing_reduces_to_forward_map(problem):
    # zero mixing weight leaves only S P(x - lam A x); with S = identity
    # that is exactly the projected forward step
    x = np.array([2.0, 3.0])
    out = solvers._build_step(problem, solvers.EXPLICIT_VISCOSITY)(x, 0.0, 1.0, 0.1, None, None, None, None)
    assert np.array_equal(out, project(problem.set_Q, x - 0.1 * problem.map_A(x)))


@pytest.mark.parametrize("d", [1, 2, 3, 5, 64])
def test_least_squares_gradient_equals_the_matmul_form_and_its_rows_bit_for_bit(d):
    # __call__ takes ndarray.dot, which reaches the gemv of ``gram @ x``; rows stacks the same gemv
    rng = np.random.default_rng([d, 15])
    grad = LeastSquaresGradient(rng.normal(size=(d, d)) + np.eye(d), rng.normal(size=d))
    X = rng.normal(scale=10.0, size=(50, d))
    rows = grad.rows(X)
    for x, row in zip(X, rows):
        got = grad(x)
        assert got.tobytes() == (grad._gram @ x - grad._bt_b).tobytes()
        assert got.tobytes() == row.tobytes()
