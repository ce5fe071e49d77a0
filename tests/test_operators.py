import math

import numpy as np
import pytest

import viscosolve.solvers as solvers
from viscosolve import (
    AffineMap,
    Ball,
    Box,
    ConfigurationError,
    ConstantAnchor,
    Halfspace,
    Hyperplane,
    Identity,
    LeastSquaresGradient,
    NonFiniteError,
    NonnegOrthant,
    ProblemSpec,
    ScheduleViolationWarning,
    Simplex,
    TrigContraction,
    norm,
    project,
    contains,
    viscosity_map,
)

from oracles import inner, ls_lipschitz


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


class Scaled:
    """x -> factor x, a plain class declaring ``modulus`` under ``name`` (lipschitz or ism_modulus)."""

    def __init__(self, dim, factor, name, modulus):
        self.dim, self.factor = dim, factor
        setattr(self, name, modulus)

    def __call__(self, x):
        return self.factor * x


def test_theta_map_with_zero_operator():
    zero = Scaled(2, 0.0, "ism_modulus", 1.0)  # A = 0: any modulus > 0 holds
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
    with pytest.raises(ConfigurationError):
        viscosity_map(x, problem, 0.0, 0.1)
    with pytest.raises(ConfigurationError):
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


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (5, 3), (3, 5), (64, 64)])
def test_ls_gradient_modulus_is_ls_lipschitz_bit_for_bit(shape):
    # the gradient takes lambda_max from the B^T B it holds; ls_lipschitz forms B^T B itself
    B = np.random.default_rng(list(shape)).normal(size=shape)
    A = LeastSquaresGradient(B=B, b=np.zeros(shape[0]))
    assert A.lipschitz == ls_lipschitz(B)


def test_ls_gradient_of_a_zero_matrix_is_refused():
    for f in (lambda B: LeastSquaresGradient(B=B, b=[1.0, 2.0]), ls_lipschitz):
        with pytest.raises(ValueError, match="B must be a nonzero 2-D matrix"):
            f(np.zeros((2, 3)))


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


# each maps the orthant into itself and breaks its declared modulus there: a doubler declared a 0.5-contraction,
# the identity declared 10-cocoercive (it is 1-cocoercive), and a doubler declared nonexpansive
FALSE_MODULI = {
    "f": ("map_f", Scaled(2, 2.0, "lipschitz", 0.5), "map f breaks its declared lipschitz = 0.5 on Q"),
    "A": ("map_A", Scaled(2, 1.0, "ism_modulus", 10.0), "map A breaks its declared ism_modulus = 10 on Q"),
    "S": ("map_S", Scaled(2, 2.0, "lipschitz", 1.0), "map S breaks its declared lipschitz = 1 on Q"),
}


@pytest.mark.parametrize("label", FALSE_MODULI)
def test_problem_spec_refuses_a_false_modulus(label):
    role, false_map, message = FALSE_MODULI[label]
    maps = {"map_S": Identity(2), "map_A": LeastSquaresGradient(np.eye(2), np.zeros(2)), "map_f": ConstantAnchor([1.0, 1.0])}
    ProblemSpec(set_Q=NonnegOrthant(2), **maps)  # the true maps pass
    ProblemSpec(set_Q=NonnegOrthant(2), **{**maps, "map_A": Scaled(2, 1.0, "ism_modulus", 1.0)})  # and a tight one
    with pytest.raises(ValueError, match=message):
        ProblemSpec(set_Q=NonnegOrthant(2), **{**maps, role: false_map})


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


class RecordingMap:
    """A nonexpansive S that returns its input and keeps a copy of it."""

    lipschitz = 1.0

    def __init__(self):
        self.seen = []

    def __call__(self, x):
        self.seen.append(np.array(x))
        return x


def spot_check_set(kind, d):
    """A set of ``kind`` in dimension ``d`` (parameters as the benchmark's d = 64 mix draws them) and a point outside it.

    A ``far_`` box or ball sits 1000 from the origin in every coordinate; a ``far_halfspace`` has offset 1000,
    so its boundary lies beyond the spot check's first spread.
    """
    rng = np.random.default_rng([d, 24])
    shift = 1000.0 if kind.startswith("far_") else 0.0
    if kind == "orthant":
        return NonnegOrthant(d), -np.ones(d)
    if kind.endswith("box"):
        lo = shift + rng.uniform(-2.0, 0.0, d)
        hi = lo + rng.uniform(0.5, 2.0, d)
        return Box(lo, hi), hi + 1.0
    if kind.endswith("ball"):
        center, radius = shift + rng.normal(size=d), rng.uniform(1.0, 3.0)
        return Ball(center, radius), center + radius + 1.0
    if kind.endswith(("halfspace", "hyperplane")):
        normal, offset = rng.normal(size=d), 1000.0 if shift else rng.uniform(-1.0, 1.0)
        cls = Hyperplane if kind == "hyperplane" else Halfspace
        return cls(normal, offset), normal * (offset + 1.0) / (normal @ normal)
    total = rng.uniform(1.0, 3.0)
    return Simplex(total, d), np.full(d, total)


def slack(Q, x):
    """The least slack of ``x`` over the defining inequalities of Q: 0 on the (relative) boundary, > 0 inside."""
    if isinstance(Q, (NonnegOrthant, Simplex)):  # the simplex's sum is an equality: its relative interior
        return x.min()
    if isinstance(Q, Box):
        return min((x - Q.lo).min(), (Q.hi - x).min())
    if isinstance(Q, Ball):
        return Q.radius - np.linalg.norm(x - Q.center)
    return Q.offset - Q.normal @ x  # halfspace


def spot_checked_points(Q, f):
    S = RecordingMap()
    ProblemSpec(set_Q=Q, map_S=S, map_A=LeastSquaresGradient(np.eye(Q.dim), np.zeros(Q.dim)), map_f=f)
    return np.array(S.seen)


@pytest.mark.parametrize("d", [2, 64])
@pytest.mark.parametrize("kind", ["orthant", "box", "ball", "halfspace", "hyperplane", "simplex", "far_box", "far_ball",
                                  "far_halfspace"])
def test_problem_spec_spot_checks_boundary_and_interior_points_of_q(kind, d):
    Q, outside = spot_check_set(kind, d)
    inside = ConstantAnchor(project(Q, np.zeros(d)))
    pts = spot_checked_points(Q, inside)
    assert pts.shape == (32, d)
    assert all(contains(Q, p) for p in pts)
    assert np.array_equal(pts, spot_checked_points(Q, inside))  # the same points on every construction
    if kind == "hyperplane":  # all of it is its relative interior: the points are spread over it
        assert len(np.unique(pts, axis=0)) == 32
    else:
        slacks = [slack(Q, p) for p in pts]
        assert min(abs(s) for s in slacks) <= 1e-9  # a boundary point
        assert max(slacks) > 1e-6  # an interior point
    with pytest.raises(ValueError, match="does not map Q into Q"):
        ProblemSpec(set_Q=Q, map_S=Identity(d), map_A=LeastSquaresGradient(np.eye(d), np.zeros(d)), map_f=ConstantAnchor(outside))


class LeavesNearTheBoundary:
    """x -> x + max(0, 1 - depth) n / ||n||, depth the distance of x below a halfspace's boundary: it
    leaves the halfspace only within 0.5 of its boundary."""

    lipschitz = 1.0

    def __init__(self, Q):
        self.unit, self.level = Q.normal / np.linalg.norm(Q.normal), Q.offset / np.linalg.norm(Q.normal)

    def __call__(self, x):
        return x + max(0.0, 1.0 - (self.level - self.unit @ x)) * self.unit


@pytest.mark.parametrize("seed", [0, 4, 17])
def test_problem_spec_refuses_a_map_that_leaves_a_far_halfspace_only_near_its_boundary(seed):
    # {<n, x> <= 1000} with these standard-normal n has its boundary 870 .. 5500 from the origin along n,
    # and no point of the first spread (scales up to 4096) meets it: the spread grows until one does
    normal = np.random.default_rng(seed).normal(size=2)
    Q, A, f = Halfspace(normal, 1000.0), LeastSquaresGradient(np.eye(2), np.zeros(2)), ConstantAnchor(np.zeros(2))
    ProblemSpec(set_Q=Q, map_S=Identity(2), map_A=A, map_f=f)  # a map of Q into Q passes
    with pytest.raises(ValueError, match="map S does not map Q into Q"):
        ProblemSpec(set_Q=Q, map_S=LeavesNearTheBoundary(Q), map_A=A, map_f=f)


def test_problem_spec_takes_an_identity_s_on_a_large_simplex():
    # the spot points' projections onto this simplex sum to 1e8 up to a rounding far above the check's 1e-8
    B = np.random.default_rng(0).normal(size=(64, 64))
    problem = ProblemSpec(set_Q=Simplex(1e8, 64), map_S=Identity(64), map_A=LeastSquaresGradient(B, np.zeros(64)),
                          map_f=ConstantAnchor(np.full(64, 1e8 / 64)))
    assert problem.dim == 64


@pytest.mark.parametrize("d", [2, 64])
@pytest.mark.parametrize("kind", ["orthant", "box", "ball", "halfspace", "hyperplane", "simplex", "far_box", "far_ball",
                                  "far_halfspace", "large_simplex"])
def test_problem_spec_takes_each_built_in_map_on_each_set(kind, d):
    # a large simplex is Simplex(1e8, d); the others are spot_check_set's
    Q = Simplex(1e8, d) if kind == "large_simplex" else spot_check_set(kind, d)[0]
    p = project(Q, np.zeros(d))
    rng = np.random.default_rng([d, 36])
    for B in (np.eye(d), rng.normal(size=(d, d)), rng.normal(size=(3, d))):  # nu = 1/L: tight on every pair for eye
        A = LeastSquaresGradient(B, rng.normal(size=len(B)))
        for f in (ConstantAnchor(p), AffineMap(0.5 * np.eye(d), 0.5 * p)):  # x -> (x + p) / 2 maps Q into Q
            ProblemSpec(set_Q=Q, map_S=Identity(d), map_A=A, map_f=f)
    if kind == "orthant" and d == 2:
        ProblemSpec(set_Q=Q, map_S=Identity(d), map_A=A, map_f=TrigContraction())


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


def test_numpy_trig_equals_libm_bit_for_bit():
    # TrigContraction.rows calls math.cos / math.sin per row; batched np.cos / np.sin rows would keep every
    # output's bytes only while numpy returns libm's doubles
    rng = np.random.default_rng(20221021)
    for lo, hi in [(0.0, 6.0), (-50.0, 50.0)]:
        s = rng.uniform(lo, hi, 200_000)
        for np_trig, libm_trig in [(np.cos, math.cos), (np.sin, math.sin)]:
            want = np.array([libm_trig(v) for v in s.tolist()])
            assert np.array_equal(np_trig(s).view(np.uint64), want.view(np.uint64)), (lo, hi, np_trig.__name__)
