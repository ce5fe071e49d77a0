import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscosolve import (
    Ball,
    Box,
    ConstantAnchor,
    ConstantLambda,
    DimensionMismatchError,
    Halfspace,
    Hyperplane,
    Identity,
    InvalidDescriptorError,
    LeastSquaresGradient,
    NonFiniteError,
    NonnegOrthant,
    PowerAlpha,
    ProblemSpec,
    ScheduleSpec,
    ScheduleViolationWarning,
    Simplex,
    SolverConfig,
    contains,
    norm,
    project,
    project_rows,
    run,
    sample,
)
from viscosolve.projections import _ranks, _threshold

from oracles import inner
from test_batch import SET_KINDS, make_set, same_bits

finite = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


def all_sets(dim):
    rng = np.random.default_rng(7)
    sets = [NonnegOrthant(dim)]
    lo = -np.abs(rng.normal(size=dim)) - 0.5
    sets.append(Box(lo=lo, hi=lo + 1 + np.abs(rng.normal(size=dim))))
    sets.append(Ball(center=rng.normal(size=dim), radius=1.5))
    sets.append(Halfspace(normal=rng.normal(size=dim) + 0.1, offset=0.7))
    sets.append(Hyperplane(normal=rng.normal(size=dim) + 0.1, offset=-0.3))
    sets.append(Simplex(total=2.6, dim=dim))
    return sets


def test_orthant_clamp():
    assert np.array_equal(project(NonnegOrthant(2), [-1.0, 2.0]), [0.0, 2.0])


def test_simplex_hand_example():
    # threshold 1.2 solves (2 - a) + (3 - a) = 2.6
    p = project(Simplex(2.6, 2), [2.0, 3.0])
    assert np.allclose(p, [0.8, 1.8], atol=1e-12)


def test_simplex_hand_example_against_grid_search():
    # independent route: dense search over the segment (u, 2.6 - u), u in [0, 2.6]
    x = np.array([2.0, 3.0])
    us = np.linspace(0.0, 2.6, 100_001)
    cand = np.stack([us, 2.6 - us], axis=1)
    best = cand[np.argmin(((cand - x) ** 2).sum(axis=1))]
    assert norm(best - project(Simplex(2.6, 2), x)) <= 1e-4


def test_simplex_reference_step_example():
    # the projection step inside the reference fixed-point solve
    p = project(Simplex(2.6, 2), [2.07155562331555, 2.74224931409268])
    assert np.allclose(p, [0.96465, 1.63535], atol=5e-6)


def simplex_threshold(x, total):
    """alpha with ``project(Simplex(total, len(x)), x)`` = max(x - alpha, 0); a swamped total reads as the largest entry."""
    x = np.asarray(x, dtype=float)
    alpha = _threshold(x, total)
    return float(x.max()) if alpha is None else alpha


def test_simplex_threshold_examples():
    assert simplex_threshold([2.0, 3.0], 2.6) == pytest.approx(1.2, abs=1e-12)
    for c in (0.5, 1.0, 3.0):
        assert simplex_threshold([c, c], 2 * c) == pytest.approx(0.0, abs=1e-12)
    assert simplex_threshold([5.0, 0.0], 1.0) == pytest.approx(4.0, abs=1e-12)
    assert np.allclose(project(Simplex(1.0, 2), [5.0, 0.0]), [1.0, 0.0], atol=1e-12)


def test_simplex_threshold_reproduces_projection(rng):
    for dim in (2, 3, 7):
        cset = Simplex(2.6, dim)
        for _ in range(50):
            x = rng.normal(scale=3.0, size=dim)
            alpha = simplex_threshold(x, 2.6)
            assert np.array_equal(project(cset, x), np.maximum(x - alpha, 0.0))



def textbook_simplex_threshold(x, total):
    """The sort-based threshold of Duchi et al. (ICML 2008), written with the plain numpy calls."""
    u = np.sort(np.asarray(x, dtype=float))[::-1]
    css = np.cumsum(u)
    js = np.arange(1, u.size + 1)
    active = u - (css - total) / js > 0
    rho = int(np.nonzero(active)[0][-1])
    return float((css[rho] - total) / (rho + 1))


def simplex_points(rng, d, scale):
    """Points in dimension d at one scale: generic, tied, signed-zero, constant, on and off the simplex."""
    total = scale * float(rng.uniform(0.5, 3.0))
    generic = rng.normal(size=d) * scale
    tied = rng.integers(-3, 4, size=d) * (scale / 2)  # repeated entries, ties in the sort
    zeros = rng.choice([0.0, -0.0, scale, -scale], size=d)
    on = project(Simplex(total, d), generic)  # on the simplex, up to rounding
    exact = np.zeros(d)
    exact[rng.integers(d)] = total  # a vertex
    points = [generic, tied, zeros, on, exact, np.full(d, total / d), generic + total]
    points += [np.full(d, c) for c in (0.0, -0.0, scale, -scale)]  # all entries equal
    return total, points


@pytest.mark.parametrize("d", range(1, 71))
def test_simplex_threshold_equals_the_textbook_formula_bit_for_bit(d):
    rng = np.random.default_rng(d)
    for scale in 10.0 ** np.arange(-6, 7):
        total, points = simplex_points(rng, d, scale)
        for x in points:
            want = textbook_simplex_threshold(x, total)
            assert simplex_threshold(x, total).hex() == want.hex()
            assert simplex_threshold(list(x), total).hex() == want.hex()
            got = project(Simplex(total, d), x)
            assert got.tobytes() == np.maximum(x - want, 0.0).tobytes()


@pytest.mark.parametrize("d", [1, 2, 5, 64])
def test_simplex_refuses_non_finite_points_without_a_warning(d):
    rng = np.random.default_rng(d)
    bad = [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf], [np.nan, np.inf, -np.inf]]
    for values in bad:
        if len(values) > d:
            continue
        for _ in range(5):
            x = rng.normal(size=d)
            x[rng.choice(d, size=len(values), replace=False)] = values
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a warning before the error fails the test
                with pytest.raises(NonFiniteError):
                    simplex_threshold(x, 1.0)
                with pytest.raises(NonFiniteError):
                    project(Simplex(1.0, d), x)


def exact_simplex_projection(x, total):
    """The projection onto Simplex(total, len(x)) in exact rational arithmetic."""
    xs, total = [Fraction(v) for v in x], Fraction(total)
    acc, theta = Fraction(0), None
    for j, v in enumerate(sorted(xs, reverse=True), 1):
        acc += v
        if v > (acc - total) / j:
            theta = (acc - total) / j
    return [max(v - theta, Fraction(0)) for v in xs]


# the largest entry swamps the total: u_1 - total rounds to u_1, so no entry passes the active test
SWAMPING = [([1e17, 3.0], 2), ([1e20, 0.0], 2), ([1e16, 1.0, 2.0], 3)]
# ... also when the largest value is there more than once
SWAMPING_TIED = [([1e17, 1e17], 2), ([2.0, 1e20, -5.0, 1e20], 4)]


@pytest.mark.parametrize("x, d", SWAMPING + SWAMPING_TIED)
def test_simplex_projection_of_a_swamping_entry_is_finite_and_near_exact(x, d):
    got = project(Simplex(1.0, d), x)
    assert np.isfinite(got).all()
    assert contains(Simplex(1.0, d), got, 0.0)  # in the set: sum 1, no negative entry
    tol = 2 * math.ulp(max(abs(v) for v in x))
    for g, want in zip(got.tolist(), exact_simplex_projection(x, 1.0)):
        assert abs(Fraction(g) - want) <= tol


@pytest.mark.parametrize("x, d", SWAMPING + SWAMPING_TIED)
def test_simplex_threshold_of_a_swamping_entry_is_the_largest_entry(x, d):
    assert simplex_threshold(x, 1.0) == max(x)


def test_a_run_whose_forward_step_swamps_the_simplex_total_finishes_with_a_warning():
    # lambda = 1e18 sends x - lam A x to about 1e18, far outside [0, 2 nu]
    problem = ProblemSpec(
        set_Q=Simplex(1.0, 2),
        map_S=Identity(2),
        map_A=LeastSquaresGradient(np.eye(2), [1.0, 0.0]),
        map_f=ConstantAnchor([0.5, 0.5]),
    )
    schedule = ScheduleSpec(alpha=PowerAlpha(0.9), lam=ConstantLambda(1e18), bounds=(1e18, 1e18))
    cfg = SolverConfig(problem=problem, schedule=schedule, x1=[0.5, 0.5], n_max=20)
    with pytest.warns(ScheduleViolationWarning):
        trace = run(cfg)
    assert trace.x.shape == (20, 2)
    assert np.isfinite(trace.x).all()
    assert all(contains(problem.set_Q, x) for x in trace.x)


def test_simplex_ranks_are_cached_and_read_only():
    _threshold(np.ones(5), 1.0)
    ranks = _ranks(5)
    assert ranks is _ranks(5)
    assert ranks.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert not ranks.flags.writeable
    with pytest.raises(ValueError):
        ranks[0] = 0.0


def test_simplex_matches_scipy_qp_oracle(rng):
    # the same QP solved by SLSQP: min ||y - x||^2 / 2 subject to y >= 0, sum y = 2.6
    from scipy.optimize import minimize

    for dim in (2, 3, 5):
        cset = Simplex(2.6, dim)
        for _ in range(12):
            x = rng.normal(scale=3.0, size=dim)
            res = minimize(
                lambda y: 0.5 * float(np.sum((y - x) ** 2)),
                np.full(dim, 2.6 / dim),
                jac=lambda y: y - x,
                method="SLSQP",
                bounds=[(0.0, None)] * dim,
                constraints=[{"type": "eq", "fun": lambda y: np.sum(y) - 2.6, "jac": lambda y: np.ones(dim)}],
                options={"ftol": 1e-14, "maxiter": 200},
            )
            assert res.success, res.message
            assert norm(res.x - project(cset, x)) <= 1e-8


def kkt_certificate(cset, x, y):
    """Multipliers of y = P(x) from stationarity x - y = sum_i mu_i grad h_i(y).

    Returns (stationarity residual, multipliers that must be >= 0,
    multiplier * slack products that must vanish).
    """
    v = x - y
    if isinstance(cset, NonnegOrthant):  # h_i = -y_i
        return 0.0, -v, v * y
    if isinstance(cset, Box):  # h = lo - y and y - hi
        up, down = np.maximum(v, 0.0), np.maximum(-v, 0.0)
        return 0.0, np.concatenate([up, down]), np.concatenate([up * (cset.hi - y), down * (y - cset.lo)])
    if isinstance(cset, Simplex):  # h_i = -y_i, sum y = total
        nu = float(np.mean(v[y > 0]))  # mu_i = 0 on the support
        mu = nu - v
        return 0.0, mu, mu * y
    if isinstance(cset, Ball):  # h = ||y - c||^2 - r^2
        grad, slack = 2.0 * (y - cset.center), norm(y - cset.center) ** 2 - cset.radius**2
    else:  # halfspace <n, y> <= c, hyperplane <n, y> = c
        grad, slack = cset.normal, inner(cset.normal, y) - cset.offset
    gg = inner(grad, grad)
    mu = inner(v, grad) / gg if gg > 0 else 0.0
    sign = np.array([mu]) if not isinstance(cset, Hyperplane) else np.zeros(1)
    return norm(v - mu * grad), sign, np.array([mu * slack])


@settings(max_examples=300)
@given(
    kind=st.sampled_from(["orthant", "box", "ball", "halfspace", "hyperplane", "simplex"]),
    dim=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.sampled_from([0.1, 1.0, 10.0]),
)
def test_projection_kkt_certificate(kind, dim, seed, scale):
    rng = np.random.default_rng(seed)
    normal = rng.uniform(0.5, 2.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
    lo = rng.normal(size=dim)
    cset = {
        "orthant": lambda: NonnegOrthant(dim),
        "box": lambda: Box(lo=lo, hi=lo + rng.uniform(0.0, 2.0, size=dim)),
        "ball": lambda: Ball(center=rng.normal(size=dim), radius=rng.uniform(0.1, 3.0)),
        "halfspace": lambda: Halfspace(normal=normal, offset=rng.normal()),
        "hyperplane": lambda: Hyperplane(normal=normal, offset=rng.normal()),
        "simplex": lambda: Simplex(total=rng.uniform(0.1, 5.0), dim=dim),
    }[kind]()
    x = rng.normal(scale=scale, size=dim)
    y = project(cset, x)
    size = 1.0 + scale + norm(x)
    tol = 1e-12 * size
    assert contains(cset, y, tol)
    stationarity, signs, products = kkt_certificate(cset, x, y)
    assert stationarity <= tol
    assert np.all(signs >= -tol)
    assert np.all(np.abs(products) <= tol * size)


def test_contains_examples():
    assert contains(NonnegOrthant(2), [0.0, 0.0], 0.0)
    assert contains(Simplex(2.6, 2), [0.8, 1.8], 1e-12)
    assert not contains(Ball(center=[0.0, 0.0], radius=1.0), [2.0, 0.0], 1e-12)


def test_invalid_descriptors():
    with pytest.raises(InvalidDescriptorError):
        Ball(center=[0.0, 0.0], radius=0.0)
    with pytest.raises(InvalidDescriptorError):
        Ball(center=[0.0, 0.0], radius=-1.0)
    with pytest.raises(InvalidDescriptorError):
        Simplex(total=0.0, dim=2)
    with pytest.raises(InvalidDescriptorError):
        Box(lo=[1.0, 0.0], hi=[0.0, 1.0])
    with pytest.raises(InvalidDescriptorError):
        Halfspace(normal=[0.0, 0.0], offset=1.0)


@pytest.mark.parametrize("make", [NonnegOrthant, lambda dim: Simplex(1.0, dim)], ids=["orthant", "simplex"])
def test_sets_check_their_own_dimension(make):
    # a dim of 2.5 used to pass, and every projection then failed with "set lives in dimension 2.5"
    for bad in (2.5, 0, -1, "2", None, float("nan")):
        with pytest.raises(InvalidDescriptorError, match=f"dim must be an integer >= 1, got {bad!r}"):
            make(bad)
    cset = make(2.0)
    assert cset.dim == 2 and type(cset.dim) is int
    assert project(cset, [0.5, 0.5]).shape == (2,)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        project(NonnegOrthant(3), [1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        contains(Simplex(1.0, 2), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_projection_membership_and_idempotence(dim, rng):
    for cset in all_sets(dim):
        for _ in range(40):
            x = rng.normal(scale=4.0, size=dim)
            p = project(cset, x)
            assert contains(cset, p, 1e-10)
            assert norm(project(cset, p) - p) <= 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_variational_characterization(dim, rng):
    # <P x - x, P x - y> <= 0 for every y in the set
    for cset in all_sets(dim):
        ys = sample(cset, rng, 60)
        for _ in range(20):
            x = rng.normal(scale=4.0, size=dim)
            p = project(cset, x)
            for y in ys:
                assert inner(p - x, p - y) <= 1e-10


@pytest.mark.parametrize("dim", [2, 3])
def test_firm_nonexpansiveness(dim, rng):
    for cset in all_sets(dim):
        for _ in range(60):
            x, y = rng.normal(scale=4.0, size=(2, dim))
            px, py = project(cset, x), project(cset, y)
            assert inner(px - py, x - y) >= norm(px - py) ** 2 - 1e-10
            assert norm(px - py) <= norm(x - y) + 1e-10


@settings(max_examples=60)
@given(st.lists(finite, min_size=2, max_size=5))
def test_orthant_and_simplex_projection_properties(xs):
    x = np.asarray(xs, dtype=float)
    p_orth = project(NonnegOrthant(x.size), x)
    assert np.all(p_orth >= 0)
    p_simp = project(Simplex(2.6, x.size), x)
    assert np.all(p_simp >= 0)
    assert abs(p_simp.sum() - 2.6) <= 1e-10


def test_sample_stays_inside(rng):
    for dim in (2, 4):
        for cset in all_sets(dim):
            pts = sample(cset, rng, 25)
            assert pts.shape == (25, dim)
            for p in pts:
                assert contains(cset, p, 1e-9)


@pytest.mark.parametrize("dim", [1, 2, 64])
def test_sample_is_a_loop_of_project_bit_for_bit(dim):
    # the sets without a closed-form sampler project Gaussians, through project_rows
    for cset in all_sets(dim)[3:]:
        got = sample(cset, np.random.default_rng(dim), 9)
        pts = np.random.default_rng(dim).normal(scale=2.0, size=(9, dim))
        assert got.tobytes() == np.stack([project(cset, p) for p in pts]).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 64])
def test_box_equals_numpy_clip_bit_for_bit(dim, rng):
    for cset in all_sets(dim)[1:2]:
        for x in rng.normal(scale=2.0, size=(20, dim)):
            assert project(cset, x).tobytes() == np.clip(x, cset.lo, cset.hi).tobytes()


@pytest.mark.parametrize("dim", [2, 64])
def test_box_keeps_numpy_clip_signed_zeros(dim):
    # Pins np.clip's signed zeros with array bounds: a zero meeting a zero bound takes the bound's sign,
    # a zero strictly inside keeps its own. np.maximum / np.minimum document no rule for +-0.
    def signs(lo, hi, x):
        y = project(Box(lo=np.full(dim, lo), hi=np.full(dim, hi)), np.full(dim, x))
        return set(np.signbit(y).tolist())

    assert signs(0.0, 1.0, -0.0) == {False}
    assert signs(-0.0, 1.0, 0.0) == {True}
    assert signs(-1.0, -0.0, 0.0) == {True}
    assert signs(-1.0, 0.0, -0.0) == {False}
    assert signs(-1.0, 1.0, -0.0) == {True}
    assert signs(-1.0, 1.0, 0.0) == {False}


# ---- the checked entry points: a shape check, then the set's own method


class WithoutRows:
    """``cset`` behind the set protocol without its optional ``project_rows``."""

    def __init__(self, cset):
        self.cset, self.dim = cset, cset.dim

    def project(self, x):
        return self.cset.project(x)

    def contains(self, x, tol):
        return self.cset.contains(x, tol)


@pytest.mark.parametrize("kind", SET_KINDS)
def test_entry_points_check_shapes(kind):
    cset = make_set(kind, np.random.default_rng(SET_KINDS.index(kind)), 3)
    for x in (np.zeros(2), np.zeros(4), np.zeros((1, 3)), np.zeros((3, 3)), np.float64(0.0)):
        with pytest.raises(DimensionMismatchError):
            project(cset, x)
        with pytest.raises(DimensionMismatchError):
            contains(cset, x)
    for X in (np.zeros(3), np.zeros((2, 2)), np.zeros((2, 4)), np.zeros((1, 1, 3))):
        with pytest.raises(DimensionMismatchError):
            project_rows(cset, X)
        with pytest.raises(DimensionMismatchError):
            project_rows(WithoutRows(cset), X)


@pytest.mark.parametrize("kind", SET_KINDS)
def test_entry_points_refuse_objects_that_are_not_sets(kind):
    # a set's config descriptor is not a set
    for not_a_set in ({"kind": kind, "dim": 3}, kind, None, object()):
        with pytest.raises(TypeError, match="no projection rule"):
            project(not_a_set, np.zeros(3))
        with pytest.raises(TypeError, match="no membership rule"):
            contains(not_a_set, np.zeros(3))


@pytest.mark.parametrize("d", [1, 2, 64])
@pytest.mark.parametrize("kind", SET_KINDS)
def test_project_rows_without_a_row_method_is_project_per_row(kind, d):
    rng = np.random.default_rng([d, SET_KINDS.index(kind)])
    cset = make_set(kind, rng, d)
    for c in (0, 1, 5):
        X = rng.normal(scale=3.0, size=(c, d))
        want = np.array([project(cset, x) for x in X]).reshape(c, d)
        assert same_bits(project_rows(WithoutRows(cset), X), want), (kind, d, c)
        assert same_bits(project_rows(cset, X), want), (kind, d, c)
        if c:  # an empty list has shape (0,), not (0, d)
            assert same_bits(project_rows(WithoutRows(cset), X.tolist()), want), (kind, d, c)


@pytest.mark.parametrize("dim", [1, 2, 64])
def test_orthant_clamp_keeps_nan_and_signed_zeros_of_the_float_clamp(dim, rng):
    # the clamp takes a 0-d zero; its results are np.maximum(x, 0.0)'s, NaN and -0.0 included
    special = [np.nan, -np.nan, -0.0, 0.0, -np.inf, np.inf, -5e-324, 5e-324, -1.0, 1.0]
    x = np.resize(np.array(special), (len(special) * dim,))
    rng.shuffle(x)
    X = x.reshape(len(special), dim)
    want_rows = np.maximum(X, 0.0)
    for row, want in zip(X, want_rows):
        got = project(NonnegOrthant(dim), row)
        assert got.tobytes() == want.tobytes()
    assert project_rows(NonnegOrthant(dim), X).tobytes() == want_rows.tobytes()
    for z in (-0.0, 0.0):  # numpy documents no sign for a tie of zeros: the float clamp's is kept
        got = project(NonnegOrthant(dim), np.full(dim, z))
        assert got.tobytes() == np.maximum(np.full(dim, z), 0.0).tobytes()
    assert np.isnan(project(NonnegOrthant(dim), np.full(dim, np.nan))).all()
