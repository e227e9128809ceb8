"""The extrapolating fixed-point driver against exact oracles.

Generated inputs check :func:`repro.numerics.iterate.damped_fixed_point`
against the plain damped iteration it replaced
(:func:`tests.oracles.plain_damped_fixed_point`) and, for Fair Share
equilibria, against the serial construction
(:func:`tests.oracles.serial_nash`), which iterates nothing:

* on contractive and oscillatory linear maps both reach the same fixed
  point;
* on a map whose outputs are rounded to a 1e-8 grid (a best response's
  noise floor, magnified) the driver terminates and returns the best
  point it evaluated;
* on FIFO-shaped affine maps it reaches the fixed point within
  :data:`AFFINE_EVALS` evaluations, and a map whose outputs are all
  positive is never evaluated at a non-positive coordinate;
* on Fair Share, FIFO and separable games the driver certifies whenever
  the plain iteration does, and Fair Share rates match the serial
  construction.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disciplines.registry import make_discipline
from repro.game.best_response import best_response_map, utility_improvements
from repro.game.nash import default_start, solve_nash
from repro.numerics.iterate import damped_fixed_point
from repro.numerics.rng import default_rng
from repro.users.families import LinearUtility, PowerUtility
from tests.oracles import plain_damped_fixed_point, serial_nash

#: How close the two drivers' fixed points of a linear map must be.
LINEAR_TOL = 1e-8
#: The certificate both Nash solves are held to.
GAIN_TOL = 1e-8
#: Fair Share rates against the serial construction.
SERIAL_TOL = 1e-7
#: Map evaluations a FIFO-shaped affine map may take to reach 1e-10.
AFFINE_EVALS = 8


@st.composite
def linear_maps(draw):
    """``x -> A x + b`` with symmetric ``A`` of dimension 1-6 whose
    eigenvalues lie in (-0.9, 0.9) (contractive) or in (-2.5, 0.5) with
    one below -1.2 (oscillatory: undamped iteration diverges, the
    half-damped one contracts)."""
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    oscillatory = draw(st.booleans())
    rng = default_rng(seed)
    if oscillatory:
        eigenvalues = rng.uniform(-2.5, 0.5, n)
        eigenvalues[0] = rng.uniform(-2.5, -1.2)
    else:
        eigenvalues = rng.uniform(-0.9, 0.9, n)
    basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
    matrix = basis @ np.diag(eigenvalues) @ basis.T
    offset = rng.uniform(-1.0, 1.0, n)
    start = rng.uniform(-1.0, 1.0, n)
    return matrix, offset, start


class TestLinearMaps:
    @given(case=linear_maps())
    @settings(max_examples=60, deadline=None)
    def test_reaches_the_plain_iterations_fixed_point(self, case):
        matrix, offset, start = case

        def mapping(x):
            return matrix @ x + offset

        oracle, oracle_converged, _ = plain_damped_fixed_point(
            mapping, start, tol=1e-12, max_iter=5000)
        result = damped_fixed_point(mapping, start, tol=1e-12,
                                    max_iter=5000)
        exact = np.linalg.solve(np.eye(offset.size) - matrix, offset)
        assert oracle_converged and result.converged
        assert np.max(np.abs(result.x - oracle)) <= LINEAR_TOL
        assert np.max(np.abs(result.x - exact)) <= LINEAR_TOL


class TestNoisyMap:
    @given(case=linear_maps(), max_iter=st.integers(1, 150))
    @settings(max_examples=60, deadline=None)
    def test_terminates_with_the_best_point_it_saw(self, case, max_iter):
        matrix, offset, start = case
        seen = []

        def mapping(x):
            out = np.round((matrix @ x + offset) * 1e8) / 1e8
            seen.append((float(np.max(np.abs(out - x))), x.copy()))
            return out

        result = damped_fixed_point(mapping, start, tol=1e-10,
                                    max_iter=max_iter)
        assert result.iterations == len(seen) <= max_iter
        best = min(residual for residual, _ in seen)
        assert result.residual == best
        if result.converged:
            assert result.residual < 1e-10
        else:
            assert any(np.array_equal(result.x, x)
                       for residual, x in seen if residual == best)


def _profile(n, family, jitter):
    """Tastes spread over [0.2, 0.8] with a quarter-step jitter: bunched
    independent draws can stall FIFO at a corner equilibrium."""
    step = 0.6 / (n - 1)
    tastes = np.linspace(0.2, 0.8, n) + np.asarray(jitter[:n]) * step
    if family == "linear":
        return [LinearUtility(gamma=float(g)) for g in tastes]
    return [PowerUtility(gamma=float(g), p=0.5, q=1.0) for g in tastes]


class TestNashAgainstOracles:
    @given(n=st.integers(2, 8),
           family=st.sampled_from(["linear", "power"]),
           jitter=st.lists(st.floats(-0.25, 0.25), min_size=8,
                           max_size=8),
           name=st.sampled_from(["fair-share", "fifo", "separable"]))
    @settings(max_examples=25, deadline=None)
    def test_certifies_whenever_the_plain_iteration_does(
            self, n, family, jitter, name):
        allocation = make_discipline(name)
        profile = _profile(n, family, jitter)
        result = solve_nash(allocation, profile)
        plain, _, _ = plain_damped_fixed_point(
            lambda r: best_response_map(allocation, profile, r),
            default_start(n, allocation), tol=1e-9, max_iter=400)
        plain_gain = max(utility_improvements(allocation, profile, plain))
        if plain_gain <= GAIN_TOL:
            assert result.max_gain <= GAIN_TOL
        if name == "fair-share":
            assert np.max(np.abs(result.rates - serial_nash(
                allocation, profile))) <= SERIAL_TOL


@st.composite
def fifo_affine_maps(draw):
    """``(c, b, start)`` of ``x -> c - b (1 1^T - I) x``, the shape of
    FIFO's best-response map (Theorem 7): eigenvalue ``-b (N - 1)``
    along the ones vector and ``b`` on the rest, for ``N`` in 2-8 and
    ``b`` in [0.05, 0.45].  Damped steps approach its fixed point from
    one side, outside the box of the iterates and outputs.  ``c`` puts
    the fixed point in [0.02, 0.5]; the start is drawn from the same
    range."""
    n = draw(st.integers(2, 8))
    b = draw(st.floats(0.05, 0.45))
    rng = default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    fixed = rng.uniform(0.02, 0.5, n)
    offset = fixed + b * (fixed.sum() - fixed)
    return offset, b, rng.uniform(0.02, 0.5, n)


def _fifo_affine(offset, b, x):
    return offset - b * (x.sum() - x)


class TestFifoShapedMaps:
    @given(case=fifo_affine_maps())
    @settings(max_examples=40, deadline=None)
    def test_reaches_the_fixed_point_in_few_evaluations(self, case):
        offset, b, start = case
        result = damped_fixed_point(lambda x: _fifo_affine(offset, b, x),
                                    start, tol=1e-10, max_iter=500)
        assert result.converged
        assert result.iterations <= AFFINE_EVALS

    @given(case=fifo_affine_maps(), shift=st.floats(0.0, 0.8),
           floor=st.floats(1e-9, 1e-3))
    @settings(max_examples=60, deadline=None)
    def test_positive_outputs_keep_every_input_positive(
            self, case, shift, floor):
        """Outputs floored at a small positive rate, as best responses
        are, with the unfloored fixed point pushed down by ``shift`` so
        that some coordinates sit at the floor."""
        offset, b, start = case
        offset = offset - shift * (1.0 + b * (offset.size - 1))
        inputs = []

        def mapping(x):
            inputs.append(x.copy())
            return np.maximum(_fifo_affine(offset, b, x), floor)

        damped_fixed_point(mapping, start, tol=1e-10, max_iter=500)
        assert min(float(np.min(x)) for x in inputs) > 0.0
