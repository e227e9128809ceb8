"""Base classes for allocation functions.

The paper's acceptable allocation functions (the set ``AC``) map every
rate vector in the natural domain ``D`` to an interior feasible
congestion vector, are symmetric under user permutation, and are C^1.
Outside ``D`` they are still defined, possibly assigning infinite
congestion (needed so that learning dynamics can wander out of the
stable region, Section 4.2.2).

Values and derivatives (one base for every congestion map)
----------------------------------------------------------

:class:`Differentiable` holds everything a map does not write.  A map
writes one full-profile value form,

* :meth:`Differentiable.congestion` — ``C(r)`` for one profile, or
* :meth:`Differentiable.congestion_many` — ``C`` for a batch of
  profiles,

and the base derives the other (row 0 of a one-row batch, or a row
loop), :meth:`~Differentiable.congestion_i`, ``__call__`` and
:meth:`~Differentiable.congestion_grid`.  A map that writes neither
raises ``TypeError``.

The paper's results are statements about derivatives of ``C(r)``: the
Nash first-derivative condition, MAC's signs of ``dC_i/dr_j``, Fair
Share's lower-triangular Jacobian and Theorem 7's relaxation matrix
of ``d^2 C_i/dr_i dr_j``.  A map writes two rows per user,

* :meth:`Differentiable.gradient_i` — ``dC_i/dr_j`` over ``j``;
* :meth:`Differentiable.second_gradient_i` —
  ``d^2 C_i/dr_i dr_j`` over ``j``,

both numeric by default, and every other derivative reads them.
:class:`AllocationFunction`, :class:`Subsystem` and
:class:`repro.network.model.NetworkAllocation` share it; disciplines
with closed forms write them as their two rows.

Batched evaluation (the vectorized solver core)
-----------------------------------------------

Solvers scan candidate rates in bulk through
:meth:`Differentiable.grid_evaluator`: several users' congestion over
candidate own-rates, one candidate row per user, opponents held fixed,
with the opponent-side precomputation done once for repeated calls.
:meth:`~Differentiable.congestion_grid` is its one-user view.  The
batched value form is the map's :meth:`congestion_many` (the priority
discipline alone writes ``congestion``).  A map that writes no rows of
its own gets :func:`point_rows`, which scores a whole round of
candidates in one :meth:`congestion_many` call, so every map's rows
are one batch per round and best responses have one path.

Symmetry-class evaluation (the class-space solver core)
-------------------------------------------------------

Profiles of interest almost always contain a handful of *distinct*
utility types, so the N-user game collapses to a K-class game with
multiplicities.  Because acceptable allocations are symmetric under
user permutation, users sharing a rate receive identical congestion,
and the whole congestion vector is a function of ``(class_rates,
counts)`` alone.  The base class exposes

* :meth:`AllocationFunction.class_congestion` — per-class congestion
  for a class-symmetric profile;
* :meth:`AllocationFunction.class_deviation_rows` — the rows a
  discipline writes: a member of each of several classes deviating
  unilaterally, one candidate row per class, so a class-space
  best-response round is one batched call (``include_self=True``
  keeps the deviator's class mass intact, the mean-field closure where
  a single agent is infinitesimal);
* :meth:`AllocationFunction.class_deviation_evaluator` — its
  one-class view.

A discipline's per-user rows are its class rows with every count one
(each user a class of its own): :meth:`AllocationFunction.grid_evaluator`
reads them.  The class defaults expand classes to the full N-vector
and score the rows through :func:`point_rows` (exact, but O(N) per
candidate); disciplines with closed forms write O(K) passes.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.numerics.diff import diff_step
from repro.numerics.diff import gradient as numeric_gradient
from repro.numerics.diff import second_partial
from repro.numerics.rng import default_rng
from repro.queueing.constraints import FeasibilitySet
from repro.queueing.service_curves import MM1Curve, ServiceCurve

#: A prepared batched objective: candidate own-rates -> ``C_i`` values.
GridEvaluator = Callable[[Sequence[float]], np.ndarray]

#: A prepared row-wise objective: a ``(B, K)`` array of candidate
#: own-rates, row ``b`` for the ``b``-th user, -> their congestions.
RowEvaluator = Callable[[np.ndarray], np.ndarray]


def one_row(evaluate: RowEvaluator) -> GridEvaluator:
    """The ``xs -> C_i`` view of a one-user :data:`RowEvaluator`."""
    def evaluate_one(xs: Sequence[float]) -> np.ndarray:
        cand = np.asarray(xs, dtype=float)
        return evaluate(cand.reshape(1, -1)).reshape(cand.shape)

    return evaluate_one


def opponent_rows(rates: np.ndarray, users: np.ndarray) -> np.ndarray:
    """Row ``b`` is ``np.delete(rates, users[b])``: shape ``(B, N - 1)``."""
    rows = np.arange(rates.size)[users]
    cols = np.arange(rates.size - 1)
    return rates[cols + (cols >= rows[:, None])]


def point_rows(subject: "Differentiable", profiles: Sequence[np.ndarray],
               users: Sequence[int]) -> RowEvaluator:
    """Row ``b``: ``congestion_i`` of user ``users[b]`` of
    ``profiles[b]``, that user moved to each candidate in turn.

    The profiles share one length N.  A round of B rows by K
    candidates is one :meth:`~Differentiable.congestion_many` call over
    its B·K candidate profiles, entry ``[b, k]`` read off profile
    ``b·K + k``; since a batch row equals its one-profile call bit for
    bit, so does each entry its ``congestion_i``.  The round holds
    B·K·N floats: fine for the maps on these rows (the network and
    weighted-proportional sharing run at N <= 5); a large population
    belongs on a map's own rows or in class space.
    """
    bases = np.array(profiles, dtype=float)
    rows = np.asarray(users, dtype=int)

    def evaluate(xs: np.ndarray) -> np.ndarray:
        cand = np.asarray(xs, dtype=float)
        batch = np.repeat(bases, cand.shape[1], axis=0)
        flat = np.arange(batch.shape[0])
        moved = np.repeat(rows, cand.shape[1])
        batch[flat, moved] = cand.ravel()
        return subject.congestion_many(batch)[flat, moved].reshape(
            cand.shape)

    return evaluate


def class_opponent_totals(class_rates: Sequence[float],
                          counts: Sequence[int], classes: Sequence[int],
                          include_self: bool) -> np.ndarray:
    """Row ``b`` is the total rate a member of class ``classes[b]``
    deviating faces: every class at its count, its own class less the
    deviator unless ``include_self``.  Shape ``(len(classes), 1)``."""
    c, m = check_classes(class_rates, counts)
    totals = []
    for i in classes:
        w = m.astype(float)
        if not include_self:
            w[i] -= 1.0
        totals.append(float(np.dot(w, c)))
    return np.asarray(totals).reshape(-1, 1)


def expand_class_rates(class_rates: Sequence[float],
                       counts: Sequence[int]) -> np.ndarray:
    """The full N-vector for a class-symmetric profile (class-block order).

    User order is class 0's members first, then class 1's, and so on —
    the canonical expansion the class-space solvers certify against.
    """
    c, m = check_classes(class_rates, counts)
    return np.repeat(c, m)


def check_classes(class_rates: Sequence[float], counts: Sequence[int]
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Validate and normalize a ``(class_rates, counts)`` pair.

    Returns ``(rates, counts)`` as float/int arrays.  Counts must be
    positive integers; rates must be nonnegative; lengths must match.
    """
    c = np.asarray(class_rates, dtype=float)
    m = np.asarray(counts, dtype=int)
    if c.ndim != 1 or m.ndim != 1 or c.size != m.size:
        raise ValueError(
            f"class_rates and counts must be 1-D of equal length, got "
            f"shapes {c.shape} and {m.shape}")
    if m.size and int(m.min()) < 1:
        raise ValueError(f"class counts must be positive, got {m}")
    if c.size and float(c.min()) < 0.0:
        raise ValueError(f"rates must be nonnegative, got {c}")
    return c, m


class Differentiable:
    """A congestion map ``r -> C(r)``, its value views and derivatives.

    The contract: a map writes one full-profile value form,
    :meth:`congestion` or :meth:`congestion_many`; the other is derived
    from it, as are :meth:`congestion_i`, ``__call__`` and
    :meth:`congestion_grid`.  A map may write
    :meth:`grid_evaluator`'s rows (the default, :func:`point_rows`,
    scores each round in one :meth:`congestion_many` call) and two
    derivative rows per user,

    * :meth:`gradient_i` — ``dC_i/dr_j`` over ``j``;
    * :meth:`second_gradient_i` — ``d^2 C_i/dr_i dr_j`` over ``j``.

    Both default to central differences of :meth:`congestion_i`
    (:mod:`repro.numerics.diff`).  A row may hold ``inf`` where user
    ``i``'s congestion is infinite.  Every other derivative is one read
    of a row: :meth:`own_derivative` and :meth:`cross_derivative` are
    entries of the first, :meth:`jacobian` stacks the first rows, and
    :meth:`own_second_derivative` and :meth:`mixed_second_derivative`
    are entries of the second.  A map may shortcut a derived hook only
    with the row entry's exact value, bit for bit (Fair Share's
    :meth:`own_derivative` skips the O(N^2) row).
    """

    # -- values --------------------------------------------------------------

    def congestion(self, rates: Sequence[float]) -> np.ndarray:
        """Per-user congestion vector ``C(r)`` (entries may be ``inf``):
        row 0 of :meth:`congestion_many` on the one-row batch."""
        if type(self).congestion_many is Differentiable.congestion_many:
            raise TypeError(f"{type(self).__name__} must write congestion "
                            f"or congestion_many")
        return self.congestion_many(np.asarray(rates, dtype=float)[None])[0]

    def congestion_many(self, profiles: Sequence[Sequence[float]]
                        ) -> np.ndarray:
        """Congestion matrix for a batch of profiles, shape ``(B, n)``:
        row ``b`` is :meth:`congestion` of ``profiles[b]``."""
        return np.stack([self.congestion(row)
                         for row in np.asarray(profiles, dtype=float)])

    def congestion_i(self, rates: Sequence[float], i: int) -> float:
        """``C_i(r)``."""
        return float(self.congestion(rates)[i])

    def __call__(self, rates: Sequence[float]) -> np.ndarray:
        return self.congestion(rates)

    def grid_evaluator(self, rates: Sequence[float], users: Sequence[int]
                       ) -> RowEvaluator:
        """A reusable row evaluator for ``users``, the opponents fixed.

        ``evaluate(X)`` takes candidate own-rates of shape
        ``(len(users), K)``; entry ``[b, k]`` of the result is
        ``congestion_i(r with r[users[b]] := X[b, k], users[b])``, and
        a row does not depend on the other rows.  Iterative solvers
        (the batched grid zoom) evaluate many candidate grids against
        the *same* profile — for a simultaneous best-response round,
        one row per user — so a map may hoist the opponent-only
        precomputation (sort, ladder, prefix sums) out of the per-grid
        call and share one pass across the rows.  The default,
        :func:`point_rows`, scores a round in one
        :meth:`congestion_many` call.
        """
        r = np.array(rates, dtype=float)
        return point_rows(self, [r] * len(users), users)

    def congestion_grid(self, rates: Sequence[float], i: int,
                        xs: Sequence[float]) -> np.ndarray:
        """``C_i`` over candidate own-rates ``xs``, opponents fixed.

        Entry ``k`` equals ``congestion_i(r with r[i] := xs[k], i)``;
        the value of ``rates[i]`` itself is irrelevant.  The one-user
        view of :meth:`grid_evaluator`.
        """
        return one_row(self.grid_evaluator(rates, [i]))(xs)

    # -- derivatives ---------------------------------------------------------

    def gradient_i(self, rates: Sequence[float], i: int) -> np.ndarray:
        """``dC_i/dr_j`` over ``j``: row ``i`` of the Jacobian."""
        r = np.asarray(rates, dtype=float)
        return numeric_gradient(lambda x: self.congestion_i(x, i), r)

    def second_gradient_i(self, rates: Sequence[float], i: int) -> np.ndarray:
        """``d^2 C_i/dr_i dr_j`` over ``j``."""
        r = np.asarray(rates, dtype=float)
        return np.asarray(
            [second_partial(lambda x: self.congestion_i(x, i), r, i, j)
             for j in range(r.size)], dtype=float)

    def own_derivative(self, rates: Sequence[float], i: int) -> float:
        """``dC_i/dr_i``."""
        return float(self.gradient_i(rates, i)[i])

    def cross_derivative(self, rates: Sequence[float], i: int,
                         j: int) -> float:
        """``dC_i/dr_j``."""
        return float(self.gradient_i(rates, i)[j])

    def jacobian(self, rates: Sequence[float]) -> np.ndarray:
        """Matrix ``J[i, j] = dC_i/dr_j``, one :meth:`gradient_i` row
        per user."""
        r = np.asarray(rates, dtype=float)
        out = np.empty((r.size, r.size))
        for i in range(r.size):
            out[i] = self.gradient_i(r, i)
        return out

    def own_second_derivative(self, rates: Sequence[float], i: int) -> float:
        """``d^2 C_i/dr_i^2``."""
        return float(self.second_gradient_i(rates, i)[i])

    def mixed_second_derivative(self, rates: Sequence[float], i: int,
                                j: int) -> float:
        """``d^2 C_i/dr_i dr_j``."""
        return float(self.second_gradient_i(rates, i)[j])


class AllocationFunction(Differentiable):
    """Map from rate vectors to per-user congestion vectors.

    Attributes
    ----------
    curve:
        The total-queue service curve this discipline is work-conserving
        against; congestion vectors sum to ``curve(sum r)`` inside the
        stable region.
    name:
        Human-readable discipline name used in experiment tables.
    """

    name: str = "allocation"

    def __init__(self, curve: Optional[ServiceCurve] = None) -> None:
        self.curve = curve if curve is not None else MM1Curve()
        self.feasibility = FeasibilitySet(self.curve)

    def grid_evaluator(self, rates: Sequence[float], users: Sequence[int]
                       ) -> RowEvaluator:
        """The per-user rows: :meth:`class_deviation_rows` with every
        count one, user ``i`` the only member of class ``i``."""
        r = np.asarray(rates, dtype=float)
        return self.class_deviation_rows(r, np.ones(r.size, dtype=int), users)

    # -- symmetry-class evaluation -------------------------------------------

    def class_congestion(self, class_rates: Sequence[float],
                         counts: Sequence[int]) -> np.ndarray:
        """Per-class congestion of the class-symmetric profile.

        Entry ``k`` is the congestion of *each* of the ``counts[k]``
        users sending ``class_rates[k]`` (symmetry makes them equal).
        The default expands to the N-vector and reads one
        representative per class — exact but O(N); disciplines with
        closed forms override it with an O(K) pass.
        """
        c, m = check_classes(class_rates, counts)
        full = self.congestion(np.repeat(c, m))
        starts = np.concatenate(([0], np.cumsum(m)[:-1]))
        return np.asarray(full[starts], dtype=float)

    def class_deviation_evaluator(self, class_rates: Sequence[float],
                                  counts: Sequence[int], i: int,
                                  include_self: bool = False
                                  ) -> GridEvaluator:
        """Grid evaluator for one member of class ``i`` deviating.

        The one-class view of :meth:`class_deviation_rows`.
        """
        return one_row(self.class_deviation_rows(
            class_rates, counts, [i], include_self=include_self))

    def class_deviation_rows(self, class_rates: Sequence[float],
                             counts: Sequence[int], classes: Sequence[int],
                             include_self: bool = False) -> RowEvaluator:
        """Row evaluator for a member of each of ``classes`` deviating.

        ``evaluate(X)`` takes candidate own-rates of shape
        ``(len(classes), K)``; row ``b`` maps them to the congestion of
        a member of class ``classes[b]`` deviating with every other
        user pinned at their class rate.  With ``include_self=False``
        (the exact game) the deviator is removed from its class,
        leaving one opponent fewer there; with
        ``include_self=True`` the full profile stays in place and the
        deviator rides on top as an extra infinitesimal-mass user — the
        mean-field closure, whose error against the exact game is
        O(1/N).  The class-space solvers run one batched zoom round for
        all K classes through it.

        The default expands each row to a full vector, the deviator at
        the start of its class block, and scores them through
        :func:`point_rows` (exact, O(N) per candidate); disciplines
        with closed forms override it with one O(K) pass over all rows.
        """
        c, m = check_classes(class_rates, counts)
        profiles, users = [], []
        for i in classes:
            opp = m.copy()
            if not include_self:
                opp[i] -= 1
            at = int(opp[:i].sum())
            profiles.append(np.insert(np.repeat(c, opp), at, 0.0))
            users.append(at)
        return point_rows(self, profiles, users)

    def class_own_derivative(self, class_rates: Sequence[float],
                             counts: Sequence[int], i: int,
                             include_self: bool = False) -> float:
        """``dC/dx`` of a class-``i`` member's deviation at her class rate.

        The slope entering the class-space Nash first-derivative
        condition ``M_i(s_i, C_i) + dC/dx = 0``.  The default is a
        central difference on :meth:`class_deviation_evaluator` with
        the same curvature-aware step as
        :func:`repro.numerics.diff.partial_derivative`; disciplines
        with analytic own-derivatives override it in O(K).
        """
        c, _ = check_classes(class_rates, counts)
        evaluator = self.class_deviation_evaluator(
            c, counts, i, include_self=include_self)
        x = float(c[i])
        h = diff_step(x)
        lo = max(x - h, 0.0)
        pair = evaluator(np.asarray([lo, x + h]))
        return float((pair[1] - pair[0]) / (x + h - lo))

    # -- structure ---------------------------------------------------------

    def in_domain(self, rates: Sequence[float]) -> bool:
        """Whether ``rates`` lies in the natural domain ``D``."""
        return self.feasibility.rates_in_domain(rates)

    def is_feasible_at(self, rates: Sequence[float],
                       tol: float = 1e-8) -> bool:
        """Check the allocation satisfies the feasibility constraints."""
        c = self.congestion(rates)
        if not np.all(np.isfinite(c)):
            return False
        return self.feasibility.is_feasible(rates, c, tol=tol)

    def check_symmetry(self, rates: Sequence[float],
                       rng: Optional[np.random.Generator] = None,
                       tol: float = 1e-9) -> bool:
        """Spot-check permutation symmetry at ``rates``.

        Applies a random permutation ``pi`` and verifies
        ``C(pi(r)) == pi(C(r))``.
        """
        r = np.asarray(rates, dtype=float)
        generator = default_rng(rng if rng is not None else 0)
        perm = generator.permutation(r.size)
        base = self.congestion(r)
        permuted = self.congestion(r[perm])
        return bool(np.allclose(permuted, base[perm], atol=tol, rtol=0.0,
                                equal_nan=True))

    def subsystem(self, fixed: Mapping[int, float]) -> "Subsystem":
        """Freeze some users' rates, yielding an induced allocation.

        Parameters
        ----------
        fixed:
            Mapping from (original) user index to the constant rate that
            user holds.  The returned :class:`Subsystem` exposes the
            remaining users as a smaller allocation function.
        """
        return Subsystem(self, fixed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(curve={self.curve!r})"


class Subsystem(Differentiable):
    """An induced allocation function with some rates held constant.

    The paper requires the desirable properties to hold in every
    *subsystem* — the same allocation function with a subset of users
    frozen (e.g. non-optimizing users).  Induced allocations are not
    symmetric in general, so this is deliberately *not* an
    :class:`AllocationFunction` subclass.  It writes the batched
    :meth:`congestion_many` and the per-user rows, both the parent's at
    the free users' original indices, and :class:`Differentiable`
    derives the other value views and the numeric derivatives over the
    free users.
    """

    def __init__(self, parent: AllocationFunction,
                 fixed: Mapping[int, float]) -> None:
        if not fixed:
            raise ValueError("subsystem requires at least one frozen user")
        self.parent = parent
        self.fixed: Dict[int, float] = {int(k): float(v)
                                        for k, v in fixed.items()}
        self._fixed_idx = sorted(self.fixed)
        self.name = f"{parent.name}|fixed{self._fixed_idx}"

    @property
    def curve(self) -> ServiceCurve:
        """The parent discipline's service curve."""
        return self.parent.curve

    def free_indices(self, n_total: int) -> List[int]:
        """Original indices of the free (optimizing) users."""
        return [i for i in range(n_total) if i not in self.fixed]

    def embed(self, free_rates: Sequence[float]) -> np.ndarray:
        """Assemble the full rate vector from the free users' rates."""
        free = np.asarray(free_rates, dtype=float)
        n_total = free.size + len(self.fixed)
        full = np.empty(n_total)
        free_iter = iter(free)
        for i in range(n_total):
            full[i] = self.fixed.get(i, np.nan)
            if math.isnan(full[i]):
                full[i] = next(free_iter)
        return full

    def grid_evaluator(self, free_rates: Sequence[float],
                       users: Sequence[int]) -> RowEvaluator:
        """Reusable row evaluator for free ``users`` (see
        :meth:`Differentiable.grid_evaluator`): the parent's rows at the
        users' original indices, so the embedding and the parent's
        opponent precomputation both happen once and the parent's rows
        stay one pass inside subsystems."""
        full = self.embed(free_rates)
        free = self.free_indices(full.size)
        return self.parent.grid_evaluator(full, [free[i] for i in users])

    def congestion_many(self, profiles: Sequence[Sequence[float]]
                        ) -> np.ndarray:
        """Free-user congestion matrix for a batch of free profiles:
        the written form, from which :class:`Differentiable` derives
        the rest.

        Embeds the whole batch at once and delegates to the parent's
        :meth:`~Differentiable.congestion_many`, keeping the parent's
        batch one pass inside subsystems.
        """
        batch = np.asarray(profiles, dtype=float)
        n_total = batch.shape[1] + len(self.fixed)
        free = self.free_indices(n_total)
        full = np.empty((batch.shape[0], n_total))
        for idx, rate in self.fixed.items():
            full[:, idx] = rate
        full[:, free] = batch
        return self.parent.congestion_many(full)[:, free]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Subsystem({self.parent!r}, fixed={self.fixed})"
