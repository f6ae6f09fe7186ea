"""Exact data valuation for K-nearest-neighbor utility.

The utility of a coalition of training points is the fraction of the
test label's matches among the coalition's min(|S|, K) members closest
to the test point.  In distance order a member counts while the running
count of members is at most K, so a block of coalitions is scored with
one ``cumsum`` per test point.  For this utility the Shapley values
admit an exact closed form computed in one sweep from the farthest
point to the nearest, after an O(N log N) sort.

The permutation samplers score every prefix of an ordering at once
(``Game``'s prefix form) without a coalition per prefix.  Let A_j be
the arrival time, in the ordering, of the j-th nearest training point.
It counts from A_j until the K-th smallest arrival among the points
closer than it; that running K-th smallest takes K passes of a running
minimum over the distance axis.  A difference array over the arrival
and exit times of the matching points, summed over time, gives every
prefix's hit count.  Its arrival events are a gather of each ordering's
players' label matches; its exit events are written by assignment,
since within one test point and ordering no two points leave at the
same time before the end (``_prefix_hits`` has the proof).  Group
tests and the exact oracles still score coalitions as masks, the one
form every game has.

The sort orders training points by distance to the test point, ties by
ascending index.  A distance is the sum over features in feature order,
fl(...fl(D_0^2 + D_1^2)... + D_{d-1}^2), with |D| in place of D^2 for
Manhattan.  It is summed on a C-ordered (d, N) column copy of the
training points, one contiguous length-N call per feature, so it does
not depend on the points' memory layout.  The sort keys are the
distances' bits (a non-negative double orders as its bit pattern) with
the low ceil(log2 N) bits replaced by the index, so one sort of the keys
orders the distances and brings exact ties out in index order.  Only
distances that differ in the replaced bits alone can come out of order;
that, or a NaN (NaNs sort last), shows in the sorted distances, and the
sort is redone with ``argsort(kind="stable")``.  So ``order`` always
equals the stable argsort of the distances.

A ``KnnInstance`` only validates on construction; it sorts on first use
of ``order`` or ``matches`` and keeps the result.  Instances built for a
whole test set therefore hold no per-test arrays.  ``knn_game`` sorts
all its instances from one column copy of their shared training points.
``knn_shapley_testset`` streams the test set without filling those
caches: it sorts one test point at a time from one column copy and
reused buffers, compares the training labels once per distinct test
label and gathers that row by each test point's order, and adds each
test point's closed form in test-point order.  Its memory is that of one
test point, whatever the test-set size.  ``knn_shapley_exact`` is the
test set of one instance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Hashable, Sequence

import numpy as np

from .games import Game, ValueVector, _in_blocks, _membership
from .parallel import check_count

__all__ = [
    "KnnInstance",
    "knn_game",
    "knn_shapley_exact",
    "knn_shapley_testset",
]

_METRICS = ("euclidean", "manhattan")
# Rows per membership block of the mask form: the (rows, N) temporaries stay
# a few hundred KB, also when an exact oracle sends all 2^N masks in one
# batch.  Measured fastest: 16 384 masks over 40 training and 20 test points
# took 65 ms at 512 rows, 131 ms at 4096.  Hit counts are exact, so the
# split never changes a value.
_BLOCK_ROWS = 512
# Arrival times (training points x orderings x test points) per prefix block:
# its largest temporary, the int32 exit indices, stays about 0.5 MB.
_BLOCK_CELLS = 1 << 17
# Distinct test labels whose label-match rows knn_shapley_testset keeps.
_LABEL_ROWS = 64


@dataclass
class KnnInstance:
    """Training points paired with one test point.

    Construction validates the arguments and computes nothing else.  On
    first use, ``order`` sorts the training points by distance to the
    test point, ties broken by ascending original index so results are
    deterministic on degenerate data, and ``matches`` holds the label
    matches in that order.  Distances are compared exactly (no epsilon),
    which the index tie-break makes safe.
    """

    points: np.ndarray
    labels: np.ndarray
    test_point: np.ndarray
    test_label: Hashable
    k_neighbors: int
    distance: str = "euclidean"

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        self.test_point = np.asarray(self.test_point, dtype=np.float64)
        if self.points.ndim != 2 or self.labels.shape != self.points.shape[:1]:
            raise ValueError("points must be (N, d) with one label per point")
        if self.test_point.shape != self.points.shape[1:]:
            raise ValueError(
                f"test_point must have shape {self.points.shape[1:]}, got {self.test_point.shape}"
            )
        check_count("k_neighbors", self.k_neighbors)
        if not self.k_neighbors < self.n_players:
            raise ValueError("k_neighbors must satisfy 1 <= K < N")
        if self.distance not in _METRICS:
            raise ValueError(f"unknown metric {self.distance!r}")

    @cached_property
    def order(self) -> np.ndarray:
        """Training-point indices by distance to the test point, ties by index."""
        return _distance_order(self, _Sweep(self.points))

    @cached_property
    def matches(self) -> np.ndarray:
        """Label-match indicators (0.0 or 1.0) in distance order."""
        return (self.labels == self.test_label)[self.order].astype(np.float64)

    @property
    def n_players(self) -> int:
        return self.points.shape[0]


class _Sweep:
    """One training set's column copy and the buffers each test point reuses."""

    def __init__(self, points: np.ndarray) -> None:
        n = points.shape[0]
        self.columns = np.ascontiguousarray(points.T)  # (d, N): one row per feature
        self.dist = np.empty(n)
        self.term = np.empty(n)

    def distances(self, test_point: np.ndarray, metric: str) -> np.ndarray:
        """The distances to ``test_point``, summed over features in feature order.

        The sum starts from +0.0, which adds nothing to a square or an
        absolute value.
        """
        dist, term = self.dist, self.term
        dist.fill(0.0)
        for column, x in zip(self.columns, test_point.tolist()):
            np.subtract(column, x, out=term)
            if metric == "euclidean":
                np.multiply(term, term, out=term)
            else:
                np.abs(term, out=term)
            np.add(dist, term, out=dist)
        return dist


def _distance_order(instance: KnnInstance, sweep: _Sweep) -> np.ndarray:
    """The stable argsort of the distances, from ``sweep`` of the instance's training set."""
    return _stable_order(sweep.distances(instance.test_point, instance.distance))


def _stable_order(dist: np.ndarray) -> np.ndarray:
    """``np.argsort(dist, kind="stable")`` for distances that are +0.0 or more, or NaN.

    One sort of keys that hold each distance's bits with the low
    ceil(log2 N) bits replaced by its index.  When the sorted distances
    decrease somewhere (two distances differed only in those bits) or end
    in a NaN, the stable argsort is taken instead.  A -0.0 sorts after
    every +0.0 yet compares equal to it, which that check cannot see, so
    callers pass none; a sum of squares or absolute values holds none.
    """
    n = dist.shape[0]
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    keys = dist.view(np.uint64) & ~low
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort()
    keys &= low
    order = keys.view(np.int64)
    near = dist[order]
    if np.isnan(near[-1]) or np.any(near[1:] < near[:-1]):
        return np.argsort(dist, kind="stable")
    return order


def _match_fraction(instance: KnnInstance, member: np.ndarray) -> np.ndarray:
    """Match fraction over each row's closest min(|S|, K) members.

    ``member`` is a boolean (rows, N) membership block.  Hit counts are
    exact integers, so each value is hits / K, rounded once.
    """
    in_order = member[:, instance.order]
    running = np.cumsum(in_order, axis=1, dtype=np.min_scalar_type(instance.n_players))
    hit = in_order & (running <= instance.k_neighbors) & (instance.matches > 0)
    return np.count_nonzero(hit, axis=1) / instance.k_neighbors


def _running_min(x: np.ndarray) -> np.ndarray:
    """Running minimum along axis 0, in place, in log2(len) whole-array steps.

    ``np.minimum.accumulate`` steps along the axis one element at a time,
    which measured several times slower on these short axes.
    """
    step = 1
    while step < x.shape[0]:
        np.minimum(x[step:], x[:-step], out=x[step:])
        step *= 2
    return x


def _prefix_hits(
    perms: np.ndarray, arrive: np.ndarray, miss: np.ndarray, gains: np.ndarray, k: int
) -> np.ndarray:
    """(N, B, R) hit counts of every prefix of the (R, N) orderings ``perms``.

    ``arrive[j, b, r]`` is the 0-based position in ordering r of test point
    b's j-th nearest training point and ``miss`` (N, B) marks its label
    misses; ``gains[b, i]`` holds the same matches by player, 1 where
    training point i matches test point b's label, else 0.  Point j is
    among the K nearest arrived points from its arrival until the K-th
    smallest arrival among points 0..j-1.  That time is the sentinel N,
    past every prefix, while fewer than K of them have arrived.

    In each cell (one test point and one ordering) a hit count rises at a
    matching arrival, gathered from ``gains`` by player, and falls at a
    matching point's exit, written by assignment into an int8 array; the
    sum along time is taken in the smallest signed type that holds +K.
    Assignment loses no exit, because no two points of a cell exit at the
    same time below N.  An exit below N happens at the arrival of some
    point p, and each arrival is the exit of at most one point:
    - p never counts (K points closer than p have arrived): it exits as it
      arrives and pushes nobody out, since any point farther than p
      already had those K closer points;
    - p counts: it stays past its arrival and pushes out at most one
      point, the current K-th nearest.
    """
    n = arrive.shape[0]
    # after pass p, kth[j] is the p-th smallest arrival among points 0..j:
    # the smaller of the one for 0..j-1 and max(the (p-1)-th for 0..j-1, A_j)
    kth = _running_min(arrive.copy())
    closer = np.empty_like(arrive)
    closer[0] = n
    for _ in range(k - 1):
        closer[1:] = kth[:-1]
        _running_min(np.maximum(closer, arrive, out=kth))
    closer[1:] = kth[:-1]
    # a point whose K-th closer arrival precedes its own leaves as it arrives
    leave = np.maximum(closer, arrive, out=closer)
    np.copyto(leave, n, where=miss[:, :, None])
    cells = arrive[0].size
    times = (n + 1) * cells
    index = np.int32 if times < 1 << 31 else np.int64
    flat = leave.astype(index)
    flat *= cells
    flat += np.arange(cells, dtype=index).reshape(arrive.shape[1:])
    gone = np.zeros(times, dtype=np.int8)
    gone[flat.ravel()] = 1
    events = gone[: n * cells].reshape(arrive.shape)
    # gained[t, b, r]: the label match of the point at position t of ordering r
    gained = gains[:, perms.T].transpose(1, 0, 2)
    np.subtract(gained, events, out=events)
    # a signed type that holds -K - 1 also holds +K, which the count reaches
    return np.cumsum(events, axis=0, dtype=np.min_scalar_type(-k - 1))


def knn_game(instances: KnnInstance | Sequence[KnnInstance]) -> Game:
    """Wrap one instance (or the mean utility over several) as a Game.

    Masks are scored in blocks of rows.  Per test point, a member counts
    while the ``cumsum`` of distance-ordered membership is at most K.
    The game also has the prefix form: blocks of orderings are scored
    from arrival times, in blocks of test points, without a membership
    block.  Both forms add hits / K over the test points in
    test-point order and divide by the test-point count, so they agree
    bit for bit.
    """
    seq = [instances] if isinstance(instances, KnnInstance) else list(instances)
    _check_shared_training(seq)
    # a distance depends only on the points' values, so one column copy sorts all
    sweep = _Sweep(seq[0].points)
    for inst in seq:
        if "order" not in vars(inst):  # the cached_property's slot
            vars(inst)["order"] = _distance_order(inst, sweep)
    n = seq[0].n_players
    k = seq[0].k_neighbors

    def score(block: np.ndarray, out: np.ndarray) -> None:
        member = _membership(block, n)
        for inst in seq:
            out += _match_fraction(inst, member)

    def batch(masks: np.ndarray) -> np.ndarray:
        return _in_blocks(masks, _BLOCK_ROWS, score) / len(seq)

    orders = np.stack([inst.order for inst in seq], axis=1)  # (N, T)
    misses = np.stack([inst.matches == 0 for inst in seq], axis=1)
    # gains[b, i]: 1 where training point i matches test point b's label
    gains = np.empty((len(seq), n), dtype=np.int8)
    np.put_along_axis(gains, orders.T, ~misses.T, axis=1)
    positions = np.arange(n, dtype=np.min_scalar_type(n))[:, None]  # holds N too

    def prefixes(perms: np.ndarray) -> np.ndarray:
        rows = perms.shape[0]
        # arrival[i, r]: position of training point i in ordering r
        arrival = np.empty((n, rows), dtype=positions.dtype)
        np.put_along_axis(arrival, perms.T, positions, axis=0)
        out = np.zeros((n, rows), dtype=np.float64)
        step = max(1, _BLOCK_CELLS // (n * rows))
        for lo in range(0, len(seq), step):
            block = slice(lo, lo + step)
            hits = _prefix_hits(perms, arrival[orders[:, block]], misses[:, block], gains[block], k)
            frac = hits / k
            for b in range(frac.shape[1]):
                out += frac[:, b]
        return out.T / len(seq)

    return Game(n, batch, range_r=1.0, monotone=False, name="knn", prefix_utility=prefixes)


def knn_shapley_exact(instance: KnnInstance) -> ValueVector:
    """Closed-form exact Shapley values for the KNN utility.

    Walking from the farthest point inward: the farthest point is worth
    match/N, and each step toward the test point adds
    (match_i - match_{i+1}) / K * (min(K-1, i-1) + 1) / i,
    where i is the 1-based distance rank.  Equal adjacent labels
    therefore share exactly equal values.  No utility evaluations are
    consumed.  These are the values of ``knn_shapley_testset([instance])``.
    """
    return replace(knn_shapley_testset([instance]), method="knn-exact")


def _check_shared_training(instances: Sequence[KnnInstance]) -> None:
    if not instances:
        raise ValueError("need at least one instance")
    first = instances[0]
    for inst in instances[1:]:
        # the CLI's instances hold the very same arrays; compare contents otherwise
        if inst.points is not first.points and not np.array_equal(
            inst.points, first.points, equal_nan=True
        ):
            raise ValueError("instances must share the same training points")
        if inst.labels is not first.labels and not np.array_equal(inst.labels, first.labels):
            raise ValueError("instances must share the same training labels")
        if inst.k_neighbors != first.k_neighbors:
            raise ValueError("instances must share the same neighborhood size")


def knn_shapley_testset(instances: Sequence[KnnInstance]) -> ValueVector:
    """Mean of the per-test-point exact values over a shared training set.

    Averaging is exact: values add across utilities, and the test-set
    utility is the mean of the per-test-point utilities.  Test points are
    sorted one at a time, and no instance's ``order`` or ``matches`` is
    computed or kept.  Each test point's closed form runs in distance
    order over its label matches ``hit``; for a label difference d in
    {-1, 0, 1}, d * step equals (d / K) * (min(K-1, i-1) + 1) / i exactly.
    """
    _check_shared_training(instances)
    first = instances[0]
    labels, n, k = first.labels, first.n_players, first.k_neighbors
    rows: dict = {}
    sweep = _Sweep(first.points)  # the instances hold equal training points
    ranks = np.arange(1, n, dtype=np.float64)
    steps = 1.0 / k * (np.minimum(k - 1, ranks - 1) + 1.0) / ranks
    part = np.empty(n)
    total = np.zeros(n, dtype=np.float64)
    for inst in instances:
        order = _distance_order(inst, sweep)
        hit = _label_row(rows, labels, inst.test_label)[order].view(np.int8)
        # inward from the farthest point; part holds the additions of total[order] += ...
        scan = (hit[:-1] - hit[1:]) * steps
        np.cumsum(scan[::-1], out=scan[::-1])
        farthest = float(hit[-1]) / n
        part[order[:-1]] = farthest + scan
        part[order[-1]] = farthest
        total += part
    return ValueVector(total / len(instances), method="knn-testset", eval_count=0)


def _label_row(rows: dict, labels: np.ndarray, test_label: Hashable) -> np.ndarray:
    """``labels == test_label``, kept in ``rows`` for up to _LABEL_ROWS labels.

    The key holds the label's type, so labels of different types that
    compare equal (1 and 1.0) never share a row.
    """
    try:
        key = (type(test_label), test_label)
        row = rows.get(key)
    except TypeError:  # unhashable: compared anew every time
        return labels == test_label
    if row is None:
        row = labels == test_label
        if len(rows) < _LABEL_ROWS:
            rows[key] = row
    return row
