"""Radial monotonicity definitions, their equivalence, cones, left-of."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capunfold.forest import build_forest, choose_origin
from capunfold import monotone as monotone_mod
from capunfold.generate import generate_budget_cap
from capunfold.monotone import left_of
import monotone_reference as reference
from fixtures import certificate_pairs, chain_radially_monotone, leaf_paths
from monotone_reference import circle_crossing_oracle
from lemmas import angle_monotone_implies_rm, cone_of, distances_nondecreasing

DEG = math.pi / 180


def random_chain(rng, k, step_spread):
    """Chain with edge directions drifting inside a bounded spread."""
    base = rng.uniform(0, 2 * math.pi)
    angs = base + rng.uniform(-step_spread / 2, step_spread / 2, size=k)
    steps = np.column_stack([np.cos(angs), np.sin(angs)]) * rng.uniform(
        0.2, 1.0, size=(k, 1)
    )
    return np.vstack([[0, 0], np.cumsum(steps, axis=0)])


class TestIsRadiallyMonotone:
    def test_straight_chain(self):
        pts = [[0, 0], [1, 0], [2, 0], [3.5, 0]]
        assert chain_radially_monotone(pts) == (True, None)

    def test_staircase(self):
        pts = [[0, 0], [1, 0], [1, 1], [2, 1], [2, 2]]
        assert chain_radially_monotone(pts) == (True, None)

    def test_double_back(self):
        pts = [[0, 0], [2, 0], [2, 1], [0.2, 1]]
        ok, witness = chain_radially_monotone(pts)
        assert not ok
        j, i = witness
        assert j < i

    def test_nonsimple_rejected(self):
        # the angle test implies simplicity, so it needs no simplicity test
        pts = [[0, 0], [2, 0], [1, 1], [1, -1]]
        assert not reference.is_simple(pts)
        assert chain_radially_monotone(pts) == (False, (0, 1))

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            chain_radially_monotone([[0, 0], [0, 0], [1, 0]])


class TestCircleOracle:
    def test_straight_chain_any_source(self):
        pts = np.array([[1.0, 0], [2, 0], [3, 0]])
        assert circle_crossing_oracle(pts, source=[0, 0])

    def test_double_back_detected(self):
        pts = np.array([[0.0, 0], [2, 0], [2, 1], [0.2, 1]])
        assert not circle_crossing_oracle(pts, source=[0, 0])

    def test_definition_equivalence_random(self):
        # Definition (angle form) agrees with the circle-count oracle on a
        # large randomized family covering both verdicts.
        rng = np.random.default_rng(42)
        agree = 0
        total = 0
        while total < 2000:
            k = int(rng.integers(2, 8))
            spread = rng.uniform(0.2, 2.4)
            pts = random_chain(rng, k, spread)
            if not reference.is_simple(pts):
                continue
            total += 1
            verdict3, _ = chain_radially_monotone(pts)
            oracle = all(
                circle_crossing_oracle(pts[j:], source=pts[j])
                for j in range(len(pts) - 1)
            )
            assert verdict3 == oracle, (pts, verdict3, oracle)
            agree += 1
        assert agree == total


class TestOnePreconditionKernelPerFamily:
    """The lemmas that leave each left_of family one precondition kernel:
    a chain the angle test passes is simple, and the source test is the
    circle-crossing oracle about the chain's first point."""

    @staticmethod
    def chains():
        rng = np.random.default_rng(23)
        wide = [random_chain(rng, int(rng.integers(3, 13)), rng.uniform(0, 6.2))
                for _ in range(3000)]
        simple = [reference.is_simple(c) for c in wide]
        assert 300 < sum(simple) < len(wide) - 300
        return wide + [c for family, _ in FAMILIES
                       for pair in certificate_pairs()[family] for c in pair]

    def test_angle_test_implies_simple(self):
        chains = self.chains()
        ok, _ = monotone_mod._chain_checks(*monotone_mod._concat(chains),
                                           "angle")
        assert ok.any() and not ok.all()
        assert all(reference.is_simple(chains[k]) for k in np.flatnonzero(ok))

    def test_source_test_is_the_circle_oracle(self):
        chains = self.chains()
        ok, _ = monotone_mod._chain_checks(*monotone_mod._concat(chains),
                                           "source")
        assert ok.any() and not ok.all()
        assert ok.tolist() == [circle_crossing_oracle(c, c[0]) for c in chains]


class TestDistancesDefinition:
    def test_monotone_implies_sampled_distances_nondecreasing(self):
        # one-sided: sampling at vertices and midpoints can miss a tiny
        # interior dip, so only the forward implication is claimed
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(300):
            pts = random_chain(rng, int(rng.integers(2, 7)), rng.uniform(0.2, 2.2))
            if not reference.is_simple(pts):
                continue
            ok, _ = chain_radially_monotone(pts)
            if not ok:
                continue
            checked += 1
            assert all(
                distances_nondecreasing(pts[j:], pts[j])
                for j in range(len(pts) - 1)
            )
        assert checked > 50


class TestImplication:
    def test_staircase_87(self):
        # long staircase with direction spread 87deg
        rng = np.random.default_rng(0)
        steps = []
        for i in range(12):
            ang = 0.0 if i % 2 == 0 else 87 * DEG
            steps.append([math.cos(ang), math.sin(ang)])
        pts = np.vstack([[0, 0], np.cumsum(steps, axis=0)])
        assert angle_monotone_implies_rm(pts, theta=87 * DEG)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_theta_monotone_chains(self, seed):
        rng = np.random.default_rng(seed)
        theta = rng.uniform(5 * DEG, 90 * DEG)
        pts = random_chain(rng, int(rng.integers(2, 9)), theta)
        assert angle_monotone_implies_rm(pts, theta=theta)

    def test_forest_paths(self):
        cap = generate_budget_cap(120, seed=6)
        qs = choose_origin(cap)
        forest = build_forest(cap, qs)
        P = cap.vertices[:, :2]
        for path in leaf_paths(forest):
            assert angle_monotone_implies_rm(P[path], theta=qs.theta)

    def test_large_theta_rejected(self):
        with pytest.raises(ValueError):
            angle_monotone_implies_rm([[0, 0], [1, 0]], theta=120 * DEG)


class TestConeOf:
    def test_single_edge(self):
        c = cone_of([[0, 0], [1, 1]])
        assert c.measure == 0.0
        assert c.sigma_min == pytest.approx(math.pi / 4)

    def test_staircase(self):
        pts = [[0, 0], [1, 0], [1, 1], [2, 1], [2, 2]]
        assert cone_of(pts).measure == pytest.approx(math.pi / 2)

    def test_forest_paths_within_theta(self):
        cap = generate_budget_cap(90, seed=8)
        qs = choose_origin(cap)
        forest = build_forest(cap, qs)
        P = cap.vertices[:, :2]
        for path in leaf_paths(forest):
            assert cone_of(P[path]).measure <= qs.theta + 1e-9 < math.pi / 2


class TestLeftOf:
    def test_reflexive(self):
        pts = [[0, 0], [1, 0], [1, 1], [2, 1]]
        assert left_of([(pts, pts)]) == [(True, None)]

    def test_rotated_ray(self):
        ray = np.array([[0, 0], [2, 0]])
        rot = 10 * DEG
        R = np.array([[math.cos(rot), -math.sin(rot)],
                      [math.sin(rot), math.cos(rot)]])
        assert left_of([(ray @ R.T, ray)]) == [(True, None)]
        [(ok, r)] = left_of([(ray, ray @ R.T)])
        # arc from A-chain to B-chain is now clockwise: still < pi ccw? no:
        # ccw arc from (rotated) to (base) is 350deg -> violation
        assert not ok and r is not None

    def test_requires_common_source(self):
        assert left_of([([[0, 0], [1, 0]], [[0.5, 0], [1, 0.5]])]) == [None]

    def test_requires_monotone(self):
        bad = [[0, 0], [2, 0], [2, 1], [0.2, 1]]
        assert left_of([(bad, [[0, 0], [1, 0]])]) == [None]

    def test_common_source_is_numpy_allclose(self):
        # two chains share their source as np.allclose has it: atol 1e-8
        # and rtol 1e-5 of the second chain's, per coordinate
        rng = np.random.default_rng(2)
        q = rng.uniform(-3, 3, (4000, 2)) * 10.0 ** rng.integers(-9, 4, (4000, 1))
        tol = 1e-8 + 1e-5 * np.abs(q)
        p = q + tol * rng.choice([0.0, 0.5, 0.999999, 1.0, 1.000001, 3.0], (4000, 2)) \
            * rng.choice([-1.0, 1.0], (4000, 2))
        got = left_of([([a, a + [1.0, 0.0]], [b, b + [1.0, 0.0]])
                       for a, b in zip(p, q)])
        want = [np.allclose(a, b) for a, b in zip(p, q)]
        assert [v is not None for v in got] == want
        assert {True, False} <= set(want)


def outcome(fn, *args, **kwargs):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:   # noqa: BLE001 - compared, not handled
        return type(exc).__name__, str(exc)


def batch_expected(ref):
    """What ``left_of(pairs)`` must give, given the per-pair reference
    outcomes: the verdicts, with None wherever the pair alone raises."""
    return [None if isinstance(o[0], str) else o for o in ref]


def spiral_out(k, turn=0.02):
    """A radially monotone chain of k points, slowly turning left."""
    ang = turn * np.arange(k - 1)
    steps = np.column_stack([np.cos(ang), np.sin(ang)])
    return np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])


FAMILIES = (("chains", "angle"), ("banks", "source"), ("waterfall", "angle"))


class TestBatchedKernel:
    """The batched kernel against the per-pair code it replaced."""

    @pytest.mark.parametrize("family,check", FAMILIES)
    def test_pairs_match_reference(self, family, check):
        # every pair the certificates check on the 140 oracle caps, the
        # 4921-vertex cap at four quarter turns and the turned cap, with
        # the fixed pairs that break a precondition; and a quarter of them
        # swapped, which violates the order
        pairs = certificate_pairs()[family]
        pairs = pairs + [(b, a) for a, b in pairs[::4]]
        assert len(pairs) > 4000
        ref = [outcome(reference.left_of, a, b, check=check) for a, b in pairs]
        assert {True, False} <= {o[0] for o in ref}
        assert ("NotRadiallyMonotoneError" in {o[0] for o in ref}
                or ("ValueError", "chain is not simple") in ref)
        assert outcome(left_of, pairs, check=check) == batch_expected(ref)

    def test_chains_match_reference(self):
        chains = [c for family, _ in FAMILIES
                  for pair in certificate_pairs()[family] for c in pair]
        flat, offsets, lens = monotone_mod._concat(chains)
        ok, witness = monotone_mod._chain_checks(flat, offsets, lens, "angle")
        for k in range(0, len(chains), 5):
            c = chains[k]
            if reference.is_simple(c):
                want = reference.is_radially_monotone(c)
                assert (bool(ok[k]), None if ok[k] else tuple(witness[k])) \
                    == want
            else:
                assert not ok[k]
        # the one-chain calls are the same kernel
        for c in chains[::50]:
            assert chain_radially_monotone(c) == \
                reference.is_radially_monotone(c)

    def test_short_chains_batched_with_chains_longer_than_a_block(self):
        long_k = int(math.isqrt(monotone_mod._BLOCK_CELLS)) + 40
        rng = np.random.default_rng(5)
        pairs = [(spiral_out(2), spiral_out(3, turn=-0.3)),
                 (spiral_out(long_k), spiral_out(long_k, turn=0.021)),
                 (spiral_out(3, turn=0.4), spiral_out(2)),
                 (spiral_out(long_k, turn=0.019), spiral_out(3))]
        pairs += [(random_chain(rng, int(rng.integers(1, 4)), 1.0),
                   random_chain(rng, int(rng.integers(1, 4)), 1.0))
                  for _ in range(40)]
        for check in ("angle", "source"):
            ref = [outcome(reference.left_of, a, b, check=check)
                   for a, b in pairs]
            assert outcome(left_of, pairs, check=check) == batch_expected(ref)
            assert {True, False} <= {o[0] for o in ref}
        # a batch of two-point chains only
        twos = [([[0, 0], [1, 0]], [[0, 0], [0.5, 0.8]]),
                ([[0, 0], [0.5, 0.8]], [[0, 0], [1, 0]])]
        assert left_of(twos) == [reference.left_of(a, b) for a, b in twos]
        assert chain_radially_monotone(twos[0][0]) == (True, None)

    def test_closed_chain(self):
        # a closed chain comes back to its source, so the angle test fails
        # it, simple or not
        square = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
        bow = [[0, 0], [1, 0], [0, 1], [1, 1], [0, 0]]
        assert reference.is_simple(square) and not reference.is_simple(bow)
        assert chain_radially_monotone(square) == \
            reference.is_radially_monotone(square)
        assert not chain_radially_monotone(square)[0]
        assert not chain_radially_monotone(bow)[0]

    def test_violated_pair(self):
        # a chain strictly right of the other violates the order at a
        # radius proportional to their size, at every size: the cuts of
        # the radius sweep scale with the chains
        ray = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.1]])
        below = ray * [1.0, -1.0]
        [(ok, radius)] = left_of([(below, ray)])
        assert not ok and radius == pytest.approx(1.5012, abs=1e-4)
        for s in 10.0 ** np.arange(-12, 10):
            for a, b in ((ray * s, below * s), (below * s, ray * s)):
                assert left_of([(a, b)]) == [reference.left_of(a, b)], s
            assert left_of([(below * s, ray * s)]) == \
                [(False, pytest.approx(radius * s, rel=1e-12))], s

    def test_batch_gives_none_wherever_a_pair_raises(self):
        # malformed, no common source, not simple, not radially monotone:
        # the batch never raises, whichever failure comes first
        good = (spiral_out(4), spiral_out(4, turn=0.01))
        back = [[0, 0], [2, 0], [2, 1], [0.2, 1]]        # not radially monotone
        crossed = [[0, 0], [2, 0], [1, 1], [1, -1]]      # not simple
        cases = [
            [good, (back, spiral_out(3)), (crossed, spiral_out(3))],
            [good, (crossed, back), (back, crossed)],
            [good, (spiral_out(3), [[0, 0], [0, 0], [1, 0]]),
             (crossed, spiral_out(3))],
            [good, ([[5, 5], [6, 5]], spiral_out(3)), (crossed, spiral_out(3))],
            [good, ([0, 1, 2], spiral_out(3)), (crossed, spiral_out(3))],
            [good, ([[0, 0], [1, math.nan]], spiral_out(3)),
             (back, crossed)],
            [good, (back, spiral_out(3))],
        ]
        for pairs in cases:
            ref = [outcome(reference.left_of, a, b) for a, b in pairs]
            assert outcome(left_of, pairs) == batch_expected(ref), pairs
            assert left_of(pairs)[1:] == [None] * (len(pairs) - 1)
        assert left_of(cases[-1]) == [(True, None), None]
        assert left_of([cases[-1][1]]) == [None]
        assert left_of([]) == []


def probe_radii(d, reach):
    """Radii about one chain's vertex distances ``d``: 0, each distance, 5e-13
    and 1e-12 off it either way, the floats around ``d - 1e-12``, midpoints
    and past the chain's reach."""
    below = d - 1e-12
    radii = np.concatenate([
        [0.0, 1.5 * reach, reach + 1e-12], d, d + 1e-12, below, d + 5e-13,
        d - 5e-13, np.nextafter(below, math.inf),
        np.nextafter(below, -math.inf),
        0.5 * (d[:-1] + d[1:])])
    return radii[radii >= 0]


def arc_at_rounded_distance(r):
    """A chain whose second and third vertices both lie at ``r - 1e-12``
    rounded, where that rounding lands within 1e-12 of ``r``: the first hit
    at radius ``r`` is the segment between them, not the one after it."""
    f = r - 1e-12
    assert abs(f - r) < 1e-12
    pts = np.array([[0.0, 0.0], [f, 0.0], [0.0, f], [0.0, 2 * r]])
    d = np.linalg.norm(pts, axis=1)
    assert d[1] == d[2] == f
    return pts


class TestFirstHits:
    """The batched first-hit search of the radius sweep against the
    per-chain reference, element by element."""

    @staticmethod
    def hits_match(chains):
        # the chains padded into one block, as _sweep gets them
        flat, offsets, lens = monotone_mod._concat(chains)
        P = monotone_mod._padded(flat, offsets, lens, np.arange(len(chains)),
                                 int(lens.max()))
        src = P[:, 0]
        D = np.linalg.norm(P - src[:, None], axis=2)
        radii = [probe_radii(D[c, :n], D[c, :n].max())
                 for c, n in enumerate(lens.tolist())]
        width = max(map(len, radii))
        R = np.array([np.pad(r, (0, width - len(r)), mode="edge")
                      for r in radii])
        got = monotone_mod._first_hits(P, D, lens, src, R)
        for c, n in enumerate(lens.tolist()):
            want = reference._first_hits(P[c, :n], D[c, :n], src[c], R[c])
            assert np.array_equal(got[c], want, equal_nan=True), c
        return got

    def test_bank_chains_padded_into_one_block(self):
        banks = [c for pair in certificate_pairs()["banks"][::15]
                 for c in pair]
        assert len({len(c) for c in banks}) > 5
        got = self.hits_match(banks)
        assert np.isnan(got).any() and not np.isnan(got).all()

    def test_dips_and_edge_case_chains(self):
        # double points read out of a net: the distance dips by up to 1e-10
        # and the circle-crossing oracle still accepts the chain, so the
        # searches run on the running maximum of the distances
        dips = [np.array(c, dtype=float) for c in (
            [[0, 0], [1, 0], [2, 0], [2 - 1e-11, 1e-7], [3, 0.1]],
            [[0, 0], [1, 0.2], [1 - 1e-10, 0.2 + 1e-12], [2, 0.5]])]
        for c in dips:
            assert np.diff(np.linalg.norm(c, axis=1)).min() < 0
            assert circle_crossing_oracle(c, c[0])
        back = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.5], [3.0, 1.0]])
        chains = dips + [
            spiral_out(2), spiral_out(7), spiral_out(4, turn=-0.4), back,
            arc_at_rounded_distance(0.9479267547218811),
            arc_at_rounded_distance(0.4004254758584649)]
        self.hits_match(chains)
