import numpy as np
import pytest
from hypothesis import given, strategies as st

from qmcrff.sequences import (
    PRIMES,
    UNIT_EPS,
    UNIT_SEQUENCES,
    UnitPointSet,
    digit_reversal_permutation,
    halton,
    lattice,
    make_pointset,
    mc_uniform,
    radical_inverse,
)

from oracles import star_discrepancy_bruteforce


def _radical_inverse_reference(i, base, permutation=None):
    # One index at a time in pure Python: the digit arithmetic, in the
    # order, that the array path must reproduce bit for bit.
    x = 0.0
    scale = 1.0 / base
    while i > 0:
        digit = i % base
        if permutation is not None:
            digit = permutation[digit]
        x += digit * scale
        i //= base
        scale /= base
    return x


class TestRadicalInverse:
    def test_zero_has_empty_expansion(self):
        assert radical_inverse(0, 2) == 0.0

    @pytest.mark.parametrize("i,base,expect", [
        (1, 2, 0.5), (2, 2, 0.25), (3, 2, 0.75),
        (1, 3, 1.0 / 3.0), (2, 3, 2.0 / 3.0),
    ])
    def test_hand_values(self, i, base, expect):
        assert radical_inverse(i, base) == pytest.approx(expect, rel=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            radical_inverse(-1, 2)
        with pytest.raises(ValueError):
            radical_inverse(3, 1)

    @pytest.mark.parametrize("base", [2, 3, 7, 229])
    def test_array_matches_scalar(self, base):
        i = np.concatenate([np.arange(300), [base ** 4 - 1, base ** 4, 10 ** 6]])
        for perm in (None, digit_reversal_permutation(base)):
            got = radical_inverse(i, base, perm)
            assert got.shape == i.shape
            assert np.array_equal(got, [radical_inverse(int(k), base, perm) for k in i])

    @given(st.integers(min_value=0, max_value=10 ** 6),
           st.integers(min_value=2, max_value=50))
    def test_range(self, i, base):
        v = radical_inverse(i, base)
        assert 0.0 <= v < 1.0


class TestDigitReversalPermutation:
    def test_base_two_is_identity(self):
        assert digit_reversal_permutation(2) == (0, 1)

    def test_base_three(self):
        assert digit_reversal_permutation(3) == (0, 2, 1)

    def test_zero_is_fixed(self):
        for base in PRIMES[:30]:
            assert digit_reversal_permutation(base)[0] == 0

    @given(st.integers(min_value=2, max_value=200))
    def test_is_a_permutation(self, base):
        assert sorted(digit_reversal_permutation(base)) == list(range(base))


class TestHalton:
    def test_first_point(self):
        pts = halton(1, 2)
        assert pts.points[0] == pytest.approx([0.5, 1.0 / 3.0], rel=1e-15)

    def test_first_three_points_1d(self):
        pts = halton(3, 1)
        assert pts.points[:, 0] == pytest.approx([0.5, 0.25, 0.75], rel=1e-15)

    def test_scramble_is_identity_in_base_two(self):
        plain = halton(64, 1)
        scrambled = halton(64, 1, scramble=True)
        assert np.array_equal(plain.points, scrambled.points)

    def test_scramble_changes_base_three_column(self):
        plain = halton(16, 2)
        scrambled = halton(16, 2, scramble=True)
        assert not np.array_equal(plain.points[:, 1], scrambled.points[:, 1])

    def test_prefix_property(self):
        full = halton(10, 3)
        tail = halton(5, 3, start_index=6)
        assert np.array_equal(full.points[5:], tail.points)

    def test_prefix_property_scrambled(self):
        full = halton(10, 3, scramble=True)
        tail = halton(6, 3, scramble=True, start_index=5)
        assert np.array_equal(full.points[4:], tail.points)

    @pytest.mark.parametrize("s,d", [(4096, 8), (1000, 50)])
    @pytest.mark.parametrize("start", [1, 17])
    @pytest.mark.parametrize("scramble", [False, True])
    def test_bitwise_equal_to_per_index_reference(self, s, d, start, scramble):
        got = halton(s, d, scramble=scramble, start_index=start).points
        expect = np.empty((s, d))
        for j in range(d):
            perm = digit_reversal_permutation(PRIMES[j]) if scramble else None
            expect[:, j] = [_radical_inverse_reference(start + i, PRIMES[j], perm)
                            for i in range(s)]
        assert np.array_equal(got, np.clip(expect, UNIT_EPS, 1.0 - UNIT_EPS))

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            halton(1, 1001)
        pts = halton(2, 1000)
        assert pts.points.shape == (2, 1000)

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            halton(4, 1, start_index=0)

    def test_provenance(self):
        pts = halton(4, 2, scramble=True, start_index=3)
        assert pts.generator == "halton-scrambled"
        assert pts.seed_or_start == 3


@pytest.mark.parametrize("name", list(UNIT_SEQUENCES))
def test_provenance_is_the_registry_name(name):
    assert make_pointset(name, 8, 2).generator == name


class TestLattice:
    def test_1d_quarters(self):
        pts = lattice(4, 1, [1])
        assert pts.points[:, 0] == pytest.approx([UNIT_EPS, 0.25, 0.5, 0.75])

    def test_2d_fibonacci_style(self):
        pts = lattice(5, 2, [1, 2])
        expect = np.array([[0, 0], [1, 2], [2, 4], [3, 1], [4, 3]]) / 5.0
        expect[expect == 0.0] = UNIT_EPS
        assert np.allclose(pts.points, expect, atol=1e-16)

    @pytest.mark.parametrize("s, z", [(3, [0, 0]), (4, [2, 0]), (4, [1, 6]), (6, [1, -3])])
    def test_rejects_a_vector_not_coprime_to_s(self, s, z):
        # A shared factor repeats coordinates; a zero entry pins a face.
        with pytest.raises(ValueError, match=rf"\[{z[0]}, {z[1]}\].*s={s}"):
            lattice(s, 2, z)

    def test_one_point_takes_any_vector(self):
        assert np.all(lattice(1, 2, [0, 4]).points == UNIT_EPS)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            lattice(0, 1, [1])

    def test_vector_taken_mod_s(self):
        assert np.array_equal(lattice(5, 1, [7]).points, lattice(5, 1, [2]).points)


class TestMcUniform:
    def test_deterministic(self):
        a = mc_uniform(100, 3, seed=7)
        b = mc_uniform(100, 3, seed=7)
        assert np.array_equal(a.points, b.points)

    def test_seed_changes_points(self):
        assert not np.array_equal(mc_uniform(10, 2, 0).points, mc_uniform(10, 2, 1).points)

    def test_moments(self):
        pts = mc_uniform(100_000, 1, seed=123).points[:, 0]
        assert abs(pts.mean() - 0.5) < 0.005
        assert abs(pts.var() - 1.0 / 12.0) < 0.002


class TestClamping:
    def test_all_generators_stay_in_closed_eps_interval(self):
        sets = [halton(64, 3), halton(64, 3, scramble=True),
                lattice(64, 3, [1, 19, 23]), mc_uniform(64, 3, 5)]
        for ps in sets:
            assert np.all(ps.points >= UNIT_EPS)
            assert np.all(ps.points <= 1.0 - UNIT_EPS)


class TestUnitPointSetSerialization:
    def test_csv_round_trip(self, tmp_path):
        from qmcrff.ioutil import read_matrix_csv, write_matrix_csv

        pts = halton(7, 3)
        path = tmp_path / "pts.csv"
        with open(path, "w") as fh:
            write_matrix_csv(fh, pts.points)
        back = read_matrix_csv(path)
        assert np.array_equal(back, pts.points)

    def test_rejects_out_of_cube(self):
        with pytest.raises(ValueError):
            UnitPointSet(points=np.array([[0.0, 0.5]]), generator="mc")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # Every comparison with nan is false, so the (0, 1) test alone lets it in.
        with pytest.raises(ValueError, match="finite"):
            UnitPointSet(points=np.array([[0.25, 0.5], [bad, 0.5]]), generator="mc")


def _star_discrepancy_grid_oracle(points):
    """O(G^2 s) enumeration over the critical grid, both counting limits."""
    pts = np.atleast_2d(points)
    s, d = pts.shape
    assert d == 2
    xs = np.concatenate([np.unique(pts[:, 0]), [1.0]])
    ys = np.concatenate([np.unique(pts[:, 1]), [1.0]])
    best = 0.0
    for x in xs:
        for y in ys:
            for cx in ("<", "<="):
                for cy in ("<", "<="):
                    inx = pts[:, 0] < x if cx == "<" else pts[:, 0] <= x
                    iny = pts[:, 1] < y if cy == "<" else pts[:, 1] <= y
                    best = max(best, abs(x * y - np.sum(inx & iny) / s))
    return best


class TestStarDiscrepancy:
    def _pointset(self, arr):
        return UnitPointSet(points=np.atleast_2d(arr), generator="mc")

    def test_single_midpoint(self):
        assert star_discrepancy_bruteforce(self._pointset([[0.5]])) == pytest.approx(0.5)

    def test_centered_grid(self):
        s = 10
        pts = (2 * np.arange(1, s + 1) - 1.0) / (2 * s)
        got = star_discrepancy_bruteforce(self._pointset(pts[:, None]))
        assert got == pytest.approx(1.0 / (2 * s), rel=1e-12)

    def test_single_point_2d(self):
        # Closed corner at the point: |0.5*0.5 - 1/1| = 0.75 dominates.
        got = star_discrepancy_bruteforce(self._pointset([[0.5, 0.5]]))
        assert got == pytest.approx(0.75)

    def test_matches_grid_oracle_2d(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            pts = self._pointset(rng.uniform(0.01, 0.99, size=(20, 2)))
            assert star_discrepancy_bruteforce(pts) == pytest.approx(
                _star_discrepancy_grid_oracle(pts.points), rel=1e-12)

    def test_halton_beats_mc_most_seeds(self):
        d_halton = star_discrepancy_bruteforce(halton(64, 1))
        wins = sum(
            d_halton < star_discrepancy_bruteforce(mc_uniform(64, 1, seed))
            for seed in range(10)
        )
        assert wins >= 8

    def test_halton_decay(self):
        d64 = star_discrepancy_bruteforce(halton(64, 1))
        d512 = star_discrepancy_bruteforce(halton(512, 1))
        assert d512 < d64 / 4.0

    def test_rejects_high_dimension(self):
        with pytest.raises(ValueError):
            star_discrepancy_bruteforce(halton(4, 3))
