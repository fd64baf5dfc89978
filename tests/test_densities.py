import numpy as np
import pytest

from qmcrff.densities import (
    FrequencySet,
    ProductDensity,
    characteristic_profile,
    transform,
)
from qmcrff.sequences import UnitPointSet, halton, mc_uniform

from oracles import exact_kernel


class TestProductDensity:
    def test_gaussian_constructor_broadcasts(self):
        p = ProductDensity.gaussian(2.0, d=3)
        assert p.scale.tolist() == [2.0, 2.0, 2.0]

    def test_rejects_sigma_length_neither_one_nor_d(self):
        with pytest.raises(ValueError, match="sigma needs 1 or 3 values, got 2"):
            ProductDensity.for_kernel("gaussian", [1.0, 2.0], 3)

    def test_kernel_names(self):
        assert ProductDensity.for_kernel("gaussian", 1.0, 2).kind == "gaussian"
        assert ProductDensity.for_kernel("laplacian", 1.0, 2).kind == "cauchy"

    def test_rejects_matern(self):
        with pytest.raises(ValueError, match="product"):
            ProductDensity(kind="matern", scale=[1.0])
        with pytest.raises(ValueError, match="gaussian, laplacian"):
            ProductDensity.for_kernel("matern", 1.0, 2)

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_scales(self, scale):
        with pytest.raises(ValueError):
            ProductDensity.gaussian([1.0, scale])


class TestTransform:
    def test_median_maps_to_zero(self):
        pts = UnitPointSet(points=np.full((1, 3), 0.5), generator="mc")
        for kind in ("gaussian", "cauchy"):
            p = ProductDensity(kind=kind, scale=[1.0, 2.0, 0.5])
            w = transform(pts, p).points
            assert np.allclose(w, 0.0, atol=1e-15)

    def test_gaussian_unit_variance(self):
        # sigma = 1 means the frequency density is standard normal.
        pts = mc_uniform(100_000, 2, seed=4)
        p = ProductDensity.gaussian(1.0, d=2)
        w = transform(pts, p).points
        assert np.allclose(w.var(axis=0), 1.0, atol=0.02)

    def test_gaussian_scale_inverts_bandwidth(self):
        pts = mc_uniform(50_000, 1, seed=5)
        p = ProductDensity.gaussian(4.0, d=1)
        w = transform(pts, p).points
        assert abs(w.std() - 0.25) < 0.01

    def test_cauchy_quartile(self):
        pts = UnitPointSet(points=np.array([[0.75]]), generator="mc")
        p = ProductDensity.cauchy(1.0, d=1)
        assert transform(pts, p).points[0, 0] == pytest.approx(1.0, rel=1e-14)

    def test_monotone_per_coordinate(self):
        t = np.sort(np.random.default_rng(0).uniform(0.01, 0.99, 50))
        pts = UnitPointSet(points=t[:, None], generator="mc")
        for kind in ("gaussian", "cauchy"):
            w = transform(pts, ProductDensity(kind=kind, scale=[1.3])).points[:, 0]
            assert np.all(np.diff(w) > 0)

    def test_dimension_mismatch(self):
        pts = halton(4, 2)
        with pytest.raises(ValueError):
            transform(pts, ProductDensity.gaussian(1.0, d=3))

    def test_provenance_records_source(self):
        freqs = transform(halton(4, 2), ProductDensity.gaussian(1.0, d=2))
        assert freqs.provenance["generator"] == "halton"
        assert freqs.provenance["density"]["kind"] == "gaussian"


class TestCharacteristic:
    def test_unit_at_zero(self):
        for kind in ("gaussian", "cauchy"):
            p = ProductDensity(kind=kind, scale=[1.0, 3.0])
            assert characteristic_profile(p, 1, 0.0) == 1.0

    def test_gaussian_value(self):
        p = ProductDensity.gaussian(1.0, d=1)
        assert characteristic_profile(p, 0, 1.0) == pytest.approx(np.exp(-0.5), rel=1e-15)

    def test_cauchy_value(self):
        p = ProductDensity.cauchy(2.0, d=1)
        assert characteristic_profile(p, 0, -4.0) == pytest.approx(np.exp(-2.0), rel=1e-15)


class TestExactKernel:
    def test_normalized_on_diagonal(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=3)
        for kind in ("gaussian", "cauchy"):
            p = ProductDensity(kind=kind, scale=[1.0, 2.0, 0.7])
            assert exact_kernel(p, x, x) == 1.0

    def test_gaussian_unit_shift(self):
        p = ProductDensity.gaussian(1.0, d=1)
        assert exact_kernel(p, [1.0], [0.0]) == pytest.approx(np.exp(-0.5), rel=1e-15)

    def test_bochner_identity(self):
        rng = np.random.default_rng(2)
        for kind in ("gaussian", "cauchy"):
            p = ProductDensity(kind=kind, scale=[0.8, 1.7])
            for _ in range(20):
                x, z = rng.normal(size=2), rng.normal(size=2)
                prod = np.prod([characteristic_profile(p, j, x[j] - z[j]) for j in range(2)])
                assert exact_kernel(p, x, z) == pytest.approx(prod, rel=1e-14)

    @pytest.mark.parametrize("kind", ["gaussian", "cauchy"])
    def test_monte_carlo_integration_oracle(self, kind):
        # The kernel equals the mean of e^{-i (x-z).w} under the density;
        # check against a large seeded sample within 3 standard errors.
        p = ProductDensity(kind=kind, scale=[1.0, 2.0])
        rng = np.random.default_rng(6)
        n = 1_000_000
        if kind == "gaussian":
            w = rng.normal(0.0, [1.0, 0.5], size=(n, 2))
        else:
            w = rng.standard_cauchy((n, 2)) * [1.0, 0.5]
        x = np.array([0.4, -0.3])
        z = np.array([-0.2, 0.5])
        samples = np.cos(w @ (x - z))  # imaginary part integrates to zero
        mc = samples.mean()
        se = samples.std(ddof=1) / np.sqrt(n)
        assert abs(exact_kernel(p, x, z) - mc) <= 3 * se


class TestFrequencySet:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            FrequencySet(points=np.array([[np.inf]]))

    def test_empty_set_allowed(self):
        fs = FrequencySet(points=np.empty((0, 2)))
        assert fs.s == 0 and fs.d == 2

    def test_csv_round_trip(self, tmp_path):
        from qmcrff.ioutil import read_matrix_csv, write_matrix_csv

        freqs = transform(halton(6, 2), ProductDensity.gaussian(1.0, d=2))
        path = tmp_path / "freqs.csv"
        with open(path, "w") as fh:
            write_matrix_csv(fh, freqs.points)
        assert np.array_equal(read_matrix_csv(path), freqs.points)
