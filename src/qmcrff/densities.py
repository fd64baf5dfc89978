"""Product densities paired with shift-invariant kernels, their
characteristic functions, and the cube-to-R^d inverse-CDF transform.

Scale convention: ``scale`` always stores the kernel bandwidth sigma.  For
the Gaussian kernel the matching frequency density per dimension is
N(0, sigma_j**-2) (sigma is the bandwidth, NOT the density's standard
deviation).  For the Laplacian kernel exp(-sum |delta_j|/sigma_j) the
frequency density per dimension is Cauchy with scale 1/sigma_j.
"""

from dataclasses import dataclass, field

import numpy as np

from .ioutil import DataError

GAUSSIAN = "gaussian"
CAUCHY = "cauchy"
KERNELS = {"gaussian": GAUSSIAN, "laplacian": CAUCHY}
_KINDS = tuple(KERNELS.values())


def per_dimension(values, d, name):
    """A number or 1-or-d numbers as a float vector, of length d when d is
    given; another count is a data error naming ``name``."""
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if d is not None and arr.size not in (1, d):
        raise DataError(f"{name} needs 1 or {d} values, got {arr.size}")
    return np.full(d, arr[0]) if d is not None and arr.size == 1 else arr


def positive_vector(values, name):
    """``values``, one number or a nonempty 1-D vector of them, as a 1-D float
    vector; an entry that is not positive and finite is a ValueError naming
    ``name``.  This is the package's one positivity rule."""
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1 or arr.size < 1 or not np.all(np.isfinite(arr) & (arr > 0.0)):
        raise ValueError(f"{name} must be positive and finite, got {values}")
    return arr


@dataclass
class ProductDensity:
    """Per-dimension frequency density: p(x) = prod_j p_j(x_j)."""

    kind: str
    scale: np.ndarray

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"unsupported density kind {self.kind!r}; valid kinds are {_KINDS}. "
                "The multivariate t density (Matern kernel) has no per-dimension "
                "product form and is rejected."
            )
        self.scale = positive_vector(self.scale, "scale")

    @property
    def d(self):
        return self.scale.size

    @classmethod
    def gaussian(cls, sigma, d=None):
        return cls(kind=GAUSSIAN, scale=per_dimension(sigma, d, "sigma"))

    @classmethod
    def cauchy(cls, sigma, d=None):
        return cls(kind=CAUCHY, scale=per_dimension(sigma, d, "sigma"))

    @classmethod
    def for_kernel(cls, kernel, sigma, d=None):
        """Density whose Fourier transform is the named kernel."""
        if kernel not in KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}; valid kernels: {', '.join(KERNELS)}")
        return cls(kind=KERNELS[kernel], scale=per_dimension(sigma, d, "sigma"))

    def to_json_dict(self):
        return {"kind": self.kind, "scale": [float(v) for v in self.scale]}


@dataclass
class FrequencySet:
    """s frequency vectors in R^d plus a provenance descriptor."""

    points: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.points = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if self.points.ndim != 2:
            raise ValueError("points must be an s x d matrix")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("frequency entries must be finite")

    @property
    def s(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]

    def to_json_dict(self):
        return {
            "s": self.s,
            "d": self.d,
            "provenance": self.provenance,
            "points": [[float(v) for v in row] for row in self.points],
        }


def transform(pointset, density):
    """Map a unit-cube point set through the per-dimension inverse CDFs.

    Row i becomes w_i with w_ij = quantile_j(t_ij); monotone in every
    coordinate.
    """
    from scipy.special import ndtri

    pts = pointset.points
    if density.d != pts.shape[1]:
        raise ValueError(f"density dimension {density.d} != point set dimension {pts.shape[1]}")
    if density.kind == GAUSSIAN:
        freqs = ndtri(pts) / density.scale[None, :]
    else:
        gamma = 1.0 / density.scale
        freqs = gamma[None, :] * np.tan(np.pi * (pts - 0.5))
    provenance = {
        "source": "transform",
        "generator": pointset.generator,
        "seed_or_start": pointset.seed_or_start,
        "density": density.to_json_dict(),
    }
    return FrequencySet(points=freqs, provenance=provenance)


def characteristic_profile(density, j, betas):
    """Characteristic function of the j-th marginal at each of ``betas``."""
    sigma = density.scale[j]
    betas = np.asarray(betas, dtype=float)
    if density.kind == GAUSSIAN:
        return np.exp(-(betas * betas) / (2.0 * sigma * sigma))
    return np.exp(-np.abs(betas) / sigma)
