"""Strongly log-concave target densities.

A target is an unnormalized negative log-density f known up to an additive
constant, together with its analytic gradient, Hessian, and curvature bounds
(m, M): every Hessian eigenvalue lies in [m, M]. Two concrete families are
provided: multivariate Gaussians and Bayesian logistic-regression posteriors
with a Gaussian prior. Targets copy their input arrays, are immutable after
construction, and all evaluations are pure, so they are safe to share across
threads.
"""

import numpy as np

from .errors import NumericalError
from .optim import SolveProblem, newton_solve

MODE_GRAD_TOL = 1e-10

# A logistic target keeps the products a_i a_j of every pair of design
# columns, i <= j, when they number at most this many (8 MB): a stack of
# Hessians is then one (B, n) x (n, pairs) product, in place of B rank-k
# updates S @ S' (see LogisticRegressionTarget). Measured at n = 500, d = 10
# it is 2x faster for one point and 5x for 20. Below the cap it was faster
# at B = 1, 4 and 20 for d <= 16, and at B = 20 for every d up to 80; for one
# or four points it was slower at d >= 30 (up to 2.7x) and at d = 20 past
# 2^18 products (up to 1.6x). The cap bounds its memory.
_PAIR_PRODUCTS_MAX = 1 << 20
# Logits are capped here before exp: exp(700) is finite (the largest double is
# about exp(709.8)), and past the cap the sigmoid is below 1e-304 anyway.
_LOGIT_CAP = 700.0


def _check_point(x, dim: int, stack: bool = False) -> np.ndarray:
    """x as a float vector of length dim, or with stack also an (N, dim)
    matrix of points; raises on any other shape or a non-finite entry."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,) and not (stack and x.ndim == 2 and x.shape[1] == dim):
        kind = f"a vector of length {dim}" + (f" or an (N, {dim}) matrix" if stack else "")
        raise ValueError(f"expected {kind}, got shape {x.shape}")
    if np.count_nonzero(np.isfinite(x)) != x.size:
        raise ValueError("input point contains non-finite entries")
    return x


class TargetDensity:
    """Contract for an evaluable log-concave target.

    Subclasses provide value (up to an additive constant, which sampling never
    needs), the unchecked _gradient/_hessian behind the public gradient/hessian,
    and convexity_bounds(). Both may be passed _shared(x), their common work.
    The unchecked methods take one point of shape (d,) or a stack of B points,
    shape (B, d), and return one gradient (B, d) or Hessian (B, d, d) per row;
    callers validate points once, at the API edge. A returned Hessian may be a
    read-only view, so callers never edit it in place.
    """

    dim: int
    # Each constructor sets this last; from then on no attribute can be set or
    # deleted, so no evaluation or cached step operator can go stale.
    _frozen = False

    def __setattr__(self, name, value):
        if self._frozen:
            raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        if self._frozen:
            raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")
        object.__delattr__(self, name)

    def value(self, x) -> float:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        return self._gradient(_check_point(x, self.dim))

    def hessian(self, x) -> np.ndarray:
        return self._hessian(_check_point(x, self.dim))

    def _shared(self, x):
        return None

    def _gradient(self, x: np.ndarray, shared=None) -> np.ndarray:
        raise NotImplementedError

    def _hessian(self, x: np.ndarray, shared=None) -> np.ndarray:
        raise NotImplementedError

    def convexity_bounds(self) -> tuple[float, float]:
        """(m, M) with every Hessian eigenvalue inside [m, M]."""
        raise NotImplementedError


class GaussianTarget(TargetDensity):
    """Quadratic target 0.5 (x - mean)' Q (x - mean) with precision Q.

    The eigenpairs of Q are computed once, at construction, and are the one
    source of its spectral facts: the read-only `eigenvalues` (ascending) and
    `eigenvectors` give the exact curvature bounds, the covariance, exact
    draws and the closed-form step operators.
    """

    def __init__(self, mean, precision):
        mean = np.array(mean, dtype=float)
        precision = np.array(precision, dtype=float)
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        d = mean.size
        if precision.shape != (d, d):
            raise ValueError(f"precision must be {d}x{d}, got {precision.shape}")
        if not np.allclose(precision, precision.T, rtol=0, atol=1e-10):
            raise ValueError("precision matrix must be symmetric")
        try:
            chol = np.linalg.cholesky((precision + precision.T) / 2.0)
        except np.linalg.LinAlgError:
            raise ValueError("precision matrix must be positive definite") from None
        # Q = L L' = V S^2 V' with S, V from the SVD of L'. At the low end of the
        # spectrum this is about sqrt(cond Q) times more accurate than eigh(Q).
        _, sv, vt = np.linalg.svd(chol.T)
        self.dim = d
        self.mean = mean
        self.precision = precision
        self.eigenvalues, self.eigenvectors = sv[::-1] ** 2, vt[::-1].T
        for arr in (self.mean, self.precision, self.eigenvalues, self.eigenvectors):
            arr.flags.writeable = False
        self._frozen = True

    @classmethod
    def from_covariance(cls, mean, covariance) -> "GaussianTarget":
        covariance = np.asarray(covariance, dtype=float)
        eigvals, eigvecs = np.linalg.eigh((covariance + covariance.T) / 2.0)
        if eigvals[0] <= 0:
            raise ValueError("covariance matrix must be positive definite")
        precision = (eigvecs / eigvals) @ eigvecs.T
        return cls(mean, (precision + precision.T) / 2.0)

    @property
    def covariance(self) -> np.ndarray:
        return (self.eigenvectors / self.eigenvalues) @ self.eigenvectors.T

    def value(self, x) -> float:
        x = _check_point(x, self.dim)
        r = x - self.mean
        return 0.5 * float(r @ (self.precision @ r))

    def _gradient(self, x, shared=None) -> np.ndarray:
        return (x - self.mean) @ self.precision.T

    def _hessian(self, x, shared=None) -> np.ndarray:
        return np.broadcast_to(self.precision, x.shape[:-1] + self.precision.shape)

    def convexity_bounds(self) -> tuple[float, float]:
        return float(self.eigenvalues[0]), float(self.eigenvalues[-1])

    def exact_sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n independent exact draws mean + z S, with S = V diag(lam^-1/2) V'
        the symmetric square root of the covariance, applied in the eigenbasis."""
        z = rng.standard_normal((n, self.dim))
        vecs = self.eigenvectors
        return self.mean + ((z @ vecs) / np.sqrt(self.eigenvalues)) @ vecs.T


class LogisticRegressionTarget(TargetDensity):
    """Bayesian logistic-regression posterior with spherical Gaussian prior.

    f(x) = sum_i [log(1 + exp(a_i'x)) - b_i a_i'x] + (prior_precision/2)||x||^2
    for design rows a_i and binary labels b_i. The curvature bounds follow the
    spectral sandwich m = prior_precision, M = ||A||^2/4 + prior_precision,
    with the exact spectral norm ||A|| (largest singular value). The design
    is held as a C-contiguous A' (d x n), of which `design` is a read-only
    view, and as N', each row a_i negated and signed by its label,
    s_i = 1 - 2 b_i. The shared work at x is q = 1 / (1 + exp(x @ N')), in
    place: q_i = sigmoid(s_i a_i'x) is the probability of the label not
    observed, p_i - b_i = s_i q_i, and the gradient is lambda x - q @ N. The
    Hessians A' diag(w) A, w = q (1 - q), of a stack come from one product
    W @ P' with the pair products P of the design's columns, if they fit
    _PAIR_PRODUCTS_MAX, and otherwise from S @ S' with S = A' * sqrt(w) per
    row. Both give exactly symmetric Hessians.
    """

    def __init__(self, design, labels, prior_precision: float = 1.0):
        design_t = np.array(np.asarray(design, dtype=float).T, order="C")
        labels = np.array(labels, dtype=float)
        if design_t.ndim != 2:
            raise ValueError("design must be a 2-d matrix")
        d, n_obs = design_t.shape
        if labels.shape != (n_obs,):
            raise ValueError(f"labels must have length {n_obs}, got {labels.shape}")
        if not np.all(np.isfinite(design_t)):
            raise ValueError("design matrix contains non-finite entries")
        if not np.all(np.isin(labels, (0.0, 1.0))):
            raise ValueError("labels must be 0 or 1")
        if not prior_precision > 0:
            raise ValueError(f"prior precision must be positive, got {prior_precision}")
        self._pairs = None
        first, second = np.triu_indices(d)
        if first.size * n_obs <= _PAIR_PRODUCTS_MAX:
            # Hessian entries (i, j) and (j, i) both read pair slot[i, j].
            slot = np.empty((d, d), dtype=np.intp)
            slot[first, second] = slot[second, first] = np.arange(first.size)
            self._pairs = design_t[first] * design_t[second]
            self._pair_slot = slot.ravel()
            for arr in (self._pairs, self._pair_slot):
                arr.flags.writeable = False
        self._signed_t = design_t * (2.0 * labels - 1.0)
        for arr in (design_t, labels, self._signed_t):
            arr.flags.writeable = False
        self.dim = d
        self._design_t = design_t
        self.design = design_t.T
        self.labels = labels
        self.prior_precision = float(prior_precision)
        norm = float(np.linalg.norm(self.design, 2))
        self._bounds = (self.prior_precision, norm**2 / 4.0 + self.prior_precision)
        self._frozen = True

    def value(self, x) -> float:
        x = _check_point(x, self.dim)
        t = x @ self._design_t
        return float(np.logaddexp(0.0, t).sum() - self.labels @ t
                     + 0.5 * self.prior_precision * (x @ x))

    def _shared(self, x) -> np.ndarray:
        """q = 1 / (1 + exp(x @ N')), with the exponent capped at _LOGIT_CAP,
        so nothing overflows."""
        q = x @ self._signed_t
        np.minimum(q, _LOGIT_CAP, out=q)
        np.exp(q, out=q)
        q += 1.0
        np.reciprocal(q, out=q)
        return q

    def _gradient(self, x, shared=None) -> np.ndarray:
        q = self._shared(x) if shared is None else shared
        return self.prior_precision * x - q @ self._signed_t.T

    def _hessian(self, x, shared=None) -> np.ndarray:
        """A' diag(w) A + lambda I with w = q (1 - q) in [0, 1/4], per row."""
        q = self._shared(x) if shared is None else shared
        weights = q * (1.0 - q)
        d = self.dim
        if self._pairs is not None:
            flat = (weights @ self._pairs.T).take(self._pair_slot, axis=-1)
        else:
            # numpy computes S @ S' by a symmetric rank-k update.
            np.sqrt(weights, out=weights)
            scaled = self._design_t * weights[..., None, :]
            flat = (scaled @ np.swapaxes(scaled, -1, -2)).reshape(x.shape[:-1] + (d * d,))
        flat[..., :: d + 1] += self.prior_precision
        return flat.reshape(x.shape[:-1] + (d, d))

    def convexity_bounds(self) -> tuple[float, float]:
        return self._bounds


def standardize_design(features: np.ndarray) -> np.ndarray:
    """Center and scale each feature column to unit variance, then append an
    intercept column of ones.

    Raises on constant columns, which cannot be scaled.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[0] < 2:
        raise ValueError("need a 2-d feature matrix with at least two rows")
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    constant = np.nonzero(std == 0.0)[0]
    if constant.size:
        raise ValueError(f"constant feature column(s) {constant.tolist()} cannot be standardized")
    design = (features - mean) / std
    return np.hstack([design, np.ones((design.shape[0], 1))])


def load_dataset(path, label_col: int = 0):
    """Read a comma-separated dataset: one observation per row, one label column.

    Returns (features, labels) with labels coerced to {0, 1}: labels 0 and 1
    are kept, and any other two levels map the smaller to 0 and the larger
    to 1. Rows that fail to parse, and labels that are not finite (nan or
    inf), raise a ValueError naming the offending line number; more than two
    distinct labels raise a ValueError too.
    """
    rows, linenos = [], []
    n_cols = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if n_cols is None:
                n_cols = len(parts)
                if n_cols < 2:
                    raise ValueError(
                        f"{path}: line {lineno}: need at least two columns, got {n_cols}"
                    )
            elif len(parts) != n_cols:
                raise ValueError(
                    f"{path}: line {lineno}: expected {n_cols} columns, got {len(parts)}"
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            linenos.append(lineno)
    if not rows:
        raise ValueError(f"{path}: empty dataset")
    data = np.asarray(rows, dtype=float)
    if not (-data.shape[1] <= label_col < data.shape[1]):
        raise ValueError(f"label column {label_col} out of range for {data.shape[1]} columns")
    labels = data[:, label_col]
    features = np.delete(data, label_col % data.shape[1], axis=1)
    finite = np.isfinite(labels)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"{path}: line {linenos[row]}: label {labels[row]} is not finite")
    # A Python set, not np.unique, which loads numpy.ma (about 1 MB).
    levels = set(labels.tolist())
    if len(levels) > 2:
        raise ValueError(
            f"{path}: labels must be binary, found {len(levels)} distinct values"
        )
    if not levels <= {0.0, 1.0}:
        # Two arbitrary level values: map smaller -> 0, larger -> 1.
        labels = (labels == max(levels)).astype(float)
    return features, labels


def mode(target: TargetDensity) -> np.ndarray:
    """Minimizer of the target, by Newton from the origin to gradient norm
    MODE_GRAD_TOL (1e-10)."""
    problem = SolveProblem(gradient=target.gradient, hessian=target.hessian,
                           x0=np.zeros(target.dim), tol=MODE_GRAD_TOL)
    result = newton_solve(problem)
    if not result.converged:
        raise NumericalError(
            f"mode finding did not converge: grad norm {result.grad_norm:.3e} "
            f"after {result.iterations} iterations"
        )
    return result.x
