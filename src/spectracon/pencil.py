"""Linear matrix pencils and the spectrahedra they define.

A pencil A(x) = A0 + sum_p x_p A_p with symmetric k x k coefficients defines
the spectrahedron S_A = {x in R^n : A(x) psd}.  This module provides the
pencil type, normal-form constructors (ellipsoid, polytope, elliptope), the
seeded random generator used by the experiment scripts, the reduction of a
linear map on symmetric matrices to a pencil pair, and a JSON interchange
format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .symcore import SymMatrix, sym

# Maximum tolerated asymmetry when reading pencils from external files.
_ASYM_TOL = 1e-9


@dataclass(frozen=True)
class LinearPencil:
    """Pencil A(x) = coeffs[0] + sum_{p=1..n} x_p coeffs[p].

    coeffs holds n+1 SymMatrix of equal dimension k; n == 0 (constant pencil)
    is allowed.
    """

    coeffs: tuple = field(repr=False)

    def __post_init__(self):
        cs = tuple(c if isinstance(c, SymMatrix) else sym(c) for c in self.coeffs)
        if len(cs) < 1:
            raise InvalidInput("pencil needs at least a constant coefficient")
        k = cs[0].dim
        for c in cs:
            if c.dim != k:
                raise InvalidInput("pencil coefficients must share one dimension")
        object.__setattr__(self, "coeffs", cs)

    @property
    def n(self) -> int:
        return len(self.coeffs) - 1

    @property
    def k(self) -> int:
        return self.coeffs[0].dim

    def coeff_array(self) -> np.ndarray:
        """Stacked coefficients, shape (n+1, k, k)."""
        return np.stack([c.mat for c in self.coeffs])

    def evaluate(self, x) -> SymMatrix:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.n,):
            raise InvalidInput(f"point must have {self.n} coordinates, got {x.shape}")
        acc = self.coeffs[0].mat.copy()
        for p in range(self.n):
            acc += x[p] * self.coeffs[p + 1].mat
        return sym(acc)

    def __repr__(self):
        return f"LinearPencil(n={self.n}, k={self.k})"


def pencil(coeffs) -> LinearPencil:
    return LinearPencil(tuple(coeffs))


def ellipsoid_pencil(semiaxes) -> LinearPencil:
    """Axis-aligned ellipsoid sum (x_p / a_p)^2 <= 1 as a monic (n+1)-pencil.

    Equal semiaxes give a ball of that radius.
    """
    a = np.atleast_1d(np.asarray(semiaxes, dtype=float))
    if a.ndim != 1 or a.size == 0:
        raise InvalidInput("semiaxes must be a nonempty vector")
    if np.any(a <= 0):
        raise InvalidInput("semiaxes must be positive")
    n = a.size
    k = n + 1
    coeffs = [np.eye(k)]
    for p in range(n):
        m = np.zeros((k, k))
        m[p, n] = m[n, p] = 1.0 / a[p]
        coeffs.append(m)
    return pencil(coeffs)


def polytope_pencil(a: np.ndarray, b: np.ndarray) -> LinearPencil:
    """Polyhedron {x : b + a x >= 0 componentwise} as a diagonal pencil.

    The pencil is monic exactly when b is the all-ones vector.
    """
    a = np.asarray(a, dtype=float)
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.ndim != 2:
        raise InvalidInput("inequality matrix must be 2-d")
    if b.shape != (a.shape[0],):
        raise InvalidInput("offset vector length must match the row count")
    coeffs = [np.diag(b)]
    for p in range(a.shape[1]):
        coeffs.append(np.diag(a[:, p]))
    return pencil(coeffs)


def elliptope_pencil(k: int) -> LinearPencil:
    """Set of k x k correlation matrices, n = k(k-1)/2 off-diagonal variables.

    Variable order is the graded pair order (1,2),(1,3),...,(1,k),(2,3),...
    """
    if k < 2:
        raise InvalidInput("elliptope needs dimension at least 2")
    coeffs = [np.eye(k)]
    for i in range(k):
        for j in range(i + 1, k):
            m = np.zeros((k, k))
            m[i, j] = m[j, i] = 1.0
            coeffs.append(m)
    return pencil(coeffs)


def extend(p: LinearPencil) -> LinearPencil:
    """Pencil 1 (+) A(x): adds a constant unit diagonal entry in front.

    The spectrahedron is unchanged while the constant coefficient acquires a
    strictly positive eigenvalue direction, which several certificates need.
    """
    k = p.k
    coeffs = []
    m0 = np.zeros((k + 1, k + 1))
    m0[0, 0] = 1.0
    m0[1:, 1:] = p.coeffs[0].mat
    coeffs.append(m0)
    for q in range(1, p.n + 1):
        m = np.zeros((k + 1, k + 1))
        m[1:, 1:] = p.coeffs[q].mat
        coeffs.append(m)
    return pencil(coeffs)


def random_pencil(n: int, k: int, density: float = 0.35, diag0: float = 1.0,
                  seed: int = 0) -> LinearPencil:
    """Seeded random pencil.

    Linear coefficients have zero diagonal and sparse uniform [-1, 1]
    off-diagonal entries (each present with probability ``density``); the
    constant coefficient follows the same recipe with its diagonal set to
    ``diag0``.  Identical arguments give identical pencils.
    """
    if n < 0 or k < 1:
        raise InvalidInput("need n >= 0 and k >= 1")
    if not (0.0 <= density <= 1.0):
        raise InvalidInput("density must lie in [0, 1]")
    rng = np.random.default_rng(seed)

    def draw(diag_value: float) -> np.ndarray:
        m = np.zeros((k, k))
        iu, ju = np.triu_indices(k, 1)
        mask = rng.random(iu.size) < density
        vals = rng.uniform(-1.0, 1.0, size=iu.size) * mask
        m[iu, ju] = vals
        m[ju, iu] = vals
        m[np.diag_indices(k)] = diag_value
        return m

    coeffs = [draw(diag0)] + [draw(0.0) for _ in range(n)]
    return pencil(coeffs)


# ---------------------------------------------------------------------------
# Linear maps on symmetric matrices


def sym_basis_indices(k: int):
    """Index pairs (i, j), i <= j, in the fixed order used by MapSpec."""
    return [(i, j) for i in range(k) for j in range(i, k)]


@dataclass(frozen=True)
class MapSpec:
    """Linear map on k x k symmetric matrices with values in S_l.

    ``action`` lists the images of the basis E_ii and E_ij + E_ji (i < j) in
    the order of :func:`sym_basis_indices`.
    """

    k: int
    action: tuple = field(repr=False)

    def __post_init__(self):
        if self.k < 1:
            raise InvalidInput("map domain dimension must be at least 1")
        imgs = tuple(m if isinstance(m, SymMatrix) else sym(m) for m in self.action)
        want = self.k * (self.k + 1) // 2
        if len(imgs) != want:
            raise InvalidInput(f"need {want} basis images, got {len(imgs)}")
        l = imgs[0].dim
        for m in imgs:
            if m.dim != l:
                raise InvalidInput("basis images must share one dimension")
        object.__setattr__(self, "action", imgs)

    @property
    def l(self) -> int:
        return self.action[0].dim

    def apply(self, m) -> SymMatrix:
        """Image of a symmetric matrix under the map."""
        a = np.asarray(m, dtype=float)
        if a.shape != (self.k, self.k):
            raise InvalidInput(f"argument must be {self.k} x {self.k}")
        a = (a + a.T) / 2.0
        out = np.zeros((self.l, self.l))
        for (i, j), img in zip(sym_basis_indices(self.k), self.action):
            out += a[i, j] * img.mat
        return sym(out)

    def __repr__(self):
        return f"MapSpec(k={self.k}, l={self.l})"


def map_from_callable(k: int, phi) -> MapSpec:
    """Build a MapSpec by sampling a callable on the symmetric basis."""
    imgs = []
    for i, j in sym_basis_indices(k):
        e = np.zeros((k, k))
        e[i, j] += 1.0
        e[j, i] += 1.0
        if i == j:
            e[i, i] = 1.0
        imgs.append(np.asarray(phi(e), dtype=float))
    return MapSpec(k=k, action=tuple(imgs))


def traceless_basis(k: int) -> list[np.ndarray]:
    """Orthonormal basis of traceless symmetric k x k matrices.

    Diagonal combinations first (k-1 of them), then normalized off-diagonal
    units in pair order, for k(k+1)/2 - 1 matrices total.
    """
    basis = []
    for d in range(1, k):
        v = np.zeros(k)
        v[:d] = 1.0
        v[d] = -d
        basis.append(np.diag(v / np.sqrt(d * (d + 1))))
    s = 1.0 / np.sqrt(2.0)
    for i in range(k):
        for j in range(i + 1, k):
            m = np.zeros((k, k))
            m[i, j] = m[j, i] = s
            basis.append(m)
    return basis


def map_to_pencils(spec: MapSpec) -> tuple[LinearPencil, LinearPencil]:
    """Encode positivity of a map as a containment question.

    The inner pencil parametrizes the unit-trace slice of the psd cone,
    A(x) = I/k + sum x_alpha G_alpha over an orthonormal traceless basis, so
    x -> A(x) hits every unit-trace symmetric matrix exactly once.  The outer
    pencil is its image, B(x) = Phi(A(x)).  The map is positive on S_k iff
    S_A is contained in S_B.
    """
    k = spec.k
    basis = traceless_basis(k)
    a_coeffs = [np.eye(k) / k] + basis
    b_coeffs = [spec.apply(a_coeffs[0]).mat] + [spec.apply(g).mat for g in basis]
    return pencil(a_coeffs), pencil(b_coeffs)


# ---------------------------------------------------------------------------
# JSON interchange


def pencil_to_json(p: LinearPencil) -> str:
    """Serialize as {"n":..., "k":..., "coeffs":[row-major k*k lists]}."""
    payload = {
        "n": p.n,
        "k": p.k,
        "coeffs": [c.mat.reshape(-1).tolist() for c in p.coeffs],
    }
    return json.dumps(payload)


def pencil_from_json(text: str) -> LinearPencil:
    """Parse the JSON pencil format, symmetrizing tiny asymmetries.

    Asymmetry beyond 1e-9 in any coefficient is rejected as malformed input.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InvalidInput("pencil JSON must be an object")
    try:
        n = int(payload["n"])
        k = int(payload["k"])
        raw = payload["coeffs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"pencil JSON missing or malformed fields: {exc}") from exc
    if n < 0 or k < 1:
        raise InvalidInput(f"invalid pencil dimensions n={n}, k={k}")
    if not isinstance(raw, list) or len(raw) != n + 1:
        raise InvalidInput(f"expected {n + 1} coefficient arrays")
    coeffs = []
    for idx, entry in enumerate(raw):
        arr = np.asarray(entry, dtype=float)
        if arr.shape != (k * k,):
            raise InvalidInput(f"coefficient {idx} must hold {k * k} entries")
        if not np.all(np.isfinite(arr)):
            raise InvalidInput(f"coefficient {idx} has non-finite entries")
        m = arr.reshape(k, k)
        if np.max(np.abs(m - m.T), initial=0.0) > _ASYM_TOL:
            raise InvalidInput(f"coefficient {idx} is not symmetric within 1e-9")
        coeffs.append(m)
    return pencil(coeffs)


def load_pencil(path) -> LinearPencil:
    with open(path, "r", encoding="utf-8") as fh:
        return pencil_from_json(fh.read())


def save_pencil(p: LinearPencil, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pencil_to_json(p))
        fh.write("\n")
