"""Exact lattice geometry at desk scale (n <= 16).

A Lattice wraps a full-rank square basis whose *columns* generate the point
set {B c : c integer}. Everything downstream (theta sums, exact samplers,
decoders) relies on three exact primitives implemented here: closest-point
decoding, Voronoi reduction, and complete enumeration of coset points inside
a ball. Enumeration is breadth-first over basis levels and fully vectorized
across levels and rows, so counts in the millions stay cheap; a hard point
budget per row guards against runaway regions.

The Zn, Dn and E8 families decode in closed form. Every other basis decodes
with one exact sphere decoder: the basis is LLL-reduced once, on first
decode, Babai's nearest plane in the reduced basis sets each row's radius,
and one multi-row enumeration collects every candidate inside those radii.

Closest-point ties (inputs equidistant from several lattice points) are
broken deterministically: smallest squared norm of the candidate point, then
lexicographically smallest coordinate vector. On Z this rounds half-integers
toward zero, so mod_lattice(Z, -0.5) = -0.5.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    InternalMismatch,
    InvalidParams,
    NonSquare,
    SingularBasis,
    UnknownName,
)

DEFAULT_ENUM_BUDGET = 10_000_000

# Deterministic tie tolerance: candidates whose squared distance is within
# this relative band of the minimum are treated as exact ties.
_TIE_REL = 1e-9


@dataclass(frozen=True)
class LatticePoint:
    """A lattice point as integer coordinates plus its embedding."""

    coords: np.ndarray  # shape (n,), int64
    point: np.ndarray  # shape (n,), float


@dataclass(frozen=True)
class NldReport:
    """Normalized log density of a lattice against the density limit at sigma."""

    nld: float
    poltyrev_limit: float
    margin: float  # poltyrev_limit - nld; >= 0 means the density is feasible


class Lattice:
    """Immutable full-rank lattice. Columns of `basis` generate the points."""

    def __init__(self, basis, name=None, _fast=None):
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise NonSquare(f"basis must be square, got shape {basis.shape}")
        n = basis.shape[0]
        q, rt = _qr_positive(basis)
        diag = np.abs(np.diag(rt))
        if diag.min() <= 1e-12 * max(diag.max(), 1e-300):
            raise SingularBasis("basis is singular or badly conditioned")
        self._basis = basis.copy()
        self._basis.flags.writeable = False
        self._q = q
        self._rt = rt  # upper triangular, positive diagonal: basis = q @ rt
        self._binv = np.linalg.inv(basis)
        self.name = name
        self.n = n
        self.volume = float(np.prod(diag))
        # (family, scale) for closed-form decoders: ("Zn"|"Dn"|"E8", s)
        self._fast = _fast

    @property
    def basis(self):
        return self._basis

    @property
    def family(self):
        """(name, scale) of a closed-form family, or None.

        name is "Zn", "Dn" or "E8" and the lattice is scale times that
        family's standard embedding; such lattices decode in closed form.
        """
        return self._fast

    def embed(self, coords):
        """Map integer coordinates (..., n) to points (..., n)."""
        return np.asarray(coords, dtype=float) @ self._basis.T

    def coords_of(self, points):
        """Integer coordinates of exact lattice points (..., n)."""
        c = np.asarray(points, dtype=float) @ self._binv.T
        r = np.rint(c)
        if not np.allclose(c, r, atol=1e-6):
            raise InternalMismatch("point is not on the lattice")
        return r.astype(np.int64)

    def __repr__(self):
        label = self.name or f"{self.n}-dim"
        return f"Lattice({label}, volume={self.volume:.6g})"

    @cached_property
    def covering_bound(self):
        """Upper bound on the covering radius, as `latgauss lattice` reports it.

        Exact for the Zn, Dn and E8 families. Otherwise the smaller Babai
        bound, half the norm of the triangular diagonal, of the basis and
        of its LLL reduction.
        """
        if self._fast is not None:
            fam, s = self._fast
            if fam == "Zn":
                return s * math.sqrt(self.n) / 2
            if fam == "Dn":
                return s * (1.0 if self.n <= 3 else math.sqrt(self.n) / 2)
            return s
        return min(0.5 * float(np.sqrt((np.diag(rt) ** 2).sum()))
                   for rt in (self._rt, self._reduced[1]))

    @cached_property
    def _reduced(self):
        """(q, rt, u): the LLL-reduced basis basis @ u = q @ rt, u unimodular."""
        u = _lll(self._basis)
        return (*_qr_positive(self._basis @ u), u)


def _qr_positive(basis):
    """basis = q @ rt with rt upper triangular and a nonnegative diagonal."""
    q, rt = np.linalg.qr(basis)
    sign = np.where(np.diag(rt) < 0, -1.0, 1.0)
    return q * sign, sign[:, None] * rt


def _lll(basis):
    """Unimodular int64 u such that the columns of basis @ u are LLL-reduced
    (Lenstra, Lenstra & Lovasz 1982): size-reduced, Lovasz parameter 0.99."""
    u = np.eye(basis.shape[1], dtype=np.int64)
    k = 1
    while k < basis.shape[1]:
        r = np.linalg.qr(basis @ u, mode="r")
        for j in range(k - 1, -1, -1):
            mu = int(np.rint(r[j, k] / r[j, j]))
            if mu:
                u[:, k] -= mu * u[:, j]
                r[:, k] -= mu * r[:, j]
        if r[k, k] ** 2 + r[k - 1, k] ** 2 < 0.99 * r[k - 1, k - 1] ** 2:
            u[:, [k - 1, k]] = u[:, [k, k - 1]]
            k = max(k - 1, 1)
        else:
            k += 1
    return u


def new_lattice(basis, name=None) -> Lattice:
    """Build a lattice from a square generator matrix (columns generate)."""
    return Lattice(basis, name=name)


_NAME_RE = re.compile(r"^(Z|D)n?\(?(\d*)\)?$|^(E8|A2)$")


def standard_lattice(name: str) -> Lattice:
    """Named construction: Z, Zn, Dn (n>=2), E8, A2.

    Accepts compact forms like "Z4", "D3" and the call-style "Zn(4)", "Dn(3)".
    """
    m = _NAME_RE.match(name.strip())
    if not m:
        raise UnknownName(f"unknown lattice name {name!r}")
    if m.group(3) == "E8":
        gens = np.array(
            [
                [2, 0, 0, 0, 0, 0, 0, 0],
                [-1, 1, 0, 0, 0, 0, 0, 0],
                [0, -1, 1, 0, 0, 0, 0, 0],
                [0, 0, -1, 1, 0, 0, 0, 0],
                [0, 0, 0, -1, 1, 0, 0, 0],
                [0, 0, 0, 0, -1, 1, 0, 0],
                [0, 0, 0, 0, 0, -1, 1, 0],
                [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
            ]
        )
        return Lattice(gens.T, name="E8", _fast=("E8", 1.0))
    if m.group(3) == "A2":
        basis = np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]])
        return Lattice(basis, name="A2")
    family = m.group(1)
    ntxt = m.group(2)
    n = int(ntxt) if ntxt else 1
    if not 1 <= n <= 16:
        raise UnknownName(f"dimension {n} out of the supported range 1..16")
    if family == "Z":
        return Lattice(np.eye(n), name=f"Z{n}" if n > 1 else "Z", _fast=("Zn", 1.0))
    if n < 2:
        raise UnknownName("Dn needs n >= 2")
    gens = np.zeros((n, n))
    gens[0, 0] = gens[0, 1] = -1.0
    for i in range(1, n):
        gens[i, i - 1] = 1.0
        gens[i, i] = -1.0
    return Lattice(gens.T, name=f"D{n}", _fast=("Dn", 1.0))


def scale_lattice(lat: Lattice, c: float) -> Lattice:
    """The lattice c * Lambda. Closed-form decoders survive scaling."""
    if not np.isfinite(c) or c == 0:
        raise InvalidParams("scale factor must be finite and nonzero")
    fast = (lat._fast[0], lat._fast[1] * abs(c)) if lat._fast else None
    return Lattice(lat.basis * c, name=None, _fast=fast)


def dual(lat: Lattice) -> Lattice:
    """Dual lattice: inverse-transpose basis. volume(dual) = 1/volume."""
    return Lattice(np.linalg.inv(lat.basis).T)


def to_json(lat: Lattice) -> dict:
    """Serializable form: row-major basis plus optional name."""
    out = {"n": lat.n, "basis": lat.basis.tolist()}
    if lat.name:
        out["name"] = lat.name
    return out


def from_json(obj: dict) -> Lattice:
    """Inverse of to_json. A bare {"name": ...} uses the named constructor."""
    if "basis" in obj:
        basis = np.asarray(obj["basis"], dtype=float)
        if "n" in obj and basis.shape != (obj["n"], obj["n"]):
            raise DimensionMismatch("declared n does not match basis shape")
        return new_lattice(basis, name=obj.get("name"))
    if "name" in obj:
        return standard_lattice(obj["name"])
    raise InvalidParams("lattice JSON needs 'basis' or 'name'")


# ---------------------------------------------------------------------------
# enumeration


def _enumerate_ball(rt, targets, radii, budget):
    """Integer c with ||rt @ c - targets[i]|| <= radii[i], for every row i.

    rt is upper triangular. Returns (rows int (k,), coords int64 (k, n),
    squared distances (k,)) with rows ascending. Level-by-level breadth-first
    expansion, vectorized across all active prefixes of all rows; each row
    may need at most `budget` points at any level.
    """
    m, n = targets.shape
    r2 = radii * radii
    rows = np.arange(m)
    coords = np.zeros((m, 0), dtype=np.int64)
    partial = np.zeros(m)
    for k in range(n - 1, -1, -1):
        tk = targets[rows, k] - coords @ rt[k, k + 1 :]
        r2k = r2[rows]
        half = np.sqrt(np.maximum(r2k - partial, 0.0))
        dkk = rt[k, k]
        lo = np.ceil((tk - half) / dkk)
        hi = np.floor((tk + half) / dkk)
        cnt = np.maximum((hi - lo + 1).astype(np.int64), 0)
        need = np.bincount(rows, weights=cnt, minlength=m)
        if need.max(initial=0) > budget:
            i = int(np.argmax(need))
            raise BudgetExceeded(
                f"enumeration in n={n} at radius {radii[i]:.6g} needs "
                f"{int(need[i])} points at level {k}, over the budget {budget}"
            )
        idx = np.repeat(np.arange(rows.shape[0]), cnt)
        starts = np.cumsum(cnt) - cnt
        ck = lo[idx] + (np.arange(idx.size) - np.repeat(starts, cnt))
        resid = dkk * ck - tk[idx]
        d2 = partial[idx] + resid * resid
        keep = d2 <= r2k[idx] * (1.0 + 1e-12)
        sel = idx[keep]
        coords = np.concatenate([ck[keep, None].astype(np.int64), coords[sel]], axis=1)
        rows = rows[sel]
        partial = d2[keep]
    return rows, coords, partial


def enumerate_coset(lat: Lattice, shift, radius, budget=DEFAULT_ENUM_BUDGET):
    """All points of (Lambda + shift) with norm <= radius.

    Returns (coords, points): integer coordinates of the lattice part and the
    embedded coset points B c + shift. The radius carries a 1e-9 relative
    slack so points sitting exactly on the sphere are never lost.
    """
    shift = _check_vec(lat, shift)
    if radius < 0:
        raise InvalidParams("radius must be nonnegative")
    r = radius * (1.0 + 1e-9)
    # ||B c + shift|| = ||rt c - (-q^T shift)||
    target = -(lat._q.T @ shift)
    _, coords, _ = _enumerate_ball(lat._rt, target[None], np.array([r]), budget)
    return coords, lat.embed(coords) + shift


def _check_vec(lat, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (lat.n,):
        raise DimensionMismatch(f"expected vector of length {lat.n}, got {x.shape}")
    return x


# ---------------------------------------------------------------------------
# closest-point decoding


def _round_half_toward_zero(x):
    return np.where(x >= 0, np.ceil(x - 0.5), np.floor(x + 0.5))


def _decode_dn_points(y):
    """Nearest point of Dn (integer vectors with even sum) for each row of y."""
    f = _round_half_toward_zero(y)
    delta = y - f
    rows = np.arange(y.shape[0])
    j = np.argmax(np.abs(delta), axis=1)
    dj = delta[rows, j]
    fj = f[rows, j]
    # flip the worst coordinate the other way; at exact zero error step
    # toward the origin so the tie lands on the smaller-norm point
    step = np.where(dj > 0, 1.0, np.where(dj < 0, -1.0, np.where(fj > 0, -1.0, 1.0)))
    g = f.copy()
    g[rows, j] = fj + step
    odd = (f.sum(axis=1).astype(np.int64) & 1).astype(bool)
    return np.where(odd[:, None], g, f)


def _decode_e8_points(y):
    """Nearest point of E8 = D8 union (D8 + 1/2) for each row of y."""
    a = _decode_dn_points(y)
    b = _decode_dn_points(y - 0.5) + 0.5
    da = ((y - a) ** 2).sum(axis=1)
    db = ((y - b) ** 2).sum(axis=1)
    na = (a**2).sum(axis=1)
    nb = (b**2).sum(axis=1)
    pick_b = (db < da) | ((db == da) & (nb < na))
    return np.where(pick_b[:, None], b, a)


# rows per sphere-decoder call; bounds the size of the candidate arrays
_DECODE_CHUNK = 256


def decode_batch(lat: Lattice, points) -> np.ndarray:
    """Closest-point coordinates for each row of `points` (m, n) -> (m, n) int.

    The Zn/Dn/E8 families (any scaling) decode in closed form. Any other
    basis decodes exactly, 256 rows at a time: Babai's nearest plane in the
    LLL-reduced basis gives each row a radius, one multi-row enumeration
    collects every lattice point within it, and the module's tie rule picks
    one per row in the caller's coordinates. A 1-D array raises
    DimensionMismatch and a non-finite row InvalidParams.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != lat.n:
        raise DimensionMismatch(f"expected (m, {lat.n}) points, got {pts.shape}")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise InvalidParams(f"cannot decode row {i}, it is not finite: {pts[i].tolist()}")
    if lat._fast is None:
        coords = np.empty(pts.shape, dtype=np.int64)
        for a in range(0, pts.shape[0], _DECODE_CHUNK):
            b = a + _DECODE_CHUNK
            coords[a:b] = _sphere_decode(lat, pts[a:b])
        return coords
    family, s = lat._fast
    y = pts / s
    if family == "Zn":
        emb = _round_half_toward_zero(y)
    elif family == "Dn":
        emb = _decode_dn_points(y)
    else:
        emb = _decode_e8_points(y)
    return lat.coords_of(emb * s)


def _sphere_decode(lat, pts):
    """Exact closest-point coordinates of each row, ties by the module rule."""
    q, rt, u = lat._reduced
    t = pts @ q  # row i is q^T y_i
    c = np.zeros(pts.shape)
    for k in range(lat.n - 1, -1, -1):  # Babai's nearest plane
        c[:, k] = np.rint((t[:, k] - c[:, k + 1 :] @ rt[k, k + 1 :]) / rt[k, k])
    radii = np.sqrt(((c @ rt.T - t) ** 2).sum(axis=1)) * (1.0 + 1e-9) + 1e-12
    rows, cand, d2 = _enumerate_ball(rt, t, radii, DEFAULT_ENUM_BUDGET)
    dmin = np.full(pts.shape[0], np.inf)
    np.minimum.at(dmin, rows, d2)
    tie = d2 <= dmin[rows] + _TIE_REL * (1.0 + dmin[rows])
    rows, cand = rows[tie], cand[tie] @ u.T
    norms = (lat.embed(cand) ** 2).sum(axis=1)
    order = np.lexsort(tuple(cand.T[::-1]) + (norms, rows))
    first = order[np.flatnonzero(np.diff(rows[order], prepend=-1))]
    if first.size != pts.shape[0]:  # cannot happen: each Babai point is inside
        raise InternalMismatch("empty closest-point search ball")
    return cand[first]


def closest_point(lat: Lattice, y) -> LatticePoint:
    """Exact closest lattice point to y: decode_batch on one row.

    Ties are broken toward the smaller squared norm of the lattice point and
    then the lexicographically smallest coordinate vector, so the result is
    reproducible across runs and basis representations of the same family.
    """
    y = _check_vec(lat, y)
    c = decode_batch(lat, y[None, :])[0]
    return LatticePoint(c, lat.embed(c))


def mod_lattice(lat: Lattice, x) -> np.ndarray:
    """Residue of x in the Voronoi cell: x - closest_point(x)."""
    x = _check_vec(lat, x)
    return x - closest_point(lat, x).point


def reduce_batch(lat: Lattice, points) -> np.ndarray:
    """Voronoi residues for each row of `points`; batch form of mod_lattice."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return pts - lat.embed(decode_batch(lat, pts))


# ---------------------------------------------------------------------------
# random mod-p (Construction A) lattices


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def random_mod_p_lattice(n, k, p, rng) -> Lattice:
    """Construction A from a uniform full-rank k x n generator over F_p.

    Points are the integer vectors congruent mod p to a codeword of the
    random linear code. Volume is p^(n-k) by construction; a determinant
    check enforces it. `rng` is an RngStream.
    """
    if not _is_prime(p):
        raise InvalidParams(f"p={p} is not prime")
    if not (1 <= k < n):
        raise InvalidParams("need 1 <= k < n")
    gen = rng.generator()
    for _ in range(256):
        g = gen.integers(0, p, size=(k, n))
        rows, pivots = _row_reduce_mod_p(g, p)
        if len(pivots) == k:
            break
    else:  # pragma: no cover - chance < p^-200
        raise InternalMismatch("could not draw a full-rank generator")
    cols = [rows[i] for i in range(k)]
    free = [j for j in range(n) if j not in pivots]
    for j in free:
        e = np.zeros(n)
        e[j] = p
        cols.append(e)
    basis = np.stack(cols, axis=1).astype(float)
    lat = Lattice(basis)
    expect = float(p) ** (n - k)
    if abs(lat.volume - expect) > 1e-9 * expect:
        raise InternalMismatch("construction-A volume check failed")
    return lat


def _row_reduce_mod_p(g, p):
    """Row echelon form of g over F_p. Returns (rows as float arrays, pivots)."""
    a = g.astype(np.int64) % p
    k, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == k:
            break
        nz = np.flatnonzero(a[r:, c] % p)
        if nz.size == 0:
            continue
        a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        for i in range(k):
            if i != r and a[i, c] % p:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        pivots.append(c)
        r += 1
    return [a[i].astype(float) for i in range(r)], pivots


# ---------------------------------------------------------------------------
# density bookkeeping


def nld(lat: Lattice, sigma: float) -> NldReport:
    """Normalized log density against the density limit at noise level sigma.

    nld = (1/n) log(1/volume); the limit is -(1/2) log(2 pi e sigma^2).
    Positive margin means the density is on the feasible side.
    """
    if sigma <= 0:
        raise InvalidParams("sigma must be positive")
    value = -np.log(lat.volume) / lat.n
    limit = -0.5 * np.log(2 * np.pi * np.e * sigma**2)
    return NldReport(nld=float(value), poltyrev_limit=float(limit),
                     margin=float(limit - value))
