"""Finite group engine with deterministic element numbering.

Groups are described by small frozen spec objects (:class:`CycSpec`,
:class:`SymSpec`, :class:`SLSpec`, ...) and realized by :func:`build_group`
as :class:`FiniteGroup` instances: a list of canonical element forms plus
index-level multiplication.  Enumeration is a layered breadth-first search
from a fixed per-family generating set, with each new layer sorted by
canonical form.  A layer is multiplied by the generators in one call
(one mod-p matrix product for SL, one getter per generator for
permutations).  Two consequences the rest of the toolkit relies on:

* the identity always has index 0;
* element indices — and therefore every witness, class representative and
  translator list derived from them — are identical across runs and
  platforms.

The enumeration also keeps what it computes on the way: one
right-multiplication table per generator, R_k[x] = x·g_k, and for each
element b the first tree edge b = parent·g_k that found it.  Cayley rows
walk that tree (a·b = (a·parent)·g_k, one numpy gather per layer), and
the same walk over the rows of the g_k^-1 gives the inverse array
(b^-1 = g_k^-1·parent^-1).  No row is kept: a caller that needs many
walks them through :meth:`FiniteGroup.row_batches`, ``ROW_BATCH``
entries at a time.  Conjugation by a generator is the table
inv[R_k[inv[R_k]]], and classes and centres are array operations on
those tables.  None of this depends on the group family.
``mul``/``mul_form``/``inv_form`` stay form-level, as the independent
path that witness replays use.

Subsets of a group are plain ``numpy`` boolean arrays over element indices.
Their algebra (:func:`inverse_mask`, :func:`product_mask`, subgroup and
normal closures through one closure loop, :func:`is_subgroup_mask`,
:func:`is_normal_mask`, commutators, quotient cosets as orbits) uses only
rows, the inverse array and class ids.  A union of conjugacy classes is
also a class vector, one boolean per class, and a product of two such
unions is one too.  Walks on class vectors step through
:meth:`FiniteGroup.class_table`, the support of the class-algebra
structure constants, at c booleans a step.  Every power and ball walk
{e}, S, S², ... is one :class:`Walk`, kept per class by a group with that
table (:meth:`FiniteGroup.class_walk_of`) or fresh (:func:`ball_walk`).

Group specs, element texts and the CLI's subset expressions share three
readers: a bracket splitter (at most ``MAX_NESTING`` deep, so no input
reaches the recursion limit), a ``name(body)`` reader and an integer
reader (ASCII digits after an optional '-').  Parsing builds no group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from operator import itemgetter
from typing import Callable

import numpy as np

from .errors import CapExceeded, InputError, SpecSyntaxError, confirm

DEFAULT_ORDER_CAP = 100_000
ROW_BATCH = 1 << 18  # Cayley-row entries walked at once, 2 MB of int64
# a group with c classes takes the c^3-byte class table when c^2 <= this
# times |G|: then the table is no larger than c cached int64 Cayley rows
CLASS_TABLE_FACTOR = 8


# --------------------------------------------------------------------------
# group specs


@dataclass(frozen=True)
class CycSpec:
    modulus: int


@dataclass(frozen=True)
class AbSpec:
    moduli: tuple[int, ...]


@dataclass(frozen=True)
class SymSpec:
    degree: int


@dataclass(frozen=True)
class AltSpec:
    degree: int


@dataclass(frozen=True)
class SLSpec:
    n: int
    p: int


@dataclass(frozen=True)
class CocycleExtSpec:
    """Central extension of ``base`` by Z/p along a 2-cocycle.

    ``values`` is the cocycle table h(x, y) flattened row-major over the
    *element indices of the built base group* (so the spec is only
    meaningful together with the deterministic enumeration of ``base``).
    """

    p: int
    base: "GroupSpec"
    values: tuple[int, ...]


@dataclass(frozen=True)
class QuotientSpec:
    """Quotient of ``parent`` by the normal closure of ``seeds``.

    ``seeds`` is ``"center"`` or a tuple of element forms read as
    :func:`parse_element` reads them in ``parent``.  Building the quotient
    resolves the subgroup, under the caller's order cap.
    """

    parent: "GroupSpec"
    seeds: tuple | str


@dataclass(frozen=True)
class ProductSpec:
    left: "GroupSpec"
    right: "GroupSpec"


GroupSpec = (
    CycSpec
    | AbSpec
    | SymSpec
    | AltSpec
    | SLSpec
    | CocycleExtSpec
    | QuotientSpec
    | ProductSpec
)


def _require(cond: bool, message: str, **details):
    if not cond:
        raise InputError("invalid_parameters", message, **details)


def require_prime(p: int, what: str):
    """Refuse a modulus that is not prime where a field F_p is assumed."""
    _require(p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1)),
             f"{what} needs a prime modulus", p=p)


# --------------------------------------------------------------------------
# form-level arithmetic helpers (tuples in, tuples out; no group needed)


def perm_compose(a: tuple, b: tuple) -> tuple:
    """(a∘b)(x) = a(b(x)): apply b first.  Images are 0-based tuples."""
    return tuple(a[bx] for bx in b)


def perm_inverse(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, ai in enumerate(a):
        out[ai] = i
    return tuple(out)


def mat_mul(a: tuple, b: tuple, n: int, p: int) -> tuple:
    out = [0] * (n * n)
    for i in range(n):
        row = i * n
        for k in range(n):
            aik = a[row + k]
            if aik:
                col = k * n
                for j in range(n):
                    out[row + j] += aik * b[col + j]
    return tuple(v % p for v in out)


def _mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Products mod p of two broadcasting stacks of residue matrices: the
    one mod-p matrix kernel, for SL enumeration and ``chevalley``'s checks."""
    # an entry of a product is a sum of n terms below p^2
    if a.shape[-1] * (p - 1) ** 2 >= 2 ** 63:
        raise CapExceeded("modulus_cap_exceeded",
                          "int64 matrix products overflow at this modulus",
                          n=a.shape[-1], p=p)
    return np.matmul(a, b) % p


def mat_identity(n: int) -> tuple:
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


def gauss_jordan(a: tuple, n: int, p: int) -> tuple[tuple | None, tuple | None]:
    """(a^-1, (L, D, U)) mod p from one Gauss-Jordan pass on [a | I] that
    pivots on the first nonzero entry of each column; a^-1 is None when a
    is singular.  a = L·D·U (L, U unitriangular) is read off the forward
    steps, as multipliers, pivots and pivot rows scaled to 1, when no pivot
    needs a row swap, i.e. no leading principal minor vanishes; otherwise
    the factors are None.  Returned factors are checked to multiply back.
    """
    m = [[a[i * n + j] % p for j in range(n)] + [int(i == j) for j in range(n)]
         for i in range(n)]
    L, D, U = list(mat_identity(n)), [0] * (n * n), [0] * (n * n)
    swapped = False
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return None, None
        swapped |= piv != col
        m[col], m[piv] = m[piv], m[col]
        D[col * n + col] = m[col][col]
        inv_p = pow(m[col][col], -1, p)
        m[col] = [(v * inv_p) % p for v in m[col]]
        U[col * n:col * n + n] = m[col][:n]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                if r > col:
                    L[r * n + col] = f * inv_p % p
                m[r] = [(v - f * w) % p for v, w in zip(m[r], m[col])]
    inverse = tuple(m[i][n + j] for i in range(n) for j in range(n))
    if swapped:
        return inverse, None
    confirm(mat_mul(mat_mul(L, D, n, p), U, n, p) == tuple(v % p for v in a),
            "L·D·U must multiply back to the matrix")
    return inverse, (tuple(L), tuple(D), tuple(U))


def mat_inverse(a: tuple, n: int, p: int) -> tuple:
    """Inverse mod p by :func:`gauss_jordan`; raises if a is singular."""
    inverse = gauss_jordan(a, n, p)[0]
    _require(inverse is not None, "singular matrix mod p")
    return inverse


# --------------------------------------------------------------------------
# per-family models: identity form, generator forms, multiplication, inverse


@dataclass
class _Model:
    identity: object
    generator_forms: list
    mul: Callable
    inv: Callable
    # the group a quotient (with its projection) or an extension came from
    parent: "FiniteGroup | None" = None
    parent_projection: "np.ndarray | None" = None
    # times(frontier) = [f·g for f in frontier for g in generator_forms],
    # in that order: every product of one BFS layer in one call; a family
    # without a batched product takes a comprehension over ``mul``
    times: Callable | None = None

    def __post_init__(self):
        if self.times is None:
            mul, gens = self.mul, self.generator_forms
            self.times = lambda frontier: [mul(f, g) for f in frontier
                                           for g in gens]


def check_order(factors, cap: int, what: str = "group order") -> None:
    """Refuse a group family whose order, the product of ``factors`` (each
    >= 1), exceeds ``cap``, with order_cap_exceeded; ``what`` names that
    product in the message.

    The running product stops once it passes both the cap and 10^100, so
    an order far above the cap is never multiplied out, and a refusal
    names the order only below that bound.
    """
    order, stop = 1, max(cap, 10 ** 100)
    for f in factors:
        order *= f
        if order > stop:
            raise CapExceeded("order_cap_exceeded",
                              f"{what} exceeds cap {cap}", cap=cap)
    if order > cap:
        raise CapExceeded("order_cap_exceeded",
                          f"{what} {order} exceeds cap {cap}",
                          cap=cap, order=order)


def _cyc_model(spec: CycSpec, cap: int) -> _Model:
    _require(spec.modulus >= 1, "Cyc modulus must be >= 1", modulus=spec.modulus)
    k = spec.modulus
    check_order((k,), cap)
    gens = [1 % k] if k > 1 else []
    return _Model(0, gens, lambda a, b: (a + b) % k, lambda a: (-a) % k)


def _ab_model(spec: AbSpec, cap: int) -> _Model:
    _require(len(spec.moduli) >= 1 and all(m >= 1 for m in spec.moduli),
             "Ab moduli must all be >= 1", moduli=spec.moduli)
    mods = spec.moduli
    check_order(mods, cap)
    ident = tuple(0 for _ in mods)
    gens = []
    for i, m in enumerate(mods):
        if m > 1:
            gens.append(tuple(1 if j == i else 0 for j in range(len(mods))))
    mul = lambda a, b: tuple((x + y) % m for x, y, m in zip(a, b, mods))
    inv = lambda a: tuple((-x) % m for x, m in zip(a, mods))
    return _Model(ident, gens, mul, inv)


def _sym_model(spec: SymSpec, cap: int) -> _Model:
    n = spec.degree
    _require(n >= 1, "Sym degree must be >= 1", degree=n)
    check_order(range(2, n + 1), cap)
    ident = tuple(range(n))
    gens = []
    if n >= 2:
        gens.append((1, 0) + tuple(range(2, n)))
    if n >= 3:
        gens.append(tuple(range(1, n)) + (0,))
    return _perm_model(ident, gens)


def _alt_model(spec: AltSpec, cap: int) -> _Model:
    n = spec.degree
    _require(n >= 1, "Alt degree must be >= 1", degree=n)
    check_order(range(3, n + 1), cap)  # n!/2, and 1 for n <= 2
    ident = tuple(range(n))
    gens = []
    if n >= 3:
        gens.append((1, 2, 0) + tuple(range(3, n)))
    if n >= 4:
        if n % 2 == 1:  # the n-cycle is even
            gens.append(tuple(range(1, n)) + (0,))
        else:  # (2,3,...,n): odd-length cycle, even permutation
            gens.append((0,) + tuple(range(2, n)) + (1,))
    return _perm_model(ident, gens)


def _perm_model(ident: tuple, gens: list) -> _Model:
    # f·g = f∘g reads f at the images of g; every generator moves at least
    # two points, so each getter returns a tuple
    getters = [itemgetter(*g) for g in gens]

    def times(frontier):
        return [get(f) for f in frontier for get in getters]
    return _Model(ident, gens, perm_compose, perm_inverse, times=times)


def _sl_model(spec: SLSpec, cap: int) -> _Model:
    n, p = spec.n, spec.p
    _require(n >= 2, "SL needs n >= 2", n=n)
    _require(p >= 2, "SL needs a prime modulus", p=p)  # so the order grows
    # |SL(n,p)| = prod over i = 2..n of p^(i-1)·(p^i - 1), checked against
    # the cap before the primality test, which is slow for a large p
    check_order((f for i in range(2, n + 1)
                  for f in (p ** (i - 1), p ** i - 1)), cap)
    require_prime(p, "SL")
    ident = mat_identity(n)
    gens = []
    for i in range(n):
        for j in range(n):
            if i != j:
                g = list(ident)
                g[i * n + j] = 1
                gens.append(tuple(g))
    stack = np.array(gens, dtype=np.int64).reshape(-1, n, n)

    def times(frontier):
        f = np.array(frontier, dtype=np.int64).reshape(-1, 1, n, n)
        return list(map(tuple, _mul_mod(f, stack, p).reshape(-1, n * n).tolist()))
    return _Model(ident, gens,
                  lambda a, b: mat_mul(a, b, n, p),
                  lambda a: mat_inverse(a, n, p), times=times)


def _cocycle_model(spec: CocycleExtSpec, cap: int,
                   base: FiniteGroup | None = None) -> _Model:
    """The model of Z/p x_h H, on ``base`` when the built H is given."""
    p = spec.p
    _require(p >= 2, "extension modulus must be >= 2", p=p)
    if base is None:
        base = build_group(spec.base, cap=cap)
    m = base.order
    check_order((p, m), cap)
    _require(len(spec.values) == m * m,
             "cocycle table must have |H|^2 entries",
             expected=m * m, got=len(spec.values))
    h = [v % p for v in spec.values]
    h11 = h[0]  # h(e, e): identity has index 0

    def mul(a, b):
        (x, xf), (y, yf) = a, b
        xi, yi = base.index[xf], base.index[yf]
        return ((x + y + h[xi * m + yi]) % p, base.elements[base.mul(xi, yi)])

    def inv(a):
        x, xf = a
        xi = base.index[xf]
        xinv = base.inv(xi)
        return ((-x - h[xi * m + xinv] - h11) % p, base.elements[xinv])

    ident = ((-h11) % p, base.elements[0])
    gens = [((1 - h11) % p, base.elements[0])]
    gens += [(0, base.elements[g]) for g in base.generators]
    return _Model(ident, gens, mul, inv, parent=base)


def _quotient_model(spec: QuotientSpec, cap: int) -> _Model:
    parent = build_group(spec.parent, cap=cap)
    if spec.seeds == "center":
        nmask = parent.center_mask()
    else:
        seeds = [_form_index(parent, f, form_to_text(spec.parent, f))
                 for f in spec.seeds]
        nmask = parent.normal_closure_mask(mask_from_indices(parent, seeds))
    # coset representative = lowest parent index in the coset; the cosets
    # x·N are the orbits of x ↦ x·s over the seeds s that generate N
    rep_of = _orbit_min(parent._generate(np.flatnonzero(nmask))[1])

    def mul(a, b):
        pa, pb = parent.index[a], parent.index[b]
        return parent.elements[rep_of[parent.mul(pa, pb)]]

    def inv(a):
        return parent.elements[rep_of[parent.inv(parent.index[a])]]

    gens = []
    seen = set()
    for g in parent.generators:
        f = parent.elements[rep_of[g]]
        if f not in seen:
            seen.add(f)
            gens.append(f)
    projection = rep_of  # parent index -> parent index of coset rep
    return _Model(parent.elements[rep_of[0]], gens, mul, inv,
                  parent=parent, parent_projection=projection)


def _product_model(spec: ProductSpec, cap: int) -> _Model:
    left = build_group(spec.left, cap=cap)
    right = build_group(spec.right, cap=cap)
    check_order((left.order, right.order), cap)
    lm, rm = left._model, right._model
    ident = (lm.identity, rm.identity)
    gens = [(g, rm.identity) for g in (left.elements[i] for i in left.generators)]
    gens += [(lm.identity, g) for g in (right.elements[i] for i in right.generators)]
    mul = lambda a, b: (lm.mul(a[0], b[0]), rm.mul(a[1], b[1]))
    inv = lambda a: (lm.inv(a[0]), rm.inv(a[1]))
    return _Model(ident, gens, mul, inv)


def _model_for(spec: GroupSpec, cap: int) -> _Model:
    match spec:
        case CycSpec():
            return _cyc_model(spec, cap)
        case AbSpec():
            return _ab_model(spec, cap)
        case SymSpec():
            return _sym_model(spec, cap)
        case AltSpec():
            return _alt_model(spec, cap)
        case SLSpec():
            return _sl_model(spec, cap)
        case CocycleExtSpec():
            return _cocycle_model(spec, cap)
        case QuotientSpec():
            return _quotient_model(spec, cap)
        case ProductSpec():
            return _product_model(spec, cap)
    raise InputError("invalid_parameters", f"unknown group spec {spec!r}")


# --------------------------------------------------------------------------
# the group object


class _CayleyTree:
    """Right-multiplication tables and the BFS tree of the enumeration.

    ``right[k, x]`` is the index of x·g_k for the k-th generator form.  Each
    element b other than e keeps the first edge that found it, b = p·g_k
    with p in an earlier layer.  Since a·b = (a·p)·g_k, a whole Cayley row
    follows from its first entry a·e = a by one gather per layer, and a
    batch of rows by the same gathers on one column per row.

    The same walk from e over the Cayley rows of the g_k^-1 gives the
    inverses, since b^-1 = g_k^-1·p^-1.

    A numpy call costs about as much as fifteen elements walked in plain
    Python, so a tree whose layers average fewer than sixteen elements (a
    long cycle has one per layer) is walked element by element instead.
    A batch of rows takes the same rule on all its elements: it is walked
    start by start while it has fewer elements than sixteen per layer, and
    by layer otherwise.
    """

    def __init__(self, right: list, edges: list, layer_ends: list, n_gens: int):
        n = len(edges) + 1
        self.right = np.array(right, dtype=np.int64).reshape(n, n_gens).T.copy()
        # entry b - 1 describes element b: its parent, and the offset k * n
        # of the table of g_k in the flattened tables
        edges = np.array(edges, dtype=np.int64)
        n_gens = max(n_gens, 1)
        self._parent, self._offset = edges // n_gens, (edges % n_gens) * n
        self._layer_ends = layer_ends
        self._thin_size = 16 * (len(layer_ends) - 1)
        self._thin = None
        if n < self._thin_size:
            self._thin = list(zip(self._parent.tolist(), self._offset.tolist()))
        self._flat_right = self._flat(self.right)

    @cached_property
    def _steps(self) -> list:
        """Each layer [lo, hi) after {e}, with the parents and table offsets
        of its elements; built on the first layered walk."""
        ends, parent, offset = self._layer_ends, self._parent, self._offset
        return [(lo, hi, parent[lo - 1:hi - 1], offset[lo - 1:hi - 1])
                for lo, hi in zip(ends, ends[1:])]

    def _flat(self, tables: np.ndarray):
        """One table per generator, flattened the way :meth:`_walk` reads them."""
        flat = tables.ravel()
        return flat.tolist() if self._thin is not None else flat

    def _walk(self, start: int, flat) -> np.ndarray:
        """w[0] = start and w[b] = T_k[w[p]] along every tree edge b = p·g_k."""
        n = self.right.shape[1]
        if self._thin is not None:
            w = [start] * n
            for b, (p, k_n) in enumerate(self._thin, start=1):
                w[b] = flat[k_n + w[p]]
            return np.array(w, dtype=np.int64)
        w = np.empty(n, dtype=np.int64)
        w[0] = start
        for lo, hi, parent, offset in self._steps:
            w[lo:hi] = flat[offset + w[parent]]
        return w

    def row(self, a: int) -> np.ndarray:
        return self._walk(a, self._flat_right)

    def rows(self, starts: np.ndarray) -> np.ndarray:
        """row(a) for each a in ``starts``, one per line: the layered walk
        on one column per start, or start by start on a thin tree when the
        batch is small."""
        n = self.right.shape[1]
        if len(starts) * n < self._thin_size:
            return np.array([self.row(a) for a in starts.tolist()],
                            dtype=np.int64).reshape(len(starts), n)
        w = np.empty((n, len(starts)), dtype=np.int64)
        w[0] = starts
        flat = self.right.ravel()
        for lo, hi, parent, offset in self._steps:
            w[lo:hi] = flat[offset[:, None] + w[parent]]
        return w.T

    def inverses(self) -> np.ndarray:
        # x·g_k = e exactly at x = g_k^-1, the only 0 in the table of g_k
        lefts = self.rows(self.right.argmin(axis=1))
        return self._walk(0, self._flat(lefts))


class FiniteGroup:
    """Concrete finite group: canonical forms + index-level arithmetic.

    Elements are addressed by index into ``elements``; index 0 is the
    identity.  ``mul_form``/``inv_form`` expose the raw form-level
    operations, which the CLI uses as an independent replay path when
    re-verifying witnesses.
    """

    def __init__(self, spec: GroupSpec, model: _Model, elements: list,
                 index: dict, tree: _CayleyTree):
        self.spec = spec
        self._model = model
        self.elements = elements
        self.order = len(elements)
        self.index = index  # form -> index into ``elements``
        self._tree = tree
        gens = []
        for g in model.generator_forms:
            gi = self.index[g]
            if gi not in gens and gi != 0:
                gens.append(gi)
        self.generators = tuple(gens)
        self._inv_arr: np.ndarray | None = None
        self._conj: np.ndarray | None = None
        self._classes = None
        self._class_table: np.ndarray | None = None
        self._class_walks: dict = {"power": {}, "ball": {}}
        self._center: np.ndarray | None = None
        self._derived: np.ndarray | None = None

    @property
    def parent(self) -> FiniteGroup | None:
        """The group this one came from: a quotient's parent, an
        extension's base, None for any other group."""
        return self._model.parent

    # -- arithmetic on indices

    def mul(self, a: int, b: int) -> int:
        return self.index[self._model.mul(self.elements[a], self.elements[b])]

    def inverses(self) -> np.ndarray:
        """inverses()[a] = index of a^-1, from the enumeration tree."""
        if self._inv_arr is None:
            self._inv_arr = self._tree.inverses()
        return self._inv_arr

    def inv(self, a: int) -> int:
        return int(self.inverses()[a])

    def mul_form(self, fa, fb):
        return self._model.mul(fa, fb)

    def inv_form(self, fa):
        return self._model.inv(fa)

    def conj(self, a: int, b: int) -> int:
        """a^b = b^-1 a b."""
        return self.mul(self.mul(self.inv(b), a), b)

    def comm(self, a: int, b: int) -> int:
        """[a, b] = a^-1 b^-1 a b."""
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(a), -k)
        acc, base = 0, a
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def row(self, a: int) -> np.ndarray:
        """Cayley row: row(a)[b] = index of a*b, walked afresh on each call."""
        return self._tree.row(a)

    def rows(self, elements: np.ndarray) -> np.ndarray:
        """Cayley rows of several elements, one per line, walked together;
        none is kept."""
        return self._tree.rows(elements)

    def row_batches(self, elements):
        """Yield (lo, rows of elements[lo:lo + k]) over ``elements``, with at
        most ``ROW_BATCH`` row entries per batch: the one path for a caller
        that needs many rows, which then holds one batch at a time, not
        len(elements)·|G| int64s at once."""
        elements = np.asarray(elements, dtype=np.int64)
        step = max(1, ROW_BATCH // self.order)
        for lo in range(0, len(elements), step):
            yield lo, self.rows(elements[lo:lo + step])

    def _conjugations(self) -> np.ndarray:
        """conj[k, x] = g_k^-1 x g_k for the k-th generator form, from the tables."""
        if self._conj is None:
            inv, right = self.inverses(), self._tree.right
            self._conj = inv[np.take_along_axis(right, inv[right], axis=1)]
        return self._conj

    # -- structure

    def conjugacy_classes(self):
        """(class_id array, list of class representatives in index order)."""
        if self._classes is None:
            label = _orbit_min(self._conjugations())
            reps = np.flatnonzero(label == np.arange(self.order))
            self._classes = (np.searchsorted(reps, label), reps.tolist())
        return self._classes

    def class_table(self) -> np.ndarray:
        """T[i, j, k] = class k meets C_i·C_j, over the classes of
        :meth:`conjugacy_classes`, cached.

        C_i·C_j is a union of classes, and class k meets it iff it meets
        r_i·C_j for the representative r_i: c·b = g·(r_i·b^g)·g^-1 for
        c = g·r_i·g^-1.  So the rows of the representatives, walked by
        :meth:`row_batches`, fill T.
        """
        if self._class_table is None:
            cid, reps = self.conjugacy_classes()
            T = np.zeros((len(reps),) * 3, dtype=bool)
            for lo, rows in self.row_batches(reps):
                i = np.arange(lo, lo + len(rows))
                T[i[:, None], cid, cid[rows]] = True
            self._class_table = T
        return self._class_table

    def class_walk_of(self, kind: str, i: int, limit: float = math.inf,
                      target: int | None = None) -> Walk:
        """The walk {e}, S, S², ... for S = C_i (kind "power") or
        S = C_i ∪ C_i^-1 ∪ {e} (kind "ball": its n-th state is the class
        ball (C_i ∪ C_i^-1)^{<=n}), advanced to ``limit`` steps or to
        class ``target`` (:meth:`Walk.advance`).  A group with a class
        table keeps its walks, one per power and per class-inverse pair of
        balls, and goes on from where the last call stopped; a larger
        group walks afresh and keeps none.
        """
        walk = self._class_walks[kind].get(i)
        if walk is not None and walk.stopped(limit, target):
            return walk
        cid, reps = self.conjugacy_classes()
        classes = [i, int(cid[self.inverses()[reps[i]]])] if kind == "ball" else [i]
        s = np.zeros(len(reps), dtype=bool)
        s[classes] = True
        s[0] |= kind == "ball"
        walk = walk or Walk(len(reps))
        walk.advance(_class_step(self, s), limit, target)
        if self._class_table is not None:  # built by the steps of a table-sized group
            self._class_walks[kind].update(dict.fromkeys(classes, walk))
        return walk

    def class_mask(self, a: int) -> np.ndarray:
        cid, _ = self.conjugacy_classes()
        return cid == cid[a]

    def center_mask(self) -> np.ndarray:
        if self._center is None:
            self._center = (self._conjugations() == np.arange(self.order)).all(axis=0)
        return self._center

    def subgroup_closure(self, seeds) -> np.ndarray:
        """Mask of the subgroup generated by the given element indices."""
        return self._generate(seeds)[0]

    def _generate(self, seeds) -> tuple[np.ndarray, np.ndarray]:
        """The subgroup H = <seeds> as a mask, and maps x ↦ x·s generating it.

        H is the closure of {e} under the maps x ↦ x·s.  Only a seed outside
        the subgroup so far gets a map, and each such seed at least doubles
        it, so there are at most log2 |H| maps; their orbits are the cosets
        x·H.
        """
        mask = np.zeros(self.order, dtype=bool)
        mask[0] = True
        maps = np.empty((0, self.order), dtype=np.int64)
        for s in np.atleast_1d(np.asarray(seeds, dtype=np.int64)).tolist():
            if not mask[s]:
                maps = np.vstack([maps, self.right_map(s)])
                mask = _close(mask, maps)
        return mask, maps

    def right_map(self, s: int) -> np.ndarray:
        """x ↦ x·s as an index map: x·s = (s^-1·x^-1)^-1, a gather on the
        Cayley row of s^-1."""
        inv = self.inverses()
        return inv[self.row(int(inv[s]))[inv]]

    def normal_closure_mask(self, seed_mask: np.ndarray) -> np.ndarray:
        closed = _close(seed_mask, self._conjugations())
        return self.subgroup_closure(np.flatnonzero(closed))

    def derived_mask(self) -> np.ndarray:
        """[G, G], from :func:`derived_subgroup`, cached."""
        if self._derived is None:
            self._derived = derived_subgroup(self, np.ones(self.order, dtype=bool))
        return self._derived

    def is_abelian(self) -> bool:
        return bool(self.center_mask().all())

    def is_perfect(self) -> bool:
        return bool(self.derived_mask().all())


def build_group(spec: GroupSpec, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Enumerate the group described by ``spec``.

    Layered BFS over right multiplication by the canonical generators, with
    the products of each layer from one ``model.times`` call; each new
    layer is sorted by canonical form before being assigned indices, which
    pins the numbering.  Raises ``order_cap_exceeded`` when the family's
    order exceeds ``cap``, before any element is enumerated, and once more
    than ``cap`` elements have been discovered.
    """
    return _enumerate(spec, _model_for(spec, cap), cap)


def _enumerate(spec: GroupSpec, model: _Model, cap: int) -> FiniteGroup:
    """The group of ``model``, enumerated as :func:`build_group` says."""
    elements = [model.identity]
    index = {model.identity: 0}
    # right[x * len(gens) + k] = index of x·g_k, in scan order; a product
    # that is new holds its form until its layer is numbered
    right: list = []
    edges: list[int] = []  # position in `right` of each new element's first edge
    layer_ends = [1]
    frontier = [model.identity]
    while frontier:
        found: dict = {}
        pending = []
        for h in model.times(frontier):
            i = index.get(h)
            if i is None:
                found.setdefault(h, len(right))
                pending.append(len(right))
                i = h
            right.append(i)
        frontier = sorted(found)
        for h in frontier:
            index[h] = len(elements)
            elements.append(h)
            edges.append(found[h])
            if len(elements) > cap:
                raise CapExceeded("order_cap_exceeded",
                                  f"enumeration exceeded cap {cap}", cap=cap)
        for pos in pending:
            right[pos] = index[right[pos]]
        layer_ends.append(len(elements))
    return FiniteGroup(spec, model, elements, index, _CayleyTree(
        right, edges, layer_ends[:-1], len(model.generator_forms)))


# --------------------------------------------------------------------------
# subset-mask arithmetic


def mask_from_indices(G: FiniteGroup, indices) -> np.ndarray:
    mask = np.zeros(G.order, dtype=bool)
    mask[np.asarray(list(indices), dtype=np.int64)] = True
    return mask


def _close(mask: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Least superset of ``mask`` that every index map ``maps[k]`` keeps."""
    closed, new = mask.copy(), mask
    while new.any():
        hit = np.zeros_like(closed)
        hit[maps[:, new]] = True
        new = hit & ~closed
        closed |= new
    return closed


def _orbit_min(maps: np.ndarray) -> np.ndarray:
    """label[x] = least element of the orbit of x under the permutations maps[k]."""
    moves = np.concatenate([maps, np.argsort(maps, axis=1)])
    # each label is an element of its own orbit and never above its index;
    # pulling the least label along the maps both ways and jumping to the
    # label's label stops at the least orbit member
    label = np.arange(maps.shape[1])
    while True:
        low = np.minimum(label, label[moves].min(axis=0, initial=len(label)))
        low = low[low]
        if np.array_equal(low, label):
            return label
        label = low


def inverse_mask(G: FiniteGroup, mask: np.ndarray) -> np.ndarray:
    return mask[G.inverses()]


def product_mask(G: FiniteGroup, a_mask: np.ndarray, b_mask: np.ndarray) -> np.ndarray:
    """{a*b : a in A, b in B} as a mask.

    When A and B are unions of classes, so is A·B, which takes one
    :func:`_class_step` on their class vectors.  Other sets walk the rows of
    the smaller factor through :meth:`FiniteGroup.row_batches`: the rows of
    A read at B, or, when B is the smaller, the rows of B^-1 read at A^-1,
    since A·B = (B^-1·A^-1)^-1.
    """
    a_idx, b_idx = np.flatnonzero(a_mask), np.flatnonzero(b_mask)
    if len(b_idx) == 0:
        return np.zeros(G.order, dtype=bool)
    if is_normal_mask(G, a_mask) and is_normal_mask(G, b_mask):
        cid, reps = G.conjugacy_classes()
        return _class_step(G, b_mask[reps])(a_mask[reps])[cid]
    out = np.zeros(G.order, dtype=bool)
    if len(a_idx) <= len(b_idx):
        for _, rows in G.row_batches(a_idx):
            out[rows[:, b_idx]] = True
        return out
    inv = G.inverses()
    for _, rows in G.row_batches(inv[b_idx]):
        out[rows[:, inv[a_idx]]] = True
    return out[inv]


def _class_step(G: FiniteGroup, s: np.ndarray) -> Callable:
    """The map a ↦ a·s on class vectors, for the class vector s.

    A group with c^2 <= CLASS_TABLE_FACTOR·|G| takes it from its class
    table: M[i, k] = class k meets C_i·S, and a·s is the union of the
    rows M[i] over the classes i of a.  M is a view of the table when S
    is one class; when S has two or three (a class ball's step), each step
    gathers the table at a's and S's classes instead, at no more cost than
    building M.  A larger group (an abelian one has
    c = |G|) builds no table and takes the classes of r_i·S, which meets
    the same classes as C_i·S, over the representatives r_i of a: from
    the rows of the r_i, walked by :meth:`FiniteGroup.row_batches`, or,
    when S has no more elements than a has classes, from the right maps
    x ↦ x·b = (b^-1·x^-1)^-1 of the elements b of S.  Those maps are built
    once per walk, on the first step that takes them, and kept by the step
    only, so a long walk walks |S| rows, not one per class it visits.
    """
    cid, reps = G.conjugacy_classes()
    if len(reps) ** 2 <= CLASS_TABLE_FACTOR * G.order:
        T, s_idx = G.class_table(), np.flatnonzero(s)
        if 1 < len(s_idx) <= 3:
            return lambda a: T[np.flatnonzero(a)[:, None], s_idx].any(axis=(0, 1))
        M = T[:, s_idx[0]] if len(s_idx) == 1 else T[:, s].any(axis=1)
        return lambda a: M[a].any(axis=0)
    b_idx = np.flatnonzero(s[cid])
    inv, reps = G.inverses(), np.asarray(reps)

    @cache
    def right_maps() -> np.ndarray:
        return inv[G.rows(inv[b_idx])[:, inv]]

    def step(a):
        hit = np.zeros(len(reps), dtype=bool)
        r = reps[a]
        if len(b_idx) <= len(r):
            hit[cid[right_maps()[:, r]]] = True
        else:
            for _, rows in G.row_batches(r):
                hit[cid[rows[:, b_idx]]] = True
        return hit
    return step


class Walk:
    """The walk {e}, S, S², ... of a step a ↦ a·S on masks or class
    vectors, taken only as far as callers ask: ``k`` steps are taken and
    ``state`` is S^k; ``done`` says that S^(k+1) repeats an earlier state;
    ``full`` is the least k whose state is all of G, where the walk stops
    (G·S = G), or None.  It holds the states passed, one byte an element
    or class, for the repeat test, :meth:`states` and :meth:`first`, but
    no step and no group, so a kept walk leaves a dropped group free.
    """

    __slots__ = ("k", "done", "full", "_seen")

    def __init__(self, n: int):
        self.k, self.done, self.full = 0, False, 0 if n == 1 else None
        self._seen = {(np.arange(n) == 0).tobytes(): None}  # the states, in order

    @property
    def state(self) -> np.ndarray:
        return np.frombuffer(next(reversed(self._seen)), dtype=bool)

    def states(self) -> list[np.ndarray]:
        """S^0, ..., S^k."""
        return [np.frombuffer(key, dtype=bool) for key in self._seen]

    def first(self, l: int) -> int | None:
        """The least k whose state meets l, or None while none has."""
        return next((k for k, state in enumerate(self._seen) if state[l]), None)

    def stopped(self, limit: float, target: int | None) -> bool:
        """Over, ``limit`` steps long, all of G (for good) or at ``target``?"""
        return (self.done or self.k >= limit or self.full is not None
                or (target is not None and self.first(target) is not None))

    def advance(self, step: Callable, limit: float, target: int | None = None) -> Walk:
        """Take steps a ↦ step(a) until :meth:`stopped` holds."""
        cur, stop = self.state, self.stopped(limit, target)
        while not stop:
            cur = step(cur)
            key = cur.tobytes()
            self.done = stop = key in self._seen
            if not stop:
                self._seen[key] = None
                self.k += 1
                self.full = self.k if b"\0" not in key else None
                stop = (self.k >= limit or self.full is not None
                        or (target is not None and key[target]))
        return self


def ball_walk(G: FiniteGroup, mask: np.ndarray, limit: float) -> Walk:
    """The walk of masks whose n-th state is the ball A^{<=n} = (A ∪ {e})^n,
    the union of A^0 = {e}, ..., A^n, advanced ``limit`` steps or until it
    stops: by one :func:`_class_step` on class vectors when A ∪ {e} is a
    union of classes, and by :func:`product_mask` otherwise."""
    s = mask | (np.arange(G.order) == 0)
    step = lambda cur: product_mask(G, cur, s)
    if is_normal_mask(G, s):
        cid, reps = G.conjugacy_classes()
        class_step = _class_step(G, s[reps])
        step = lambda cur: class_step(cur[reps])[cid]
    return Walk(G.order).advance(step, limit)


def ball_mask(G: FiniteGroup, mask: np.ndarray, n: int) -> np.ndarray:
    """A^{<=n} = union of A^0..A^n, with A^0 = {e}: the state of
    :func:`ball_walk` after n steps."""
    return ball_walk(G, mask, n).state.copy()


def is_subgroup_mask(G: FiniteGroup, mask: np.ndarray) -> bool:
    """e in S and S·S ⊆ S, which in a finite group makes S a subgroup."""
    return bool(mask[0] and (product_mask(G, mask, mask) <= mask).all())


def derived_subgroup(G: FiniteGroup, H: np.ndarray) -> np.ndarray:
    """[H, H] for a subgroup mask H: the normal closure in H of the
    commutators of the generators s_k that ``G._generate`` keeps for H.

    With maps[k] = x ↦ x·s_k, conjugation x ↦ s^-1·x·s = (x^-1·s)^-1·s and
    [a, b] = (a^-1·b^-1·a)·b are gathers on those maps.
    """
    inv = G.inverses()
    _, maps = G._generate(np.flatnonzero(H))
    conj = np.take_along_axis(maps, inv[maps[:, inv]], axis=1)
    seeds = np.zeros(G.order, dtype=bool)
    seeds[maps[np.arange(len(maps)), conj[:, inv[maps[:, 0]]]]] = True
    return G.subgroup_closure(np.flatnonzero(_close(seeds, conj)))


def is_symmetric_mask(G: FiniteGroup, mask: np.ndarray) -> bool:
    return bool((inverse_mask(G, mask) == mask).all())


def is_normal_mask(G: FiniteGroup, mask: np.ndarray) -> bool:
    """Is the set a union of conjugacy classes?"""
    cid, reps = G.conjugacy_classes()
    return bool((mask == mask[reps][cid]).all())


def quotient_projection(Q: FiniteGroup) -> np.ndarray:
    """For a quotient group: array mapping parent index -> quotient index."""
    rep_of = Q._model.parent_projection
    if rep_of is None:
        raise InputError("group_mismatch", "projection needs a quotient group")
    return np.array([Q.index[Q.parent.elements[int(r)]] for r in rep_of],
                    dtype=np.int64)


# --------------------------------------------------------------------------
# abelian structure


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def abelian_invariants(G: FiniteGroup) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of an abelian group.

    Recovered from element-order statistics: for each prime p, the count of
    elements with x^{p^k} = e determines the conjugate of the p-part
    partition; parts are then combined across primes by divisibility.
    """
    if not G.is_abelian():
        raise InputError("not_abelian", "invariant factors need an abelian group")
    if G.order == 1:
        return ()
    partitions = {}
    for p in _prime_factors(G.order):
        logs = [0]  # log_p #{x : x^{p^k} = e}, starting at k = 0
        k = 1
        while True:
            cnt = sum(1 for x in range(G.order) if G.power(x, p**k) == 0)
            e = round(math.log(cnt, p))
            confirm(p**e == cnt, "order-dividing count must be a p-power")
            logs.append(e)
            if e == logs[-2]:
                break
            k += 1
        diffs = [logs[i + 1] - logs[i] for i in range(len(logs) - 1)]
        # diffs[k] = #{parts of the p-type partition >= k+1}; conjugate back
        parts = []
        for i, d in enumerate(diffs):
            parts += [i + 1] * (d - (diffs[i + 1] if i + 1 < len(diffs) else 0))
        partitions[p] = sorted(parts, reverse=True)
    width = max(len(v) for v in partitions.values())
    factors = []
    for j in range(width):
        f = 1
        for p, parts in partitions.items():
            if j < len(parts):
                f *= p ** parts[j]
        factors.append(f)
    return tuple(sorted(factors))


# --------------------------------------------------------------------------
# reports


def commutator_mask(G: FiniteGroup) -> np.ndarray:
    """The commutators [a, b] = a^-1·a^b: the union of the sets a^-1·cl(a)."""
    cid, _ = G.conjugacy_classes()
    comms = np.zeros(G.order, dtype=bool)
    for lo, rows in G.row_batches(G.inverses()):
        comms[rows[cid[lo:lo + len(rows), None] == cid]] = True
    return comms


def commutator_width(G: FiniteGroup) -> int:
    """Least n with every element of [G,G] a product of n commutators."""
    comms = commutator_mask(G)
    derived = G.derived_mask()
    confirm((comms <= derived).all(), "a commutator lies outside [G, G]")
    # e = [a, a] is a commutator, so the powers of the commutators are
    # their balls, which grow inside [G, G] until they stop there
    return max(ball_walk(G, comms, math.inf).k, 1)


# --------------------------------------------------------------------------
# text grammar: readers of spans [start, end) of one text, so that every
# error position points into the text the caller gave


MAX_NESTING = 64  # deepest bracket nesting inside one pair of brackets


def _split_top_level(text: str, seps: str, start: int,
                     end: int) -> list[tuple[int, int]]:
    """Spans of the parts of text[start:end] between top-level separators.

    A separator is a character of ``seps`` outside every bracket; ``(`` and
    ``[`` open a bracket, ``)`` and ``]`` close one.  Unbalanced brackets,
    and brackets nested deeper than MAX_NESTING, are syntax errors.  One
    pass over the characters.
    """
    spans, depth, lo = [], 0, start
    for i, ch in enumerate(text[start:end], start):
        if ch in "([":
            depth += 1
            if depth > MAX_NESTING:
                raise SpecSyntaxError(
                    i, f"brackets nested at most {MAX_NESTING} deep", text)
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise SpecSyntaxError(i, "balanced brackets", text)
        elif depth == 0 and ch in seps:
            spans.append((lo, i))
            lo = i + 1
    if depth:
        raise SpecSyntaxError(end, "a closing bracket", text)
    spans.append((lo, end))
    return spans


def _call(text: str, start: int, end: int | None, names,
          expected: str) -> tuple[str, int, int]:
    """The name and the body's span of ``name(body)``, which fills
    text[start:end] up to blanks; the body is not scanned here.  A name
    outside ``names`` is a syntax error at the name, ``expected`` its hint."""
    end = len(text) if end is None else end
    open_ = text.find("(", start, end)
    name = text[start:open_].strip()
    if open_ < 0 or name not in names:
        raise SpecSyntaxError(end - len(text[start:end].lstrip()), expected, text)
    close = open_ + len(text[open_:end].rstrip()) - 1
    if text[close] != ")" or close == open_:
        raise SpecSyntaxError(close + 1, "')'", text)
    return name, open_ + 1, close


def _integer(text: str, start: int = 0, end: int | None = None) -> int:
    """The integer in text[start:end]: ASCII digits after an optional '-',
    with blanks around them."""
    end = len(text) if end is None else end
    token = text[start:end].strip()
    digits = token.removeprefix("-")
    if digits.isdigit() and digits.isascii():
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise SpecSyntaxError(end - len(text[start:end].lstrip()), "an integer", text)


def _integers(text: str, start: int = 0, end: int | None = None) -> list[int]:
    """The comma-separated integers in text[start:end]; no bracket is part
    of an integer, so a plain split accepts what a top-level split would."""
    end = len(text) if end is None else end
    out = []
    for part in text[start:end].split(","):
        out.append(_integer(text, start, start + len(part)))
        start += len(part) + 1
    return out


# --------------------------------------------------------------------------
# element text forms (used by the CLI and reports)


def _cycles_of(perm: tuple) -> list[list[int]]:
    seen, cycles = set(), []
    for s in range(len(perm)):
        if s in seen or perm[s] == s:
            continue
        cyc, x = [], s
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = perm[x]
        cycles.append(cyc)
    return cycles


def perm_to_text(perm: tuple) -> str:
    cycles = _cycles_of(perm)
    if not cycles:
        return "e"
    return "".join("(" + ",".join(str(x + 1) for x in c) + ")" for c in cycles)


def text_to_perm(text: str, degree: int) -> tuple:
    """0-based images of disjoint cycles such as ``(1,2)(3,4)``; the
    identity is ``e``, ``()`` or ``id``."""
    text = text.strip()
    images = list(range(degree))
    if text in ("e", "()", "id"):
        return tuple(images)
    if not (text.startswith("(") and text.endswith(")")):
        raise SpecSyntaxError(0, "cycles such as (1,2)(3,4)", text)
    pos, touched = 1, set()
    for body in text[1:-1].split(")("):
        pts = [v - 1 for v in _integers(text, pos, pos + len(body))]
        if any(x < 0 or x >= degree for x in pts):
            raise SpecSyntaxError(pos, f"points in 1..{degree}", text)
        if len(set(pts)) != len(pts) or touched & set(pts):
            raise SpecSyntaxError(pos, "disjoint cycles", text)
        touched |= set(pts)
        for i, x in enumerate(pts):
            images[x] = pts[(i + 1) % len(pts)]
        pos += len(body) + 2
    return tuple(images)


def form_to_text(spec: GroupSpec, form) -> str:
    match spec:
        case CycSpec():
            return str(form)
        case AbSpec():
            return "(" + ",".join(str(x) for x in form) + ")"
        case SymSpec() | AltSpec():
            return perm_to_text(form)
        case SLSpec():
            return ",".join(str(x) for x in form)
        case CocycleExtSpec(base=base):
            return f"[{form[0]}|{form_to_text(base, form[1])}]"
        case QuotientSpec(parent=parent):
            return form_to_text(parent, form)
        case ProductSpec(left=left, right=right):
            return f"[{form_to_text(left, form[0])}|{form_to_text(right, form[1])}]"
    raise InputError("invalid_parameters", f"unknown spec {spec!r}")


def _pair(text: str) -> list[str]:
    """The two sides of ``[left|right]``."""
    if not (text.startswith("[") and text.endswith("]")):
        raise SpecSyntaxError(0, "'[left|right]'", text)
    sides = _split_top_level(text, "|", 1, len(text) - 1)
    if len(sides) != 2:
        raise SpecSyntaxError(len(text) - 1, "one top-level '|'", text)
    return [text[i:j] for i, j in sides]


def text_to_form(spec: GroupSpec, text: str):
    text = text.strip()
    try:
        match spec:
            case CycSpec(modulus=k):
                return _integer(text) % k
            case AbSpec(moduli=mods):
                parens = text.startswith("(") and text.endswith(")")
                vals = _integers(text, 1, len(text) - 1) if parens else _integers(text)
                if len(vals) != len(mods):
                    raise SpecSyntaxError(0, f"{len(mods)} coordinates", text)
                return tuple(v % m for v, m in zip(vals, mods))
            case SymSpec(degree=n) | AltSpec(degree=n):
                return text_to_perm(text, n)
            case SLSpec(n=n, p=p):
                vals = [v % p for v in _integers(text)]
                if len(vals) != n * n:
                    raise SpecSyntaxError(0, f"{n * n} entries", text)
                return tuple(vals)
            case CocycleExtSpec(p=p, base=base):
                l, r = _pair(text)
                return (_integer(l) % p, text_to_form(base, r))
            case QuotientSpec(parent=parent):
                return text_to_form(parent, text)
            case ProductSpec(left=left, right=right):
                l, r = _pair(text)
                return (text_to_form(left, l), text_to_form(right, r))
    except ZeroDivisionError:  # a modulus 0, which building the group refuses
        raise InputError("invalid_parameters", "modulus must be >= 1",
                         spec=repr(spec)) from None
    raise InputError("invalid_parameters", f"unknown spec {spec!r}")


def parse_element(G: FiniteGroup, text: str) -> int:
    """Element index from its text form; quotient input names a parent element."""
    text = text.strip()
    return _form_index(G, text_to_form(G.spec, text), text)


def _form_index(G: FiniteGroup, form, text: str) -> int:
    if isinstance(G.spec, QuotientSpec):
        rep = G._model.parent_projection[_form_index(G.parent, form, text)]
        return G.index[G.parent.elements[rep]]
    if form not in G.index:
        raise InputError("group_mismatch", f"element {text!r} not in the group")
    return G.index[form]


def element_text(G: FiniteGroup, i: int) -> str:
    return form_to_text(G.spec, G.elements[i])


# --------------------------------------------------------------------------
# group spec grammar:  Cyc(12) | Ab(4,2) | Sym(6) | Alt(5) | SL(2,5)
#                      | Prod(A,B) | Quot(A,center) | Quot(A,gen(e1;e2;...))

# family: (spec constructor, number of arguments; None for one or more)
_FAMILIES = {
    "Cyc": (CycSpec, 1), "Ab": (lambda *moduli: AbSpec(moduli), None),
    "Sym": (SymSpec, 1), "Alt": (AltSpec, 1), "SL": (SLSpec, 2),
    "Prod": (ProductSpec, 2), "Quot": (QuotientSpec, 2),
}


def parse_group_spec(text: str, start: int = 0, end: int | None = None) -> GroupSpec:
    """The spec that text[start:end] names; no group is built.

    The seeds of ``gen(...)`` are element texts of the quotient's parent,
    separated by ';', and are read into forms here.
    """
    name, lo, hi = _call(text, start, end, _FAMILIES,
                         "a group family (Cyc/Ab/Sym/Alt/SL/Prod/Quot)")
    make, arity = _FAMILIES[name]
    args = _split_top_level(text, ",", lo, hi)
    if arity is not None and len(args) != arity:
        raise SpecSyntaxError(args[min(arity, len(args)) - 1][1],
                              "')'" if len(args) > arity else "','", text)
    if name == "Prod":
        return make(*[parse_group_spec(text, i, j) for i, j in args])
    if name != "Quot":
        return make(*[_integer(text, i, j) for i, j in args])
    parent = parse_group_spec(text, *args[0])
    i, j = args[1]
    if text[i:j].strip() == "center":
        return make(parent, "center")
    _, lo, hi = _call(text, i, j, ("gen",), "'center' or 'gen(...)'")
    seeds = [text[a:b] for a, b in _split_top_level(text, ";", lo, hi)]
    return make(parent, tuple(text_to_form(parent, s) for s in seeds if s.strip()))
