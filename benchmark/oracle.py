"""Arithmetic and exhaustive searches written apart from glab.

The output checks replay glab's answers with the code in this file: its own
products of permutations, of matrices mod p, of residues and of pairs, its
own canonical keys for cosets of the centre of SL(2, p), and brute-force
searches for cliques, covers, class balls and class powers.  Nothing here
imports glab; a group is met only through the list of element forms that
glab enumerated, which ``Arith`` re-keys with its own canonical form.
"""

from __future__ import annotations

import itertools
import math


def perm_mul(a: tuple, b: tuple) -> tuple:
    """(a*b)(x) = a(b(x)): the right factor acts first."""
    return tuple(a[x] for x in b)


def perm_inv(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def perm_sign(a: tuple) -> int:
    seen, sign = set(), 1
    for s in range(len(a)):
        if s in seen:
            continue
        length, x = 0, s
        while x not in seen:
            seen.add(x)
            x = a[x]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def parse_perm(text: str, n: int) -> tuple:
    """Image tuple of a permutation written in 1-based cycles, or ``e``."""
    img = list(range(n))
    if text.strip() in ("e", "()"):
        return tuple(img)
    for body in text.strip()[1:-1].split(")("):
        pts = [int(t) - 1 for t in body.split(",")]
        for i, x in enumerate(pts):
            img[x] = pts[(i + 1) % len(pts)]
    return tuple(img)


def falling(n: int, k: int) -> int:
    """n! / (n-k)!: the placements of k distinct points out of n."""
    return math.factorial(n) // math.factorial(n - k)


def mat_mul(a: tuple, b: tuple, n: int, p: int) -> tuple:
    return tuple(sum(a[i * n + k] * b[k * n + j] for k in range(n)) % p
                 for i in range(n) for j in range(n))


def mat_id(n: int) -> tuple:
    return tuple(int(i == j) for i in range(n) for j in range(n))


def mat_inv(a: tuple, n: int, p: int) -> tuple:
    """Inverse mod a prime p, by the adjugate for n = 2 and by powering
    (a^(k-1) with a^k = 1) otherwise."""
    if n == 2:
        det = (a[0] * a[3] - a[1] * a[2]) % p
        d = pow(det, p - 2, p)
        return ((a[3] * d) % p, (-a[1] * d) % p, (-a[2] * d) % p, (a[0] * d) % p)
    ident = mat_id(n)
    acc, prev = a, ident
    while acc != ident:
        prev, acc = acc, mat_mul(acc, a, n, p)
    return prev


class Arith:
    """Own product, inverse and canonical key for the forms of one group.

    ``kind`` is one of ``("perm", n)``, ``("cyc", k)``, ``("sl", n, p)``,
    ``("psl2", p)`` (SL(2, p) modulo its centre, forms are matrices) or
    ``("prod", left, right)`` with two further kinds.  ``index`` maps the
    canonical key of each of glab's element forms to glab's element index;
    its size is checked against the group order, so two forms that name
    one element under this file's arithmetic are caught.
    """

    def __init__(self, kind: tuple, forms: list):
        self.kind = kind
        self.forms = forms
        self.index = {self.key(f): i for i, f in enumerate(forms)}
        if len(self.index) != len(forms):
            raise ValueError(f"{kind}: forms are not distinct elements")
        self.e = self.index[self.key(self.identity())]

    def identity(self, kind=None):
        kind = kind or self.kind
        tag = kind[0]
        if tag == "perm":
            return tuple(range(kind[1]))
        if tag == "cyc":
            return 0
        if tag == "sl":
            return mat_id(kind[1])
        if tag == "psl2":
            return mat_id(2)
        return (self.identity(kind[1]), self.identity(kind[2]))

    def mul(self, a, b, kind=None):
        kind = kind or self.kind
        tag = kind[0]
        if tag == "perm":
            return perm_mul(a, b)
        if tag == "cyc":
            return (a + b) % kind[1]
        if tag == "sl":
            return mat_mul(a, b, kind[1], kind[2])
        if tag == "psl2":
            return mat_mul(a, b, 2, kind[1])
        return (self.mul(a[0], b[0], kind[1]), self.mul(a[1], b[1], kind[2]))

    def inv(self, a, kind=None):
        kind = kind or self.kind
        tag = kind[0]
        if tag == "perm":
            return perm_inv(a)
        if tag == "cyc":
            return (-a) % kind[1]
        if tag == "sl":
            return mat_inv(a, kind[1], kind[2])
        if tag == "psl2":
            return mat_inv(a, 2, kind[1])
        return (self.inv(a[0], kind[1]), self.inv(a[1], kind[2]))

    def key(self, a, kind=None):
        kind = kind or self.kind
        tag = kind[0]
        if tag == "psl2":
            p = kind[1]
            return min(tuple(a), tuple((-x) % p for x in a))
        if tag == "prod":
            return (self.key(a[0], kind[1]), self.key(a[1], kind[2]))
        return a

    # -- on glab's element indices

    def imul(self, i: int, j: int) -> int:
        return self.index[self.key(self.mul(self.forms[i], self.forms[j]))]

    def iinv(self, i: int) -> int:
        return self.index[self.key(self.inv(self.forms[i]))]

    def iconj(self, x: int, g: int) -> int:
        """g^-1 x g."""
        return self.imul(self.imul(self.iinv(g), x), g)

    def order(self) -> int:
        return len(self.forms)

    def class_of(self, r: int) -> set:
        return {self.iconj(r, g) for g in range(self.order())}


# --------------------------------------------------------------------------
# exhaustive searches on element indices


def ball_radius(ar: Arith, source: set, cap: int) -> int | None:
    """Least n with (source)^{<=n} = G, by breadth-first word growth.

    None when the ball stops growing below |G| or the cap is passed.
    """
    ball, frontier, n = {ar.e}, {ar.e}, 0
    while len(ball) < ar.order():
        if n >= cap or not frontier:
            return None
        nxt = set()
        for x in frontier:
            for s in source:
                y = ar.imul(x, s)
                if y not in ball:
                    nxt.add(y)
        ball |= nxt
        frontier = nxt
        n += 1
    return n


def class_power_distance(ar: Arith, cls: set, tau: int, cap: int) -> int | None:
    """Least k >= 1 with tau in C^k, or None if the powers cycle first."""
    if tau == ar.e:
        return 0
    cur, seen, k = set(cls), set(), 1
    while k <= cap:
        if tau in cur:
            return k
        key = frozenset(cur)
        if key in seen:
            return None
        seen.add(key)
        cur = set_power(ar, cur, cls)
        k += 1
    return None


def set_power(ar: Arith, a: set, b: set) -> set:
    return {ar.imul(x, y) for x in a for y in b}


def max_clique_size(ar: Arith, P: set) -> int:
    """Largest set of elements with every quotient a^-1 b outside P.

    Plain recursive enumeration of cliques in increasing index order, with
    no bound: every clique of the P-free graph is visited once.
    """
    n = ar.order()
    inv = [ar.iinv(a) for a in range(n)]
    nbr = [{b for b in range(n) if b != a and ar.imul(inv[a], b) not in P}
           for a in range(n)]
    best = 0

    def grow(size: int, cand: set):
        nonlocal best
        best = max(best, size)
        for v in sorted(cand):
            grow(size + 1, {w for w in cand & nbr[v] if w > v})

    grow(0, set(range(n)))
    return best


def min_cover_size(ar: Arith, P: set) -> int:
    """Least m with m right translates P*g covering G, by trying all
    m-subsets of translators in increasing m."""
    n = ar.order()
    full = (1 << n) - 1
    translates = [sum(1 << ar.imul(a, g) for a in P) for g in range(n)]
    for m in range(1, n + 1):
        for combo in itertools.combinations(translates, m):
            covered = 0
            for t in combo:
                covered |= t
            if covered == full:
                return m
    raise AssertionError("the translates of a non-empty set cover G")
