"""Multigraded polynomial rings with exact coefficient arithmetic.

A ring is a polynomial ring over Q or a prime field F_p whose variables carry
two gradings at once:

  * a multidegree in N^r (r >= 1), the grading the theory talks about; and
  * a positive integer weight, an auxiliary total grading.

Every weight is >= 1, so the weight-0 piece of the ring is the coefficient
field.  That is what makes the graded-local arguments (Nakayama, minimal
resolutions, Hilbert series, Auslander-Buchsbaum) valid verbatim: a "local
base" is modeled as the block of variables with multidegree 0.

Polynomials are immutable and canonical: a tuple of (exponent tuple,
coefficient) pairs sorted descending in the ring's term order, which is
degree-reverse-lexicographic on the weight grading refined by variable index.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add, mul, neg, sub
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union


class InputError(ValueError):
    """Bad user input: malformed spec, inhomogeneous data, rank mismatch."""


class ResourceLimit(RuntimeError):
    """A configured size or iteration gate was exceeded."""


# ---------------------------------------------------------------------------
# coefficient fields
#
# Coefficients are plain values: Fractions over Q, ints in range(p) over F_p.
# Polynomial and vec arithmetic work on them directly, reducing with % p
# inline; a field object converts (`of`), inverts, negates and renders.


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RationalField:
    """Arbitrary-precision rationals (stdlib Fraction)."""

    char: int = 0

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def of(self, n: Union[int, Fraction]) -> Fraction:
        return Fraction(n)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def render(self, a) -> str:
        return str(a)


@dataclass(frozen=True)
class PrimeField:
    """F_p with elements stored as residues in range(p)."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise InputError(f"characteristic {self.p} is not prime")

    @property
    def char(self) -> int:
        return self.p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def of(self, n: Union[int, Fraction]) -> int:
        if isinstance(n, Fraction):
            return n.numerator * self.inv(n.denominator) % self.p
        return n % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 mod p")
        return pow(a, -1, self.p)

    def render(self, a) -> str:
        return str(a)


Field = Union[RationalField, PrimeField]

DEFAULT_PRIME = 32003


def field_for_char(char: int) -> Field:
    if char == 0:
        return RationalField()
    return PrimeField(char)


# ---------------------------------------------------------------------------
# multidegrees

Degree = Tuple[int, ...]


def deg_zero(rank: int) -> Degree:
    return (0,) * rank


def deg_add(a: Degree, b: Degree) -> Degree:
    return tuple(map(add, a, b))


def deg_sub(a: Degree, b: Degree) -> Degree:
    return tuple(map(sub, a, b))


def deg_neg(a: Degree) -> Degree:
    return tuple(-x for x in a)


def deg_leq(a: Degree, b: Degree) -> bool:
    """Coordinatewise a <= b."""
    return all(x <= y for x, y in zip(a, b))


def deg_lt(a: Degree, b: Degree) -> bool:
    """Strict in every coordinate (the order the theory uses for n < v)."""
    return all(x < y for x, y in zip(a, b))


def deg_min(a: Degree, b: Degree) -> Degree:
    return tuple(min(x, y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# rings

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def _block_cap(d: Degree, wt: int, m: Degree, w: Optional[int]) -> int:
    """The largest total of a block (d, wt) of variables in degree (m, w):
    the least m_c // d_c where d_c > 0 and, with a weight, w // wt.  Without
    a weight a multidegree-0 block is held at 0, and a block with no
    positive coordinate is refused."""
    caps = [a // x for a, x in zip(m, d) if x > 0]
    if w is not None:
        caps.append(w // wt if wt > 0 else w)  # wt = 0 never in public rings
    elif not any(d):
        caps.append(0)
    if not caps:
        raise InputError("unbounded enumeration (zero-degree variable)")
    return min(caps)


class GradedRing:
    """Immutable multigraded polynomial ring P = k[x_1..x_n].

    There is no quotient ring: a module over S = P/J is presented over P,
    with J among its relations (`cyclic_presentation` gives S itself).  Depth,
    dimension and local cohomology at the irrelevant ideal are the same over
    S and over P, so every construction works over P alone.

    Rings are interned: equal constructor arguments (field, names, degrees,
    weights, _allow_zero_weight) return the same object, so rings compare by
    identity and equal rings share their count tables.  The registry is
    unbounded; it holds one entry per distinct ring built in the process.

    Two tables live on the ring and are as unbounded: `_counts`, the
    monomial counts of `count_from`, and `k_polynomials`, which
    `GroebnerBasis.hilbert_numerators` fills with the K-polynomial of P/J
    for each monomial ideal J it meets, keyed by J's sorted minimal
    generators.  A K-polynomial depends only on J and the grading (Bigatti
    1997), and the grading is the ring's, so every basis over the ring with
    the same lead ideal reads one entry.  A third, `supports`, holds at most
    three: the support ideals `cohomology` builds from the ring alone (the
    irrelevant ideal, and the variables' ideal by duality and by colimit).
    """

    __slots__ = (
        "field",
        "names",
        "degrees",
        "weights",
        "_allow_zero_weight",
        "_columns",
        "_name_index",
        "_counts",
        "k_polynomials",
        "supports",
        "_blocks",
        "_unit_blocks",
        "_base_vars",
    )

    _registry: Dict[tuple, "GradedRing"] = {}

    def __new__(
        cls,
        field: Field,
        names: Sequence[str],
        degrees: Sequence[Sequence[int]],
        weights: Sequence[int],
        _allow_zero_weight: bool = False,
    ):
        names = tuple(names)
        degrees = tuple(tuple(int(x) for x in d) for d in degrees)
        weights = tuple(int(w) for w in weights)
        key = (field, names, degrees, weights, bool(_allow_zero_weight))
        ring = cls._registry.get(key)
        if ring is not None:
            return ring
        if not names:
            raise InputError("ring needs at least one variable")
        if len(set(names)) != len(names):
            raise InputError("duplicate variable names")
        for nm in names:
            if not _NAME_RE.match(nm):
                raise InputError(f"bad variable name {nm!r}")
        if len(degrees) != len(names) or len(weights) != len(names):
            raise InputError("names/degrees/weights length mismatch")
        rank = len(degrees[0]) if degrees else 0
        if rank < 1:
            raise InputError("multidegree rank must be >= 1")
        for d in degrees:
            if len(d) != rank:
                raise InputError("inconsistent multidegree rank")
            if not _allow_zero_weight and any(x < 0 for x in d):
                raise InputError("variable multidegrees must lie in N^r")
        floor = 0 if _allow_zero_weight else 1
        for w in weights:
            if w < floor:
                raise InputError(f"variable weight {w} below {floor}")
        ring = super().__new__(cls)
        ring.field = field
        ring.names = names
        ring.degrees = degrees
        ring.weights = weights
        ring._allow_zero_weight = key[-1]
        ring._columns = tuple(zip(*degrees))  # one tuple per multidegree coordinate
        ring._name_index = {nm: i for i, nm in enumerate(names)}
        ring._counts: Dict[Tuple[int, Degree, Optional[int]], int] = {}
        ring.k_polynomials = {}
        ring.supports = {}
        ring._blocks: Optional[Tuple[Tuple[Tuple[Degree, int], Tuple[int, ...]], ...]] = None
        ring._unit_blocks: Optional[Tuple[Tuple[int, ...], ...]] = None
        ring._base_vars: Optional[Tuple[int, ...]] = None
        cls._registry[key] = ring
        return ring

    def __repr__(self):
        return f"GradedRing(char={self.field.char}, vars={','.join(self.names)})"

    # -- basic data ----------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.names)

    @property
    def rank(self) -> int:
        return len(self.degrees[0])

    def var_index(self, name: str) -> int:
        try:
            return self._name_index[name]
        except KeyError:
            raise InputError(f"unknown variable {name!r}") from None

    def monomial_mdeg(self, exps: Tuple[int, ...]) -> Degree:
        return tuple([sum(map(mul, exps, col)) for col in self._columns])

    def monomial_weight(self, exps: Tuple[int, ...]) -> int:
        return sum(map(mul, exps, self.weights))

    @property
    def blocks(self) -> Tuple[Tuple[Tuple[Degree, int], Tuple[int, ...]], ...]:
        """The variables grouped by equal (multidegree, weight), as
        ((degree, weight), variable indices), multidegree-0 blocks last: the
        order in which monomials are counted and listed.  Built on first
        use, since most rings never count."""
        if self._blocks is None:
            groups: Dict[Tuple[Degree, int], List[int]] = {}
            for v, dw in enumerate(zip(self.degrees, self.weights)):
                groups.setdefault(dw, []).append(v)
            self._blocks = tuple(sorted(
                ((dw, tuple(vs)) for dw, vs in groups.items()), key=lambda b: not any(b[0][0])
            ))
        return self._blocks

    @property
    def unit_blocks(self) -> Tuple[Tuple[int, ...], ...]:
        """For each j, the indices of the variables of multidegree e_j; a
        block is empty when no variable has that degree.  Built on first use."""
        if self._unit_blocks is None:
            r = self.rank
            units = [tuple(int(t == j) for t in range(r)) for j in range(r)]
            self._unit_blocks = tuple(tuple(v for v, d in enumerate(self.degrees) if d == unit)
                                      for unit in units)
        return self._unit_blocks

    def monomial_count(self, mdeg: Degree, weight: Optional[int] = None) -> int:
        """Number of monomials of multidegree mdeg (and the weight, if given).

        A dynamic program over `blocks`, memoised on the ring across calls
        (`count_from`): k variables of one block have C(s+k-1, k-1)
        monomials of total exponent s.  Without a weight the multidegree-0
        blocks are held at 0, so this counts the monomials in the other
        variables; with such variables the piece itself is infinite, and
        `graded_piece_dim` refuses it before counting.
        """
        return self.count_from(0, tuple(mdeg), weight)

    def count_from(self, i: int, m: Degree, w: Optional[int]) -> int:
        """Monomials of degree (m, w) in the variables of blocks i, i+1, ...;
        past the last block, 1 if (m, w) is zero and 0 otherwise."""
        key = (i, m, w)
        hit = self._counts.get(key)
        if hit is not None:
            return hit
        blocks = self.blocks
        if i == len(blocks):
            return int(not any(m) and not w)
        (d, wt), vs = blocks[i]
        k = len(vs)
        top = _block_cap(d, wt, m, w)
        if i == len(blocks) - 1:
            exact = (top >= 0 and all(a == top * x for a, x in zip(m, d))
                     and (w is None or w == top * wt))
            return comb(top + k - 1, k - 1) if exact else 0
        hit = 0
        for s in range(top + 1):
            hit += comb(s + k - 1, k - 1) * self.count_from(i + 1, m, w)
            m = tuple(a - x for a, x in zip(m, d))
            if w is not None:
                w -= wt
        self._counts[key] = hit
        return hit

    def block_totals(
        self, i: int, m: Degree, w: Optional[int]
    ) -> Iterator[Tuple[int, Degree, Optional[int]]]:
        """(s, m - s*d, w - s*wt) for each total exponent s that block
        i = (d, wt) takes in some monomial of degree (m, w) in blocks i,
        i+1, ...: those after which `count_from` says the later blocks can
        fill the rest.  The last block's total is forced to its cap."""
        blocks = self.blocks
        (d, wt), _vs = blocks[i]
        top = _block_cap(d, wt, m, w)
        s = 0
        if i == len(blocks) - 1 and top > 0:
            s = top
            m = tuple(a - top * x for a, x in zip(m, d))
            if w is not None:
                w -= top * wt
        while s <= top:
            if self.count_from(i + 1, m, w):
                yield s, m, w
            s += 1
            m = tuple(a - x for a, x in zip(m, d))
            if w is not None:
                w -= wt

    def term_sort_key(self, exps: Tuple[int, ...]):
        """Degrevlex on the weight grading refined by variable index.

        Tuple keys compare like the order: u > v iff key(u) > key(v).
        """
        return (sum(map(mul, exps, self.weights)), tuple(map(neg, reversed(exps))))

    # -- polynomial constructors ----------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c: Union[int, Fraction]) -> "Polynomial":
        cc = self.field.of(c)
        if not cc:
            return self.zero()
        return Polynomial(self, (((0,) * self.nvars, cc),))

    def var(self, name: str) -> "Polynomial":
        i = self.var_index(name)
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, ((exps, self.field.one),))

    def gens(self) -> Tuple["Polynomial", ...]:
        return tuple(self.var(nm) for nm in self.names)

    def monomial(self, exps: Sequence[int], coeff: Union[int, Fraction] = 1) -> "Polynomial":
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise InputError("bad exponent vector")
        c = self.field.of(coeff)
        if not c:
            return self.zero()
        return Polynomial(self, ((exps, c),))

    def from_dict(self, d: Dict[Tuple[int, ...], object]) -> "Polynomial":
        """The polynomial with the given terms.  Over F_p the coefficients
        may be any ints and are reduced here, so callers can sum products
        without reducing each one; zero terms are dropped."""
        p = self.field.char
        if p:
            items = [(e, v) for e, c in d.items() if (v := c % p)]
        else:
            items = [(e, c) for e, c in d.items() if c]
        items.sort(key=lambda t: self.term_sort_key(t[0]), reverse=True)
        return Polynomial(self, tuple(items))

    # -- base block --------------------------------------------------------

    def base_variable_indices(self) -> Tuple[int, ...]:
        """Variables with multidegree 0 (the graded-local base block), built
        on first use."""
        if self._base_vars is None:
            z = deg_zero(self.rank)
            self._base_vars = tuple(i for i, d in enumerate(self.degrees) if d == z)
        return self._base_vars

    def is_field_base(self) -> bool:
        return not self.base_variable_indices()


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Immutable sparse polynomial; terms sorted descending in the ring order.

    The hash and the (multidegree, weight) of a homogeneous polynomial are
    computed on first use and kept."""

    __slots__ = ("ring", "terms", "_hash", "_degree")

    def __init__(self, ring: GradedRing, terms: Tuple[Tuple[Tuple[int, ...], object], ...]):
        self.ring = ring
        self.terms = terms
        self._hash = None
        self._degree = None

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.terms))
        return self._hash

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"Polynomial({poly_str(self)})"

    def __str__(self):
        return poly_str(self)

    def is_zero(self) -> bool:
        return not self.terms

    def lead_exps(self) -> Tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero polynomial has no lead term")
        return self.terms[0][0]

    def lead_coeff(self):
        if not self.terms:
            raise ValueError("zero polynomial has no lead term")
        return self.terms[0][1]

    def _check_same_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise InputError("polynomials from different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_ring(other)
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d.get(e, 0) + c
        return self.ring.from_dict(d)

    def __neg__(self) -> "Polynomial":
        p = self.ring.field.char
        if p:
            return Polynomial(self.ring, tuple((e, -c % p) for e, c in self.terms))
        return Polynomial(self.ring, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, c) -> "Polynomial":
        f = self.ring.field
        c = f.of(c) if isinstance(c, (int, Fraction)) else c
        if not c:
            return self.ring.zero()
        p = f.char
        if p:
            return Polynomial(self.ring, tuple((e, cc * c % p) for e, cc in self.terms))
        return Polynomial(self.ring, tuple((e, cc * c) for e, cc in self.terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_same_ring(other)
        d: Dict[Tuple[int, ...], object] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(map(add, e1, e2))
                d[e] = d.get(e, 0) + c1 * c2
        return self.ring.from_dict(d)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise InputError("negative power")
        if n == 1:
            # polynomials are immutable, so x ** 1 can be x itself
            return self
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n >>= 1
        return out

    # -- grading ---------------------------------------------------------

    def term_degrees(self) -> Iterator[Tuple[Degree, int]]:
        for e, _ in self.terms:
            yield self.ring.monomial_mdeg(e), self.ring.monomial_weight(e)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        seen = None
        for pair in self.term_degrees():
            if seen is None:
                seen = pair
            elif pair != seen:
                return False
        return True

    def degree_pair(self) -> Tuple[Degree, int]:
        """(multidegree, weight) of a nonzero homogeneous polynomial, kept
        after the first call; a zero or inhomogeneous one raises on every
        call."""
        if self._degree is None:
            if not self.terms:
                raise InputError("zero polynomial has no degree")
            mdeg, weight = self.ring.monomial_mdeg, self.ring.monomial_weight
            pairs = {(mdeg(e), weight(e)) for e, _ in self.terms}
            if len(pairs) != 1:
                raise InputError(f"inhomogeneous polynomial: {poly_str(self)}")
            self._degree = pairs.pop()
        return self._degree


def substitute(poly: Polynomial, target: GradedRing, images: Dict[str, Polynomial]) -> Polynomial:
    """Ring map by variable images; names absent from `images` map to the
    same-named variable of the target ring."""
    if poly.ring.field.char != target.field.char:
        raise InputError("substitution across characteristics")
    names = poly.ring.names
    out: Dict[Tuple[int, ...], object] = {}
    for exps, c in poly.terms:
        moved = [0] * target.nvars
        term = None
        for i, e in enumerate(exps):
            if not e:
                continue
            img = images.get(names[i])
            if img is None:
                moved[target.var_index(names[i])] += e
            elif img.ring != target:
                raise InputError("image outside the target ring")
            else:
                term = img ** e if term is None else term * img ** e
        mapped = term.terms if term is not None else (((0,) * target.nvars, 1),)
        for e, tc in mapped:
            key = tuple(map(add, moved, e))
            out[key] = out.get(key, 0) + c * tc
    return target.from_dict(out)


# ---------------------------------------------------------------------------
# printing and parsing


def _render_coeff(field: Field, c) -> Tuple[str, bool]:
    """(text for |c|, is_negative); negativity only meaningful over Q."""
    if isinstance(field, RationalField) and c < 0:
        return field.render(-c), True
    return field.render(c), False


def poly_str(p: Polynomial) -> str:
    if not p.terms:
        return "0"
    ring = p.ring
    field = ring.field
    chunks: List[str] = []
    for k, (exps, c) in enumerate(p.terms):
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(ring.names[i])
            elif e > 1:
                factors.append(f"{ring.names[i]}^{e}")
        ctext, neg = _render_coeff(field, c)
        if factors:
            body = "*".join(factors) if ctext == "1" else ctext + "*" + "*".join(factors)
        else:
            body = ctext
        if k == 0:
            chunks.append(("-" if neg else "") + body)
        else:
            chunks.append((" - " if neg else " + ") + body)
    return "".join(chunks)


_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))")


def _tokenize(text: str) -> List[Tuple[str, str]]:
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise InputError(f"bad character in polynomial at {text[pos:pos+10]!r}")
        pos = m.end()
        if m.lastgroup:
            out.append((m.lastgroup, m.group(m.lastgroup)))
    return out


class _PolyParser:
    def __init__(self, ring: GradedRing, text: str):
        self.ring = ring
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def parse(self) -> Polynomial:
        p = self.expr()
        if self.i != len(self.toks):
            raise InputError(f"trailing tokens in polynomial: {self.toks[self.i:]}")
        return p

    def expr(self) -> Polynomial:
        sign = 1
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        p = self.term()
        if sign < 0:
            p = -p
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                p = p * self.factor()
            elif kind == "op" and val == "/":
                self.take()
                kind2, val2 = self.take()
                if kind2 != "int":
                    raise InputError("only integer denominators are supported")
                field = self.ring.field
                den = field.of(int(val2))
                if den == field.zero:
                    raise InputError(f"denominator {val2} is zero in characteristic {field.char}")
                p = p.scale(field.inv(den))
            else:
                return p

    def factor(self) -> Polynomial:
        base = self.base()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind2, val2 = self.take()
            if kind2 != "int":
                raise InputError("exponent must be an integer literal")
            return base ** int(val2)
        return base

    def base(self) -> Polynomial:
        kind, val = self.take()
        if kind == "int":
            return self.ring.const(int(val))
        if kind == "name":
            return self.ring.var(val)
        if kind == "op" and val == "(":
            p = self.expr()
            kind2, val2 = self.take()
            if (kind2, val2) != ("op", ")"):
                raise InputError("unbalanced parenthesis in polynomial")
            return p
        if kind == "op" and val == "-":
            return -self.base()
        raise InputError(f"unexpected token {val!r} in polynomial")


def parse_polynomial(ring: GradedRing, text: str) -> Polynomial:
    return _PolyParser(ring, text).parse()
