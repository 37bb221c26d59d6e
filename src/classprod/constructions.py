"""Builders for the group families the tool ships with.

A :class:`ConstructionSpec` is a small JSON-shaped tree (``kind`` plus
kind-specific integers and children) that pins a group down exactly;
:func:`build` turns it into a live handle.  ``corpus`` assembles the
deterministic battery of p-groups the exhaustive checkers sweep, and
``distinguished_element`` hands out the named elements those checks
revolve around.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from .errors import (
    ForeignElementError,
    InvalidParameterError,
    UnsupportedRoleError,
)
from .groups import (
    DEFAULT_ORDER_CAP,
    CayleyTableGroup,
    Element,
    GroupHandle,
    PermutationGroup,
    center,
)
from .util import _require_odd_prime, _require_prime, int_byte_width

ROLES = ("a-standard", "b-double", "noncentral-witness")

_FIELDS = ("kind", "p", "l", "n", "copies", "base", "factors")

#: The spec fields each kind reads; validation rejects any other set field.
_KIND_FIELDS = {
    "cyclic": ("n",),
    "elementary-abelian": ("p", "n"),
    "dihedral": ("n",),
    "quaternion8": (),
    "extraspecial-exponent-p": ("p", "l"),
    "direct-product": ("factors",),
    "wreath-cyclic": ("p", "base"),
    "affine-wreath": ("p",),
    "iterated-wreath-sylow": ("p", "copies"),
}

KINDS = tuple(_KIND_FIELDS)


@dataclass(frozen=True)
class ConstructionSpec:
    """Serializable description of one group construction."""

    kind: str
    p: int | None = None
    l: int | None = None
    n: int | None = None
    copies: int | None = None
    base: "ConstructionSpec | None" = None
    factors: tuple["ConstructionSpec", ...] = ()

    def __post_init__(self):
        for name in ("p", "l", "n", "copies"):
            value = getattr(self, name)
            if value is not None and type(value) is not int:
                raise InvalidParameterError(f"field {name!r} must be an integer")
        if self.base is not None and not isinstance(self.base, ConstructionSpec):
            raise InvalidParameterError("field 'base' must be a spec")
        if not isinstance(self.factors, tuple) or not all(
                isinstance(f, ConstructionSpec) for f in self.factors):
            raise InvalidParameterError("field 'factors' must be a tuple of specs")

    def to_plain(self) -> dict:
        """JSON-ready dict with only the fields this kind uses."""
        out: dict = {"kind": self.kind}
        for name in ("p", "l", "n", "copies"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.base is not None:
            out["base"] = self.base.to_plain()
        if self.factors:
            out["factors"] = [f.to_plain() for f in self.factors]
        return out

    @staticmethod
    def from_plain(obj) -> "ConstructionSpec":
        if not isinstance(obj, dict):
            raise InvalidParameterError(
                f"a construction spec must be an object, got {type(obj).__name__}")
        unknown = sorted(set(obj) - set(_FIELDS))
        if unknown:
            raise InvalidParameterError(f"unknown spec fields: {', '.join(unknown)}")
        if "kind" not in obj:
            raise InvalidParameterError("spec is missing the 'kind' field")
        kwargs: dict = {name: obj[name] for name in _FIELDS[:5] if name in obj}
        if "base" in obj:
            kwargs["base"] = ConstructionSpec.from_plain(obj["base"])
        if "factors" in obj:
            if not isinstance(obj["factors"], list):
                raise InvalidParameterError("field 'factors' must be a list")
            kwargs["factors"] = tuple(ConstructionSpec.from_plain(f)
                                      for f in obj["factors"])
        return ConstructionSpec(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_plain(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ConstructionSpec":
        try:
            obj = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an over-long integer
            raise InvalidParameterError(f"spec is not valid JSON: {exc}") from exc
        return ConstructionSpec.from_plain(obj)

    def __str__(self) -> str:
        bits = []
        for name in ("p", "l", "n", "copies"):
            value = getattr(self, name)
            if value is not None:
                bits.append(f"{name}={value}")
        if self.base is not None:
            bits.append(f"base={self.base}")
        if self.factors:
            bits.append("factors=[" + ", ".join(str(f) for f in self.factors) + "]")
        return f"{self.kind}({', '.join(bits)})"


# ----------------------------------------------------------------------
# the one pass: check, size and pick the builder

def _require_byte(value: int, name: str, why: str) -> None:
    if value > 255:
        raise InvalidParameterError(
            f"{why}, so it needs {name} <= 255, got {value}")


def _order(kind: str, *powers: tuple[int, int]) -> int:
    """The product of ``base ** exp`` over ``powers``, refused before any
    power is taken if it has more digits than Python prints as text (the
    sum of logs caps each ``exp``, so it never forms a large number)."""
    digits = (sys.get_int_max_str_digits()  # 0 lifts the limit
              or sys.int_info.default_max_str_digits)
    size = sum(min(exp, digits / math.log10(base)) * math.log10(base)
               for base, exp in powers if base > 1)
    if size >= digits:
        raise InvalidParameterError(
            f"{kind}: the group order would have more than {digits} digits")
    return math.prod(base ** exp for base, exp in powers)


def _plan(spec: ConstructionSpec) -> tuple[int, Callable[[int], GroupHandle]]:
    """Check a spec; return its group's order and a builder taking the cap.

    This is the one pass over a spec: every field that is set must be
    one its kind reads, every value must satisfy its kind's rules
    (including the one-byte limits of the encodings that store values
    mod p or permutation points in a byte), and ``base`` and ``factors``
    are checked the same way.  A spec that passes builds, unless a
    permutation closure exceeds the order cap.
    """
    kind = spec.kind
    if kind not in KINDS:
        raise InvalidParameterError(f"unknown construction kind {kind!r}")
    for name in _FIELDS[1:]:
        if getattr(spec, name) not in (None, ()) \
                and name not in _KIND_FIELDS[kind]:
            raise InvalidParameterError(
                f"{kind} does not read the spec field {name!r}")
    p = spec.p
    if kind == "cyclic":
        if spec.n is None or spec.n < 1:
            raise InvalidParameterError("cyclic needs an order n >= 1")
        return _order(kind, (spec.n, 1)), lambda cap: CyclicGroup(spec.n, cap)
    if kind == "elementary-abelian":
        _require_prime(p, kind)
        if spec.n is None or spec.n < 1:
            raise InvalidParameterError("elementary-abelian needs a rank n >= 1")
        return _order(kind, (p, spec.n)), lambda cap: DirectProductGroup(
            [CyclicGroup(p, cap) for _ in range(spec.n)], cap)
    if kind == "dihedral":
        if spec.n is None or spec.n < 4 or spec.n % 2:
            raise InvalidParameterError(
                f"dihedral needs an even order n >= 4, got {spec.n!r}")
        return _order(kind, (spec.n, 1)), lambda cap: DihedralGroup(spec.n, cap)
    if kind == "quaternion8":
        return 8, _quaternion8
    if kind == "extraspecial-exponent-p":
        _require_odd_prime(p, kind)
        if spec.l is None or spec.l < 1:
            raise InvalidParameterError("extraspecial-exponent-p needs l >= 1")
        _require_byte(p, "p", f"{kind} stores residues mod p in one byte")
        return (_order(kind, (p, 2 * spec.l + 1)),
                lambda cap: ExtraspecialGroup(p, spec.l, cap))
    if kind == "direct-product":
        if not spec.factors:
            raise InvalidParameterError("direct-product needs at least one factor")
        plans = [_plan(f) for f in spec.factors]
        return (_order(kind, *((o, 1) for o, _ in plans)),
                lambda cap: DirectProductGroup(
                    [make(cap) for _, make in plans], cap))
    if kind == "wreath-cyclic":
        _require_odd_prime(p, kind)
        _require_byte(p, "p", f"{kind} stores its shift mod p in one byte")
        if spec.base is None:
            raise InvalidParameterError("wreath-cyclic needs a base spec")
        base_order, make_base = _plan(spec.base)
        return (_order(kind, (base_order, p), (p, 1)),
                lambda cap: WreathCyclicGroup(make_base(cap), p, cap))
    if kind == "affine-wreath":
        _require_prime(p, kind)
        _require_byte(p, "p", f"{kind} stores residues mod p in one byte")
        return p ** p * p * (p - 1), lambda cap: AffineWreathGroup(p, cap)
    # iterated-wreath-sylow, the last kind
    _require_prime(p, kind)
    if spec.copies is None or spec.copies < 1:
        raise InvalidParameterError(
            "iterated-wreath-sylow needs copies >= 1 (wreath levels)")
    _require_byte(_order(kind, (p, spec.copies)), "p^copies",
                  f"{kind} permutes p^copies points, one byte each")
    return (p ** ((p ** spec.copies - 1) // (p - 1)),
            lambda cap: _sylow_permutation(p, spec.copies, cap))


def predicted_order(spec: ConstructionSpec) -> int:
    """Check a spec and return the order of its group, building nothing."""
    return _plan(spec)[0]


# ----------------------------------------------------------------------
# structured backends
#
# The constructors trust their parameters: only the builders that
# :func:`_plan` returns for a checked spec call them.

class CyclicGroup(GroupHandle):
    """Integers mod n, encoded as fixed-width big-endian residues."""

    backend = "structured-construction"

    def __init__(self, n: int, order_cap: int = DEFAULT_ORDER_CAP):
        self.n = n
        self._width = int_byte_width(n - 1)
        ident = self._encode(0)
        super().__init__(n, ident, [self._encode(1 % n)], order_cap)

    def _encode(self, v: int) -> bytes:
        return v.to_bytes(self._width, "big")

    def _mul(self, x: bytes, y: bytes) -> bytes:
        return self._encode((int.from_bytes(x, "big") + int.from_bytes(y, "big"))
                            % self.n)

    def _inv(self, x: bytes) -> bytes:
        return self._encode(-int.from_bytes(x, "big") % self.n)

    def _check(self, x: bytes) -> None:
        if len(x) != self._width or int.from_bytes(x, "big") >= self.n:
            raise ForeignElementError(
                f"{x.hex()!r} is not a residue encoding mod {self.n}")

    def _enumerate_raw(self) -> Iterator[bytes]:
        return (self._encode(v) for v in range(self.n))


class DirectProductGroup(GroupHandle):
    """Componentwise product of factor groups; encodings concatenate."""

    backend = "structured-construction"

    def __init__(self, factors: Sequence[GroupHandle],
                 order_cap: int = DEFAULT_ORDER_CAP):
        self.factor_groups = tuple(factors)
        widths = [f.encoding_width for f in factors]
        self._slices = []
        start = 0
        for w in widths:
            self._slices.append((start, start + w))
            start += w
        # Bound factor methods with their slices, built once: the multiply
        # is the inner loop of every sweep over a product.
        self._mul_parts = tuple((f._mul, a, b) for f, (a, b)
                                in zip(self.factor_groups, self._slices))
        self._inv_parts = tuple((f._inv, a, b) for f, (a, b)
                                in zip(self.factor_groups, self._slices))
        order = math.prod(f.order for f in factors)
        ident = b"".join(f.identity for f in factors)
        gens = [ident[:a] + g + ident[b:] for f, (a, b)
                in zip(self.factor_groups, self._slices)
                for g in f.generators]
        super().__init__(order, ident, gens, order_cap)

    def _mul(self, x: bytes, y: bytes) -> bytes:
        return b"".join([mul(x[a:b], y[a:b]) for mul, a, b in self._mul_parts])

    def _inv(self, x: bytes) -> bytes:
        return b"".join([inv(x[a:b]) for inv, a, b in self._inv_parts])

    def _check(self, x: bytes) -> None:
        if len(x) != self._slices[-1][1]:
            raise ForeignElementError(
                f"direct-product encoding must have {self._slices[-1][1]} bytes, "
                f"got {len(x)}")
        for f, (a, b) in zip(self.factor_groups, self._slices):
            f._check(x[a:b])

    def _enumerate_raw(self) -> Iterator[bytes]:
        pools = [f._raw_elements() for f in self.factor_groups]
        return (b"".join(combo) for combo in itertools.product(*pools))


class DihedralGroup(GroupHandle):
    """Symmetries of a regular (n/2)-gon: rotations plus reflections.

    An element is (rotation, flip); with r the unit rotation and s a
    reflection, s*r*s = r^-1.
    """

    backend = "structured-construction"

    def __init__(self, order: int, order_cap: int = DEFAULT_ORDER_CAP):
        self.m = order // 2
        self._rw = int_byte_width(self.m - 1)
        ident = self._encode(0, 0)
        gens = [self._encode(1, 0), self._encode(0, 1)]
        super().__init__(order, ident, gens, order_cap)

    def _encode(self, rot: int, flip: int) -> bytes:
        return rot.to_bytes(self._rw, "big") + bytes([flip])

    def _decode(self, x: bytes) -> tuple[int, int]:
        return int.from_bytes(x[:-1], "big"), x[-1]

    def _mul(self, x: bytes, y: bytes) -> bytes:
        i, s = self._decode(x)
        j, t = self._decode(y)
        rot = (i - j) % self.m if s else (i + j) % self.m
        return self._encode(rot, s ^ t)

    def _inv(self, x: bytes) -> bytes:
        i, s = self._decode(x)
        return x if s else self._encode(-i % self.m, 0)

    def _check(self, x: bytes) -> None:
        ok = (len(x) == self._rw + 1 and x[-1] <= 1
              and int.from_bytes(x[:-1], "big") < self.m)
        if not ok:
            raise ForeignElementError(
                f"{x.hex()!r} is not a (rotation, flip) encoding for order "
                f"{self.order}")

    def _enumerate_raw(self) -> Iterator[bytes]:
        return (self._encode(i, s) for i in range(self.m) for s in (0, 1))


class ExtraspecialGroup(GroupHandle):
    """Exponent-p extraspecial group of order p^(2l+1), p odd.

    Realized on triples (x, y, z) with x, y vectors of length l over the
    integers mod p and z a scalar:
    (x, y, z)(x', y', z') = (x+x', y+y', z+z'+x.y').  The center is the
    z-axis and every commutator lands in it.
    """

    backend = "structured-construction"

    def __init__(self, p: int, l: int, order_cap: int = DEFAULT_ORDER_CAP):
        self.p = p
        self.l = l
        width = 2 * l + 1
        # the unit vectors of the x and then the y coordinates
        gens = [bytes(i) + b"\x01" + bytes(width - 1 - i) for i in range(2 * l)]
        super().__init__(p ** width, bytes(width), gens, order_cap)

    def _mul(self, x: bytes, y: bytes) -> bytes:
        p = self.p
        l = self.l
        dot = 0
        for i in range(l):
            dot += x[i] * y[l + i]
        out = bytearray(2 * l + 1)
        for i in range(2 * l):
            out[i] = (x[i] + y[i]) % p
        out[2 * l] = (x[2 * l] + y[2 * l] + dot) % p
        return bytes(out)

    def _inv(self, x: bytes) -> bytes:
        p = self.p
        l = self.l
        dot = 0
        for i in range(l):
            dot += x[i] * x[l + i]
        out = bytearray(2 * l + 1)
        for i in range(2 * l):
            out[i] = -x[i] % p
        out[2 * l] = (dot - x[2 * l]) % p
        return bytes(out)

    def _check(self, x: bytes) -> None:
        if len(x) != 2 * self.l + 1 or any(v >= self.p for v in x):
            raise ForeignElementError(
                f"{x.hex()!r} is not an (x, y, z) encoding mod {self.p}")

    def _enumerate_raw(self) -> Iterator[bytes]:
        return (bytes(t) for t in
                itertools.product(range(self.p), repeat=2 * self.l + 1))


class WreathCyclicGroup(GroupHandle):
    """Base^p extended by a cyclic shift of the p coordinates.

    Elements are (f, k) with f a p-tuple of base elements and k the
    shift; conjugating a tuple by the shift generator moves the entry at
    position i to position i+1 (mod p).
    """

    backend = "structured-construction"

    def __init__(self, base: GroupHandle, p: int,
                 order_cap: int = DEFAULT_ORDER_CAP):
        self.base = base
        self.p = p
        self._w = base.encoding_width
        ident = base.identity * p + b"\x00"
        gens = []
        for g in base.generators:
            gens.append(g + base.identity * (p - 1) + b"\x00")
        gens.append(base.identity * p + b"\x01")
        super().__init__(base.order ** p * p, ident, gens, order_cap)

    def _mul(self, x: bytes, y: bytes) -> bytes:
        w = self._w
        p = self.p
        k = x[-1]
        bm = self.base._mul
        parts = []
        for i in range(p):
            j = (i + k) % p
            parts.append(bm(x[i * w:(i + 1) * w], y[j * w:(j + 1) * w]))
        parts.append(bytes([(k + y[-1]) % p]))
        return b"".join(parts)

    def _inv(self, x: bytes) -> bytes:
        w = self._w
        p = self.p
        k = x[-1]
        bi = self.base._inv
        parts = []
        for i in range(p):
            j = (i - k) % p
            parts.append(bi(x[j * w:(j + 1) * w]))
        parts.append(bytes([-k % p]))
        return b"".join(parts)

    def _check(self, x: bytes) -> None:
        w = self._w
        if len(x) != self.p * w + 1 or x[-1] >= self.p:
            raise ForeignElementError(
                f"{x.hex()!r} is not a (tuple, shift) encoding for this wreath "
                "product")
        for i in range(self.p):
            self.base._check(x[i * w:(i + 1) * w])

    def _enumerate_raw(self) -> Iterator[bytes]:
        pool = self.base._raw_elements()
        return (b"".join(combo) + bytes([k])
                for combo in itertools.product(pool, repeat=self.p)
                for k in range(self.p))


class AffineWreathGroup(GroupHandle):
    """Residue tuples indexed by the prime field, extended by its affine maps.

    Elements are (f, u, v): f assigns a residue mod p to each point of
    the field, and x -> u*x + v (u nonzero) permutes the points.  The
    affine maps compose right-to-left and conjugation permutes the
    coordinates of f.
    """

    backend = "structured-construction"

    def __init__(self, p: int, order_cap: int = DEFAULT_ORDER_CAP):
        self.p = p
        self._invmod = [0] * p
        for u in range(1, p):
            self._invmod[u] = pow(u, p - 2, p)
        ident = bytes(p) + bytes([1, 0])
        gens = [bytes([1] + [0] * (p - 1)) + bytes([1, 0]),
                bytes(p) + bytes([1, 1])]
        if p > 2:
            gens.append(bytes(p) + bytes([self._primitive_root(p), 0]))
        super().__init__(p ** p * p * (p - 1), ident, gens, order_cap)

    @staticmethod
    def _primitive_root(p: int) -> int:
        # The least unit whose powers reach all p - 1 units; a prime has one.
        return next(g for g in range(2, p)
                    if len({pow(g, k, p) for k in range(1, p)}) == p - 1)

    def _mul(self, x: bytes, y: bytes) -> bytes:
        p = self.p
        u1, v1 = x[p], x[p + 1]
        u2, v2 = y[p], y[p + 1]
        u1i = self._invmod[u1]
        vals = bytes((x[t] + y[u1i * (t - v1) % p]) % p for t in range(p))
        return vals + bytes([u1 * u2 % p, (u1 * v2 + v1) % p])

    def _inv(self, x: bytes) -> bytes:
        p = self.p
        u, v = x[p], x[p + 1]
        ui = self._invmod[u]
        vals = bytes(-x[(u * t + v) % p] % p for t in range(p))
        return vals + bytes([ui, -ui * v % p])

    def _check(self, x: bytes) -> None:
        p = self.p
        ok = (len(x) == p + 2 and all(v < p for v in x[:p])
              and 1 <= x[p] < p and x[p + 1] < p)
        if not ok:
            raise ForeignElementError(
                f"{x.hex()!r} is not an (f, u, v) encoding mod {p}")

    def _enumerate_raw(self) -> Iterator[bytes]:
        p = self.p
        return (bytes(vals) + bytes([u, v])
                for vals in itertools.product(range(p), repeat=p)
                for u in range(1, p)
                for v in range(p))


# ----------------------------------------------------------------------
# table- and permutation-backed constructions

def _quaternion8(order_cap: int) -> CayleyTableGroup:
    # Signed quaternion units, +1 first so index 0 is the identity.
    def qmul(a, b):
        a1, b1, c1, d1 = a
        a2, b2, c2, d2 = b
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    units = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    elems = units + [tuple(-v for v in u) for u in units]
    index = {u: i for i, u in enumerate(elems)}
    table = [[index[qmul(a, b)] for b in elems] for a in elems]
    return CayleyTableGroup(table, order_cap=order_cap)


def _sylow_permutation(p: int, levels: int,
                       order_cap: int) -> PermutationGroup:
    # One shift generator per wreath level: level k advances each point
    # by p^(k-1) within its block of p^k points.
    degree = p ** levels
    gens = []
    for k in range(1, levels + 1):
        block = p ** k
        step = p ** (k - 1)
        gens.append([(x + step) % block if x < block else x
                     for x in range(degree)])
    return PermutationGroup(gens, order_cap=order_cap)


# ----------------------------------------------------------------------
# build / distinguished elements / corpus

def build(spec: ConstructionSpec,
          order_cap: int = DEFAULT_ORDER_CAP) -> GroupHandle:
    """Build the group a spec describes.  The spec is checked once, by
    :func:`_plan`, and the result's order always equals the predicted one."""
    want, make = _plan(spec)
    g = make(order_cap)
    if g.order != want:
        raise InvalidParameterError(
            f"built order {g.order} does not match predicted order {want} "
            f"for {spec}")
    return g


def _least_noncentral(g: GroupHandle) -> bytes:
    """The encoding-least element outside the centre of ``g``."""
    central = center(g).elements
    for raw in g._raw_elements():
        if raw not in central:
            return raw
    raise UnsupportedRoleError("an abelian group has no non-central element")


def _base_seed_element(base_spec: ConstructionSpec, base: GroupHandle) -> bytes:
    """The base element the wreath roles are built from: a generator of a
    cyclic base, the least non-central element of an extraspecial base."""
    if base_spec.kind == "cyclic":
        if base_spec.n < 2:
            raise UnsupportedRoleError("a trivial base has no seed element")
        return base.generators[0]
    if base_spec.kind == "extraspecial-exponent-p":
        return _least_noncentral(base)
    raise UnsupportedRoleError(
        f"no seed element defined for wreath base kind {base_spec.kind!r}")


def distinguished_element(spec: ConstructionSpec, role: str,
                          order_cap: int = DEFAULT_ORDER_CAP) -> Element:
    """The named element a construction's checks revolve around.

    Deterministic: the same spec and role always give the same encoding.
    """
    if role not in ROLES:
        raise UnsupportedRoleError(
            f"unknown role {role!r}; expected one of {', '.join(ROLES)}")
    predicted_order(spec)
    kind = spec.kind
    if kind == "wreath-cyclic" and role in ("a-standard", "b-double"):
        base = build(spec.base, order_cap)
        seed = _base_seed_element(spec.base, base)
        count = 1 if role == "a-standard" else 2
        parts = [seed] * count + [base.identity] * (spec.p - count)
        return b"".join(parts) + b"\x00"
    if kind == "affine-wreath" and role in ("a-standard", "b-double"):
        count = 1 if role == "a-standard" else 2
        values = [1] * count + [0] * (spec.p - count)
        return bytes(values) + bytes([1, 0])
    if kind == "extraspecial-exponent-p" and role == "noncentral-witness":
        return _least_noncentral(build(spec, order_cap))
    raise UnsupportedRoleError(
        f"role {role!r} is not defined for construction kind {kind!r}")


def corpus(p: int, max_order: int) -> list[ConstructionSpec]:
    """The deterministic battery of p-groups of order <= max_order.

    Odd p: cyclic and elementary-abelian towers, a mixed abelian group,
    extraspecial groups (both widths), extraspecial x cyclic products,
    the cyclic wreaths, and the Sylow p-subgroups of symmetric groups.
    p = 2 swaps the odd-only families for the dihedral and quaternion
    ones (plus their products with the 2-element group).

    Each family lists its members by growing order and is cut before the
    first one :func:`predicted_order` rejects or sizes above
    ``max_order``, so every spec listed validates.  The smallest
    nonabelian member, of order p^3, must fit; for p > 255 it cannot.
    """
    _require_prime(p, "corpus")
    S = ConstructionSpec
    es1 = S(kind="extraspecial-exponent-p", p=p, l=1)
    least = S(kind="dihedral", n=8) if p == 2 else es1
    if predicted_order(least) > max_order:
        raise InvalidParameterError(
            f"max_order {max_order} is below p^3 = {p ** 3}; the corpus "
            "needs room for at least one nonabelian group")

    def fits(spec: ConstructionSpec) -> bool:
        try:
            return predicted_order(spec) <= max_order
        except InvalidParameterError:
            return False

    def cyclic(n: int) -> ConstructionSpec:
        return S(kind="cyclic", n=n)

    def times(spec: ConstructionSpec, n: int) -> ConstructionSpec:
        return S(kind="direct-product", factors=(spec, cyclic(n)))

    count = itertools.count
    families = [(cyclic(p ** k) for k in count(1)),
                (S(kind="elementary-abelian", p=p, n=n) for n in count(2)),
                [times(cyclic(p * p), p)]]
    if p == 2:
        q8 = S(kind="quaternion8")
        families += [(S(kind="dihedral", n=2 ** k) for k in count(3)), [q8],
                     (times(S(kind="dihedral", n=2 ** k), 2)
                      for k in count(3)),
                     [times(q8, 2)]]
    else:
        es2 = S(kind="extraspecial-exponent-p", p=p, l=2)
        families += [[es1, es2],
                     (times(es1, p ** k) for k in count(1)),
                     (times(es2, p ** k) for k in count(1)),
                     [S(kind="wreath-cyclic", p=p, base=base)
                      for base in (cyclic(p), es1)]]
    families.append(S(kind="iterated-wreath-sylow", p=p, copies=k)
                    for k in count(2))
    return [spec for family in families
            for spec in itertools.takewhile(fits, family)]
