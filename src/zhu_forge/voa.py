"""Concrete vertex operator algebras presented by generators and brackets.

A :class:`Presentation` lists strongly generating fields with their conformal
weights, the pairwise commutators of their modes, a central charge and a
recipe for the conformal vector. A commutator is a tuple of
:class:`BracketTerm` ``(coeff, target)``, a central term having target
``None`` and sitting on ``m+n = 0``. States live in the induced vacuum
module; its basis is the set of normally ordered creation monomials,
enumerated by restricted partitions of the conformal weight, one memo table
entry per weight (``_weight_basis``).

Mode index convention: the stored index of a generator mode ``g(m)`` is
chosen so that ``g(m)`` shifts conformal weight by ``-m``. For a weight-1
field this is the ordinary mode index; for the weight-2 Virasoro field it is
the usual ``L(m)``. For a generator of weight ``d`` the stored index ``m``
corresponds to the coefficient of ``z^{-(m+d-1)-1}`` in the field, so the
bracket of two stored modes ``g(m), h(n)`` always lands on stored index
``m+n`` (plus a possible central term).

General states expose their full tower of modes through
:func:`mode_action`, computed with the iterate formula derived from the
Jacobi identity. Weighted sums of modes (Zhu products, single-mode words)
share one kernel, :func:`mode_sum`, which returns the terms of one vector;
a caller that builds words gives them one shift. Zero modes are read from
the mode table one basis monomial at a time, as matrices on Ω_n
(``zhu.ZeroModeAction``).

This module is the data model and the mode kernel: the presentations, the
basis, normal ordering (``_apply_mono``), the mode table (``_mode_mono``,
:func:`mode_sum`, :func:`mode_action`) and the memo registry behind
:func:`clear_caches`. It holds no check and builds no
report; the axiom checks on this structure are ``suites.axiom_suite``.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .combinatorics import binomial
from .linalg import Combination, add_scaled

# A basis monomial: ((mode, generator), ...) sorted ascending, acting on the
# vacuum. The empty tuple is the vacuum itself. Tuple comparison is the
# canonical order on modes inside a monomial.
Monomial = tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class BracketTerm:
    """One contribution ``coeff(m, n)`` to the commutator ``[g(m), h(n)]``.

    ``target`` names the generator receiving index ``m+n``, or is ``None``
    for a central term, a multiple of the vacuum. Grading puts a central
    term on ``m+n == 0`` only. ``coeff`` returns an ``int`` or ``Fraction``
    and holds any parameter of the bracket, such as the central charge.
    """

    coeff: Callable[[int, int], Fraction | int]
    target: str | None


@dataclass(frozen=True, eq=False)
class Presentation:
    """A strongly generated vertex operator algebra on its vacuum module.

    The fields are lookup tables: ``generators`` maps each label to its
    conformal weight ``d`` (insertion order is the generator order), and
    ``brackets`` maps an ordered pair of labels to the :class:`BracketTerm`
    terms of ``[g(m), h(n)]``. The weight alone fixes which modes create:
    by the creation axiom ``Y(g, z)vac = g + O(z)``, ``g(m)vac`` is nonzero
    exactly when ``m <= -d``, so no threshold is stated. ``central_charge`` is
    the stated charge, which ``suites.presentation_checks`` checks against
    the brackets. Each table is stored as a read-only copy, since the memo
    tables trust a presentation never to change. Compared and hashed by
    identity: :func:`builtin_presentation` returns one shared object per
    VOA, and a copy built by hand is another presentation.
    """

    name: str
    generators: Mapping[str, int]
    brackets: Mapping[tuple[str, str], tuple[BracketTerm, ...]]
    central_charge: Fraction
    conformal_recipe: tuple[tuple[Monomial, Fraction], ...]

    def __post_init__(self) -> None:
        for field in ("generators", "brackets"):
            object.__setattr__(self, field, MappingProxyType(dict(getattr(self, field))))

    def conformal_vector(self) -> "FockVector":
        return FockVector(self, dict(self.conformal_recipe))


def monomial_weight(mono: Monomial) -> int:
    weight = 0
    for m, _ in mono:
        weight -= m
    return weight


def monomial_order(mono: Monomial) -> tuple:
    """Canonical order on monomials: by weight, then as tuples."""
    return (monomial_weight(mono), mono)


def builtin_presentation(name: str, central_charge: Fraction | int | None = None) -> Presentation:
    """The shared presentation of one of the built-in examples.

    ``heisenberg``: the rank-one free boson. One weight-1 generator ``a``
    with ``[a(m), a(n)] = m delta_{m+n,0}``; the conformal vector is
    ``(1/2) a(-1)a(-1)vac`` and the central charge is 1 whatever is given.

    ``virasoro``: the universal Virasoro vacuum module at the given central
    charge. One weight-2 generator ``L`` with the standard bracket; the
    conformal vector is ``L(-2)vac``.

    Equal requests return the identical object, even across
    :func:`clear_caches`; ``virasoro`` is keyed on ``Fraction(central_charge)``.
    """
    if name != "virasoro":
        return _intern_builtin(name, None)
    if central_charge is None:
        raise ValueError("virasoro presentation needs a central charge")
    return _intern_builtin(name, Fraction(central_charge))


# Not a memo: clear_caches leaves it alone, so vectors held across a clear
# stay compatible with later requests.
@lru_cache(maxsize=None)
def _intern_builtin(name: str, c: Fraction | None) -> Presentation:
    if name == "heisenberg":
        mono_aa: Monomial = ((-1, "a"), (-1, "a"))
        return Presentation(
            name="heisenberg",
            generators={"a": 1},
            brackets={("a", "a"): (BracketTerm(lambda m, n: m, None),)},
            central_charge=Fraction(1),
            conformal_recipe=((mono_aa, Fraction(1, 2)),),
        )
    if name == "virasoro":
        vir_terms = (
            BracketTerm(lambda m, n: m - n, "L"),
            BracketTerm(lambda m, n: c * (m**3 - m) / 12, None),
        )
        return Presentation(
            name="virasoro",
            generators={"L": 2},
            brackets={("L", "L"): vir_terms},
            central_charge=c,
            conformal_recipe=((((-2, "L"),), Fraction(1)),),
        )
    raise ValueError(f"unknown presentation {name!r}")


class FockVector(Combination):
    """Sparse exact vector in the vacuum module of a presentation."""

    __slots__ = ()

    sort_key = staticmethod(monomial_order)

    @classmethod
    def vacuum(cls, presentation: Presentation) -> "FockVector":
        return cls(presentation, {(): Fraction(1)})

    @classmethod
    def from_monomial(
        cls, presentation: Presentation, mono: Monomial, coeff: Fraction | int = 1
    ) -> "FockVector":
        return cls(presentation, {mono: coeff})

    def weight_decomposition(self) -> dict[int, "FockVector"]:
        """Split into homogeneous components, keyed by conformal weight."""
        parts: dict[int, dict[Monomial, Fraction]] = {}
        for mono, coeff in self.terms.items():
            parts.setdefault(monomial_weight(mono), {})[mono] = coeff
        return {w: FockVector(self.presentation, d) for w, d in sorted(parts.items())}

    def max_weight(self) -> int:
        """Largest weight carrying a nonzero component (-1 for the zero vector)."""
        if not self.terms:
            return -1
        return max(monomial_weight(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        weights = {monomial_weight(m) for m in self.terms}
        return len(weights) <= 1

    def __repr__(self) -> str:
        return f"FockVector({self.presentation.name}: {format_element(self)})"


def format_monomial(mono: Monomial) -> str:
    return "".join(f"{gen}[{m}]" for m, gen in mono) + "vac"


def format_element(x: FockVector) -> str:
    """Render a vector in the element grammar (parseable back)."""
    if x.is_zero:
        return "0 vac"
    pieces: list[tuple[str, str]] = []
    for mono, coeff in x.sorted_terms():
        sign = "-" if coeff < 0 else "+"
        mag = -coeff if coeff < 0 else coeff
        body = format_monomial(mono)
        if mag != 1 or not mono:
            body = f"{mag} {body}"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def enumerate_basis(presentation: Presentation, max_weight: int) -> list[tuple[int, list[Monomial]]]:
    """Canonical ordered basis of every weight space up to ``max_weight``.

    Monomials of a given weight are listed in ascending tuple order, the
    same order used for row reduction pivots and reports. Each call returns
    fresh lists, read from the memo table :func:`_weight_basis`.
    """
    if max_weight < 0:
        raise ValueError("max_weight must be nonnegative")
    return [(w, list(_weight_basis(presentation, w))) for w in range(max_weight + 1)]


def basis_vectors(presentation: Presentation, max_weight: int) -> list[FockVector]:
    """Flat list of basis vectors of weight at most ``max_weight``."""
    return [
        FockVector.from_monomial(presentation, mono)
        for _, monos in enumerate_basis(presentation, max_weight)
        for mono in monos
    ]


Combo = tuple[tuple[Monomial, Fraction], ...]


# Every memo table of the package, registered where it is defined, so that
# clear_caches reaches the tables even where a name is later rebound.
_MEMOS: list = []


def memo(fn):
    """Memoize ``fn`` without bound and register it with :func:`clear_caches`."""
    cached = lru_cache(maxsize=None)(fn)
    _MEMOS.append(cached)
    return cached


@memo
def _weight_basis(presentation: Presentation, weight: int) -> tuple[Monomial, ...]:
    """The basis monomials of weight ``weight``, ascending: a creation mode
    ``(m, g)``, ``-weight <= m <= -d`` for ``g`` of weight ``d``, followed by
    a monomial of weight ``weight + m`` that is empty or starts no lower."""
    if weight == 0:
        return ((),)
    monos = [
        ((m, gen),) + rest
        for gen, d in presentation.generators.items()
        for m in range(-weight, 1 - d)
        for rest in _weight_basis(presentation, weight + m)
        if not rest or (m, gen) <= rest[0]
    ]
    return tuple(sorted(monos))


@memo
def _apply_mono(presentation: Presentation, gen: str, m: int, mono: Monomial) -> Combo:
    """Normal order ``g(m)`` applied to a canonical monomial.

    Straightening: a creation index in canonical position is prepended;
    otherwise the mode is commuted past the head using the bracket table,
    which terminates because bracket terms strictly shorten the monomial.
    """
    threshold = 1 - presentation.generators[gen]
    if not mono:
        if m < threshold:
            return ((((m, gen),), 1),)
        return ()
    head = mono[0]
    if m < threshold and (m, gen) <= head:
        return (((m, gen),) + mono, 1),
    head_m, head_g = head
    tail = mono[1:]
    acc: dict[Monomial, Fraction] = {}
    for mono2, c2 in _apply_mono(presentation, gen, m, tail):
        add_scaled(acc, _apply_mono(presentation, head_g, head_m, mono2), c2)
    for term in presentation.brackets[gen, head_g]:
        if term.target is None:
            if m + head_m == 0:
                add_scaled(acc, ((tail, term.coeff(m, head_m)),))
        elif coeff := term.coeff(m, head_m):
            add_scaled(acc, _apply_mono(presentation, term.target, m + head_m, tail), coeff)
    return tuple(acc.items())


@memo
def _mode_mono(presentation: Presentation, umono: Monomial, n: int, vmono: Monomial) -> Combo:
    """The n-th mode of the state ``umono . vac`` applied to ``vmono . vac``.

    Base cases: the vacuum acts as the identity through its (-1)-st mode
    only, and a bare generator state delegates to the straightening above.
    Otherwise the leftmost mode of ``umono`` is peeled off with the iterate
    formula, its sign-weighted binomial ``(-1)^i C(ell, i)`` written as
    ``C(i - ell - 1, i)`` (upper negation, true for every integer ``ell``).
    The head of a basis monomial creates, so ``ell < 0`` and no coefficient
    vanishes; a hand-built head with ``ell >= 0`` only adds terms with
    coefficient 0. The sum over ``i`` is finite because modes that would
    land in negative weight act as zero.
    """
    if not umono:
        return ((vmono, 1),) if n == -1 else ()
    head_m, head_g = umono[0]
    gen_weight = presentation.generators[head_g]
    if len(umono) == 1 and head_m == -gen_weight:
        return _apply_mono(presentation, head_g, n - gen_weight + 1, vmono)

    ell = head_m + gen_weight - 1
    rest = umono[1:]
    rest_weight = monomial_weight(rest)
    v_weight = monomial_weight(vmono)
    first_top = rest_weight + v_weight - 1 - n
    second_top = gen_weight + v_weight - 1
    acc: dict[Monomial, Fraction] = {}
    for i in range(max(first_top, second_top) + 1):
        coeff = binomial(i - ell - 1, i)
        if i <= first_top:
            # g(head)_{ell-i} ( rest_{n+i} v ): stored index head_m - i.
            for mono2, c2 in _mode_mono(presentation, rest, n + i, vmono):
                add_scaled(acc, _apply_mono(presentation, head_g, head_m - i, mono2), coeff * c2)
        if i <= second_top:
            # -(-1)^ell rest_{ell+n-i} ( g_i v ): stored index i - weight + 1.
            sign2 = -coeff if ell % 2 == 0 else coeff
            for mono2, c2 in _apply_mono(presentation, head_g, i - gen_weight + 1, vmono):
                add_scaled(acc, _mode_mono(presentation, rest, ell + n - i, mono2), sign2 * c2)
    return tuple(acc.items())


def apply_generator_mode(
    presentation: Presentation, gen: str, m: int, x: FockVector
) -> FockVector:
    """Apply the generator mode ``g(m)`` to a vector, re-normal-ordered."""
    if x.presentation != presentation:
        raise ValueError("vector does not belong to this presentation")
    acc: dict[Monomial, Fraction] = {}
    for mono, coeff in x.terms.items():
        add_scaled(acc, _apply_mono(presentation, gen, m, mono), coeff)
    return FockVector(presentation, acc)


def mode_sum(u: FockVector, v: FockVector, expansion) -> dict[Monomial, Fraction]:
    """The terms of the sum of ``c * m_k n`` over basis monomials ``m`` of
    ``u`` and ``n`` of ``v``: for the weights ``a, b`` of ``m, n``,
    ``expansion(a, b)`` returns the pairs ``(k, c)``, at most one per index
    ``k``. Each ``m_k n`` is one read of ``_mode_mono``; it has weight
    ``a+b-k-1``, so ``k >= a+b`` is skipped."""
    u._check_same(v)
    presentation = u.presentation
    vterms = [(vmono, monomial_weight(vmono), vcoeff) for vmono, vcoeff in v.terms.items()]
    acc: dict[Monomial, Fraction] = {}
    for umono, ucoeff in u.terms.items():
        a = monomial_weight(umono)
        for vmono, b, vcoeff in vterms:
            for k, c in expansion(a, b):
                if c and k < a + b:
                    add_scaled(acc, _mode_mono(presentation, umono, k, vmono), c * ucoeff * vcoeff)
    return acc


def mode_action(u: FockVector, n: int, v: FockVector) -> FockVector:
    """The vector ``u_n v`` for arbitrary states ``u, v``.

    ``n`` is the ordinary vertex-operator mode index of the state ``u``, so
    the output is homogeneous of weight ``wt(u) + wt(v) - n - 1`` when both
    inputs are homogeneous.
    """
    u._check_same(v)
    presentation = u.presentation
    acc: dict[Monomial, Fraction] = {}
    for umono, ucoeff in u.terms.items():
        for vmono, vcoeff in v.terms.items():
            add_scaled(acc, _mode_mono(presentation, umono, n, vmono), ucoeff * vcoeff)
    return FockVector._adopt(presentation, acc)


def clear_caches() -> None:
    """Empty every table registered with :func:`memo`: the basis of each
    weight (``_weight_basis``), normal ordering (``_apply_mono``), the mode
    action (``_mode_mono``), the star coefficients
    ``zhu._star_coefficients``, ``L(-1)`` on basis monomials
    ``zhu._translate_mono``, ``zhu.build_zhu_context``, the C2 pivots
    ``zhu._c2_pivots``, and the pair rewrite's ``modes._pair_coefficients``,
    head vectors ``modes._pair_head`` and tail coefficients
    ``modes._right_tail_coefficient`` and
    ``modes._reordered_tail_coefficient``. A table keeps terms in the order
    they were accumulated; a reader that needs an order sorts. The shared
    built-in presentations are kept."""
    for table in _MEMOS:
        table.cache_clear()
