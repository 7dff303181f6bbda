"""Concrete vertex operator algebras presented by generators and brackets.

A :class:`Presentation` lists strongly generating fields with their conformal
weights, the pairwise commutators of their modes, a central charge and a
recipe for the conformal vector. States live in the induced vacuum module;
its basis is the set of normally ordered creation monomials, enumerated by
restricted partitions of the conformal weight.

Mode index convention: the stored index of a generator mode ``g(m)`` is
chosen so that ``g(m)`` shifts conformal weight by ``-m``. For a weight-1
field this is the ordinary mode index; for the weight-2 Virasoro field it is
the usual ``L(m)``. For a generator of weight ``d`` the stored index ``m``
corresponds to the coefficient of ``z^{-(m+d-1)-1}`` in the field, so the
bracket of two stored modes ``g(m), h(n)`` always lands on stored index
``m+n`` (plus a possible central term).

General states expose their full tower of modes through
:func:`mode_action`, computed with the iterate formula derived from the
Jacobi identity; :func:`axiom_suite` checks the axioms themselves on the
resulting structure with exact arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .combinatorics import binomial
from .linalg import Combination, add_scaled
from .report import CheckRecord, ReportDocument

# A basis monomial: ((mode, generator), ...) sorted ascending, acting on the
# vacuum. The empty tuple is the vacuum itself. Tuple comparison is the
# canonical order on modes inside a monomial.
Monomial = tuple[tuple[int, str], ...]

# A polynomial in the two mode indices (m, n) of a bracket, as a tuple of
# ((deg_m, deg_n), coefficient) pairs.
IndexPolynomial = tuple[tuple[tuple[int, int], Fraction | int], ...]


def _eval_poly(poly: IndexPolynomial, m: int, n: int) -> Fraction | int:
    total = 0
    for (dm, dn), c in poly:
        total += c * m**dm * n**dn
    return total


@dataclass(frozen=True)
class BracketTerm:
    """One contribution to the commutator ``[g(m), h(n)]``.

    ``target`` names a generator receiving index ``m+n``, or is ``None`` for
    a central term supported on ``m+n == kronecker``. Central terms multiply
    the presentation's central charge when ``uses_charge`` is set.
    """

    poly: IndexPolynomial
    target: str | None = None
    kronecker: int = 0
    uses_charge: bool = False


@dataclass(frozen=True, eq=False)
class Presentation:
    """A strongly generated vertex operator algebra on its vacuum module.

    Compared and hashed by identity: :func:`builtin_presentation` returns one
    shared object per VOA, and a copy built by hand is another presentation.
    """

    name: str
    generators: tuple[tuple[str, int], ...]  # (label, conformal weight)
    brackets: tuple[tuple[tuple[str, str], tuple[BracketTerm, ...]], ...]
    central_charge: Fraction
    conformal_recipe: tuple[tuple[Monomial, Fraction], ...]
    vacuum_thresholds: tuple[tuple[str, int], ...]  # least m with g(m)|vac> = 0

    def weight_of(self, label: str) -> int:
        for gen, wt in self.generators:
            if gen == label:
                return wt
        raise KeyError(f"unknown generator {label!r} in presentation {self.name}")

    def threshold_of(self, label: str) -> int:
        for gen, thr in self.vacuum_thresholds:
            if gen == label:
                return thr
        raise KeyError(f"unknown generator {label!r} in presentation {self.name}")

    def bracket_terms(self, g: str, h: str) -> tuple[BracketTerm, ...]:
        for pair, terms in self.brackets:
            if pair == (g, h):
                return terms
        raise KeyError(f"no bracket table entry for ({g}, {h})")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(gen for gen, _ in self.generators)

    def conformal_vector(self) -> "FockVector":
        return FockVector(self, dict(self.conformal_recipe))


def monomial_weight(mono: Monomial) -> int:
    return -sum(m for m, _ in mono)


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
            generators=(("a", 1),),
            brackets=(
                (("a", "a"), (BracketTerm(poly=(((1, 0), 1),), target=None, kronecker=0),)),
            ),
            central_charge=Fraction(1),
            conformal_recipe=((mono_aa, Fraction(1, 2)),),
            vacuum_thresholds=(("a", 0),),
        )
    if name == "virasoro":
        vir_terms = (
            BracketTerm(poly=(((1, 0), 1), ((0, 1), -1)), target="L"),
            BracketTerm(
                poly=(((3, 0), Fraction(1, 12)), ((1, 0), Fraction(-1, 12))),
                target=None,
                kronecker=0,
                uses_charge=True,
            ),
        )
        return Presentation(
            name="virasoro",
            generators=(("L", 2),),
            brackets=((("L", "L"), vir_terms),),
            central_charge=c,
            conformal_recipe=((((-2, "L"),), Fraction(1)),),
            vacuum_thresholds=(("L", -1),),
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
    same order used for row reduction pivots and reports.
    """
    if max_weight < 0:
        raise ValueError("max_weight must be nonnegative")
    creation_pairs = sorted(
        (m, gen)
        for gen, _ in presentation.generators
        for m in range(-max_weight, presentation.threshold_of(gen))
    )

    def extend(remaining: int, min_index: int) -> Iterator[Monomial]:
        if remaining == 0:
            yield ()
            return
        for idx in range(min_index, len(creation_pairs)):
            m, gen = creation_pairs[idx]
            if -m > remaining:
                continue
            for rest in extend(remaining + m, idx):
                yield ((m, gen),) + rest

    out: list[tuple[int, list[Monomial]]] = []
    for w in range(max_weight + 1):
        monos = sorted(extend(w, 0))
        out.append((w, monos))
    return out


def basis_vectors(presentation: Presentation, max_weight: int) -> list[FockVector]:
    """Flat list of basis vectors of weight at most ``max_weight``."""
    return [
        FockVector.from_monomial(presentation, mono)
        for _, monos in enumerate_basis(presentation, max_weight)
        for mono in monos
    ]


Combo = tuple[tuple[Monomial, Fraction], ...]


def _freeze(acc: dict[Monomial, Fraction]) -> Combo:
    return tuple((m, c) for m, c in sorted(acc.items()) if c)


# Every memo table of the package, registered where it is defined, so that
# clear_caches reaches the tables even where a name is later rebound.
_MEMOS: list = []


def memo(fn):
    """Memoize ``fn`` without bound and register it with :func:`clear_caches`."""
    cached = lru_cache(maxsize=None)(fn)
    _MEMOS.append(cached)
    return cached


@memo
def _apply_mono(presentation: Presentation, gen: str, m: int, mono: Monomial) -> Combo:
    """Normal order ``g(m)`` applied to a canonical monomial.

    Straightening: a creation index in canonical position is prepended;
    otherwise the mode is commuted past the head using the bracket table,
    which terminates because bracket terms strictly shorten the monomial.
    """
    threshold = presentation.threshold_of(gen)
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
    for term in presentation.bracket_terms(gen, head_g):
        coeff = _eval_poly(term.poly, m, head_m)
        if not coeff:
            continue
        if term.target is None:
            if m + head_m == term.kronecker:
                if term.uses_charge:
                    coeff *= presentation.central_charge
                add_scaled(acc, ((tail, coeff),))
        else:
            add_scaled(acc, _apply_mono(presentation, term.target, m + head_m, tail), coeff)
    return _freeze(acc)


@memo
def _mode_mono(presentation: Presentation, umono: Monomial, n: int, vmono: Monomial) -> Combo:
    """The n-th mode of the state ``umono . vac`` applied to ``vmono . vac``.

    Base cases: the vacuum acts as the identity through its (-1)-st mode
    only, and a bare generator state delegates to the straightening above.
    Otherwise the leftmost mode of ``umono`` is peeled off with the iterate
    formula; all index sums are finite because modes that would land in
    negative weight act as zero.
    """
    if not umono:
        return ((vmono, 1),) if n == -1 else ()
    head_m, head_g = umono[0]
    gen_weight = presentation.weight_of(head_g)
    if len(umono) == 1 and head_m == -gen_weight:
        return _apply_mono(presentation, head_g, n - gen_weight + 1, vmono)

    ell = head_m + gen_weight - 1
    rest = umono[1:]
    rest_weight = monomial_weight(rest)
    v_weight = monomial_weight(vmono)
    first_top = rest_weight + v_weight - 1 - n
    second_top = gen_weight + v_weight - 1
    i_top = max(first_top, second_top)
    if ell >= 0:
        i_top = min(i_top, ell)
    acc: dict[Monomial, Fraction] = {}
    for i in range(i_top + 1):
        base = binomial(ell, i)
        if not base:
            continue
        coeff = -base if i % 2 else base
        if i <= first_top:
            # g(head)_{ell-i} ( rest_{n+i} v ): stored index head_m - i.
            for mono2, c2 in _mode_mono(presentation, rest, n + i, vmono):
                add_scaled(acc, _apply_mono(presentation, head_g, head_m - i, mono2), coeff * c2)
        if i <= second_top:
            # -(-1)^ell rest_{ell+n-i} ( g_i v ): stored index i - weight + 1.
            sign2 = -coeff if ell % 2 == 0 else coeff
            for mono2, c2 in _apply_mono(presentation, head_g, i - gen_weight + 1, vmono):
                add_scaled(acc, _mode_mono(presentation, rest, ell + n - i, mono2), sign2 * c2)
    return _freeze(acc)


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
    return FockVector(presentation, acc)


def truncation_bound(u: FockVector, v: FockVector) -> int:
    """An index ``I`` with ``u_n v = 0`` for every ``n >= I``.

    ``u_n v`` lands in weight ``wt(u)+wt(v)-n-1``; once that is negative the
    result vanishes, so ``I = max_weight(u) + max_weight(v)`` works.
    """
    if u.is_zero or v.is_zero:
        return 0
    return u.max_weight() + v.max_weight()


def clear_caches() -> None:
    """Empty every table registered with :func:`memo`: normal ordering, the
    mode action, ``zhu._star_mono`` and ``zhu.build_zhu_context``. The shared
    built-in presentations are kept."""
    for table in _MEMOS:
        table.cache_clear()


# ---------------------------------------------------------------------------
# Axiom checks
# ---------------------------------------------------------------------------


# Sampling bounds of :func:`axiom_suite`: state weight and mode index.
PAIR_WEIGHT = 4
INDEX_BOUND = 3


def presentation_checks(presentation: Presentation) -> list[tuple[str, bool, object]]:
    """Structural invariants of the presentation data itself.

    Returns (name, passed, witness) triples: bracket antisymmetry on sampled
    index pairs, the conformal vector having weight 2, and the central
    charge recovered from ``omega_3 omega = (c/2) vac``.
    """
    results: list[tuple[str, bool, object]] = []

    ok = True
    witness: object = None
    def bracket_value(first: str, second: str, mi: int, ni: int) -> dict[object, Fraction]:
        out: dict[object, Fraction] = {}
        for term in presentation.bracket_terms(first, second):
            if term.target is None and mi + ni != term.kronecker:
                continue
            coeff = _eval_poly(term.poly, mi, ni)
            if coeff:
                key = (term.target, term.uses_charge)
                out[key] = out.get(key, 0) + coeff
        return out

    for g in presentation.labels:
        for h in presentation.labels:
            for m in range(-4, 5):
                for n in range(-4, 5):
                    total = bracket_value(g, h, m, n)
                    for key, coeff in bracket_value(h, g, n, m).items():
                        total[key] = total.get(key, 0) + coeff
                    if any(total.values()) and ok:
                        ok = False
                        witness = {"g": g, "h": h, "m": m, "n": n}
    results.append(("bracket_antisymmetry", ok, witness))

    omega = presentation.conformal_vector()
    homogeneous = omega.is_homogeneous() and omega.max_weight() == 2
    results.append(("conformal_vector_weight", homogeneous, None if homogeneous else format_element(omega)))

    got = mode_action(omega, 3, omega)
    want = FockVector.from_monomial(presentation, (), presentation.central_charge / 2)
    results.append(
        ("central_charge_recovered", got == want, None if got == want else format_element(got))
    )
    return results


def _jacobi_instance(
    presentation: Presentation,
    u: FockVector,
    v: FockVector,
    m: int,
    n: int,
    ell: int,
    x: FockVector,
) -> tuple[FockVector, FockVector]:
    """Both sides of the Jacobi identity applied to ``x``; finite sums."""
    wu, wv, wx = u.max_weight(), v.max_weight(), x.max_weight()
    lhs: dict[Monomial, Fraction] = {}
    i = 0
    while True:
        c = binomial(ell, i)
        first_alive = n + i <= wv + wx - 1
        second_alive = m + i <= wu + wx - 1
        if ell >= 0 and i > ell:
            break
        if not (first_alive or second_alive):
            break
        if c:
            sign = -1 if i % 2 else 1
            if first_alive:
                term = mode_action(u, m + ell - i, mode_action(v, n + i, x))
                add_scaled(lhs, term.terms.items(), sign * c)
            if second_alive:
                flip = -1 if ell % 2 == 0 else 1
                term = mode_action(v, n + ell - i, mode_action(u, m + i, x))
                add_scaled(lhs, term.terms.items(), sign * c * flip)
        i += 1
    rhs: dict[Monomial, Fraction] = {}
    for i in range(max(wu + wv - ell, 0) + 1):
        c = binomial(m, i)
        if not c:
            continue
        uv = mode_action(u, ell + i, v)
        if uv.is_zero:
            continue
        add_scaled(rhs, mode_action(uv, m + n - i, x).terms.items(), c)
    return FockVector(presentation, lhs), FockVector(presentation, rhs)


def axiom_suite(
    presentation: Presentation, max_weight: int, seed: int = 0, jacobi_samples: int = 150
) -> ReportDocument:
    """Exact checks of the vacuum, grading, translation, Virasoro-bracket and
    (sampled) Jacobi axioms on the weight window ``<= max_weight``.

    The Jacobi identity is quantified over all states and integer triples,
    which is infeasible; instead ``jacobi_samples`` instances are drawn with
    the given seed from basis pairs of weight at most :data:`PAIR_WEIGHT` and
    index triples bounded by :data:`INDEX_BOUND`, each applied to a basis
    vector inside the window. The vacuum, grading and bracket checks are
    exhaustive on the window; the translation check is exhaustive on the
    :data:`PAIR_WEIGHT` window. Every failed record carries the witness
    tuple that reproduces it.
    """
    omega = presentation.conformal_vector()
    basis = basis_vectors(presentation, max_weight)
    doc = ReportDocument.for_suite("axioms", presentation, cutoff=max_weight, seed=seed)

    def record(name: str, params: dict, failures: list) -> None:
        doc.add(CheckRecord.from_failures(name, params, failures))

    failures = []
    for name, ok, witness in presentation_checks(presentation):
        if not ok:
            failures.append({"check": name, "witness": witness})
    record("presentation_invariants", {"cutoff": max_weight}, failures)

    # Vacuum: v_i vac = delta_{i,-1} v for i >= -1.
    failures = []
    vac = FockVector.vacuum(presentation)
    for v in basis:
        top = truncation_bound(v, vac) + 2
        for i in range(-1, top + 1):
            got = mode_action(v, i, vac)
            want = v if i == -1 else FockVector.zero(presentation)
            if got != want:
                failures.append({"v": format_element(v), "i": i, "got": format_element(got)})
    record("vacuum_modes", {"cutoff": max_weight}, failures)

    # Grading: omega_1 acts as the weight on homogeneous vectors.
    failures = []
    for v in basis:
        got = mode_action(omega, 1, v)
        want = v.max_weight() * v
        if got != want:
            failures.append({"v": format_element(v), "got": format_element(got)})
    record("l0_grading", {"cutoff": max_weight}, failures)

    # Translation: (L(-1)u)_n = -n u_{n-1} as operators on the window.
    failures = []
    small = basis_vectors(presentation, min(max_weight, PAIR_WEIGHT))
    for u in small:
        lu = mode_action(omega, 0, u)
        for n in range(-INDEX_BOUND, INDEX_BOUND + 1):
            for x in small:
                got = mode_action(lu, n, x)
                want = -n * mode_action(u, n - 1, x)
                if got != want:
                    failures.append(
                        {"u": format_element(u), "n": n, "x": format_element(x)}
                    )
    record("translation_covariance", {"cutoff": max_weight, "bound": INDEX_BOUND}, failures)

    # Virasoro bracket with central term, via omega modes.
    failures = []
    c = presentation.central_charge
    for m in range(-INDEX_BOUND, INDEX_BOUND + 1):
        for n in range(-INDEX_BOUND, INDEX_BOUND + 1):
            for x in basis:
                lm = lambda k, y: mode_action(omega, k + 1, y)  # noqa: E731
                got = lm(m, lm(n, x)) - lm(n, lm(m, x))
                want = (m - n) * lm(m + n, x)
                if m + n == 0:
                    want = want + Fraction(m**3 - m, 12) * c * x
                if got != want:
                    failures.append({"m": m, "n": n, "x": format_element(x)})
    record("virasoro_bracket", {"cutoff": max_weight, "bound": INDEX_BOUND}, failures)

    # Jacobi identity on sampled instances.
    failures = []
    rng = random.Random(seed)
    pool = basis_vectors(presentation, min(max_weight, PAIR_WEIGHT))
    b = INDEX_BOUND
    for _ in range(jacobi_samples):
        u = pool[rng.randrange(len(pool))]
        v = pool[rng.randrange(len(pool))]
        m = rng.randint(-b, b)
        n = rng.randint(-b, b)
        ell = rng.randint(-b, b)
        x = basis[rng.randrange(len(basis))]
        lhs, rhs = _jacobi_instance(presentation, u, v, m, n, ell, x)
        if lhs != rhs:
            failures.append(
                {
                    "u": format_element(u),
                    "v": format_element(v),
                    "m": m,
                    "n": n,
                    "l": ell,
                    "x": format_element(x),
                }
            )
    record(
        "jacobi_sampled",
        {"cutoff": max_weight, "samples": jacobi_samples, "seed": seed},
        failures,
    )
    return doc
