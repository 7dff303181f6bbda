"""Formal words in current-algebra modes and the degree-zero rewriting.

A mode symbol ``J_k(u)`` denotes the mode of the state ``u`` that lowers
conformal weight by ``k``; it is linear in ``u``, so expressions expand over
basis monomials and a word is a finite sequence of (monomial, shift) pairs.
The degree of a word is minus the sum of its shifts. Modes of the vacuum
collapse immediately: ``J_0(vac)`` is the scalar 1 and every other vacuum
shift is 0.

The degree-zero part of the enveloping algebra carries the filtration whose
k-th piece is spanned by products with a right factor of degree at most
``k <= 0``. A word certifies its membership through a suffix whose shift-sum
is at least ``-k`` (:func:`find_witness`); such a suffix also
annihilates every vector killed by all shifts above ``-k-1``, which is what
makes discarding deep tails sound in :func:`reduce_word`.

The Jacobi identity is written once, as its two sides
:func:`expand_product_side` and :func:`expand_iterate_side`. The
current-algebra bracket (:func:`vhat_bracket`) is the iterate side at
``ell = 0`` over the weight parts of its arguments, and the sampled Jacobi
check of ``suites.axiom_suite`` evaluates both sides on a vector. The
iterate side and the head of the pair rewrite have the form
``J_shift(sum c * u_k v)`` with one shift for the whole sum; for basis
monomials of ``u`` and ``v`` the pairs ``(k, c)`` depend only on the two
weights, so each is one call of the term-pair kernel ``voa.mode_sum``, which
the Zhu products share and which reads the memoized mode-action table once
per index ``k``; the pair rewrite sums its coefficients per ``k`` first.
The pair rewrite's coefficients are a memo table keyed by ``wt(u)``, ``s``
and the depth (``_pair_coefficients``). Its head is the mode ``J_{t-s}`` of
a vector whose terms are tabulated per monomial pair, ``s`` and depth, not
``t`` (``_pair_head``), so :func:`reduce_word` forms each distinct head once
per process.

The product side, the pair rewrite's two tail families and the reordering
residual are sums of two-letter words ``J_{D-q}(x) J_q(y)`` of one total
shift ``D``, with ``(x, y)`` either ``(u, v)`` or ``(v, u)`` and an integer
coefficient that depends on neither. Each is summed first as an integer
table keyed by the order and ``q``; only the nonzero entries are then
expanded into words, once each, from pairs of terms (:func:`_add_table_words`,
:func:`_add_two_letters`). In the residual nearly every entry cancels in
the table, before any word is built.

No relation between modes of ``u`` and modes of ``L(-1)u`` is applied to
words automatically; identities are checked either per-word with identical
arguments or semantically through :func:`evaluate_expression`. The ``iso``
suite (:func:`homomorphism_check`) takes the zero modes of its states and
reductions on Ω_n as matrices in Ω_n's coordinates
(``zhu.ZeroModeAction``), one row per distinct monomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple

from .combinatorics import binomial
from .linalg import Combination, add_scaled
from .report import ReportDocument
from .voa import (
    FockVector,
    Monomial,
    Presentation,
    basis_vectors,
    format_element,
    format_monomial,
    memo,
    mode_action,
    mode_sum,
    monomial_weight,
)
from .zhu import ZeroModeAction, build_zhu_context, star_product

# A word: ((monomial, shift), ...). The empty word is the scalar 1.
Word = tuple[tuple[Monomial, int], ...]


def word_degree(word: Word) -> int:
    return -sum(shift for _, shift in word)


def format_word(word: Word) -> str:
    if not word:
        return "1"
    return "".join(f"J[{shift}]({format_monomial(mono)})" for mono, shift in word)


class UEAExpression(Combination):
    """Sparse rational combination of words, vacuum modes pre-collapsed."""

    __slots__ = ()

    @classmethod
    def scalar(cls, presentation: Presentation, value: Fraction | int) -> "UEAExpression":
        return cls(presentation, {(): value})

    def concat(self, other: "UEAExpression") -> "UEAExpression":
        """Product in the enveloping algebra (word concatenation)."""
        self._check_same(other)
        out: dict[Word, Fraction] = {}
        for w1, c1 in self.terms.items():
            add_scaled(out, ((w1 + w2, c2) for w2, c2 in other.terms.items()), c1)
        return UEAExpression._adopt(self.presentation, out)

    def __repr__(self) -> str:
        if not self.terms:
            return "UEAExpression(0)"
        parts = [f"{c} * {format_word(w)}" for w, c in self.sorted_terms()]
        return "UEAExpression(" + " + ".join(parts) + ")"


def _letters(terms, shift: int):
    """The one-letter words ``(J_shift(mono), coeff)`` of ``terms``, with
    vacuum modes collapsed: ``J_0(vac)`` is the empty word and every other
    vacuum shift is dropped. Distinct monomials give distinct words."""
    for mono, coeff in terms:
        if mono:
            yield ((mono, shift),), coeff
        elif shift == 0:
            yield (), coeff


def mode_symbol(argument: FockVector, shift: int) -> UEAExpression:
    """The symbol ``J_shift(argument)``, linear in the argument."""
    letters = _letters(argument.terms.items(), shift)
    return UEAExpression._adopt(argument.presentation, dict(letters))


def _add_two_letters(acc: dict, u: FockVector, p: int, v: FockVector, q: int, coeff) -> None:
    """``acc += coeff * J_p(u) J_q(v)`` over pairs of terms, with vacuum
    letters collapsed as in :func:`_letters`."""
    right = list(_letters(v.terms.items(), q))
    for left, c in _letters(u.terms.items(), p):
        add_scaled(acc, ((left + w, d) for w, d in right), c * coeff)


def word_expression(
    presentation: Presentation, factors: list[tuple[FockVector, int]]
) -> UEAExpression:
    """Product of mode symbols, expanded bilinearly over basis monomials."""
    out = UEAExpression.scalar(presentation, 1)
    for argument, shift in factors:
        out = out.concat(mode_symbol(argument, shift))
    return out


def vhat_bracket(u: FockVector, m: int, v: FockVector, n: int) -> UEAExpression:
    """Commutator ``[u(m), v(n)]`` in the current algebra, in shifted form.

    Expands ``sum_i C(m, i) (u_i v)(m+n-i)``. For homogeneous parts ``u_a``
    and ``v_b`` of weights ``a`` and ``b`` the raw mode ``u_a(m)`` has shift
    ``m-a+1``, and the sum is :func:`expand_iterate_side` at ``ell = 0`` with
    the shifts ``m-a+1`` and ``n-b+1``.
    """
    u._check_same(v)
    acc: dict[Word, Fraction] = {}
    for a, u_a in u.weight_decomposition().items():
        for b, v_b in v.weight_decomposition().items():
            side = expand_iterate_side(u_a, v_b, m - a + 1, n - b + 1, 0)
            add_scaled(acc, side.terms.items())
    return UEAExpression._adopt(u.presentation, acc)


def expand_iterate_side(
    u: FockVector, v: FockVector, m: int, n: int, ell: int
) -> UEAExpression:
    """Single-mode side of the Jacobi identity in shifted indices:
    ``sum_i C(m + wt(u) - 1, i) J_{m+n+ell}(u_{ell+i} v)``."""

    def expansion(a: int, b: int):
        return ((ell + i, binomial(m + a - 1, i)) for i in range(a + b - ell))

    letters = _letters(mode_sum(u, v, expansion).items(), m + n + ell)
    return UEAExpression._adopt(u.presentation, dict(letters))


def expand_product_side(
    u: FockVector,
    v: FockVector,
    m: int,
    n: int,
    ell: int,
    right_bound: int | None = None,
) -> UEAExpression:
    """Double-mode side of the Jacobi identity in shifted indices:
    ``sum_i (-1)^i C(ell, i) (J_{m+ell-i}(u) J_{n+i}(v)
    - (-1)^ell J_{n+ell-i}(v) J_{m+i}(u))``.

    For ``ell < 0`` the sum is infinite and ``right_bound`` caps the shift of
    the retained right factors; every omitted word has a right factor of
    shift above the bound, hence a filtration witness of suffix degree below
    ``-right_bound``. For ``ell >= 0`` the sum is finite and the bound is
    ignored. The words are those of the integer table
    :func:`_product_side_table`, expanded once per entry.
    """
    u._check_same(v)
    if ell < 0:
        if right_bound is None:
            raise ValueError("right_bound is required when ell < 0 (infinite sum)")
        if right_bound < max(m, n):
            raise ValueError(
                f"right_bound {right_bound} would drop the leading i=0 terms "
                f"(needs at least max(m, n) = {max(m, n)})"
            )
    acc: dict[Word, Fraction] = {}
    _add_table_words(acc, u, v, m + n + ell, _product_side_table(m, n, ell, right_bound))
    return UEAExpression._adopt(u.presentation, acc)


def _product_side_table(m: int, n: int, ell: int, right_bound: int | None):
    """The ``(key, c)`` entries of :func:`expand_product_side` as a table of
    two-letter words of total shift ``m+n+ell`` (see :func:`_add_table_words`):
    ``(False, n+i)`` for ``J_{m+ell-i}(u) J_{n+i}(v)`` and ``(True, m+i)``
    for ``J_{n+ell-i}(v) J_{m+i}(u)``, each family stopping at right shift
    ``right_bound`` when ``ell < 0``. Distinct ``i`` give distinct keys."""
    i_top = ell if ell >= 0 else right_bound - min(m, n)
    swapped_sign = 1 if ell % 2 else -1
    c = 1  # (-1)^i C(ell, i), updated exactly from i to i + 1
    for i in range(i_top + 1):
        if ell >= 0 or n + i <= right_bound:
            yield (False, n + i), c
        if ell >= 0 or m + i <= right_bound:
            yield (True, m + i), swapped_sign * c
        c = c * (i - ell) // (i + 1)


def _add_table_words(
    acc: dict[Word, Fraction],
    u: FockVector,
    v: FockVector,
    total: int,
    table: Iterable[tuple[tuple[bool, int], int]],
) -> None:
    """``acc +=`` the words of an integer table of two-letter words of total
    shift ``total``, given as ``(key, c)`` entries with distinct keys: the
    entry ``((swapped, q), c)`` stands for ``c * J_{total-q}(u) J_q(v)``, or
    ``c * J_{total-q}(v) J_q(u)`` when ``swapped``. Such a coefficient does
    not depend on ``u`` or ``v``, so callers sum their coefficients per key
    first and each entry is expanded once (:func:`_add_two_letters`)."""
    for (swapped, q), c in table:
        x, y = (v, u) if swapped else (u, v)
        _add_two_letters(acc, x, total - q, y, q, c)


def evaluate_expression(expression: UEAExpression, x: FockVector) -> FockVector:
    """Apply an expression to a vector exactly, factors acting right to left."""
    if expression.presentation != x.presentation:
        raise ValueError("expression and vector live over different presentations")
    presentation = expression.presentation
    total: dict[Monomial, Fraction] = {}
    for word, coeff in expression.terms.items():
        current = x
        for mono, shift in reversed(word):
            index = monomial_weight(mono) - 1 + shift
            current = mode_action(
                FockVector.from_monomial(presentation, mono), index, current
            )
            if current.is_zero:
                break
        add_scaled(total, current.terms.items(), coeff)
    return FockVector._adopt(presentation, total)


# ---------------------------------------------------------------------------
# The two-mode rearrangement and its residual check
# ---------------------------------------------------------------------------


def reordering_residual(
    s: int, t: int, depth: int, u: FockVector, v: FockVector, bound: int
) -> UEAExpression:
    """Per-word residual of the two-mode reordering identity.

    The weighted sum ``X = sum_{j=0}^{depth} C(-depth-s-1, j) *
    (product side at (depth+1, t+j, -depth-s-1-j))`` is compared against

    ``J_{-s}(u) J_t(v)``
    ``+ sum_{k>depth} sum_j (-1)^j C(depth+s+j, j) C(depth+s+k, k-j)
    J_{-k-s}(u) J_{k+t}(v)``
    ``- sum_j sum_i (-1)^{depth+s+1} C(depth+s+j, j) C(depth+s+j+i, i)
    J_{t-depth-s-1-i}(v) J_{depth+1+i}(u)``

    word by word, keeping only words whose two shifts both lie in
    ``[-bound, bound]``. The result is the (expected zero) difference.
    Every word has total shift ``t - s``, so the difference is summed as one
    integer table over the order of ``u`` and ``v`` and the right shift, and
    only its nonzero entries are expanded into words before the clip.
    Requires ``depth >= 0`` and ``depth + s >= 0``.
    """
    _check_pair_hypothesis(s, depth)
    u._check_same(v)

    # lhs - rhs is summed in one table; clipping is a projection, so it can
    # be applied to the difference's words. A product-side word omitted at
    # right bound ``bound`` has a right shift above it, so the clip drops it
    # anyway; ``depth + 1`` and ``t + depth`` keep the bound at least
    # ``max(m, n)``. The tails stop at the window's edge.
    right_bound = max(bound, depth + 1, t + depth)
    table: dict[tuple[bool, int], int] = {}
    for j in range(depth + 1):
        side = _product_side_table(depth + 1, t + j, -depth - s - 1 - j, right_bound)
        add_scaled(table, side, binomial(-depth - s - 1, j))
    add_scaled(table, (((False, t), -1),))
    tails = _pair_tail_table(
        s, t, depth, bound - max(s, t), bound - depth - 1 - max(0, s - t)
    )
    add_scaled(table, tails)
    acc: dict[Word, Fraction] = {}
    _add_table_words(acc, u, v, t - s, table.items())
    kept = {w: c for w, c in acc.items() if all(-bound <= shift <= bound for _, shift in w)}
    return UEAExpression._adopt(u.presentation, kept)


def pair_expansion(
    s: int,
    t: int,
    depth: int,
    u: FockVector,
    v: FockVector,
    right_bound: int | None = None,
) -> UEAExpression:
    """Rewrite ``J_{-s}(u) J_t(v)`` as a single-mode head plus deep tails.

    head:  ``sum_{j=0}^{depth} sum_i C(depth + wt(u), i) C(-depth-s-1, j)
    J_{t-s}(u_{-depth-s-1-j+i} v)``

    For a basis monomial of ``u`` the coefficient of each ``u_k v`` depends
    only on ``wt(u)``, ``s`` and ``depth``, so it is read from the memo table
    ``_pair_coefficients``; the head is ``J_{t-s}`` of that sum, the vector
    that ``_pair_head`` tabulates for basis monomials.

    The two tail families have right factors ``J_{k+t}(v)`` with
    ``k > depth`` and ``J_{depth+1+i}(u)`` with ``i >= 0``, so their words
    carry filtration witnesses at suffix degree at most ``-(depth+1+t)`` and
    ``-(depth+1)`` respectively. ``right_bound=None`` discards both tails
    and returns the exact head; an integer retains tail terms whose right
    factor shift is at most the bound, built as one integer table of
    two-letter words of total shift ``t - s`` (:func:`_pair_tail_table`) and
    expanded once per entry. Requires ``depth >= 0``,
    ``depth + s >= 0`` and, for a finite head, nonnegative weights
    (guaranteed here).
    """
    _check_pair_hypothesis(s, depth)
    terms = mode_sum(u, v, lambda a, b: _pair_coefficients(a, s, depth))
    acc = dict(_letters(terms.items(), t - s))
    if right_bound is not None:
        tails = _pair_tail_table(s, t, depth, right_bound - t, right_bound - depth - 1)
        _add_table_words(acc, u, v, t - s, tails)
    return UEAExpression._adopt(u.presentation, acc)


@memo
def _pair_coefficients(a: int, s: int, depth: int) -> tuple[tuple[int, int], ...]:
    """The pairs ``(k, c)`` of the head of :func:`pair_expansion` for ``u``
    of weight ``a``: ``c`` is the sum of ``C(depth + a, i) C(-depth-s-1, j)``
    over the ``(i, j)`` with ``k = -depth-s-1-j+i``."""
    per_k: dict[int, int] = {}
    for j in range(depth + 1):
        cj = binomial(-depth - s - 1, j)
        for i in range(depth + a + 1):
            k = -depth - s - 1 - j + i
            per_k[k] = per_k.get(k, 0) + cj * binomial(depth + a, i)
    return tuple(per_k.items())


@memo
def _pair_head(
    presentation: Presentation, mono_a: Monomial, mono_b: Monomial, s: int, depth: int
) -> tuple[tuple[Monomial, Fraction], ...]:
    """The ``(monomial, coeff)`` terms of the vector whose mode ``J_{t-s}``
    is the head of :func:`pair_expansion` on the basis monomials ``mono_a``
    and ``mono_b``, for every ``t``: one step of :func:`reduce_word`."""
    u = FockVector.from_monomial(presentation, mono_a)
    v = FockVector.from_monomial(presentation, mono_b)
    return tuple(mode_sum(u, v, lambda a, b: _pair_coefficients(a, s, depth)).items())


def _check_pair_hypothesis(s: int, depth: int) -> None:
    if depth < 0:
        raise ValueError(f"depth {depth} is negative")
    if depth + s < 0:
        raise ValueError("hypothesis depth + s >= 0 violated")


def _pair_tail_table(s: int, t: int, depth: int, k_top: int, i_top: int):
    """The ``(key, c)`` entries of both tail families of the pair rewrite, as
    a table of two-letter words of total shift ``t-s`` (see
    :func:`_add_table_words`): right factors ``J_{k+t}(v)`` for ``depth < k
    <= k_top`` and ``J_{depth+1+i}(u)`` for ``0 <= i <= i_top``, each
    coefficient read from its memo table (:func:`_right_tail_coefficient`,
    :func:`_reordered_tail_coefficient`). Distinct entries have distinct
    keys."""
    for k in range(depth + 1, k_top + 1):
        if c := _right_tail_coefficient(s, depth, k):
            yield (False, k + t), -c
    sign = -1 if (depth + s + 1) % 2 else 1
    for i in range(i_top + 1):
        if c := _reordered_tail_coefficient(s, depth, i):
            yield (True, depth + 1 + i), sign * c


@memo
def _right_tail_coefficient(s: int, depth: int, k: int) -> int:
    """``c = sum_j (-1)^j C(depth+s+j, j) C(depth+s+k, k-j)`` over ``0 <= j
    <= depth``; :func:`_pair_tail_table` holds ``-c`` at the word
    ``J_{-k-s}(u) J_{k+t}(v)``, for every ``t``."""
    return sum(
        (-1) ** j * binomial(depth + s + j, j) * binomial(depth + s + k, k - j)
        for j in range(depth + 1)
    )


@memo
def _reordered_tail_coefficient(s: int, depth: int, i: int) -> int:
    """``c = sum_j C(depth+s+j, j) C(depth+s+j+i, i)`` over ``0 <= j <=
    depth``; :func:`_pair_tail_table` holds ``(-1)^(depth+s+1) c`` at the
    word ``J_{t-depth-s-1-i}(v) J_{depth+1+i}(u)``, for every ``t``."""
    return sum(
        binomial(depth + s + j, j) * binomial(depth + s + j + i, i) for j in range(depth + 1)
    )


# ---------------------------------------------------------------------------
# Filtration witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiltrationWitness:
    """A suffix certifying membership in a filtration piece.

    The suffix of ``word`` starting at ``position`` has total degree
    ``suffix_degree``; a degree-zero word with such a suffix lies in the
    filtration piece at that degree (and annihilates every vector killed by
    all shifts above ``-suffix_degree - 1``).
    """

    word: Word
    position: int
    suffix_degree: int


def find_witness(word: Word, level: int) -> FiltrationWitness | None:
    """The suffix of least degree, at its first position, as a witness if
    that degree is at most ``level`` (``level <= 0``), else ``None``."""
    degree, position = min((word_degree(word[p:]), p) for p in range(len(word) + 1))
    return FiltrationWitness(word, position, degree) if degree <= level else None


# ---------------------------------------------------------------------------
# Degree-zero word reduction
# ---------------------------------------------------------------------------


class ReductionStep(NamedTuple):
    """One pair rewrite of :func:`reduce_word`; :meth:`to_jsonable` derives
    ``s``, ``t`` and the discarded tail families from these four values."""

    word: Word
    position: int
    depth: int
    produced_words: int

    def to_jsonable(self) -> dict:
        word, position, depth, produced_words = self
        s, t = -word[position][1], word[position + 1][1]
        return {
            "word": format_word(word),
            "position": position,
            "s": s,
            "t": t,
            "depth": depth,
            "produced_words": produced_words,
            "discarded": (
                {"family": "right_tail", "position": position, "min_suffix_shift": depth + 1 + t},
                {"family": "reordered_tail", "position": position, "min_suffix_shift": depth + 1},
            ),
        }


@dataclass
class ReductionTrace:
    mod_level: int
    variant: str
    steps: list[ReductionStep] = field(default_factory=list)

    def to_jsonable(self) -> dict:
        return {
            "mod_level": self.mod_level,
            "variant": self.variant,
            "steps": [step.to_jsonable() for step in self.steps],
        }


# The index of the left letter of the pair each variant rewrites.
_PAIR_POSITION = {"rightmost": lambda word: len(word) - 2, "leftmost": lambda word: 0}


def reduce_word(
    presentation: Presentation,
    factors: list[tuple[FockVector, int]] | UEAExpression,
    mod_level: int,
    variant: str = "rightmost",
) -> tuple[FockVector, ReductionTrace]:
    """Rewrite a degree-zero expression to a single zero-shift mode.

    Repeatedly replaces an adjacent pair ``J_p(A) J_q(B)`` (rightmost by
    default) by the exact single-mode head of :func:`pair_expansion`: the
    mode ``J_{t-s}`` of the vector read from its table per monomial pair,
    ``s`` and depth (``_pair_head``), with
    ``s = -p``, ``t = q`` and ``depth = max(L-1, L-1-q, p)``, where ``L`` is
    ``mod_level`` raised by the degree of the factors trailing the pair when
    that degree is positive (for the rightmost pair ``L == mod_level``).
    That choice keeps every discarded tail word witnessed at suffix degree
    at most ``-mod_level``, so the returned vector ``r`` satisfies
    ``J_0(r) == input`` modulo the filtration piece at ``-mod_level`` (and
    the two sides act identically on every vector killed by all shifts above
    ``mod_level - 1``). Each substitution strictly shortens words, so the
    rewriting terminates.
    """
    if mod_level < 1:
        raise ValueError("mod_level must be at least 1")
    if variant not in _PAIR_POSITION:
        raise ValueError(f"unknown variant {variant!r}")
    if isinstance(factors, UEAExpression):
        expression = factors
        if expression.presentation != presentation:
            raise ValueError("expression belongs to a different presentation")
    else:
        # Input factors are kept raw (vacuum arguments included) so that the
        # pair rewrite itself produces the star product even against the
        # vacuum; symbols created during rewriting are still normalized.
        # Every raw word has one letter per factor, so no two coincide.
        raw: dict[Word, Fraction] = {(): 1}
        for argument, shift in factors:
            if argument.presentation != presentation:
                raise ValueError("argument belongs to a different presentation")
            raw = {
                word + ((mono, shift),): coeff * c
                for word, coeff in raw.items()
                for mono, c in argument.terms.items()
            }
        expression = UEAExpression(presentation, raw)
    for word in expression.terms:
        degree = word_degree(word)
        if degree != 0:
            raise ValueError(f"word {format_word(word)} has degree {degree}, not 0")

    trace = ReductionTrace(mod_level=mod_level, variant=variant)
    current = expression
    while True:
        pending = [w for w in current.terms if len(w) > 1]
        if not pending:
            break
        acc: dict[Word, Fraction] = dict(
            (w, c) for w, c in current.terms.items() if len(w) <= 1
        )
        for word in sorted(pending):
            coeff = current.terms[word]
            position = _PAIR_POSITION[variant](word)
            (mono_a, p), (mono_b, q) = word[position], word[position + 1]
            s, t = -p, q
            prefix, suffix = word[:position], word[position + 2 :]
            # A discarded tail's witness suffix continues through the factors
            # after the pair, so their degree (when positive) must be absorbed
            # into the depth for the guarantee to survive. The rightmost pair
            # has an empty suffix and reduces to the plain rule.
            effective = mod_level + max(word_degree(suffix), 0)
            depth = max(effective - 1, effective - 1 - t, -s)
            head = _pair_head(presentation, mono_a, mono_b, s, depth)
            produced = [(prefix + w + suffix, c) for w, c in _letters(head, t - s)]
            add_scaled(acc, produced, coeff)
            trace.steps.append(ReductionStep(word, position, depth, len(produced)))
        current = UEAExpression._adopt(presentation, acc)

    result: dict[Monomial, Fraction] = {}
    for word, coeff in current.terms.items():
        mono = ()
        if word:
            mono, shift = word[0]
            if shift != 0:
                raise AssertionError(
                    "degree bookkeeping violated: singleton with nonzero shift"
                )
        add_scaled(result, ((mono, coeff),))
    return FockVector._adopt(presentation, result), trace


def replay_trace(
    presentation: Presentation,
    factors: list[tuple[FockVector, int]] | UEAExpression,
    trace: ReductionTrace,
) -> FockVector:
    """Re-run a reduction and check it follows the recorded steps exactly."""
    result, fresh = reduce_word(presentation, factors, trace.mod_level, trace.variant)
    if fresh.steps != trace.steps:
        raise ValueError("trace does not match a deterministic replay")
    return result


# ---------------------------------------------------------------------------
# The star-product compatibility suite
# ---------------------------------------------------------------------------


def homomorphism_check(
    presentation: Presentation, level: int, weight_bound: int
) -> ReportDocument:
    """Zero-mode words multiply like the level star product.

    For every ordered pair of basis states up to ``weight_bound``:

    * ``reduce_word(J_0(u) J_0(v), level+1)`` equals ``u *_level v`` exactly;
    * the reduction of the commutator word equals the star commutator
      modulo the truncated level ideal;
    * ``o(u) o(v)`` and the zero mode of the reduction act identically on
      the kernel subspace :func:`zhu.omega_subspace`, compared as matrices
      in its coordinates (:class:`zhu.ZeroModeAction`): for each basis
      vector ``x`` in turn, ``M(u) M(v) e_x`` against column ``x`` of
      ``M(reduction)``. The first ``x`` that differs is the witness, and an
      image that leaves the subspace where a column is needed is a failure.
      Where every image stays in the subspace, equality of coordinates is
      equality in V.

    Products, reductions and product verdicts are tabulated once per ordered
    pair. Where ``(u, v)`` passes the product check, its commutator
    difference is ``(v, u)``'s star product minus its reduction, which is
    nonzero exactly when ``(v, u)`` fails it: only then is it formed.
    """
    states = basis_vectors(presentation, weight_bound)
    action = ZeroModeAction(presentation, level, weight_bound)
    stars = [[star_product(u, v, level) for v in states] for u in states]
    reduced = [
        [reduce_word(presentation, [(u, 0), (v, 0)], level + 1)[0] for v in states]
        for u in states
    ]
    matches = [[got == expected for got, expected in zip(*rows)] for rows in zip(reduced, stars)]
    matrices = [action.matrix(v) for v in states]
    failures_product = []
    failures_commutator = []
    failures_semantic = []

    for i, u in enumerate(states):
        for j, v in enumerate(states):
            if not matches[i][j]:
                failures_product.append({"u": format_element(u), "v": format_element(v)})
                continue

            if not matches[j][i]:
                difference = stars[j][i] - reduced[j][i]
                cutoff = max(weight_bound, difference.max_weight())
                if build_zhu_context(presentation, level, cutoff).reduce(difference):
                    failures_commutator.append({"u": format_element(u), "v": format_element(v)})

            got = action.matrix(reduced[i][j])
            for k, x in enumerate(action.vectors):
                product = action.apply(matrices[i], matrices[j][k])
                if product is None or product != got[k]:
                    failures_semantic.append(dict(zip("uvx", map(format_element, (u, v, x)))))
                    break

    params = {"level": level, "weight_bound": weight_bound}
    doc = ReportDocument.for_suite("iso", presentation, **params)
    doc.record("reduction_matches_star_product", params, failures_product)
    doc.record("commutator_modulo_ideal", params, failures_commutator)
    doc.record("action_on_kernel_subspace", params, failures_semantic)
    return doc
