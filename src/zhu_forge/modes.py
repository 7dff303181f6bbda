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
is at least ``-k`` (:func:`filtration_report`); such a suffix also
annihilates every vector killed by all shifts above ``-k-1``, which is what
makes discarding deep tails sound in :func:`reduce_word`.

No relation between modes of ``u`` and modes of ``L(-1)u`` is applied to
words automatically; identities are checked either per-word with identical
arguments or semantically through :func:`evaluate_expression`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .combinatorics import binomial
from .linalg import Combination, add_scaled
from .report import CheckRecord, ReportDocument
from .voa import (
    FockVector,
    Monomial,
    Presentation,
    basis_vectors,
    format_element,
    format_monomial,
    mode_action,
    monomial_weight,
)
from .zhu import build_zhu_context, omega_subspace, star_product

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
        return UEAExpression(self.presentation, out)

    def __repr__(self) -> str:
        if not self.terms:
            return "UEAExpression(0)"
        parts = [f"{c} * {format_word(w)}" for w, c in self.sorted_terms()]
        return "UEAExpression(" + " + ".join(parts) + ")"


def _put_factor(acc: dict[Word, Fraction], mono: Monomial, shift: int, coeff: Fraction) -> None:
    """Record ``coeff * J_shift(mono)``, collapsing vacuum modes.

    Distinct monomials give distinct one-letter words, so callers that pass
    each monomial once never need to add coefficients.
    """
    if mono:
        acc[((mono, shift),)] = coeff
    elif shift == 0:
        # J_k(vac) is the identity for k = 0 and zero otherwise.
        acc[()] = coeff


def mode_symbol(argument: FockVector, shift: int) -> UEAExpression:
    """The symbol ``J_shift(argument)``, linear in the argument."""
    acc: dict[Word, Fraction] = {}
    for mono, coeff in argument.terms.items():
        _put_factor(acc, mono, shift, coeff)
    return UEAExpression(argument.presentation, acc)


def raw_mode(argument: FockVector, index: int) -> UEAExpression:
    """The raw current-algebra mode ``argument(index)``.

    Converted to shifted form per homogeneous component: for a component of
    weight ``d`` the raw index ``index`` has shift ``index - d + 1``.
    """
    acc: dict[Word, Fraction] = {}
    for mono, coeff in argument.terms.items():
        _put_factor(acc, mono, index - monomial_weight(mono) + 1, coeff)
    return UEAExpression(argument.presentation, acc)


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

    Expands ``sum_i C(m, i) (u_i v)(m+n-i)``; the sum is finite because high
    modes of ``u`` kill ``v``.
    """
    u._check_same(v)
    acc: dict[Word, Fraction] = {}
    for wu, upart in u.weight_decomposition().items():
        for wv, vpart in v.weight_decomposition().items():
            for i in range(wu + wv + 1):
                c = binomial(m, i)
                if not c:
                    if m >= 0 and i > m:
                        break
                    continue
                inner = mode_action(upart, i, vpart)
                if inner:
                    add_scaled(acc, raw_mode(inner, m + n - i).terms.items(), c)
    return UEAExpression(u.presentation, acc)


def expand_iterate_side(
    u: FockVector, v: FockVector, m: int, n: int, ell: int
) -> UEAExpression:
    """Single-mode side of the Jacobi identity in shifted indices:
    ``sum_i C(m + wt(u) - 1, i) J_{m+n+ell}(u_{ell+i} v)``."""
    u._check_same(v)
    acc: dict[Word, Fraction] = {}
    shift = m + n + ell
    for wu, upart in u.weight_decomposition().items():
        for wv, vpart in v.weight_decomposition().items():
            top = wu + wv - 1 - ell  # beyond this u_{ell+i} v = 0
            for i in range(max(top, 0) + 1):
                c = binomial(m + wu - 1, i)
                if not c:
                    continue
                inner = mode_action(upart, ell + i, vpart)
                if inner:
                    add_scaled(acc, mode_symbol(inner, shift).terms.items(), c)
    return UEAExpression(u.presentation, acc)


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
    ignored.
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
        i_top = right_bound - min(m, n)
    else:
        i_top = ell
    acc: dict[Word, Fraction] = {}
    for i in range(i_top + 1):
        c = binomial(ell, i)
        if not c:
            continue
        coeff = -c if i % 2 else c
        if ell >= 0 or n + i <= right_bound:
            first = mode_symbol(u, m + ell - i).concat(mode_symbol(v, n + i))
            add_scaled(acc, first.terms.items(), coeff)
        flip = -coeff if ell % 2 == 0 else coeff
        if ell >= 0 or m + i <= right_bound:
            second = mode_symbol(v, n + ell - i).concat(mode_symbol(u, m + i))
            add_scaled(acc, second.terms.items(), flip)
    return UEAExpression(u.presentation, acc)


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
    return FockVector(presentation, total)


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
    Requires ``depth >= 0`` and ``depth + s >= 0``.
    """
    _check_pair_hypothesis(s, depth)
    u._check_same(v)
    presentation = u.presentation

    margin = 2 * bound + abs(s) + abs(t) + depth + 4
    # Accumulate lhs - rhs in one dict; clipping is a projection, so it can
    # be applied to the difference. The tails are built only up to the
    # window's edge; the clip still trims the product side.
    acc: dict[Word, Fraction] = {}
    for j in range(depth + 1):
        c = binomial(-depth - s - 1, j)
        side = expand_product_side(u, v, depth + 1, t + j, -depth - s - 1 - j, right_bound=margin)
        add_scaled(acc, side.terms.items(), c)

    add_scaled(acc, word_expression(presentation, [(u, -s), (v, t)]).terms.items(), -1)
    _add_pair_tails(
        acc, s, t, depth, u, v, bound - max(s, t), bound - depth - 1 - max(0, s - t)
    )
    kept = {w: c for w, c in acc.items() if all(-bound <= shift <= bound for _, shift in w)}
    return UEAExpression(presentation, kept)


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

    The two tail families have right factors ``J_{k+t}(v)`` with
    ``k > depth`` and ``J_{depth+1+i}(u)`` with ``i >= 0``, so their words
    carry filtration witnesses at suffix degree at most ``-(depth+1+t)`` and
    ``-(depth+1)`` respectively. ``right_bound=None`` discards both tails
    and returns the exact head; an integer retains tail terms whose right
    factor shift is at most the bound. Requires ``depth >= 0``,
    ``depth + s >= 0`` and, for a finite head, nonnegative weights
    (guaranteed here).
    """
    _check_pair_hypothesis(s, depth)
    u._check_same(v)
    presentation = u.presentation
    acc: dict[Word, Fraction] = {}
    for wu, upart in u.weight_decomposition().items():
        for j in range(depth + 1):
            cj = binomial(-depth - s - 1, j)
            for i in range(depth + wu + 1):
                ci = binomial(depth + wu, i)
                if not ci or not cj:
                    continue
                inner = mode_action(upart, -depth - s - 1 - j + i, v)
                if inner:
                    add_scaled(acc, mode_symbol(inner, t - s).terms.items(), ci * cj)
    if right_bound is not None:
        _add_pair_tails(acc, s, t, depth, u, v, right_bound - t, right_bound - depth - 1)
    return UEAExpression(presentation, acc)


def _check_pair_hypothesis(s: int, depth: int) -> None:
    if depth < 0:
        raise ValueError(f"depth {depth} is negative")
    if depth + s < 0:
        raise ValueError("hypothesis depth + s >= 0 violated")


def _add_pair_tails(
    acc: dict[Word, Fraction],
    s: int,
    t: int,
    depth: int,
    u: FockVector,
    v: FockVector,
    k_top: int,
    i_top: int,
) -> None:
    """Add both tail families of the pair rewrite to ``acc``: right factors
    ``J_{k+t}(v)`` for ``depth < k <= k_top`` and ``J_{depth+1+i}(u)`` for
    ``0 <= i <= i_top``, each coefficient summed over ``j`` first."""
    presentation = u.presentation
    for k in range(depth + 1, k_top + 1):
        c = sum(
            (-1 if j % 2 else 1) * binomial(depth + s + j, j) * binomial(depth + s + k, k - j)
            for j in range(depth + 1)
        )
        if c:
            words = word_expression(presentation, [(u, -k - s), (v, k + t)])
            add_scaled(acc, words.terms.items(), -c)
    sign = -1 if (depth + s + 1) % 2 else 1
    for i in range(i_top + 1):
        c = sum(
            binomial(depth + s + j, j) * binomial(depth + s + j + i, i) for j in range(depth + 1)
        )
        if c:
            words = word_expression(presentation, [(v, t - depth - s - 1 - i), (u, depth + 1 + i)])
            add_scaled(acc, words.terms.items(), sign * c)


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

    def to_jsonable(self) -> dict:
        return {**asdict(self), "word": format_word(self.word)}


def find_witness(word: Word, level: int) -> FiltrationWitness | None:
    """Best suffix witness with degree at most ``level`` (``level <= 0``)."""
    best: FiltrationWitness | None = None
    for position in range(len(word) + 1):
        degree = -sum(shift for _, shift in word[position:])
        if degree <= level:
            witness = FiltrationWitness(word, position, degree)
            if best is None or witness.suffix_degree < best.suffix_degree:
                best = witness
    return best


def filtration_report(expression: UEAExpression, level: int) -> ReportDocument:
    """Witness search for every word: success certifies membership of the
    expression in the degree-``level`` filtration piece (sufficient only)."""
    if level > 0:
        raise ValueError("filtration levels are nonpositive")
    for word in expression.terms:
        if word_degree(word) != 0:
            raise ValueError(f"expression is not degree zero: {format_word(word)}")
    failures = []
    witnesses = []
    for word, _ in expression.sorted_terms():
        witness = find_witness(word, level)
        if witness is None:
            failures.append({"word": format_word(word)})
        else:
            witnesses.append(witness.to_jsonable())
    record = CheckRecord.from_failures(
        "suffix_witnesses", {"level": level, "words": len(expression.terms)}, failures
    )
    record.witness = {"failures": failures} if failures else {"witnesses": witnesses}
    doc = ReportDocument(config={"suite": "filtration_witness", "level": level})
    doc.add(record)
    return doc


# ---------------------------------------------------------------------------
# Degree-zero word reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscardRecord:
    family: str  # "right_tail" or "reordered_tail"
    position: int
    min_suffix_shift: int  # every discarded word's right factor shift is >= this


@dataclass(frozen=True)
class ReductionStep:
    word: Word
    position: int
    s: int
    t: int
    depth: int
    produced_words: int
    discarded: tuple[DiscardRecord, ...]

    def to_jsonable(self) -> dict:
        return {**asdict(self), "word": format_word(self.word)}


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


def _pick_position(word: Word, variant: str) -> int:
    if variant == "rightmost":
        return len(word) - 2
    if variant == "leftmost":
        return 0
    raise ValueError(f"unknown variant {variant!r}")


def reduce_word(
    presentation: Presentation,
    factors: list[tuple[FockVector, int]] | UEAExpression,
    mod_level: int,
    variant: str = "rightmost",
) -> tuple[FockVector, ReductionTrace]:
    """Rewrite a degree-zero expression to a single zero-shift mode.

    Repeatedly replaces an adjacent pair ``J_p(A) J_q(B)`` (rightmost by
    default) by the exact single-mode head of :func:`pair_expansion` with
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
    if isinstance(factors, UEAExpression):
        expression = factors
        if expression.presentation != presentation:
            raise ValueError("expression belongs to a different presentation")
    else:
        # Input factors are kept raw (vacuum arguments included) so that the
        # pair rewrite itself produces the star product even against the
        # vacuum; symbols created during rewriting are still normalized.
        # Every raw word has one letter per factor, so no two coincide.
        raw: dict[Word, Fraction] = {(): Fraction(1)}
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
        if word_degree(word) != 0:
            raise ValueError(f"word is not degree zero: {format_word(word)}")

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
            position = _pick_position(word, variant)
            (mono_a, p), (mono_b, q) = word[position], word[position + 1]
            s, t = -p, q
            # A discarded tail's witness suffix continues through the factors
            # after the pair, so their degree (when positive) must be absorbed
            # into the depth for the guarantee to survive. The rightmost pair
            # has an empty suffix and reduces to the plain rule.
            trailing_degree = -sum(shift for _, shift in word[position + 2 :])
            effective = mod_level + max(trailing_degree, 0)
            depth = max(effective - 1, effective - 1 - t, -s)
            a = FockVector.from_monomial(presentation, mono_a)
            b = FockVector.from_monomial(presentation, mono_b)
            head = pair_expansion(s, t, depth, a, b, right_bound=None)
            prefix, suffix = word[:position], word[position + 2 :]
            add_scaled(acc, ((prefix + w + suffix, c) for w, c in head.terms.items()), coeff)
            trace.steps.append(
                ReductionStep(
                    word=word,
                    position=position,
                    s=s,
                    t=t,
                    depth=depth,
                    produced_words=len(head.terms),
                    discarded=(
                        DiscardRecord("right_tail", position, depth + 1 + t),
                        DiscardRecord("reordered_tail", position, depth + 1),
                    ),
                )
            )
        current = UEAExpression(presentation, acc)

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
    return FockVector(presentation, result), trace


def replay_trace(
    presentation: Presentation,
    factors: list[tuple[FockVector, int]] | UEAExpression,
    trace: ReductionTrace,
) -> FockVector:
    """Re-run a reduction and check it follows the recorded steps exactly."""
    result, fresh = reduce_word(presentation, factors, trace.mod_level, trace.variant)
    if [s.to_jsonable() for s in fresh.steps] != [s.to_jsonable() for s in trace.steps]:
        raise ValueError("trace does not match a deterministic replay")
    return result


# ---------------------------------------------------------------------------
# The star-product compatibility suite
# ---------------------------------------------------------------------------


def homomorphism_check(
    presentation: Presentation, level: int, weight_bound: int
) -> ReportDocument:
    """Zero-mode words multiply like the level star product.

    For every pair of basis states up to ``weight_bound``:

    * ``reduce_word(J_0(u) J_0(v), level+1)`` equals ``u *_level v`` exactly;
    * the reduction of the commutator word equals the star commutator
      modulo the truncated level ideal;
    * the original word and the zero-mode of its reduction act identically
      on the kernel subspace of shifts above ``level``.
    """
    states = basis_vectors(presentation, weight_bound)
    failures_product = []
    failures_commutator = []
    failures_semantic = []

    omega_vectors, _ = omega_subspace(presentation, level, weight_bound)

    for u in states:
        for v in states:
            expected = star_product(u, v, level)
            got, _trace = reduce_word(presentation, [(u, 0), (v, 0)], level + 1)
            if got != expected:
                failures_product.append(
                    {"u": format_element(u), "v": format_element(v)}
                )
                continue

            reverse = star_product(v, u, level)
            got_rev, _ = reduce_word(presentation, [(v, 0), (u, 0)], level + 1)
            difference = (got - got_rev) - (expected - reverse)
            if difference:
                cutoff = max(weight_bound, difference.max_weight())
                if build_zhu_context(presentation, level, cutoff).reduce(difference):
                    failures_commutator.append(
                        {"u": format_element(u), "v": format_element(v)}
                    )

            word = word_expression(presentation, [(u, 0), (v, 0)])
            reduced_mode = mode_symbol(got, 0)
            for x in omega_vectors:
                if evaluate_expression(word, x) != evaluate_expression(reduced_mode, x):
                    failures_semantic.append(
                        {
                            "u": format_element(u),
                            "v": format_element(v),
                            "x": format_element(x),
                        }
                    )
                    break

    params = {"level": level, "weight_bound": weight_bound}
    doc = ReportDocument.for_suite("iso", presentation, **params)
    doc.add(CheckRecord.from_failures("reduction_matches_star_product", params, failures_product))
    doc.add(CheckRecord.from_failures("commutator_modulo_ideal", params, failures_commutator))
    doc.add(CheckRecord.from_failures("action_on_kernel_subspace", params, failures_semantic))
    return doc
