"""The equivalence between finite sets and state-monad algebras, made executable.

One direction sends an object Y to its function algebra: the carrier ``Y^S``
with the updates ``u_c(g) = const g(c)`` and the diagonal as lookup, whose
fold is the exponentiated evaluation.  The other direction
extracts from any algebra ``(X, h)`` a base object Y, the image of the
reachability map ``h . const: S x X -> X``, together with a surjection
``epi``, an inclusion ``mono``, and the comparison map ``compare: X -> Y^S``
obtained by transposing ``epi``.

The constructions that witness the equivalence are all explicit:

* ``compare_inverse`` builds the two-sided inverse of ``compare`` directly
  from the algebra's lookup;
* ``compare_retraction`` builds a left inverse by flattening graphs;
* ``compare_section`` builds a right inverse from any state;
* ``base_iso`` exhibits the base of a function algebra as the original
  object, naturally.

``verify_monadicity`` runs the whole pipeline over every carrier up to a
bound and reports per-check tallies.
"""

from __future__ import annotations

import json
from bisect import bisect
from dataclasses import dataclass, field
from functools import cached_property

from ._bulk import Side, side_values, value_at
from .algebra import (
    DEFAULT_SEARCH_CEILING,
    AlgebraMorphism,
    SearchCeilingExceeded,
    TAlgebra,
    _integer_root,
    _lookup_violation,
    _update_violation,
    check_algebra,
    enumerate_algebras,
    fold_side,
    morphism_witness,
    past_ceiling,
)
from .finset import (
    ExpCodec,
    FinSet,
    FinSetError,
    Morphism,
    classify,
    compose,
    curry,
    evaluation,
    exp_map,
    factorize,
    hom,
    identity,
)
from .statemonad import StateMonadCtx


def function_algebra(ctx: StateMonadCtx, y: FinSet | int) -> TAlgebra:
    """The algebra of S-indexed functions into Y: carrier ``Y^S``, updates
    ``u_c(g) = const g(c)`` and the diagonal ``l((g_c)_c) = c -> g_c(c)`` as
    lookup, whose fold is the exponentiated evaluation.  Validated by
    equations 1 to 3, which decide the laws (a model's fold is an algebra,
    :func:`_presentation_violation`), so no table of h is built."""
    y = y if isinstance(y, FinSet) else FinSet(y)
    carrier = ExpCodec(y, ctx.state).obj
    weights = ctx.digit_weights(y.size)
    ones = sum(weights)
    # columns[c][g] = g(c), digit c of the code g
    columns = [[g // w % y.size for g in range(carrier.size)] for w in weights]
    ups = [[v * ones for v in col] for col in columns]
    lookup = tuple(side_values((columns, weights, ())))
    found = _update_violation(carrier.size, ups) or _lookup_violation(carrier.size, ups, lookup)
    if found is not None:
        raise AssertionError(f"function algebra failed validation: {found}")
    alg = TAlgebra(ctx, carrier, tuple(v for up in ups for v in up), lookup)
    alg.checked = "presentation"
    return alg


def function_algebra_map(ctx: StateMonadCtx, v: Morphism) -> AlgebraMorphism:
    """The action of the function-algebra construction on a map ``v: Y -> Y'``,
    namely ``v^S``, checked to be an algebra morphism."""
    source, target = function_algebra(ctx, v.dom), function_algebra(ctx, v.cod)
    u = exp_map(v, ctx.state)
    w = morphism_witness(u, source, target)
    if w is not None:
        raise AssertionError(f"exponentiated map broke the morphism square at {w}")
    return AlgebraMorphism(source, target, u)


@dataclass(eq=False)
class BaseData:
    """An algebra with its extracted base object and comparison data.

    ``reach`` is the structure map restricted along the constant embedding,
    the algebra's updates ``(c, v) -> u_c(v)``; its image is the base.
    ``mono . epi == reach`` and ``compare`` is the transpose of ``epi``.

    ``mono_s`` (``mono^S``) and ``fold`` (h as a side, read code by code)
    are built on their first read and kept, so a suite builds each once.
    ``dataclasses.replace`` makes a new instance, which keeps neither.
    """

    algebra: TAlgebra
    base: FinSet
    epi: Morphism
    mono: Morphism
    reach: Morphism
    compare: Morphism

    @cached_property
    def mono_s(self) -> Morphism:
        """``mono^S: Y^S -> X^S``."""
        return exp_map(self.mono, self.algebra.ctx.state)

    @cached_property
    def fold(self) -> Side:
        """h, the fold of U and l, as a side over the TX codes, so h is not built."""
        alg = self.algebra
        return fold_side(alg.ctx, alg.carrier.size, alg.updates, alg.lookup)


def extract_base(alg: TAlgebra) -> BaseData:
    """Factor the reachability map of an algebra through its image.

    The base collects the values ``h(const(s, x))`` in order of least
    preimage, which makes every downstream construction deterministic.
    """
    ctx, x = alg.ctx, alg.carrier
    reach = Morphism(ctx.pair_obj(x), x, alg.updates)
    fact = factorize(reach)
    compare = curry(fact.epi, ctx.pair_codec(x))
    return BaseData(alg, fact.image, fact.epi, fact.mono, reach, compare)


def compare_inverse(data: BaseData) -> Morphism:
    """The explicit two-sided inverse ``Y^S -> X`` of the comparison map.

    A function ``y: S -> Y`` is sent to ``h(s -> (s, mono(y(s))))``, the
    lookup of ``mono . y``: it is ``l . mono^S``.
    """
    alg, mono_s = data.algebra, data.mono_s
    return Morphism(mono_s.dom, alg.carrier, [alg.lookup[g] for g in mono_s.table])


def compare_retraction(data: BaseData) -> Morphism:
    """A left inverse ``Y^S -> X``: include pointwise, take the graph, fold;
    ``g -> l(s -> u_s(mono(g(s))))``."""
    alg, mono_s, fold = data.algebra, data.mono_s, data.fold
    table = [value_at(fold, alg.ctx.graph_at(alg.carrier, g)) for g in mono_s.table]
    return Morphism(mono_s.dom, alg.carrier, table)


def epi_section(data: BaseData, s0: int) -> Morphism:
    """A section ``Y -> S x X`` of the reachability surjection, from the
    state ``s0``: include, embed as a computation, evaluate at ``s0``.
    The unit sends ``m`` to ``s -> (s, m)``, whose value at ``s0`` is
    ``(s0, m)``, so the section is ``y -> (s0, mono(y))``."""
    ctx = data.algebra.ctx
    if not 0 <= s0 < ctx.state.size:
        raise FinSetError(f"no chosen state s0={s0} in a {ctx.state.size}-state object")
    x = data.algebra.carrier
    table = tuple(s0 * x.size + m for m in data.mono.table)
    return Morphism(data.base, ctx.pair_obj(x), table)


def compare_section(data: BaseData, s0: int) -> Morphism:
    """A right inverse ``Y^S -> X`` of the comparison map: exponentiate the
    section of the surjection, then fold."""
    alg, fold = data.algebra, data.fold
    sigma_s = exp_map(epi_section(data, s0), alg.ctx.state)
    return Morphism(sigma_s.dom, alg.carrier, [value_at(fold, w) for w in sigma_s.table])


def compare_is_algebra_map(data: BaseData) -> bool:
    """Whether the comparison map is a morphism into the function algebra
    K(Y) of the base, decided on the update cells without building K(Y).

    By :func:`morphism_witness`, it is iff ``compare . u_c = u'_c .
    compare`` at every update cell ``(c, v)``.  K(Y)'s structure sends
    ``s -> (c_s, g_s)`` to ``s -> g_s(c_s)``, so ``u'_c`` sends g to the
    constant function on ``g(c)``, whose code is ``g(c)`` times the sum of
    the digit weights.  So the square is ``compare(u_c(v)) ==
    compare(v)(c) * ones``, where ``compare(v)(c)`` is ``epi(c, v)``; it is
    read off compare, so that the test is of the map passed in.
    """
    xn, yn, compare = data.algebra.carrier.size, data.base.size, data.compare.table
    weights = data.algebra.ctx.digit_weights(yn)
    ones = sum(weights)
    return all(
        compare[a] == compare[j % xn] // weights[j // xn] % yn * ones
        for j, a in enumerate(data.algebra.updates)
    )


def base_map(u: Morphism, source: BaseData, target: BaseData) -> Morphism:
    """The unique map between bases commuting with the two surjections.

    Well-definedness is checked on the fibers of the source surjection: all
    preimages of a base element must land on one target element.  A fiber
    collision means ``u`` was not an algebra morphism.
    """
    ctx = source.algebra.ctx
    xn = source.algebra.carrier.size
    x2n = target.algebra.carrier.size
    table: list[int | None] = [None] * source.base.size
    for i, yv in enumerate(source.epi.table):
        si, xv = divmod(i, xn)
        image = target.epi.table[si * x2n + u.table[xv]]
        if table[yv] is None:
            table[yv] = image
        elif table[yv] != image:
            raise FinSetError(
                f"fiber collision over base element {yv}: "
                f"{table[yv]} != {image} (map is not an algebra morphism)"
            )
    return Morphism(source.base, target.base, tuple(table))  # type: ignore[arg-type]


def base_iso(ctx: StateMonadCtx, y: FinSet | int, data: BaseData) -> Morphism:
    """The isomorphism from the base of the function algebra on Y back to Y.

    It is the unique map compatible with both surjections: the extracted
    base element of ``(s, g)`` goes to ``g(s)``.  Requires a nonempty state
    object.
    """
    if ctx.state.size == 0:
        raise FinSetError("the base of a function algebra needs a nonempty state object")
    y = y if isinstance(y, FinSet) else FinSet(y)
    ev = evaluation(y, ctx.state)
    table: list[int | None] = [None] * data.base.size
    for i, z in enumerate(data.epi.table):
        v = ev.table[i]
        if table[z] is None:
            table[z] = v
        elif table[z] != v:
            raise AssertionError(f"base iso not well defined at {z}")
    return Morphism(data.base, y, tuple(table))  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# per-algebra check suite


def check_suite(alg: TAlgebra) -> dict[str, bool]:
    """Run every comparison identity on one algebra.

    Returns a name-to-outcome map; all values must be True for a valid
    algebra over a nonempty state object.
    """
    ctx = alg.ctx
    s = ctx.state.size
    x = alg.carrier
    data = extract_base(alg)
    id_x = identity(x)
    exp_obj = ExpCodec(data.base, ctx.state).obj
    id_exp = identity(exp_obj)
    id_base = identity(data.base)

    out: dict[str, bool] = {}
    out["base_power"] = data.base.size**s == x.size
    inv = compare_inverse(data)
    out["compare_bijection"] = (
        compose(inv, data.compare).table == id_x.table
        and compose(data.compare, inv).table == id_exp.table
    )
    out["compare_algebra_map"] = compare_is_algebra_map(data)
    retr = compare_retraction(data)
    out["retraction_identity"] = compose(retr, data.compare).table == id_x.table
    out["retraction_matches_inverse"] = retr.table == inv.table
    out["transpose_triangle"] = (
        compose(data.mono_s, data.compare).table
        == curry(data.reach, ctx.pair_codec(x)).table
    )
    epi_sections_ok = True
    sections_ok = True
    sections_match = True
    for s0 in range(s):
        sigma = epi_section(data, s0)
        epi_sections_ok &= compose(data.epi, sigma).table == id_base.table
        big = compare_section(data, s0)
        sections_ok &= compose(data.compare, big).table == id_exp.table
        sections_match &= big.table == inv.table
    out["epi_section_identity"] = epi_sections_ok
    out["section_identity"] = sections_ok
    out["section_matches_inverse"] = sections_match
    return out


# ---------------------------------------------------------------------------
# full verification pipeline


@dataclass
class CheckTally:
    checked: int = 0
    failed: int = 0
    witness: str | None = None

    def record(self, ok: bool, witness: str | None = None) -> None:
        """Count one check, keeping the witness of the first failure.

        A witness is built only for a failure: callers pass ``None`` for a
        passing check, so a passing run formats no witness and reads no h.
        """
        self.checked += 1
        if not ok:
            self.failed += 1
            if self.witness is None:
                self.witness = witness


@dataclass
class VerificationReport:
    s_size: int
    max_x: int
    method: str
    carriers: dict[int, dict] = field(default_factory=dict)
    checks: dict[str, CheckTally] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def tally(self, name: str) -> CheckTally:
        tally = self.checks.get(name)
        if tally is None:
            tally = self.checks[name] = CheckTally()
        return tally

    @property
    def passed(self) -> bool:
        return all(t.failed == 0 for t in self.checks.values())

    def to_dict(self) -> dict:
        return {
            "s_size": self.s_size,
            "max_x": self.max_x,
            "method": self.method,
            "passed": self.passed,
            "carriers": {
                str(x): info for x, info in sorted(self.carriers.items())
            },
            "checks": {
                name: {
                    "checked": t.checked,
                    "failed": t.failed,
                    "witness": t.witness,
                }
                for name, t in sorted(self.checks.items())
            },
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [
            f"state size {self.s_size}, carriers up to {self.max_x}, "
            f"method {self.method}"
        ]
        for x, info in sorted(self.carriers.items()):
            if info.get("guarded"):
                lines.append(f"  carrier {x}: guarded ({info['guarded']})")
            else:
                lines.append(f"  carrier {x}: {info['count']} algebra(s)")
        for name, t in sorted(self.checks.items()):
            status = "ok" if t.failed == 0 else f"FAILED ({t.failed}, e.g. {t.witness})"
            lines.append(f"  {name}: {t.checked} checked, {status}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        lines.append("PASSED" if self.passed else "FAILED")
        return "\n".join(lines)


def verify_monadicity(
    s_size: int,
    max_x: int,
    *,
    ceiling: int = DEFAULT_SEARCH_CEILING,
) -> VerificationReport:
    """Enumerate algebras on every carrier up to ``max_x`` and verify every
    comparison identity, returning a structured report.

    On the function-algebra side, each kept K(y) is validated, its base is
    extracted with the iso ``xi`` back to Y (:func:`base_iso`), and
    :func:`check_suite` runs on it.  These per-object checks decide every
    hom-set ``Y1 -> Y2`` between kept function algebras exactly, with no map
    enumerated:

    * ``roundtrip_iso`` gives ``xi . epi = evaluation``, that is
      ``xi(compare(g)(c)) = g(c)``, so ``xi^S . compare = id``;
    * ``compare_algebra_map`` gives ``compare(u_c(g)) =
      const(compare(g)(c))``.  Apply ``xi^S``, and K(y)'s updates are the
      closed form ``u_c(g) = const g(c)``;
    * so for every ``v: Y1 -> Y2``, ``v^S(u_c(g)) = const v(g(c)) =
      u'_c(v^S(g))``: ``v^S`` commutes with every update, which by
      :func:`morphism_witness` makes it an algebra morphism;
    * and :func:`base_map` sends ``epi1(c, g)`` to ``epi2(c, v . g)``, so
      ``xi2 . base_map(v^S) = v . xi1``.  That is, ``base_map(v^S) =
      xi2^-1 . v . xi1`` with no fiber collision, which is natural in v and
      preserves identities and composites.

    So ``function_algebra_map_valid``, ``roundtrip_iso_natural`` and
    ``base_map_functorial`` are each recorded once per pair ``(y1, y2)`` of
    kept sizes, witnessed by ``K(y1)->K(y2)``: each passes when
    ``roundtrip_iso``, ``compare_bijection`` and ``compare_algebra_map``
    passed on both K(y1) and K(y2).

    A witness is built only for a failed check, so a passing run formats
    none and never folds an enumerated algebra's h to print it.

    Raises for an empty state object: the equivalence genuinely fails there
    (see :func:`empty_state_diagnostic` for the demonstration).  Raises
    :class:`SearchCeilingExceeded` before any carrier is run when the
    largest carrier's ``|TX|`` exceeds the ceiling.
    """
    if s_size < 1:
        raise FinSetError(
            "verification requires a nonempty state object: with no states "
            "the comparison with function spaces is not an equivalence "
            "(run the empty-state diagnostic to see the failure)"
        )
    if max_x < 0:
        raise FinSetError(f"largest carrier must be non-negative, got {max_x}")
    # |TX| = (|S|*x)**|S| grows with x, so the largest carrier's table is
    # compared with the ceiling before any carrier is run
    if past_ceiling(s_size * max_x, s_size, ceiling):
        raise SearchCeilingExceeded(
            f"|TX| = {s_size * max_x}**{s_size} entries on carrier {max_x} "
            f"exceeds the ceiling {ceiling}"
        )
    # |T(Y^S)| = (|S|*y**|S|)**|S| grows with y: the function algebras
    # below the first y where it exceeds the ceiling are kept, the rest skipped
    def skipped(y: int) -> bool:
        return past_ceiling(s_size * y**s_size, s_size, ceiling)

    sizes = range(bisect(range(max_x + 1), False, key=skipped))
    report = VerificationReport(s_size=s_size, max_x=max_x, method="constrained")
    ctx = StateMonadCtx(s_size)

    for x_size in range(max_x + 1):
        x = FinSet(x_size)
        ok = ctx.graph_flatten_identity(x)
        report.tally("unit_graph_identity").record(ok, None if ok else f"x={x_size}")
        ok = ctx.pairing_via_diagonal_identity(x)
        report.tally("pairing_decomposition").record(ok, None if ok else f"x={x_size}")
        try:
            algebras = enumerate_algebras(ctx, x, ceiling=ceiling)
        except SearchCeilingExceeded as exc:
            report.carriers[x_size] = {"count": None, "guarded": str(exc)}
            continue
        report.carriers[x_size] = {"count": len(algebras), "guarded": None}
        k = _integer_root(x_size, s_size)
        expected = 0 if k is None else _count_conjecture(x_size, k)
        ok = len(algebras) == expected
        report.tally("structure_count_conjecture").record(
            ok, None if ok else f"x={x_size}: {len(algebras)} != {expected}"
        )
        for alg in algebras:
            for name, ok in check_suite(alg).items():
                # h is read to print it only for the tally's first failure
                tally = report.tally(name)
                tally.record(ok, None if ok or tally.witness is not None
                             else f"x={x_size}, h={list(alg.structure.table)}")

    # function-algebra side: sound[y] holds when the checks that decide
    # the hom-sets out of and into K(y) passed on it (see the docstring)
    sound: dict[int, bool] = {}
    for y_size in range(max_x + 1):
        y = FinSet(y_size)
        if y_size not in sizes:
            report.notes.append(
                f"function algebra on {y_size} skipped: |T(Y^S)| = "
                f"{s_size * y_size**s_size}**{s_size} entries exceeds the ceiling {ceiling}"
            )
            continue
        ka = function_algebra(ctx, y)
        report.tally("function_algebra_valid").record(True)
        data = extract_base(ka)
        ok = data.base.size == y_size
        report.tally("base_recovery").record(
            ok, None if ok else f"y={y_size}: base {data.base.size}"
        )
        xi = base_iso(ctx, y, data)
        roundtrip = (
            classify(xi).iso
            and compose(ctx.const_map(y), xi).table == data.mono.table
            and compose(xi, data.epi).table == evaluation(y, ctx.state).table
        )
        report.tally("roundtrip_iso").record(roundtrip, None if roundtrip else f"y={y_size}")
        ok = set(data.mono.table) == set(ctx.const_map(y).table)
        report.tally("constant_image").record(ok, None if ok else f"y={y_size}")
        suite = check_suite(ka)
        for name, ok in suite.items():
            report.tally(name).record(ok, None if ok else f"K({y_size})")
        sound[y_size] = (
            roundtrip and suite["compare_bijection"] and suite["compare_algebra_map"]
        )

    for y1 in sizes:
        for y2 in sizes:
            for name in (
                "function_algebra_map_valid", "roundtrip_iso_natural", "base_map_functorial"
            ):
                ok = sound[y1] and sound[y2]
                report.tally(name).record(ok, None if ok else f"K({y1})->K({y2})")
    report.notes.append(
        "structure counts compared against the relabeling conjecture "
        "x!/k! (verified only at these sizes)"
    )
    return report


def _count_conjecture(x_size: int, k: int) -> int:
    from math import factorial

    return factorial(x_size) // factorial(k)


def empty_state_diagnostic(max_x: int) -> dict:
    """What goes wrong without states: count structure maps per carrier.

    With an empty state object, TX is a one-point set for every X, so a
    structure map exists only when the unit law can hold, i.e. on one-point
    carriers.  The comparison with function spaces therefore collapses
    everything and cannot be an equivalence.
    """
    if max_x < 0:
        raise FinSetError(f"largest carrier must be non-negative, got {max_x}")
    ctx = StateMonadCtx(0)
    counts: dict[int, int] = {}
    for x_size in range(max_x + 1):
        x = FinSet(x_size)
        tx = ctx.t_obj(x)
        count = 0
        for h in hom(tx, x):
            if isinstance(check_algebra(ctx, x, h), TAlgebra):
                count += 1
        counts[x_size] = count
    admitting = [x for x, c in counts.items() if c > 0]
    return {
        "s_size": 0,
        "algebra_counts": {str(x): c for x, c in counts.items()},
        "carriers_with_algebras": admitting,
        "essential_surjectivity_fails": any(
            c == 0 for x, c in counts.items() if x != 1
        ),
        "message": (
            "with an empty state object TX is a one-point set for every X; "
            "only one-point carriers admit a structure map, so every carrier "
            "of a different size lies outside the image of the comparison "
            "and the equivalence fails"
        ),
    }
