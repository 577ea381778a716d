"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Coverage modes are part of the contract: every check below is exhaustive
over its stated range except where a domain is astronomically large, in
which case the test runs the documented exact reduction or seeded sample
and says so in its printed line.
"""

import random
import time

from monadlab.algebra import (
    _lookup_violation,
    _update_violation,
    enumerate_algebras,
    fold_table,
    read_presentation,
)
from monadlab.cli import main as cli_main
from monadlab.equational import denote, free_classes, normalize, random_term
from monadlab.finset import (
    ExpCodec,
    FinSet,
    ProductCodec,
    classify,
    compose,
    curry,
    evaluation,
    exp_map,
    hom,
    identity,
    product_map,
    uncurry,
)
from monadlab.monadicity import (
    base_iso,
    base_map,
    check_suite,
    empty_state_diagnostic,
    extract_base,
    function_algebra,
)
from monadlab.statemonad import StateMonadCtx

SEED = 20260810


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_adjunction_suite():
    t0 = time.perf_counter()
    checks = 0
    for s in range(4):
        for x in range(4):
            for y in range(4):
                state, carrier, target = FinSet(s), FinSet(x), FinSet(y)
                codec = ProductCodec(state, carrier)
                exp = ExpCodec(target, state)
                ev = evaluation(target, state)
                for f in hom(codec.obj, target):
                    transposed = curry(f, codec)
                    assert uncurry(transposed, exp).table == f.table
                    counit = compose(ev, product_map(identity(state), transposed))
                    assert counit.table == f.table
                    checks += 2
                for g in hom(carrier, exp.obj):
                    assert curry(uncurry(g, exp), codec).table == g.table
                    checks += 1
    elapsed = time.perf_counter() - t0
    _report(
        1,
        checks > 60_000 and elapsed < 10.0,
        f"transpose inverses and counit law, sizes <= 3: {checks} checks "
        f"in {elapsed:.1f}s (< 10s)",
    )


def test_criterion_02_monad_law_suite():
    pairs = [(s, x) for s in (1, 2, 3) for x in (0, 1, 2)] + [
        (1, 3),
        (2, 3),
    ]
    modes = []
    ok = True
    for s, xn in pairs:
        ctx = StateMonadCtx(s)
        x = FinSet(xn)
        ok &= ctx.unit_law_witness(x) is None
        assoc = ctx.associativity_check(x)
        ok &= assoc.ok and assoc.mode in ("full", "reduced")
        agree = ctx.mult_agreement(x)
        ok &= agree.ok and agree.mode == "full"
        modes.append(f"({s},{xn}):{assoc.mode}")
    sampled = [m for m in modes if m.endswith("sampled")]
    _report(
        2,
        ok,
        "unit laws and both multiplications exhaustive on every pair; "
        f"associativity modes {', '.join(modes)} "
        f"({len(sampled)} sampled; every mode must be full or reduced)",
    )


def test_criterion_03_no_structures_on_two(ctx2):
    t0 = time.perf_counter()
    brute = enumerate_algebras(ctx2, 2, method="brute")
    constrained = enumerate_algebras(ctx2, 2, method="constrained")
    elapsed = time.perf_counter() - t0
    _report(
        3,
        brute == [] and constrained == [] and elapsed < 5.0,
        f"all 65536 structure maps on a 2-element carrier rejected, both "
        f"methods, in {elapsed:.1f}s (< 5s)",
    )


def test_criterion_04_twelve_structures_on_four(ctx2):
    t0 = time.perf_counter()
    constrained = enumerate_algebras(ctx2, 4, method="constrained")
    transport = enumerate_algebras(ctx2, 4, method="transport")
    elapsed = time.perf_counter() - t0
    same = [a.structure.table for a in constrained] == [
        a.structure.table for a in transport
    ]
    _report(
        4,
        len(constrained) == 12 and same and elapsed < 60.0,
        f"search and transport independently produce the same 12 structures "
        f"in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_05_comparison_suite_on_every_algebra(ctx2, twelve):
    algebras = list(twelve)
    algebras += enumerate_algebras(ctx2, 2, method="brute")  # empty, by 03
    for s in (1, 2, 3):
        ctx = StateMonadCtx(s)
        for yn in range(4):
            algebras.append(function_algebra(ctx, yn))
    failures = []
    for alg in algebras:
        suite = check_suite(alg)
        bad = [name for name, good in suite.items() if not good]
        if bad:
            failures.append((alg.ctx.state.size, alg.carrier.size, bad))
    _report(
        5,
        not failures,
        f"comparison bijection, morphism square, retraction, sections for "
        f"every chosen state, and base sizes on {len(algebras)} algebras; "
        f"failures: {failures}",
    )


def test_criterion_06_unit_flattening_identity():
    ok = True
    count = 0
    for s in (1, 2, 3):
        ctx = StateMonadCtx(s)
        for xn in range(4):
            ok &= ctx.graph_flatten_identity(FinSet(xn))
            ok &= ctx.pairing_via_diagonal_identity(FinSet(xn))
            count += 2
    _report(
        6,
        ok,
        f"graph-then-flatten reproduces the unit (and its pairing "
        f"decomposition), {count} instances at sizes <= 3",
    )


def test_criterion_07_base_iso_and_naturality():
    ok = True
    checks = 0
    for s in (1, 2, 3):
        ctx = StateMonadCtx(s)
        datas = {}
        isos = {}
        for yn in range(4):
            y = FinSet(yn)
            data = extract_base(function_algebra(ctx, y))
            xi = base_iso(ctx, y, data)
            ok &= classify(xi).iso
            ok &= compose(xi, data.epi).table == evaluation(y, ctx.state).table
            ok &= compose(ctx.const_map(y), xi).table == data.mono.table
            ok &= set(data.mono.table) == set(ctx.const_map(y).table)
            datas[yn], isos[yn] = data, xi
            checks += 4
        for y1 in range(4):
            for y2 in range(4):
                for v in hom(y1, y2):
                    lv = base_map(exp_map(v, ctx.state), datas[y1], datas[y2])
                    ok &= (
                        compose(isos[y2], lv).table == compose(v, isos[y1]).table
                    )
                    checks += 1
    _report(
        7,
        ok,
        f"base of the function algebra is the original object, naturally, "
        f"with constant-function image: {checks} checks (all morphisms, "
        f"sizes <= 3)",
    )


def test_criterion_08_equational_suite(ctx1, ctx2):
    ok = True
    for s in (1, 2, 3):
        ctx = StateMonadCtx(s)
        for bn in range(1, 4):
            alg = function_algebra(ctx, bn)
            xn = alg.carrier.size
            ups = [alg.updates[c * xn:(c + 1) * xn] for c in range(s)]
            ok &= _update_violation(xn, ups) is None
            ok &= _lookup_violation(xn, ups, alg.lookup) is None
    rng = random.Random(SEED)
    preserved = 0
    for _ in range(1000):
        t = random_term(rng, 2, 2, 5)
        if denote(normalize(t, 2), ctx2, 2) == denote(t, ctx2, 2):
            preserved += 1
    ok &= preserved == 1000
    counts = (
        free_classes(ctx2, 1, 3).count,
        free_classes(ctx2, 1, 4).count,
        free_classes(ctx2, 2, 4).count,
        free_classes(ctx2, 2, 5).count,
        free_classes(ctx1, 2, 3).count,
        free_classes(ctx1, 2, 4).count,
    )
    ok &= counts == (4, 4, 16, 16, 2, 2)
    _report(
        8,
        ok,
        f"four equations hold in every function algebra (sizes <= 3; "
        f"equations 1-3 scanned, the nested-lookup equation implied by 2 "
        f"and 3), normal forms preserved denotation on {preserved}/1000 "
        f"seeded terms, class "
        f"counts {counts} stable under depth",
    )


def test_criterion_09_translation_roundtrips(twelve):
    ok = True
    for alg in twelve:
        h = list(alg.structure.table)
        ok &= fold_table(alg.ctx, 4, *read_presentation(alg.ctx, 4, h)) == h
    cases = 0
    for s in (1, 2):
        ctx = StateMonadCtx(s)
        for bn in range(1, 3):
            alg = function_algebra(ctx, bn)
            xn = alg.carrier.size
            h = tuple(fold_table(ctx, xn, alg.updates, alg.lookup))
            ok &= read_presentation(ctx, xn, h) == (alg.updates, alg.lookup)
            cases += 1
    _report(
        9,
        ok,
        f"fold_table and read_presentation are two-sided inverses on all 12 "
        f"structures and {cases} function algebras",
    )


def test_criterion_10_empty_state_negative_control(capsys):
    code = cli_main(["verify", "--s", "0", "--max-x", "2"])
    captured = capsys.readouterr()
    refused = code == 2 and "nonempty" in captured.err
    diag = empty_state_diagnostic(3)
    only_singletons = diag["carriers_with_algebras"] == [1]
    _report(
        10,
        refused and only_singletons and diag["essential_surjectivity_fails"],
        "verification refuses an empty state object and the diagnostic shows "
        f"algebras only on one-point carriers: {diag['algebra_counts']}",
    )
