"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
assertions hold regardless.  Expected values marked as derived were
computed with the independent oracles in oracles.py.
"""

from __future__ import annotations

import functools
import random
import time

from trigsat.cdcl import Budget, Solver
from trigsat.corpus import corpus_ordering, schur_problem, schur_triples
from trigsat.models import Interpretation, combine, verify_no_falsified
from trigsat.ordering import OrderingSpec
from trigsat.parser import parse_problem
from trigsat.pipeline import (
    SolveOptions,
    check_problem_saturated,
    solve_problem,
    verify_model,
)
from trigsat.saturation import SaturationOutcome
from trigsat.selection import validate_selection
from trigsat.terms import (
    Atom,
    Clause,
    Literal,
    Substitution,
    Var,
    const,
    enumerate_ground_instances,
    fn,
    vars_of,
)

from oracles import (
    clause,
    decode_list,
    encoded_subsumes,
    horn_sat,
    load_corpus,
    solve_timed,
    three_colorable,
    truth_table_sat,
    variant,
)

a, b = const("a"), const("b")
WEIGHT = OrderingSpec(kind="weight")


def lit(name, positive=True, *args):
    return Literal(Atom(name, tuple(args)), positive)


def criterion(number, title):
    def wrap(test):
        @functools.wraps(test)
        def run(*args, **kwargs):
            try:
                test(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d}: FAIL  {title}")
                raise
            print(f"ACCEPTANCE {number:2d}: PASS  {title}")
        return run
    return wrap


GOODSEL_TRIG1 = ("~p(X1, Y1) | *q(f(X1), Y1)\n"
                 "~q(X2, Y2) | *p(X2, f(Y2))\n")
GOODSEL_TRIG2 = ("~p(X1, Y1) | *q(f(X1), Y1)\n"
                 "*~q(X2, Y2) | p(X2, f(Y2))\n")


@criterion(1, "successor theory certified sat, model verifies at depth 3")
def test_criterion_01_successor_theory():
    problem = parse_problem("*g(s(X), X)\n*~g(X, X)\ng(a, b)\n")
    result, elapsed = solve_timed(problem, SolveOptions())
    assert result.verdict_line == "sat"
    assert elapsed < 1.0
    outcome = verify_model(parse_problem("*g(s(X), X)\n*~g(X, X)\ng(a, b)\n"),
                           list(result.model), SolveOptions(), depth=3)
    assert outcome.report.ok
    assert outcome.report.checked > 0


@criterion(2, "chain-trigger replay: two recorded instantiations, model")
def test_criterion_02_goodsel_replay():
    problem = parse_problem(GOODSEL_TRIG1 + "~p(f(a), f(b))\n")
    result = solve_problem(problem, SolveOptions(trace=True))
    assert result.verdict_line == "sat"
    inst = [l for l in result.run.trace if l.startswith("instantiate")]
    assert len(inst) == 2
    assert inst[0].startswith("instantiate ~q(f(a), b) | p(f(a), f(b))")
    assert inst[1].startswith("instantiate ~p(a, b) | q(f(a), b)")
    expected = Interpretation([
        lit("p", False, fn("f", a), fn("f", b)),
        lit("q", False, fn("f", a), b),
        lit("p", False, a, b),
    ])
    model = Interpretation(result.model)
    assert model.compatible(expected)
    for literal in expected:
        assert literal in model


@criterion(3, "all-negative-trigger repair: chain clause extends the model")
def test_criterion_03_trig2_repair():
    from trigsat.models import filtered_ground_instances, produce_model
    from trigsat.terms import Signature

    problem = parse_problem(GOODSEL_TRIG2 + "p(a, b)\n")
    options = SolveOptions(extend_select="max")
    result = solve_problem(problem, options)
    chain = clause([lit("p", False, Var("X"), Var("Y")),
                    lit("p", True, fn("f", Var("X")), fn("f", Var("Y")))])
    added = [c for c in result.theory if variant(c, chain)]
    assert len(added) == 1, "saturation must derive the chain clause"
    # Its positive (structurally larger) literal is the selected trigger.
    assert result.selection[added[0].cid] == frozenset({1})
    assert result.verdict_line == "sat"

    # Extending the ground model over the derived theory materialises the
    # chain instance ~p(a,b) | p(f(a),f(b)) and makes its head true.
    ground_model = Interpretation(result.model)
    sig = Signature.from_clauses(result.theory + list(problem.ground))
    c8 = clause([lit("p", False, a, b),
                 lit("p", True, fn("f", a), fn("f", b))])
    assert any(inst == c8 for inst in
               enumerate_ground_instances(added[0], sig, 1))
    entries = [(c, result.selection[c.cid]) for c in result.theory]
    filtered = filtered_ground_instances(entries, ground_model, sig, 1)
    constructed, records = produce_model(filtered, options.ordering)
    head = Atom("p", (fn("f", a), fn("f", b)))
    assert any(r.produced and r.atom == head for r in records)
    combined = combine(constructed, ground_model)
    assert combined.value(lit("p", True, a, b)) is True
    assert combined.value(lit("p", True, fn("f", a), fn("f", b))) is True
    report = verify_no_falsified(combined, result.theory, problem.ground,
                                 sig, 1)
    assert report.ok


@criterion(4, "three-predicate selection validity and refutation")
def test_criterion_04_countersel():
    order = OrderingSpec(kind="weight", precedence=("r", "q", "p"),
                         precedence_dominant=True)
    x4, y4 = Var("X4"), Var("Y4")
    c4 = clause([lit("p", True, x4), lit("q", True, x4),
                 lit("r", False, y4)])
    # First variant: the guard alone misses X4 (witness: whole selection).
    first = validate_selection(c4, {2}, order)
    assert not first and first.witness == frozenset({2})
    # Second variant: dropping the guard leaves a positive non-maximal p.
    second = validate_selection(c4, {0, 2}, order)
    assert not second and second.witness == frozenset({2})
    # Third variant is valid.
    assert validate_selection(c4, {1, 2}, order)

    text = ("*~p(X1) | ~q(X1)\n"
            "p(X2) | *~q(X2)\n"
            "~p(X3) | *q(X3)\n"
            "p(X4) | *q(X4) | *~r(Y4)\n")
    theory = parse_problem(text)
    check = check_problem_saturated(theory, SolveOptions(ordering=order))
    assert check.outcome is SaturationOutcome.NOT_SATURATED

    full = parse_problem(text + "r(a)\n")
    options = SolveOptions(ordering=order, extend_select="auto")
    result = solve_problem(full, options)
    assert result.verdict_line == "unsat"

    # Independent confirmation: ground everything over {a} and exhaust.
    grounded = []
    for c in full.theory:
        theta = Substitution({v: a for v in vars_of(c)})
        grounded.append(theta(c))
    grounded.extend(full.ground)
    assert truth_table_sat(grounded) is None


@criterion(5, "both corpora check as saturated within ten seconds")
def test_criterion_05_corpora():
    for name in ("subsumption", "settheory"):
        problem = load_corpus(name)
        options = SolveOptions(ordering=corpus_ordering(name))
        started = time.monotonic()
        report = check_problem_saturated(problem, options)
        elapsed = time.monotonic() - started
        assert report.outcome is SaturationOutcome.SATURATED, name
        assert elapsed < 10.0, f"{name} took {elapsed:.1f}s"


def _random_encoded_atom(rng, depth, allow_vars):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        if allow_vars and rng.random() < 0.4:
            return fn("v", const(rng.choice("xy")))
        return a
    if roll < 0.6:
        return fn("g", _random_encoded_atom(rng, depth - 1, allow_vars))
    return fn("f", _random_encoded_atom(rng, depth - 1, allow_vars),
              _random_encoded_atom(rng, depth - 1, allow_vars))


def _encode_list(atoms):
    out = const("nil")
    for atom in reversed(atoms):
        out = fn("p", atom, out)
    return out


@criterion(6, "matching fixture agrees with the brute-force checker")
def test_criterion_06_subsumption_oracle():
    from trigsat.corpus import SUBSUMPTION_TEXT

    rng = random.Random(1905)
    base = load_corpus("subsumption")
    theory_text = SUBSUMPTION_TEXT
    matches = 0
    for _ in range(50):
        list1 = [_random_encoded_atom(rng, rng.randint(0, 2), True)
                 for _ in range(rng.randint(0, 2))]
        list2 = [_random_encoded_atom(rng, rng.randint(0, 2), False)
                 for _ in range(rng.randint(0, 2))]
        t1, t2 = _encode_list(list1), _encode_list(list2)
        assert decode_list(t1) == list1 and decode_list(t2) == list2
        expected = encoded_subsumes(list1, list2)
        matches += int(expected)
        query = parse_problem(theory_text + f"\ns({t1}, {t2})\n")
        result = solve_problem(query, SolveOptions())
        assert result.verdict_line == ("sat" if expected else "unsat"), \
            f"s({t1}, {t2}) expected {expected}"
        if not expected:
            refute = parse_problem(theory_text + f"\n~s({t1}, {t2})\n")
            result = solve_problem(refute, SolveOptions())
            assert result.verdict_line == "sat"
    assert 5 <= matches <= 45, "generator should produce both outcomes"

    # Matching-only slice (the Horn prefix): no conflicts above level 0.
    matching = [c for c in base.theory
                if {l.atom.pred for l in c.literals} <= {"m"}]
    matching_ground = [c for c in base.ground
                       if {l.atom.pred for l in c.literals} <= {"m"}]
    selection = {c.cid: base.selection[c.cid] for c in matching}
    for _ in range(30):
        t1 = _random_encoded_atom(rng, rng.randint(0, 2), True)
        t2 = _random_encoded_atom(rng, rng.randint(0, 2), False)
        fact = Clause((lit("m", True, t1, t2),), origin="input-ground")
        solver = Solver(ground=matching_ground + [fact], theory=matching,
                        selection=selection, ordering=WEIGHT)
        assert solver.monitors.horn
        run = solver.run()
        assert run.verdict.kind in ("sat", "unsat")
        assert solver.stats.conflicts_above_level0 == 0
        assert solver.stats.monitor_violations == []


@criterion(7, "triple-sum distribution matches the three-coloring oracle")
def test_criterion_07_triple_sum():
    n = 4
    problem = schur_problem(n)
    options = SolveOptions(ordering=corpus_ordering("settheory"))
    result, elapsed = solve_timed(problem, options)
    expected = three_colorable(n, schur_triples(n))
    assert result.verdict_line == ("sat" if expected else "unsat")
    assert elapsed < 30.0
    if result.verdict_line == "sat":
        # The model really distributes every number into some set.
        model = Interpretation(result.model)
        universe = fn("union", fn("union", a, b), const("c"))
        for i in range(1, n + 1):
            assert model.value(lit("mem", True, const(f"n{i}"),
                                   universe)) is True


@criterion(8, "divergent all-negative triggers stop at the budget")
def test_criterion_08_divergence_guard():
    problem = parse_problem("*~p(X1, Y1) | q(f(X1), Y1)\n"
                            "*~q(X2, Y2) | p(X2, f(Y2))\n"
                            "p(a, a)\n")
    options = SolveOptions(budget=Budget(max_instantiations=200))
    result = solve_problem(problem, options)
    assert result.verdict_line == "unknown"
    assert "instantiation budget" in result.run.verdict.reason
    assert result.run.stats.instantiations == 200


def _random_ground(rng, n_atoms, n_clauses, max_len, horn=False,
                   twosat=False):
    atoms = [Atom(f"x{i}") for i in range(n_atoms)]
    out = []
    for _ in range(n_clauses):
        size = rng.randint(1, max_len)
        lits, seen, positives = [], set(), 0
        for _ in range(size):
            atom = rng.choice(atoms)
            if atom in seen:
                continue
            seen.add(atom)
            positive = rng.random() < 0.5
            if horn and positive and positives >= 1:
                positive = False
            positives += int(positive)
            lits.append(Literal(atom, positive))
        if twosat:
            lits = lits[:2]
        if lits:
            out.append(Clause(tuple(lits), origin="input-ground"))
    return out


@criterion(9, "invariant monitors on random ground instances")
def test_criterion_09_cdcl_monitors():
    rng = random.Random(424242)
    for _ in range(200):  # Horn: conflicts stay at level 0
        cs = _random_ground(rng, rng.randint(2, 30), rng.randint(2, 45),
                            4, horn=True)
        solver = Solver(ground=cs, theory=[], selection={}, ordering=WEIGHT)
        assert solver.monitors.horn
        run = solver.run()
        assert solver.stats.conflicts_above_level0 == 0
        assert solver.stats.monitor_violations == []
        assert run.verdict.kind == ("sat" if horn_sat(cs) else "unsat")
    for _ in range(200):  # 2SAT: learned clauses have fewer than 2 literals
        cs = _random_ground(rng, rng.randint(2, 30), rng.randint(2, 45),
                            2, twosat=True)
        solver = Solver(ground=cs, theory=[], selection={}, ordering=WEIGHT)
        assert solver.monitors.twosat
        solver.run()
        assert all(size < 2 for size in solver.stats.learned_sizes)
        assert solver.stats.monitor_violations == []
    for _ in range(200):  # general: exact agreement with the truth table
        cs = _random_ground(rng, rng.randint(1, 12), rng.randint(1, 18), 4)
        solver = Solver(ground=cs, theory=[], selection={}, ordering=WEIGHT)
        run = solver.run()
        expected = truth_table_sat(cs)
        assert run.verdict.kind == ("sat" if expected is not None
                                    else "unsat")
        assert solver.stats.monitor_violations == []


@criterion(10, "instantiation count grows quadratically on ground chains")
def test_criterion_10_polynomial_growth():
    order = OrderingSpec(kind="subterm")

    def chain_problem(k):
        s, t = "a", "b"
        for _ in range(k):
            s, t = f"f({s})", f"f({t})"
        return parse_problem(GOODSEL_TRIG1 + f"~p({s}, {t})\n")

    counts = {}
    for k in range(1, 11):
        result = solve_problem(chain_problem(k),
                               SolveOptions(ordering=order))
        assert result.verdict_line == "sat"
        counts[k] = result.run.stats.instantiations
        assert counts[k] > 0
    scale = max(counts[k] / (k * k) for k in (1, 2, 3))
    for k, count in counts.items():
        assert count <= scale * k * k, \
            f"k={k}: {count} instantiations exceed {scale:.2f} * k^2"
