"""The built-in clause-set fixtures and their stated properties."""

from pathlib import Path

import pytest

from trigsat.corpus import (CORPORA, corpus_ordering, schur_problem,
                            schur_triples)
from trigsat.pipeline import SolveOptions, check_problem_saturated
from trigsat.saturation import SaturationOutcome
from trigsat.selection import validate_selection

from oracles import load_corpus


class TestLoadCorpus:
    def test_subsumption_has_24_clauses(self):
        problem = load_corpus("subsumption")
        assert len(problem.theory) + len(problem.ground) == 24
        assert len(problem.ground) == 1  # the reflexive base match fact

    def test_settheory_has_17_clauses(self):
        problem = load_corpus("settheory")
        assert len(problem.theory) == 17
        assert problem.ground == []

    def test_module_and_files_agree(self):
        # Tests read `CORPORA`; perfbench and the README examples read
        # `corpora/*.p`.
        files = Path(__file__).resolve().parent.parent / "corpora"
        assert {p.stem: p.read_bytes() for p in files.glob("*.p")} == \
            {name: text.encode() for name, text in CORPORA.items()}

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown corpus"):
            load_corpus("nope")

    def test_every_selection_validates(self):
        for name in ("subsumption", "settheory"):
            problem = load_corpus(name)
            order = corpus_ordering(name)
            for c in problem.theory:
                assert c.cid in problem.selection, f"{name}: {c}"
                assert validate_selection(c, problem.selection[c.cid], order), \
                    f"{name}: {c}"

    def test_both_check_as_saturated(self):
        for name in ("subsumption", "settheory"):
            problem = load_corpus(name)
            options = SolveOptions(ordering=corpus_ordering(name))
            report = check_problem_saturated(problem, options)
            assert report.outcome is SaturationOutcome.SATURATED, \
                [str(v.conclusion) for v in report.violations]

    def test_saturation_loop_retains_no_conclusions(self):
        # Running the full loop keeps exactly the input clauses: every
        # inference conclusion is a tautology or subsumed.
        from trigsat.saturation import is_tautology, saturate, subsumes

        for name in ("subsumption", "settheory"):
            problem = load_corpus(name)
            report = saturate(problem.theory, dict(problem.selection),
                              corpus_ordering(name), extend="error")
            assert report.outcome is SaturationOutcome.SATURATED
            assert len(report.clauses) == len(problem.theory)
            # Active-set invariants: no tautologies, no pairwise subsumption.
            for c in report.clauses:
                assert not is_tautology(c)
                assert not any(subsumes(d, c) for d in report.clauses
                               if d is not c)


class TestSchur:
    def test_triples_for_small_n(self):
        assert schur_triples(4) == [(1, 1, 2), (1, 2, 3), (1, 3, 4), (2, 2, 4)]

    def test_problem_facts(self):
        problem = schur_problem(4)
        assert len(problem.theory) == 17
        assert len(problem.ground) == 4 + 4  # numbers plus triples
