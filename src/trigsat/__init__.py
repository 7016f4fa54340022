"""trigsat: satisfiability of ground clauses modulo a saturated clause theory.

Quantified clauses are instantiated by matching whole selected literals
against the candidate model, with the trigger function equal to the
resolution selection function; when the theory is saturated and the run
halts with a model, the answer is a certified `sat` rather than `unknown`.
"""

__version__ = "0.1.0"
