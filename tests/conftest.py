import os
import sys
from pathlib import Path

from hypothesis import Phase, settings

TESTS = Path(__file__).resolve().parent
SRC = str(TESTS.parent / "src")

sys.path.insert(0, str(TESTS))
# Import trigsat from the checkout without installing it, here and in the
# `python -m trigsat` subprocesses the CLI tests start.
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

settings.register_profile("suite", max_examples=60, deadline=None,
                          derandomize=True)
# `scripts/mutants.py` passes --hypothesis-profile=mutants: it needs a
# failure, not a minimal one, so it skips the shrink phase.
settings.register_profile("mutants", settings.get_profile("suite"),
                          phases=(Phase.explicit, Phase.reuse,
                                  Phase.generate))
settings.load_profile("suite")
