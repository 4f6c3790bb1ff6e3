"""Standing validation layer: runtime invariants + differential harness.

Two complementary tools (see ``docs/validation.md``):

- :mod:`repro.validate.invariants` — cheap runtime checks wired into the
  kernel, executors, and emulators behind a single flag
  (``REPRO_VALIDATE=1`` or ``get_checker().enabled = True``);
- :mod:`repro.validate.differential` — FF vs SYN vs REAL cross-validation
  over a workload grid, classifying every discrepancy as ok, expected
  divergence (e.g. the paper's Fig. 7 FF nested-parallelism
  underprediction), or violation;
- :mod:`repro.validate.fuzz` — a seeded deterministic program generator
  driving the differential harness (shared with ``test_fuzz_pipeline``);
- :mod:`repro.validate.policy` — the shared tolerance constants every
  checker above derives its defaults from (single source of truth).
"""

from repro.validate.differential import (
    DiffRecord,
    DifferentialHarness,
    DifferentialReport,
    GridPoint,
    TolerancePolicy,
)
from repro.validate.fuzz import (
    build_program,
    description_has_locks,
    generate_locky_program,
    generate_program,
    run_fuzz,
)
from repro.validate.invariants import (
    InvariantChecker,
    Violation,
    get_checker,
    has_nested_sections,
    set_checker,
)
from repro.validate.policy import (
    ENVELOPE_SLACK,
    FF_BOUND_TOLERANCE,
    FF_TOLERANCE,
    REAL_TOLERANCE,
    SYN_TOLERANCE,
)

__all__ = [
    "DiffRecord",
    "DifferentialHarness",
    "DifferentialReport",
    "ENVELOPE_SLACK",
    "FF_BOUND_TOLERANCE",
    "FF_TOLERANCE",
    "GridPoint",
    "InvariantChecker",
    "REAL_TOLERANCE",
    "SYN_TOLERANCE",
    "TolerancePolicy",
    "Violation",
    "build_program",
    "description_has_locks",
    "generate_locky_program",
    "generate_program",
    "get_checker",
    "has_nested_sections",
    "run_fuzz",
    "set_checker",
]
