"""The single source of truth for validation tolerances.

Before this module existed the same numbers lived twice — the invariant
checker's ``SPEEDUP_EPS`` dict and the differential harness's
``TolerancePolicy`` defaults — and could silently drift apart.  Both now
derive from the constants below; change a bound here and every consumer
(speedup-bound invariant, differential classification, docs examples)
moves together.

Import discipline: this module must stay import-cycle-safe.  It is pulled
in by ``repro.validate.invariants``, which ``simos.kernel`` and the core
executors import at module level, so nothing here may import ``repro.core``
(or anything that does).

Rationale for the values (see ``docs/validation.md``):

- The synthesizer's Fig. 11 error is 3.3% average with a 19% worst case;
  0.25 leaves headroom for the FAKE replay's overhead-subtraction drift.
- The FF is held tighter (0.15, ~2x its 7.3% average) because its known
  failure modes — nested parallelism, locks — are *classified* as expected
  divergences rather than absorbed into slack.
- REAL replays recompute leaf durations the RLE compressor averaged within
  tolerance, so their speedup bound carries 10% slack; FF runs an exact
  abstract machine (float noise only).
- Lock-bearing programs are no longer judged by the flat SYN tolerance at
  all: ``repro.explore`` turns the single FIFO handoff point into a
  min/median/max envelope over lock-acquisition orders, and REAL must fall
  inside it within :data:`ENVELOPE_SLACK` — the same few-percent residual
  the FAKE replay's traversal-overhead subtraction exhibits on lock-free
  trees (``tests/test_fuzz_pipeline.py``).
"""

from __future__ import annotations

#: Synthesizer (FAKE replay) vs. ground truth, and the "syn" speedup-bound
#: slack: the overhead-subtraction drift applies to both comparisons.
SYN_TOLERANCE = 0.25

#: Fast-forward emulator vs. ground truth (unexplained divergences only;
#: nested/locky divergences are classified, not tolerated).
FF_TOLERANCE = 0.15

#: REAL-replay speedup-bound slack (RLE-averaged leaf durations).
REAL_TOLERANCE = 0.10

#: FF speedup-bound slack: the abstract machine is exact, float noise only.
FF_BOUND_TOLERANCE = 1e-9

#: Residual slack around an explored [min, max] speedup envelope when
#: judging a lock-bearing program's REAL speedup: the envelope brackets the
#: interleaving uncertainty, this brackets what interleavings cannot explain
#: (traversal-overhead subtraction, RLE averaging).
ENVELOPE_SLACK = 0.06

__all__ = [
    "ENVELOPE_SLACK",
    "FF_BOUND_TOLERANCE",
    "FF_TOLERANCE",
    "REAL_TOLERANCE",
    "SYN_TOLERANCE",
]
