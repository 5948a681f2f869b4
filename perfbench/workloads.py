"""The benchmark's workloads and how a seed picks each one's inputs.

A workload is a list of crepant CLI invocations, run one after another
and each with ``--format json``.  Each workload has a few variants:
variant 0 holds the nominal sizes and is what seed 0 runs; any other
seed draws one variant with ``random.Random(seed)``.  The variants of a
workload were chosen so that their costs on the seed commit agree
closely; a gain can then be rechecked on a seed not used while it was
developed without the change of inputs moving the figures.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

Invocation = tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    variants: tuple[tuple[Invocation, ...], ...]

    def invocations(self, seed: int) -> tuple[Invocation, ...]:
        if seed == 0:
            return self.variants[0]
        return random.Random(seed).choice(self.variants)


def _duval(n: int) -> tuple[Invocation, ...]:
    return (("duval", "--n", str(n)),)


def _crc(d: int) -> tuple[Invocation, ...]:
    # verify_crc's work is smooth and convex in the order (66058 Cyc3
    # multiplications at order 30, 62066 / 70190 at 29 / 31), so the pair
    # 30-d, 30+d does the same work as order 30 twice, to within 0.4% for d <= 2.
    return tuple(("verify", "crc", "--order", str(30 + e)) for e in (-d, d))


def _hodge(d: int) -> tuple[Invocation, ...]:
    # The seed varies only the theta pair: the theta_pair double sum has
    # ~order^4 terms (105417 at 50), so 50-d, 50+d does 50's work twice to
    # within 0.9% for d <= 2.  The table's cost grows ~10% a genus; it stays nominal.
    return (("tables", "--max-genus", "50"),
            *(("verify", "theta", "--order", str(50 + e)) for e in (-d, d)))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "crc",
            "CRC third-partial comparison: potentials and Q(w) series in algebra; no mckay",
            tuple(_crc(d) for d in (0, 1, 2)),
        ),
        Workload(
            "hodge",
            "Hodge tables and theta identity: hurwitz over Q with rational USeries; no Cyc3, no mckay",
            tuple(_hodge(d) for d in (0, 1, 2)),
        ),
        Workload(
            "duval",
            "Z_n DuVal transform: mckay and Q(zeta_2n) arithmetic; no hurwitz, no potentials",
            # No n near 30 matches n = 30 in both time and peak RSS (README),
            # so every seed runs the nominal size.
            (_duval(30),),
        ),
    )
}

# Cheap invocations, one per subcommand the workloads use, for the
# correctness-gate self-test.
SELF_TEST = (
    ("tables", "--max-genus", "8"),
    ("verify", "theta", "--order", "8"),
    ("verify", "crc", "--order", "8"),
    ("duval", "--n", "5"),
)


def all_invocations() -> list[Invocation]:
    """Every invocation any seed can run, plus the self-test ones."""
    seen: dict[Invocation, None] = {}
    for w in WORKLOADS.values():
        for variant in w.variants:
            for inv in variant:
                seen[inv] = None
    for inv in SELF_TEST:
        seen[inv] = None
    return list(seen)
