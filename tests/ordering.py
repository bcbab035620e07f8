"""The strict confidence ordering of acceptance criterion 4, checked over groups of
:class:`~denoiselab.oracle.PosteriorReport`.  A helper of the tests, which pytest
does not collect."""

from __future__ import annotations

from dataclasses import dataclass

from denoiselab.augment import SampleCategory
from denoiselab.oracle import PosteriorReport, bounds


@dataclass(frozen=True)
class GroupOrdering:
    qualified: bool
    passed: bool
    violations: tuple[str, ...]
    flags: tuple[str, ...]


@dataclass(frozen=True)
class OrderingReport:
    groups: tuple[GroupOrdering, ...]

    @property
    def all_passed(self) -> bool:
        return all(g.passed for g in self.groups if g.qualified)

    @property
    def n_qualified(self) -> int:
        return sum(1 for g in self.groups if g.qualified)


def verify_ordering(groups: list[list[PosteriorReport]], ratio_bound: float = 10.0,
                    reference_a: float = 0.1) -> OrderingReport:
    """Check the strict confidence ordering noisy < multi-answer < true = 1.

    A group qualifies when all candidate priors across its reports lie within
    ``ratio_bound`` of each other (the comparability condition).  Noisy
    posteriors exceeding the uniform-channel ceiling at ``reference_a`` and
    rate 0.1 are flagged but not failed; they indicate a long-tailed channel
    at work.
    """
    results = []
    noisy_ceiling = bounds(reference_a, None, SampleCategory.NOISY, 0.1)
    for group in groups:
        all_priors = [p for rep in group for p in rep.priors.values()]
        qualified = bool(all_priors) and max(all_priors) <= ratio_bound * min(all_priors)

        violations: list[str] = []
        flags: list[str] = []
        trues = [r.posterior for r in group if r.category == SampleCategory.TRUE]
        noisys = [r.posterior for r in group if r.category == SampleCategory.NOISY]
        multis = [r.posterior for r in group if r.category == SampleCategory.MULTI_ANSWER]
        if qualified:
            for p in trues:
                if p != 1.0:
                    violations.append(f"true sample posterior {p} != 1")
            for p in noisys + multis:
                if not (0.0 < p < 1.0):
                    violations.append(f"non-true posterior {p} outside (0, 1)")
            if noisys and multis and max(noisys) >= min(multis):
                violations.append(
                    f"max noisy {max(noisys):.6g} >= min multi-answer {min(multis):.6g}")
            for p in noisys:
                if p > noisy_ceiling:
                    flags.append(
                        f"noisy posterior {p:.6g} exceeds uniform-channel ceiling "
                        f"{noisy_ceiling:.6g}")
        results.append(GroupOrdering(qualified, qualified and not violations,
                                     tuple(violations), tuple(flags)))
    return OrderingReport(tuple(results))
