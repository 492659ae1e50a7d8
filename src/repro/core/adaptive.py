"""Adaptive pushdown: tune the policy from the sliding-window history.

Paper Section 4 leaves two things to future work: the pushdown history
"inform[ing] future optimization decisions", and "adapting to diverse
data distributions dynamically and determining optimal thresholds".
This module implements both on top of :class:`PushdownMonitor`:

* **Estimator adaptation** — when recorded cardinality estimates keep
  missing the observed row counts, switch the selectivity model from the
  paper's normal assumption to the zone-map ``histogram`` model (and from
  histogram to uniform as a last resort).
* **Threshold adaptation** — when recent pushdowns barely reduced rows
  (ratio near 1), turn statistics gating on and tighten the filter
  threshold toward the observed ratios, so unhelpful pushdowns stop; when
  pushdowns reduce strongly, relax the gate again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.monitor import PushdownMonitor
from repro.core.optimizer import PushdownPolicy

__all__ = ["AdaptiveController", "AdaptationDecision"]


@dataclass(frozen=True)
class AdaptationDecision:
    """What the controller changed and why (surfaced to operators)."""

    policy: PushdownPolicy
    changed: bool
    reason: str


class AdaptiveController:
    """Derives the next query's policy from recorded pushdown outcomes."""

    def __init__(
        self,
        monitor: PushdownMonitor,
        min_observations: int = 4,
        #: Mean rows-out/rows-in above which pushdown is "not helping".
        unhelpful_ratio: float = 0.8,
        #: Mean rows-out/rows-in below which gating can relax.
        helpful_ratio: float = 0.3,
        #: Mean relative cardinality-estimate error that triggers a model switch.
        estimate_error_limit: float = 0.5,
    ) -> None:
        self.monitor = monitor
        self.min_observations = min_observations
        self.unhelpful_ratio = unhelpful_ratio
        self.helpful_ratio = helpful_ratio
        self.estimate_error_limit = estimate_error_limit

    def tune(self, policy: PushdownPolicy) -> AdaptationDecision:
        """Return the policy to use for the next query."""
        monitor = self.monitor
        if len(monitor) < self.min_observations:
            return AdaptationDecision(policy, False, "insufficient history")

        # 1. Distribution model: react to persistent estimate misses.
        error = monitor.mean_estimate_error()
        if error is not None and error > self.estimate_error_limit:
            next_model = {
                "normal": "histogram",
                "histogram": "uniform",
                "uniform": "uniform",
            }[policy.distribution]
            if next_model != policy.distribution:
                return AdaptationDecision(
                    replace(policy, distribution=next_model),
                    True,
                    f"mean estimate error {error:.0%} > "
                    f"{self.estimate_error_limit:.0%}: switching "
                    f"{policy.distribution} -> {next_model}",
                )

        # 2. Thresholds: react to observed data reduction.
        ratio = monitor.mean_reduction_ratio()
        if ratio > self.unhelpful_ratio:
            # Pushdowns are moving almost everything: gate on statistics
            # and require better-than-observed selectivity to push.
            tightened = min(policy.filter_selectivity_threshold, ratio * 0.9)
            if not policy.use_statistics or tightened < policy.filter_selectivity_threshold:
                return AdaptationDecision(
                    replace(
                        policy,
                        use_statistics=True,
                        filter_selectivity_threshold=tightened,
                    ),
                    True,
                    f"mean reduction ratio {ratio:.2f} > {self.unhelpful_ratio}: "
                    f"gating filters at {tightened:.2f}",
                )
        elif ratio < self.helpful_ratio and policy.use_statistics:
            return AdaptationDecision(
                replace(policy, use_statistics=False),
                True,
                f"mean reduction ratio {ratio:.2f} < {self.helpful_ratio}: "
                "pushdown is paying off, removing the statistics gate",
            )

        return AdaptationDecision(policy, False, "history within expectations")
