#!/usr/bin/env python
"""Register-lifetime analysis (the paper's Figures 1 and 2).

Shows why register caching works: values are *live* (written but not
yet fully consumed) for only a small slice of the time their physical
registers stay allocated, so a small structure holding just the live
values can serve most reads.

Usage::

    python examples/lifetime_analysis.py [scale]
"""

import sys

from repro import DEFAULT_SUITE, simulate_suite, use_based_config
from repro.core.lifetimes import (
    mean_phase_summary,
    occupancy_cdfs,
    phase_summary,
)


def bar(value, width=40, maximum=300):
    filled = min(width, int(width * value / maximum))
    return "#" * filled


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.25
    print(f"running {len(DEFAULT_SUITE)} benchmarks at scale {scale} ...")
    results = simulate_suite(
        use_based_config(record_lifetimes=True), scale=scale
    )

    print()
    print("register lifetime phases (median cycles per benchmark):")
    print(f"{'benchmark':14s} {'empty':>7s} {'live':>7s} {'dead':>7s}")
    summaries = []
    for name, stats in results.items():
        summary = phase_summary(stats.lifetimes)
        summaries.append(summary)
        print(f"{name:14s} {summary.empty:7.1f} {summary.live:7.1f} "
              f"{summary.dead:7.1f}")
    mean = mean_phase_summary(summaries)
    print(f"{'MEAN':14s} {mean.empty:7.1f} {mean.live:7.1f} "
          f"{mean.dead:7.1f}")
    live_share = mean.live / max(1e-9, mean.total)
    print(f"\nvalues are live for only {live_share:.1%} of the register "
          "lifetime -> a small cache of live values suffices")

    alloc, live = occupancy_cdfs(
        [stats.lifetimes for stats in results.values()]
    )[-1]
    print()
    print("simultaneously allocated vs live registers:")
    for label, cdf in (("allocated", alloc), ("live", live)):
        p50, p90 = cdf.median, cdf.percentile(0.9)
        print(f"  {label:10s} p50={p50:4d} {bar(p50)}")
        print(f"  {label:10s} p90={p90:4d} {bar(p90)}")
    print()
    print(f"90% of the time, {live.percentile(0.9)} entries hold every "
          "live value (the paper found 56 with 512 physical registers)")


if __name__ == "__main__":
    main()
