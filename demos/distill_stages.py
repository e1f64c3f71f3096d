"""Stage-by-stage negativity through the full protocol.

Malting first (loss cycles with one subtraction per arm), then iterative
mashing to its fixed point. At low squeezing most of the improvement comes
from the subtractions; at high squeezing the mashing stage dominates.
"""

from distillery import (
    LossChannelParams,
    MaltingSchedule,
    SubtractionParams,
    TruncationConfig,
    auto_n_max,
    baseline_negativity,
    full_protocol,
)

loss = LossChannelParams.from_tau(100.0)

for lam in (0.1, 0.4):
    cfg = TruncationConfig(auto_n_max(lam))
    baseline = baseline_negativity(lam)
    sched = MaltingSchedule(1, 10, loss, SubtractionParams(0.99))
    rec, out = full_protocol(lam, sched, cfg)
    post_malt = rec.negativity_trace[-1][1]
    final = out.negativity_by_stage[-1]
    print(f"lambda={lam}: baseline {baseline:.4f}")
    print(f"  malting (arm A cycle 1, arm B cycle 10): {post_malt:.4f}"
          f"  ({post_malt - baseline:+.4f})")
    print(f"  mashing, {out.iterations} rounds to the fixed point: {final:.4f}"
          f"  ({final - post_malt:+.4f})")
    share = (final - post_malt) / (final - baseline)
    print(f"  mashing share of the total gain: {share:.0%}")
    print("  trace:", " ".join(f"{n:.3f}" for n in out.negativity_by_stage))
    print()
