"""Post-malting negativity as a function of memory quality.

A fixed late success pattern (arm A at cycle 15, arm B at cycle 20) is run
against memories of increasing time-bandwidth product. Poor memories lose
more between the subtraction events than the subtractions gain.
"""

from distillery import (
    LossChannelParams,
    MaltingSchedule,
    SubtractionParams,
    TruncationConfig,
    auto_n_max,
    baseline_negativity,
    malt,
)

LAM = 0.1
cfg = TruncationConfig(auto_n_max(LAM))
sub = SubtractionParams(0.99)
baseline = baseline_negativity(LAM)

print(f"input state negativity: {baseline:.6f}")
print("tau     final negativity   joint success prob   gain?")
for tau in (10, 20, 40, 50, 80, 100):
    sched = MaltingSchedule(15, 20, LossChannelParams.from_tau(tau), sub)
    rec = malt(LAM, sched, cfg)
    final = rec.negativity_trace[-1][1]
    mark = "yes" if final > baseline else "no"
    print(f"{tau:4d}    {final:.6f}           {rec.joint_prob:.3e}           {mark}")
