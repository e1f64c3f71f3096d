"""How many subtraction attempts on the waiting arm still pay off.

Sweeps the subtraction transmissivity: below a threshold near 0.7 no attempt
count beats just keeping the input state (m_c = 0). Past it the budget grows,
steeply so for long-lived memories as t_s approaches 1. The second table is
the success-weighted average of the distilled negativity over that budget;
one scan gives both.
"""

from distillery import (
    LossChannelParams,
    SubtractionParams,
    TruncationConfig,
    auto_n_max,
    average_entanglement,
)

LAM = 0.1
cfg = TruncationConfig(auto_n_max(LAM))
TS_GRID = (0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 0.99)
TAUS = (100.0, 1000.0)

avgs = {
    ts: [
        average_entanglement(LAM, LossChannelParams.from_tau(tau), SubtractionParams(ts), cfg)
        for tau in TAUS
    ]
    for ts in TS_GRID
}

print("critical attempt count m_c")
print("t_s     tau=100   tau=1000")
for ts, row in avgs.items():
    print(f"{ts:.2f}    {row[0].m_c:5d}     {row[1].m_c:5d}")

print()
print("average distilled negativity within the budget")
print("t_s     tau=100     tau=1000")
for ts, row in avgs.items():
    print(f"{ts:.2f}    {row[0].value:.6f}    {row[1].value:.6f}")
