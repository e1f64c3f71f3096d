"""Entanglement decay of a stored squeezed state over memory clock cycles.

Three trajectories per squeezing value: pure loss, repeated vacuum-outcome
subtraction attempts, and both effects together. Loss alone hurts more than
failed subtractions alone; their combination decays fastest.
"""

from distillery import (
    LossChannelParams,
    SubtractionParams,
    TruncationConfig,
    auto_n_max,
    decay,
)

TAU = 100.0
CYCLES = 20

loss = LossChannelParams.from_tau(TAU)
sub = SubtractionParams(loss.t)  # equal transmissivities for a fair race

curves = {}
for lam in (0.1, 0.15, 0.2):
    cfg = TruncationConfig(auto_n_max(lam))
    rows = [tuple(n.value for n in negs) for negs in decay(lam, loss, sub, cfg, CYCLES)]
    curves[lam] = rows
    print(f"lambda={lam}  (tau={TAU:g}, t=t_s={loss.t:.4f})")
    print("  m    loss only    vacuum only    both")
    for m in (0, 5, 10, 15, 20):
        nl, nv, nb = rows[m]
        print(f"  {m:2d}   {nl:.6f}     {nv:.6f}      {nb:.6f}")
    print()

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed, skipping the figure")
else:
    fig, ax = plt.subplots(figsize=(6, 4))
    styles = {"loss only": "-", "vacuum only": "--", "both": ":"}
    for lam, rows in curves.items():
        for idx, (label, ls) in enumerate(styles.items()):
            ax.plot(
                range(CYCLES + 1),
                [r[idx] for r in rows],
                ls,
                label=f"$\\lambda$={lam} {label}",
            )
    ax.set_xlabel("clock cycle m")
    ax.set_ylabel("logarithmic negativity")
    ax.legend(fontsize=7)
    fig.tight_layout()
    fig.savefig("memory_decay.png", dpi=150)
    print("wrote memory_decay.png")
