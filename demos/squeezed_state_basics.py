"""Build truncated two-mode squeezed states and check their entanglement
against the closed form. Shows how the cutoff is chosen from the tail weight."""

from distillery import TruncationConfig, auto_n_max, baseline_negativity, log_negativity, tmss

print("squeezing   auto n_max   negativity   closed form    error")
for lam in (0.1, 0.15, 0.2, 0.3, 0.4):
    n_max = auto_n_max(lam)
    state = tmss(lam, TruncationConfig(n_max))
    got = log_negativity(state).value
    want = baseline_negativity(lam)
    print(f"  {lam:.2f}      {n_max:6d}      {got:.7f}    {want:.7f}   {got - want:+.2e}")

# the admission rule rejects cutoffs whose discarded ladder weight
# would exceed the trace tolerance
lam = 0.4
for n_max in (12, 18):
    try:
        tmss(lam, TruncationConfig(n_max))
        verdict = "admitted"
    except ValueError as exc:
        verdict = f"rejected ({exc})"
    print(f"lambda={lam}, n_max={n_max}: {verdict}")
