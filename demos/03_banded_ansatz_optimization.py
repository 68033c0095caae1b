"""Optimizing the banded driving ansatz band by band.

The driving matrix carries one free coefficient per even-offset band,
piecewise constant over time segments; each segment's coefficients are
tuned greedily to maximize the instantaneous fidelity at the segment end.
No knowledge of the spectrum is needed.  Adding bands monotonically
improves the reachable fidelity; at N = 80 four bands are enough to stay
above 0.92 over the whole ramp (preset: run_figure("fig2")).

This demo sweeps one to three bands at N = 30.
"""

from cdlmg import ModelParams, RampSchedule, optimize

N = 30
ramp = RampSchedule.linear(0.75, 0.5)
params = ModelParams(N, gamma=0.0, ramp=ramp)

warm = None
results = {}
for k in (1, 2, 3):
    result = optimize(params, k=k, segments=20, eval_steps=1500, warm_start=warm)
    warm = result.coefficients.values
    results[k] = result
    result.coefficients.to_csv(f"schedule_k{k}.csv")
    print(f"k={k}: min F = {result.trajectory.min_fidelity:.4f}   "
          f"final F = {result.trajectory.final_fidelity:.4f}   "
          f"({result.nfev} objective evaluations)")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(9, 3.4))
    for k, result in results.items():
        axes[0].plot(result.trajectory.times, result.trajectory.fidelity,
                     label=f"{k} band{'s' if k > 1 else ''}")
        times, series = result.coefficients.band_series(1)
        axes[1].step(times, series, where="mid", label=f"k={k}")
    axes[0].set_xlabel("t"), axes[0].set_ylabel("fidelity")
    axes[1].set_xlabel("t"), axes[1].set_ylabel("first-band coefficient")
    for ax in axes:
        ax.legend()
    fig.suptitle(f"banded-ansatz optimization, N = {N}")
    fig.tight_layout()
    fig.savefig("ansatz_sweep.png", dpi=150)
    print("wrote ansatz_sweep.png")
except ImportError:
    print("matplotlib not available; skipped the plot")
