"""Replacing the optimized first-band pulse by a short harmonic series.

The optimized x_1(t) schedules are smooth enough that a sum of one to three
free sinusoids a_m sin(w_m t + phi_m) reproduces them, and the fidelity
obtained by driving with the fitted pulse is nearly indistinguishable from
the optimized one.  That robustness to pulse-shape detail is what makes the
approach practical.
"""

from cdlmg import ModelParams, RampSchedule, evaluate_fit, fit_harmonics, optimize

N = 12
ramp = RampSchedule.linear(0.75, 0.5)
params = ModelParams(N, gamma=0.0, ramp=ramp)

result = optimize(params, k=1, segments=20, eval_steps=1500)
times, series = result.coefficients.band_series(1)
print(f"optimized single-band run at N={N}: "
      f"min F = {result.trajectory.min_fidelity:.4f}\n")

print("harmonics   fit rms      max fidelity loss")
fits = {}
for c in (1, 2, 3):
    fit = fit_harmonics(times, series, c)
    evaluation = evaluate_fit(fit, result.coefficients, result.trajectory)
    fits[c] = (fit, evaluation)
    print(f"    {c}       {fit.residual:.2e}     {evaluation.discrepancy:.2e}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
    import numpy as np

    dense = np.linspace(times[0], times[-1], 400)
    fig, ax = plt.subplots(figsize=(5, 3.4))
    ax.step(times, series, where="mid", color="k", label="optimized")
    for c, (fit, _) in fits.items():
        ax.plot(dense, fit.evaluate(dense), "--", label=f"{c} harmonics")
    ax.set_xlabel("t")
    ax.set_ylabel("first-band coefficient")
    ax.legend()
    fig.tight_layout()
    fig.savefig("harmonic_fit.png", dpi=150)
    print("\nwrote harmonic_fit.png")
except ImportError:
    print("\nmatplotlib not available; skipped the plot")
