import numpy as np
import pytest
from scipy.linalg import expm

import cdlmg.ansatz
import cdlmg.dynamics
from cdlmg import (
    AnsatzDrive,
    BandCoefficients,
    ModelParams,
    RampSchedule,
    ValidationError,
    build_h0,
    evaluate_fit,
    evolve,
    fit_harmonics,
    optimize,
)
from cdlmg.ansatz import _matching_pursuit_init, _segment_infidelity
from cdlmg.dynamics import TrackedRun
from cdlmg.spin_algebra import SectorFrame
from conftest import lstsq_frequency_scan


def test_ansatz_matrix_structure():
    # the ansatz drive of each parity block: one coefficient per band pattern
    params = ModelParams(9, 0.0)
    for parity in (0, 1):
        frame = SectorFrame(params, parity)
        mat = frame.ansatz_bands([0.3, -1.2, 0.7]).dense()
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-14
    with pytest.raises(ValidationError):
        SectorFrame(ModelParams(4, 0.0), 0).ansatz_bands([0.0, 0.0, 0.0])


def test_band_coefficients_container():
    bounds = np.linspace(0, 1, 6)
    values = np.arange(10, dtype=float).reshape(5, 2)
    coeffs = BandCoefficients(bounds, values)
    assert coeffs.segments == 5
    assert coeffs.num_bands == 2
    assert np.allclose(coeffs.values[coeffs.segment_of(0.05)], [0.0, 1.0])
    assert np.allclose(coeffs.values[coeffs.segment_of(0.99)], [8.0, 9.0])
    times, series = coeffs.band_series(2)
    assert np.allclose(series, [1, 3, 5, 7, 9])
    assert np.allclose(times, bounds[:-1] + 0.1)
    with pytest.raises(ValidationError):
        coeffs.band_series(3)
    # with_band_values replaces one band's column, and rejects the bands
    # band_series rejects instead of wrapping round to the last one
    replaced = coeffs.with_band_values(1, np.full(5, -1.0))
    assert np.array_equal(replaced.values[:, 0], np.full(5, -1.0))
    assert np.array_equal(replaced.values[:, 1], values[:, 1])
    for band in (0, 3):
        with pytest.raises(ValidationError, match=f"band {band} outside 1..2"):
            coeffs.with_band_values(band, np.zeros(5))
    with pytest.raises(ValidationError):
        BandCoefficients(bounds, values[:3])
    with pytest.raises(ValidationError):
        BandCoefficients(bounds[::-1], values)


def test_band_coefficients_csv(tmp_path):
    coeffs = BandCoefficients(np.linspace(0, 1, 4), np.ones((3, 2)))
    path = tmp_path / "sched.csv"
    coeffs.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x_1,x_2"
    assert len(lines) == 4
    payload = coeffs.to_json_dict()
    assert payload["values"] == np.ones((3, 2)).tolist()
    assert len(payload["boundaries"]) == 4


def test_optimize_validation(linear_ramp):
    params = ModelParams(10, 0.0, linear_ramp)
    with pytest.raises(ValidationError):
        optimize(params, k=1, segments=5)
    with pytest.raises(ValidationError):
        optimize(params, k=0)
    with pytest.raises(ValidationError):
        optimize(params, k=1, warm_start=np.zeros((3, 1)))
    with pytest.raises(ValidationError):
        optimize(params, k=1, segments=10, warm_start=np.zeros(10))
    with pytest.raises(ValidationError):
        optimize(ModelParams(10, 0.0), k=1)  # no ramp


def test_optimize_rejects_non_finite_warm_start(linear_ramp, monkeypatch):
    # a NaN or infinite start is refused before any segment is propagated
    params = ModelParams(6, 0.0, linear_ramp)
    propagated = []
    monkeypatch.setattr(cdlmg.ansatz, "_segment_infidelity",
                        lambda *a: propagated.append(a))
    for bad in (np.nan, np.inf):
        warm = np.zeros((10, 1))
        warm[3, 0] = bad
        with pytest.raises(ValidationError, match="warm_start must be finite"):
            optimize(params, k=1, segments=10, warm_start=warm)
    assert propagated == []


@pytest.mark.parametrize("k", [1, 2])
def test_segment_gradient_matches_finite_differences(linear_ramp, k):
    # a segment across the transition (h from 0.975 to 1.025), at zero drive
    # and at a generic point; the value and end state against steps of expm
    params = ModelParams(8, 0.0, linear_ramp)
    run = TrackedRun(params, 100)
    lo, hi = 45, 55
    frame = run.frame
    h0_segment = np.array([frame.h0_bands(h).dense() for h in run.h_mid[lo:hi]])
    # the references: H0 and the band patterns from the dense spin matrices
    h0_reference = [build_h0(params, h)[frame.ix] for h in run.h_mid[lo:hi]]
    patterns = [(1j * np.eye(9, k=2 * b) - 1j * np.eye(9, k=-2 * b))[frame.ix]
                for b in range(1, k + 1)]
    dt = run.times[1] - run.times[0]
    psi, target = run.grounds[lo].astype(complex), run.grounds[hi]

    ansatz_patterns = frame.ansatz_bands(np.eye(k)).dense()

    def segment(x):
        return _segment_infidelity(h0_segment, frame.ansatz_bands, ansatz_patterns, x, dt, psi,
                                   target)

    eps = 1e-5
    for x in (np.zeros(k), np.array([-0.9, 0.4])[:k]):
        value, gradient, psi_end = segment(x)
        expected = psi
        for h0 in h0_reference:
            expected = expm(-1j * dt * (h0 + np.tensordot(x, patterns, axes=(0, 0)))) @ expected
        assert value == pytest.approx(1.0 - abs(np.vdot(target, expected)) ** 2, abs=1e-15)
        assert np.max(np.abs(psi_end - expected)) < 1e-14
        central = np.array([(segment(x + eps * e)[0] - segment(x - eps * e)[0]) / (2 * eps)
                            for e in np.eye(k)])
        assert np.max(np.abs(gradient - central)) <= 1e-6 * np.max(np.abs(gradient))


def test_segment_split_into_chunks_equals_single_steps(linear_ramp, monkeypatch):
    # at N=40, k=2 a segment's ten 63-state blocks outgrow a CHUNK_BYTES of
    # 256 KiB, so its steps are planned in several chunks: value, gradient
    # and end state equal bitwise those of planning one block at a time
    monkeypatch.setattr(cdlmg.dynamics, "CHUNK_BYTES", 256 * 1024)
    params = ModelParams(40, 0.0, linear_ramp)
    run = TrackedRun(params, 100)
    lo, hi = 45, 55
    frame = run.frame
    h0_segment = np.array([frame.h0_bands(h).dense() for h in run.h_mid[lo:hi]])
    dt = run.times[1] - run.times[0]
    psi, target = run.grounds[lo].astype(complex), run.grounds[hi]
    x = np.array([-0.9, 0.4])
    assert 1 < cdlmg.dynamics._chunk_steps((3 * frame.dim) ** 2 * 16) < hi - lo
    patterns = frame.ansatz_bands(np.eye(2)).dense()
    chunked = _segment_infidelity(h0_segment, frame.ansatz_bands, patterns, x, dt, psi, target)
    monkeypatch.setattr(cdlmg.dynamics, "CHUNK_STEPS", 1)
    single = _segment_infidelity(h0_segment, frame.ansatz_bands, patterns, x, dt, psi, target)
    assert chunked[0] == single[0]
    assert np.array_equal(chunked[1], single[1])
    assert np.array_equal(chunked[2], single[2])


def test_optimize_small_system(linear_ramp):
    params = ModelParams(8, 0.0, linear_ramp)
    result = optimize(params, k=1, segments=10,
                      opt_steps_per_segment=8, eval_steps=600)
    assert result.trajectory.min_fidelity > 0.99
    assert result.coefficients.segments == 10
    assert result.nfev > 0


def test_optimize_deterministic(linear_ramp):
    params = ModelParams(6, 0.0, linear_ramp)
    kwargs = dict(k=1, segments=10, opt_steps_per_segment=6, eval_steps=300)
    first = optimize(params, **kwargs)
    second = optimize(params, **kwargs)
    assert np.array_equal(first.coefficients.values, second.coefficients.values)


def _record_minimize(monkeypatch):
    """Wrap the optimizer's `minimize`; returns the list of (x0, result) it
    fills, one entry per call."""
    calls, scipy_minimize = [], cdlmg.ansatz.minimize

    def recording(fun, x0, **kwargs):
        start = np.array(x0, dtype=float)
        result = scipy_minimize(fun, x0, **kwargs)
        calls.append((start, result))
        return result

    monkeypatch.setattr(cdlmg.ansatz, "minimize", recording)
    return calls


def test_optimize_one_search_per_segment_from_previous_optimum(linear_ramp, monkeypatch):
    calls = _record_minimize(monkeypatch)
    result = optimize(ModelParams(6, 0.0, linear_ramp), k=1, segments=10,
                      opt_steps_per_segment=6, eval_steps=300)
    assert len(calls) == 10
    # one zero-drive baseline per segment, plus the search's own evaluations
    assert result.nfev == 10 + sum(r.nfev for _, r in calls)
    assert np.array_equal(calls[0][0], np.zeros(1))
    for (_, before), (start, _) in zip(calls, calls[1:]):
        assert np.array_equal(start, before.x)


def test_optimize_warm_start_pads_missing_bands_with_zeros(linear_ramp, monkeypatch):
    params = ModelParams(6, 0.0, linear_ramp)
    common = dict(segments=10, opt_steps_per_segment=6, eval_steps=300)
    one = optimize(params, k=1, **common).coefficients.values
    calls = _record_minimize(monkeypatch)
    optimize(params, k=2, warm_start=one, **common)
    assert len(calls) == 10
    for (start, _), row in zip(calls, one):
        assert np.array_equal(start, [row[0], 0.0])


def test_optimize_more_bands_never_worse(linear_ramp):
    params = ModelParams(8, 0.0, linear_ramp)
    common = dict(segments=10, opt_steps_per_segment=6, eval_steps=400)
    one = optimize(params, k=1, **common)
    two = optimize(params, k=2,
                   warm_start=one.coefficients.values, **common)
    assert (two.trajectory.final_fidelity
            >= one.trajectory.final_fidelity - 1e-9)


def test_optimize_warns_for_each_segment_zero_drive_cannot_beat():
    # on a constant field the ground state is stationary, so zero drive
    # already ends every segment at F = 1
    params = ModelParams(6, 0.0, RampSchedule.constant(0.9))
    result = optimize(params, k=1, segments=10, opt_steps_per_segment=4, eval_steps=100)
    assert result.warnings == tuple(
        f"segment {s}: no improvement over zero drive (F=1.000000)" for s in range(10))
    assert result.trajectory.info["optimizer_warnings"] == list(result.warnings)


# --------------------------------------------------------------------------
# harmonic fits

def test_fit_recovers_pure_sine():
    t = np.linspace(0.0125, 0.9875, 40)
    y = 0.8 * np.sin(7.3 * t + 0.4)
    fit = fit_harmonics(t, y, 1)
    assert fit.residual < 1e-8
    assert fit.converged
    assert np.max(np.abs(fit.evaluate(t) - y)) < 1e-7
    # the stored residual is reproducible from the stored series
    rms = np.sqrt(np.mean((fit.evaluate(fit.times) - fit.values) ** 2))
    assert rms == pytest.approx(fit.residual, abs=1e-12)


def test_fit_two_sines():
    t = np.linspace(0.0125, 0.9875, 40)
    y = 0.8 * np.sin(7.3 * t + 0.4) + 0.3 * np.sin(19.0 * t - 1.0)
    fit = fit_harmonics(t, y, 2)
    assert fit.residual < 1e-7
    recovered = sorted(np.abs(fit.omegas))
    assert recovered == pytest.approx([7.3, 19.0], abs=1e-4)


def test_frequency_screen_picks_what_lstsq_at_every_frequency_picks(linear_ramp):
    # the batched screen and its lstsq re-scoring give the scan's start
    # bitwise: on sines, noise, a damped oscillation, a constant and an
    # alternating series, over 12, 20 and 40 samples (at 20 the grid's top
    # frequency puts pi between samples, where the sin/cos pair is
    # rank-deficient), and on the band-1 series that `cdlmg fit`'s test fits
    rng = np.random.default_rng(8)
    cases = []
    for n in (12, 20, 40):
        t = np.linspace(0.0125, 0.9875, n)
        cases += [(t, series) for series in (
            0.8 * np.sin(7.3 * t + 0.4), np.sin(7 * t) + 0.3 * np.cos(19 * t),
            rng.normal(size=n), np.exp(-3.0 * t) * np.cos(11.0 * t), np.full(n, 1e-3),
            (-1.0) ** np.arange(n))]
    fitted = optimize(ModelParams(10, 0.0, linear_ramp), k=1, segments=12, eval_steps=600)
    cases.append(fitted.coefficients.band_series(1))
    for t, series in cases:
        for c in (1, 2, 3):
            assert np.array_equal(_matching_pursuit_init(t, series, c),
                                  lstsq_frequency_scan(t, series, c))


def test_fit_makes_one_refinement_even_when_it_does_not_converge(monkeypatch):
    calls = []
    real = cdlmg.ansatz.least_squares

    def capped(*args, **kwargs):
        calls.append(kwargs["max_nfev"])
        return real(*args, **dict(kwargs, max_nfev=5))

    monkeypatch.setattr("cdlmg.ansatz.least_squares", capped)
    # a damped oscillation, which the full budget fits in about 500 evaluations
    t = np.linspace(0.0125, 0.9875, 40)
    fit = fit_harmonics(t, np.exp(-3.0 * t) * np.cos(11.0 * t), 2)
    assert calls == [20000]
    assert fit.converged is False
    assert fit.to_json_dict()["converged"] is False


def test_fit_validation():
    t = np.linspace(0, 1, 40)
    with pytest.raises(ValidationError):
        fit_harmonics(t, np.sin(t), 4)
    with pytest.raises(ValidationError):
        fit_harmonics(t[:5], np.sin(t[:5]), 2)
    with pytest.raises(ValidationError):
        fit_harmonics(t, np.sin(t)[:20], 1)
    # non-finite samples, and times whose first and last are equal (the
    # frequency grid of the initial scan divides by times[-1] - times[0])
    values = np.sin(5 * t)
    for times, series in [(t, np.where(t > 0.5, np.nan, values)),
                          (t, np.where(t > 0.5, np.inf, values)),
                          (np.where(t > 0.5, np.nan, t), values),
                          (np.full(40, 0.3), values),
                          (np.concatenate([t[:20], t[:20][::-1]]), values)]:
        with pytest.raises(ValidationError):
            fit_harmonics(times, series, 1)


def test_fit_json_dict():
    t = np.linspace(0.0125, 0.9875, 40)
    fit = fit_harmonics(t, np.sin(5 * t), 1)
    payload = fit.to_json_dict()
    assert set(payload) == {"a", "omega", "phi", "residual", "band", "converged"}


def test_evaluate_fit_exact_series_gives_zero_discrepancy(linear_ramp):
    # schedule whose band-1 series is exactly one sinusoid: the fit
    # reproduces it at the segment midpoints, so the trajectories coincide
    params = ModelParams(8, 0.0, linear_ramp)
    bounds = np.linspace(0, 1, 13)
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    values = (0.5 * np.sin(6.0 * mids + 0.3)).reshape(-1, 1)
    schedule = BandCoefficients(bounds, values)
    fit = fit_harmonics(mids, values[:, 0], 1)
    assert fit.residual < 1e-9
    reference = evolve(params, AnsatzDrive(schedule), 400)
    evaluation = evaluate_fit(fit, schedule, reference)
    assert abs(evaluation.discrepancy) < 1e-9


def test_evaluate_fit_robust_to_small_amplitude_errors(linear_ramp):
    params = ModelParams(10, 0.0, linear_ramp)
    result = optimize(params, k=1, segments=10,
                      opt_steps_per_segment=8, eval_steps=600)
    times, series = result.coefficients.band_series(1)
    fit = fit_harmonics(times, series, 2)
    base = evaluate_fit(fit, result.coefficients, result.trajectory)
    bumped = type(fit)(fit.amplitudes * 1.05, fit.omegas, fit.phases,
                       fit.residual, fit.times, fit.values, fit.band,
                       fit.converged)
    perturbed = evaluate_fit(bumped, result.coefficients, result.trajectory)
    assert abs(perturbed.discrepancy - base.discrepancy) < 0.05
