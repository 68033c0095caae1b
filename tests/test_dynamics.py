import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from cdlmg import (
    FIGURES,
    AnsatzDrive,
    BandCoefficients,
    Bare,
    ConvergenceError,
    DecomposedDrive,
    DecompositionError,
    ExactCD,
    HPCorrection,
    ModelParams,
    NormError,
    RampSchedule,
    Truncated,
    ValidationError,
    build_h0,
    evolve,
    evolve_all,
    exact_cd,
    fidelity,
    hp_coefficient,
    parse_protocol,
    run_figure,
)
from cdlmg.counterdiabatic import _cd_factors, sector_cd_bands, sector_cd_block
import cdlmg.dynamics
from cdlmg.dynamics import (CHUNK_BYTES, CHUNK_STEPS, TrackedRun, _gershgorin, _planned_step,
                            _StepPlan)
from cdlmg.spectrum import sector_ground_series
from cdlmg.spin_algebra import BandMatrix, SectorFrame, parity_frames


# --------------------------------------------------------------------------
# schedules

def test_ramp_values_and_derivatives():
    lin = RampSchedule.linear(0.75, 0.5)
    assert lin.h(0.5) == pytest.approx(1.0)
    assert lin.hdot(0.3) == pytest.approx(0.5)
    quad = RampSchedule.quadratic(0.75, 0.5)
    assert quad.h(0.6) == pytest.approx(0.75 + 0.5 * 0.36)
    assert quad.hdot(0.6) == pytest.approx(0.6)
    th = RampSchedule.tanh_ramp(0.75, 0.5, 5.0)
    assert th.h(1.0) == pytest.approx(0.75 + 0.5 * np.tanh(5.0))
    assert th.hdot(0.0) == pytest.approx(2.5)
    const = RampSchedule.constant(1.3)
    assert const.h(0.7) == pytest.approx(1.3)
    assert const.hdot(0.7) == 0.0
    ts = lin.grid(4)
    assert np.allclose(ts, [0, 0.25, 0.5, 0.75, 1.0])


def test_ramp_derivative_check():
    for spec in ("linear:0.75,0.5", "linear:1.25,-0.5", "quadratic:0.75,0.5",
                 "tanh:0.75,0.5,5", "constant:1.3"):
        RampSchedule.parse(spec)
    ok = RampSchedule.custom(lambda t: 0.75 + 0.5 * t * t, lambda t: 1.0 * t)
    assert ok.hdot(0.5) == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        RampSchedule.custom(lambda t: 0.75 + 0.5 * t * t, lambda t: 2.0 * t)


def test_ramp_validation():
    with pytest.raises(ValidationError):
        RampSchedule.linear(0.2, -0.5)  # hits h <= 0
    with pytest.raises(ValidationError):
        RampSchedule.parse("linear:0.75")
    with pytest.raises(ValidationError):
        RampSchedule.parse("spline:1,2")
    parsed = RampSchedule.parse("tanh:0.75,0.5,5")
    assert parsed.h(0.2) == pytest.approx(0.75 + 0.5 * np.tanh(1.0))


def test_parse_protocol():
    assert isinstance(parse_protocol("bare"), Bare)
    assert isinstance(parse_protocol("exact"), ExactCD)
    assert parse_protocol("truncated:3").bands == 3
    assert parse_protocol("decomposed:2").bands == 2
    assert isinstance(parse_protocol("hp"), HPCorrection)
    with pytest.raises(ValidationError):
        parse_protocol("truncated")
    with pytest.raises(ValidationError):
        parse_protocol("adiabatic")
    with pytest.raises(ValidationError):
        Truncated(0)


# --------------------------------------------------------------------------
# fidelity

def test_fidelity_basic_cases():
    v = np.array([1.0, 0.0, 0.0], dtype=complex)
    w = np.array([0.0, 1.0, 0.0], dtype=complex)
    assert fidelity(v, v) == pytest.approx(1.0)
    assert fidelity(v, w) == pytest.approx(0.0)
    assert fidelity((v + w) / np.sqrt(2), v) == pytest.approx(0.5)


# --------------------------------------------------------------------------
# propagation

def _tridiagonal(rng, dim, sub):
    """Hermitian tridiagonal matrix: random diagonal, subdiagonal `sub`."""
    return BandMatrix.from_uppers(rng.normal(size=dim), [np.conj(sub)]).dense()


def _random_bands(rng, dim, w, real):
    """Random Hermitian band matrix of width w."""
    uppers = [rng.normal(size=dim - o) + (0 if real else 1j * rng.normal(size=dim - o))
              for o in range(1, min(w, dim - 1) + 1)]
    uppers += [np.zeros(0)] * (w - len(uppers))  # offsets past the matrix stay empty
    return BandMatrix.from_uppers(rng.normal(size=dim), uppers)


def _dense(h):
    return h.dense() if isinstance(h, BandMatrix) else h


def _single_step(h, dt, psi):
    """exp(-i h dt) psi and its term count from a plan of this one step, on a
    complex copy of h (a `BandMatrix` or a dense matrix)."""
    batch = (BandMatrix(h.data.astype(complex)[None]) if isinstance(h, BandMatrix)
             else np.array(h, dtype=complex)[None])
    return _planned_step(_StepPlan(batch, np.array([dt])), 0, psi)


@pytest.mark.parametrize("kind", ["real", "complex", "tridiagonal", "identity", "wide",
                                  "block_triangular", "bands", "bands_identity",
                                  "bands_wide"])
def test_chebyshev_step_matches_expm(kind):
    rng = np.random.default_rng(3)
    dim = 9
    if kind.startswith("bands"):
        # band matrices of width 1..3, real and complex, 2 to 70 states
        cases = [_random_bands(rng, dim, w, real) for dim in (2, 3, 9, 70)
                 for w in (1, 2, 3) for real in (True, False)]
        if kind == "bands_identity":  # a zero-width spectral interval
            cases = [BandMatrix(np.vstack([np.zeros((w, dim)), np.full((1, dim), -0.6),
                                           np.zeros((w, dim))]))
                     for dim in (2, 9) for w in (1, 3)]
        if kind == "bands_wide":
            cases = [BandMatrix(10.0 * h.data) for h in cases]
    elif kind == "tridiagonal":
        dim = 69
        cases = [_tridiagonal(rng, dim, rng.normal(size=dim - 1) + 1j * rng.normal(size=dim - 1))]
    elif kind == "identity":  # a zero-width spectral interval
        cases = [1.7 * np.eye(dim)]
    elif kind == "block_triangular":
        # [[H, P_1], [0, H]], whose upper-right exponential block is the
        # derivative of exp(-i H dt) along P_1 (the optimizer's gradient)
        params = ModelParams(40, 0.0)
        frame = SectorFrame.tracked(params)
        pattern = (1j * np.eye(41, k=2) - 1j * np.eye(41, k=-2))[frame.ix]
        block = build_h0(params, 1.0)[frame.ix] + 0.4 * pattern
        cases = [np.block([[block, pattern], [np.zeros_like(block), block]])]
    else:
        raw = rng.normal(size=(dim, dim))
        if kind != "real":
            raw = raw + 1j * rng.normal(size=(dim, dim))
        cases = [raw + raw.conj().T]
    dts = {"wide": (3.0, -2.5), "bands_wide": (3.0, -2.5),
           "block_triangular": (0.05, -0.03, 10.0)}.get(kind, (0.05, -0.03))
    for h in cases:
        dense = _dense(h)
        dim = len(dense)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        energies = np.linalg.eigvalsh(dense)
        for dt in dts:
            if kind == "wide" or (kind == "bands_wide" and dim > 3):
                # z, the spectral half-width times |dt|, beyond dim
                assert 0.5 * (energies[-1] - energies[0]) * abs(dt) > dim
            got, terms = _single_step(h, dt, psi)
            assert np.max(np.abs(got - expm(-1j * dense * dt) @ psi)) < 1e-12
            assert terms == 1 if kind.endswith("identity") else terms > 1


@pytest.mark.parametrize("w", [1, 2, 3])
def test_planned_steps_equal_single_steps(w):
    # a batch mixing term counts (one-term identities, wide spectra, steps
    # of either sign) planned in one pass gives each step bitwise as a plan
    # of that step alone does: term count, coefficients and state
    rng = np.random.default_rng(20 + w)
    dim = 40
    blocks = [_random_bands(rng, dim, w, real) for real in (True, False, False)]
    blocks += [BandMatrix(10.0 * h.data) for h in blocks]
    blocks.insert(2, BandMatrix(np.vstack([np.zeros((w, dim)), np.full((1, dim), -0.6),
                                           np.zeros((w, dim))])))
    dts = rng.choice([0.05, -0.03, 3.0, -2.5], len(blocks))
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    plan = _StepPlan(BandMatrix(np.stack([h.data.astype(complex) for h in blocks])), dts)
    assert len(set(plan.terms)) >= 4 and 1 in plan.terms
    for j, (h, dt) in enumerate(zip(blocks, dts)):
        single = _StepPlan(BandMatrix(h.data.astype(complex)[None]), np.array([dt]))
        end, terms = plan.ends[j], plan.terms[j]
        assert single.terms == [terms]
        assert np.array_equal(plan.coeffs[end - terms:end], single.coeffs)
        got, got_terms = _planned_step(plan, j, psi)
        want, want_terms = _single_step(h, dt, psi)
        assert got_terms == want_terms == terms
        assert np.array_equal(got, want)


def test_chunk_sized_by_its_own_steps():
    # near h = 1 at N=300 one hp step takes 79 terms where its chunk's others
    # take 16 to 40: the chunk's coefficients hold each step's own count, one
    # term buffer serves the chunk, and every step equals the step alone
    params = ModelParams(300, 0.0, RampSchedule.linear(0.75, 0.5))
    run = TrackedRun(params, 250)
    chunk, operators = cdlmg.dynamics._step_operators(run, HPCorrection())
    lo, hi = 96, 96 + chunk
    dts = np.diff(run.times)[lo:hi]
    plan = _StepPlan(operators(lo, hi), dts)
    assert max(plan.terms) == 79 and sorted(plan.terms)[-2] <= 40
    assert len(plan.coeffs) == sum(plan.terms)
    assert plan.work.shape == (79, run.frame.dim)
    blocks = operators(lo, hi).data
    psi = run.grounds[lo].astype(complex)
    for j, (data, dt) in enumerate(zip(blocks, dts)):
        want = _single_step(BandMatrix(data), dt, psi)
        got = _planned_step(plan, j, psi)
        assert got[1] == want[1] and np.array_equal(got[0], want[0])
        psi = want[0]


def test_chunk_edges(monkeypatch):
    # runs of 1, C-1, C, C+1 and 2C+1 steps, C = CHUNK_STEPS, give the
    # trajectories of stepping one step per chunk
    params = ModelParams(30, 0.0, RampSchedule.linear(0.75, 0.5))
    protocols = ["bare", "hp", "truncated:2", "exact_cd",
                 AnsatzDrive(BandCoefficients(np.linspace(0, 1, 8),
                                              np.linspace(-0.3, 0.3, 21).reshape(7, 3)))]
    lengths = (1, CHUNK_STEPS - 1, CHUNK_STEPS, CHUNK_STEPS + 1, 2 * CHUNK_STEPS + 1)
    chunked = [evolve(params, p, n, store_states=True) for p in protocols for n in lengths]
    monkeypatch.setattr(cdlmg.dynamics, "CHUNK_STEPS", 1)
    single = [evolve(params, p, n, store_states=True) for p in protocols for n in lengths]
    for a, b in zip(chunked, single):
        assert np.array_equal(a.fidelity, b.fidelity)
        assert np.array_equal(a.states, b.states)
        assert a.info["matvecs"] == b.info["matvecs"]


def test_gershgorin_interval_of_bands():
    # a band matrix's interval is the dense Gershgorin formula's, and it holds
    # the spectrum
    rng = np.random.default_rng(11)
    for dim in (2, 5, 51, 151):
        for w in (1, 2, 3):
            for real in (True, False):
                bands = _random_bands(rng, dim, w, real)
                dense = bands.dense()
                diag = np.diagonal(dense).real
                radius = np.abs(dense).sum(axis=1) - np.abs(diag)
                lo, hi = _gershgorin(bands)
                assert lo == pytest.approx(np.min(diag - radius), rel=1e-14, abs=1e-14)
                assert hi == pytest.approx(np.max(diag + radius), rel=1e-14, abs=1e-14)
                energies = np.linalg.eigvalsh(dense)
                assert lo <= energies[0] and energies[-1] <= hi


class _ExpmPlan:
    """Stands in for `_StepPlan`: each step of the batch by expm of its
    block, made dense."""

    def __init__(self, h, dts):
        blocks = [BandMatrix(d) for d in h.data] if isinstance(h, BandMatrix) else h
        self.steps = [expm(-1j * _dense(b) * dt) for b, dt in zip(blocks, dts)]


@pytest.mark.parametrize("protocol", ["bare", "hp", "truncated:1", "exact_cd",
                                      "decomposed:1", "ansatz"])
def test_evolve_matches_eigh_steps(protocol, monkeypatch):
    # evolve's Chebyshev steps against the same run stepped by expm of the
    # step's block, made dense
    params = ModelParams(20, 0.0, RampSchedule.linear(0.75, 0.5))
    if protocol == "ansatz":
        protocol = AnsatzDrive(BandCoefficients(np.linspace(0, 1, 11),
                                                np.linspace(-0.3, 0.3, 20).reshape(10, 2)))
    traj = evolve(params, protocol, 200, store_states=True)
    assert traj.info["matvecs"] >= traj.info["steps"]
    monkeypatch.setattr(cdlmg.dynamics, "_StepPlan", _ExpmPlan)
    monkeypatch.setattr(cdlmg.dynamics, "_planned_step",
                        lambda plan, j, psi: (plan.steps[j] @ psi, 1))
    reference = evolve(params, protocol, 200, store_states=True)
    assert np.max(np.abs(traj.states - reference.states)) < 1e-12
    assert np.max(np.abs(traj.fidelity - reference.fidelity)) < 1e-12


def test_protocols_share_one_tracked_run(monkeypatch):
    # evolve_all gives the trajectories of one evolve per protocol, from one
    # ground series
    params = ModelParams(14, 0.0, RampSchedule.linear(0.75, 0.5))
    protocols = ["bare", "hp", "truncated:2", "exact_cd"]
    separate = {p: evolve(params, p, 60) for p in protocols}
    solved = []
    ground_series = cdlmg.dynamics.sector_ground_series
    monkeypatch.setattr(cdlmg.dynamics, "sector_ground_series",
                        lambda *a: solved.append(a) or ground_series(*a))
    together = evolve_all(params, protocols, 60)
    assert list(together) == [parse_protocol(p).label for p in protocols]
    for p, traj in zip(protocols, together.values()):
        assert np.array_equal(traj.fidelity, separate[p].fidelity)
    assert len(solved) == 1
    # a tracked run is not a grid, and converging needs a step count
    run = TrackedRun(params, 60)
    with pytest.raises(ValidationError, match="grid must be"):
        evolve(params, "bare", run)
    with pytest.raises(ValidationError, match="integer step count"):
        evolve(params, "bare", run.times, converge=True)


def test_repeated_protocol_label_rejected():
    # evolve_all keys its result by label, so a label given twice (also as
    # 'exact' and 'exact_cd') would be stepped twice and returned once
    params = ModelParams(6, 0.0, RampSchedule.linear(0.75, 0.5))
    with pytest.raises(ValidationError, match="protocol bare is given more than once"):
        evolve_all(params, ["bare", "hp", "bare"], 20)
    with pytest.raises(ValidationError, match="protocol exact_cd is given more than once"):
        evolve_all(params, ["exact", ExactCD()], 20)
    assert list(evolve_all(params, ["truncated:1", "decomposed:1"], 20)) == [
        "truncated(1)", "decomposed(1)"]


def test_lockstep_chunk_edges(monkeypatch):
    # the readers of the CD factors step on one chunk, exact_cd's, while the
    # band protocols keep theirs: runs of 1, C-1, C, C+1 and 2C+1 steps for
    # every chunk size C in play give, protocol by protocol, the trajectories
    # of evolve with that protocol alone
    params = ModelParams(20, 0.0, RampSchedule.linear(0.75, 0.5))
    dim = SectorFrame.tracked(params).dim
    monkeypatch.setattr(cdlmg.dynamics, "CHUNK_BYTES", 7 * dim * dim * 16)
    ansatz = AnsatzDrive(BandCoefficients(np.linspace(0, 1, 8),
                                          np.linspace(-0.3, 0.3, 21).reshape(7, 3)))
    protocols = ["bare", "hp", "truncated:2", "decomposed:2", "exact_cd", ansatz]
    run = TrackedRun(params, 2)
    chunks = {cdlmg.dynamics._step_operators(run, parse_protocol(p))[0] for p in protocols}
    assert chunks == {7, 11, 15, 25}  # exact_cd, ansatz, truncated:2, bare and hp
    chunks.discard(15)  # truncated:2 and decomposed:2 step on exact_cd's 7
    for n in sorted({m for c in chunks for m in (1, c - 1, c, c + 1, 2 * c + 1)}):
        together = evolve_all(params, protocols, n, store_states=True)
        assert list(together) == [parse_protocol(p).label for p in protocols]
        for p, traj in zip(protocols, together.values()):
            alone = evolve(params, p, n, store_states=True)
            assert np.array_equal(traj.fidelity, alone.fidelity)
            assert np.array_equal(traj.states, alone.states)
            assert traj.info["matvecs"] == alone.info["matvecs"]


def test_preset_solves_each_midpoint_once(monkeypatch):
    # fig1a's exact_cd and truncated:1 read one eigensolve of the tracked
    # block per midpoint
    solved = []
    factors = cdlmg.dynamics._cd_factors
    monkeypatch.setattr(cdlmg.dynamics, "_cd_factors",
                        lambda frame, h, hdot: solved.append(frame.idx) or factors(frame, h, hdot))
    run_figure("fig1a", steps=20)
    spec = FIGURES["fig1a"]
    assert {ExactCD(), Truncated(1)} <= set(spec.protocols)
    tracked = SectorFrame.tracked(ModelParams(spec.n, spec.gamma)).idx
    assert len(solved) == 20
    assert all(np.array_equal(idx, tracked) for idx in solved)


@pytest.mark.parametrize("n", [20, 100])
def test_cd_bands_match_block_diagonals(n):
    # the band-only extraction gives the diagonals of the whole block
    params = ModelParams(n, 0.0)
    for frame in parity_frames(params):
        for h, hdot in ((0.8, 0.5), (1.0, -0.3), (1.3, 0.5)):
            factors = _cd_factors(frame, h, hdot)
            block = sector_cd_block(factors)
            for k in (1, 2, 3):
                bands = sector_cd_bands(factors, k)
                assert bands.width == k
                assert np.array_equal(bands.data[k], np.zeros(frame.dim))
                for o in range(-k, k + 1):
                    if o:
                        got = np.diagonal(bands.dense(), o)
                        assert np.max(np.abs(got - np.diagonal(block, o))) < 1e-14


def test_constant_ramp_bare_is_stationary():
    ramp = RampSchedule.constant(0.9)
    params = ModelParams(12, 0.0, ramp)
    traj = evolve(params, "bare", 300)
    assert traj.min_fidelity > 1 - 1e-8


def test_exact_cd_pins_fidelity():
    ramp = RampSchedule.linear(0.75, 0.5)
    params = ModelParams(30, 0.0, ramp)
    traj = evolve(params, "exact_cd", 1000, converge=True)
    assert traj.min_fidelity >= 1 - 1e-4
    assert traj.info["max_norm_error"] < 1e-8
    assert traj.info["convergence_delta"] < 1e-6


def test_full_basis_reference():
    # independent full-matrix propagator cross-checks the parity-sector path
    ramp = RampSchedule.linear(0.75, 0.5)
    params = ModelParams(5, 0.0, ramp)
    steps = 200
    times = ramp.grid(steps)

    frame = SectorFrame.tracked(params)
    grounds = frame.embed(sector_ground_series(frame, ramp.h(times))[0])
    psi = grounds[0].astype(complex)
    fids = [fidelity(psi, grounds[0])]
    for k in range(steps):
        tm = 0.5 * (times[k] + times[k + 1])
        h, hd = float(ramp.h(tm)), float(ramp.hdot(tm))
        hmat = build_h0(params, h).astype(complex)
        hmat += exact_cd(params, h, hd)
        energies, vectors = np.linalg.eigh(hmat)
        psi = vectors @ (np.exp(-1j * energies * (times[k + 1] - times[k]))
                         * (vectors.conj().T @ psi))
        fids.append(fidelity(psi, grounds[k + 1]))

    traj = evolve(params, "exact_cd", steps)
    assert np.max(np.abs(traj.fidelity - np.array(fids))) < 1e-10


def test_protocol_ordering_small_system():
    ramp = RampSchedule.linear(0.75, 0.5)
    params = ModelParams(20, 0.0, ramp)
    finals = {p: evolve(params, p, 500).final_fidelity
              for p in ("bare", "truncated:1", "exact_cd")}
    assert finals["exact_cd"] > finals["truncated:1"] > finals["bare"]


def test_hp_switch_off_window():
    # crossing h=1 must not raise: the correction is switched off inside
    # its undefined window
    ramp = RampSchedule.linear(0.75, 0.5)
    params = ModelParams(16, 0.0, ramp)
    traj = evolve(params, "hp", 300)
    assert np.all(np.isfinite(traj.fidelity))
    assert hp_coefficient(params.n, params.gamma, 1.0, 0.5) == 0.0


def test_decomposed_matches_truncated():
    ramp = RampSchedule.linear(0.75, 0.5)
    params = ModelParams(6, 0.0, ramp)
    trunc = evolve(params, Truncated(2), 300, store_states=True)
    decomp = evolve(params, DecomposedDrive(2), 300, store_states=True)
    assert np.array_equal(trunc.fidelity, decomp.fidelity)
    assert np.array_equal(trunc.states, decomp.states)


def test_decomposition_gate_checks_every_midpoint():
    # on the reversed ramp at N=26 the band-1 residual is 4.5e-15 at the first
    # midpoint and first exceeds RECONSTRUCTION_TOL at the 88th of 100
    params = ModelParams(26, 0.0, RampSchedule.linear(1.25, -0.5))
    with pytest.raises(DecompositionError, match="band-1"):
        evolve(params, "decomposed:1", 100)


def test_decomposed_solves_each_block_once_per_midpoint(monkeypatch):
    # the tracked block's bands are both the drive and half the gate's table
    import cdlmg.counterdiabatic
    solve, solved = cdlmg.counterdiabatic.dstevd, []
    monkeypatch.setattr(cdlmg.counterdiabatic, "dstevd",
                        lambda *a, **kw: solved.append(a) or solve(*a, **kw))
    evolve(ModelParams(20, 0.0, RampSchedule.linear(0.75, 0.5)), "decomposed:2", 100)
    assert len(solved) == 200


def test_time_reversal_round_trip():
    # retracing the grid applies the inverse propagators in reverse order
    ramp = RampSchedule.constant(0.9)
    params = ModelParams(10, 0.0, ramp)
    coeffs = BandCoefficients(np.linspace(0, 1, 11),
                              np.full((10, 1), 0.4))
    forward = ramp.grid(100)
    tent = np.concatenate([forward, forward[-2::-1]])
    traj = evolve(params, AnsatzDrive(coeffs), tent, store_states=True)
    mid_fid = traj.fidelity[100]
    assert mid_fid < 0.999  # the drive actually moved the state
    assert traj.fidelity[-1] > 1 - 1e-8
    assert fidelity(traj.states[-1], traj.states[0]) > 1 - 1e-8


def test_step_halving_convergence_failure():
    ramp = RampSchedule.linear(0.75, 0.5)
    params = ModelParams(40, 0.0, ramp)
    with pytest.raises(ConvergenceError):
        evolve(params, "bare", 2, converge=True)


def test_evolve_validation():
    params = ModelParams(8, 0.0)
    with pytest.raises(ValidationError):
        evolve(params, "bare", 100)  # no ramp
    ramp = RampSchedule.linear(0.75, 0.5)
    # an explicit grid needs two or more finite times inside the ramp's domain;
    # t = -3 would run at h = -0.75, a field the ramp's own check forbids
    for grid in ([0.0], np.array([0.0, np.nan]), [0.0, np.inf], [0.0, -3.0], [0.0, 1.5]):
        with pytest.raises(ValidationError):
            evolve(ModelParams(8, 0.0, ramp), "bare", grid)
    # a step count must be an integer: 2.7, True and "3" would otherwise run
    # 2, 1 and 3 steps
    for grid in (2.7, True, "3"):
        with pytest.raises(ValidationError):
            evolve(ModelParams(8, 0.0, ramp), "bare", grid)
    assert evolve(ModelParams(8, 0.0, ramp), "bare", np.int64(3)).info["steps"] == 3


def test_run_holds_one_step_block_at_a_time():
    # a run builds its steps' H0 blocks a chunk at a time: at N=100 over 4000
    # steps it must peak far below one (steps, 51, 51) float64 stack, 83.2 MB
    params = ModelParams(100, 0.0, RampSchedule.linear(0.75, 0.5))
    stack_bytes = 4000 * 51 * 51 * 8
    tracemalloc.start()
    try:
        evolve(params, "bare", 4000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes / 4


def test_exact_cd_run_holds_two_chunks_at_most():
    # exact_cd's dense blocks are planned CHUNK_BYTES at a time: at N=100 over
    # 1000 steps the run holds a chunk's plan while the next chunk is built,
    # far below its (steps, 51, 51) complex stack, 41.6 MB, and below the
    # CHUNK_STEPS blocks, 2.7 MB, that a plan and its successor would hold
    # without the byte bound
    params = ModelParams(100, 0.0, RampSchedule.linear(0.75, 0.5))
    run = TrackedRun(params, 1000)
    assert CHUNK_STEPS * 51 * 51 * 16 > CHUNK_BYTES
    tracemalloc.start()
    try:
        cdlmg.dynamics._propagate(run, [ExactCD()], False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * CHUNK_BYTES


def test_shared_cd_run_holds_two_chunks_at_most():
    # exact_cd and truncated:1 stepped in lockstep also keep the window of
    # CD factors they share, one exact_cd chunk's bytes: at N=100 over 1000
    # steps the run still peaks below 4 CHUNK_BYTES
    params = ModelParams(100, 0.0, RampSchedule.linear(0.75, 0.5))
    run = TrackedRun(params, 1000)
    tracemalloc.start()
    try:
        cdlmg.dynamics._propagate(run, [ExactCD(), Truncated(1)], False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert run.factor_readers == 2
    assert peak < 4 * CHUNK_BYTES


def test_trajectory_export(tmp_path):
    ramp = RampSchedule.linear(0.75, 0.5)
    traj = evolve(ModelParams(6, 0.0, ramp), "bare", 50)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,h,fidelity"
    assert len(lines) == 52
    t, h, f = (float(x) for x in lines[-1].split(","))
    assert t == pytest.approx(1.0)
    assert h == pytest.approx(1.25)
    assert f == pytest.approx(traj.final_fidelity)


def test_norm_drift_raises(monkeypatch):
    # a drifting norm and a state that turns NaN both stop the run
    params = ModelParams(6, 0.0, RampSchedule.linear(0.75, 0.5))
    for factor in (1 + 1e-6, np.nan):
        def drifting(plan, j, psi):
            psi, terms = _planned_step(plan, j, psi)
            return psi * factor, terms

        monkeypatch.setattr("cdlmg.dynamics._planned_step", drifting)
        with pytest.raises(NormError, match="at step 1 of 20"):
            evolve(params, "bare", 20)


def test_non_finite_operator_stops_at_its_step(monkeypatch):
    # a NaN block takes one term whose coefficient is NaN: the run ends in
    # NormError at that step, while the rest of its chunk plans as usual
    params = ModelParams(6, 0.0, RampSchedule.linear(0.75, 0.5))
    bad_h = TrackedRun(params, 20).h_mid[2]
    coefficient = cdlmg.dynamics.hp_coefficient
    monkeypatch.setattr(cdlmg.dynamics, "hp_coefficient", lambda n, gamma, h, hdot: (
        np.nan if h == bad_h else coefficient(n, gamma, h, hdot)))
    with pytest.raises(NormError, match="at step 3 of 20"):
        evolve(params, "hp", 20)
    h = SectorFrame.tracked(params).h0_bands(1.1)
    h.data[1, 1] = np.nan
    psi, terms = _single_step(h, 0.01, np.ones(h.data.shape[1], dtype=complex))
    assert terms == 1 and np.all(np.isnan(psi))


def test_norm_preserved_over_full_ramp():
    ramp = RampSchedule.linear(0.75, 0.5)
    traj = evolve(ModelParams(25, 0.0, ramp), "exact_cd", 800, store_states=True)
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.max(np.abs(norms - 1)) < 1e-8
    assert np.all(traj.fidelity >= 0)
    assert np.all(traj.fidelity <= 1 + 1e-12)


def test_fidelities_independent_of_blas_threads():
    # the four protocols' fidelities at N=300, and the optimizer's schedule at
    # N=130 (66 states per block, stepped with the gradient on 132)
    code = (
        "from cdlmg import ModelParams, RampSchedule, evolve, optimize\n"
        "ramp = RampSchedule.linear(0.75, 0.5)\n"
        "params = ModelParams(300, 0.0, ramp)\n"
        "for protocol in ('bare', 'hp', 'truncated:1', 'exact_cd'):\n"
        "    print(evolve(params, protocol, 60).fidelity.tobytes().hex())\n"
        "result = optimize(ModelParams(130, 0.0, ramp), k=1, segments=10, eval_steps=200)\n"
        "print(result.coefficients.values.tobytes().hex())\n")
    src = str(Path(__import__("cdlmg").__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=300, check=True)
        outputs.append(run.stdout.split())
    assert len(outputs[0]) == 5
    assert outputs[0] == outputs[1]
