"""Tests for the DRAM calibration microbenchmark and Ψ/Φ fits (Eqs. 6-7)."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import microbench
from repro.core.microbench import (
    CalibrationResult,
    PhiFit,
    PsiFit,
    _SAMPLE_FIELDS,
    _closed_form_probes,
    _run_probe,
    calibrate_memory_model,
    verify_calibration,
)
from repro.errors import CalibrationError
from repro.obs import MetricsRegistry, set_metrics
from repro.simhw import MachineConfig
from repro.simhw.dram import DramModel, SegmentDemand, segment_rates

M = MachineConfig(n_cores=12)
INSTRUCTIONS = 50_000_000.0


@pytest.fixture(scope="module")
def cal() -> CalibrationResult:
    return calibrate_memory_model(M, thread_counts=(2, 4, 8, 12))


class TestCalibrationRun:
    def test_psi_fit_per_thread_count(self, cal):
        assert set(cal.psi) == {2, 4, 8, 12}

    def test_t2_is_linear_others_log(self, cal):
        """Eq. 6's functional forms: linear for t=2, logarithmic for t>=4."""
        assert cal.psi[2].form == "linear"
        for t in (4, 8, 12):
            assert cal.psi[t].form == "log"

    def test_phi_power_law_negative_exponent(self, cal):
        """Eq. 7: omega = a * delta^b with b < 0 (the paper's -0.964)."""
        assert cal.phi.b < 0
        assert cal.phi.a > 0

    def test_samples_recorded(self, cal):
        assert len(cal.samples) > 30
        assert any(s.n_threads == 1 for s in cal.samples)
        assert any(s.n_threads == 12 for s in cal.samples)

    def test_summary_renders_formulas(self, cal):
        text = cal.summary()
        assert "delta_2" in text and "omega_t" in text

    def test_no_thread_counts_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_memory_model(M, thread_counts=(1,))


class TestPsiPredictions:
    def test_single_thread_identity(self, cal):
        assert cal.predict_per_thread_traffic(3000.0, 1) == 3000.0

    def test_per_thread_traffic_decreases_with_threads(self, cal):
        delta = 3000.0
        values = [cal.predict_per_thread_traffic(delta, t) for t in (2, 4, 8, 12)]
        assert values[0] > values[-1]

    def test_never_exceeds_demand(self, cal):
        for delta in (2000.0, 3000.0, 5000.0):
            for t in (2, 4, 8, 12):
                assert cal.predict_per_thread_traffic(delta, t) <= delta

    def test_interpolation_between_calibrated_counts(self, cal):
        d6 = cal.predict_per_thread_traffic(3000.0, 6)
        d4 = cal.predict_per_thread_traffic(3000.0, 4)
        d8 = cal.predict_per_thread_traffic(3000.0, 8)
        assert min(d4, d8) <= d6 <= max(d4, d8)

    def test_saturated_total_near_peak(self, cal):
        """At heavy serial traffic, predicted total achieved traffic for 12
        threads should sit near the machine's peak bandwidth."""
        total = 12 * cal.predict_per_thread_traffic(4000.0, 12)
        peak_mbs = M.dram_peak_bytes_per_sec / 1e6
        assert total == pytest.approx(peak_mbs, rel=0.35)


class TestPhiPredictions:
    def test_stall_grows_as_per_thread_traffic_falls(self, cal):
        low = cal.predict_stall(800.0)
        high = cal.predict_stall(4000.0)
        assert low > high

    def test_floor_is_base_stall(self, cal):
        assert cal.predict_stall(1e9) == M.base_miss_stall
        assert cal.predict_stall(0.0) == M.base_miss_stall

    def test_phi_formula_renders(self, cal):
        assert "omega_t" in cal.phi.formula()


class TestFitObjects:
    def test_psifit_linear_eval(self):
        fit = PsiFit(n_threads=2, form="linear", a=2.0, b=100.0)
        assert fit.total_traffic(1000.0) == pytest.approx(2100.0)
        assert fit.per_thread(1000.0) == pytest.approx(1000.0)  # clamped to demand

    def test_psifit_log_eval(self):
        import math

        fit = PsiFit(n_threads=4, form="log", a=1000.0, b=0.0)
        assert fit.total_traffic(math.e**2) == pytest.approx(2000.0)

    def test_phifit_eval(self):
        fit = PhiFit(a=1e5, b=-1.0, floor=30.0)
        assert fit.stall_per_miss(1000.0) == pytest.approx(100.0)
        assert fit.stall_per_miss(1e9) == 30.0  # floored


# ---------------------------------------------------- closed form vs DES


@pytest.fixture
def fresh_metrics():
    mine = MetricsRegistry()
    old = set_metrics(mine)
    try:
        yield mine
    finally:
        set_metrics(old)


@pytest.fixture
def des_only(monkeypatch):
    """Calibrate with every probe run on the DES kernel."""
    monkeypatch.setattr(microbench, "_closed_form_applies", lambda machine, t: False)


@st.composite
def machines_and_probes(draw):
    n_cores = draw(st.integers(min_value=2, max_value=24))
    n_sockets = draw(st.sampled_from([s for s in (1, 2) if n_cores % s == 0]))
    machine = MachineConfig(
        n_cores=n_cores,
        n_sockets=n_sockets,
        dram_peak_gbs=draw(st.floats(min_value=2.0, max_value=64.0)),
        dram_queue_gain=draw(st.floats(min_value=0.0, max_value=2.0)),
        base_miss_stall=draw(st.floats(min_value=5.0, max_value=200.0)),
    )
    probes = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=n_cores),
                st.floats(min_value=5e-4, max_value=0.12),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return machine, probes


class TestClosedFormParity:
    @given(machines_and_probes())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_samples_match_des_probe(self, case):
        """Every closed-form sample field within 1e-12 of the DES run, on
        any socket layout, bandwidth and queueing gain."""
        machine, probes = case
        got = _closed_form_probes(machine, probes, INSTRUCTIONS)
        for (t, mpi), sample in zip(probes, got):
            want = _run_probe(machine, t, mpi, INSTRUCTIONS)
            assert (sample.n_threads, sample.mpi) == (t, mpi)
            for name in _SAMPLE_FIELDS:
                assert getattr(sample, name) == pytest.approx(
                    getattr(want, name), rel=1e-12, abs=0.0
                ), (t, mpi, name)

    @pytest.mark.parametrize(
        "machine",
        [MachineConfig(n_cores=12), MachineConfig(n_cores=12, n_sockets=2)],
        ids=["uma", "numa"],
    )
    def test_fits_match_des_only_calibration(self, machine, monkeypatch):
        fast = calibrate_memory_model(machine, thread_counts=(2, 4, 8, 12))
        monkeypatch.setattr(
            microbench, "_closed_form_applies", lambda machine, t: False
        )
        slow = calibrate_memory_model(machine, thread_counts=(2, 4, 8, 12))
        close = dict(rel=1e-9, abs=1e-9)
        for t, fit in slow.psi.items():
            assert fast.psi[t].form == fit.form
            assert fast.psi[t].a == pytest.approx(fit.a, **close)
            assert fast.psi[t].b == pytest.approx(fit.b, **close)
        assert fast.phi.a == pytest.approx(slow.phi.a, **close)
        assert fast.phi.b == pytest.approx(slow.phi.b, **close)

    def test_oversubscribed_lanes_run_on_des(self, fresh_metrics):
        """t > n_cores queues threads for cores: those probes, and only
        those, are answered by the DES kernel."""
        machine = MachineConfig(n_cores=4)
        cal = calibrate_memory_model(machine, thread_counts=(2, 4, 6))
        assert fresh_metrics.counter_value("microbench.probes.des") == 18
        assert fresh_metrics.counter_value("microbench.probes.closed_form") == 54
        for sample in cal.samples:
            if sample.n_threads == 6:
                assert sample == _run_probe(machine, 6, sample.mpi, INSTRUCTIONS)

    def test_switch_cost_disables_closed_form(self, fresh_metrics):
        """A context-switch cost lands on the probe that takes over the
        spawning thread's core: every probe goes to the DES kernel."""
        machine = MachineConfig(n_cores=4, context_switch_cycles=5000.0)
        calibrate_memory_model(machine, thread_counts=(2, 4))
        assert fresh_metrics.counter_value("microbench.probes.closed_form") == 0
        assert fresh_metrics.counter_value("microbench.probes.des") == 54


class TestCalibrationCounters:
    def test_full_grid_is_all_closed_form(self, fresh_metrics):
        """12 cores, threads 2..12: 18 MPI points x (1 + 11) probes."""
        calibrate_memory_model(M, thread_counts=range(2, 13))
        assert fresh_metrics.counter_value("microbench.probes.closed_form") == 216
        assert fresh_metrics.counter_value("microbench.probes.des") == 0
        assert fresh_metrics.counter_value("memmodel.calibrations") == 1

    def test_calibrations_counted_once_per_run(self, fresh_metrics, des_only):
        calibrate_memory_model(M, thread_counts=(2, 12))
        assert fresh_metrics.counter_value("memmodel.calibrations") == 1

    def test_bisections_count_saturated_lanes(self, fresh_metrics):
        machine = MachineConfig(n_cores=8, n_sockets=2)
        cal = calibrate_memory_model(machine, thread_counts=(2, 8))
        got = fresh_metrics.counter_value("dram.solve.bisections")
        # One scalar solve per (probe, occupied socket) lane, uncached.
        scalar = MetricsRegistry()
        old = set_metrics(scalar)
        try:
            for s in cal.samples:
                misses = INSTRUCTIONS * s.mpi
                base = INSTRUCTIONS + misses * machine.base_miss_stall
                demand = SegmentDemand(*segment_rates(machine, base, misses))
                sockets = Counter(machine.socket_of(c) for c in range(s.n_threads))
                for count in sockets.values():
                    DramModel(
                        machine,
                        peak_bytes_per_sec=machine.dram_peak_bytes_per_sec_per_socket,
                        cache_size=0,
                    ).stall_multiplier([demand] * count)
        finally:
            set_metrics(old)
        assert got > 0
        assert got == scalar.counter_value("dram.solve.bisections")


class TestVerifyCalibration:
    @pytest.fixture(scope="class")
    def small(self):
        return calibrate_memory_model(
            MachineConfig(n_cores=6, n_sockets=2), thread_counts=(2, 4, 6)
        )

    def test_quick_samples_one_two_and_all_cores(self, small):
        checked, mismatches = verify_calibration(small, quick=True)
        assert (checked, mismatches) == (18 * 3, [])

    def test_full_checks_every_probe(self, small):
        checked, mismatches = verify_calibration(small)
        assert (checked, mismatches) == (len(small.samples), [])

    def test_reports_a_corrupted_sample(self, small):
        samples = list(small.samples)
        i = next(j for j, s in enumerate(samples) if s.n_threads == 6)
        samples[i] = dataclasses.replace(
            samples[i], stall_per_miss=samples[i].stall_per_miss * (1 + 1e-6)
        )
        bad = dataclasses.replace(small, samples=samples)
        checked, mismatches = verify_calibration(bad, quick=True)
        assert checked == 18 * 3
        assert len(mismatches) == 1 and "stall_per_miss" in mismatches[0]
