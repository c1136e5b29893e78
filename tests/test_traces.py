import hashlib
import math
import re
import shutil

import numpy as np
import pytest

from storefleet import engine, traces
from storefleet.fleet import StoreSpec
from storefleet.policies import Policy
from storefleet.traces import (
    DegenerateInput,
    InsufficientData,
    InvalidParams,
    NonFiniteValue,
    ParseError,
    ResidualTrace,
    SchemaError,
    SynthParams,
    load_csv,
    scale_to_overcapacity,
    synthesize,
    trace_stats,
    write_csv,
)


class TestLoadCsv:
    def test_residual_schema(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("residual_mw\n1\n-2\n3\n")
        trace = load_csv(path)
        assert trace.values_mw.tolist() == [1.0, -2.0, 3.0]

    def test_component_schema(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("demand_mw,wind_mw,solar_mw\n10,6,2\n")
        trace = load_csv(path)
        assert trace.values_mw.tolist() == [-2.0]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # A spreadsheet's "CSV UTF-8" export starts with EF BB BF.
        residual, components = tmp_path / "r.csv", tmp_path / "c.csv"
        residual.write_bytes(b"\xef\xbb\xbfresidual_mw\n1\n-2\n")
        components.write_bytes(b"\xef\xbb\xbfdemand_mw,wind_mw,solar_mw\n10,6,2\n")
        assert load_csv(residual).values_mw.tolist() == [1.0, -2.0]
        assert load_csv(components).values_mw.tolist() == [-2.0]
        demand, generation = traces.load_components(components)
        assert demand.tolist() == [10.0] and generation.tolist() == [8.0]

    def test_nan_rejected_with_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("residual_mw\n1\nnan\n")
        with pytest.raises(NonFiniteValue) as err:
            load_csv(path)
        assert err.value.line == 3

    def test_junk_rejected_with_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("residual_mw\n1\npotato\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "content,line",
        [
            (b"residual_mw\n-1.0\n\xff\xfe\n2.0\n", 3),
            (b"resid\xffual_mw\n1.0\n", 1),
            # Past the text layer's first block, so the row loop meets it.
            (b"residual_mw\n" + b"-1.0\n" * 5000 + b"2.0\xe9\n", 5002),
        ],
        ids=["row", "header", "late-row"],
    )
    def test_bytes_that_are_not_utf8_rejected_with_line(self, tmp_path, content, line):
        path = tmp_path / "t.csv"
        path.write_bytes(content)
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.line == line
        assert f"t.csv:{line}: bytes that are not UTF-8 text" in str(err.value)

    def test_unknown_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("power\n1\n")
        with pytest.raises(SchemaError):
            load_csv(path)

    @pytest.mark.parametrize("header,row,repeated", [
        ("residual_mw,residual_mw", "1,2", "['residual_mw']"),
        ("demand_mw,wind_mw,solar_mw,demand_mw", "10,6,2,11", "['demand_mw']"),
        ("solar_mw,wind_mw,demand_mw,wind_mw,solar_mw", "1,2,3,4,5", "['wind_mw', 'solar_mw']"),
    ], ids=["residual", "components", "two-columns"])
    def test_a_column_the_schema_reads_named_twice_is_rejected(self, tmp_path, header, row, repeated):
        # Reading either copy would silently drop the other one's values.
        path = tmp_path / "t.csv"
        path.write_text(f"{header}\n{row}\n")
        with pytest.raises(SchemaError, match=f"names {re.escape(repeated)} more than once"):
            load_csv(path)

    def test_load_components_rejects_a_repeated_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("demand_mw,wind_mw,solar_mw,demand_mw\n10,6,2,11\n")
        with pytest.raises(SchemaError, match=r"names \['demand_mw'\] more than once"):
            traces.load_components(path)

    def test_a_repeated_column_the_schema_does_not_read_is_allowed(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("note,residual_mw,note\na,1,b\n")
        assert load_csv(path).values_mw.tolist() == [1.0]

    def test_no_rows_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("residual_mw\n")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_round_trip_is_identity(self, tmp_path):
        values = np.random.default_rng(3).uniform(-1e4, 1e4, 50)
        trace = ResidualTrace.from_values(values)
        path = tmp_path / "t.csv"
        write_csv(trace, path)
        again = load_csv(path)
        assert np.array_equal(again.values_mw, trace.values_mw)


class TestScaleToOvercapacity:
    def test_gb_scale_mean(self):
        rng = np.random.default_rng(5)
        demand = 68600.0 * (1.0 + 0.1 * rng.standard_normal(5000))
        generation = rng.uniform(1.0, 2.0, 5000)
        trace = scale_to_overcapacity(demand, generation, 0.30)
        assert np.mean(trace.values_mw) == pytest.approx(0.30 * np.mean(demand), rel=1e-9)
        assert np.mean(trace.values_mw) / 1e3 == pytest.approx(20.58, rel=1e-2)

    def test_zero_overcapacity_balances(self):
        demand = np.array([10.0, 20.0, 30.0])
        generation = np.array([5.0, 5.0, 20.0])
        trace = scale_to_overcapacity(demand, generation, 0.0)
        assert np.mean(trace.values_mw) == pytest.approx(0.0, abs=1e-12)

    def test_proportional_case(self):
        demand = np.array([4.0, 8.0])
        trace = scale_to_overcapacity(demand, demand, 0.25)
        assert trace.values_mw.tolist() == pytest.approx((0.25 * demand).tolist())

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInput):
            scale_to_overcapacity([0.0, 0.0], [1.0, 1.0], 0.3)
        with pytest.raises(DegenerateInput):
            scale_to_overcapacity([1.0, 1.0], [-1.0, -1.0], 0.3)

    def test_series_of_different_lengths_rejected(self):
        with pytest.raises(DegenerateInput, match="must have equal length"):
            scale_to_overcapacity([1.0, 2.0, 3.0], [1.0, 2.0], 0.3)


class TestSynthesize:
    def test_same_seed_bit_identical(self):
        params = SynthParams(years=0.1, seed=99)
        d1, g1 = synthesize(params)
        d2, g2 = synthesize(params)
        assert np.array_equal(d1, d2)
        assert np.array_equal(g1, g2)

    def test_different_seed_differs(self):
        d1, g1 = synthesize(SynthParams(years=0.1, seed=1))
        d2, g2 = synthesize(SynthParams(years=0.1, seed=2))
        assert not np.array_equal(g1, g2)
        assert np.array_equal(d1, d2)  # demand carries no noise

    def test_flat_params_give_constant_demand_periodic_generation(self):
        params = SynthParams(
            years=0.05, seed=0, diurnal_amp=0.0, seasonal_amp=0.0, weekly_amp=0.0, noise_sd=0.0
        )
        demand, generation = synthesize(params)
        assert np.all(demand == params.base_demand_mw)
        # Daily cycle repeats up to the slow seasonal solar envelope.
        day = generation[:24]
        later = generation[24:48]
        assert day == pytest.approx(later, rel=2e-2)
        assert generation.std() > 0.0  # solar diurnal cycle

    def test_lengths_exact(self):
        demand, generation = synthesize(SynthParams(years=2.0, seed=0))
        assert len(demand) == len(generation) == 2 * 8760

    def test_default_year_has_skewed_persistent_residual(self):
        demand, generation = synthesize(SynthParams(years=1.0, seed=42))
        trace = scale_to_overcapacity(demand, generation, 0.3)
        assert trace.values_mw.min() < 0.0 < trace.values_mw.max()
        stats = trace_stats(trace, bins=50, lags=[0, 1])
        assert stats.acf[1] > 0.5

    def test_invalid_params_rejected(self):
        with pytest.raises(InvalidParams):
            synthesize(SynthParams(years=0.0))
        with pytest.raises(InvalidParams):
            synthesize(SynthParams(solar_share=1.5))
        with pytest.raises(InvalidParams):
            synthesize(SynthParams(ar_coeff=1.0))
        with pytest.raises(InvalidParams):
            synthesize(SynthParams(noise_sd=-0.1))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("years", "x"), ("years", None), ("years", math.inf), ("years", 1e-5),
            ("years", True), ("seed", 1.5), ("seed", -1), ("seed", True), ("seed", "1"),
            ("noise_sd", "x"), ("noise_sd", math.nan), ("base_demand_mw", [1000.0]),
            ("base_demand_mw", 0.0), ("diurnal_amp", -0.1), ("weekly_amp", -math.inf),
            ("ar_coeff", -1.0), ("solar_share", 1.5), ("years", 1e305), ("years", 1000.5),
        ],
    )
    def test_bad_field_rejected_at_construction(self, field, value):
        # SynthParams checks its own fields; synthesize is never reached.
        with pytest.raises(InvalidParams):
            SynthParams(**{field: value})

    def test_longest_trace_accepted(self):
        assert SynthParams(years=1000.0).years == 1000.0

    # sha256 of the (demand, generation) bytes, recorded before the AR(1)
    # wind loop stepped over Python floats instead of numpy scalars, before
    # it ran in the compiled module, and before its normal draws did.
    _GOLDEN_DIGESTS = [
        (7, 0.0, "cce42874dca0574ffd6df4b906ca9618e49d1a63f80791d23415f4236d84d8c4"),
        (11, 0.35, "c261da8978392d724c819089bf849215313b6bae24c1757caf654049d57e2429"),
    ]

    @staticmethod
    def _digest(seed, solar_share):
        demand, generation = synthesize(SynthParams(years=0.5, seed=seed, solar_share=solar_share))
        return hashlib.sha256(demand.tobytes() + generation.tobytes()).hexdigest()

    @pytest.mark.parametrize("seed,solar_share,digest", _GOLDEN_DIGESTS)
    def test_series_match_golden_digest(self, seed, solar_share, digest):
        assert self._digest(seed, solar_share) == digest

    @pytest.mark.parametrize("seed,solar_share,digest", _GOLDEN_DIGESTS)
    def test_series_match_golden_digest_without_the_compiled_module(
        self, monkeypatch, seed, solar_share, digest
    ):
        # The loader returning None, as it does without gcc: traces._ar1 runs.
        monkeypatch.setattr(traces, "_load_hourloop", lambda: None)
        assert self._digest(seed, solar_share) == digest

    def test_compiled_path_runs_no_python_loop(self, monkeypatch):
        def never(*args):
            raise AssertionError("ran a Python path with the compiled module loaded")

        lib = engine._load_hourloop()
        if lib is None:
            pytest.skip("the compiled module cannot be built here")
        monkeypatch.setattr(traces, "_ar1", never)
        if _draws_in_c(lib):
            monkeypatch.setattr(np.random, "default_rng", never)
        demand, generation = synthesize(SynthParams(years=0.01, seed=3))
        assert len(generation) == 88

    @pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc to build the compiled module")
    def test_without_numpys_sampler_archive_numpy_random_draws(self, monkeypatch, tmp_path):
        # An install whose numpy ships no libnpyrandom.a: the library is
        # still built, with a normal_draws that declines every call.
        monkeypatch.setattr(engine, "_hourloop", engine._UNLOADED)
        monkeypatch.setattr(engine, "_HOURLOOP_CACHE", str(tmp_path / "cache"))
        monkeypatch.setattr(engine, "_NPYRANDOM_ARCHIVE", str(tmp_path / "libnpyrandom.a"))
        lib = engine._load_hourloop()
        assert lib is not None and not _draws_in_c(lib)
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_step_python", None)  # simulate_hours steps the run
            result = engine.simulate([StoreSpec("s", 5.0, 2.0, 2.0, 0.8)], [3.0, -4.0], Policy.ggddf())
            assert result.total_unserved_mwh == 2.0
        seeds = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: seeds.append(seed) or default_rng(seed))
        for seed, solar_share, digest in self._GOLDEN_DIGESTS:
            assert self._digest(seed, solar_share) == digest
        assert seeds == [7, 11]

    def test_good_fields_accepted(self):
        params = SynthParams(years=1, seed=np.int64(3), base_demand_mw=10, noise_sd=0,
                             solar_share=1, ar_coeff=-0.5, diurnal_amp=0)
        demand, generation = synthesize(params)
        assert len(demand) == len(generation) == 8760

    @pytest.mark.parametrize("years", [14 / 8760, 0.01, 0.1, 0.5, 1.0, 10.0])
    def test_cosines_match_their_direct_formulas(self, years):
        params = SynthParams(years=years, seed=5, solar_share=1.0)
        demand, generation = _expressions(params)
        assert _series_bytes(params) == (demand.tobytes(), generation.tobytes())


def _expressions(params):
    """synthesize's (demand, generation) as whole-array numpy expressions.

    The five cosines are each computed at its own phase, where synthesize
    takes daylight and summer as slices of the diurnal and seasonal ones,
    and the wind noise is numpy.random's draws stepped by traces._ar1.
    """
    n = int(round(params.years * 8760))
    h = np.arange(n, dtype=float)
    two_pi = 2.0 * math.pi
    eps = np.random.default_rng(params.seed).standard_normal(n)
    a = params.ar_coeff
    stationary_sd = params.noise_sd / math.sqrt(1.0 - a * a) if params.noise_sd > 0.0 else 0.0
    x0 = float(stationary_sd) * float(eps[0])
    wind = np.maximum(1.0 + np.fromiter(traces._ar1(eps, a, params.noise_sd, x0), float, n), 0.0)
    demand = params.base_demand_mw * (
        1.0
        + params.diurnal_amp * np.cos(two_pi * (h - 18.0) / 24.0)
        + params.weekly_amp * np.cos(two_pi * h / 168.0)
        + params.seasonal_amp * np.cos(two_pi * (h - 400.0) / 8760)
    )
    daylight = np.maximum(np.cos(two_pi * (h - 13.0) / 24.0) - 0.3, 0.0)
    summer = 1.0 + 0.5 * np.cos(two_pi * (h - 400.0 - 8760 / 2.0) / 8760)
    solar = daylight * summer
    blend = np.zeros(n)
    if params.solar_share < 1.0:
        blend += (1.0 - params.solar_share) * wind / float(np.mean(wind))
    if params.solar_share > 0.0:
        blend += params.solar_share * solar / float(np.mean(solar))
    return demand, params.base_demand_mw * blend


def _series_bytes(params):
    demand, generation = synthesize(params)
    n = int(round(params.years * 8760))
    for series in (demand, generation):
        assert series.shape == (n,) and series.dtype == np.float64
        assert series.flags.owndata and series.flags.c_contiguous
    return demand.tobytes(), generation.tobytes()


def test_library_path_matches_the_path_without_it(monkeypatch):
    # The compiled draws and ar1 against numpy.random and traces._ar1.
    if engine._load_hourloop() is None:
        pytest.skip("the compiled module cannot be built here")
    rng = np.random.default_rng(2903)
    cases = [SynthParams(years=1, seed=3, base_demand_mw=10, noise_sd=0, solar_share=1,
                         ar_coeff=-0.5, diurnal_amp=0),
             SynthParams(years=0.3, seed=4, solar_share=0),
             SynthParams(years=1 / 8760, seed=1, solar_share=0)]
    for _ in range(6):
        cases.append(SynthParams(
            years=float(rng.uniform(0.01, 1.5)), seed=int(rng.integers(0, 2**62)) << 10,
            base_demand_mw=float(rng.uniform(1.0, 5e3)), diurnal_amp=float(rng.uniform(0, 0.5)),
            weekly_amp=float(rng.uniform(0, 0.2)), seasonal_amp=float(rng.uniform(0, 0.4)),
            ar_coeff=float(rng.uniform(-0.99, 0.999)), noise_sd=float(rng.uniform(0, 0.6)),
            solar_share=float(rng.uniform(0, 1))))
    with_library = [_series_bytes(params) for params in cases]
    monkeypatch.setattr(traces, "_load_hourloop", lambda: None)
    assert with_library == [_series_bytes(params) for params in cases]


def test_numpy_scalar_fields_keep_numpys_promotion():
    # numpy scalars in the fields the arithmetic reads round as they do in
    # the expressions.  An np.float64 share, a float, once reached the
    # compiled arithmetic as an np.bool_ flag and failed there.
    for params in (
        SynthParams(years=0.05, seed=8, base_demand_mw=np.int64(900), diurnal_amp=np.float32(0.2),
                    weekly_amp=np.float32(0.07), seasonal_amp=np.float32(0.3),
                    solar_share=np.float32(0.3)),
        SynthParams(years=0.05, seed=9, solar_share=np.float64(0.6)),
    ):
        demand, generation = _expressions(params)
        assert _series_bytes(params) == (demand.tobytes(), generation.tobytes())


def test_a_ten_year_trace_starts_no_thread(monkeypatch):
    import _thread
    import threading

    engine._load_hourloop()  # a build, if one is needed, is not synthesis
    started = []
    start_new_thread, thread_start = _thread.start_new_thread, threading.Thread.start
    monkeypatch.setattr(_thread, "start_new_thread",
                        lambda *args: started.append(args) or start_new_thread(*args))
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or thread_start(self))
    demand, _ = synthesize(SynthParams(years=10.0, seed=29, solar_share=0.35))
    assert len(demand) == 87_600 and started == []


def _draws_in_c(lib) -> bool:
    """Whether the library's build linked numpy's sampler archive."""
    return lib.normal_draws(1, np.zeros(1, dtype=np.uint32).ctypes.data, 0, None) == 0


def test_compiled_normal_draws_match_default_rng_byte_for_byte(monkeypatch):
    lib = engine._load_hourloop()
    if lib is None or not _draws_in_c(lib):
        pytest.skip("the compiled module cannot be built with numpy's sampler here")
    default_rng = np.random.default_rng

    def never(seed):
        raise AssertionError("drew through numpy.random with the sampler linked")

    monkeypatch.setattr(np.random, "default_rng", never)
    for seed in [*range(200), 2**32 - 1, 2**32, 2**64 + 5, 10**300, np.int64(3)]:
        for n in (1, 7, 1000, 87_600):
            expected = default_rng(seed).standard_normal(n)
            assert traces._normal_draws(lib, seed, n).tobytes() == expected.tobytes(), (seed, n)


def test_compiled_ar1_matches_python_loop_bit_for_bit():
    lib = engine._load_hourloop()
    if lib is None:
        pytest.skip("the compiled module cannot be built here")
    rng = np.random.default_rng(1801)
    draws = [(int(rng.integers(1, 2000)), float(rng.uniform(-0.999, 0.999)),
              float(rng.uniform(0.0, 2.0)), float(rng.normal(0.0, 10.0))) for _ in range(200)]
    # One hour, no noise, negative and zero coefficients, a -0.0 start.
    draws += [(1, 0.995, 0.08, 0.3), (1, -0.5, 0.0, -0.0), (500, -0.97, 0.18, 1.25),
              (500, 0.97, 0.0, 2.5), (500, 0.0, 0.3, -0.0), (500, -0.999, 0.0, -7.0)]
    for n, a, sd, x0 in draws:
        eps = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
        got = np.empty(n)
        lib.ar1(n, eps.ctypes.data, a, sd, x0, got.ctypes.data)
        expected = [x.hex() for x in traces._ar1(eps, a, sd, x0)]
        assert [x.hex() for x in got.tolist()] == expected, (n, a, sd, x0)


class TestTraceStats:
    def test_lag_zero_is_one(self):
        trace = ResidualTrace.from_values(np.random.default_rng(7).uniform(-1, 1, 500))
        stats = trace_stats(trace, bins=10, lags=[0, 1, 2])
        assert stats.acf[0] == 1.0

    def test_iid_noise_has_no_lag1_correlation(self):
        trace = ResidualTrace.from_values(np.random.default_rng(11).standard_normal(10_000))
        stats = trace_stats(trace, bins=10, lags=[0, 1])
        assert abs(stats.acf[1]) < 0.05

    def test_constant_trace_rejected(self):
        trace = ResidualTrace.from_values(np.full(100, 3.0))
        with pytest.raises(InsufficientData):
            trace_stats(trace, bins=10, lags=[0, 1])

    def test_lag_beyond_length_rejected(self):
        trace = ResidualTrace.from_values([1.0, 2.0, 3.0])
        with pytest.raises(InsufficientData):
            trace_stats(trace, lags=[0, 3])

    def test_histogram_counts_everything(self):
        values = np.random.default_rng(13).uniform(-5, 5, 1000)
        stats = trace_stats(ResidualTrace.from_values(values), bins=20, lags=[0])
        assert stats.bin_counts.sum() == 1000
        assert len(stats.bin_edges) == 21


class TestResidualTrace:
    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(Exception):
            ResidualTrace.from_values([])
        with pytest.raises(NonFiniteValue):
            ResidualTrace.from_values([1.0, np.inf])
