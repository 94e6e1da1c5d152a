"""Unit coverage for the streaming workload generators and chunk protocol.

Pins the demand shapes the property suite takes for granted: Zipf
exponent and popularity moments, diurnal phase boundaries, flash-crowd
spike placement, shuffled-popularity permutation determinism, and
trace-file streaming with ``load_trace_csv``-matching skip counts.
Also covers per-lane demand, the canned-scenario bridge, the
:class:`RequestChunk` container, the engines' stream validation, and
the live-status stream block.
"""

import json

import numpy as np
import pytest

from repro.content.timeliness import TimelinessModel
from repro.content.trace import load_trace_csv, trace_to_popularity
from repro.serve.engine import ServingEngine
from repro.serve.net.engine import NetworkReplayEngine
from repro.serve.stream import (
    DiurnalStream,
    FixedPopularityStream,
    FlashCrowdStream,
    LanePopularityStream,
    RequestChunk,
    STREAM_WORKLOADS,
    ShuffledZipfStream,
    TraceStream,
    ZipfStream,
    concat_chunks,
    make_stream,
    stream_workload,
    workload_stream,
)

GEOMETRY = dict(n_edps=2, n_slots=12, dt=0.5, rate_per_edp=20.0, seed=3)


class TestZipfStream:
    def test_popularity_follows_rank_power_law(self):
        stream = ZipfStream(n_catalog=8, alpha=1.3, **GEOMETRY)
        pop = np.asarray(stream.popularity)
        ranks = np.arange(1, 9, dtype=float)
        expected = ranks**-1.3 / (ranks**-1.3).sum()
        np.testing.assert_allclose(pop, expected, rtol=1e-12)
        assert pop.sum() == pytest.approx(1.0)
        assert np.all(np.diff(pop) < 0)  # strictly rank-decreasing

    def test_alpha_steepens_the_head(self):
        flat = ZipfStream(n_catalog=8, alpha=0.5, **GEOMETRY)
        steep = ZipfStream(n_catalog=8, alpha=2.0, **GEOMETRY)
        assert steep.popularity[0] > flat.popularity[0]
        assert steep.popularity[-1] < flat.popularity[-1]

    def test_empirical_request_moments_match_intensities(self):
        # Means over many slots converge on the per-slot Poisson
        # intensities (deterministic given the seed, so exact bounds).
        stream = ZipfStream(
            n_catalog=6, alpha=1.0, n_edps=1, n_slots=400, dt=0.5,
            rate_per_edp=40.0, seed=9,
        )
        counts = stream.materialize(0).counts
        empirical = counts.mean(axis=0)
        np.testing.assert_allclose(empirical, stream.intensities(0), rtol=0.1)
        total = counts.sum()
        assert total == pytest.approx(stream.expected_measured_requests(), rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one content"):
            ZipfStream(n_catalog=0, **GEOMETRY)
        with pytest.raises(ValueError, match="exponent must be positive"):
            ZipfStream(n_catalog=4, alpha=0.0, **GEOMETRY)


class TestShuffledZipfStream:
    def test_permutation_deterministic_per_seed(self):
        kwargs = dict(GEOMETRY, seed=21)
        a = ShuffledZipfStream(n_catalog=12, **kwargs)
        b = ShuffledZipfStream(n_catalog=12, **kwargs)
        assert np.array_equal(a.permutation(), b.permutation())
        assert np.array_equal(a.base_weights(), b.base_weights())

    def test_different_seeds_shuffle_differently(self):
        a = ShuffledZipfStream(n_catalog=12, **dict(GEOMETRY, seed=0))
        b = ShuffledZipfStream(n_catalog=12, **dict(GEOMETRY, seed=1))
        assert not np.array_equal(a.permutation(), b.permutation())

    def test_weights_are_a_permutation_of_zipf(self):
        plain = ZipfStream(n_catalog=12, alpha=1.0, **GEOMETRY)
        shuffled = ShuffledZipfStream(n_catalog=12, alpha=1.0, **GEOMETRY)
        assert np.array_equal(
            np.sort(shuffled.base_weights()), np.sort(plain.base_weights())
        )

    def test_permutation_independent_of_request_draws(self):
        stream = ShuffledZipfStream(n_catalog=12, **GEOMETRY)
        before = stream.permutation()
        stream.materialize(0)
        assert np.array_equal(stream.permutation(), before)


class TestDiurnalStream:
    def make(self, period=8, multipliers=(0.25, 1.0, 1.75, 1.0)):
        return DiurnalStream(
            n_catalog=4,
            period_slots=period,
            phase_multipliers=multipliers,
            n_edps=1, n_slots=32, dt=0.5, rate_per_edp=10.0, seed=0,
        )

    def test_phase_boundaries_land_on_integer_division(self):
        stream = self.make(period=8)  # 4 phases of 2 slots each
        phases = [stream.phase_of(s) for s in range(8)]
        assert phases == [0, 0, 1, 1, 2, 2, 3, 3]
        # The pattern repeats every period.
        assert [stream.phase_of(8 + s) for s in range(8)] == phases

    def test_uneven_split_floors(self):
        # 3 phases over 8 slots: boundaries at floor(s*3/8).
        stream = self.make(period=8, multipliers=(1.0, 2.0, 3.0))
        phases = [stream.phase_of(s) for s in range(8)]
        assert phases == [0, 0, 0, 1, 1, 1, 2, 2]

    def test_rate_multiplier_tracks_phase(self):
        stream = self.make(period=8)
        assert stream.rate_multiplier(0) == 0.25
        assert stream.rate_multiplier(2) == 1.0
        assert stream.rate_multiplier(4) == 1.75
        np.testing.assert_allclose(
            stream.intensities(4), stream.intensities(2) * 1.75
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="period_slots"):
            self.make(period=0)
        with pytest.raises(ValueError, match="phases cannot split"):
            self.make(period=2, multipliers=(1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="at least one phase"):
            self.make(multipliers=())


class TestFlashCrowdStream:
    def make(self, **kw):
        kw.setdefault("spike_content", 2)
        kw.setdefault("spike_slot", 4)
        kw.setdefault("spike_duration", 3)
        kw.setdefault("spike_factor", 10.0)
        kw.setdefault("rate_boost", 2.0)
        return FlashCrowdStream(n_catalog=6, alpha=1.0, **GEOMETRY, **kw)

    def test_spike_window_placement(self):
        stream = self.make()
        assert [stream.in_spike(s) for s in range(12)] == [
            s in (4, 5, 6) for s in range(12)
        ]

    def test_spike_multiplies_only_the_spiking_content(self):
        stream = self.make()
        base = stream.base_weights()
        inside = stream.weights_at(5)
        outside = stream.weights_at(3)
        assert np.array_equal(outside, base)
        assert inside[2] == pytest.approx(base[2] * 10.0)
        mask = np.arange(6) != 2
        assert np.array_equal(inside[mask], base[mask])

    def test_rate_boost_only_in_window(self):
        stream = self.make()
        assert stream.rate_multiplier(4) == 2.0
        assert stream.rate_multiplier(7) == 1.0

    def test_spiking_content_dominates_demand_in_window(self):
        stream = self.make(spike_factor=50.0)
        inside = stream.intensities(5)
        assert inside[2] == max(inside)

    def test_validation(self):
        with pytest.raises(ValueError, match="spike_content"):
            self.make(spike_content=6)
        with pytest.raises(ValueError, match="spike_slot"):
            self.make(spike_slot=12)
        with pytest.raises(ValueError, match="spike_duration"):
            self.make(spike_duration=0)
        with pytest.raises(ValueError, match="spike_factor"):
            self.make(spike_factor=0.5)


TRACE_CSV = """video_id,category_id,views,tags,receiver
v1,Music,1000,a|b,0
v2,Gaming,600,,1
v3,,300,,0
v4,Music,not-a-number,,1
v5,Sports,400,,nope
v6,Gaming,200,,
"""


class TestTraceStream:
    @pytest.fixture
    def trace_path(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(TRACE_CSV)
        return path

    def test_skip_counts_match_load_trace_csv(self, trace_path):
        oracle = load_trace_csv(trace_path)
        stream = TraceStream.from_csv(trace_path, **GEOMETRY)
        # v3 (missing category), v4 (non-numeric views), v5 (malformed
        # receiver) are skipped; only v5 counts as a receiver skip.
        assert oracle.skipped_rows == 3
        assert oracle.skipped_receivers == 1
        assert stream.skipped_rows == oracle.skipped_rows
        assert stream.skipped_receivers == oracle.skipped_receivers

    def test_shares_match_trace_to_popularity(self, trace_path):
        oracle = load_trace_csv(trace_path)
        labels, shares = trace_to_popularity(oracle)
        stream = TraceStream.from_csv(trace_path, **GEOMETRY)
        assert stream.labels == tuple(labels)
        np.testing.assert_allclose(stream.base_weights(), shares)
        # Music 1000, Gaming 800, then the truncated catalog.
        assert stream.labels[0] == "Music"

    def test_n_contents_truncates_the_catalog(self, trace_path):
        stream = TraceStream.from_csv(trace_path, n_contents=1, **GEOMETRY)
        assert stream.n_contents == 1
        assert stream.labels == ("Music",)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TraceStream.from_csv(tmp_path / "absent.csv", **GEOMETRY)

    def test_stream_workload_reuses_trace_labels(self, trace_path):
        stream = TraceStream.from_csv(trace_path, **GEOMETRY)
        workload = stream_workload(stream)
        assert [c.name for c in workload.catalog] == list(stream.labels)


class TestRequestChunk:
    def chunk(self):
        stream = ZipfStream(n_catalog=4, **GEOMETRY)
        return stream.chunk(0, 1, 4)

    def test_geometry(self):
        chunk = self.chunk()
        assert chunk.start_slot == 4
        assert chunk.n_slots == 4
        assert chunk.n_contents == 4
        assert chunk.n_requests == int(chunk.counts.sum())
        assert len(chunk.timeliness) == chunk.n_requests

    def test_offsets_partition_the_draws(self):
        chunk = self.chunk()
        offs = chunk.offsets()
        assert offs[0] == 0 and offs[-1] == chunk.n_requests
        assert np.all(np.diff(offs) == chunk.counts.reshape(-1))

    def test_timeliness_for_matches_offsets(self):
        chunk = self.chunk()
        offs = chunk.offsets()
        k = chunk.n_contents
        for s in range(chunk.n_slots):
            for c in range(k):
                cell = chunk.timeliness_for(s, c)
                assert np.array_equal(
                    cell, chunk.timeliness[offs[s * k + c]:offs[s * k + c + 1]]
                )
                assert len(cell) == chunk.counts[s, c]

    def test_validation(self):
        with pytest.raises(ValueError, match="n_slots, n_contents"):
            RequestChunk(
                edp=0, start_slot=0, dt=1.0,
                counts=np.zeros(3, dtype=np.int64),
                timeliness=np.empty(0),
            )
        with pytest.raises(ValueError, match="timeliness draws"):
            RequestChunk(
                edp=0, start_slot=0, dt=1.0,
                counts=np.ones((2, 2), dtype=np.int64),
                timeliness=np.empty(3),
            )

    def test_concat_rejects_gaps_and_mixed_edps(self):
        stream = ZipfStream(n_catalog=4, **GEOMETRY)
        chunks = list(stream.iter_chunks(0, 4))
        with pytest.raises(ValueError, match="not consecutive"):
            concat_chunks([chunks[0], chunks[2]])
        with pytest.raises(ValueError, match="different EDPs"):
            concat_chunks([chunks[0], stream.chunk(1, 1, 4)])
        with pytest.raises(ValueError, match="no chunks"):
            concat_chunks([])


class TestLanePopularityStream:
    def make(self, lane_shares=np.array([[1.0, 0.0], [0.0, 3.0]])):
        return LanePopularityStream(
            shares=(0.5, 0.5),
            lane_shares=lane_shares,
            **dict(GEOMETRY, n_edps=4),
        )

    def test_lane_draws_from_its_row(self):
        stream = self.make()
        for edp in range(stream.n_edps):
            counts = stream.materialize(edp).counts
            row = edp % 2
            assert counts[:, 1 - row].sum() == 0
            assert counts[:, row].sum() > 0

    def test_global_shares_are_what_policies_see(self):
        stream = self.make()
        assert stream.popularity == (0.5, 0.5)
        assert stream.lane_shares == ((1.0, 0.0), (0.0, 3.0))

    def test_validation(self):
        with pytest.raises(ValueError, match="lane_shares shape"):
            self.make(lane_shares=np.ones((2, 3)))
        with pytest.raises(ValueError, match="positive mass"):
            self.make(lane_shares=((0.0, 0.0),))


class TestWorkloadStream:
    def test_replays_the_scenario_demand(self):
        from repro.content.workloads import video_marketplace

        workload = video_marketplace(n_contents=5, seed=2)
        stream = workload_stream(workload, n_edps=3, n_slots=8, dt=0.125)
        np.testing.assert_allclose(
            stream.popularity, workload.popularity / workload.popularity.sum()
        )
        assert stream.timeliness is workload.timeliness_model
        assert stream.rate_per_edp == workload.requests.rate_per_edp
        override = workload_stream(
            workload, n_edps=3, n_slots=8, dt=0.125, rate_per_edp=7.0
        )
        assert override.rate_per_edp == 7.0


class TestMakeStream:
    def test_dispatch_covers_the_workload_catalog(self):
        for kind in STREAM_WORKLOADS:
            if kind == "trace":
                continue
            stream = make_stream(kind, n_contents=6, **GEOMETRY)
            assert stream.n_contents == 6

    def test_aliases(self):
        assert isinstance(
            make_stream("shuffled", **GEOMETRY), ShuffledZipfStream
        )
        assert isinstance(make_stream("flash", **GEOMETRY), FlashCrowdStream)

    def test_flash_spike_defaults_to_quarter_horizon(self):
        stream = make_stream("flash-crowd", **GEOMETRY)
        assert stream.spike_slot == GEOMETRY["n_slots"] // 4

    def test_fixed_needs_shares(self):
        with pytest.raises(ValueError, match="needs explicit shares"):
            make_stream("fixed", **GEOMETRY)
        stream = make_stream("fixed", shares=(2.0, 1.0), **GEOMETRY)
        assert isinstance(stream, FixedPopularityStream)

    def test_trace_needs_path(self):
        with pytest.raises(ValueError, match="needs a trace file"):
            make_stream("trace", **GEOMETRY)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown streaming workload"):
            make_stream("bogus", **GEOMETRY)

    def test_timeliness_threads_through(self):
        law = TimelinessModel(l_max=2.0)
        stream = make_stream("zipf", timeliness=law, **GEOMETRY)
        assert stream.timeliness is law


class TestWarmupAndValidation:
    def test_warmup_bounds(self):
        with pytest.raises(ValueError, match="warmup_slots"):
            ZipfStream(n_catalog=4, **dict(GEOMETRY, seed=0), warmup_slots=12)
        stream = ZipfStream(n_catalog=4, **GEOMETRY, warmup_slots=3)
        assert stream.measured_slots == 9

    def test_warmup_leaves_the_trace_unchanged(self):
        plain = ZipfStream(n_catalog=4, **GEOMETRY)
        warm = ZipfStream(n_catalog=4, **GEOMETRY, warmup_slots=4)
        assert_identical = (
            plain.materialize(0).counts.tobytes()
            == warm.materialize(0).counts.tobytes()
        )
        assert assert_identical

    def test_chunk_index_range(self):
        stream = ZipfStream(n_catalog=4, **GEOMETRY)
        with pytest.raises(ValueError, match="chunk_slots"):
            stream.chunk(0, 0, 0)
        with pytest.raises(IndexError, match="chunk"):
            stream.chunk(0, 99, 4)
        with pytest.raises(IndexError, match="EDP"):
            stream.chunk(5, 0, 4)


class TestEngineStreamValidation:
    def make_stream(self, n_edps=4, n_contents=6):
        return ZipfStream(
            n_catalog=n_contents,
            **dict(GEOMETRY, n_edps=n_edps),
        )

    def test_edp_count_must_match(self):
        stream = self.make_stream(n_edps=4)
        with pytest.raises(ValueError, match="covers 4 EDPs"):
            ServingEngine(stream_workload(stream), 8, stream=stream)

    def test_catalog_must_match(self):
        stream = self.make_stream()
        other = stream_workload(self.make_stream(n_contents=3))
        with pytest.raises(ValueError, match="does not match"):
            ServingEngine(other, 4, stream=stream, capacity_fraction=1.0)

    def test_negative_chunk_rejected(self):
        stream = self.make_stream()
        with pytest.raises(ValueError, match="stream_chunk"):
            ServingEngine(
                stream_workload(stream), 4, stream=stream, stream_chunk=-1
            )

    def test_net_engine_lane_count_must_match(self):
        stream = ZipfStream(
            n_catalog=6, n_edps=3, n_slots=12, dt=0.5,
            rate_per_edp=20.0, seed=3,
        )
        with pytest.raises(ValueError, match="lanes"):
            NetworkReplayEngine(
                stream_workload(stream), "path:4",
                n_replicas=2, stream=stream, capacity_fraction=1.0,
            )


class TestLiveStreamStatus:
    def test_snapshot_carries_stream_block(self, tmp_path):
        from repro.obs.live import LiveStatusWriter

        path = tmp_path / "status.json"
        live = LiveStatusWriter(path, every=1)
        live.set_phase("serve:lru", total_items=2)
        live.set_stream(
            workload="ZipfStream",
            chunk_slots=8,
            n_chunks=4,
            expected_requests=1000.0,
        )
        live.note_requests(250, hits=100, latency_s=1.0)
        live.write(force=True)
        payload = json.loads(path.read_text())
        stream = payload["stream"]
        assert stream["workload"] == "ZipfStream"
        assert stream["chunk_slots"] == 8
        assert stream["n_chunks"] == 4
        assert stream["progress"] == pytest.approx(0.25)

    def test_progress_reaches_one_with_warmup(self, tmp_path):
        """Progress counts measured slots only, as the replay folds."""
        from repro.obs import LiveStatusWriter, read_status
        from repro.obs.telemetry import SolverTelemetry

        stream = ZipfStream(n_catalog=4, **GEOMETRY, warmup_slots=6)
        tele = SolverTelemetry.to_jsonl(tmp_path / "run.jsonl")
        tele.set_live(LiveStatusWriter(tmp_path / "status.json", every=1))
        engine = ServingEngine(
            stream_workload(stream), stream.n_edps, stream=stream,
            capacity_fraction=0.5, telemetry=tele,
        )
        report = engine.replay("lru")
        tele.close()
        progress = read_status(tmp_path / "status.json")["stream"]["progress"]
        expected = report.requests / stream.expected_measured_requests()
        assert progress == pytest.approx(min(expected, 1.0), abs=1e-6)
        assert progress > 0.8

    def test_progress_restarts_with_each_replay(self, tmp_path):
        """A comparison's later replays start again from zero progress."""
        from repro.obs.live import LiveStatusWriter

        live = LiveStatusWriter(tmp_path / "status.json", every=1)
        geometry = dict(
            workload="ZipfStream", chunk_slots=8, n_chunks=4,
            expected_requests=1000.0,
        )
        live.set_stream(**geometry)
        live.note_requests(1000, hits=500, latency_s=1.0)
        assert live.snapshot()["stream"]["progress"] == pytest.approx(1.0)
        live.set_stream(**geometry)
        live.note_requests(250, hits=100, latency_s=1.0)
        assert live.snapshot()["stream"]["progress"] == pytest.approx(0.25)

    def test_watch_renders_stream_line(self):
        from repro.obs.watch import render_status

        frame = render_status({
            "state": "running",
            "phase": "serve:lru",
            "elapsed_s": 3.0,
            "items": {"done": 1, "total": 2},
            "stream": {
                "workload": "ZipfStream",
                "chunk_slots": 8,
                "n_chunks": 4,
                "expected_requests": 1000.0,
                "progress": 0.25,
            },
        })
        assert "stream" in frame
        assert "ZipfStream" in frame
        assert "25.0%" in frame
