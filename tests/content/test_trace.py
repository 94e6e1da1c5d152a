"""Tests for the YouTube-style trace generator and loader."""

import numpy as np
import pytest

from repro.content.trace import (
    DEFAULT_CATEGORIES,
    SyntheticYouTubeTrace,
    TraceLoadResult,
    TraceRecord,
    load_trace_csv,
    trace_receiver_popularity,
    trace_to_popularity,
)


def make(n=500, seed=0, **kw):
    return SyntheticYouTubeTrace(n_videos=n, rng=np.random.default_rng(seed), **kw)


class TestSyntheticTrace:
    def test_record_schema(self):
        records = make(n=50).generate()
        assert len(records) == 50
        rec = records[0]
        assert rec.video_id.startswith("vid")
        assert rec.category in DEFAULT_CATEGORIES
        assert rec.views >= 1
        assert rec.likes <= rec.views
        assert rec.comment_count <= rec.views
        assert len(rec.tags) >= 1

    def test_category_shares_sum_to_one(self):
        shares = make().category_shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert len(shares) == len(DEFAULT_CATEGORIES)

    def test_total_views_approximate(self):
        trace = make(n=2000, total_views=1e6, seed=1)
        records = trace.generate()
        total = sum(r.views for r in records)
        # Log-normal noise spreads the total; order of magnitude holds.
        assert 0.3e6 < total < 3e6

    def test_deterministic_for_seed(self):
        r1 = make(n=20, seed=5).generate()
        r2 = make(n=20, seed=5).generate()
        assert [r.views for r in r1] == [r.views for r in r2]

    def test_demand_is_zipf_concentrated(self):
        records = make(n=5000, zipf_exponent=1.2, seed=2).generate()
        _, shares = trace_to_popularity(records)
        # Top category clearly dominates the tail under a steep Zipf.
        assert shares[0] > 3 * shares[-1]

    def test_validation(self):
        with pytest.raises(ValueError, match="n_videos"):
            make(n=0)
        with pytest.raises(ValueError, match="zipf_exponent"):
            make(zipf_exponent=0.0)
        with pytest.raises(ValueError, match="total_views"):
            make(total_views=0.0)
        with pytest.raises(ValueError, match="category"):
            SyntheticYouTubeTrace(n_videos=5, categories=[])


class TestTraceRecord:
    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="non-negative"):
            TraceRecord(
                video_id="x", category="Music", tags=(), views=-1,
                likes=0, comment_count=0, publish_time=0.0,
            )


class TestTraceToPopularity:
    def test_ordering_and_normalisation(self):
        records = [
            TraceRecord("a", "cat1", (), 100, 0, 0, 0.0),
            TraceRecord("b", "cat2", (), 300, 0, 0, 0.0),
            TraceRecord("c", "cat1", (), 50, 0, 0, 0.0),
        ]
        labels, shares = trace_to_popularity(records)
        assert labels == ["cat2", "cat1"]
        assert shares.sum() == pytest.approx(1.0)
        assert shares[0] == pytest.approx(300 / 450)

    def test_truncation(self):
        records = [
            TraceRecord(str(i), f"cat{i}", (), 10 * (i + 1), 0, 0, 0.0)
            for i in range(5)
        ]
        labels, shares = trace_to_popularity(records, n_contents=2)
        assert len(labels) == 2
        assert shares.sum() == pytest.approx(1.0)

    def test_rejects_empty_trace(self):
        with pytest.raises(ValueError, match="no records"):
            trace_to_popularity([])

    def test_rejects_bad_n_contents(self):
        records = [TraceRecord("a", "c", (), 1, 0, 0, 0.0)]
        with pytest.raises(ValueError, match="n_contents"):
            trace_to_popularity(records, n_contents=0)


class TestCSVLoader:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "video_id,category_id,tags,views,likes,comment_count,description\n"
            'v1,10,"music|live",1000,30,5,hello\n'
            "v2,24,,500,10,2,\n"
        )
        records = load_trace_csv(path)
        assert len(records) == 2
        assert records[0].category == "10"
        assert records[0].views == 1000
        assert records[0].tags == ("music", "live")
        assert records[1].tags == ()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace_csv(tmp_path / "absent.csv")

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError, match="category_id"):
            load_trace_csv(path)

    def test_clean_file_skips_nothing(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("video_id,category_id,views\nv1,10,100\n")
        result = load_trace_csv(path)
        assert isinstance(result, TraceLoadResult)
        assert result.skipped_rows == 0

    def test_malformed_rows_skipped_and_counted(self, tmp_path):
        path = tmp_path / "messy.csv"
        path.write_text(
            "video_id,category_id,views\n"
            "v1,10,100\n"           # good
            "v2,24,not-a-number\n"  # non-numeric views
            "v3\n"                  # short row (no category, no views)
            "v4,,50\n"              # empty category
            "v5,17,200\n"           # good
            "v6,10,\n"              # empty views coerces to 0 (kept)
        )
        result = load_trace_csv(path)
        assert isinstance(result, TraceLoadResult)
        assert [r.video_id for r in result] == ["v1", "v5", "v6"]
        assert result.skipped_rows == 3
        assert result[2].views == 0

    def test_result_behaves_like_a_list(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("video_id,category_id,views\nv1,10,100\nv2,24,50\n")
        result = load_trace_csv(path)
        assert len(result) == 2
        assert list(result)[0].category == "10"
        # Downstream consumers (trace_to_popularity) see a plain list.
        labels, _ = trace_to_popularity(result)
        assert set(labels) == {"10", "24"}

    def test_malformed_optional_columns_coerce_to_zero(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "video_id,category_id,views,likes,comment_count\n"
            "v1,10,100,oops,3\n"
        )
        result = load_trace_csv(path)
        assert result.skipped_rows == 0
        assert result[0].likes == 0
        assert result[0].comment_count == 3

    def test_feeds_popularity(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "video_id,category_id,views\nv1,10,100\nv2,24,400\n"
        )
        labels, shares = trace_to_popularity(load_trace_csv(path))
        assert labels == ["24", "10"]
        assert shares[0] == pytest.approx(0.8)


class TestReceiverColumn:
    def test_absent_column_means_unpinned(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("video_id,category_id,views\nv1,10,100\n")
        result = load_trace_csv(path)
        assert result[0].receiver is None
        assert result.skipped_receivers == 0

    def test_receiver_ids_parsed(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "video_id,category_id,views,receiver\n"
            "v1,10,100,0\n"
            "v2,24,50,3\n"
            "v3,10,75,\n"  # empty cell: unpinned, row kept
        )
        result = load_trace_csv(path)
        assert [r.receiver for r in result] == [0, 3, None]
        assert result.skipped_rows == 0
        assert result.skipped_receivers == 0

    def test_malformed_receivers_skipped_and_counted(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "video_id,category_id,views,receiver\n"
            "v1,10,100,2\n"
            "v2,24,50,north\n"   # non-integer: dropped
            "v3,10,75,-1\n"      # negative: dropped
            "v4,24,60,1\n"
        )
        result = load_trace_csv(path)
        assert [r.video_id for r in result] == ["v1", "v4"]
        assert result.skipped_receivers == 2
        assert result.skipped_rows == 2  # receiver skips count as row skips

    def test_other_malformations_not_counted_as_receiver_skips(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "video_id,category_id,views,receiver\n"
            "v1,,100,0\n"        # empty category: a plain row skip
            "v2,10,xyz,1\n"      # bad views: a plain row skip
            "v3,10,50,bogus\n"   # bad receiver
        )
        result = load_trace_csv(path)
        assert result.skipped_rows == 3
        assert result.skipped_receivers == 1

    def test_record_rejects_negative_receiver(self):
        with pytest.raises(ValueError, match="receiver"):
            TraceRecord(
                video_id="v", category="10", tags=(), views=1, likes=0,
                comment_count=0, publish_time=0.0, receiver=-2,
            )


class TestReceiverPopularity:
    def records(self):
        def rec(cat, views, receiver):
            return TraceRecord(
                video_id=f"{cat}-{views}", category=cat, tags=(),
                views=views, likes=0, comment_count=0, publish_time=0.0,
                receiver=receiver,
            )
        return [
            rec("a", 300, 0), rec("b", 100, 0),
            rec("b", 400, 1),
            rec("a", 200, None),  # unpinned: spread uniformly
        ]

    def test_rows_are_distributions(self):
        labels, matrix = trace_receiver_popularity(self.records(), 3)
        assert matrix.shape == (3, len(labels))
        assert np.all(matrix >= 0)
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_pinned_demand_stays_local(self):
        labels, matrix = trace_receiver_popularity(self.records(), 2)
        a, b = labels.index("a"), labels.index("b")
        # Receiver 0 leans a (300 pinned + 100 spread vs 100 b).
        assert matrix[0, a] > matrix[0, b]
        # Receiver 1 leans b (400 pinned vs 100 spread a).
        assert matrix[1, b] > matrix[1, a]

    def test_empty_receiver_falls_back_to_global(self):
        records = [
            TraceRecord(
                video_id="v", category="a", tags=(), views=100, likes=0,
                comment_count=0, publish_time=0.0, receiver=0,
            )
        ]
        labels, matrix = trace_receiver_popularity(records, 3)
        # Receivers 1 and 2 saw nothing pinned or spread... the single
        # record is pinned to 0, so they inherit the global share.
        assert np.allclose(matrix[1], matrix[2])
        assert np.allclose(matrix[1].sum(), 1.0)

    def test_out_of_range_receiver_spreads(self):
        records = [
            TraceRecord(
                video_id="v", category="a", tags=(), views=100, likes=0,
                comment_count=0, publish_time=0.0, receiver=7,
            )
        ]
        _, matrix = trace_receiver_popularity(records, 2)
        assert np.allclose(matrix[0], matrix[1])

    def test_bad_n_receivers_raises(self):
        with pytest.raises(ValueError, match="n_receivers"):
            trace_receiver_popularity(self.records(), 0)

    def test_feeds_network_engine_shape(self):
        from repro.content.workloads import zipf_workload
        from repro.serve import LanePopularityStream
        from repro.serve.net import NetworkReplayEngine, parse_topology

        topo = parse_topology("ring:3")
        labels, matrix = trace_receiver_popularity(
            self.records(), topo.n_receivers
        )
        workload = zipf_workload(n_contents=len(labels), rate_per_edp=20.0)
        stream = LanePopularityStream(
            shares=tuple(workload.popularity),
            lane_shares=matrix,
            n_edps=topo.n_receivers,
            n_slots=25,
            dt=1 / 25,
            rate_per_edp=20.0,
        )
        engine = NetworkReplayEngine(
            workload, topo, n_replicas=1, capacity_fraction=0.6, stream=stream
        )
        report = engine.replay("lce")
        assert report.requests > 0
