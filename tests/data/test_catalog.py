"""Tests for the archive catalog and TFRecord serialization."""

import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data import MerraArchive, TFRecordReader, TFRecordWriter, VolumeExample
from repro.data.catalog import PAPER_FILE_COUNT, PAPER_FULL_BYTES, PAPER_SUBSET_BYTES
from repro.errors import MLError


class TestMerraArchive:
    def test_calendar_exact_count_matches_paper(self):
        """§III-A: 112,249 NetCDF files, 3-hourly, 1980-01-01..2018-05-31."""
        archive = MerraArchive()
        assert len(archive) == PAPER_FILE_COUNT
        assert archive.calendar_exact

    def test_totals_match_paper(self):
        archive = MerraArchive()
        assert archive.total_full_bytes == pytest.approx(PAPER_FULL_BYTES)
        assert archive.total_subset_bytes == pytest.approx(PAPER_SUBSET_BYTES)
        # Per-file sizes sum back to the totals exactly.
        total = sum(g.subset_bytes for g in archive.granules() if g.index < 0)
        assert total == 0  # generator path exercised below at small scale

    def test_small_archive_scales_proportionally(self):
        small = MerraArchive(n_files=1000)
        assert small.total_subset_bytes == pytest.approx(
            PAPER_SUBSET_BYTES * 1000 / PAPER_FILE_COUNT
        )
        total = sum(g.subset_bytes for g in small.granules())
        assert total == pytest.approx(small.total_subset_bytes)

    def test_subset_ratio_matches_paper(self):
        assert MerraArchive(n_files=10).subset_ratio() == pytest.approx(
            246 / 455, rel=1e-6
        )

    def test_timestamps_are_3_hourly(self):
        archive = MerraArchive(n_files=100)
        a, b = archive.granule(0), archive.granule(1)
        assert a.timestamp == datetime.datetime(1980, 1, 1)
        assert (b.timestamp - a.timestamp) == datetime.timedelta(hours=3)

    def test_granule_names_unique(self):
        archive = MerraArchive(n_files=500)
        names = {g.name for g in archive.granules()}
        assert len(names) == 500

    def test_url_contains_collection(self):
        g = MerraArchive(n_files=1).granule(0)
        assert "M2I3NPASM" in g.url()

    def test_names_and_urls_match_strftime_in_any_order(self):
        """The per-day date memo must not leak one day's date into
        another, whatever order granules are asked for in."""
        archive = MerraArchive()
        epoch = datetime.datetime(1980, 1, 1)
        order = [0, 7, 8, 15, 16, 5, 112_248, 9, 8, 56_000, 55_999, 1, 0]
        for index in order:
            g = archive.granule(index)
            ts = epoch + datetime.timedelta(hours=3 * index)
            stamp = ts.strftime("%Y%m%d_%H%M")
            assert g.timestamp == ts
            assert g.stamp == stamp
            assert g.name == f"MERRA2.inst3_3d_asm_Np.{stamp}.nc4"
            assert g.url("dtn") == (
                f"https://dtn/fileServer/MERRA2/M2I3NPASM/{stamp}/{g.name}"
            )

    def test_index_bounds(self):
        archive = MerraArchive(n_files=10)
        with pytest.raises(IndexError):
            archive.granule(10)
        with pytest.raises(IndexError):
            archive.granule(-1)

    def test_deterministic_sizes(self):
        a = MerraArchive(n_files=50, seed=4).granule(7)
        b = MerraArchive(n_files=50, seed=4).granule(7)
        assert a.full_bytes == b.full_bytes

    def test_manifest_chunks_partition_everything(self):
        archive = MerraArchive(n_files=103)
        chunks = archive.manifest_chunks(10)
        assert len(chunks) == 10
        flat = [i for chunk in chunks for i in chunk]
        assert flat == list(range(103))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            MerraArchive(n_files=0)
        with pytest.raises(ValueError):
            MerraArchive(n_files=10).manifest_chunks(0)


class TestTFRecord:
    def _example(self, shape=(4, 5, 6), seed=0):
        rng = np.random.default_rng(seed)
        return VolumeExample(
            volume=rng.normal(size=shape).astype(np.float32),
            label=(rng.uniform(size=shape) > 0.5).astype(np.uint8),
            meta={"t0": 12, "shard": "a"},
        )

    def test_roundtrip_single(self):
        ex = self._example()
        w = TFRecordWriter()
        w.write(ex)
        (back,) = TFRecordReader(w.getvalue()).read_all()
        np.testing.assert_array_equal(back.volume, ex.volume)
        np.testing.assert_array_equal(back.label, ex.label)
        assert back.meta == {"t0": 12, "shard": "a"}

    def test_roundtrip_many(self):
        w = TFRecordWriter()
        for i in range(5):
            w.write(self._example(seed=i))
        records = TFRecordReader(w.getvalue()).read_all()
        assert len(records) == 5
        assert w.records_written == 5

    def test_corruption_detected(self):
        w = TFRecordWriter()
        w.write(self._example())
        blob = bytearray(w.getvalue())
        blob[len(blob) // 2] ^= 0xFF  # flip a payload bit
        with pytest.raises(MLError):
            TFRecordReader(bytes(blob)).read_all()

    def test_bad_magic_detected(self):
        with pytest.raises(MLError):
            TFRecordReader(b"XXXX" + b"\x00" * 16).read_all()

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(MLError):
            VolumeExample(volume=np.zeros((2, 2)), label=np.zeros((3, 3)))

    @settings(max_examples=25, deadline=None)
    @given(
        vol=arrays(
            dtype=np.float32,
            shape=st.tuples(
                st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)
            ),
            elements=st.floats(-1e6, 1e6, width=32),
        )
    )
    def test_property_roundtrip_exact(self, vol):
        ex = VolumeExample(
            volume=vol, label=np.zeros_like(vol, dtype=np.uint8), meta={"k": 1}
        )
        w = TFRecordWriter()
        w.write(ex)
        (back,) = TFRecordReader(w.getvalue()).read_all()
        np.testing.assert_array_equal(back.volume, vol)
