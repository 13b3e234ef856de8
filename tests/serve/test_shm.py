"""Shared-memory transport: bitwise round-trips and lifecycle hygiene."""

import pickle

import numpy as np
import pytest

from repro.formats import FORMAT_CLASSES, from_dense
from repro.formats.convert import convert
from repro.serve.bench import synthetic_model
from repro.serve.engine import InferenceEngine
from repro.serve.loadgen import query_sampler
from repro.serve.shm import (
    SHM_PREFIX,
    Attachment,
    ModelPublication,
    SegmentGroup,
    attach_matrix,
    attach_model,
    leaked_segments,
    pack_matrix,
    pack_model,
)

ALL_FORMATS = tuple(FORMAT_CLASSES)


def sample_matrix(rng):
    a = (rng.random((24, 18)) < 0.3) * rng.standard_normal((24, 18))
    a[5, :] = 0.0
    return a


class TestMatrixRoundTrip:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_round_trip_is_bitwise(self, rng, fmt):
        dense = sample_matrix(rng)
        matrix = convert(from_dense(dense, "CSR"), fmt)
        with SegmentGroup() as group:
            handle = pack_matrix(matrix, group)
            att = Attachment()
            try:
                back = attach_matrix(handle, att)
                assert back.name == matrix.name
                assert back.shape == matrix.shape
                r0, c0, v0 = matrix.to_coo()
                r1, c1, v1 = back.to_coo()
                assert np.array_equal(r0, r1)
                assert np.array_equal(c0, c1)
                assert np.array_equal(v0, v1)
            finally:
                att.close()

    def test_attached_views_are_read_only(self, rng):
        matrix = from_dense(sample_matrix(rng), "CSR")
        with SegmentGroup() as group:
            handle = pack_matrix(matrix, group)
            att = Attachment()
            try:
                back = attach_matrix(handle, att)
                assert not back.values.flags.writeable
                with pytest.raises(ValueError):
                    back.values[0] = 99.0
            finally:
                att.close()

    def test_handle_is_picklable_and_small(self, rng):
        matrix = from_dense(sample_matrix(rng), "CSR")
        with SegmentGroup() as group:
            handle = pack_matrix(matrix, group)
            blob = pickle.dumps(handle)
            assert pickle.loads(blob).fmt == "CSR"
            # Segment names + dtypes + shapes, not the payload.
            assert len(blob) < 1024

    def test_empty_array_publishes_and_attaches(self):
        with SegmentGroup() as group:
            spec = group.publish(np.empty(0, dtype=np.float64))
            att = Attachment()
            try:
                view = att.attach(spec)
                assert view.shape == (0,)
                assert view.dtype == np.float64
            finally:
                att.close()


class TestModelRoundTrip:
    def test_attached_model_predicts_bitwise(self):
        model = synthetic_model(n_sv=120, n_features=60, row_nnz=6, seed=3)
        sampler = query_sampler(60, 5)
        rng = np.random.default_rng(4)
        queries = [sampler(rng) for _ in range(12)]
        want = InferenceEngine(model.clone()).decision_function(queries)
        with SegmentGroup() as group:
            handle = pack_model(model, group)
            att = Attachment()
            try:
                back = attach_model(handle, att)
                got = InferenceEngine(back).decision_function(queries)
                assert np.array_equal(got, want)
                # The cached norms travel as shared memory, not a
                # recomputation.
                assert np.array_equal(back.sv_norms, model.sv_norms)
                assert not back.sv_norms.flags.writeable
            finally:
                att.close()

    def test_control_plane_is_constant_in_nnz(self):
        small = synthetic_model(n_sv=80, n_features=60, row_nnz=4, seed=5)
        big = synthetic_model(n_sv=640, n_features=60, row_nnz=16, seed=5)
        with SegmentGroup() as g1, SegmentGroup() as g2:
            h_small = pack_model(small, g1)
            h_big = pack_model(big, g2)
            assert big.matrix.nnz >= 16 * small.matrix.nnz
            ratio = h_big.control_plane_bytes() / h_small.control_plane_bytes()
            assert ratio < 1.1
            # The shared payload, by contrast, tracks the matrix.
            assert g2.total_bytes > 8 * g1.total_bytes


class TestLifecycle:
    def test_close_unlinks_everything(self, rng):
        group = SegmentGroup()
        pack_matrix(from_dense(sample_matrix(rng), "CSR"), group)
        names = group.segment_names
        assert names and all(n.startswith(SHM_PREFIX) for n in names)
        assert set(names) <= set(leaked_segments())
        group.close()
        assert not set(names) & set(leaked_segments())

    def test_close_is_idempotent(self, rng):
        group = SegmentGroup()
        pack_matrix(from_dense(sample_matrix(rng), "CSR"), group)
        group.close()
        group.close()

    def test_attachment_close_does_not_unlink(self, rng):
        with SegmentGroup() as group:
            handle = pack_matrix(
                from_dense(sample_matrix(rng), "CSR"), group
            )
            att = Attachment()
            attach_matrix(handle, att)
            att.close()
            # The owner's segments must survive any attacher's close.
            assert set(group.segment_names) <= set(leaked_segments())

    def test_publication_lifecycle(self):
        model = synthetic_model(n_sv=60, n_features=40, row_nnz=4, seed=6)
        pub = ModelPublication(model)
        assert pub.shared_bytes > 0
        assert pub.handle.control_plane_bytes() < 2048
        pub.close()
        assert leaked_segments() == []


class TestCrashHygiene:
    def test_killed_worker_leaks_nothing(self):
        """SIGKILL a fleet worker; /dev/shm must come back empty."""
        from repro.serve.fleet import ServingFleet

        model = synthetic_model(n_sv=80, n_features=50, row_nnz=5, seed=7)
        fleet = ServingFleet({"m": model}, 2, backend="process")
        try:
            assert leaked_segments() != []  # published while serving
            victim = fleet.shards[0]
            victim.kill()
            assert not victim.alive()
        finally:
            fleet.close()
        assert leaked_segments() == []

    def test_fleet_close_after_all_workers_die(self):
        from repro.serve.fleet import ServingFleet

        model = synthetic_model(n_sv=80, n_features=50, row_nnz=5, seed=8)
        fleet = ServingFleet({"m": model}, 2, backend="process")
        for shard in fleet.shards:
            shard.kill()
        fleet.close()
        assert leaked_segments() == []
