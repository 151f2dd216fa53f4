"""Parity of the serving backends against the engines they wrap.

The serving layer must add *zero* numerical drift: the float backend is the
``repro.nn`` forward pass and the int8 backend is the integer graph
executor, so outputs routed through ``InferenceServer`` (including the
micro-batching path) must match the direct calls bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from repro.deploy import IntegerGraphExecutor, lower_to_int8, trace_model
from repro.models import available_models, build_model
from repro.nn.tensor import Tensor
from repro.serve import (
    BackendCache,
    FloatBackend,
    InferenceServer,
    Priority,
    WorkerPool,
    build_int8_backend,
)

ARCHITECTURES = ["bio1", "bio2", "temponet"]
GEOMETRY = dict(num_channels=4, window_samples=60, seed=11)


def make_model(name):
    return build_model(name, patch_size=10, **GEOMETRY).eval()


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(7)


@pytest.fixture(scope="module")
def cache():
    return BackendCache()


# --------------------------------------------------------------------- #
# Float backend
# --------------------------------------------------------------------- #
class TestFloatParity:
    @pytest.mark.parametrize("name", ARCHITECTURES)
    def test_server_matches_direct_forward_bitwise(self, name, rng, cache):
        model = make_model(name)
        x = rng.normal(size=(6, 4, 60))
        expected = model(Tensor(x)).data
        with InferenceServer(
            model, "float", cache=cache, max_batch_size=8
        ) as server:
            served = server.infer(x)
        np.testing.assert_array_equal(served, expected)

    @pytest.mark.parametrize("name", ARCHITECTURES)
    def test_registry_lookup_matches_direct_build(self, name, rng, cache):
        x = rng.normal(size=(4, 4, 60))
        expected = make_model(name)(Tensor(x)).data
        with InferenceServer(
            name,
            "float",
            patch_size=10,
            model_kwargs=GEOMETRY,
            cache=cache,
            max_batch_size=4,
        ) as server:
            np.testing.assert_array_equal(server.infer(x), expected)

    def test_backend_run_is_inference_only(self, rng):
        model = make_model("bio1")
        backend = FloatBackend(model)
        logits = backend.run(rng.normal(size=(3, 4, 60)))
        assert isinstance(logits, np.ndarray)
        assert logits.shape == (3, 8)
        # Evaluation mode was set by the backend constructor.
        assert not model.training

    def test_predict_matches_argmax(self, rng, cache):
        with InferenceServer(
            "bio2", "float", patch_size=10, model_kwargs=GEOMETRY, cache=cache
        ) as server:
            x = rng.normal(size=(5, 4, 60))
            np.testing.assert_array_equal(
                server.predict(x), np.argmax(server.infer(x), axis=-1)
            )


# --------------------------------------------------------------------- #
# Int8 backend
# --------------------------------------------------------------------- #
class TestInt8Parity:
    @pytest.mark.parametrize("name", ARCHITECTURES)
    def test_server_matches_int_engine_golden(self, name, rng, cache):
        model = make_model(name)
        calibration = rng.normal(size=(16, 4, 60))
        x = rng.normal(size=(6, 4, 60))

        golden = IntegerGraphExecutor(lower_to_int8(trace_model(model), calibration))
        with InferenceServer(
            model,
            "int8",
            calibration=calibration,
            cache=cache,
            max_batch_size=8,
        ) as server:
            served = server.infer(x)
        np.testing.assert_array_equal(served, golden.run(x))

    def test_integer_grid_exposed(self, rng):
        model = make_model("bio1")
        calibration = rng.normal(size=(8, 4, 60))
        backend = build_int8_backend(model, calibration)
        integer = backend.run_integer(rng.normal(size=(3, 4, 60)))
        assert integer.min() >= -128 and integer.max() <= 127
        assert backend.num_classes == 8
        assert backend.input_shape == (4, 60)

    def test_deterministic_default_calibration(self):
        model = make_model("bio1")
        first = build_int8_backend(model, seed=3)
        second = build_int8_backend(model, seed=3)
        x = np.random.default_rng(5).normal(size=(4, 4, 60))
        np.testing.assert_array_equal(first.run(x), second.run(x))


# --------------------------------------------------------------------- #
# Facade behaviour shared by both backends
# --------------------------------------------------------------------- #
class TestServerFacade:
    def test_both_backends_one_api(self, rng, cache):
        x = rng.normal(size=(3, 4, 60))
        outputs = {}
        for backend in ("float", "int8"):
            with InferenceServer(
                "bio1",
                backend,
                patch_size=10,
                model_kwargs=GEOMETRY,
                calibration=rng.normal(size=(8, 4, 60)),
                cache=cache,
            ) as server:
                assert server.input_shape == (4, 60)
                assert server.num_classes == 8
                outputs[backend] = server.predict(x)
        assert outputs["float"].shape == outputs["int8"].shape == (3,)

    def test_cache_shares_backends_between_servers(self, rng):
        cache = BackendCache()
        kwargs = dict(patch_size=10, model_kwargs=GEOMETRY, cache=cache)
        with InferenceServer("bio1", "float", **kwargs) as first:
            with InferenceServer("bio1", "float", **kwargs) as second:
                assert first.backend is second.backend
        assert cache.stats.cache_hits >= 1 and cache.stats.cache_misses == 1

    def test_distinct_patch_sizes_get_distinct_backends(self):
        cache = BackendCache()
        kw = dict(model_kwargs=GEOMETRY, cache=cache)
        with InferenceServer("bio1", "float", patch_size=10, **kw) as a:
            with InferenceServer("bio1", "float", patch_size=20, **kw) as b:
                assert a.backend is not b.backend
        assert len(cache) == 2

    def test_rejects_wrong_window_shape(self, cache):
        with InferenceServer(
            "bio1", "float", patch_size=10, model_kwargs=GEOMETRY, cache=cache
        ) as server:
            with pytest.raises(ValueError, match="window of shape"):
                server.submit(np.zeros((3, 60)))

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend must be one of"):
            InferenceServer("bio1", "fp16")

    def test_infer_zero_windows_returns_empty_logits(self, cache):
        """Regression: ``infer([])`` used to crash inside ``np.stack([])``."""
        with InferenceServer(
            "bio1", "float", patch_size=10, model_kwargs=GEOMETRY, cache=cache
        ) as server:
            logits = server.infer([])
            assert logits.shape == (0, server.num_classes)
            assert server.predict([]).shape == (0,)
            assert server.infer(np.empty((0, 4, 60))).shape == (0, 8)

    def test_rejects_non_positive_workers_and_pool_conflict(self, cache):
        kwargs = dict(patch_size=10, model_kwargs=GEOMETRY, cache=cache)
        with pytest.raises(ValueError, match="num_workers"):
            InferenceServer("bio1", "float", num_workers=0, **kwargs)
        with WorkerPool(num_workers=2) as pool:
            with pytest.raises(ValueError, match="either num_workers or"):
                InferenceServer("bio1", "float", num_workers=2, pool=pool, **kwargs)

    def test_stats_snapshot_is_frozen(self, rng, cache):
        with InferenceServer(
            "bio1", "float", patch_size=10, model_kwargs=GEOMETRY, cache=cache
        ) as server:
            server.infer(rng.normal(size=(3, 4, 60)))
            stats = server.stats
            with pytest.raises(dataclasses.FrozenInstanceError):
                stats.batcher_requests = 0
            with pytest.raises(dataclasses.FrozenInstanceError):
                stats.server_degraded = 0
            with pytest.raises(AttributeError):
                stats.requests = 0
            with pytest.raises(TypeError):
                stats.series["batcher_requests"][(("priority", 0),)] = 0
            server.infer(rng.normal(size=(2, 4, 60)))
        assert stats.requests == 3  # taken before the second infer
        assert server.stats.requests == 5

    def test_blocking_calls_submit_once_per_window(self, rng, cache):
        """``infer``, ``predict``, ``infer_async`` and stream pushes submit
        each window once, at their documented priority."""
        with InferenceServer(
            "bio1", "float", patch_size=10, model_kwargs=GEOMETRY, cache=cache
        ) as server:
            priorities = []
            submit = server.submit

            def recording_submit(window, *args, **kwargs):
                priorities.append(kwargs.get("priority"))
                return submit(window, *args, **kwargs)

            server.submit = recording_submit
            server.infer(rng.normal(size=(5, 4, 60)))
            assert priorities == [Priority.LOW] * 5
            priorities.clear()
            server.predict(rng.normal(size=(3, 4, 60)))
            assert priorities == [Priority.LOW] * 3
            priorities.clear()
            session = server.open_stream(slide=20)
            assert len(session.push(rng.normal(size=(4, 100)))) == 3
            assert priorities == [Priority.HIGH] * 3
            priorities.clear()
            for future in server.infer_async(rng.normal(size=(2, 4, 60))):
                future.result(timeout=10.0)
            assert priorities == [Priority.LOW] * 2


# --------------------------------------------------------------------- #
# Multi-worker pool execution and the async/priority surface
# --------------------------------------------------------------------- #
class TestPoolServing:
    def test_pooled_server_matches_direct_forward_bitwise(self, rng, cache):
        """Parity must survive concurrent batch execution on N workers."""
        model = make_model("bio1")
        x = rng.normal(size=(24, 4, 60))
        expected = model(Tensor(x)).data
        with InferenceServer(
            model, "float", cache=cache, max_batch_size=4, num_workers=4
        ) as server:
            assert server.num_workers == 4
            served = server.infer(x)
            pool_stats = server.stats
        np.testing.assert_array_equal(served, expected)
        assert pool_stats.pool_alive == 4 and pool_stats.pool_jobs >= 1

    def test_external_pool_is_borrowed_not_closed(self, rng, cache):
        model = make_model("bio1")
        with WorkerPool(num_workers=2, name="shared") as pool:
            for _ in range(2):  # two servers share the same pool
                with InferenceServer(
                    model, "float", cache=cache, max_batch_size=4, pool=pool
                ) as server:
                    assert server.infer(rng.normal(size=(4, 4, 60))).shape == (4, 8)
                assert not pool.closed
            assert pool.stats.pool_jobs >= 2

    def test_infer_async_and_as_completed(self, rng, cache):
        with InferenceServer(
            "bio1", "float", patch_size=10, model_kwargs=GEOMETRY, cache=cache
        ) as server:
            x = rng.normal(size=(6, 4, 60))
            futures = server.infer_async(x)
            assert len(futures) == 6
            done = list(server.as_completed(futures, timeout=30.0))
            assert set(done) == set(futures)
            ordered = np.stack([f.result(timeout=0) for f in futures])
            np.testing.assert_array_equal(ordered, server.infer(x))

    def test_per_priority_stats_split_stream_from_bulk(self, rng, cache):
        with InferenceServer(
            "bio1", "float", patch_size=10, model_kwargs=GEOMETRY, cache=cache
        ) as server:
            server.infer(rng.normal(size=(5, 4, 60)))  # bulk -> LOW
            server.submit(
                rng.normal(size=(4, 60)), priority=Priority.HIGH
            ).result(timeout=30.0)
            by_priority = server.stats.by("batcher_requests", "priority")
        assert by_priority == {int(Priority.LOW): 5, int(Priority.HIGH): 1}


# --------------------------------------------------------------------- #
# Empty batches
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ["float", "int8"])
@pytest.mark.parametrize("name", available_models())
def test_backends_run_empty_batch(name, backend):
    """Regression: TEMPONet's ``flatten`` reshaped to ``(0, -1)``, which
    raised on zero windows in both backends and in the model itself."""
    model = make_model(name)
    built = FloatBackend(model) if backend == "float" else build_int8_backend(model)
    empty = np.empty((0, 4, 60))
    assert built.run(empty).shape == (0, built.num_classes)
    assert model(Tensor(empty)).shape == (0, built.num_classes)
