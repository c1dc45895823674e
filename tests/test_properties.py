"""Property-based tests (hypothesis) for core data structures and invariants."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import ops
from repro.errors import ShapeError
from repro.flows import FusionConfig, PyTorchEagerFlow, TensorRTFlow, fuse_graph
from repro.flows.plan import group_costs_batch
from repro.hardware import A100, EPYC_7763
from repro.ir import DType, Graph, TensorSpec, broadcast_shapes
from repro.knobs import pick
from repro.ops.base import OpCategory, OpCost
from repro.runtime import run_graph
from repro.serving import (
    ClusterConfig,
    ClusterRouter,
    RequestTrace,
    ServingConfig,
    ServingEngine,
)
from repro.serving.scheduler import SCHEDULER_REGISTRY, register_scheduler
from tests.conftest import run_op

from custom_schedulers import CUSTOM_SCHEDULERS, LIFOScheduler, PairingScheduler
from oracles import estimate_kernel, group_cost, run_reference
from registrations import restored

#: hedge delays the fleet fuzz draws: below, near and above a batch-1 latency.
HEDGE_AFTER_S = (0.001, 0.005, 0.02)

dims = st.integers(min_value=1, max_value=8)
shapes = st.lists(dims, min_size=1, max_size=4).map(tuple)


class TestShapeProperties:
    @given(shapes)
    def test_numel_is_product(self, shape):
        spec = TensorSpec(shape)
        assert spec.numel == int(np.prod(shape))
        assert spec.nbytes == spec.numel * 4

    @given(shapes, shapes)
    def test_broadcast_matches_numpy(self, a, b):
        try:
            expected = np.broadcast_shapes(a, b)
        except ValueError:
            with pytest.raises(ShapeError):
                broadcast_shapes(a, b)
            return
        assert broadcast_shapes(a, b) == tuple(expected)

    @given(shapes, shapes)
    def test_broadcast_commutes(self, a, b):
        try:
            left = broadcast_shapes(a, b)
        except ShapeError:
            return
        assert left == broadcast_shapes(b, a)

    @given(shapes)
    def test_reshape_flatten_roundtrip(self, shape):
        spec = TensorSpec(shape)
        flat = ops.Reshape((-1,)).infer_spec([spec])[0]
        assert flat.numel == spec.numel
        back = ops.Reshape(shape).infer_spec([flat])[0]
        assert back.shape == spec.shape


class TestSoftmaxProperties:
    @given(
        st.integers(2, 6),
        st.integers(2, 10),
        st.floats(0.1, 50.0),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40)
    def test_softmax_is_distribution(self, rows, cols, scale, seed):
        x = (np.random.default_rng(seed).normal(size=(rows, cols)) * scale).astype(np.float32)
        y = run_op(ops.Softmax(-1), x)
        assert np.all(y >= 0)
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, rtol=1e-4)

    @given(st.integers(2, 8), st.integers(0, 2**31 - 1))
    @settings(max_examples=30)
    def test_softmax_preserves_argmax(self, cols, seed):
        x = np.random.default_rng(seed).normal(size=(3, cols)).astype(np.float32)
        y = run_op(ops.Softmax(-1), x)
        np.testing.assert_array_equal(np.argmax(x, -1), np.argmax(y, -1))


class TestNMSProperties:
    @given(st.integers(1, 40), st.floats(0.1, 0.9), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_nms_invariants(self, n, iou_thr, seed):
        gen = np.random.default_rng(seed)
        centers = gen.uniform(10, 90, size=(n, 2))
        sizes = gen.uniform(2, 30, size=(n, 2))
        boxes = np.concatenate([centers - sizes / 2, centers + sizes / 2], axis=1).astype(np.float32)
        scores = gen.uniform(0.01, 1.0, size=n).astype(np.float32)
        op = ops.NMS(iou_threshold=iou_thr, score_threshold=0.0, max_outputs=n)
        kept, count = op.run([boxes, scores], {})
        k = int(count)
        assert 1 <= k <= n
        # every kept box is one of the inputs
        for i in range(k):
            assert any(np.array_equal(kept[i], b) for b in boxes)
        # no two survivors overlap beyond the threshold
        from repro.ops.roi import _iou_one_to_many

        for i in range(k):
            for j in range(i + 1, k):
                iou = _iou_one_to_many(kept[i], kept[j : j + 1])[0]
                assert iou <= iou_thr + 1e-6

    @given(st.integers(2, 20), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_highest_score_always_kept(self, n, seed):
        gen = np.random.default_rng(seed)
        boxes = np.concatenate(
            [gen.uniform(0, 50, (n, 2)), gen.uniform(60, 100, (n, 2))], axis=1
        ).astype(np.float32)
        scores = gen.uniform(0.1, 1.0, size=n).astype(np.float32)
        op = ops.NMS(iou_threshold=0.5, score_threshold=0.0, max_outputs=n)
        kept, count = op.run([boxes, scores], {})
        best = boxes[int(np.argmax(scores))]
        assert any(np.array_equal(kept[i], best) for i in range(int(count)))


class TestQuantizationProperties:
    @given(st.integers(1, 8), st.integers(4, 64), st.integers(0, 2**31 - 1))
    @settings(max_examples=40)
    def test_roundtrip_error_bound(self, rows, cols, seed):
        x = np.random.default_rng(seed).normal(0, 2.0, size=(rows, cols)).astype(np.float32)
        q, scale = ops.Quantize().run([x], {})
        recon = q.astype(np.float32) * scale.astype(np.float32)
        # absmax rowwise quantization error is bounded by half a step
        step = np.abs(x).max(axis=-1, keepdims=True) / 127.0
        assert np.all(np.abs(recon - x) <= step * 0.5 + 1e-5)

    @given(st.integers(1, 6), st.integers(2, 32), st.integers(0, 2**31 - 1))
    @settings(max_examples=30)
    def test_quantized_values_in_range(self, rows, cols, seed):
        x = (np.random.default_rng(seed).normal(size=(rows, cols)) * 100).astype(np.float32)
        q, _ = ops.Quantize().run([x], {})
        assert q.dtype == np.int8
        assert np.all((q >= -127) & (q <= 127))


class TestFusionProperties:
    @st.composite
    def chain_graphs(draw):
        """Random single-chain graphs of pointwise ops."""
        length = draw(st.integers(1, 8))
        pool = [ops.ReLU, ops.Sigmoid, ops.Tanh, ops.Abs, lambda: ops.MulScalar(2.0)]
        g = Graph("chain")
        x = g.input(TensorSpec((2, 8)), "x")
        h = x
        for i in range(length):
            op_factory = pool[draw(st.integers(0, len(pool) - 1))]
            h = g.call(op_factory(), h)
        g.set_outputs(h)
        return g

    @given(chain_graphs())
    @settings(max_examples=30, deadline=None)
    def test_fusion_covers_all_nodes_disjointly(self, graph):
        for config in (FusionConfig(), FusionConfig(pointwise_chains=True, max_chain=4)):
            result = fuse_graph(graph, config)
            flat = [n for group in result.groups for n in group]
            assert sorted(flat) == sorted(n.node_id for n in graph.compute_nodes())
            assert len(flat) == len(set(flat))

    @given(chain_graphs())
    @settings(max_examples=30, deadline=None)
    def test_fused_plan_never_more_kernels(self, graph):
        eager = PyTorchEagerFlow().lower(graph)
        fused = TensorRTFlow().lower(graph)
        assert fused.num_kernels <= eager.num_kernels

    @given(chain_graphs())
    @settings(max_examples=30, deadline=None)
    def test_group_cost_conserves_flops(self, graph):
        node_ids = np.array([n.node_id for n in graph.compute_nodes()], dtype=np.int64)
        flops, _, _ = group_costs_batch(graph, node_ids, np.array([0, len(node_ids)]))
        total = sum(
            n.op.cost([v.spec for v in n.inputs], list(n.outputs)).flops
            for n in graph.compute_nodes()
        )
        assert flops.tolist() == [total]

    @given(chain_graphs(), st.lists(st.integers(1, 4), min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_group_costs_batch_matches_oracle(self, graph, cuts):
        # any partition of the compute nodes into runs: each run's batched
        # cost equals the scalar oracle's
        ids = [n.node_id for n in graph.compute_nodes()]
        groups, start = [], 0
        for size in cuts:
            if start >= len(ids):
                break
            groups.append(tuple(ids[start : start + size]))
            start += size
        offsets = np.cumsum([0] + [len(g) for g in groups])
        flat = np.array([i for g in groups for i in g], dtype=np.int64)
        batched = zip(*(c.tolist() for c in group_costs_batch(graph, flat, offsets)))
        assert [OpCost(*row) for row in batched] == [group_cost(graph, g) for g in groups]

    @given(chain_graphs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_executor_deterministic(self, graph, seed):
        x = np.random.default_rng(seed).normal(size=(2, 8)).astype(np.float32)
        a = run_graph(graph, {"x": x}, seed=0)[0]
        b = run_graph(graph, {"x": x}, seed=0)[0]
        np.testing.assert_array_equal(a, b)


class TestCostModelProperties:
    @given(
        st.integers(1, 10**12),
        st.integers(1, 10**10),
        st.sampled_from([OpCategory.GEMM, OpCategory.ELEMENTWISE, OpCategory.NORMALIZATION]),
    )
    @settings(max_examples=50)
    def test_latency_positive_and_monotone(self, flops, nbytes, category):
        cost = OpCost(flops=flops, bytes_read=nbytes, bytes_written=nbytes)
        bigger = OpCost(flops=flops * 2, bytes_read=nbytes * 2, bytes_written=nbytes * 2)
        for device in (A100, EPYC_7763):
            small_est = estimate_kernel(device, category, cost, DType.F32, dispatch_s=1e-6)
            big_est = estimate_kernel(device, category, bigger, DType.F32, dispatch_s=1e-6)
            assert small_est.total_s > 0
            assert big_est.total_s >= small_est.total_s

    @given(st.integers(1, 10**10))
    @settings(max_examples=30)
    def test_gpu_total_at_least_host_and_device(self, flops):
        cost = OpCost(flops=flops, bytes_read=1000, bytes_written=1000)
        est = estimate_kernel(A100, OpCategory.GEMM, cost, DType.F16, dispatch_s=5e-6)
        assert est.total_s >= est.host_s - 1e-12
        assert est.total_s >= est.device_s - 1e-12

    @given(st.integers(0, 60), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_utilization_bounded(self, scale, seed):
        gen = np.random.default_rng(seed)
        cost = OpCost(
            flops=int(gen.integers(1, 10**9)) * (scale + 1),
            bytes_read=int(gen.integers(1, 10**8)),
            bytes_written=int(gen.integers(1, 10**8)),
        )
        est = estimate_kernel(A100, OpCategory.GEMM, cost, DType.F16, dispatch_s=1e-6)
        assert 0.0 <= est.utilization <= 1.0


class TestGraphProperties:
    @given(st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_node_ids_sequential_and_topological(self, n_ops):
        g = Graph("p")
        x = g.input(TensorSpec((2, 4)), "x")
        values = [x]
        gen = np.random.default_rng(n_ops)
        for _ in range(n_ops):
            a = values[int(gen.integers(0, len(values)))]
            b = values[int(gen.integers(0, len(values)))]
            values.append(g.call(ops.Add(), a, b))
        g.set_outputs(values[-1])
        g.validate()
        for node in g.nodes:
            for value in node.inputs:
                assert value.node_id < node.node_id


def _check_replica_invariants(result) -> None:
    """Oracle-free checks of one engine's result: every record starts at or
    after its arrival and completes after it starts; an uncapped queue-depth
    timeline never goes negative and ends empty."""
    for record in result.records:
        assert record.arrival_s <= record.start_s < record.completion_s
    if result.record_cap is None and result.queue_depth_timeline:
        depths = [depth for _, depth in result.queue_depth_timeline]
        assert min(depths) >= 0
        assert depths[-1] == 0


def _check_littles_law(result) -> None:
    """Little's law as an identity on one engine's uncapped result: the time
    integral of its queue-depth timeline equals the summed queueing delays
    (start - arrival) of its records.  Holds while every admitted copy is
    served exactly once: no retry, hedge or crash."""
    times = np.array([t for t, _ in result.queue_depth_timeline], dtype=np.float64)
    depths = np.array([d for _, d in result.queue_depth_timeline], dtype=np.float64)
    area = float(np.sum(depths[:-1] * np.diff(times)))
    waits = math.fsum(record.start_s - record.arrival_s for record in result.records)
    assert area == pytest.approx(waits, rel=1e-12, abs=1e-15)


class TestClusterRoutingProperties:
    @st.composite
    def fault_free_runs(draw):
        """A fault-free cluster config and a short trace: 1-24 requests,
        zero gaps (equal-time arrivals) likely, ids in any order."""
        config = ClusterConfig(
            model="gpt2",
            platforms=tuple(draw(st.lists(st.sampled_from("ABC"), min_size=1, max_size=3))),
            device=draw(st.sampled_from(("gpu", "cpu"))),
            scheduler=draw(st.sampled_from(("fifo", "static", "dynamic", "continuous"))),
            policy=draw(
                st.sampled_from(("round-robin", "least-loaded", "power-of-two-choices"))
            ),
            max_batch=draw(st.integers(1, 8)),
            max_wait_s=draw(st.sampled_from((0.0, 0.002, 0.01))),
            policy_seed=draw(st.integers(0, 3)),
            shed_queue_s=draw(st.none() | st.floats(1e-9, 0.05)),
            record_requests=draw(st.none() | st.integers(1, 8)),
        )
        n = draw(st.integers(1, 24))
        gaps = draw(
            st.lists(st.sampled_from((0.0, 0.0005, 0.002, 0.01)), min_size=n, max_size=n)
        )
        trace = RequestTrace(
            "fuzz",
            arrival_s=np.cumsum(gaps),
            decode_steps=draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)),
            request_ids=draw(st.permutations(range(n))),
        )
        return config, trace

    @st.composite
    def faulted_runs(draw):
        """A fault-free run's axes plus a fault schedule and timeout retries
        (``timeout_s`` always set under crashes, whose lost copies only a
        retry recovers) and maybe hedging, which put the run on the
        fault-capable columnar replay.

        Some crash runs are two-replica fleets under a dense trace with a
        1-2 ms timeout, which the crash window outlasts: a copy that dies in
        the crash goes to the other replica, times out in its queue and may
        come back to complete on the replica it died on, whose record keeps
        the dead copy's admission and take."""
        config, trace = draw(TestClusterRoutingProperties.fault_free_runs())
        profile = draw(st.sampled_from(("crash", "accel-loss", "straggler")))
        timeouts = st.sampled_from((0.004, 0.02, 0.05))
        retries = st.integers(0, 3)
        if profile == "crash" and draw(st.booleans()):
            n = draw(st.integers(12, 24))
            gaps = st.lists(st.sampled_from((0.0, 0.0005)), min_size=n, max_size=n)
            trace = RequestTrace(
                "fuzz-dense",
                arrival_s=np.cumsum(draw(gaps)),
                decode_steps=draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)),
            )
            config = replace(config, platforms=config.platforms[:1] * 2)
            timeouts = st.sampled_from((0.001, 0.002))
            retries = st.integers(2, 3)
        config = replace(
            config,
            fault_profile=profile,
            fault_seed=draw(st.integers(0, 7)),
            timeout_s=draw(timeouts if profile == "crash" else st.none() | timeouts),
            timeout_cap_s=draw(st.none() | st.sampled_from((0.004, 0.08, 0.32))),
            max_retries=draw(retries),
            hedge_after_s=draw(st.none() | st.sampled_from(HEDGE_AFTER_S)),
        )
        return config, trace

    @st.composite
    def hedged_runs(draw):
        """A fault-free run's axes plus hedging and no timeout: the
        fault-capable replay with hedge timers as its only events."""
        config, trace = draw(TestClusterRoutingProperties.fault_free_runs())
        return replace(config, hedge_after_s=draw(st.sampled_from(HEDGE_AFTER_S))), trace

    @st.composite
    def custom_scheduler_runs(draw):
        """A custom scheduler (declaring no kind) on a fault-free run's axes
        with 0 requests or more, fault-free, under crashes with timeout
        retries, under stragglers, or hedged."""
        scheduler_cls = draw(st.sampled_from(CUSTOM_SCHEDULERS))
        config, trace = draw(TestClusterRoutingProperties.fault_free_runs())
        keep = draw(st.integers(0, trace.num_requests))
        trace = RequestTrace(
            "fuzz",
            arrival_s=trace.arrival_column()[:keep],
            decode_steps=trace.decode_column()[:keep],
            request_ids=trace.id_column()[:keep],
        )
        config = replace(config, scheduler=scheduler_cls.name, fault_seed=draw(st.integers(0, 7)))
        profile = draw(st.sampled_from(("none", "crash", "straggler", "hedged")))
        if profile == "crash":
            config = replace(
                config,
                fault_profile="crash",
                timeout_s=draw(st.sampled_from((0.004, 0.02, 0.05))),
                max_retries=draw(st.integers(0, 3)),
            )
        elif profile == "straggler":
            config = replace(config, fault_profile="straggler")
        elif profile == "hedged":
            config = replace(config, hedge_after_s=draw(st.sampled_from(HEDGE_AFTER_S)))
        return scheduler_cls, config, trace

    @given(custom_scheduler_runs())
    @example(
        (
            LIFOScheduler,
            ClusterConfig(model="gpt2", platforms=("A", "A"), scheduler=LIFOScheduler.name),
            RequestTrace("empty", ()),
        )
    )
    @example(
        (
            PairingScheduler,
            ClusterConfig(
                model="gpt2",
                platforms=("A", "B"),
                scheduler=PairingScheduler.name,
                fault_profile="crash",
                timeout_s=0.004,
            ),
            RequestTrace("single", arrival_s=np.array([0.0]), decode_steps=np.array([2])),
        )
    )
    @example(
        (
            PairingScheduler,
            ClusterConfig(
                model="gpt2",
                platforms=("A", "A", "A"),
                scheduler=PairingScheduler.name,
                policy="least-loaded",
                max_batch=1,
                hedge_after_s=0.001,
            ),
            RequestTrace("burst", arrival_s=np.zeros(12), decode_steps=np.arange(12) % 3 + 1),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_custom_scheduler_rails_match_oracle(self, run):
        """Custom schedulers ride the callback machine on the engine and on
        both fleet rails, never the event loop, and equal the oracles."""
        scheduler_cls, config, trace = run
        with restored(SCHEDULER_REGISTRY):
            register_scheduler(scheduler_cls, replace=True)
            engine = ServingEngine(
                ServingConfig(**pick(ServingConfig, config, platform=config.platforms[0]))
            )
            served = engine.run(trace)
            assert served.backend_used == "columnar"
            assert served == run_reference(engine, trace)
            router = ClusterRouter(config)
            fast = router.run(trace)
            assert fast.backend_used in ("columnar", "columnar-faulted")
            assert fast == run_reference(router, trace)

    @given(fault_free_runs())
    @settings(max_examples=60, deadline=None)
    def test_columnar_rail_matches_oracle(self, run):
        config, trace = run
        router = ClusterRouter(config)
        fast = router.run(trace)
        assert fast.backend_used == "columnar"
        assert fast == run_reference(router, trace)
        completed = (
            len(fast.completed()) if fast.num_completed is None else fast.num_completed
        )
        assert completed + fast.num_shed == trace.num_requests
        for replica in fast.replicas:
            _check_replica_invariants(replica)
            if config.record_requests is None:
                _check_littles_law(replica)

    @given(faulted_runs())
    @example(
        (
            ClusterConfig(
                model="gpt2",
                platforms=("A", "A"),
                scheduler="continuous",
                policy="least-loaded",
                max_batch=2,
                fault_profile="straggler",
            ),
            RequestTrace(
                "burst", arrival_s=np.zeros(24), decode_steps=np.arange(24) % 4 + 1
            ),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_faulted_rail_matches_oracle(self, run):
        self._check_faulted_rail(*run)

    @given(hedged_runs())
    @settings(max_examples=60, deadline=None)
    def test_hedged_rail_matches_oracle(self, run):
        self._check_faulted_rail(*run)

    @staticmethod
    def _check_faulted_rail(config, trace):
        router = ClusterRouter(config)
        fast = router.run(trace)
        assert fast.backend_used == "columnar-faulted"
        assert fast == run_reference(router, trace)
        completed = (
            len(fast.completed()) if fast.num_completed is None else fast.num_completed
        )
        assert completed + fast.num_shed + fast.num_failed == trace.num_requests
        assert fast.num_hedge_wins <= fast.num_hedges
        # a replica's record holds its first copy's arrival and start; its
        # uncapped queue-depth timeline ends empty (crashes and withdrawn
        # copies take samples too).
        served_once = (
            config.record_requests is None
            and config.timeout_s is None
            and config.hedge_after_s is None
            and config.fault_profile != "crash"
        )
        for replica in fast.replicas:
            _check_replica_invariants(replica)
            if served_once:
                _check_littles_law(replica)
        if fast.record_cap is None:
            assert sum(r.hedged for r in fast.records) == fast.num_hedges
            assert sum(r.hedge_won for r in fast.records) == fast.num_hedge_wins


class TestEngineKernelProperties:
    @given(TestClusterRoutingProperties.fault_free_runs())
    @settings(max_examples=60, deadline=None)
    def test_columnar_kernels_match_oracle(self, run):
        """Every built-in scheduler's kernel against the reference loop, on
        one replica's axes of the fault-free fleet fuzz.  The engine keeps
        records in trace order (fleet replicas use ``(admitted, id)``
        order), which the permuted ids tell apart."""
        config, trace = run
        engine = ServingEngine(
            ServingConfig(**pick(ServingConfig, config, platform=config.platforms[0]))
        )
        fast = engine.run(trace)
        assert fast.backend_used == "columnar"
        assert fast == run_reference(engine, trace)
        assert fast.num_requests_served == trace.num_requests
        _check_replica_invariants(fast)
        if config.record_requests is None:
            _check_littles_law(fast)

