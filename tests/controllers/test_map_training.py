"""Lockstep map training equals the per-cell loops it replaced, bit for bit.

The behaviour-map and module-cost-map trainers advance a whole grid at
once: each T_L0 substep is one batched L0 lookahead over every cell,
and one L1 decides every module cell. The per-cell loops they replaced
live on here as oracles, each building fresh controllers per cell, and
every trained output must equal theirs exactly.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import get_scenario
from repro.approximation import GridQuantizer
from repro.cluster.processor import processor_profile
from repro.cluster.specs import ComputerSpec, paper_module_spec
from repro.controllers import l1 as l1_module
from repro.controllers.l0 import L0Controller
from repro.controllers.l1 import ComputerBehaviorMap, L1Controller
from repro.controllers.l2 import ModuleCostMap, _module_training_grid
from repro.controllers.params import L0Params, L1Params
from repro.maps.provider import MapProvider
from repro.scenario.runner import resolve_control_params
from repro.sim.kernels import L0BankKernel

from helpers import table_cell


def _reference_behavior_cell(spec, l0_params, substeps, point):
    """One behaviour-map cell on a fresh scalar L0: the former loop."""
    controller = L0Controller(spec, l0_params)
    queue, rate, work = point
    params = controller.params
    rates = np.full(params.horizon, rate)
    total_cost = 0.0
    q = float(queue)
    for _ in range(substeps):
        decision = controller.decide(q, rates, work)
        phi = float(controller.phis[decision.frequency_index])
        next_q, response, power = controller.model.predict(
            q, rate, work, phi, params.period
        )
        total_cost += float(controller.cost.evaluate(response, power))
        q = float(next_q)
    return total_cost, q


def _reference_module_cell(
    module_spec, behavior_maps, l1_params, l0_params, point, seen=None
):
    """One module-map cell on fresh controllers: the former loop.

    ``seen``, when given, collects which branches the cell took:
    ``booting``, ``draining-busy`` (queue above 1e-9, so its L0 runs)
    and ``draining-idle`` (at or below it, so it is skipped).
    """
    l1 = L1Controller(module_spec, behavior_maps, l1_params, l0_params)
    l0s = [L0Controller(c, l0_params) for c in module_spec.computers]
    queue_avg, rate, work = (float(v) for v in point)
    alpha0 = ModuleCostMap._steady_alpha(module_spec, rate, work)
    queues = np.where(alpha0, queue_avg, 0.0).astype(float)
    decision = l1.decide(
        queues, alpha0, rate_hat=rate, rate_next=rate, delta=0.0, work=work
    )
    alpha = decision.alpha.astype(bool)
    gamma = decision.gamma
    serving = alpha & alpha0
    draining = ~alpha & alpha0
    booting = alpha & ~alpha0
    switch_ons = int(booting.sum())
    total_cost = l1.params.switching_weight * switch_ons
    for _ in range(l1.substep_count()):
        for j, controller in enumerate(l0s):
            if draining[j] and seen is not None:
                seen.add("draining-busy" if queues[j] > 1e-9 else "draining-idle")
            if serving[j] or (draining[j] and queues[j] > 1e-9):
                local_rate = gamma[j] * rate if serving[j] else 0.0
                rates = np.full(l0_params.horizon, local_rate)
                freq = controller.decide(queues[j], rates, work)
                phi = float(controller.phis[freq.frequency_index])
                next_q, response, power = controller.model.predict(
                    queues[j], local_rate, work, phi, l0_params.period
                )
                total_cost += float(controller.cost.evaluate(response, power))
                queues[j] = float(next_q)
            elif booting[j]:
                if seen is not None:
                    seen.add("booting")
                total_cost += module_spec.computers[j].base_power
    return total_cost, float(queues.mean())


def _assert_bitwise(outputs, expected):
    """Every trained output row equals the oracle's, bit for bit."""
    assert len(outputs) == len(expected)
    for output, want in zip(outputs, expected):
        assert np.array(output).tobytes() == np.array(want, dtype=float).tobytes()


def _levels(low, high, max_size):
    """Strictly increasing grid levels drawn from ``[low, high]``."""
    return st.lists(
        st.floats(low, high, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=max_size,
        unique=True,
    ).map(sorted)


def _check_behavior_grid(spec, l0_params, queues, rates, works):
    trained = ComputerBehaviorMap.train(
        spec,
        l0_params,
        queue_levels=np.array(queues),
        rate_levels=np.array(rates),
        work_levels=np.array(works),
    )
    substeps = round(120.0 / l0_params.period)
    # The table's rows are the grid's cells in row-major order.
    points = list(trained.table.quantizer.grid_points())
    assert len(trained.table.rows) == len(points)
    _assert_bitwise(
        trained.table.rows,
        [_reference_behavior_cell(spec, l0_params, substeps, p) for p in points],
    )


#: Behaviour-map queue levels past the default 640: at 2,560 queued
#: requests the L1 finds it worth booting a machine, which on the
#: default grid it never does.
_DEEP_QUEUES = np.array(
    [0.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 2560.0, 10240.0, 40960.0]
)

_MAPS: "dict[tuple, list[ComputerBehaviorMap]]" = {}


def _behavior_maps(module_spec, l0_params):
    """The module's deep-queue behaviour maps, trained once per test run."""
    key = (module_spec, l0_params)
    if key not in _MAPS:
        _MAPS[key] = [
            ComputerBehaviorMap.train(c, l0_params, queue_levels=_DEEP_QUEUES)
            for c in module_spec.computers
        ]
    return _MAPS[key]


def _check_module_grid(module_spec, l0_params, queues, rates, works, seen=None):
    l1_params = L1Params()
    behavior_maps = _behavior_maps(module_spec, l0_params)
    grid = ModuleCostMap.training_grid(
        module_spec,
        queue_levels=np.array(queues),
        rate_levels=np.array(rates),
        work_levels=np.array(works),
    )
    points = list(grid.grid_points())
    assert points == list(GridQuantizer([queues, rates, works]).grid_points())
    outputs = _module_training_grid(
        module_spec, behavior_maps, l1_params, l0_params, points
    )
    expected = [
        _reference_module_cell(
            module_spec, behavior_maps, l1_params, l0_params, p, seen
        )
        for p in points
    ]
    _assert_bitwise(outputs, expected)


#: c1 has 5 settings and pentium_m 10, so a bank of both pads c1's rows.
_MIXED = paper_module_spec(profiles=("c1", "pentium_m", "c3"))


class TestBehaviorGrid:
    @settings(max_examples=30, deadline=None)
    @given(
        processor=st.sampled_from(["c1", "c4", "pentium_m"]),
        horizon=st.sampled_from([2, 3]),
        margin=st.sampled_from([0.0, 0.1]),
        queues=_levels(0.0, 700.0, 4),
        # Full speed serves 80 (c1) to 91 (pentium_m) requests/s at
        # 17.5 ms, so the top of the range overloads every processor.
        rates=_levels(0.0, 250.0, 4),
        works=_levels(0.008, 0.03, 3),
    )
    def test_matches_the_per_cell_loop(
        self, processor, horizon, margin, queues, rates, works
    ):
        spec = ComputerSpec(name="C", processor=processor_profile(processor))
        l0_params = L0Params(horizon=horizon, robustness_margin=margin)
        _check_behavior_grid(spec, l0_params, queues, rates, works)

    def test_a_block_remainder_matches(self, monkeypatch):
        # 3 x 3 x 2 = 18 cells of 10-setting rows: a 16-row block and a
        # 2-row remainder per substep.
        calls = []
        decide_many = L0BankKernel.decide_many

        def spy(self, indices, *args):
            calls.append(len(indices))
            return decide_many(self, indices, *args)

        monkeypatch.setattr(L0BankKernel, "decide_many", spy)
        spec = ComputerSpec(name="C", processor=processor_profile("pentium_m"))
        _check_behavior_grid(
            spec, L0Params(), [0.0, 40.0, 640.0], [10.0, 60.0, 120.0], [0.012, 0.023]
        )
        assert calls == [16, 2] * 4

    def test_default_grid_matches(self):
        spec = ComputerSpec(name="C", processor=processor_profile("c2"))
        trained = ComputerBehaviorMap.train(spec)
        quantizer = trained.table.quantizer
        assert quantizer.cell_count == 360
        for point, indices in zip(quantizer.grid_points(), quantizer.grid_indices()):
            want = _reference_behavior_cell(spec, L0Params(), 4, point)
            got = table_cell(trained.table, indices)
            assert np.array(got).tobytes() == np.array(want).tobytes()


class TestModuleGrid:
    @settings(max_examples=12, deadline=None)
    @given(
        margin=st.sampled_from([0.0, 0.1]),
        queues=_levels(0.0, 5000.0, 3),
        # The module serves about 230 requests/s at full speed; its
        # computers' behaviour maps are trained to 1.4x their own
        # capacity, so the top of the range queries past them.
        rates=_levels(0.0, 600.0, 4),
        works=_levels(0.01, 0.03, 2),
    )
    def test_matches_the_per_cell_loop(self, margin, queues, rates, works):
        l0_params = L0Params(robustness_margin=margin)
        _check_module_grid(_MIXED, l0_params, queues, rates, works)

    @pytest.mark.parametrize("margin", [0.0, 0.1])
    def test_every_branch_matches(self, monkeypatch, margin):
        # One grid that boots, drains a busy and an idle machine,
        # queries behaviour maps past their trained rates and runs its
        # c1, c3 and pentium_m rows in bank calls of one setting count
        # each, in blocks sized by that count, full ones and a remainder.
        calls, saturated = [], Counter()
        decide_many = L0BankKernel.decide_many
        rollout = l1_module._MapBank._saturated_rollout

        def spy(self, indices, *args):
            calls.append((len(indices), {self.controllers[i].phis.size for i in indices}))
            return decide_many(self, indices, *args)

        def count_rollout(self, computers, *args):
            saturated["points"] += len(computers)
            return rollout(self, computers, *args)

        monkeypatch.setattr(L0BankKernel, "decide_many", spy)
        monkeypatch.setattr(l1_module._MapBank, "_saturated_rollout", count_rollout)
        seen = set()
        _check_module_grid(
            _MIXED,
            L0Params(robustness_margin=margin),
            [0.0, 30.0, 2560.0],
            [0.0, 40.0, 120.0, 450.0],
            [0.012, 0.0175],
            seen,
        )
        assert seen == {"booting", "draining-busy", "draining-idle"}
        assert saturated["points"] > 0
        assert all(len(widths) == 1 for _, widths in calls)
        assert {width for _, (width,) in calls} == {5, 6, 10}


class TestSubstepBlocks:
    def test_blocks_hold_one_setting_count_sized_by_it(self, monkeypatch):
        # Rows computer by computer, as the grids hand them: pentium_m
        # (10 settings: blocks of 16 under the cap), c1 (5 settings:
        # blocks of 256), pentium_m again. Each row equals one scalar
        # substep on a fresh controller, bit for bit.
        specs = [ComputerSpec(name=p, processor=processor_profile(p)) for p in ("c1", "pentium_m")]
        bank = L0BankKernel([L0Controller(spec) for spec in specs])
        calls = []
        decide_many = L0BankKernel.decide_many

        def spy(self, indices, *args):
            calls.append((sorted({self.controllers[i].phis.size for i in indices}), len(indices)))
            return decide_many(self, indices, *args)

        monkeypatch.setattr(L0BankKernel, "decide_many", spy)
        indices = np.array([1] * 40 + [0] * 300 + [1] * 20)
        rng = np.random.default_rng(3)
        queues = rng.uniform(0.0, 300.0, indices.size)
        rates = rng.uniform(0.0, 80.0, indices.size)
        works = rng.choice([0.012, 0.0175], indices.size)
        costs, next_queues = l1_module._l0_substep(bank, indices, queues, rates, works)
        assert calls == [
            ([10], 16), ([10], 16), ([10], 8), ([5], 256), ([5], 44), ([10], 16), ([10], 4)
        ]
        for index, queue, rate, work, cost, next_queue in zip(
            indices, queues, rates, works, costs, next_queues
        ):
            want = _reference_behavior_cell(specs[index], L0Params(), 1, (queue, rate, work))
            assert (cost.hex(), next_queue.hex()) == tuple(float(v).hex() for v in want)


class TestTrainingCounts:
    """One fig6 module grid: what the lockstep trainer builds and calls.

    Before lockstep training, each of the grid's 192 cells built its own
    L1, so 192 neighbourhood plans, and made 2,108 scalar L0 decisions;
    one behaviour grid made 1,440 (360 cells x 4 substeps).
    """

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()

        def count(owner, name, rows=False):
            original = getattr(owner, name)

            def counted(self, *args, **kwargs):
                counts[name] += 1
                if rows:
                    counts["rows"] += len(args[0])
                return original(self, *args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(L1Controller, "_neighbourhood")
        count(L0Controller, "decide")
        count(L0BankKernel, "decide_many", rows=True)
        return counts

    def test_one_fig6_module_grid(self, counts):
        scenario = get_scenario("paper/fig6-cluster16")
        l0_params, l1_params, _ = resolve_control_params(scenario)
        module_spec = scenario.plant.build().modules[0]
        behavior_maps = MapProvider().behavior_maps(
            module_spec, l0_params, l1_params
        )
        counts.clear()
        ModuleCostMap.train(module_spec, behavior_maps, l1_params, l0_params)
        assert counts["_neighbourhood"] == 4
        assert counts["decide"] == 0
        assert counts["rows"] == 2108

    def test_one_behavior_grid(self, counts):
        spec = ComputerSpec(name="C", processor=processor_profile("c1"))
        ComputerBehaviorMap.train(spec)
        assert counts["decide"] == 0
        assert counts["rows"] == 1440
