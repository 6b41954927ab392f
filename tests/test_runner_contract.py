"""The one contract of both runners: solver.run and blowup1d.run_stream_slope."""

import numpy as np
import pytest

from dpmflow import (DiagnosticsRecord, Domain, PhysicalField, Regularization, RunResult,
                     SimulationState, SolverParams, StreamRecord, StreamSlopeState,
                     random_field, run, run_stream_slope)
from dpmflow.blowup1d import _StreamOps
from dpmflow.solver import _Integrator


def dpm_run(on_sample):
    params = SolverParams(nu=0.1, alpha=1.5, dt=0.01, t_end=0.05)
    return run(random_field(Domain((16, 16)), seed=3), params, sample_every=0.02,
               p_list=(2.0,), on_sample=on_sample)


def stream_run(on_sample):
    d = Domain((32,))
    return run_stream_slope(PhysicalField(d, np.cos(d.grid[0])), Regularization(), dt=1e-3,
                            t_end=0.05, sample_every=0.02, on_sample=on_sample)


@pytest.mark.parametrize("runner, ops, state_type, record_type", [
    (dpm_run, _Integrator, SimulationState, DiagnosticsRecord),
    (stream_run, _StreamOps, StreamSlopeState, StreamRecord)])
def test_each_runner_keeps_the_one_contract(monkeypatch, runner, ops, state_type, record_type):
    events = []
    advance = ops.advance
    monkeypatch.setattr(ops, "advance",
                        lambda self, *a, **kw: events.append("step") or advance(self, *a, **kw))
    calls = []

    def on_sample(*args):
        events.append("sample")
        calls.append(args)

    result = runner(on_sample)
    assert isinstance(result, RunResult)
    # the first call comes before the first step, and each is (state, record)
    assert events[0] == "sample" and "step" in events
    assert len(calls) == len(result.records) == 4  # t = 0, 0.02, 0.04 and t_end
    for (state, record), kept in zip(calls, result.records):
        assert isinstance(state, state_type) and isinstance(record, record_type)
        assert record is kept
        assert state.t == record.t
        if state_type is StreamSlopeState:
            assert state.g == record.g
