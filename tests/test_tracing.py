"""Tests for repro.tracing: records, Trace container, serialization."""

import pytest

from repro.common.errors import TraceError
from repro.tracing.records import (
    EventCategory,
    ExecutionThread,
    TraceEvent,
    comm_channel,
    cpu_thread,
    gpu_stream,
)
from repro.tracing.trace import Trace, render_timeline


def make_event(name="k", start=0.0, dur=1.0, thread=None, category=None,
               corr=None):
    return TraceEvent(
        category=category or EventCategory.KERNEL,
        name=name, start_us=start, duration_us=dur,
        thread=thread or gpu_stream(7), correlation_id=corr,
    )


class TestExecutionThread:
    def test_kind_helpers(self):
        assert cpu_thread(0).is_cpu
        assert gpu_stream(7).is_gpu
        assert comm_channel(1).is_comm

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            ExecutionThread("tpu", 0)

    def test_hashable_and_ordered(self):
        threads = {cpu_thread(0), cpu_thread(0), gpu_stream(1)}
        assert len(threads) == 2
        assert sorted([gpu_stream(1), cpu_thread(0)])[0] == cpu_thread(0)

    def test_str(self):
        assert str(gpu_stream(7)) == "gpu_stream:7"


class TestTraceEvent:
    def test_end_us(self):
        assert make_event(start=5.0, dur=2.5).end_us == 7.5

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            make_event(dur=-1.0)

    @pytest.mark.parametrize("field", ["start", "dur"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_times_rejected(self, field, value):
        with pytest.raises(ValueError, match="'k'.*finite"):
            make_event(**{field: value})

    def test_gpu_side_classification(self):
        assert make_event(category=EventCategory.KERNEL).is_gpu_side
        assert make_event(category=EventCategory.MEMCPY).is_gpu_side
        assert not make_event(category=EventCategory.RUNTIME,
                              thread=cpu_thread(0)).is_gpu_side

    def test_dict_roundtrip(self):
        event = TraceEvent(
            category=EventCategory.COMM, name="allreduce", start_us=1.0,
            duration_us=2.0, thread=comm_channel(0), correlation_id=None,
            layer="fc", phase="backward", size_bytes=1024.0,
            metadata={"bucket": 3},
        )
        again = TraceEvent.from_dict(event.to_dict())
        assert again.name == event.name
        assert again.thread == event.thread
        assert again.metadata == {"bucket": 3}
        assert again.phase == "backward"


class TestTrace:
    def test_events_sorted_on_construction(self):
        t = Trace(events=[make_event(start=5.0), make_event(start=1.0)])
        starts = [e.start_us for e in t]
        assert starts == sorted(starts)

    def test_duration(self):
        t = Trace(events=[make_event(start=1.0, dur=2.0),
                          make_event(start=5.0, dur=3.0)])
        assert t.duration_us == 7.0

    def test_empty_trace_has_no_span(self):
        with pytest.raises(TraceError):
            _ = Trace().duration_us

    def test_filters(self):
        events = [
            make_event(category=EventCategory.KERNEL),
            make_event(category=EventCategory.RUNTIME, thread=cpu_thread(0),
                       start=2.0),
        ]
        t = Trace(events=events)
        assert len(t.by_category(EventCategory.KERNEL)) == 1
        assert len(t.by_thread(cpu_thread(0))) == 1
        assert len(t.kernels()) == 1
        assert len(t.threads()) == 2

    def test_find_by_substring(self):
        t = Trace(events=[make_event(name="volta_sgemm_x"),
                          make_event(name="relu", start=2.0)])
        assert len(t.find("sgemm")) == 1

    def test_validate_rejects_overlap_on_thread(self):
        t = Trace(events=[make_event(start=0.0, dur=5.0),
                          make_event(start=2.0, dur=1.0)])
        with pytest.raises(TraceError):
            t.validate()

    def test_validate_allows_overlap_across_threads(self):
        t = Trace(events=[
            make_event(start=0.0, dur=5.0, thread=gpu_stream(1)),
            make_event(start=2.0, dur=5.0, thread=gpu_stream(2)),
        ])
        t.validate()

    def test_validate_rejects_orphan_correlation(self):
        t = Trace(events=[make_event(corr=1)])
        with pytest.raises(TraceError):
            t.validate()

    def test_validate_accepts_correlated_pair(self):
        t = Trace(events=[
            make_event(name="cudaLaunchKernel", start=0.0, dur=1.0,
                       thread=cpu_thread(0), category=EventCategory.RUNTIME,
                       corr=1),
            make_event(name="kernel", start=1.0, dur=1.0, corr=1),
        ])
        t.validate()

    def test_json_roundtrip(self):
        t = Trace(events=[make_event()], metadata={"model": "tiny"})
        again = Trace.from_json(t.to_json())
        assert len(again) == 1
        assert again.metadata["model"] == "tiny"

    def test_from_json_rejects_garbage(self):
        with pytest.raises(TraceError):
            Trace.from_json("{not json")

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_from_json_rejects_non_finite_duration(self, literal):
        text = Trace(events=[make_event(dur=1.5)]).to_json()
        assert '"duration_us": 1.5' in text
        with pytest.raises(ValueError, match="duration_us"):
            Trace.from_json(text.replace('"duration_us": 1.5',
                                         f'"duration_us": {literal}'))

    def test_save_load(self, tmp_path):
        t = Trace(events=[make_event()], metadata={"model": "tiny"})
        path = str(tmp_path / "trace.json")
        t.save(path)
        assert Trace.load(path).metadata == {"model": "tiny"}


class TestRenderTimeline:
    def test_empty(self):
        assert "(empty trace)" in render_timeline(Trace())

    def test_renders_rows_per_thread(self, tiny_trace):
        art = render_timeline(tiny_trace, width=60)
        assert "cpu:0" in art
        assert "gpu_stream:7" in art
        assert "#" in art  # kernels painted

    def test_max_rows(self, tiny_trace):
        art = render_timeline(tiny_trace, width=40, max_rows=1)
        assert "gpu_stream" not in art
