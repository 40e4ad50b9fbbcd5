"""Protocol round trips and framing fuzz for the service wire format."""

from __future__ import annotations

import json
import struct

import pytest

from repro.core.backends import SimPolicy
from repro.core.detection import Detection
from repro.core.faults import (
    NodeStuckFault,
    OpenFault,
    ShortFault,
    TransistorStuckFault,
)
from repro.core.report import PatternRecord, RunReport
from repro.errors import (
    FaultError,
    NetlistFormatError,
    PatternError,
    SimulationError,
)
from repro.patterns.clocking import Phase, TestPattern
from repro.service import protocol
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    CancelledFrame,
    CancelRequest,
    DoneFrame,
    ErrorFrame,
    FrameReader,
    JobSpec,
    PatternFrame,
    PingRequest,
    PongFrame,
    ProtocolError,
    StartedFrame,
    StatusFrame,
    StatusRequest,
    SubmitRequest,
    SubmittedFrame,
    circuit_fingerprint,
    decode_payload,
    encode_frame,
    parse_request,
    parse_response,
)

NETLIST = "n a\nn b\n"

FAULTS = (
    NodeStuckFault("a", 0),
    NodeStuckFault("b", 1),
    TransistorStuckFault("t1", closed=True),
    TransistorStuckFault("t2", closed=False),
    ShortFault("a", "b"),
    OpenFault("a", ("t1", "t2")),
)

PATTERNS = (
    TestPattern("p0", (Phase({"a": 1}), Phase({"a": 0}, observe=False))),
    TestPattern("p1", (Phase({"a": 1, "b": 0}),)),
)


def make_job(**overrides) -> JobSpec:
    fields = dict(
        netlist=NETLIST,
        observed=("out",),
        faults=FAULTS,
        patterns=PATTERNS,
        policy=SimPolicy(detection_policy="any", drop_on_detect=False,
                         max_rounds=77, clock="perf"),
        backend="batch",
        options={"locality": "compiled"},
    )
    fields.update(overrides)
    return JobSpec(**fields)


def make_report() -> RunReport:
    report = RunReport(n_faults=3, backend="concurrent")
    report.patterns = [
        PatternRecord(index=0, label="p0", seconds=0.25, detections=1,
                      live_after=2),
        PatternRecord(index=1, label="p1", seconds=0.125, detections=0,
                      live_after=2),
    ]
    report.log.record(
        Detection(circuit_id=2, description="node a stuck-at-0",
                  pattern_index=0, phase_index=1, node="out",
                  good_state=1, faulty_state=0)
    )
    report.total_seconds = 0.375
    report.oscillation_events = 1
    report.shard_seconds = [0.5, 0.25]
    report.solve_cache = {"hits": 10, "misses": 2, "hit_rate": 10 / 12}
    return report


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


class TestFraming:
    def test_encode_decode_round_trip(self):
        frame = encode_frame({"type": "ping", "extra": [1, 2, {"k": "v"}]})
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        payload = decode_payload(frame[4:])
        assert payload["type"] == "ping"
        assert payload["v"] == PROTOCOL_VERSION
        assert payload["extra"] == [1, 2, {"k": "v"}]

    def test_version_is_checked(self):
        data = json.dumps({"v": 999, "type": "ping"}).encode()
        with pytest.raises(ProtocolError, match="version"):
            decode_payload(data)
        with pytest.raises(ProtocolError, match="version"):
            decode_payload(json.dumps({"type": "ping"}).encode())

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError, match="object"):
            decode_payload(b"[1, 2, 3]")

    def test_garbage_payload_rejected(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_payload(b"\xff\xfe not json")

    def test_reader_single_frame(self):
        reader = FrameReader()
        frames = reader.feed(encode_frame({"type": "ping"}))
        assert [f["type"] for f in frames] == ["ping"]
        assert reader.buffered == 0

    def test_reader_byte_at_a_time(self):
        """A frame fed one byte at a time decodes exactly once."""
        reader = FrameReader()
        data = encode_frame({"type": "status", "job_id": "job-1"})
        collected = []
        for index in range(len(data)):
            collected.extend(reader.feed(data[index:index + 1]))
        assert len(collected) == 1
        assert collected[0]["job_id"] == "job-1"

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 5, 7, 11, 64])
    def test_reader_chunking_fuzz(self, chunk_size):
        """Back-to-back frames survive every deterministic chunking."""
        payloads = [{"type": "ping", "n": n} for n in range(5)]
        data = b"".join(encode_frame(p) for p in payloads)
        reader = FrameReader()
        collected = []
        for start in range(0, len(data), chunk_size):
            collected.extend(reader.feed(data[start:start + chunk_size]))
        assert [p["n"] for p in collected] == [0, 1, 2, 3, 4]
        assert reader.buffered == 0

    def test_reader_truncated_frame_is_incomplete_not_crash(self):
        """A truncated tail stays buffered; nothing is yielded for it."""
        whole = encode_frame({"type": "ping"})
        reader = FrameReader()
        assert reader.feed(whole + whole[: len(whole) // 2]) != []
        assert reader.buffered == len(whole) // 2
        # Completing the tail releases the second frame.
        assert reader.feed(whole[len(whole) // 2:])[0]["type"] == "ping"

    def test_reader_oversized_declared_length_rejected(self):
        reader = FrameReader()
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            reader.feed(header + b"x")

    def test_reader_garbage_length_prefix_rejected(self):
        """Random high bytes in the prefix read as a huge length."""
        reader = FrameReader()
        with pytest.raises(ProtocolError, match="exceeds"):
            reader.feed(b"\xff\xff\xff\xff")

    def test_oversized_outgoing_frame_rejected(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"type": "ping", "blob": "y" * 128})


# ---------------------------------------------------------------------------
# value codecs
# ---------------------------------------------------------------------------


class TestValueCodecs:
    @pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.describe())
    def test_fault_round_trip(self, fault):
        wire = protocol.fault_to_wire(fault)
        assert json.loads(json.dumps(wire)) == wire  # JSON-safe
        assert protocol.fault_from_wire(wire) == fault

    def test_fault_unknown_kind(self):
        with pytest.raises(ProtocolError, match="unknown fault kind"):
            protocol.fault_from_wire({"kind": "meltdown"})

    def test_fault_missing_field(self):
        with pytest.raises(ProtocolError, match="missing field"):
            protocol.fault_from_wire({"kind": "node-stuck", "node": "a"})

    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.label)
    def test_pattern_round_trip(self, pattern):
        wire = protocol.pattern_to_wire(pattern)
        assert protocol.pattern_from_wire(wire) == pattern

    def test_policy_round_trip(self):
        policy = SimPolicy(detection_policy="any", drop_on_detect=False,
                           max_rounds=123, clock="perf")
        assert protocol.policy_from_wire(protocol.policy_to_wire(policy)) \
            == policy

    def test_policy_validation_still_applies(self):
        wire = protocol.policy_to_wire(SimPolicy())
        wire["detection_policy"] = "bogus"
        with pytest.raises(SimulationError):
            protocol.policy_from_wire(wire)

    def test_report_round_trip(self):
        report = make_report()
        wire = protocol.report_to_wire(report)
        assert json.loads(json.dumps(wire)) == wire
        back = protocol.report_from_wire(wire)
        assert back.n_faults == report.n_faults
        assert back.backend == report.backend
        assert back.total_seconds == report.total_seconds
        assert back.oscillation_events == report.oscillation_events
        assert back.shard_seconds == report.shard_seconds
        assert back.solve_cache == report.solve_cache
        assert back.patterns == report.patterns
        assert back.log.detections == report.log.detections
        assert back.detected == report.detected
        assert back.log.first_detection(2) == report.log.first_detection(2)

    def test_fingerprint_is_content_hash(self):
        assert circuit_fingerprint(NETLIST) == circuit_fingerprint(NETLIST)
        assert circuit_fingerprint(NETLIST) != circuit_fingerprint(
            NETLIST + "# comment\n"
        )


# ---------------------------------------------------------------------------
# typed frames
# ---------------------------------------------------------------------------


class TestTypedFrames:
    def test_job_spec_round_trip(self):
        job = make_job()
        wire = job.to_wire()
        assert json.loads(json.dumps(wire)) == wire
        assert JobSpec.from_wire(wire) == job
        assert JobSpec.from_wire(wire).fingerprint == job.fingerprint

    @pytest.mark.parametrize(
        "request_frame",
        [
            SubmitRequest(job=make_job(), stream=False),
            StatusRequest(job_id="job-9"),
            CancelRequest(job_id="job-9"),
            PingRequest(),
        ],
        ids=lambda r: r.type,
    )
    def test_request_round_trip(self, request_frame):
        assert parse_request(request_frame.to_wire()) == request_frame

    @pytest.mark.parametrize(
        "response_frame",
        [
            SubmittedFrame(job_id="job-1", queue_position=3),
            StartedFrame(job_id="job-1", worker=2,
                         fingerprint=circuit_fingerprint(NETLIST),
                         warm=True),
            PatternFrame(
                job_id="job-1",
                record=PatternRecord(index=0, label="p0", seconds=0.5,
                                     detections=1, live_after=4),
                detections=(
                    Detection(circuit_id=1, description="d",
                              pattern_index=0, phase_index=2, node="out",
                              good_state=0, faulty_state=1),
                ),
            ),
            CancelledFrame(job_id="job-1", patterns_completed=7),
            StatusFrame(job_id="job-1", state="running",
                        queue_position=None, patterns_completed=4,
                        detections=2, timings={"queue_seconds": 0.5}),
            ErrorFrame(kind="fault", message="bad fault", job_id="job-1"),
            PongFrame(protocol=PROTOCOL_VERSION, workers=2,
                      backends=("concurrent", "serial")),
        ],
        ids=lambda r: r.type,
    )
    def test_response_round_trip(self, response_frame):
        assert parse_response(response_frame.to_wire()) == response_frame

    def test_done_frame_round_trip(self):
        frame = DoneFrame(job_id="job-1", report=make_report(),
                          timings={"compile_seconds": 0.0,
                                   "simulate_seconds": 1.5})
        back = parse_response(frame.to_wire())
        assert isinstance(back, DoneFrame)
        assert back.job_id == "job-1"
        assert back.timings == frame.timings
        assert back.report.detected == frame.report.detected

    def test_unknown_frame_types_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request"):
            parse_request({"type": "reboot"})
        with pytest.raises(ProtocolError, match="unknown response"):
            parse_response({"type": "confetti"})
        with pytest.raises(ProtocolError, match="no job_id"):
            parse_request({"type": "cancel"})

    def test_submit_without_job_rejected(self):
        with pytest.raises(ProtocolError, match="no job object"):
            parse_request({"type": "submit"})


# ---------------------------------------------------------------------------
# error mapping
# ---------------------------------------------------------------------------


class TestErrorMapping:
    @pytest.mark.parametrize(
        "exc, kind",
        [
            (ProtocolError("x"), "protocol"),
            (NetlistFormatError("x", 3), "netlist"),
            (PatternError("x"), "pattern"),
            (FaultError("x"), "fault"),
            (SimulationError("x"), "simulation"),
            (ValueError("x"), "internal"),
        ],
    )
    def test_kind_of_exception(self, exc, kind):
        assert protocol.error_kind(exc) == kind

    @pytest.mark.parametrize(
        "kind, cls",
        [
            ("protocol", ProtocolError),
            ("netlist", NetlistFormatError),
            ("pattern", PatternError),
            ("fault", FaultError),
            ("simulation", SimulationError),
        ],
    )
    def test_round_trip_through_error_frame(self, kind, cls):
        frame = ErrorFrame(kind=kind, message="boom")
        back = parse_response(frame.to_wire())
        rebuilt = back.to_exception()
        assert isinstance(rebuilt, cls)
        assert "boom" in str(rebuilt)

    def test_unknown_kind_degrades_to_simulation_error(self):
        exc = ErrorFrame(kind="alien", message="boom").to_exception()
        assert isinstance(exc, SimulationError)
        assert "alien" in str(exc)

    def test_from_exception_names_non_library_types(self):
        frame = ErrorFrame.from_exception(ZeroDivisionError("oops"))
        assert frame.kind == "internal"
        assert "ZeroDivisionError" in frame.message

    def test_protocol_error_is_simulation_error(self):
        """The ISSUE contract: protocol failures map onto
        SimulationError so one except clause covers the service."""
        assert issubclass(ProtocolError, SimulationError)
