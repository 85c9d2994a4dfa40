import email.utils
import json
import math
import os
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from macm.backend import (
    ChatMessage,
    ChatRequest,
    HttpBackend,
    QueryCounter,
    ReplayBackend,
    RecordingBackend,
    ScriptedBackend,
    ScriptEntry,
    record,
    replay,
)
from macm.domain import SamplingParams
from macm.errors import (
    BackendFailure,
    CassetteExhausted,
    CassetteMismatch,
    ScriptExhausted,
    ScriptMismatch,
)

import macm.backend


def request(content="hi", n=1, system=None):
    messages = []
    if system:
        messages.append(ChatMessage("system", system))
    messages.append(ChatMessage("user", content))
    return ChatRequest(messages=tuple(messages), sampling=SamplingParams(n=n))


class TestChatTypes:
    def test_system_only_at_position_zero(self):
        with pytest.raises(ValueError):
            ChatRequest(messages=(ChatMessage("user", "a"), ChatMessage("system", "b")),
                        sampling=SamplingParams())

    def test_empty_content_only_for_assistant(self):
        ChatMessage("assistant", "")
        with pytest.raises(ValueError):
            ChatMessage("user", "")

    def test_request_needs_messages(self):
        with pytest.raises(ValueError):
            ChatRequest(messages=(), sampling=SamplingParams())


class TestScriptedBackend:
    def test_passthrough(self):
        backend = ScriptedBackend({"judge": [ScriptEntry("True")]})
        response = backend.complete(request(), "judge")
        assert response.choices == ("True",)

    def test_exhaustion(self):
        backend = ScriptedBackend({"judge": []})
        with pytest.raises(ScriptExhausted):
            backend.complete(request(), "judge")

    def test_unknown_role_is_exhausted(self):
        backend = ScriptedBackend({})
        with pytest.raises(ScriptExhausted):
            backend.complete(request(), "thinker")

    def test_expected_substring_mismatch(self):
        backend = ScriptedBackend(
            {"judge": [ScriptEntry("True", expect_substring="the candidate")]})
        with pytest.raises(ScriptMismatch):
            backend.complete(request("something else"), "judge")

    def test_counter_one_request_n_choices(self):
        counter = QueryCounter()
        backend = ScriptedBackend({"solver": [ScriptEntry("ok")]}, counter=counter)
        response = backend.complete(request(n=3), "solver")
        assert len(response.choices) == 3
        assert counter.requests == 1
        assert counter.choices == 3

    def test_queues_consumed_in_order(self):
        backend = ScriptedBackend({"judge": [ScriptEntry("True"), ScriptEntry("False")]})
        assert backend.complete(request(), "judge").text == "True"
        assert backend.complete(request(), "judge").text == "False"


class TestRecordReplay:
    def test_round_trip(self, tmp_path):
        cassette = tmp_path / "run.jsonl"
        inner = ScriptedBackend({"judge": [ScriptEntry("True"), ScriptEntry("False")]})
        recorder = record(inner, cassette)
        first = recorder.complete(request("q1"), "judge")
        second = recorder.complete(request("q2"), "judge")

        player = replay(cassette)
        assert player.complete(request("q1"), "judge").choices == first.choices
        assert player.complete(request("q2"), "judge").choices == second.choices

    def test_prompt_mismatch(self, tmp_path):
        cassette = tmp_path / "run.jsonl"
        inner = ScriptedBackend({"judge": [ScriptEntry("True")]})
        record(inner, cassette).complete(request("original"), "judge")
        with pytest.raises(CassetteMismatch):
            replay(cassette).complete(request("altered"), "judge")

    def test_whitespace_insensitive_match(self, tmp_path):
        cassette = tmp_path / "run.jsonl"
        inner = ScriptedBackend({"judge": [ScriptEntry("True")]})
        record(inner, cassette).complete(request("a  b"), "judge")
        assert replay(cassette).complete(request("a b"), "judge").text == "True"

    def test_exhaustion(self, tmp_path):
        cassette = tmp_path / "run.jsonl"
        inner = ScriptedBackend({"judge": [ScriptEntry("True"), ScriptEntry("False")]})
        recorder = record(inner, cassette)
        recorder.complete(request("q1"), "judge")
        recorder.complete(request("q2"), "judge")
        player = replay(cassette)
        player.complete(request("q1"), "judge")
        player.complete(request("q2"), "judge")
        with pytest.raises(CassetteExhausted):
            player.complete(request("q3"), "judge")

    def test_role_mismatch(self, tmp_path):
        cassette = tmp_path / "run.jsonl"
        record(ScriptedBackend({"judge": [ScriptEntry("True")]}),
               cassette).complete(request("q"), "judge")
        with pytest.raises(CassetteMismatch):
            replay(cassette).complete(request("q"), "thinker")

    def test_skip_calls_resumes_midway(self, tmp_path):
        cassette = tmp_path / "run.jsonl"
        inner = ScriptedBackend({"judge": [ScriptEntry("one"), ScriptEntry("two")]})
        recorder = record(inner, cassette)
        recorder.complete(request("q1"), "judge")
        recorder.complete(request("q2"), "judge")
        player = replay(cassette, skip_calls=1)
        assert player.complete(request("q2"), "judge").text == "two"

    @pytest.mark.parametrize("replayed", ["a  b\tc", "a b c", " a\u3000b\n\nc\u2028"])
    def test_exact_or_whitespace_equal_prompt_accepted(self, tmp_path, replayed):
        cassette = tmp_path / "run.jsonl"
        record(ScriptedBackend({"judge": [ScriptEntry("True")]}),
               cassette).complete(request("a  b\tc"), "judge")
        assert replay(cassette).complete(request(replayed), "judge").text == "True"

    def test_identical_prompt_is_not_normalised(self, tmp_path, monkeypatch):
        cassette = tmp_path / "run.jsonl"
        record(ScriptedBackend({"judge": [ScriptEntry("True")]}),
               cassette).complete(request("a  b"), "judge")

        def fail(text):
            raise AssertionError("normalised an identical prompt")

        monkeypatch.setattr(macm.backend, "normalize_condition_text", fail)
        assert replay(cassette).complete(request("a  b"), "judge").text == "True"

    def test_non_whitespace_difference_message(self, tmp_path):
        cassette = tmp_path / "run.jsonl"
        record(ScriptedBackend({"judge": [ScriptEntry("True")]}),
               cassette).complete(request("a  b"), "judge")
        with pytest.raises(CassetteMismatch) as info:
            replay(cassette).complete(request("a  c"), "judge")
        assert str(info.value) == f"cassette {cassette} entry 0: prompt differs from recording"

    def test_choice_count_mismatch(self, tmp_path):
        cassette = tmp_path / "run.jsonl"
        record(ScriptedBackend({"solver": [ScriptEntry("ok")]}),
               cassette).complete(request("q", n=3), "solver")
        with pytest.raises(CassetteMismatch) as info:
            replay(cassette).complete(request("q", n=1), "solver")
        assert str(info.value) == f"cassette {cassette} entry 0: n=1 != recorded n=3"
        assert replay(cassette).complete(request("q", n=3), "solver").choices == ("ok",) * 3

    def test_cassette_lines_are_json_dumps_bytes(self, tmp_path):
        cassette = tmp_path / "run.jsonl"
        inner = ScriptedBackend({"judge": [ScriptEntry("Vrai ✓"), ScriptEntry("False")]})
        recorder = record(inner, cassette)
        calls = [(request("ça fait π ≈ 3.14 — 数学", system="sys"), "judge"),
                 (request("q2", n=2), "judge")]
        expected = b""
        for seq, (req, role) in enumerate(calls):
            response = recorder.complete(req, role)
            line = macm.backend._cassette_line(seq, role, req, response)
            expected += (json.dumps(line, ensure_ascii=False) + "\n").encode("utf-8")
        assert cassette.read_bytes() == expected

    def test_new_recorder_starts_the_cassette_empty(self, tmp_path):
        cassette = tmp_path / "run.jsonl"
        first = record(ScriptedBackend({"judge": [ScriptEntry("True")]}), cassette)
        first.complete(request("q1"), "judge")
        second = record(ScriptedBackend({"judge": [ScriptEntry("False")]}), cassette)
        assert cassette.read_bytes() == b""
        second.complete(request("q2"), "judge")
        entries = [json.loads(line) for line in cassette.read_text().splitlines()]
        assert [(e["seq"], e["choices"]) for e in entries] == [(0, ["False"])]

    def test_cassette_schema(self, tmp_path):
        cassette = tmp_path / "run.jsonl"
        record(ScriptedBackend({"judge": [ScriptEntry("True")]}),
               cassette).complete(request("q", system="sys"), "judge")
        entry = json.loads(cassette.read_text().strip())
        assert set(entry) == {"seq", "role", "request_messages", "sampling",
                              "choices", "tokens_in", "tokens_out"}
        assert entry["seq"] == 0
        assert entry["role"] == "judge"
        assert entry["request_messages"][0] == {"role": "system", "content": "sys"}


# ---------------------------------------------------------------------------
# Live wire client against a local stub server
# ---------------------------------------------------------------------------

class _StubHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 keep-alive chat-completions stub that counts connections."""

    protocol_version = "HTTP/1.1"
    # Class-level script: list of (status, body_dict_or_None[, headers]) consumed
    # per request.
    script = []
    seen = []
    opened = []   # one entry per accepted connection
    dropped = []  # one entry per connection closed by drop_after_response
    # Close each connection after one response, without announcing it, as a
    # server dropping an idle keep-alive connection does.
    drop_after_response = False

    def setup(self):
        super().setup()
        type(self).opened.append(self.client_address)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).seen.append({"path": self.path, "body": body,
                                "auth": self.headers.get("Authorization")})
        status, payload, *extra = type(self).script.pop(0)
        if payload is None:
            n = body.get("n", 1)
            payload = {
                "choices": [{"message": {"content": f"choice-{i}"}} for i in range(n)],
                "usage": {"prompt_tokens": 7, "completion_tokens": 3},
            }
        data = json.dumps(payload).encode()
        headers = {"Content-Type": "application/json", "Content-Length": str(len(data)),
                   **(extra[0] if extra else {})}
        head = f"HTTP/1.1 {status} {self.responses[status][0]}\r\n" + "".join(
            f"{name}: {value}\r\n" for name, value in headers.items()) + "\r\n"
        # One write per response: split writes stall a keep-alive client on
        # delayed ACKs.
        self.wfile.write(head.encode("latin-1") + data)
        if type(self).drop_after_response:
            self.connection.shutdown(socket.SHUT_WR)
            type(self).dropped.append(self.client_address)
            self.close_connection = True

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    # A short poll interval keeps shutdown() from waiting half a second per test.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.02},
                              daemon=True)
    thread.start()
    _StubHandler.script = []
    _StubHandler.seen = []
    _StubHandler.opened = []
    _StubHandler.dropped = []
    _StubHandler.drop_after_response = False
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture
def no_sleep(monkeypatch):
    """Skip backoff waits; returns the list of durations asked for."""
    slept = []
    monkeypatch.setattr(macm.backend.time, "sleep", slept.append)
    return slept


def _backend(server, **kwargs):
    host, port = server.server_address
    return HttpBackend(base_url=f"http://{host}:{port}", api_key="test-key",
                       model="test-model", **kwargs)


_real_sleep = time.sleep  # no_sleep patches time.sleep itself


def _wait_for(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        _real_sleep(0.005)


class TestHttpBackend:
    def test_n_choices_one_request(self, stub_server):
        _StubHandler.script = [(200, None)]
        counter = QueryCounter()
        backend = _backend(stub_server, counter=counter)
        response = backend.complete(request("hello", n=3), "thinker")
        assert len(response.choices) == 3
        assert counter.requests == 1
        assert counter.choices == 3
        assert response.tokens_in == 7
        assert response.tokens_out == 3

    def test_wire_format(self, stub_server):
        _StubHandler.script = [(200, None)]
        backend = _backend(stub_server)
        backend.complete(request("hello", system="be brief"), "judge")
        seen = _StubHandler.seen[0]
        assert seen["path"] == "/v1/chat/completions"
        assert seen["auth"] == "Bearer test-key"
        assert seen["body"]["model"] == "test-model"
        assert seen["body"]["messages"] == [
            {"role": "system", "content": "be brief"},
            {"role": "user", "content": "hello"},
        ]
        assert "top_k" not in seen["body"]
        assert seen["body"]["temperature"] == 0.7
        assert seen["body"]["max_tokens"] == 512
        assert seen["body"]["n"] == 1

    def test_retries_on_429_then_succeeds(self, stub_server, no_sleep):
        _StubHandler.script = [(429, {"error": "slow down"}), (200, None)]
        backend = _backend(stub_server)
        response = backend.complete(request(), "thinker")
        assert response.choices
        assert len(_StubHandler.seen) == 2

    def test_no_retry_on_auth_error(self, stub_server, no_sleep):
        _StubHandler.script = [(401, {"error": "bad key"})]
        backend = _backend(stub_server)
        with pytest.raises(BackendFailure):
            backend.complete(request(), "thinker")
        assert len(_StubHandler.seen) == 1

    def test_gives_up_after_retries(self, stub_server, no_sleep):
        _StubHandler.script = [(503, {"error": "down"})] * 4
        backend = _backend(stub_server)
        with pytest.raises(BackendFailure):
            backend.complete(request(), "thinker")
        assert len(_StubHandler.seen) == 4

    def test_top_k_warning_once(self, stub_server):
        _StubHandler.script = [(200, None), (200, None)]
        backend = _backend(stub_server)
        req = ChatRequest(messages=(ChatMessage("user", "x"),),
                          sampling=SamplingParams(top_k=2))
        with pytest.warns(UserWarning):
            backend.complete(req, "thinker")
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            backend.complete(req, "thinker")

    def test_missing_configuration(self, monkeypatch):
        for var in ("MACM_BASE_URL", "MACM_API_KEY", "MACM_MODEL"):
            monkeypatch.delenv(var, raising=False)
        with pytest.raises(BackendFailure):
            HttpBackend()

    @pytest.mark.parametrize("status", [429, 503])
    @pytest.mark.parametrize("retry_after, slept", [
        (None, 1),
        ("5", 5),
        ("0", 1),
        ("3600", macm.backend.MAX_RETRY_AFTER_S),
        ("Wed, 21 Oct 2015 07:28:00 GMT", 1),
        ("Fri, 01 Jan 2100 00:00:00 GMT", macm.backend.MAX_RETRY_AFTER_S),
        ("soon", 1),
    ])
    def test_retry_after_seconds(self, stub_server, no_sleep, status, retry_after, slept):
        headers = {} if retry_after is None else {"Retry-After": retry_after}
        _StubHandler.script = [(status, {"error": "busy"}, headers), (200, None)]
        counter = QueryCounter()
        backend = _backend(stub_server, counter=counter)
        assert backend.complete(request(), "thinker").choices
        assert no_sleep == [slept]
        assert counter.requests == 1

    def test_retry_after_http_date(self, stub_server, no_sleep):
        # At least 2 s ahead: HTTP dates have whole seconds.
        date = email.utils.formatdate(math.ceil(time.time()) + 2, usegmt=True)
        _StubHandler.script = [(503, {"error": "busy"}, {"Retry-After": date}), (200, None)]
        assert _backend(stub_server).complete(request(), "thinker").choices
        assert len(no_sleep) == 1
        assert 1.5 < no_sleep[0] <= 3

    def test_retry_after_applies_to_the_next_wait_only(self, stub_server, no_sleep):
        _StubHandler.script = [(429, {}, {"Retry-After": "7"}), (503, {}), (200, None)]
        _backend(stub_server).complete(request(), "thinker")
        assert no_sleep == [7, 2]


class TestHttpKeepAlive:
    def test_sequential_calls_share_one_connection(self, stub_server):
        calls = 5
        _StubHandler.script = [(200, None)] * calls
        counter = QueryCounter()
        backend = _backend(stub_server, counter=counter)
        for _ in range(calls):
            assert backend.complete(request(), "thinker").choices
        assert len(_StubHandler.opened) == 1
        assert len(_StubHandler.seen) == calls
        assert counter.requests == calls

    @pytest.mark.parametrize("threads", [2, 8])
    def test_one_connection_per_thread(self, stub_server, threads):
        calls = 10
        _StubHandler.script = [(200, None)] * (threads * calls)
        counter = QueryCounter()
        backend = _backend(stub_server, counter=counter)
        start = threading.Barrier(threads)
        results = []

        def work():
            start.wait(timeout=10)
            for _ in range(calls):
                results.append(backend.complete(request(), "thinker").text)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=work) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert results == ["choice-0"] * (threads * calls)
        assert len(_StubHandler.opened) == threads
        assert counter.requests == threads * calls

    def test_call_after_server_dropped_idle_connection(self, stub_server, no_sleep):
        calls = 3
        _StubHandler.script = [(200, None)] * calls
        _StubHandler.drop_after_response = True
        counter = QueryCounter()
        backend = _backend(stub_server, counter=counter)
        for i in range(calls):
            assert backend.complete(request(), "thinker").choices
            _wait_for(lambda: len(_StubHandler.dropped) == i + 1)
        assert len(_StubHandler.opened) == calls
        assert counter.requests == calls

    def test_environment_proxy_is_honoured(self, stub_server, monkeypatch, no_sleep):
        host, port = stub_server.server_address
        for var in ("http_proxy", "NO_PROXY", "no_proxy", "ALL_PROXY", "all_proxy"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("HTTP_PROXY", f"http://{host}:{port}")
        # The backend's own host never resolves, so only a proxied request
        # can reach the stub.
        resolve = socket.getaddrinfo

        def getaddrinfo(name, *args, **kwargs):
            if name == "macm-backend.invalid":
                raise socket.gaierror(socket.EAI_NONAME, "unresolvable")
            return resolve(name, *args, **kwargs)

        monkeypatch.setattr(socket, "getaddrinfo", getaddrinfo)
        _StubHandler.script = [(200, None)]
        backend = HttpBackend(base_url="http://macm-backend.invalid", api_key="test-key",
                              model="test-model")
        assert backend.complete(request(), "thinker").choices
        assert _StubHandler.seen[0]["path"] == \
            "http://macm-backend.invalid/v1/chat/completions"


def test_import_leaves_requests_unloaded():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # The thread pool and the HTTP-date parser are imported lazily too.
    code = ("import sys, macm, macm.cli, macm.harness; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('requests', 'concurrent', 'email')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
