"""Backend-neutral chat-completion access.

Three interchangeable backends share one ``complete()`` entry point:

* ``HttpBackend`` — live OpenAI-compatible wire client with retry/backoff,
* ``ScriptedBackend`` — deterministic per-role reply queues for testing,
* ``RecordingBackend`` / ``ReplayBackend`` — cassette record/replay layer.

Every successful or retry-exhausted ``complete()`` call counts as exactly one
request on the shared :class:`QueryCounter`; a request with ``n`` choices
counts as ``n`` on the choice counter.
"""

from __future__ import annotations

import json
import os
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from .domain import SamplingParams, normalize_condition_text
from .errors import (
    BackendFailure,
    CassetteExhausted,
    CassetteMismatch,
    ScriptExhausted,
    ScriptMismatch,
)

ROLE_SYSTEM = "system"
ROLE_USER = "user"
ROLE_ASSISTANT = "assistant"


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in (ROLE_SYSTEM, ROLE_USER, ROLE_ASSISTANT):
            raise ValueError(f"unknown message role {self.role!r}")
        if not self.content and self.role != ROLE_ASSISTANT:
            raise ValueError("only assistant placeholders may be empty")


@dataclass(frozen=True)
class ChatRequest:
    messages: tuple[ChatMessage, ...]
    sampling: SamplingParams

    def __post_init__(self):
        if not self.messages:
            raise ValueError("request needs at least one message")
        for i, msg in enumerate(self.messages):
            if msg.role == ROLE_SYSTEM and i != 0:
                raise ValueError("system message only allowed at position 0")

    def prompt_text(self) -> str:
        """Flat rendering of all message contents, used for transcripts and
        cassette matching."""
        return "\n".join(m.content for m in self.messages)


@dataclass(frozen=True)
class ChatResponse:
    choices: tuple[str, ...]
    tokens_in: int = 0
    tokens_out: int = 0

    def __post_init__(self):
        if not self.choices:
            raise ValueError("response must carry at least one choice")

    @property
    def text(self) -> str:
        return self.choices[0]


class QueryCounter:
    """Thread-safe request/choice accounting shared by all calls on a backend."""

    def __init__(self):
        self._lock = threading.Lock()
        self.requests = 0
        self.choices = 0

    def record(self, n_choices: int) -> None:
        with self._lock:
            self.requests += 1
            self.choices += n_choices


# ---------------------------------------------------------------------------
# Scripted backend
# ---------------------------------------------------------------------------

@dataclass
class ScriptEntry:
    reply: str
    expect_substring: str | None = None


class ScriptedBackend:
    """Serves pre-written replies from per-role FIFO queues.

    Queues are consumed strictly in order; consuming past the end raises
    :class:`ScriptExhausted`. Entries may assert that the incoming prompt
    contains an expected substring.
    """

    def __init__(self, roles: dict[str, list[ScriptEntry]], counter: QueryCounter | None = None):
        self._queues = {role: list(entries) for role, entries in roles.items()}
        self._cursor = {role: 0 for role in self._queues}
        self.counter = counter or QueryCounter()

    @classmethod
    def from_dict(cls, data: dict, counter: QueryCounter | None = None) -> "ScriptedBackend":
        roles = {}
        for role, entries in data.get("roles", {}).items():
            parsed = []
            for entry in entries:
                if isinstance(entry, str):
                    parsed.append(ScriptEntry(reply=entry))
                else:
                    parsed.append(ScriptEntry(reply=entry["reply"],
                                              expect_substring=entry.get("expect_substring")))
            roles[role] = parsed
        return cls(roles, counter=counter)

    @classmethod
    def from_file(cls, path: str | Path, counter: QueryCounter | None = None) -> "ScriptedBackend":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh), counter=counter)

    def complete(self, request: ChatRequest, role: str) -> ChatResponse:
        queue = self._queues.get(role)
        pos = self._cursor.get(role, 0)
        if queue is None or pos >= len(queue):
            raise ScriptExhausted(f"no scripted reply left for role {role!r} (consumed {pos})")
        entry = queue[pos]
        prompt = request.prompt_text()
        if entry.expect_substring is not None and entry.expect_substring not in prompt:
            raise ScriptMismatch(
                f"role {role!r} entry {pos}: expected substring {entry.expect_substring!r} "
                f"not found in prompt")
        self._cursor[role] = pos + 1
        n = request.sampling.n
        # A scripted backend repeats the entry to honor n > 1.
        self.counter.record(n)
        return ChatResponse(choices=(entry.reply,) * n)


# ---------------------------------------------------------------------------
# Live HTTP backend (OpenAI-compatible chat completions)
# ---------------------------------------------------------------------------

RETRYABLE_STATUS = {429, 500, 502, 503, 504}
DEFAULT_TIMEOUT_S = 120.0
MAX_RETRIES = 3
MAX_RETRY_AFTER_S = 60


def _retry_after_s(resp) -> int:
    """The integer-seconds ``Retry-After`` of a response, capped at
    ``MAX_RETRY_AFTER_S``; 0 when absent or given as an HTTP date."""
    value = resp.headers.get("Retry-After", "").strip()
    if not (value.isascii() and value.isdigit()):
        return 0
    return min(int(value), MAX_RETRY_AFTER_S)


class HttpBackend:
    """OpenAI-compatible chat-completions client.

    Configuration comes from arguments or the MACM_BASE_URL / MACM_API_KEY /
    MACM_MODEL environment variables. Transient transport failures and
    retryable HTTP statuses are retried up to 3 times with exponential
    backoff, or after the server's integer ``Retry-After`` if that is longer;
    4xx auth/client errors fail immediately.

    One instance may be shared by many threads. Each thread keeps its own
    keep-alive session, created on its first call; proxy and CA-bundle
    environment variables are read then, once per thread.
    """

    def __init__(self, base_url: str | None = None, api_key: str | None = None,
                 model: str | None = None, timeout: float = DEFAULT_TIMEOUT_S,
                 counter: QueryCounter | None = None):
        self.base_url = (base_url or os.environ.get("MACM_BASE_URL") or "").rstrip("/")
        self.api_key = api_key or os.environ.get("MACM_API_KEY") or ""
        self.model = model or os.environ.get("MACM_MODEL") or ""
        self.timeout = timeout
        self.counter = counter or QueryCounter()
        self._warned_top_k = False
        if not self.base_url:
            raise BackendFailure("no base URL configured (set MACM_BASE_URL)")
        if not self.api_key:
            raise BackendFailure("no API key configured (set MACM_API_KEY)")
        self._url = f"{self.base_url}/v1/chat/completions"
        self._headers = {"Authorization": f"Bearer {self.api_key}"}
        self._local = threading.local()

    def _session(self):
        session = getattr(self._local, "session", None)
        if session is None:
            import requests

            session = requests.Session()
            # With trust_env on, requests scans the environment twice per
            # request; resolve it once for this URL and switch the scan off.
            settings = session.merge_environment_settings(self._url, {}, None, None, None)
            session.trust_env = False
            session.proxies = settings["proxies"]
            session.verify = settings["verify"]
            self._local.session = session
        return session

    def complete(self, request: ChatRequest, role: str) -> ChatResponse:
        import requests

        if request.sampling.top_k != 1 and not self._warned_top_k:
            # The chat-completions wire protocol has no top_k field; the value
            # is kept in local records but never transmitted.
            warnings.warn("top_k is not transmitted over the chat-completions protocol")
            self._warned_top_k = True

        body = {
            "model": self.model,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.sampling.temperature,
            "max_tokens": request.sampling.max_tokens,
            "n": request.sampling.n,
        }
        session = self._session()

        last_error: Exception | None = None
        retry_after = 0
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                time.sleep(max(min(2 ** (attempt - 1), 8), retry_after))
            retry_after = 0
            try:
                # A pooled connection the server has dropped surfaces here as
                # a ConnectionError and is retried like any transport failure.
                resp = session.post(self._url, json=body, headers=self._headers,
                                    timeout=self.timeout)
            except requests.RequestException as exc:
                last_error = exc
                continue
            if resp.status_code in RETRYABLE_STATUS:
                last_error = BackendFailure(f"HTTP {resp.status_code}: {resp.text[:200]}")
                retry_after = _retry_after_s(resp)
                continue
            if resp.status_code != 200:
                self.counter.record(request.sampling.n)
                raise BackendFailure(f"HTTP {resp.status_code}: {resp.text[:200]}")
            try:
                payload = resp.json()
                choices = tuple(c["message"]["content"] for c in payload["choices"])
                usage = payload.get("usage", {})
            except (ValueError, KeyError, TypeError) as exc:
                self.counter.record(request.sampling.n)
                raise BackendFailure(f"malformed response body: {exc}") from exc
            if not choices:
                self.counter.record(request.sampling.n)
                raise BackendFailure("response carried no choices")
            self.counter.record(len(choices))
            return ChatResponse(choices=choices,
                                tokens_in=int(usage.get("prompt_tokens", 0)),
                                tokens_out=int(usage.get("completion_tokens", 0)))

        self.counter.record(request.sampling.n)
        raise BackendFailure(f"request failed after {MAX_RETRIES} retries: {last_error}")


# ---------------------------------------------------------------------------
# Record / replay cassettes
# ---------------------------------------------------------------------------

def _cassette_line(seq: int, role: str, request: ChatRequest, response: ChatResponse) -> dict:
    return {
        "seq": seq,
        "role": role,
        "request_messages": [{"role": m.role, "content": m.content} for m in request.messages],
        "sampling": {
            "n": request.sampling.n,
            "top_k": request.sampling.top_k,
            "temperature": request.sampling.temperature,
            "max_tokens": request.sampling.max_tokens,
        },
        "choices": list(response.choices),
        "tokens_in": response.tokens_in,
        "tokens_out": response.tokens_out,
    }


class RecordingBackend:
    """Wraps another backend and appends every (request, response) pair to a
    JSON Lines cassette file."""

    def __init__(self, inner, cassette_path: str | Path):
        self.inner = inner
        self.path = Path(cassette_path)
        self._seq = 0
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("", encoding="utf-8")

    @property
    def counter(self) -> QueryCounter:
        return self.inner.counter

    def complete(self, request: ChatRequest, role: str) -> ChatResponse:
        response = self.inner.complete(request, role)
        with self._lock:
            line = _cassette_line(self._seq, role, request, response)
            self._seq += 1
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(line, ensure_ascii=False) + "\n")
        return response


class ReplayBackend:
    """Serves recorded responses back in order, asserting that each request's
    prompt matches the recorded one after whitespace normalization."""

    def __init__(self, cassette_path: str | Path, counter: QueryCounter | None = None,
                 skip_calls: int = 0):
        self.path = Path(cassette_path)
        with open(self.path, encoding="utf-8") as fh:
            self._entries = [json.loads(line) for line in fh if line.strip()]
        self._pos = skip_calls
        self.counter = counter or QueryCounter()

    def complete(self, request: ChatRequest, role: str) -> ChatResponse:
        if self._pos >= len(self._entries):
            raise CassetteExhausted(
                f"cassette {self.path} has {len(self._entries)} entries, call {self._pos} requested")
        entry = self._entries[self._pos]
        recorded = "\n".join(m["content"] for m in entry["request_messages"])
        got = request.prompt_text()
        if normalize_condition_text(recorded) != normalize_condition_text(got):
            raise CassetteMismatch(
                f"cassette {self.path} entry {entry['seq']}: prompt differs from recording")
        if entry["role"] != role:
            raise CassetteMismatch(
                f"cassette {self.path} entry {entry['seq']}: role {role!r} != recorded {entry['role']!r}")
        self._pos += 1
        choices = tuple(entry["choices"])
        self.counter.record(len(choices))
        return ChatResponse(choices=choices,
                            tokens_in=entry.get("tokens_in", 0),
                            tokens_out=entry.get("tokens_out", 0))


def record(inner, cassette_path: str | Path) -> RecordingBackend:
    return RecordingBackend(inner, cassette_path)


def replay(cassette_path: str | Path, skip_calls: int = 0) -> ReplayBackend:
    return ReplayBackend(cassette_path, skip_calls=skip_calls)
