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

import contextlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import unquote, urlsplit

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


def _retry_after_s(resp) -> float:
    """The ``Retry-After`` of a response in seconds, given as an integer or as
    an HTTP date, floored at 0 and capped at ``MAX_RETRY_AFTER_S``; 0 when
    absent or unparseable."""
    value = resp.headers.get("Retry-After", "").strip()
    if value.isascii() and value.isdigit():
        return min(int(value), MAX_RETRY_AFTER_S)
    # Imported here: only a retryable response needs the date parser, and
    # email.utils loads some twenty modules.
    from datetime import datetime, timezone
    from email.utils import parsedate_to_datetime

    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return 0
    if when.tzinfo is None:
        # HTTP dates are GMT; the asctime form carries no zone.
        when = when.replace(tzinfo=timezone.utc)
    seconds = (when - datetime.now(timezone.utc)).total_seconds()
    return min(max(seconds, 0), MAX_RETRY_AFTER_S)


def _http_url(url: str):
    """``urlsplit(url)`` when ``url`` is an http:// or https:// URL with a host
    and a valid port, else None."""
    try:
        parts = urlsplit(url)
        parts.port  # a malformed port raises only when read
    except ValueError:
        return None
    return parts if parts.scheme in ("http", "https") and parts.hostname else None


def _peer_closed(sock) -> bool:
    """Whether an idle keep-alive socket is readable. No reply is due on it,
    so the server has closed it (or broken the protocol): it cannot carry the
    next request."""
    import select

    if hasattr(select, "poll"):
        # poll, unlike select, takes descriptors above FD_SETSIZE.
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class _Route:
    """One thread's connection to the endpoint, with the request target and
    headers sent on it. The connection object outlives its socket: after
    ``close()`` its next request connects again."""

    __slots__ = ("conn", "target", "headers")

    def __init__(self, conn, target: str, headers: dict):
        self.conn, self.target, self.headers = conn, target, headers

    def __del__(self):
        # Dropped when its thread ends or the backend is freed; closing here
        # leaves no open socket for the garbage collector to find.
        self.conn.close()


class HttpBackend:
    """OpenAI-compatible chat-completions client.

    Configuration comes from arguments or the MACM_BASE_URL / MACM_API_KEY /
    MACM_MODEL environment variables. Transient transport failures and
    retryable HTTP statuses are retried up to 3 times with exponential
    backoff, or after the server's ``Retry-After`` (seconds or an HTTP date)
    if that is longer;
    4xx auth/client errors fail immediately.

    One instance may be shared by many threads. Each thread keeps its own
    keep-alive ``http.client`` connection, built on its first call; the
    proxy variables (``HTTP_PROXY``, ``HTTPS_PROXY``, ``ALL_PROXY``,
    ``NO_PROXY``) and the CA bundle (``REQUESTS_CA_BUNDLE`` or
    ``CURL_CA_BUNDLE``, else the system trust store) are read then, once per
    thread.
    """

    def __init__(self, base_url: str | None = None, api_key: str | None = None,
                 model: str | None = None, timeout: float = DEFAULT_TIMEOUT_S,
                 counter: QueryCounter | None = None):
        self.base_url = (base_url or os.environ.get("MACM_BASE_URL") or "").rstrip("/")
        self.api_key = api_key or os.environ.get("MACM_API_KEY") or ""
        self.model = model or os.environ.get("MACM_MODEL") or ""
        self.timeout = timeout
        self.counter = counter or QueryCounter()
        if not self.base_url:
            raise BackendFailure("no base URL configured (set MACM_BASE_URL)")
        if not self.api_key:
            raise BackendFailure("no API key configured (set MACM_API_KEY)")
        self._url = f"{self.base_url}/v1/chat/completions"
        self._parts = _http_url(self._url)
        if self._parts is None:
            raise BackendFailure(f"base URL {self.base_url!r} is not an http:// or https:// URL")
        self._headers = {"Authorization": f"Bearer {self.api_key}",
                         "Content-Type": "application/json"}
        self._local = threading.local()

    def _route(self) -> _Route:
        """This thread's route, built on its first call."""
        route = getattr(self._local, "route", None)
        if route is None:
            route = self._local.route = self._new_route()
        return route

    def _new_route(self):
        import http.client
        from urllib.request import getproxies_environment, proxy_bypass_environment

        parts = self._parts
        https = parts.scheme == "https"
        if https:
            import ssl

            bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
            try:
                # Verifies the certificate and the host name; without a bundle
                # it loads the system store, which honours SSL_CERT_FILE.
                context = ssl.create_default_context(cafile=bundle)
            except OSError as exc:
                raise BackendFailure(f"cannot load CA bundle {bundle!r}: {exc}") from exc

        # Ports are explicit: http.client would read ":1" of "::1" as a port.
        target_port = parts.port or (443 if https else 80)
        host, port, target, headers = parts.hostname, target_port, parts.path, self._headers
        proxies = getproxies_environment()
        proxy = proxies.get(parts.scheme) or proxies.get("all")
        if proxy and proxy_bypass_environment(parts.netloc, proxies):
            proxy = None
        if proxy:
            proxy_parts = _http_url(proxy if "://" in proxy else f"http://{proxy}")
            if proxy_parts is None or proxy_parts.scheme != "http":
                # The URL is not echoed: it may carry a password.
                raise BackendFailure(f"the {parts.scheme} proxy is not an http://host:port URL")
            host, port = proxy_parts.hostname, proxy_parts.port or 80
            proxy_headers = {}
            if proxy_parts.username is not None:
                import base64

                user, password = proxy_parts.username, proxy_parts.password or ""
                credentials = f"{unquote(user)}:{unquote(password)}".encode("utf-8")
                proxy_headers["Proxy-Authorization"] = \
                    "Basic " + base64.b64encode(credentials).decode("ascii")
            if not https:
                # A plain-HTTP proxy takes the absolute URL as the request target.
                target, headers = self._url, {**headers, **proxy_headers}

        if not https:
            return _Route(http.client.HTTPConnection(host, port, timeout=self.timeout),
                          target, headers)
        conn = http.client.HTTPSConnection(host, port, timeout=self.timeout, context=context)
        if proxy:
            # CONNECT through the proxy, then TLS to the target host.
            conn.set_tunnel(parts.hostname, target_port, headers=proxy_headers)
        return _Route(conn, target, headers)

    def complete(self, request: ChatRequest, role: str) -> ChatResponse:
        import http.client

        body = json.dumps({
            "model": self.model,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.sampling.temperature,
            "max_tokens": request.sampling.max_tokens,
            "n": request.sampling.n,
        }, allow_nan=False).encode("utf-8")
        route = self._route()
        conn = route.conn

        # A message, not the exception: a kept exception would hold this
        # frame through its traceback, a cycle only the cyclic GC frees.
        last_error = ""
        retry_after = 0
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                time.sleep(max(min(2 ** (attempt - 1), 8), retry_after))
            retry_after = 0
            if conn.sock is not None and _peer_closed(conn.sock):
                # The server dropped this idle keep-alive connection; the
                # request below reconnects, without a backoff wait.
                conn.close()
            try:
                conn.request("POST", route.target, body, route.headers)
                resp = conn.getresponse()
                # Read to the end, so the connection can carry the next request.
                data = resp.read()
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                last_error = f"{type(exc).__name__}: {exc}"
                continue
            if resp.status != 200:
                error = f"HTTP {resp.status}: {data.decode('utf-8', 'replace')[:200]}"
                if resp.status in RETRYABLE_STATUS:
                    last_error = error
                    retry_after = _retry_after_s(resp)
                    continue
                self.counter.record(request.sampling.n)
                raise BackendFailure(error)
            try:
                payload = json.loads(data)
                choices = tuple(c["message"]["content"] for c in payload["choices"])
                if not all(isinstance(text, str) for text in choices):
                    raise TypeError("message.content is not a string")
                usage = payload.get("usage") or {}
                tokens_in = int(usage.get("prompt_tokens", 0))
                tokens_out = int(usage.get("completion_tokens", 0))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                self.counter.record(request.sampling.n)
                raise BackendFailure(f"malformed response body: {exc}") from exc
            if not choices:
                self.counter.record(request.sampling.n)
                raise BackendFailure("response carried no choices")
            self.counter.record(len(choices))
            return ChatResponse(choices=choices, tokens_in=tokens_in, tokens_out=tokens_out)

        self.counter.record(request.sampling.n)
        raise BackendFailure(f"request failed after {MAX_RETRIES} retries: {last_error}")


# ---------------------------------------------------------------------------
# Record / replay cassettes
# ---------------------------------------------------------------------------

# Shared by the cassette and transcript writers: json.dumps with a non-default
# argument builds a new encoder on every call. encode() keeps no state between
# calls, so one instance serves every thread.
JSON_ENCODER = json.JSONEncoder(ensure_ascii=False)


def open_fresh(path: str | Path) -> int:
    """A descriptor for a new, empty file at ``path``, opened for appending.

    A file already there is removed first, never truncated or renamed over:
    replacing a file that holds data makes some file systems (ext4's
    auto_da_alloc) write the new data back on the writer's time.
    """
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    return os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND, 0o666)


def write_all(fd: int, data: bytes) -> None:
    """Write all of ``data`` to ``fd``; os.write may write only part of it."""
    data = memoryview(data)
    while data:
        data = data[os.write(fd, data):]


def _cassette_line(seq: int, role: str, request: ChatRequest, response: ChatResponse) -> dict:
    return {
        "seq": seq,
        "role": role,
        "request_messages": [{"role": m.role, "content": m.content} for m in request.messages],
        "sampling": {
            "n": request.sampling.n,
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
        os.close(open_fresh(self.path))

    def complete(self, request: ChatRequest, role: str) -> ChatResponse:
        response = self.inner.complete(request, role)
        with self._lock:
            line = _cassette_line(self._seq, role, request, response)
            self._seq += 1
            data = (JSON_ENCODER.encode(line) + "\n").encode("utf-8")
            # The whole line is written before complete() returns, and no
            # handle outlives the call.
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                write_all(fd, data)
            finally:
                os.close(fd)
        return response


def _replay_entry(line: bytes) -> tuple:
    """(seq, role, n, prompt text, response) of one cassette line. Any key
    that replay reads and the line lacks, or holds with the wrong type, raises
    KeyError, TypeError or ValueError; any other key is ignored."""
    # Decoded here, not by json.loads: bytes make it detect the encoding first.
    entry = json.loads(line.decode("utf-8"))
    return (entry["seq"], entry["role"], entry["sampling"]["n"],
            "\n".join(m["content"] for m in entry["request_messages"]),
            ChatResponse(choices=tuple(entry["choices"]), tokens_in=entry.get("tokens_in", 0),
                         tokens_out=entry.get("tokens_out", 0)))


class ReplayBackend:
    """Serves recorded responses back in order, asserting that each request's
    prompt matches the recorded one after whitespace normalization, and that
    its role and number of choices ``n`` match the recording. A cassette line
    that is not an entry (a torn write, say) raises BackendFailure naming the
    file and the line."""

    def __init__(self, cassette_path: str | Path, counter: QueryCounter | None = None,
                 skip_calls: int = 0):
        self.path = Path(cassette_path)
        self._entries = []
        # Binary lines, so a write torn inside a UTF-8 sequence fails on its own line.
        with open(self.path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    self._entries.append(_replay_entry(line))
                # JSONDecodeError and UnicodeDecodeError are ValueErrors.
                except (KeyError, TypeError, ValueError) as exc:
                    raise BackendFailure(f"cassette {self.path}, line {lineno}: "
                                         f"not a cassette entry ({exc!r})") from exc
        self._pos = skip_calls
        self.counter = counter or QueryCounter()

    def complete(self, request: ChatRequest, role: str) -> ChatResponse:
        if self._pos >= len(self._entries):
            raise CassetteExhausted(
                f"cassette {self.path} has {len(self._entries)} entries, call {self._pos} requested")
        seq, recorded_role, n, recorded, response = self._entries[self._pos]
        got = request.prompt_text()
        # Equal strings normalise equal; normalise only when they differ.
        if recorded != got and normalize_condition_text(recorded) != normalize_condition_text(got):
            raise CassetteMismatch(
                f"cassette {self.path} entry {seq}: prompt differs from recording")
        if recorded_role != role:
            raise CassetteMismatch(
                f"cassette {self.path} entry {seq}: role {role!r} != recorded {recorded_role!r}")
        if n != request.sampling.n:
            raise CassetteMismatch(
                f"cassette {self.path} entry {seq}: n={request.sampling.n} != recorded n={n}")
        self._pos += 1
        self.counter.record(len(response.choices))
        return response
