"""Backend-neutral chat-completion access.

Three interchangeable backends share one ``complete()`` entry point:

* ``HttpBackend`` — live OpenAI-compatible wire client with retry/backoff,
* ``ScriptedBackend`` — deterministic per-role reply queues for testing,
* ``ReplayBackend`` — answers each request from the AgentCall logged for it.

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
from dataclasses import dataclass
from json.encoder import c_make_encoder, encode_basestring
from pathlib import Path
from urllib.parse import unquote, urlsplit

from .domain import AgentCall, SamplingParams, event_from_dict, normalize_condition_text, now
from .errors import BackendFailure

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
        """All message contents, joined: the prompt transcripts log and replay matches."""
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
    :class:`BackendFailure`. Entries may assert that the incoming prompt
    contains an expected substring. ``queues`` is never changed, so another
    backend may serve the same script from its start.
    """

    def __init__(self, roles: dict[str, list[ScriptEntry]], counter: QueryCounter | None = None):
        self.queues = {role: list(entries) for role, entries in roles.items()}
        self._cursor = {role: 0 for role in self.queues}
        self.counter = counter or QueryCounter()

    @classmethod
    def from_dict(cls, data: dict, counter: QueryCounter | None = None) -> "ScriptedBackend":
        """The backend of a script {"roles": {role: [entry, ...]}}, each entry a
        reply text or {"reply": text, "expect_substring": text}; anything else
        raises ValueError naming the role and the entry."""
        roles = data.get("roles", {}) if isinstance(data, dict) else None
        if not isinstance(roles, dict) or not all(isinstance(e, list) for e in roles.values()):
            raise ValueError(f'a script is {{"roles": {{role: [entry, ...]}}}}, not {data!r:.80}')
        queues = {role: [] for role in roles}
        for role, entries in roles.items():
            for i, e in enumerate(entries):
                e = {"reply": e} if isinstance(e, str) else e
                if not (isinstance(e, dict) and isinstance(e.get("reply"), str)
                        and isinstance(e.get("expect_substring"), (str, type(None)))):
                    raise ValueError(f"role {role!r} entry {i} is not a reply text or "
                                     f'{{"reply": text}}: {e!r:.80}')
                queues[role].append(ScriptEntry(e["reply"], e.get("expect_substring")))
        return cls(queues, counter=counter)

    @classmethod
    def from_file(cls, path: str | Path, counter: QueryCounter | None = None) -> "ScriptedBackend":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh), counter=counter)

    def complete(self, request: ChatRequest, role: str) -> ChatResponse:
        queue = self.queues.get(role)
        pos = self._cursor.get(role, 0)
        if queue is None or pos >= len(queue):
            raise BackendFailure(f"no scripted reply left for role {role!r} (consumed {pos})")
        entry = queue[pos]
        prompt = request.prompt_text()
        if entry.expect_substring is not None and entry.expect_substring not in prompt:
            raise BackendFailure(
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
# json.dumps with a non-default argument builds a new encoder on every call.
# The request dict is built fresh for each call and holds no cycle.
_REQUEST_ENCODER = json.JSONEncoder(allow_nan=False, check_circular=False)
DEFAULT_TIMEOUT_S = 120.0
MAX_RETRIES = 3
MAX_RETRY_AFTER_S = 60


def _retry_after_s(headers: dict) -> float:
    """The ``Retry-After`` of a response's lower-cased ``headers`` in seconds,
    given as an integer or as an HTTP date, floored at 0 and capped at
    ``MAX_RETRY_AFTER_S``; 0 when absent or unparseable."""
    value = headers.get("retry-after", "").strip()
    if value.isascii() and value.isdigit():
        # Ten significant digits are past the cap; int() refuses over 4300.
        return min(int(value.lstrip("0")[:10] or 0), MAX_RETRY_AFTER_S)
    # Imported here: only a retryable response needs the date parser, and
    # email.utils loads some twenty modules.
    from datetime import datetime, timezone
    from email.utils import parsedate_to_datetime

    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError, OverflowError):  # Overflow: a year or offset out of range
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


# http.client's limits on a reply's head.
MAX_LINE = 65536
MAX_HEADERS = 100
# A body or chunk length of a gigabyte or more is refused as a bad reply:
# read() would fail on it (OverflowError, or MemoryError where it cannot be
# allocated) rather than read it.
MAX_LENGTH_DIGITS = 9


def _read_line(fp, what: str) -> bytes:
    line = fp.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        import http.client

        raise http.client.LineTooLong(what)
    return line


def _read_headers(fp) -> dict:
    """The header fields up to the blank line, by lower-cased name; a repeated
    field keeps its last value."""
    import http.client

    headers = {}
    for _ in range(MAX_HEADERS + 1):
        line = _read_line(fp, "header line")
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon:
            raise http.client.HTTPException(f"malformed header line {line[:80]!r}")
        headers[name.strip().lower()] = value.strip()
    raise http.client.HTTPException(f"got more than {MAX_HEADERS} headers")


def _read_chunked(fp) -> bytes:
    import http.client

    parts = []
    while True:
        line = _read_line(fp, "chunk size")
        try:
            size = int(line.split(b";", 1)[0], 16)  # extensions follow a ";"
        except ValueError:
            size = -1
        if not 0 <= size < 10 ** MAX_LENGTH_DIGITS:
            raise http.client.IncompleteRead(b"".join(parts))
        if not size:
            break
        chunk = fp.read(size + 2)  # the chunk and its CRLF
        if len(chunk) < size + 2:
            raise http.client.IncompleteRead(b"".join(parts) + chunk[:size])
        parts.append(chunk[:size])
    while _read_line(fp, "trailer line") not in (b"\r\n", b"\n", b""):
        pass  # trailers are skipped
    return b"".join(parts)


def _read_response(fp) -> tuple[int, dict, bytes, bool]:
    """Read one HTTP/1.x reply to a POST from the buffered reader ``fp``:
    (status, headers by lower-cased name, body, whether the connection can
    carry the next request).

    Interim 1xx replies are skipped. The body is framed by
    ``Transfer-Encoding: chunked``, else by ``Content-Length``, else by the
    connection closing; 204 and 304 replies have none. A reset, a short body,
    a malformed head or a length of more than MAX_LENGTH_DIGITS digits raises
    OSError or http.client.HTTPException.
    """
    import http.client

    while True:
        line = _read_line(fp, "status line")
        if not line:
            raise http.client.RemoteDisconnected("remote end closed connection without response")
        version, code, *_ = line.split(None, 2) + [b"", b""]
        if version not in (b"HTTP/1.1", b"HTTP/1.0") or len(code) != 3 \
                or not code.isdigit() or code < b"100":
            raise http.client.BadStatusLine(line[:80].decode("latin-1"))
        status = int(code)
        headers = _read_headers(fp)
        if not 100 <= status < 200:
            break
    connection = headers.get("connection", "").lower()
    keep_alive = "close" not in connection and (
        version == b"HTTP/1.1" or "keep-alive" in connection)
    if status in (204, 304):
        return status, headers, b"", keep_alive
    if "chunked" in headers.get("transfer-encoding", "").lower():
        return status, headers, _read_chunked(fp), keep_alive
    length = headers.get("content-length")
    if length is None:
        return status, headers, fp.read(), False
    if not (length.isascii() and length.isdigit()) or len(length) > MAX_LENGTH_DIGITS:
        raise http.client.HTTPException(f"malformed Content-Length {length[:80]!r}")
    body = fp.read(int(length))
    if len(body) < int(length):
        raise http.client.IncompleteRead(body, int(length) - len(body))
    return status, headers, body, keep_alive


def _host_header(host: str, port: int, default_port: int) -> str:
    """The ``Host`` value http.client sends for ``host`` and ``port``."""
    if not host.isascii():
        host = host.encode("idna").decode("ascii")
    if ":" in host:
        # An IPv6 literal is bracketed; its zone is not sent.
        host = f"[{host.partition('%')[0]}]"
    return host if port == default_port else f"{host}:{port}"


class _Route:
    """One thread's connection to the endpoint, the request target and
    headers sent on it, and the reader of its replies. ``conn`` (from
    http.client) only opens the socket, through any proxy tunnel and TLS;
    after ``close()`` the next call opens it again.

    The request head is built once: http.client's request line, ``Host``,
    ``Accept-Encoding`` and ``Content-Length`` lines, then ``headers``.
    """

    __slots__ = ("conn", "target", "headers", "fp", "head", "tail")

    def __init__(self, conn, target: str, headers: dict, host: str):
        # Set first: __del__ closes the connection even if a check below fails.
        self.conn, self.target, self.headers, self.fp = conn, target, headers, None
        if not target.isascii() or any(c <= " " or c == "\x7f" for c in target):
            raise BackendFailure(f"request target {target!r} holds a space or control character")
        if any("\r" in value or "\n" in value for value in headers.values()):
            raise BackendFailure("a request header value holds a line break")
        fields = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
        try:
            self.head = (f"POST {target} HTTP/1.1\r\nHost: {host}\r\n"
                         f"Accept-Encoding: identity\r\nContent-Length: ").encode("latin-1")
            self.tail = f"\r\n{fields}\r\n".encode("latin-1")
        except UnicodeEncodeError as exc:
            raise BackendFailure(f"the request head is not Latin-1: {exc}") from None

    def connect(self) -> None:
        self.conn.connect()
        self.fp = self.conn.sock.makefile("rb")

    def close(self) -> None:
        # The socket's descriptor is freed once both it and its reader close.
        if self.fp is not None:
            self.fp.close()
            self.fp = None
        self.conn.close()

    def __del__(self):
        # Dropped when its thread ends or the backend is freed; closing here
        # leaves no open socket for the garbage collector to find.
        self.close()


class HttpBackend:
    """OpenAI-compatible chat-completions client.

    Configuration comes from arguments or the MACM_BASE_URL / MACM_API_KEY /
    MACM_MODEL environment variables; a missing base URL or key, or a base URL
    that is not http:// or https://, raises ValueError. Transient transport
    failures and retryable HTTP statuses are retried up to 3 times with
    exponential backoff, or after the server's ``Retry-After`` (seconds or an
    HTTP date) if that is longer; 4xx auth/client errors fail immediately.

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
            raise ValueError("no base URL configured (set MACM_BASE_URL)")
        if not self.api_key:
            raise ValueError("no API key configured (set MACM_API_KEY)")
        self._url = f"{self.base_url}/v1/chat/completions"
        self._parts = _http_url(self._url)
        if self._parts is None:
            raise ValueError(f"base URL {self.base_url!r} is not an http:// or https:// URL")
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
        default_port = 443 if https else 80
        target_port = parts.port or default_port
        host, port, target, headers = parts.hostname, target_port, parts.path, self._headers
        host_header = _host_header(parts.hostname, target_port, default_port)
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
                # A plain-HTTP proxy takes the absolute URL as the request
                # target, and http.client sends its netloc as the Host.
                target, headers = self._url, {**headers, **proxy_headers}
                host_header = parts.netloc

        if not https:
            return _Route(http.client.HTTPConnection(host, port, timeout=self.timeout),
                          target, headers, host_header)
        conn = http.client.HTTPSConnection(host, port, timeout=self.timeout, context=context)
        if proxy:
            # CONNECT through the proxy, then TLS to the target host.
            conn.set_tunnel(parts.hostname, target_port, headers=proxy_headers)
        return _Route(conn, target, headers, host_header)

    def complete(self, request: ChatRequest, role: str) -> ChatResponse:
        import http.client

        body = _REQUEST_ENCODER.encode({
            "model": self.model,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.sampling.temperature,
            "max_tokens": request.sampling.max_tokens,
            "n": request.sampling.n,
        }).encode("utf-8")
        route = self._route()
        conn = route.conn
        # The whole request in one send: split writes stall on delayed ACKs.
        message = b"".join((route.head, b"%d" % len(body), route.tail, body))

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
                route.close()
            try:
                if conn.sock is None:
                    route.connect()
                conn.sock.sendall(message)
                # Read to the end, so the connection can carry the next request.
                status, headers, data, keep_alive = _read_response(route.fp)
            except (OSError, http.client.HTTPException) as exc:
                route.close()
                last_error = f"{type(exc).__name__}: {exc}"
                continue
            if not keep_alive:
                route.close()
            if status != 200:
                error = f"HTTP {status}: {data.decode('utf-8', 'replace')[:200]}"
                if status in RETRYABLE_STATUS:
                    last_error = error
                    retry_after = _retry_after_s(headers)
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
            # OverflowError: a token count json.loads read as infinity.
            except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
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
# Recording and replay: a run's AgentCalls answer its requests again
# ---------------------------------------------------------------------------

# Shared by every JSON Lines writer: json.dumps with a non-default argument
# builds a new encoder on every call. Each writer encodes dicts built fresh
# for the call, which hold no cycle to check for.
JSON_ENCODER = json.JSONEncoder(ensure_ascii=False, check_circular=False)
# Its C encoder, built once (encode() builds one per call), or None. Threads share it.
_C_LINE_ENCODER = c_make_encoder and c_make_encoder(
    None, JSON_ENCODER.default, encode_basestring, None, JSON_ENCODER.key_separator,
    JSON_ENCODER.item_separator, JSON_ENCODER.sort_keys, JSON_ENCODER.skipkeys,
    JSON_ENCODER.allow_nan)


def json_lines(objects) -> bytes:
    """Each object as JSON_ENCODER encodes it, one per line, in UTF-8."""
    encode = _C_LINE_ENCODER or (lambda o, _: [JSON_ENCODER.encode(o)])
    chunks = []
    for o in objects:
        chunks += encode(o, 0)
        chunks.append("\n")
    return "".join(chunks).encode("utf-8")


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


def call_fields(role: str, request: ChatRequest, response: ChatResponse,
                timestamp: float) -> dict:
    """The fields, in order, of the AgentCall that records ``request``, sent
    for ``role``, and its ``response``; the sampling's come last."""
    return {"role": role, "prompt": request.prompt_text(), "raw_response": response.text,
            "tokens_in": response.tokens_in, "tokens_out": response.tokens_out,
            "timestamp": timestamp, "n_choices": len(response.choices),
            "more_choices": response.choices[1:], **vars(request.sampling)}


def replay(call: AgentCall, request: ChatRequest, role: str, where, k: int) -> ChatResponse:
    """The response ``call`` records, call k (from 0) at ``where``, if ``request``,
    sent for ``role``, has its role, its prompt up to whitespace and its ``n``;
    else BackendFailure. Replay and resume both match so."""
    got = request.prompt_text()
    # Equal strings normalise equal; normalise only when they differ.
    if call.prompt != got and \
            normalize_condition_text(call.prompt) != normalize_condition_text(got):
        reason = "prompt differs from the recording"
    elif call.role != role:
        reason = f"role {role!r} != recorded {call.role!r}"
    elif call.n != request.sampling.n:
        reason = f"n={request.sampling.n} != recorded n={call.n}"
    else:
        return ChatResponse((call.raw_response, *call.more_choices), call.tokens_in,
                            call.tokens_out)
    raise BackendFailure(f"{where}, call {k + 1}: {reason}")


class RecordingBackend:
    """Wraps another backend and appends each request, with its response, to
    a JSON Lines file as the agent_call line a transcript logs for it."""

    def __init__(self, inner, path: str | Path):
        self.inner = inner
        self.path = Path(path)
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        os.close(open_fresh(self.path))

    def complete(self, request: ChatRequest, role: str) -> ChatResponse:
        response = self.inner.complete(request, role)
        # event_to_dict's line for the AgentCall, without the cost of building it.
        data = json_lines([{"event": "agent_call", **call_fields(role, request, response, now())}])
        with self._lock:
            # The whole line is written before complete() returns, and no
            # handle outlives the call.
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                write_all(fd, data)
            finally:
                os.close(fd)
        return response


class ReplayBackend:
    """Answers request k by ``replay`` from the k-th agent_call line of a JSON Lines
    file (a transcript, or a RecordingBackend's), past the first ``skip_calls``. The
    file is read here, other lines skipped undecoded; a line that is not JSON, has no
    ``event`` (an old cassette's), is an agent_call read_transcript refuses, or records
    fewer choices than its call returned raises BackendFailure naming it."""

    def __init__(self, path: str | Path, counter: QueryCounter | None = None,
                 skip_calls: int = 0):
        if skip_calls < 0:
            raise ValueError(f"skip_calls must be >= 0, got {skip_calls}")
        self.path = Path(path)
        self._calls = []
        # Binary lines, so a torn UTF-8 sequence fails on its own line; decoded
        # here, since json.loads would first detect the encoding of bytes.
        with open(self.path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    data = json.loads(line.decode("utf-8"))
                    kind = data.get("event")
                    if kind == "agent_call":
                        call = event_from_dict(data)
                        if call.n_choices > 1 + len(call.more_choices):
                            raise ValueError(f"the call returned {call.n_choices} choices, and its "
                                             "transcript predates recording every choice")
                        self._calls.append(call)
                    elif kind is None:
                        raise ValueError("no event: cassette lines are no longer read")
                # JSONDecodeError and UnicodeDecodeError are ValueErrors.
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    raise BackendFailure(f"{self.path}, line {lineno}: "
                                         f"not a recorded call ({exc!r})") from exc
        self._pos = skip_calls
        self.counter = counter or QueryCounter()

    def complete(self, request: ChatRequest, role: str) -> ChatResponse:
        k = self._pos
        if k >= len(self._calls):
            raise BackendFailure(f"{self.path} records only {len(self._calls)} calls")
        response = replay(self._calls[k], request, role, self.path, k)
        self._pos = k + 1
        self.counter.record(len(response.choices))
        return response
