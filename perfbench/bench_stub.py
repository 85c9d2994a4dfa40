"""Loopback OpenAI-compatible chat-completions stub serving the fake model.

Run as a child process:

    python3 perfbench/bench_stub.py --seed 1 --pool 40 --latency-ms 10

It binds 127.0.0.1 on a free port and prints ``READY <port>``. Each request
waits the fixed latency, then gets its whole response, status line, headers
and body, in a single send, so that a client reusing connections is not
slowed by split writes. Connections are kept alive until the client closes
them. A line ``stats`` on stdin prints ``{"connections": c, "requests": r}``;
end of stdin shuts the stub down.
"""

from __future__ import annotations

import argparse
import json
import socketserver
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench_model  # noqa: E402


class _Counts:
    def __init__(self):
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = 0


def _response(status: str, body: bytes, keep_alive: bool) -> bytes:
    head = (f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n")
    return head.encode("ascii") + body


def make_handler(model: bench_model.FakeModel, latency_s: float, counts: _Counts):
    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            with counts.lock:
                counts.connections += 1
            while self._one_request():
                pass

        def _one_request(self) -> bool:
            request_line = self.rfile.readline()
            if not request_line:
                return False
            headers = {}
            while True:
                line = self.rfile.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            body = self.rfile.read(int(headers.get("content-length", 0)))
            with counts.lock:
                counts.requests += 1
            keep_alive = headers.get("connection", "").lower() != "close"
            try:
                payload = json.loads(body)
                messages = [(m["role"], m["content"]) for m in payload["messages"]]
                text = model.reply(messages)
            except (ValueError, KeyError, TypeError) as exc:
                self.request.sendall(_response(
                    "400 Bad Request", json.dumps({"error": str(exc)}).encode(), keep_alive))
                return keep_alive
            n = int(payload.get("n", 1))
            tokens_in, tokens_out = bench_model.usage(messages, text, n)
            out = json.dumps({
                "object": "chat.completion",
                "model": payload.get("model", ""),
                "choices": [{"index": i, "message": {"role": "assistant", "content": text},
                             "finish_reason": "stop"} for i in range(n)],
                "usage": {"prompt_tokens": tokens_in, "completion_tokens": tokens_out},
            }).encode("utf-8")
            time.sleep(latency_s)
            self.request.sendall(_response("200 OK", out, keep_alive))
            return keep_alive

    return Handler


class _Server(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pool", type=int, required=True)
    parser.add_argument("--latency-ms", type=float, required=True)
    args = parser.parse_args(argv)

    model = bench_model.FakeModel(macm=bench_model.macm_pool(args.seed, args.pool))
    counts = _Counts()
    server = _Server(("127.0.0.1", 0), make_handler(model, args.latency_ms / 1000, counts))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"READY {server.server_address[1]}", flush=True)
    try:
        for line in sys.stdin:
            if line.strip() == "stats":
                with counts.lock:
                    stats = {"connections": counts.connections, "requests": counts.requests}
                print(json.dumps(stats), flush=True)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    return 0


if __name__ == "__main__":
    sys.exit(main())
