"""Scripted local server speaking the chat-completions wire format.

Replies come from a fixed script, cycling once exhausted. A script entry of
"<error>" makes the server answer HTTP 500 once (for exercising the retry
path). Received payloads are recorded for assertions. The server speaks
HTTP/1.1 and keeps connections open between requests; ``stop`` shuts down
the ones still open, so no request is answered after it returns.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

ERROR_SENTINEL = "<error>"


class ScriptedMockServer:
    def __init__(self, script: list[str], port: int = 0):
        if not script:
            raise ValueError("script must be non-empty")
        self.script = list(script)
        self.requests: list[dict] = []
        self._lock = threading.Lock()
        self._counter = 0
        self._connections = set()  # open client sockets, guarded by _lock
        self._stopped = False
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # Headers and body go out in separate writes; with Nagle's
            # algorithm on, the body waits for the client's delayed ACK.
            disable_nagle_algorithm = True

            def log_message(self, *args):
                pass

            def setup(self):
                super().setup()
                with server._lock:
                    server._connections.add(self.connection)
                    if server._stopped:  # accepted just before stop()
                        _hang_up(self.connection)

            def finish(self):
                with server._lock:
                    server._connections.discard(self.connection)
                super().finish()

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                try:
                    payload = json.loads(raw)
                except json.JSONDecodeError as exc:
                    return self._fail(400, f"invalid JSON body: {exc}")
                if not isinstance(payload.get("messages"), list) \
                        or "model" not in payload:
                    return self._fail(400, "body must carry model and messages")
                with server._lock:
                    server.requests.append(payload)
                    entry = server.script[server._counter % len(server.script)]
                    server._counter += 1
                if entry == ERROR_SENTINEL:
                    return self._fail(500, "scripted server error")
                body = json.dumps({
                    "id": f"mock-{server._counter}",
                    "object": "chat.completion",
                    "model": payload["model"],
                    "choices": [{
                        "index": 0,
                        "message": {"role": "assistant", "content": entry},
                        "finish_reason": "stop",
                    }],
                }).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _fail(self, code, message):
                body = json.dumps({"error": message}).encode()
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self._httpd = ThreadingHTTPServer(("127.0.0.1", port), Handler)
        # shutdown() waits for the serve loop's next poll, 0.5 s by default.
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        kwargs={"poll_interval": 0.05},
                                        daemon=True)

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}"

    def start(self):
        self._thread.start()
        return self

    def stop(self):
        self._httpd.shutdown()
        # Handler threads are daemons that server_close() does not wait for;
        # one waiting on an idle keep-alive connection would go on serving it.
        with self._lock:
            self._stopped = True
            for conn in self._connections:
                _hang_up(conn)
        self._httpd.server_close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()


def _hang_up(conn: socket.socket):
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:  # the client has already gone
        pass
