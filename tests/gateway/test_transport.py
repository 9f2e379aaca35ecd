"""HTTP/1.x details of the gateway's transport, probed on raw sockets:
the access log, when a connection persists, and requests whose body
cannot be framed."""

import json
import re
import socket
import urllib.parse

import pytest

from helpers.http_probe import http_get

#: The stdlib ``http.server`` access-line format.
ACCESS_LINE = re.compile(
    r'127\.0\.0\.1 - - \[\d\d/\w{3}/\d{4} \d\d:\d\d:\d\d\] '
    r'"GET /healthz HTTP/1\.1" 200 -')


def _connect(base: str) -> socket.socket:
    parsed = urllib.parse.urlparse(base)
    return socket.create_connection((parsed.hostname, parsed.port),
                                    timeout=10)


def _read_reply(sock: socket.socket) -> tuple[int, dict, bytes]:
    """One response off ``sock``: status, lower-cased headers, body."""
    with sock.makefile("rb") as reader:
        status_line = reader.readline()
        assert status_line, "server closed the connection without a reply"
        headers = {}
        while (line := reader.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = reader.read(int(headers.get("content-length", 0)))
    return int(status_line.split()[1]), headers, body


def _closed_by_server(sock: socket.socket, wait: float) -> bool:
    """Whether the server closes ``sock`` within ``wait`` seconds."""
    sock.settimeout(wait)
    try:
        return sock.recv(1) == b""
    except socket.timeout:
        return False


def _three_gets(base: str) -> None:
    """/healthz, /nowhere, /healthz on one kept-alive connection.

    The server handles one connection's requests in order and logs each
    before reading the next, so the first two requests' access lines
    are written once the third reply arrives.
    """
    with _connect(base) as sock:
        for path in ("/healthz", "/nowhere", "/healthz"):
            sock.sendall(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
            _read_reply(sock)


class TestAccessLog:
    def test_verbose_server_writes_an_access_line_per_request(
            self, box_service, serve_factory, capsys):
        _three_gets(serve_factory(box_service, verbose=True))
        lines = capsys.readouterr().err.splitlines()
        assert ACCESS_LINE.fullmatch(lines[0]), lines
        assert lines[1].endswith('"GET /nowhere HTTP/1.1" 404 -'), lines

    def test_quiet_server_writes_nothing(self, box_service, serve_factory,
                                         capsys):
        _three_gets(serve_factory(box_service))
        assert capsys.readouterr().err == ""


class TestConnectionPersistence:
    @pytest.mark.parametrize("version, connection, closes", [
        ("HTTP/1.0", None, True),
        ("HTTP/1.0", "keep-alive", False),
        ("HTTP/1.1", None, False),
        ("HTTP/1.1", "close", True),
    ])
    def test_request_version_and_header_decide(self, box_service,
                                               serve_factory, version,
                                               connection, closes):
        base = serve_factory(box_service)
        head = f"GET /healthz {version}\r\nHost: t\r\n"
        if connection is not None:
            head += f"Connection: {connection}\r\n"
        with _connect(base) as sock:
            sock.sendall((head + "\r\n").encode())
            status, headers, _ = _read_reply(sock)
            assert status == 200
            assert headers["connection"] == ("close" if closes
                                             else "keep-alive")
            # Either way well inside the server's 10 s idle timeout.
            assert _closed_by_server(sock, 2.0 if closes else 0.5) \
                is closes


class TestRequestFraming:
    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_400_then_close(
            self, box_service, serve_factory, caplog, length):
        base = serve_factory(box_service)
        with _connect(base) as sock:
            sock.sendall(f"POST /v2/characterize HTTP/1.1\r\nHost: t\r\n"
                         f"Content-Length: {length}\r\n\r\n{{}}".encode())
            status, headers, body = _read_reply(sock)
            assert status == 400
            assert json.loads(body)["error"]["code"] == "bad_request"
            assert headers["connection"] == "close"
            assert _closed_by_server(sock, 2.0)
        assert http_get(f"{base}/healthz")[0] == 200
        assert "Unhandled exception" not in caplog.text
