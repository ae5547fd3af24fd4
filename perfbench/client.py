"""JSONL socket client for the gen_listen workload.

Drives a `termilog_cli --listen unix:PATH` server over a fixed set of
connections as an open loop: seeded Poisson arrivals at a fixed rate; each
request is sent when due whatever is still in flight, and timed from its
scheduled send time, so a server stall also counts against the requests
queued behind it. (The closed-loop phase uses the program's own load
client, `termilog_cli --connect`.)

The server answers each connection in its request order, so a response is
matched to its request by position on its connection.
"""

import collections
import gc
import selectors
import socket
import time


class Connection:
    def __init__(self, sock):
        sock.setblocking(False)
        self.sock = sock
        self.out = bytearray()
        self.inbuf = bytearray()
        self.pending = collections.deque()  # request indices, in send order
        self.closed = False


def connect(path, timeout_s):
    """Connects to a unix socket, retrying until the server accepts."""
    deadline = time.perf_counter() + timeout_s
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
            return sock
        except OSError:
            sock.close()
            if time.perf_counter() > deadline:
                raise
            time.sleep(0.002)


class Session:
    """The client side of one benchmark session: a few connections and the
    response bytes received for each request index."""

    def __init__(self, socks):
        self.conns = [Connection(s) for s in socks]
        self.sel = selectors.DefaultSelector()
        for conn in self.conns:
            self.sel.register(conn.sock, selectors.EVENT_READ, conn)
        self.responses = {}   # request index -> response line (bytes)
        self.received_at = {}  # request index -> perf_counter()

    def close(self):
        for conn in self.conns:
            if not conn.closed:
                self.sel.unregister(conn.sock)
            conn.sock.close()
        self.sel.close()

    def _send(self, conn, index, line):
        conn.pending.append(index)
        conn.out += line
        self._flush(conn)

    def _flush(self, conn):
        if conn.closed:
            return
        if conn.out:
            try:
                sent = conn.sock.send(conn.out)
                del conn.out[:sent]
            except BlockingIOError:
                pass
        events = selectors.EVENT_READ
        if conn.out:
            events |= selectors.EVENT_WRITE
        self.sel.modify(conn.sock, events, conn)

    def _pump(self, timeout):
        """Waits up to `timeout` seconds for socket events. Returns False
        once a connection has closed with requests still unanswered."""
        alive = True
        for key, events in self.sel.select(timeout):
            conn = key.data
            if events & selectors.EVENT_WRITE:
                self._flush(conn)
            if events & selectors.EVENT_READ:
                try:
                    chunk = conn.sock.recv(1 << 20)
                except BlockingIOError:
                    continue
                now = time.perf_counter()
                if not chunk:
                    self.sel.unregister(conn.sock)
                    conn.closed = True
                    alive = alive and not conn.pending
                    continue
                conn.inbuf += chunk
                while True:
                    cut = conn.inbuf.find(b"\n")
                    if cut < 0:
                        break
                    line = bytes(conn.inbuf[:cut + 1])
                    del conn.inbuf[:cut + 1]
                    if not conn.pending:
                        continue  # unsolicited line: the check counts it
                    index = conn.pending.popleft()
                    self.responses[index] = line
                    self.received_at[index] = now
        return alive

    def round_trip(self, line, timeout_s):
        """Sends one request on the first connection and waits for its
        answer; returns it, or None if none came within `timeout_s`."""
        self._send(self.conns[0], -1, line)
        deadline = time.perf_counter() + timeout_s
        while -1 not in self.responses and time.perf_counter() < deadline:
            if not self._pump(0.05):
                break
        self.received_at.pop(-1, None)
        return self.responses.pop(-1, None)

    def _in_flight(self):
        return sum(len(c.pending) for c in self.conns)

    def open_loop(self, lines, indices, rate, rng, timeout_s):
        """Sends `indices` at seeded Poisson arrival times (mean `rate` per
        second), alternating connections. Returns (latencies_s, lateness_s):
        per answered request the time from its scheduled send to its
        response, and per request how late the client actually sent it."""
        start = time.perf_counter() + 0.01
        due = []
        t = start
        for _ in indices:
            t += rng.expovariate(rate)
            due.append(t)
        deadline = due[-1] + timeout_s if due else start
        # A collection pass would make the client, not the server, late.
        gc.disable()
        lateness = []
        scheduled = {}
        sent = 0
        while True:
            now = time.perf_counter()
            while sent < len(indices) and due[sent] <= now:
                index = indices[sent]
                conn = self.conns[sent % len(self.conns)]
                scheduled[index] = due[sent]
                lateness.append(now - due[sent])
                self._send(conn, index, lines[index])
                sent += 1
            if sent == len(indices) and not self._in_flight():
                break
            if now > deadline:
                break
            wait = (due[sent] - now) if sent < len(indices) else 0.5
            if not self._pump(max(wait, 0.0)) and sent == len(indices):
                break
        gc.enable()
        latencies = [self.received_at[i] - scheduled[i]
                     for i in indices if i in self.received_at]
        return latencies, lateness
