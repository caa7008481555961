#!/usr/bin/env python3
"""Closed-loop load generator for the dynamips looking-glass (--serve).

Discovers queryable ASNs from /v1/healthz, then drives N worker threads,
each with a persistent keep-alive connection, round-robin over the
per-AS endpoints for a fixed duration. Two things are measured and one
invariant is checked:

  * throughput: completed requests / wall time (requests_per_sec);
  * tail latency: p99 over per-request wall times, exported inverted
    (inv_p99_per_s = 1 / p99_seconds) so check_bench.py's one-sided
    "higher is better" gate applies to both metrics;
  * byte consistency: every 200-response body embeds the snapshot
    generation it was rendered from ("snapshot": G). Responses are
    grouped by (path, generation) and each group's bodies must be
    byte-identical — a mismatch means a torn read across a concurrent
    re-finalization and fails the run, which is exactly what the
    lg-soak leg (tests/soak/lg-soak.sh) runs this tool to prove cannot
    happen.

The result is a schema dynamips.bench.v1 document (--out) gated by
tools/check_bench.py against bench/baselines/BENCH_lg.json. The meta
fields (--scale/--seed/--window/--threads default to the lg-soak run
parameters) describe the serving run so candidates and baselines are
only ever compared at identical shapes.

Connection-level failures (reset while reconnecting, server restart)
are retried with a fresh connection and counted as reconnects, not
errors; any non-200 response is an error and fails the run.

`--slow-client N` additionally runs N slow-loris-style readers: each
opens a raw socket with a tiny SO_RCVBUF, sends one GET, then trickle-
reads one byte per `--slow-read-interval` seconds. A healthy server
(send_timeout_ms armed) drops such connections and reclaims the
worker — the drop is counted, never treated as an error. Responses in
this repo are small enough to fit kernel buffers, so pair the mode
with a `--failpoints 'lg.send=delay(...)...'` serving run (or a large
snapshot) to actually stall the send path.

Exit status: 0 ok, 1 torn read / HTTP error / no paths discovered,
2 usage. Stdlib-only by design (runs in bare CI containers).
"""

import argparse
import hashlib
import http.client
import json
import re
import socket
import sys
import threading
import time

SNAPSHOT_RE = re.compile(rb'"snapshot": (\d+)')


def discover_paths(host, port, timeout_s):
    """Poll /v1/healthz until a snapshot is published; return its per-AS
    endpoint paths (durations for atlas, assoc for cdn)."""
    deadline = time.monotonic() + timeout_s
    last_error = "no response"
    while time.monotonic() < deadline:
        try:
            conn = http.client.HTTPConnection(host, port, timeout=5)
            conn.request("GET", "/v1/healthz")
            resp = conn.getresponse()
            body = resp.read()
            conn.close()
            if resp.status == 200:
                doc = json.loads(body)
                paths = []
                for study, endpoint in (("atlas", "durations"),
                                        ("cdn", "assoc")):
                    fragment = doc.get(study)
                    if fragment:
                        paths.extend(f"/v1/{endpoint}/{asn}"
                                     for asn in fragment.get("ases", []))
                if paths:
                    return paths
                last_error = "healthz ok but no snapshot published yet"
            else:
                last_error = f"healthz returned {resp.status}"
        except (OSError, ValueError) as exc:
            last_error = str(exc)
        time.sleep(0.2)
    print(f"lg_load: discovery failed: {last_error}", file=sys.stderr)
    return []


class Worker(threading.Thread):
    def __init__(self, index, host, port, paths, stop_at, bodies, lock):
        super().__init__(daemon=True)
        self.host, self.port = host, port
        self.paths, self.offset = paths, index * 7
        self.stop_at = stop_at
        self.bodies, self.lock = bodies, lock  # (path, gen) -> sha256
        self.latencies = []
        self.requests = self.errors = self.reconnects = self.torn = 0

    def run(self):
        conn = None
        i = self.offset
        while time.monotonic() < self.stop_at:
            path = self.paths[i % len(self.paths)]
            i += 1
            t0 = time.monotonic()
            try:
                if conn is None:
                    conn = http.client.HTTPConnection(
                        self.host, self.port, timeout=10)
                conn.request("GET", path)
                resp = conn.getresponse()
                body = resp.read()
            except (OSError, http.client.HTTPException):
                if conn is not None:
                    conn.close()
                conn = None
                self.reconnects += 1
                continue
            self.latencies.append(time.monotonic() - t0)
            self.requests += 1
            if resp.status != 200:
                self.errors += 1
                print(f"lg_load: {path} -> {resp.status}", file=sys.stderr)
                continue
            match = SNAPSHOT_RE.search(body)
            if not match:
                continue
            key = (path, int(match.group(1)))
            digest = hashlib.sha256(body).hexdigest()
            with self.lock:
                seen = self.bodies.setdefault(key, digest)
            if seen != digest:
                self.torn += 1
                print(f"lg_load: TORN READ {path} snapshot "
                      f"{key[1]}: {seen[:12]} != {digest[:12]}",
                      file=sys.stderr)
        if conn is not None:
            conn.close()


class SlowClient(threading.Thread):
    """One slow-loris reader: request, then trickle-read a byte at a time
    until the server enforces its send deadline and drops us (or the run
    ends). Being dropped is the expected, healthy outcome."""

    def __init__(self, host, port, path, stop_at, interval):
        super().__init__(daemon=True)
        self.host, self.port, self.path = host, port, path
        self.stop_at, self.interval = stop_at, interval
        self.bytes_read = 0
        self.dropped = False

    def run(self):
        sock = None
        try:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            # A tiny receive window fills the server's send buffer fast,
            # forcing its send path to wait on us.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1024)
            sock.connect((self.host, self.port))
            sock.sendall(f"GET {self.path} HTTP/1.1\r\nHost: lg\r\n"
                         "Connection: keep-alive\r\n\r\n".encode())
            sock.settimeout(self.interval)
            while time.monotonic() < self.stop_at:
                time.sleep(self.interval)
                try:
                    chunk = sock.recv(1)
                except socket.timeout:
                    continue
                except OSError:
                    self.dropped = True
                    break
                if not chunk:
                    self.dropped = True
                    break
                self.bytes_read += 1
        except OSError:
            self.dropped = True
        finally:
            if sock is not None:
                sock.close()


def percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[rank]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--duration", type=float, default=10.0,
                        help="seconds of load (default 10)")
    parser.add_argument("--workers", type=int, default=2,
                        help="concurrent closed-loop connections")
    parser.add_argument("--discover-timeout", type=float, default=60.0,
                        help="seconds to wait for the first snapshot")
    parser.add_argument("--out", default="",
                        help="write a dynamips.bench.v1 document here")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="meta.scale of the serving run")
    parser.add_argument("--seed", type=int, default=1,
                        help="meta.seed of the serving run")
    parser.add_argument("--window", type=int, default=30000,
                        help="meta.window_hours of the serving run")
    parser.add_argument("--threads", type=int, default=1,
                        help="meta.threads of the serving run")
    parser.add_argument("--slow-client", type=int, default=0,
                        help="also run N slow-loris trickle-readers "
                             "(exercises the server send deadline)")
    parser.add_argument("--slow-read-interval", type=float, default=0.5,
                        help="seconds between single-byte reads in "
                             "--slow-client mode (default 0.5)")
    args = parser.parse_args()
    if args.duration <= 0 or args.workers <= 0:
        parser.error("--duration and --workers must be positive")
    if args.slow_client < 0 or args.slow_read_interval <= 0:
        parser.error("--slow-client must be >= 0 and "
                     "--slow-read-interval positive")

    paths = discover_paths(args.host, args.port, args.discover_timeout)
    if not paths:
        return 1
    print(f"lg_load: {len(paths)} paths discovered; driving "
          f"{args.workers} workers for {args.duration:.0f}s")

    bodies, lock = {}, threading.Lock()
    t0 = time.monotonic()
    stop_at = t0 + args.duration
    workers = [Worker(i, args.host, args.port, paths, stop_at, bodies, lock)
               for i in range(args.workers)]
    slow = [SlowClient(args.host, args.port, paths[i % len(paths)], stop_at,
                       args.slow_read_interval)
            for i in range(args.slow_client)]
    for w in workers + slow:
        w.start()
    for w in workers + slow:
        w.join()
    wall = time.monotonic() - t0

    requests = sum(w.requests for w in workers)
    errors = sum(w.errors for w in workers)
    reconnects = sum(w.reconnects for w in workers)
    torn = sum(w.torn for w in workers)
    latencies = sorted(x for w in workers for x in w.latencies)
    p50 = percentile(latencies, 0.50)
    p99 = percentile(latencies, 0.99)
    rps = requests / wall if wall > 0 else 0.0
    snapshots = sorted({gen for _, gen in bodies})

    print(f"lg_load: {requests} requests in {wall:.2f}s "
          f"({rps:.0f} req/s), p50 {p50 * 1e3:.2f}ms, "
          f"p99 {p99 * 1e3:.2f}ms, {errors} errors, "
          f"{reconnects} reconnects, {torn} torn, "
          f"snapshots seen: {snapshots}")
    slow_dropped = sum(1 for s in slow if s.dropped)
    if slow:
        print(f"lg_load: {len(slow)} slow clients, {slow_dropped} dropped "
              f"by the server, "
              f"{sum(s.bytes_read for s in slow)} bytes trickle-read")

    if args.out:
        doc = {
            "schema": "dynamips.bench.v1",
            "meta": {"binary": "lg_load", "scale": args.scale,
                     "seed": args.seed, "window_hours": args.window,
                     "threads": args.threads},
            "counts": {"requests": requests, "errors": errors,
                       "reconnects": reconnects, "torn": torn,
                       "paths": len(paths),
                       "snapshots_seen": len(snapshots),
                       "slow_clients": len(slow),
                       "slow_clients_dropped": slow_dropped},
            "wall_s": {"duration": round(wall, 3),
                       "p50": round(p50, 6), "p99": round(p99, 6)},
            "metrics": {
                "requests_per_sec": round(rps, 1),
                "inv_p99_per_s": round(1.0 / p99, 1) if p99 > 0 else 0.0,
            },
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"lg_load: wrote {args.out}")

    if torn:
        print(f"lg_load: FAIL — {torn} torn reads", file=sys.stderr)
        return 1
    if errors:
        print(f"lg_load: FAIL — {errors} non-200 responses", file=sys.stderr)
        return 1
    if requests == 0:
        print("lg_load: FAIL — no requests completed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
