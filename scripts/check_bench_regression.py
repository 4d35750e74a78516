#!/usr/bin/env python3
"""Compare a fresh BENCH_micro_kernels.json against the committed baseline.

Usage: check_bench_regression.py NEW.json [BASELINE.json]
       check_bench_regression.py --serve BENCH_serve.json \
           [--min-connected N] [--min-rps X] [--max-p99-ms Y]
       check_bench_regression.py --simulate BENCH_simulate.json \
           [--min-clients-per-s X] [--max-peak-rss-mib Y]

Default mode fails (exit 1) when a throughput/speedup key regressed by more
than --threshold (default 20%), or a timing key grew by more than the same
factor.

Skips cleanly (exit 0 with a message) when the two reports were measured
on different hardware or build types — cross-machine numbers are not
comparable, and CI runners change under us. Keys that are null/absent on
either side are skipped individually (e.g. avx2 columns on a non-AVX2
host, train_speedup_4t on a single-core host).

--serve mode gates one loadgen report (BENCH_serve.json) on absolute SLOs
instead of a baseline diff: zero transport errors, every request answered,
at least --min-connected concurrent connections actually opened, achieved
RPS at or above --min-rps, client-side p99 at or below --max-p99-ms, and
a "reactor" section in the report's embedded mid-run statsz probe that
reports zero reactor-level errors (slow-reader closes, over-capacity
refusals, oversized lines). Every TCP server is the epoll reactor, so a
missing section is a failure.

--simulate mode gates one streaming-simulation report (BENCH_simulate.json,
emitted by bench/simulate_scale) on absolute SLOs: the campaign produced
samples, generation throughput at or above --min-clients-per-s, and peak
RSS at or below --max-peak-rss-mib — the "bounded memory at any campaign
size" property of the chunked sink.
"""

import argparse
import json
import os
import sys

# Higher is better: fail when new < old * (1 - threshold).
HIGHER_BETTER = [
    "seq_samples_per_s",
    "batch256_samples_per_s",
    "batch_speedup",
    "serve_single_rps",
    "serve_roundtrip_rps",
    "serve_batch64_rps",
    "serve_speedup",
    "single_infer_rps_scalar",
    "single_infer_rps_simd",
    "simd_single_speedup",
    "train_speedup_4t",
]

# Lower is better: fail when new > old * (1 + threshold).
LOWER_BETTER = [
    "gemm_seconds_scalar",
    "gemm_seconds_avx2",
    "gemv_seconds_scalar",
    "gemv_seconds_avx2",
    "train_epoch_1t_seconds",
]

# The measurement context that must match for numbers to be comparable.
HARDWARE_KEYS = ["hardware_threads", "cpu_features", "kernel_tier"]


def load(path):
    with open(path) as fh:
        return json.load(fh)


def check_serve(report, args):
    """Absolute-SLO gate over one loadgen report (see module docstring)."""
    failures = []

    sent, ok = report.get("sent", 0), report.get("ok", 0)
    errors = report.get("errors")
    if errors != 0:
        failures.append(f"errors: {errors!r} (must be exactly 0)")
    if report.get("rejected", 0) != 0:
        failures.append(
            f"rejected: {report.get('rejected')!r} (must be exactly 0)"
        )
    if sent == 0 or ok != sent:
        failures.append(f"ok/sent: {ok}/{sent} (every request must succeed)")

    connected = report.get("connected", 0)
    if connected < args.min_connected:
        failures.append(
            f"connected: {connected} below the floor {args.min_connected}"
        )

    rps = report.get("achieved_rps", 0.0)
    if rps < args.min_rps:
        failures.append(
            f"achieved_rps: {rps:.1f} below the floor {args.min_rps:.1f}"
        )

    p99 = report.get("latency_ms", {}).get("p99")
    if not isinstance(p99, (int, float)) or p99 <= 0.0:
        failures.append(f"latency_ms.p99: {p99!r} (missing or non-positive)")
    elif p99 > args.max_p99_ms:
        failures.append(
            f"latency_ms.p99: {p99:.2f} ms over the {args.max_p99_ms:.2f} ms SLO"
        )

    # The mid-run statsz probe rode in-band through the epoll reactor; its
    # reactor section must report zero serving failures (client protocol
    # mistakes are counted separately).
    reactor = report.get("statsz", {}).get("reactor")
    if not isinstance(reactor, dict):
        failures.append("statsz.reactor: missing (the probe must report it)")
    elif reactor.get("errors") != 0:
        failures.append(
            f"statsz.reactor.errors: {reactor.get('errors')!r} "
            "(must be exactly 0)"
        )

    if failures:
        print(f"serve-slo: FAIL ({len(failures)} gates):")
        for line in failures:
            print(f"  {line}")
        return 1
    print(
        "serve-slo: OK "
        f"(connected={connected}, rps={rps:.1f}, p99={p99:.2f} ms, "
        "errors=0, reactor errors=0)"
    )
    return 0


def check_simulate(report, args):
    """Absolute-SLO gate over one simulate_scale report."""
    failures = []

    clients = report.get("clients", 0)
    samples = report.get("samples", 0)
    if clients <= 0 or samples <= 0:
        failures.append(
            f"clients/samples: {clients}/{samples} (campaign produced nothing)"
        )

    cps = report.get("clients_per_s", 0.0)
    if not isinstance(cps, (int, float)) or cps < args.min_clients_per_s:
        failures.append(
            f"clients_per_s: {cps!r} below the floor "
            f"{args.min_clients_per_s:.1f}"
        )

    rss_kib = report.get("peak_rss_kib")
    if not isinstance(rss_kib, (int, float)) or rss_kib <= 0:
        failures.append(f"peak_rss_kib: {rss_kib!r} (missing or non-positive)")
    elif rss_kib > args.max_peak_rss_mib * 1024.0:
        failures.append(
            f"peak_rss_kib: {rss_kib / 1024.0:.1f} MiB over the "
            f"{args.max_peak_rss_mib:.1f} MiB ceiling"
        )

    if failures:
        print(f"simulate-slo: FAIL ({len(failures)} gates):")
        for line in failures:
            print(f"  {line}")
        return 1
    print(
        "simulate-slo: OK "
        f"(clients={clients}, samples={samples}, "
        f"clients_per_s={cps:.0f}, peak_rss={rss_kib / 1024.0:.1f} MiB)"
    )
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("new", help="freshly generated BENCH json")
    parser.add_argument(
        "baseline",
        nargs="?",
        default=os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_micro_kernels.json",
        ),
        help="committed baseline (default: repo root BENCH_micro_kernels.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="fractional regression that fails the check (default 0.20)",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="treat NEW as a loadgen BENCH_serve.json and gate on absolute "
        "SLOs instead of a baseline diff",
    )
    parser.add_argument(
        "--min-connected",
        type=int,
        default=0,
        help="--serve: minimum concurrent connections actually opened",
    )
    parser.add_argument(
        "--min-rps",
        type=float,
        default=0.0,
        help="--serve: minimum achieved requests per second",
    )
    parser.add_argument(
        "--max-p99-ms",
        type=float,
        default=float("inf"),
        help="--serve: client-side p99 latency SLO in milliseconds",
    )
    parser.add_argument(
        "--simulate",
        action="store_true",
        help="treat NEW as a BENCH_simulate.json and gate on absolute "
        "throughput/RSS SLOs instead of a baseline diff",
    )
    parser.add_argument(
        "--min-clients-per-s",
        type=float,
        default=0.0,
        help="--simulate: minimum simulated clients per second",
    )
    parser.add_argument(
        "--max-peak-rss-mib",
        type=float,
        default=float("inf"),
        help="--simulate: peak RSS ceiling in MiB",
    )
    args = parser.parse_args()

    if args.serve:
        return check_serve(load(args.new), args)
    if args.simulate:
        return check_simulate(load(args.new), args)

    new = load(args.new)
    base = load(args.baseline)

    for key in HARDWARE_KEYS:
        if base.get(key) != new.get(key):
            print(
                f"bench-regression: SKIP — {key} differs "
                f"(baseline {base.get(key)!r} vs new {new.get(key)!r}); "
                "numbers are not comparable across hardware"
            )
            return 0

    failures = []
    compared = 0

    def comparable(key):
        old_v, new_v = base.get(key), new.get(key)
        if not isinstance(old_v, (int, float)) or not isinstance(
            new_v, (int, float)
        ):
            return None  # null or absent on either side: skip
        if old_v <= 0:
            return None
        return old_v, new_v

    for key in HIGHER_BETTER:
        pair = comparable(key)
        if pair is None:
            continue
        old_v, new_v = pair
        compared += 1
        if new_v < old_v * (1.0 - args.threshold):
            failures.append(
                f"{key}: {new_v:.4g} vs baseline {old_v:.4g} "
                f"({new_v / old_v - 1.0:+.1%})"
            )

    for key in LOWER_BETTER:
        pair = comparable(key)
        if pair is None:
            continue
        old_v, new_v = pair
        compared += 1
        if new_v > old_v * (1.0 + args.threshold):
            failures.append(
                f"{key}: {new_v:.4g} vs baseline {old_v:.4g} "
                f"({new_v / old_v - 1.0:+.1%})"
            )

    if failures:
        print(f"bench-regression: FAIL ({len(failures)} of {compared} keys):")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"bench-regression: OK ({compared} keys within threshold)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
