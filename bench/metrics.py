"""Latency summaries shared by the benchmark and its tests."""

import statistics

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def tail_latency(samples):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count), or (None, None, count) when
    there are too few samples for any percentile to qualify. The value at
    sorted rank r (1-based) sits at percentile 100*r/n and has n - r samples
    beyond it, so the qualifying rank is n - TAIL_BEYOND.
    """
    xs = sorted(samples)
    n = len(xs)
    rank = n - TAIL_BEYOND
    if rank < 1:
        return None, None, n
    return xs[rank - 1], 100.0 * rank / n, n


def p50(samples):
    return statistics.median(samples) if samples else None

