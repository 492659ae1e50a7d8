"""Extension benchmark: pushdown over SZ-class lossy data (future work)."""


from repro.bench import lossy


def test_lossy_pushdown_study(benchmark):
    doc = benchmark.pedantic(lambda: lossy.run("smoke"), rounds=1, iterations=1)
    points = doc["points"]
    lossless = points[0]
    loosest = points[-1]
    benchmark.extra_info["lossless_bytes"] = lossless["stored_bytes"]
    benchmark.extra_info["sz_bytes"] = loosest["stored_bytes"]
    benchmark.extra_info["sz_ratio"] = lossless["stored_bytes"] / loosest["stored_bytes"]
    # Lossy storage is smaller and queries get faster in both configs.
    assert loosest["stored_bytes"] < lossless["stored_bytes"]
    assert loosest["filter_seconds"] < lossless["filter_seconds"]
    assert loosest["allop_seconds"] < lossless["allop_seconds"]
    # Error bounds tighten monotonically with epsilon.
    sizes = [p["stored_bytes"] for p in points[1:]]
    assert sizes == sorted(sizes, reverse=True)
