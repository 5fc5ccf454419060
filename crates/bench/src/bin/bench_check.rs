//! CI gate for the criterion JSON reports.
//!
//! Usage: `bench_check BENCH_ingest.json BENCH_query.json ...`
//!
//! Fails (exit 1) when a report is missing, unparsable, or empty — a smoke
//! run that silently produced nothing must not pass CI — or when a report's
//! gate (below, one `check_*` per report) fails.
//!
//! The parser is a minimal hand-rolled reader for the exact shape the
//! vendored criterion shim emits (`{"benchmarks": [{"name": ..,
//! "mean_ns_per_iter": .., ...}]}`) — std-only, no serde.

use std::process::ExitCode;

#[derive(Debug, Clone)]
struct Bench {
    name: String,
    mean_ns_per_iter: f64,
    elems_per_sec: Option<f64>,
    /// Throughput at the fastest sampled iteration — robust to scheduler
    /// noise (which only slows iterations down), so the scaling gate
    /// compares this rather than the mean.
    peak_elems_per_sec: Option<f64>,
}

/// Extract a string field from one JSON object body.
fn str_field(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Extract a numeric field from one JSON object body.
fn num_field(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn parse_report(text: &str) -> Result<Vec<Bench>, String> {
    if !text.contains("\"benchmarks\"") {
        return Err("missing \"benchmarks\" key".into());
    }
    let mut out = Vec::new();
    // Benchmark objects are one per line in the shim's output; parse each
    // `{...}` fragment that carries a name.
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with('{') || !line.contains("\"name\"") {
            continue;
        }
        let name = str_field(line, "name").ok_or_else(|| format!("object without name: {line}"))?;
        let mean = num_field(line, "mean_ns_per_iter")
            .ok_or_else(|| format!("'{name}' lacks mean_ns_per_iter"))?;
        if !(mean.is_finite() && mean > 0.0) {
            return Err(format!("'{name}' has nonsensical mean {mean}"));
        }
        out.push(Bench {
            name,
            mean_ns_per_iter: mean,
            elems_per_sec: num_field(line, "elems_per_sec"),
            peak_elems_per_sec: num_field(line, "peak_elems_per_sec"),
        });
    }
    if out.is_empty() {
        return Err("report contains zero benchmarks".into());
    }
    Ok(out)
}

/// The better of the mean-throughput and peak-throughput ratios between
/// two benchmarks. Taking the max makes a parity gate survivable on the
/// shared single-core container, where either statistic alone can lose a
/// whole sample window to throttling (the two rarely flap together).
fn best_ratio(num: &Bench, den: &Bench) -> Option<f64> {
    let mean = match (num.elems_per_sec, den.elems_per_sec) {
        (Some(a), Some(b)) if b > 0.0 => Some(a / b),
        _ => None,
    };
    let peak = match (num.peak_elems_per_sec, den.peak_elems_per_sec) {
        (Some(a), Some(b)) if b > 0.0 => Some(a / b),
        _ => None,
    };
    match (mean, peak) {
        (Some(m), Some(p)) => Some(m.max(p)),
        (m, p) => m.or(p),
    }
}

/// The handle-path criterion, on the pipeline's own traffic (one uplink's
/// nine series per call): points fed to the ingest runtime by `SeriesRef`
/// — staged under run headers, each batch applied by `append_run` under
/// one write session — must sustain at least 2x the mean throughput of the
/// same points through string-keyed `put_batch`, which builds a key string
/// and probes the intern map per point. Both sides run on the calling
/// thread against one store, so the ratio measures handles + run framing
/// and nothing else. Mean, not peak: the 2x margin is far enough from
/// parity that scheduler noise cannot fake a pass.
fn check_handle_runs_vs_put_batch(benches: &[Bench]) -> Result<(), String> {
    let mean = |name: &str| {
        benches
            .iter()
            .find(|b| b.name == name)
            .and_then(|b| b.elems_per_sec)
            .ok_or_else(|| format!("no {name} mean throughput in report"))
    };
    let serial = mean("ingest_uplinks/put_batch")?;
    let handles = mean("ingest_uplinks/handles")?;
    if handles < 2.0 * serial {
        return Err(format!(
            "handle-fed append_run ({handles:.0} elems/s) is under 2x string-keyed put_batch ({serial:.0} elems/s)"
        ));
    }
    println!(
        "bench_check: handles + runs ok — put_batch {serial:.0} elems/s, handles {handles:.0} elems/s ({:.2}x)",
        handles / serial
    );
    Ok(())
}

/// The scheduler criteria:
/// - at 2000 nodes the event-queue dispatch loop must beat the old
///   min-scan shape outright (80x observed — a hard gate);
/// - at 12 nodes (one city pilot) it must hold >= 0.75x of min-scan —
///   parity within noise. A 12-element linear scan is branchless,
///   SIMD-friendly, and two cache lines wide, so the heap only reaches
///   ~0.9-1.0x; the gate catches per-pop overhead regressions (the
///   pre-packed-key queue sat at 0.6x).
fn check_scheduler_scaling(benches: &[Bench]) -> Result<(), String> {
    let bench = |name: &str| {
        benches
            .iter()
            .find(|b| b.name == name)
            .ok_or_else(|| format!("no {name} in report"))
    };
    let throughput = |name: &str| {
        bench(name).and_then(|b| {
            b.peak_elems_per_sec
                .or(b.elems_per_sec)
                .ok_or_else(|| format!("no {name} throughput in report"))
        })
    };
    let min_scan = throughput("scheduler/min_scan/2000")?;
    let event_queue = throughput("scheduler/event_queue/2000")?;
    if event_queue <= min_scan {
        return Err(format!(
            "event queue at 2000 nodes ({event_queue:.0} events/s) does not beat min-scan ({min_scan:.0} events/s)"
        ));
    }
    println!(
        "bench_check: scheduler scaling ok — min-scan {min_scan:.0} events/s, event queue {event_queue:.0} events/s ({:.1}x) at 2000 nodes",
        event_queue / min_scan
    );
    let small = best_ratio(
        bench("scheduler/event_queue/12")?,
        bench("scheduler/min_scan/12")?,
    )
    .ok_or("no 12-node throughput in report")?;
    if small < 0.75 {
        return Err(format!(
            "event queue at 12 nodes fell to {small:.2}x of min-scan (floor 0.75x)"
        ));
    }
    println!(
        "bench_check: scheduler small-fleet ok — event queue {small:.2}x of min-scan at 12 nodes"
    );
    Ok(())
}

/// The observability criterion: at 2000 nodes the instrumented dispatch
/// loop must keep at least 80% of the bare loop's events/sec, on the
/// better of the mean/peak ratios. (The budget was 90%, then 85%; the
/// packed-u128 heap keys sped the *bare* pop up ~40% while the record
/// path's absolute cost is unchanged, so the same ~45ns of recording is
/// now a larger fraction of a cheaper pop — measured 11-15% with
/// throttling spikes beyond. 80% still catches a real regression in the
/// record path itself.)
fn check_obs_overhead(benches: &[Bench]) -> Result<(), String> {
    let bench = |variant: &str| {
        let name = format!("obs/{variant}/2000");
        benches
            .iter()
            .find(|b| b.name == name)
            .ok_or_else(|| format!("no {name} in report"))
    };
    let off = bench("off")?;
    let on = bench("on")?;
    let ratio = best_ratio(on, off).ok_or("no obs/2000 throughput in report")?;
    if ratio < 0.80 {
        return Err(format!(
            "instrumented dispatch at 2000 nodes fell to {ratio:.2}x of bare (floor 0.80x)"
        ));
    }
    println!(
        "bench_check: obs overhead ok — instrumented dispatch {ratio:.2}x of bare ({:.1}% overhead) at 2000 nodes",
        (1.0 - ratio) * 100.0
    );
    Ok(())
}

/// The overload criterion: surviving a ×100 traffic spike with the
/// backpressure stack (admission shedding, in-flight caps, bounded drains)
/// must cost a bounded multiple of the healthy run — 30× is the gate,
/// against ~9× observed and the ~100× an unmitigated pipeline would pay.
fn check_overload(benches: &[Bench]) -> Result<(), String> {
    let mean = |variant: &str| {
        benches
            .iter()
            .find(|b| b.name == format!("overload/{variant}"))
            .map(|b| b.mean_ns_per_iter)
            .ok_or_else(|| format!("no overload/{variant} in report"))
    };
    let healthy = mean("healthy")?;
    let bounded = mean("spike_bounded")?;
    let unbounded = mean("spike_unbounded")?;
    if bounded > 30.0 * healthy {
        return Err(format!(
            "×100 spike with backpressure ({bounded:.0} ns/run) exceeds 30× the healthy run ({healthy:.0} ns/run)"
        ));
    }
    println!(
        "bench_check: overload ok — healthy {:.2} ms, spike bounded {:.2} ms ({:.1}x), unbounded drain {:.2} ms",
        healthy / 1e6,
        bounded / 1e6,
        bounded / healthy,
        unbounded / 1e6
    );
    Ok(())
}

/// The rollup criterion: serving a matching-interval downsample from
/// seal-time rollups must be at least 2.5× faster than re-decoding the
/// Gorilla streams (cache disabled on both sides). The floor was 3×
/// (~3.7× observed) until the ingest-runtime PR rewrote `BitReader` to
/// byte-gulp reads — raw decode, the comparison baseline, got ~25%
/// faster, so the honest rollup margin is now ~2.9–3.4×.
fn check_rollup_speedup(benches: &[Bench]) -> Result<(), String> {
    let peak = |variant: &str| {
        benches
            .iter()
            .find(|b| b.name == format!("query_downsample_aggregate/{variant}"))
            .and_then(|b| b.peak_elems_per_sec.or(b.elems_per_sec))
            .ok_or_else(|| format!("no query_downsample_aggregate/{variant} in report"))
    };
    let raw = peak("raw")?;
    let rollup = peak("rollup")?;
    if rollup < 2.5 * raw {
        return Err(format!(
            "rollup serving ({rollup:.0} elems/s) is under 2.5x raw decode ({raw:.0} elems/s)"
        ));
    }
    println!(
        "bench_check: rollup speedup ok — raw {raw:.0} elems/s, rollup {rollup:.0} elems/s ({:.1}x)",
        rollup / raw
    );
    Ok(())
}

/// The multi-user tail-latency criterion for the zipfian dashboard mix
/// under sustained ingest: the full serving stack must win where users
/// live (p95) and stay bounded at the tail — the p99 is dominated by
/// order-sensitive full scans that rollups cannot serve, so it may carry
/// cache bookkeeping overhead, but never more than 50% over raw, and
/// never above an absolute 100 ms sanity cap.
fn check_multiuser(benches: &[Bench]) -> Result<(), String> {
    let metric = |name: &str| {
        benches
            .iter()
            .find(|b| b.name == format!("multiuser/{name}"))
            .map(|b| b.mean_ns_per_iter)
            .ok_or_else(|| format!("no multiuser/{name} in report"))
    };
    let served_p95 = metric("served_p95")?;
    let served_p99 = metric("served_p99")?;
    let raw_p95 = metric("raw_p95")?;
    let raw_p99 = metric("raw_p99")?;
    if served_p95 >= raw_p95 {
        return Err(format!(
            "served p95 ({:.2} ms) does not beat raw p95 ({:.2} ms)",
            served_p95 / 1e6,
            raw_p95 / 1e6
        ));
    }
    if served_p99 > 1.5 * raw_p99 {
        return Err(format!(
            "served p99 ({:.2} ms) exceeds 1.5x raw p99 ({:.2} ms)",
            served_p99 / 1e6,
            raw_p99 / 1e6
        ));
    }
    if served_p99 > 100e6 {
        return Err(format!(
            "served p99 ({:.2} ms) exceeds the 100 ms absolute cap",
            served_p99 / 1e6
        ));
    }
    println!(
        "bench_check: multiuser ok — served p95 {:.2} ms vs raw {:.2} ms ({:.1}x), served p99 {:.2} ms vs raw {:.2} ms",
        served_p95 / 1e6,
        raw_p95 / 1e6,
        raw_p95 / served_p95,
        served_p99 / 1e6,
        raw_p99 / 1e6
    );
    Ok(())
}

fn check_file(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let benches = parse_report(&text).map_err(|e| format!("{path}: {e}"))?;
    println!("bench_check: {path}: {} benchmarks", benches.len());
    for b in &benches {
        println!(
            "  {}: {:.0} ns/iter{}",
            b.name,
            b.mean_ns_per_iter,
            b.elems_per_sec
                .map(|e| format!(", {e:.0} elems/s"))
                .unwrap_or_default()
        );
    }
    if benches
        .iter()
        .any(|b| b.name.starts_with("ingest_uplinks/"))
    {
        check_handle_runs_vs_put_batch(&benches).map_err(|e| format!("{path}: {e}"))?;
    }
    if benches.iter().any(|b| b.name.starts_with("scheduler/")) {
        check_scheduler_scaling(&benches).map_err(|e| format!("{path}: {e}"))?;
    }
    if benches.iter().any(|b| b.name.starts_with("obs/")) {
        check_obs_overhead(&benches).map_err(|e| format!("{path}: {e}"))?;
    }
    if benches.iter().any(|b| b.name.starts_with("overload/")) {
        check_overload(&benches).map_err(|e| format!("{path}: {e}"))?;
    }
    if benches
        .iter()
        .any(|b| b.name.starts_with("query_downsample_aggregate/"))
    {
        check_rollup_speedup(&benches).map_err(|e| format!("{path}: {e}"))?;
    }
    if benches.iter().any(|b| b.name.starts_with("multiuser/")) {
        check_multiuser(&benches).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: bench_check <report.json>...");
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    for path in &paths {
        if let Err(e) = check_file(path) {
            eprintln!("bench_check: FAIL: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
