//! The repository benchmark. One run measures one workload:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --selftest
//! ```
//!
//! With `--trace 0` it repeats the workload's unit until `--seconds`
//! have passed, checks the outputs against the program's own drivers,
//! and prints every end-to-end metric. With `--trace 1` (the `traced`
//! build) it prints the per-layer metrics of one traced unit instead and
//! writes its spans to `perfbench/out/`. The last line of standard
//! output is always one JSON object. See `perfbench/README.md`.

mod selftest;
mod stats;
mod trace;
mod workloads;
mod world;

use std::time::Instant;

use workloads::{Layers, Sizes, Unit, WORKLOADS};

/// End-to-end metrics, printed on every `--trace 0` run. Wall-clock
/// lookup times did not repeat across runs on a shared host, so they
/// are per-layer metrics (`wall.*`) instead; see README.md.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("lookup_p50_ticks", "ticks"),
    ("lookup_p99_ticks", "ticks"),
    ("hops_aware", "hops"),
    ("hops_oblivious", "hops"),
    ("reduction_pct", "%"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed on every `--trace 1` run.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("build.overlay_s", "s"),
    ("build.arena_s", "s"),
    ("freq.aggregate_s", "s"),
    ("select.oblivious_s", "s"),
    ("select.oblivious_us_per_node", "us"),
    ("select.aware_s", "s"),
    ("select.aware_us_per_node", "us"),
    ("select.allocs_per_node", "count"),
    ("select.aux_used_share", "ratio"),
    ("walk.chord.ns_per_lookup", "ns"),
    ("walk.pastry.ns_per_lookup", "ns"),
    ("walk.tapestry.ns_per_lookup", "ns"),
    ("walk.skipgraph.ns_per_lookup", "ns"),
    ("walk.ns_per_hop", "ns"),
    ("walk.allocs_per_lookup.chord", "count"),
    ("walk.allocs_per_lookup.pastry", "count"),
    ("walk.allocs_per_lookup.tapestry", "count"),
    ("walk.allocs_per_lookup.skipgraph", "count"),
    ("walk.hops_per_lookup.core_only", "hops"),
    ("walk.hops_per_lookup.aware", "hops"),
    ("walk.hops_per_lookup.oblivious", "hops"),
    ("walk.aux_hop_share", "ratio"),
    ("faults.chord.ns_per_lookup", "ns"),
    ("faults.pastry.ns_per_lookup", "ns"),
    ("faults.tapestry.ns_per_lookup", "ns"),
    ("faults.skipgraph.ns_per_lookup", "ns"),
    ("faults.allocs_per_lookup.chord", "count"),
    ("faults.allocs_per_lookup.pastry", "count"),
    ("faults.allocs_per_lookup.tapestry", "count"),
    ("faults.allocs_per_lookup.skipgraph", "count"),
    ("faults.probes_per_lookup", "count"),
    ("faults.retries_per_lookup", "count"),
    ("faults.timeouts_per_lookup", "count"),
    ("faults.fallbacks_per_lookup", "count"),
    ("node.run_s", "s"),
    ("node.messages_per_lookup", "count"),
    ("node.ns_per_message", "ns"),
    ("node.store_save_ms", "ms"),
    ("node.store_load_ms", "ms"),
    ("node.store_peers", "count"),
    ("refresh.tick_ms", "ms"),
    ("churn.membership_us", "us"),
    ("churn.repair_lookup_us", "us"),
    ("churn.reselect_us", "us"),
    ("scale.route_ns_per_lookup", "ns"),
    ("scale.heap_bytes_per_node", "B"),
    ("self.build_s", "s"),
    ("self.freq_s", "s"),
    ("self.select_s", "s"),
    ("self.walk_s", "s"),
    ("self.node_s", "s"),
    ("unattributed_s", "s"),
    ("traced_total_s", "s"),
    ("untraced_total_s", "s"),
    ("wall.lookups_per_s", "1/s"),
    ("wall.lookup_p50_us", "us"),
    ("wall.lookup_p99_us", "us"),
    ("tracing_overhead_pct", "%"),
    ("pool_threads", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--selftest" => args.selftest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.selftest && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// Peak resident set size of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up samples per run: each unit gives one, and set-ups alone make
/// up the rest, to at least 3 samples and, for short set-ups, until they
/// add up to 1 s or number 50.
const SETUP_SAMPLES: (usize, f64, usize) = (3, 1.0, 50);

/// The end-to-end metrics of a `--trace 0` run.
fn end_to_end(args: &Args, sizes: &Sizes) -> (Vec<(String, f64)>, u64, u64, Result<(), String>) {
    // Warm the allocator and code paths with one set-up, untimed.
    workloads::setup_only(&args.workload, sizes, args.seed);
    // Repeat the unit while another one still fits in `--seconds`.
    let start = Instant::now();
    let mut units: Vec<Unit> = Vec::new();
    loop {
        let u = workloads::unit(&args.workload, sizes, args.seed);
        eprintln!(
            "unit {}: run {:.3} s, setup {:.4} s, routing {:.3} s, p50 {:.3} us",
            units.len(),
            u.run_s,
            u.setup_s,
            u.routing_s,
            workloads::fastest_group(std::slice::from_ref(&u), 0.5)
        );
        units.push(u);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * (units.len() + 1) as f64 / units.len() as f64 > args.seconds {
            break;
        }
    }
    let mut setups: Vec<f64> = units.iter().map(|u| u.setup_s).collect();
    while setups.len() < SETUP_SAMPLES.0
        || (setups.iter().sum::<f64>() < SETUP_SAMPLES.1 && setups.len() < SETUP_SAMPLES.2)
    {
        setups.push(workloads::setup_only(&args.workload, sizes, args.seed));
    }
    let rss = peak_rss_mb();

    // Checks, outside every timed span.
    let reference = workloads::reference(&args.workload, sizes, args.seed);
    let mut verdict = workloads::check(&units[0], &reference);
    if verdict.is_ok() && units.iter().any(|u| u.outputs != units[0].outputs) {
        verdict = Err("units of one seed disagree".into());
    }
    let first = &mut units[0];
    workloads::complete_from_reference(first, &reference);
    let first = units[0].clone();

    // Wall-clock lookup figures, for the reader: the fastest unit, the
    // one other load on the host disturbed least.
    let mut run: Vec<f64> = units.iter().map(|u| u.run_s).collect();
    let mut rate: Vec<f64> = units
        .iter()
        .map(|u| u.lookups as f64 / u.routing_s)
        .collect();
    eprintln!(
        "wall clock (not gated): run {:.3} s, {:.0} lookups/s, p50 {:.3} us, p99 {:.3} us",
        stats::quantile(&mut run, 0.0),
        stats::quantile(&mut rate, 1.0),
        workloads::fastest_group(&units, 0.5),
        workloads::fastest_group(&units, 0.99),
    );
    let samples: usize = units.iter().flat_map(|u| &u.latency_ns).map(Vec::len).sum();
    let metrics = vec![
        ("setup_s".to_string(), stats::median(&mut setups)),
        (
            "lookup_p50_ticks".into(),
            stats::grouped_quantile(&first.ticks, 0.5),
        ),
        (
            "lookup_p99_ticks".into(),
            stats::grouped_quantile(&first.ticks, 0.99),
        ),
        ("hops_aware".into(), first.hops_aware),
        ("hops_oblivious".into(), first.hops_oblivious),
        ("reduction_pct".into(), first.reduction_pct),
        (
            "success_rate".into(),
            first.succeeded as f64 / first.issued.max(1) as f64,
        ),
        ("peak_rss_mb".into(), rss),
    ];
    eprintln!(
        "{}: {} units in {:.1} s, {} setup samples, {} latency samples, pool width {}",
        args.workload,
        units.len(),
        start.elapsed().as_secs_f64(),
        setups.len(),
        samples,
        peercache_par::threads(),
    );
    let attempted = units.iter().map(|u| u.lookups).sum();
    let failed = units.iter().map(|u| u.failed).sum();
    (metrics, attempted, failed, verdict)
}

/// The per-layer metrics of a `--trace 1` run.
fn per_layer(args: &Args, sizes: &Sizes) -> Result<Layers, String> {
    if !cfg!(feature = "traced") {
        return Err("--trace 1 needs the traced build (cargo build --features traced)".into());
    }
    let path = std::path::Path::new("perfbench/out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let m = workloads::traced(&args.workload, sizes, args.seed, &path)?;
    let layers: f64 = m
        .iter()
        .filter(|(k, _)| k.starts_with("self."))
        .map(|(_, v)| v)
        .sum();
    let error = layers + m["unattributed_s"] - m["traced_total_s"];
    if error.abs() > 1e-6 * m["traced_total_s"].max(1.0) {
        return Err(format!(
            "layer self times do not sum to the traced total (off by {error} s)"
        ));
    }
    Ok(m)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // One process drives the load; the worker pool is pinned to at most
    // two threads and never more than the host has.
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    peercache_par::set_threads(nproc.min(2));

    if args.selftest {
        std::process::exit(selftest::run());
    }
    let sizes = Sizes::paper();
    if args.trace {
        match per_layer(&args, &sizes) {
            Ok(m) => {
                let mut out = Vec::new();
                for (name, unit) in PER_LAYER {
                    let value = m.get(name).copied().unwrap_or(f64::NAN);
                    eprintln!("{name:>36} = {value:.6} {unit}");
                    out.push((name.to_string(), value, unit));
                }
                let complete = out.iter().all(|(_, v, _)| v.is_finite());
                let lookups = m["lookups_traced"] as u64;
                print_result(complete, lookups.max(1), 0, &out);
                std::process::exit(if complete { 0 } else { 1 });
            }
            Err(e) => {
                eprintln!("perfbench: traced run failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let (metrics, attempted, failed, verdict) = end_to_end(&args, &sizes);
    let mut out = Vec::new();
    for (name, unit) in END_TO_END {
        let value = metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| *v);
        eprintln!("{name:>18} = {value:.6} {unit}");
        out.push((name.to_string(), value, unit));
    }
    if let Err(e) = &verdict {
        eprintln!("perfbench: correctness check failed: {e}");
    }
    print_result(verdict.is_ok(), attempted, failed, &out);
    std::process::exit(if verdict.is_ok() { 0 } else { 1 });
}
