//! One benchmark for the four user paths of the DRCF simulator.
//!
//! ```text
//! perfbench --workload <soc_runs|warm_sweep|served_sweeps|sharded_e12>
//!           --seed <n> --seconds <s> --trace <0|1> [--ops <n>]
//! ```
//!
//! Each workload generates its inputs from the seed, sets up (input
//! generation, planning, server start, warm-up), then runs a closed loop
//! with one client thread for `--seconds`, over passes of its generated
//! operation list. Every operation of the first pass is checked against the
//! repository's oracles outside the timed region, and every later pass
//! must reproduce the first pass's outputs. The last line of stdout is one
//! JSON object: end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. A traced run alternates traced and untraced passes; the
//! per-layer metrics come from the traced ones, and the tracing overhead is
//! their latency over the untraced ones'. `--ops` shortens the operation
//! list (for the smoke tests).

mod scenario;
mod served;
mod sharded;
mod soc_runs;
mod trace;
mod util;
mod warm_sweep;

use std::time::Instant;

use trace::Tracer;
use util::Counters;

/// What one operation produced, as the benchmark sees it.
pub struct OpOut {
    /// The program reported success (no typed error, no `!ok` record).
    pub ok: bool,
    /// The simulated outputs of this operation; digested after the
    /// operation's clock stops.
    pub output: Box<dyn std::fmt::Debug>,
    /// Simulated microseconds this operation advanced.
    pub sim_us: f64,
    /// Design points this operation answered.
    pub points: u64,
    /// Deterministic per-layer counters of this operation.
    pub counters: Counters,
}

impl OpOut {
    pub fn digest(&self) -> u64 {
        util::digest_of(&self.output)
    }

    pub fn failed() -> OpOut {
        OpOut {
            ok: false,
            output: Box::new(()),
            sim_us: 0.0,
            points: 0,
            counters: Counters::default(),
        }
    }
}

/// A workload: a fixed, seeded list of operations run in passes.
pub trait Bench {
    /// Lines describing the generated inputs.
    fn mix(&self) -> Vec<String>;
    /// Worker threads and shards the workload uses.
    fn parallelism(&self) -> String;
    /// Operations in one pass.
    fn op_count(&self) -> usize;
    /// Untimed preparation before each pass (a fresh store, for instance).
    fn begin_pass(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Run operation `i`. With tracing on, also add host-time layer
    /// measurements to `host`.
    fn op(&mut self, i: usize, tr: &Tracer, host: &mut Counters) -> OpOut;
    /// Traced runs only: layer measurements taken after operation `i`,
    /// outside its latency.
    fn probe(&mut self, _i: usize, _tr: &Tracer, _host: &mut Counters) {}
    /// The oracle, outside the timed region: one verdict per first-pass
    /// operation, plus deterministic counters only traced runs report.
    /// Traced runs pass `host` for host-time layer measurements.
    fn check(
        &mut self,
        outs: &[(OpOut, u64)],
        lat_ms: &[f64],
        host: Option<&mut Counters>,
    ) -> (Vec<bool>, Counters);
}

const WORKLOADS: [&str; 4] = ["soc_runs", "warm_sweep", "served_sweeps", "sharded_e12"];

/// Times of the timed phase.
#[derive(Default)]
struct Phase {
    /// Per operation run, in order: (index in pass, latency s, traced).
    ops: Vec<(usize, f64, bool)>,
    failed: u64,
    passes: usize,
}

fn make(
    workload: &str,
    seed: u64,
    ops: Option<usize>,
    nproc: usize,
) -> Result<Box<dyn Bench>, String> {
    Ok(match workload {
        "soc_runs" => Box::new(soc_runs::SocRuns::new(seed, ops)?),
        "warm_sweep" => Box::new(warm_sweep::WarmSweep::new(seed, ops)?),
        "served_sweeps" => Box::new(served::Served::new(seed, ops)?),
        "sharded_e12" => Box::new(sharded::Sharded::new(seed, ops, nproc)?),
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    })
}

/// Input generation plus warm-up: one untimed pass over the operations,
/// then the preparation of the first timed pass. Warm-up outcomes are
/// discarded; the timed passes and the oracle judge them.
fn setup(
    workload: &str,
    seed: u64,
    ops: Option<usize>,
    nproc: usize,
) -> Result<Box<dyn Bench>, String> {
    let mut b = make(workload, seed, ops, nproc)?;
    let off = Tracer::new(false);
    for i in 0..b.op_count() {
        b.op(i, &off, &mut Counters::default());
    }
    b.begin_pass()?;
    Ok(b)
}

/// Run passes over the operation list until `seconds` have passed, but
/// never stop before the first pass is complete. Pass `p` runs under
/// `tracers[p % tracers.len()]`, so traced passes interleave with untraced
/// ones and host drift hits both alike. Later passes must reproduce the
/// first pass's outputs exactly.
fn timed(
    b: &mut dyn Bench,
    seconds: f64,
    tracers: &[&Tracer],
    host: &mut Counters,
    first: &mut Vec<(OpOut, u64)>,
) -> Result<Phase, String> {
    let mut ph = Phase::default();
    let t0 = Instant::now();
    let n = b.op_count();
    'passes: loop {
        if ph.passes > 0 {
            b.begin_pass()?;
        }
        let tr = tracers[ph.passes % tracers.len()];
        for i in 0..n {
            // Done once time is up, the first pass is complete and, in a
            // traced run, a traced pass has begun.
            let traced_seen = tracers.len() == 1 || ph.ops.len() > n;
            if traced_seen && first.len() == n && t0.elapsed().as_secs_f64() >= seconds {
                break 'passes;
            }
            tr.set_op(ph.ops.len() as u64 + 1);
            let t = Instant::now();
            let out = b.op(i, tr, host);
            let lat = t.elapsed().as_secs_f64();
            if tr.enabled() {
                b.probe(i, tr, host);
            }
            ph.ops.push((i, lat, tr.enabled()));
            let digest = out.digest();
            let mut bad = !out.ok;
            if first.len() < n {
                first.push((out, digest));
            } else {
                bad |= digest != first[i].1;
            }
            if bad {
                ph.failed += 1;
            }
        }
        ph.passes += 1;
    }
    Ok(ph)
}

impl Phase {
    /// Each operation's latency in seconds over the traced or the untraced
    /// passes: `stat` of its times in the passes that ran it (`None` for
    /// operations those passes never reached).
    fn per_op(&self, n: usize, traced: bool, stat: fn(&[f64]) -> f64) -> Vec<Option<f64>> {
        let mut lat: Vec<Vec<f64>> = vec![Vec::new(); n];
        for &(i, l, t) in &self.ops {
            if t == traced {
                lat[i].push(l);
            }
        }
        lat.iter()
            .map(|v| (!v.is_empty()).then(|| stat(v)))
            .collect()
    }

    fn count(&self, traced: bool) -> usize {
        self.ops.iter().filter(|o| o.2 == traced).count()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    ops: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        ops: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse::<f64>().map_err(|_| bad())?,
            "--trace" => a.trace = val.parse::<u8>().map_err(|_| bad())? != 0,
            "--ops" => a.ops = Some(val.parse::<usize>().map_err(|_| bad())?.max(1)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Per-layer metrics in declaration order: (name, unit).
const LAYER_METRICS: &[(&str, &str)] = &[
    ("kernel.run_s", "s"),
    ("kernel.events", "count"),
    ("kernel.ns_per_event", "ns"),
    ("kernel.delta_cycles", "count"),
    ("kernel.timesteps", "count"),
    ("kernel.notifications", "count"),
    ("kernel.heap_events", "count"),
    ("kernel.queue_high_water", "count"),
    ("kernel.snapshot.capture_s", "s"),
    ("kernel.snapshot.restore_s", "s"),
    ("kernel.snapshot.full_bytes", "B"),
    ("kernel.snapshot.delta_bytes", "B"),
    ("kernel.snapshot.dirty_components", "count"),
    ("dse.sweep_s", "s"),
    ("dse.eval_s", "s"),
    ("dse.build_s", "s"),
    ("dse.rewind_gap_s", "s"),
    ("dse.points_per_build", "count"),
    ("dse.worker_idle_frac", "frac"),
    ("soc.build_s", "s"),
    ("soc.cpu_retired", "count"),
    ("soc.cpu_polls", "count"),
    ("bus.words", "count"),
    ("bus.grants", "count"),
    ("bus.utilization", "frac"),
    ("bus.grant_wait_ns_max", "ns"),
    ("core.switches", "count"),
    ("core.config_words", "count"),
    ("core.hit_rate", "frac"),
    ("core.reconfig_overhead", "frac"),
    ("kernel.shard.plan_s", "s"),
    ("kernel.shard.rounds", "count"),
    ("kernel.shard.quiescent_rounds", "count"),
    ("kernel.shard.messages", "count"),
    ("kernel.shard.blocked_frac", "frac"),
    ("kernel.shard.parallel_efficiency", "frac"),
    ("kernel.shard.load_imbalance", "ratio"),
    ("serve.hit_frac", "frac"),
    ("serve.simulated_points", "count"),
    ("serve.requests_replay", "count"),
    ("serve.requests_restore", "count"),
    ("serve.requests_extend", "count"),
    ("serve.requests_cold", "count"),
    ("serve.store_bytes", "B"),
    ("serve.links", "count"),
    ("serve.full_links", "count"),
    ("serve.ping_ms", "ms"),
    ("serve.socket_overhead_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
];

/// Host-time layer metrics read from spans: metric, span name. Each is the
/// span's inclusive time per operation of the traced phase.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("kernel.run_s", "kernel.run"),
    ("kernel.snapshot.capture_s", "kernel.snapshot.capture"),
    ("kernel.snapshot.restore_s", "kernel.snapshot.restore"),
    ("dse.sweep_s", "dse.sweep"),
    ("dse.eval_s", "dse.eval"),
    ("dse.build_s", "dse.build"),
    ("soc.build_s", "soc.build"),
    ("kernel.shard.plan_s", "kernel.shard.plan"),
];

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(a: &Args, t_start: Instant) -> Result<String, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Every workload runs on one CPU. The sweep runner and the server size
    // their pools by the CPUs the process may use, and on a small shared
    // host two vCPUs give anywhere from one to two CPUs' worth of work,
    // changing from minute to minute (on a 2-vCPU VM, one pinned worker ran
    // warm_sweep and served_sweeps faster than two, with half the
    // run-to-run spread). Pinned, the benchmark times the program, not the
    // host's grant of parallelism. sharded_e12 still runs min(nproc, LPs)
    // shards, with nproc counted before pinning, so its barriers and
    // messages do the same work.
    let pinned = match util::pin_to_one_cpu() {
        Ok(cpu) => format!("pinned to CPU {cpu}"),
        Err(e) => format!("not pinned: {e}"),
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        a.workload, a.seed, a.seconds, a.trace as u8
    );

    // Set up several times; the median is the reported set-up time. The
    // first set-up is timed from process start.
    const SETUPS: usize = 5;
    let mut setup_times = Vec::new();
    let mut bench = None;
    for k in 0..SETUPS {
        let t = if k == 0 { t_start } else { Instant::now() };
        drop(bench.take());
        let b = setup(&a.workload, a.seed, a.ops, nproc)?;
        setup_times.push(t.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let mut b = bench.ok_or("no set-up ran")?;
    let setup_s = util::median(&setup_times);

    println!(
        "host: nproc={nproc} ({pinned}) allocator=system (Rust default, no pool allocator) {}",
        b.parallelism()
    );
    println!(
        "model: unvalidated against hardware measurements, so no simulated-vs-hardware error figure is given"
    );
    for line in b.mix() {
        println!("mix: {line}");
    }

    let mut first = Vec::new();
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let tracers: Vec<&Tracer> = if a.trace { vec![&off, &on] } else { vec![&off] };
    let mut host = Counters::default();
    let ph = timed(b.as_mut(), a.seconds, &tracers, &mut host, &mut first)?;
    let peak_rss = util::peak_rss_mb();

    // An operation's latency is its best time over the untraced passes.
    // A shared host's speed drifts by tens of percent over seconds to
    // minutes (memory contention, vCPU wake-up latency); the best
    // of many passes spread over the run estimates the program's own cost
    // and moves far less with that drift than a median does. The oracle
    // compares against single direct calls, so it gets medians.
    let n = first.len();
    let per_op_ms = |stat: fn(&[f64]) -> f64| -> Vec<f64> {
        ph.per_op(n, false, stat)
            .into_iter()
            .map(|l| l.unwrap_or(0.0) * 1e3)
            .collect()
    };
    let lat_ms = per_op_ms(util::min);

    // Oracle, outside the timed region.
    let (verdicts, check_counters) = b.check(
        &first,
        &per_op_ms(util::median),
        a.trace.then_some(&mut host),
    );
    let mismatches = verdicts.iter().filter(|v| !**v).count() as u64;
    // A first-pass operation that already failed is not counted twice.
    let newly_failed = verdicts
        .iter()
        .zip(&first)
        .filter(|(v, (o, _))| !**v && o.ok)
        .count() as u64;
    let failed = ph.failed + newly_failed;
    let attempted = ph.ops.len() as u64;
    let failed_frac = failed as f64 / attempted.max(1) as f64;

    let mut digest = util::Digest::new();
    let mut counters = Counters::default();
    for (o, d) in &first {
        digest = digest.text(&format!("{d:016x}"));
        counters.merge(&o.counters);
    }
    counters.merge(&check_counters);
    println!(
        "digest: {:016x} over the simulated outputs of the {n} operations of one pass; {}",
        digest.finish(),
        counters.render()
    );
    println!(
        "oracle: {mismatches} of {n} first-pass operations disagree with the oracle; {} passes timed",
        ph.passes
    );

    // Rates over one pass: the pass's work divided by the sum of its
    // operations' best latencies.
    let pass_s: f64 = lat_ms.iter().sum::<f64>() / 1e3;
    let rate = |work: f64| if pass_s > 0.0 { work / pass_s } else { 0.0 };
    let ops_per_s = rate(n as f64);
    let points_per_s = rate(first.iter().map(|(o, _)| o.points as f64).sum());
    let sim_us_per_s = rate(first.iter().map(|(o, _)| o.sim_us).sum());
    let (tail_ms, tail_pct, tail_n) = util::tail(&lat_ms);
    let p50_ms = util::median(&lat_ms);

    println!(
        "end-to-end (host wall time of the untraced passes; {} operations, an operation's latency is its best over passes):",
        ph.count(false)
    );
    println!("  ops_per_s        = {} 1/s", num(ops_per_s));
    println!("  op_p50_ms        = {} ms", num(p50_ms));
    println!(
        "  op_tail_ms       = {} ms (p{:.2} of {} samples, 10 beyond it)",
        num(tail_ms),
        tail_pct,
        tail_n
    );
    println!("  sim_us_per_s     = {} us/s", num(sim_us_per_s));
    println!("  points_per_s     = {} 1/s", num(points_per_s));
    println!(
        "  setup_s          = {} s (median of {SETUPS} set-ups: {:?})",
        num(setup_s),
        setup_times
    );
    println!("  peak_rss_mb      = {} MiB", num(peak_rss));
    println!(
        "  failed_ops_frac  = {} ({failed} of {attempted})",
        num(failed_frac)
    );

    let correct = failed == 0;
    let metrics: Vec<(String, f64, &str)> = if !a.trace {
        vec![
            ("ops_per_s".into(), ops_per_s, "1/s"),
            ("op_p50_ms".into(), p50_ms, "ms"),
            ("op_tail_ms".into(), tail_ms, "ms"),
            ("sim_us_per_s".into(), sim_us_per_s, "us/s"),
            ("points_per_s".into(), points_per_s, "1/s"),
            ("setup_s".into(), setup_s, "s"),
            ("peak_rss_mb".into(), peak_rss, "MiB"),
        ]
    } else {
        let spans = on.take();
        let traced_ops = ph.count(true);
        let summary = trace::summarize(&spans);
        println!(
            "spans ({} recorded over {traced_ops} traced operations): name count inclusive_s self_s",
            spans.len()
        );
        for (name, (count, incl, own)) in &summary {
            println!("  {name:<28} {count:>8} {incl:>12.6} {own:>12.6}");
        }
        let mut layer = counters.clone();
        layer.merge(&host);
        let mut vals: std::collections::BTreeMap<&str, f64> = LAYER_METRICS
            .iter()
            .map(|(n, _)| (*n, layer.get(n)))
            .collect();
        for (metric, span) in SPAN_METRICS {
            let total = summary.get(span).map_or(0.0, |s| s.1);
            vals.insert(metric, total / traced_ops.max(1) as f64);
        }
        let run_total = summary.get("kernel.run").map_or(0.0, |s| s.1);
        let traced_events = host.get("trace.kernel_events");
        vals.insert(
            "kernel.ns_per_event",
            if traced_events > 0.0 {
                run_total * 1e9 / traced_events
            } else {
                0.0
            },
        );
        // Tracing overhead: traced over untraced latency of the operations
        // both kinds of pass ran.
        let (mut t_sum, mut u_sum) = (0.0, 0.0);
        for (t, u) in ph.per_op(n, true, util::min).iter().zip(&lat_ms) {
            if let Some(t) = t {
                t_sum += t * 1e3;
                u_sum += u;
            }
        }
        vals.insert(
            "trace.overhead_frac",
            if u_sum > 0.0 {
                t_sum / u_sum - 1.0
            } else {
                0.0
            },
        );
        vals.insert("trace.spans", spans.len() as f64);
        std::fs::create_dir_all(".bench_out").map_err(|e| format!("creating .bench_out: {e}"))?;
        let path = format!(".bench_out/spans-{}-{}.jsonl", a.workload, a.seed);
        std::fs::write(&path, trace::to_jsonl(&spans))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("spans written to {path}");
        LAYER_METRICS
            .iter()
            .map(|(n, u)| (n.to_string(), vals[n], *u))
            .collect()
    };
    Ok(result_json(correct, attempted, failed, &metrics))
}

fn main() {
    let t_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args, t_start) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
