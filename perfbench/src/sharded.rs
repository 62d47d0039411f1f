//! `sharded_e12`: one seeded E12-style bridge hierarchy per operation,
//! planned and run with `run_partitioned` at min(nproc, LPs) shards.
//!
//! The oracle reruns each hierarchy on one shard and requires
//! `same_outcome`.

use std::sync::Arc;

use drcf_bench::e12_hierarchy::{e12_switches, sharded_e12_graph};
use drcf_kernel::prelude::{ShardConfig, ShardRunReport, SimDuration, SimTime};
use drcf_soc::prelude::{plan_partition, run_partitioned, SocGraph};

use crate::scenario::factorial;
use crate::trace::Tracer;
use crate::util::{Agg, Counters, Rng};
use crate::{Bench, OpOut};

struct Hier {
    label: String,
    fabrics: usize,
    accesses: u32,
    graph: Arc<SocGraph>,
    horizon: SimDuration,
}

pub struct Sharded {
    hiers: Vec<Hier>,
    /// First-pass reports, for the oracle.
    reports: Vec<Option<ShardRunReport>>,
    /// Passes begun; 0 during warm-up.
    pass: usize,
    nproc: usize,
}

impl Sharded {
    /// `nproc`: the host's CPU count, which caps the shards of a run.
    pub fn new(seed: u64, ops: Option<usize>, nproc: usize) -> Result<Sharded, String> {
        let mut rng = Rng::new(seed ^ 0x5348_5244);
        // One hierarchy per fabric count (1..=3) x context size (4 levels)
        // x switches (4 levels) x probe reads (5 levels); the seed jitters
        // switches and probe reads within their levels.
        let levels = factorial(&[3, 4, 4, 5]);
        let n = ops.unwrap_or(levels.len()).min(levels.len());
        let mut hiers = Vec::new();
        for l in &levels[..n] {
            let fabrics = 1 + l[0];
            let config_words = 128 * (1 + l[1] as u64);
            let accesses = (4 + 2 * l[2] as u64 + rng.range(0, 1)) as u32;
            let probe_reads = (40 + 24 * l[3] as u64 + rng.range(0, 23)) as u32;
            let graph = Arc::new(sharded_e12_graph(
                config_words,
                fabrics,
                accesses,
                probe_reads,
            ));
            plan_partition(&graph).map_err(|e| e.to_string())?;
            // Long enough for every churn access (two bridge crossings of
            // 10 us plus the context load) and every probe read.
            let churn_ns = u64::from(accesses) * (25_000 + 20 * config_words);
            let probe_ns = 500 * u64::from(probe_reads);
            let horizon = SimDuration::ns(churn_ns.max(probe_ns) + 20_000);
            hiers.push(Hier {
                label: format!(
                    "fabrics={fabrics} config_words={config_words} switches={accesses} probe_reads={probe_reads} horizon={horizon}"
                ),
                fabrics,
                accesses,
                graph,
                horizon,
            });
        }
        rng.shuffle(&mut hiers);
        Ok(Sharded {
            reports: vec![None; hiers.len()],
            pass: 0,
            hiers,
            nproc,
        })
    }

    fn shards(&self, h: &Hier) -> usize {
        self.nproc.min(h.fabrics + 1)
    }
}

/// The simulated outcome of a sharded run: round, message and in-flight
/// counts, and per LP its name, end time, state hash and probe.
type Outcome = (u64, u64, u64, Vec<(String, u64, u64, String)>);

fn outcome(r: &ShardRunReport) -> Outcome {
    let lps = r
        .lps
        .iter()
        .map(|lp| {
            (
                lp.name.clone(),
                lp.final_time_fs,
                lp.state_hash,
                lp.probe.to_string(),
            )
        })
        .collect();
    (r.rounds, r.messages, r.in_flight_at_end, lps)
}

impl Bench for Sharded {
    fn mix(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "{} hierarchies, one per fabric count 1..=3 (LPs = fabrics + 1) x context size x switches x probe reads",
            self.hiers.len()
        )];
        lines.extend(
            self.hiers
                .iter()
                .take(3)
                .map(|h| format!("e.g. {}", h.label)),
        );
        lines
    }

    fn parallelism(&self) -> String {
        let mut shards: Vec<usize> = self.hiers.iter().map(|h| self.shards(h)).collect();
        shards.sort_unstable();
        shards.dedup();
        format!("client threads=1 shards per run=min(nproc, LPs), here {shards:?}")
    }

    fn op_count(&self) -> usize {
        self.hiers.len()
    }

    fn begin_pass(&mut self) -> Result<(), String> {
        self.pass += 1;
        Ok(())
    }

    fn op(&mut self, i: usize, tr: &Tracer, host: &mut Counters) -> OpOut {
        let h = &self.hiers[i];
        let cfg = ShardConfig::to(SimTime::ZERO + h.horizon).shards(self.shards(h));
        let run = {
            let _g = tr.span("kernel.run", 0);
            match run_partitioned(&h.graph, &cfg) {
                Ok(r) => r,
                Err(_) => return OpOut::failed(),
            }
        };
        let r = &run.report;
        let mut c = Counters::default();
        for lp in &r.lps {
            let k = &lp.metrics;
            c.add("kernel.events", Agg::Sum, k.dispatched as f64);
            c.add("kernel.delta_cycles", Agg::Sum, k.delta_cycles as f64);
            c.add("kernel.timesteps", Agg::Sum, k.timesteps as f64);
            c.add("kernel.notifications", Agg::Sum, k.notifications as f64);
            c.add("kernel.heap_events", Agg::Sum, k.heap_events as f64);
            c.add(
                "kernel.queue_high_water",
                Agg::Max,
                k.queue_high_water as f64,
            );
        }
        c.add("kernel.shard.rounds", Agg::Sum, r.rounds as f64);
        c.add(
            "kernel.shard.quiescent_rounds",
            Agg::Sum,
            r.profile.quiescent_rounds as f64,
        );
        c.add("kernel.shard.messages", Agg::Sum, r.messages as f64);
        c.add("bus.words", Agg::Sum, run.metrics.bus_words as f64);
        let switches = e12_switches(&run);
        c.add("core.switches", Agg::Sum, switches as f64);
        if tr.enabled() {
            let eff = r.profile.efficiency();
            let blocked: Vec<f64> = r.profile.lps.iter().map(|l| l.blocked_fraction()).collect();
            host.add(
                "kernel.shard.blocked_frac",
                Agg::Mean,
                blocked.iter().sum::<f64>() / blocked.len().max(1) as f64,
            );
            host.add(
                "kernel.shard.parallel_efficiency",
                Agg::Mean,
                eff.parallel_efficiency,
            );
            host.add("kernel.shard.load_imbalance", Agg::Mean, eff.load_imbalance);
            host.add("trace.kernel_events", Agg::Sum, r.total_dispatched() as f64);
        }
        let output = Box::new(outcome(r));
        // Every churn access must have forced its context switch.
        let ok = run.metrics.ok
            && run.metrics.errors == 0
            && switches == h.fabrics as u64 * u64::from(h.accesses);
        if self.pass == 1 {
            self.reports[i] = Some(run.report);
        }
        OpOut {
            ok,
            output,
            sim_us: h.horizon.as_us_f64(),
            points: 1,
            counters: c,
        }
    }

    fn probe(&mut self, i: usize, tr: &Tracer, _host: &mut Counters) {
        let _g = tr.span("kernel.shard.plan", 0);
        let _ = plan_partition(&self.hiers[i].graph);
    }

    fn check(
        &mut self,
        _outs: &[(OpOut, u64)],
        _lat_ms: &[f64],
        _host: Option<&mut Counters>,
    ) -> (Vec<bool>, Counters) {
        let verdicts = self
            .hiers
            .iter()
            .zip(&self.reports)
            .map(|(h, rep)| {
                let cfg = ShardConfig::to(SimTime::ZERO + h.horizon).shards(1);
                match (run_partitioned(&h.graph, &cfg), rep) {
                    (Ok(oracle), Some(rep)) => oracle.report.same_outcome(rep),
                    _ => false,
                }
            })
            .collect();
        (verdicts, Counters::default())
    }
}
