//! `soc_runs`: one seeded BCA SoC scenario per operation, built with
//! `build_soc` and run to quiescence with `run_soc_mut`.
//!
//! The oracle reruns each scenario with configuration-traffic coalescing
//! off and requires equal `RunMetrics`.

use drcf_soc::prelude::{build_soc, run_soc_mut, Cpu, RunMetrics, SocSpec};

use crate::scenario::{self, Scenario};
use crate::trace::Tracer;
use crate::util::{digest_of, Agg, Counters, Rng};
use crate::{Bench, OpOut};

pub struct SocRuns {
    scenarios: Vec<Scenario>,
}

impl SocRuns {
    pub fn new(seed: u64, ops: Option<usize>) -> Result<SocRuns, String> {
        let mut rng = Rng::new(seed);
        let mut scenarios = scenario::factorial_scenarios(&mut rng);
        if let Some(n) = ops {
            scenarios.truncate(n);
        }
        Ok(SocRuns { scenarios })
    }
}

/// Build and run one scenario; `None` on a typed build error.
pub fn run_one(
    s: &Scenario,
    spec: &SocSpec,
    tr: &Tracer,
    counters: Option<&mut Counters>,
) -> Option<RunMetrics> {
    let mut soc = {
        let _g = tr.span("soc.build", 0);
        build_soc(&s.workload, spec).ok()?
    };
    let m = {
        let _g = tr.span("kernel.run", 0);
        run_soc_mut(&mut soc)
    };
    if let Some(c) = counters {
        let k = soc.sim.metrics();
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
        let cpu = soc.sim.get::<Cpu>(soc.cpu);
        c.add("soc.cpu_retired", Agg::Sum, cpu.stats.retired as f64);
        c.add("soc.cpu_polls", Agg::Sum, cpu.stats.polls as f64);
        add_run_counters(c, &m);
    }
    Some(m)
}

/// The simulated bus and fabric counters of one run.
pub fn add_run_counters(c: &mut Counters, m: &RunMetrics) {
    c.add("bus.words", Agg::Sum, m.bus_words as f64);
    c.add(
        "bus.grants",
        Agg::Sum,
        m.bus_contention.rows.iter().map(|r| r.grants).sum::<u64>() as f64,
    );
    c.add("bus.utilization", Agg::Mean, m.bus_utilization);
    c.add(
        "bus.grant_wait_ns_max",
        Agg::Max,
        m.bus_contention
            .rows
            .iter()
            .map(|r| r.wait.max().as_ns_f64())
            .fold(0.0, f64::max),
    );
    c.add("core.switches", Agg::Sum, m.switches as f64);
    c.add("core.config_words", Agg::Sum, m.config_words as f64);
    c.add("core.hit_rate", Agg::Mean, m.hit_rate);
    c.add("core.reconfig_overhead", Agg::Mean, m.reconfig_overhead);
}

impl Bench for SocRuns {
    fn mix(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "{} scenarios, one per family x mapping x copy mode x arbiter x frames x samples; {}",
            self.scenarios.len(),
            scenario::size_mix(&self.scenarios)
        )];
        lines.extend(
            self.scenarios
                .iter()
                .take(3)
                .map(|s| format!("e.g. {}", s.label)),
        );
        lines
    }

    fn parallelism(&self) -> String {
        "workers=1 shards=1".into()
    }

    fn op_count(&self) -> usize {
        self.scenarios.len()
    }

    fn op(&mut self, i: usize, tr: &Tracer, host: &mut Counters) -> OpOut {
        let s = &self.scenarios[i];
        let mut counters = Counters::default();
        let Some(m) = run_one(s, &s.spec, tr, Some(&mut counters)) else {
            return OpOut::failed();
        };
        if tr.enabled() {
            host.add(
                "trace.kernel_events",
                Agg::Sum,
                counters.get("kernel.events"),
            );
        }
        OpOut {
            ok: m.ok,
            sim_us: m.makespan.as_us_f64(),
            output: Box::new(m),
            points: 1,
            counters,
        }
    }

    fn check(
        &mut self,
        outs: &[(OpOut, u64)],
        _lat_ms: &[f64],
        _host: Option<&mut Counters>,
    ) -> (Vec<bool>, Counters) {
        let off = Tracer::new(false);
        let verdicts = self
            .scenarios
            .iter()
            .zip(outs)
            .map(|(s, (_, digest))| {
                let spec = SocSpec {
                    coalesce_config_traffic: false,
                    ..s.spec.clone()
                };
                run_one(s, &spec, &off, None).is_some_and(|m| m.ok && digest_of(&m) == *digest)
            })
            .collect();
        (verdicts, Counters::default())
    }
}
